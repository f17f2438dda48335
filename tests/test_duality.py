import numpy as np
import pytest

from pgakit import algebra as ga
from pgakit import duality as du
from pgakit.algebra import GAError, Signature


def test_j_fixes_scalar_and_pseudoscalar(pga3):
    one = pga3.scalar(1.0)
    assert du.j_map(one) == pga3.pseudoscalar()
    assert du.j_map(pga3.pseudoscalar()) == one


def test_j_is_involution_and_grade_reversing():
    for sig in [Signature(1, 0, 1, "dual"), Signature(2, 0, 1, "dual"),
                Signature(3, 0, 1, "dual"), Signature(4, 1, 0)]:
        alg = ga.build_algebra(sig)
        d = alg.gens
        for pos, name in enumerate(alg.names):
            b = alg.blade(name)
            jb = du.j_map(b)
            assert jb.grades_present() == (d - int(alg.grades[pos]),)
            assert du.j_map(jb) == b


def test_j_low_grade_half_wedges_to_plus_i(pga3):
    i = pga3.pseudoscalar()
    for pos, name in enumerate(pga3.names):
        g = int(pga3.grades[pos])
        if g < pga3.gens - g:
            b = pga3.blade(name)
            assert (b ^ du.j_map(b)) == i


def test_j_metric_independent():
    # any metric over the same generator count yields the identical map
    d4 = [Signature(3, 0, 1, "dual"), Signature(4, 0, 0), Signature(3, 1, 0),
          Signature(2, 2, 0), Signature(2, 1, 1)]
    tables = []
    for sig in d4:
        alg = ga.build_algebra(sig)
        tables.append(du._tables(alg))
    p0, s0 = tables[0]
    for p, s in tables[1:]:
        assert np.array_equal(p, p0)
        assert np.array_equal(s, s0)


def test_shuffle_identity_exhaustive():
    # j(meet(x,y)) == join(j(x), j(y)) on every blade pair, up to 4 generators
    for d in (1, 2, 3, 4):
        alg = ga.build_algebra(Signature(d - 1, 0, 1, "dual"))
        for na in alg.names:
            for nb in alg.names:
                x, y = alg.blade(na), alg.blade(nb)
                lhs = du.j_map(du.meet(x, y))
                rhs = du.join(du.j_map(x), du.j_map(y))
                assert lhs == rhs, (d, na, nb)


def test_meet_requires_dual_orientation(cga3):
    with pytest.raises(GAError):
        du.meet(cga3.blade("e0"), cga3.blade("e1"))


def test_polarity_kills_pseudoscalar_in_degenerate(pga3):
    assert du.polarity(pga3.pseudoscalar()).is_zero()


def test_parallel_planes_share_polar_point(pga3):
    # planes x=0 and x=1 differ only in ideal part, which polarity kills
    p0 = pga3.blade("e1")
    p1 = pga3.blade("e1") - pga3.blade("e0")
    assert du.polarity(p0) == du.polarity(p1)
    assert not du.polarity(p0).is_zero()


def test_join_matches_polarity_composition_in_nondegenerate():
    # with an invertible metric the regressive product of homogeneous
    # elements can be phrased through polarity; the relative scale is a
    # fixed sign per grade pair, so agreement is up to a nonzero factor
    alg = ga.build_algebra(Signature(3, 0, 0))
    rng = np.random.default_rng(7)
    for _ in range(300):
        gx, gy = rng.integers(0, alg.gens + 1, 2)
        x = _random_homogeneous(alg, int(gx), rng)
        y = _random_homogeneous(alg, int(gy), rng)
        via_j = du.join(x, y)
        via_pol = du.polarity(du.polarity(x) ^ du.polarity(y))
        nj, np_ = via_j.norm(), via_pol.norm()
        if nj < 1e-12 or np_ < 1e-12:
            assert nj < 1e-9 and np_ < 1e-9
            continue
        dot = float(np.dot(via_j.coeffs, via_pol.coeffs))
        assert abs(abs(dot) - nj * np_) <= 1e-10 * nj * np_


def _random_homogeneous(alg, grade, rng):
    c = np.zeros(alg.size)
    sl = alg.grade_slice[grade]
    c[sl] = rng.uniform(-1, 1, sl.stop - sl.start)
    return alg.from_coeffs(c)


def _composed_join(x, y):
    return du.j_map(du.j_map(x).outer(du.j_map(y)))


def _oracle_operand(alg, rng):
    """Dense, sparse with signed zeros, 1e200-scaled or infinite slots."""
    c = rng.uniform(-2.0, 2.0, alg.size)
    if rng.random() < 0.5:
        zero = rng.random(alg.size) < rng.random()
        c[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    if rng.random() < 0.2:
        c *= 1e200
    if rng.random() < 0.1:
        c[rng.integers(alg.size)] = rng.choice([np.inf, -np.inf])
    return alg.from_coeffs(c)


@pytest.mark.parametrize("model", ["pga2", "pga3", "cga3"])
def test_join_is_the_complemented_outer_product(model, request):
    # the fused pair list against J(J(x) ^ J(y)): every value is the same,
    # and where the bits differ the composition's last j_map turned the
    # kernel's +0.0 into -0.0
    alg = request.getfixturevalue(model)
    rng = np.random.default_rng(11)
    for _ in range(3000):
        x, y = _oracle_operand(alg, rng), _oracle_operand(alg, rng)
        with np.errstate(all="ignore"):  # 1e200 products overflow, inf * 0
            got = du.join(x, y).coeffs
            want = _composed_join(x, y).coeffs
        assert np.array_equal(got, want, equal_nan=True)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert np.all(got[differ] == 0.0) and np.all(want[differ] == 0.0)
        assert not np.signbit(got[differ]).any()


def test_join_is_one_kernel_call(pga2, pga3, cga3, monkeypatch):
    calls = {"product": 0, "j_map": 0}
    product, j_map = ga.Algebra.product, du.j_map

    def counted_product(*args, **kwargs):
        calls["product"] += 1
        return product(*args, **kwargs)

    def counted_j_map(x):
        calls["j_map"] += 1
        return j_map(x)

    monkeypatch.setattr(ga.Algebra, "product", counted_product)
    monkeypatch.setattr(du, "j_map", counted_j_map)
    for alg in (pga2, pga3, cga3):
        x, y = alg.blade("e1"), alg.blade("e2")
        for route in (du.join, type(x).__and__):
            calls.update(product=0, j_map=0)
            route(x, y)
            assert calls == {"product": 1, "j_map": 0}, (alg, route)

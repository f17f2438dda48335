import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgakit import algebra as ga
from pgakit import duality as du
from pgakit.algebra import AlgebraMismatch, GAError, Signature, SignatureError

from bruteforce import blade_of_mask, mask_of_blade, multiply_blades
from conftest import random_mv

ASSOC_TOL = 1e-12


def _signatures(max_gens):
    return [
        Signature(p, q, d - p - q)
        for d in range(max_gens + 1)
        for p in range(d + 1)
        for q in range(d + 1 - p)
    ]


ALL_SMALL_SIGNATURES = _signatures(3)

REGISTERED = [
    Signature(3, 0, 1, "dual"),
    Signature(2, 0, 1, "dual"),
    Signature(4, 1, 0),
    Signature(3, 0, 0),
    Signature(1, 1, 1),
]


def test_signature_guards():
    with pytest.raises(SignatureError):
        Signature(7, 0, 0)
    with pytest.raises(SignatureError):
        Signature(-1, 0, 0)
    with pytest.raises(SignatureError):
        Signature(3, 0, 1, "sideways")
    ga.build_algebra(Signature(6, 0, 0))  # at the limit, allowed


def test_generator_layout():
    alg = ga.pga(3)
    assert alg.size == 16
    assert alg.metric == (0, 1, 1, 1)
    assert ga.cga(3).metric == (1, 1, 1, 1, -1)
    assert ga.build_algebra(Signature(0, 0, 1)).size == 2


def test_blade_ordering_and_names(pga3):
    assert pga3.names[0] == "1"
    assert pga3.names[-1] == "e0123"
    # sorted by grade, then bitmask
    assert list(pga3.grades) == sorted(pga3.grades)
    assert pga3.basis_blades(2) == ["e01", "e02", "e12", "e03", "e13", "e23"]


def test_gp_blade_examples(pga3):
    e0, e1, e2 = (pga3.blade(n) for n in ("e0", "e1", "e2"))
    assert e1 * e1 == pga3.scalar(1.0)
    assert (e0 * e0).is_zero()
    assert e1 * e2 == pga3.blade("e12")
    assert e2 * e1 == pga3.blade("e12", -1.0)
    ps = pga3.pseudoscalar()
    assert (ps * ps).is_zero()  # degenerate pseudoscalar squares to zero


def _brute_product(kind, a, b, metric):
    """(sign, blade) of one blade pair under gp, outer or left_contract."""
    sign, blade = multiply_blades(a, b, metric)
    if kind == "outer" and set(a) & set(b):
        return 0, ()
    if kind == "left_contract" and len(blade) != len(b) - len(a):
        return 0, ()
    return sign, blade


PRODUCTS = ("gp", "outer", "left_contract")


def test_brute_force_agreement_all_small_signatures():
    for sig in ALL_SMALL_SIGNATURES:
        alg = ga.build_algebra(sig)
        metric = dict(enumerate(alg.metric))
        for i, ma in enumerate(alg.mask_of):
            for j, mb in enumerate(alg.mask_of):
                x, y = alg.blade(alg.names[i]), alg.blade(alg.names[j])
                for kind in PRODUCTS:
                    want_sign, want_blade = _brute_product(
                        kind, blade_of_mask(ma), blade_of_mask(mb), metric
                    )
                    got = getattr(x, kind)(y)
                    where = (sig, kind, alg.names[i], alg.names[j])
                    if want_sign == 0:
                        assert got.is_zero(), where
                    else:
                        idx = alg.pos_of[mask_of_blade(want_blade)]
                        expect = np.zeros(alg.size)
                        expect[idx] = want_sign
                        assert np.array_equal(got.coeffs, expect), where


def test_tables_match_brute_force_up_to_max_generators():
    # sign, result and outer_sign of every blade pair, and the complement of
    # every blade: 84 signatures, 140,781 pairs
    signatures = _signatures(ga.MAX_GENERATORS)
    assert len(signatures) == 84
    for sig in signatures:
        alg = ga.build_algebra(sig)
        metric = dict(enumerate(alg.metric))
        plain = dict.fromkeys(range(alg.gens), 1)  # keeps the blade a zero square drops
        blades = [blade_of_mask(m) for m in alg.mask_of]
        sign = np.zeros((alg.size, alg.size), dtype=int)
        result = np.zeros_like(sign)
        outer = np.zeros_like(sign)
        for i, a in enumerate(blades):
            for j, b in enumerate(blades):
                sign[i, j] = multiply_blades(a, b, metric)[0]
                order, blade = multiply_blades(a, b, plain)
                result[i, j] = alg.pos_of[mask_of_blade(blade)]
                outer[i, j] = 0 if set(a) & set(b) else order
        np.testing.assert_array_equal(alg.sign, sign, err_msg=str(sig))
        np.testing.assert_array_equal(alg.result, result, err_msg=str(sig))
        np.testing.assert_array_equal(alg.outer_sign, outer, err_msg=str(sig))

        # both members of a complementary pair carry the sign of lower * upper,
        # lower being the one of lower grade, or of smaller mask at equal grade
        partner, comp_sign = du._tables(alg)
        full = alg.size - 1
        for i, m in enumerate(alg.mask_of):
            assert alg.mask_of[partner[i]] == full ^ m, (sig, alg.names[i])
            lower = min(m, full ^ m, key=lambda k: (len(blade_of_mask(k)), k))
            want = multiply_blades(blade_of_mask(lower), blade_of_mask(full ^ lower),
                                   plain)[0]
            assert comp_sign[i] == want, (sig, alg.names[i])


def test_products_sum_in_i_major_order(pga2, pga3, cga3, rng):
    # the kernel must add the blade-pair terms in the order of a loop over
    # the left operand's blades: CSV reruns and check's array_equal rely on it
    for alg in (pga2, pga3, cga3):
        metric = dict(enumerate(alg.metric))
        blades = [blade_of_mask(m) for m in alg.mask_of]
        for kind in PRODUCTS:
            terms = []
            for i, a in enumerate(blades):
                for j, b in enumerate(blades):
                    sign, blade = _brute_product(kind, a, b, metric)
                    if sign:
                        terms.append((i, j, sign, alg.pos_of[mask_of_blade(blade)]))
            for _ in range(10):
                x, y = random_mv(alg, rng), random_mv(alg, rng)
                want = np.zeros(alg.size)
                for i, j, sign, k in terms:
                    want[k] += sign * (x.coeffs[i] * y.coeffs[j])
                got = getattr(x, kind)(y).coeffs
                assert np.array_equal(got, want), (alg, kind)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (alg, kind)


def test_restrict_is_the_product_on_its_slots(pga2, pga3, cga3, rng):
    # cut down to slot subsets, each product's pairs must give the full
    # product's bits on every slot, sign of zero included, for operands
    # that live on the left and right slots (signed zeros there too)
    for alg in (pga2, pga3, cga3):
        for kind in PRODUCTS:
            for _ in range(20):
                left, right = (np.flatnonzero(rng.random(alg.size) < 0.5)
                               for _ in range(2))
                pairs = ga.restrict(alg.pairs[kind], left, right)
                i, j, _, sign = pairs
                assert np.all(sign != 0)
                assert np.isin(i, left).all() and np.isin(j, right).all()
                a, b = np.zeros(alg.size), np.zeros(alg.size)
                a[left] = rng.choice([-0.0, 0.0, 1.5, -2.25], len(left))
                b[right] = (rng.normal(size=len(right))
                            * rng.integers(0, 2, len(right)))
                got = alg.product(pairs, a, b)
                x, y = alg.from_coeffs(a), alg.from_coeffs(b)
                want = getattr(x, kind)(y).coeffs
                assert got.tobytes() == want.tobytes(), (alg, kind)


_QUIET = [math.nan, 0.0, -0.0]  # no tolerance counts these as present


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ga.pga(2), ga.pga(3), ga.cga(3)]))
def test_grades_present_matches_per_grade_scan(data, alg):
    tol = data.draw(st.sampled_from([0.0, 1e-12, 1.0, math.inf]) | st.floats(0.0))
    quiet = st.sampled_from(_QUIET + [tol, -tol])
    coeffs = data.draw(st.lists(quiet, min_size=alg.size, max_size=alg.size))
    loud = st.sampled_from([math.inf, -math.inf, 2.0 * tol + 1.0]) | st.floats()
    for pos, value in data.draw(st.lists(
            st.tuples(st.integers(0, alg.size - 1), loud), max_size=4)):
        coeffs[pos] = value
    want = tuple(
        g for g in range(alg.gens + 1)
        if any(abs(c) > tol for c, k in zip(coeffs, alg.grades) if k == g))
    assert alg.from_coeffs(coeffs).grades_present(tol) == want


def test_associativity_check_fires_on_a_corrupt_table():
    alg = ga.Algebra(Signature(3, 0, 0))
    alg.sign[3, 5] = -alg.sign[3, 5]
    s, r = alg.sign, alg.result
    first = next(
        (i, j, k)
        for i in range(alg.size)
        for j in range(alg.size)
        for k in range(alg.size)
        if s[i, j] * s[r[i, j], k] != s[j, k] * s[i, r[j, k]]
        or r[r[i, j], k] != r[i, r[j, k]]
    )
    with pytest.raises(GAError, match="not associative at blades %d,%d,%d" % first):
        alg._check_associative()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sig=st.sampled_from(REGISTERED))
def test_gp_associative_random(data, sig):
    alg = ga.build_algebra(sig)
    elems = st.floats(-2, 2, allow_nan=False, width=32)
    arrays = st.lists(elems, min_size=alg.size, max_size=alg.size)
    x, y, z = (alg.from_coeffs(data.draw(arrays)) for _ in range(3))
    lhs = (x * y) * z
    rhs = x * (y * z)
    scale = max(1.0, lhs.norm(), rhs.norm())
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=ASSOC_TOL * scale, rtol=0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sig=st.sampled_from(REGISTERED))
def test_gp_distributes(data, sig):
    alg = ga.build_algebra(sig)
    elems = st.floats(-2, 2, allow_nan=False, width=32)
    arrays = st.lists(elems, min_size=alg.size, max_size=alg.size)
    x, y, z = (alg.from_coeffs(data.draw(arrays)) for _ in range(3))
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * max(1.0, lhs.norm()))


def test_outer_grade_additive_or_zero():
    for sig in [Signature(3, 0, 1, "dual"), Signature(4, 1, 0)]:
        alg = ga.build_algebra(sig)
        for i, ma in enumerate(alg.mask_of):
            for j, mb in enumerate(alg.mask_of):
                w = alg.blade(alg.names[i]) ^ alg.blade(alg.names[j])
                if ma & mb:
                    assert w.is_zero()  # repeated generator annihilates
                else:
                    assert w.grades_present() == (
                        int(alg.grades[i] + alg.grades[j]),
                    ) or w.is_zero()


def test_outer_is_metric_blind():
    # same generator count, different metrics: identical wedge tables
    a1 = ga.build_algebra(Signature(3, 0, 1, "dual"))
    a2 = ga.build_algebra(Signature(4, 0, 0))
    assert np.array_equal(a1.outer_sign, a2.outer_sign)


def test_reverse_antiautomorphism_exact_on_blades(pga3, cga3):
    for alg in (pga3, cga3):
        for na in alg.names:
            for nb in alg.names:
                a, b = alg.blade(na), alg.blade(nb)
                assert (a * b).reverse() == b.reverse() * a.reverse()


def test_involutions(pga3):
    x = pga3.parse("1.0 + 2.0*e1 + 3.0*e12 + 4.0*e012")
    assert x.reverse().reverse() == x
    assert x.involute()["e1"] == -2.0
    assert x.involute()["e12"] == 3.0
    assert x.reverse()["e12"] == -3.0
    assert x.reverse()["e012"] == -4.0


def test_left_contraction_examples(pga3):
    e1, e12 = pga3.blade("e1"), pga3.blade("e12")
    assert (e1 | e12) == pga3.blade("e2")
    assert (e12 | e1).is_zero()  # cannot contract high grade onto low
    s = pga3.scalar(3.0)
    x = pga3.parse("2.0*e1 + 1.0*e23")
    assert (s | x) == x * 3.0


def test_commutator_antisymmetric(pga3, rng):
    x, y = random_mv(pga3, rng), random_mv(pga3, rng)
    c = x.commutator(y)
    assert c.close_to(-(y.commutator(x)), 1e-15)


def test_grade_projection(pga3):
    x = pga3.parse("1.0 + 2.0*e0 + 3.0*e12 + 4.0*e0123")
    assert x.grade(0) == pga3.scalar(1.0)
    assert x.grade(2) == pga3.blade("e12", 3.0)
    assert x.grade(1) == pga3.blade("e0", 2.0)
    assert sum(x.grade(k).norm() for k in (3,)) == 0.0
    with pytest.raises(GAError):
        x.grade(9)


def test_text_form_example(pga3):
    x = pga3.blade("e12", 1.5) + pga3.blade("e0", 2.0)
    assert str(x) == "2.0*e0 + 1.5*e12"
    assert pga3.parse(str(x)) == x
    assert str(pga3.zero()) == "0"
    assert pga3.parse("0") == pga3.zero()
    assert pga3.parse("e21") == pga3.blade("e12", -1.0)
    assert pga3.parse("1.5 * e12 - 2e-3*e0")["e0"] == -2e-3


def test_text_round_trip_random(pga3, cga3, rng):
    for alg in (pga3, cga3):
        for _ in range(500):
            x = random_mv(alg, rng, sparsity=0.4)
            assert alg.parse(str(x)) == x


def test_parse_errors(pga3):
    for bad in ("", "1.5*", "e99", "2.0 2.0", "1.0 + * e1", "e1 e2", "*e1", "e11"):
        with pytest.raises(GAError):
            pga3.parse(bad)


def test_algebra_mismatch(pga3, pga2):
    with pytest.raises(AlgebraMismatch):
        pga3.blade("e1") * pga2.blade("e1")
    with pytest.raises(AlgebraMismatch):
        pga3.blade("e1") + pga2.blade("e1")


def test_gp_dense_matches_table_path(pga3, cga3, rng):
    for alg in (pga3, cga3):
        for _ in range(50):
            x, y = random_mv(alg, rng), random_mv(alg, rng)
            d = x.gp_dense(y)
            t = x * y
            assert np.allclose(d.coeffs, t.coeffs, atol=1e-12 * max(1.0, t.norm()))


def test_algebra_is_cached():
    assert ga.pga(3) is ga.pga(3)
    assert ga.build_algebra(Signature(3, 0, 1, "dual")) is ga.pga(3)

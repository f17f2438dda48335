import io
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgakit import algebra as ga
from pgakit import duality as du
from pgakit.algebra import AlgebraMismatch, GAError, Signature, SignatureError

from bruteforce import blade_of_mask, mask_of_blade, multiply_blades
from conftest import plain_range, random_mv, rescaled_norm

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
                pairs = alg.pairs[kind].restrict(left, right)
                assert np.all(pairs.sign != 0) and pairs.bins == alg.size
                assert np.isin(pairs.i, left).all() and np.isin(pairs.j, right).all()
                a, b = np.zeros(alg.size), np.zeros(alg.size)
                a[left] = rng.choice([-0.0, 0.0, 1.5, -2.25], len(left))
                b[right] = (rng.normal(size=len(right))
                            * rng.integers(0, 2, len(right)))
                got = alg.product(pairs, a, b)
                x, y = alg.from_coeffs(a), alg.from_coeffs(b)
                want = getattr(x, kind)(y).coeffs
                assert got.tobytes() == want.tobytes(), (alg, kind)


def test_stacked_rows_are_their_own_products(pga2, pga3, cga3, rng):
    # operands stacked as rows give each row's 1-D product bit for bit,
    # sign of zero included, also into a bin count larger than the size
    # and through restricted pairs, as dynamics uses for trajectory rows
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200])
    for alg in (pga2, pga3, cga3):
        for kind in PRODUCTS:
            for rows, bins in ((1, alg.size), (7, alg.size), (5, alg.size + 3)):
                a, b = (rng.normal(size=(rows, alg.size))
                        * rng.integers(0, 2, (rows, alg.size))
                        * rng.choice([1.0, -1.0], (rows, alg.size))
                        for _ in range(2))
                a[rng.random(a.shape) < 0.1] = rng.choice(special)
                keep = np.flatnonzero(rng.random(alg.size) < 0.7)
                for pairs in (alg.pairs[kind], alg.pairs[kind].restrict(keep, keep)):
                    if bins != pairs.bins:
                        pairs = ga.Pairs(pairs.i, pairs.j, pairs.k, pairs.sign, bins)
                    with np.errstate(all="ignore"):  # inf * 0, inf - inf
                        got = alg.product(pairs, a, b)
                        want = [alg.product(pairs, x, y) for x, y in zip(a, b)]
                    assert got.shape == (rows, bins)
                    assert got.tobytes() == np.array(want).tobytes(), \
                        (alg, kind)


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


_NORM_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200,
                                 math.inf, math.nan])
# two norms in the top ulp of the float range: the exact sums of squares
# pass the halfway point to 2^1024, so inf is their correctly rounded norm
# (math.hypot's); np.linalg.norm of the first, rescaled, is the largest
# float, and of the second overflows in the oracle's own ldexp
_TOP = [1.415223917924111e306, 1.4152239179247447e306]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from([ga.pga(2), ga.pga(3), ga.cga(3)]).flatmap(
    lambda alg: st.tuples(st.just(alg), st.lists(
        st.floats() | _NORM_SPECIAL, min_size=alg.size, max_size=alg.size))))
@example(case=(ga.pga(2), [0.0] * 6 + [_TOP[0], 1.7976374276414346e308]))
@example(case=(ga.pga(2), [0.0] * 6 + [_TOP[1], 1.7976374276414346e308]))
def test_norm_is_numpy_norm_bitwise(case):
    # every tolerance in euclid and motors scales with this value: bitwise
    # np.linalg.norm on its plain range, the rescaled norm past it
    alg, coeffs = case
    coeffs = np.array(coeffs)
    got = alg.from_coeffs(coeffs).norm()
    assert type(got) is float
    if plain_range(coeffs):
        assert np.float64(got).tobytes() == np.linalg.norm(coeffs).tobytes()
    elif np.isfinite(coeffs).all():
        want = rescaled_norm(coeffs)
        if math.inf in (got, want):  # the top ulp: either may round past it
            assert min(got, want) >= (1.0 - 1e-15) * sys.float_info.max
        else:
            assert abs(got - want) <= 1e-15 * want + 5e-324, (got, want)
    else:  # an inf outweighs a NaN, as in math.hypot
        assert (got == math.inf) if np.isinf(coeffs).any() else math.isnan(got)


def test_norm_of_overflows_where_the_exact_norm_does():
    # the exact sums of squares pass (2^1024 - 2^970)^2: the norm rounds
    # past the largest float, 2^1024 (1 - 2^-53), whatever numpy's sum says
    for small in _TOP:
        c = np.array([small, 1.7976374276414346e308])
        exact = sum(Fraction(x) ** 2 for x in c.tolist())
        assert exact >= Fraction(2 ** 1024 - 2 ** 970) ** 2
        assert ga.norm_of(c) == math.inf


# finite floats whose norm is finite for up to 32 of them, and the edges
edge_floats = st.floats(-1e307, 1e307) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-200, 1e-160, 1e154, -2e154, 1e200, 1e300])


@settings(max_examples=500, deadline=None)
@given(c=st.lists(edge_floats, min_size=1, max_size=32).map(np.array))
def test_norm_of_is_plain_in_range_and_finite_past_it(c):
    got = ga.norm_of(c)
    assert type(got) is float and math.isfinite(got)
    if plain_range(c):
        assert np.float64(got).tobytes() == np.linalg.norm(c).tobytes()
    else:  # hypot's own bits are not pinned, only its distance to the oracle
        want = rescaled_norm(c)
        assert abs(got - want) <= 2 * math.ulp(want), (got, want)


@pytest.mark.parametrize("alg", [ga.pga(2), ga.pga(3), ga.cga(3)],
                         ids=["pga2", "pga3", "cga3"])
def test_scalar_product_is_the_gp_scalar_bitwise(alg):
    scalar, gp = alg.pairs["scalar"], alg.pairs["gp"]
    i, j, k = scalar.i, scalar.j, scalar.k
    assert np.array_equal(i, j)  # a blade lands on the scalar only with itself
    assert len(k) == {8: 4, 16: 8, 32: 32}[alg.size] and not k.any()
    if alg.model == "cga":  # every slot, in order: cga_distance's bound
        assert np.array_equal(i, np.arange(alg.size))
    assert scalar.bins == 1
    # the gp pairs on the scalar slot, in gp's own (i-major) order
    on_scalar = np.flatnonzero(gp.k == 0)
    assert np.array_equal(i, gp.i[on_scalar]) and np.array_equal(j, gp.j[on_scalar])
    assert np.array_equal(scalar.sign, gp.sign[on_scalar])
    rng = np.random.default_rng(20261018)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200])
    for trial in range(2000):
        a, b = (rng.normal(size=alg.size) * 10.0 ** rng.uniform(-3, 3, alg.size)
                for _ in range(2))
        if trial % 2:  # sparse, with signed zeros
            a[rng.random(alg.size) < 0.6] = -0.0
            b[rng.random(alg.size) < 0.6] = 0.0
        if trial % 5 == 0:
            a *= 1e200
        if trial % 7 == 0:
            b[rng.integers(alg.size, size=3)] = rng.choice(special, 3)
        x, y = alg.from_coeffs(a), alg.from_coeffs(b)
        with np.errstate(all="ignore"):  # overflow, inf * 0, inf - inf
            got, want = x.scalar_product(y), x.gp(y).scalar_part()
            on_arrays = alg.scalar_product(a, b)
        assert type(got) is float and type(on_arrays) is float
        assert repr(got) == repr(want)
        assert (np.float64(got).tobytes() == np.float64(want).tobytes()
                == np.float64(on_arrays).tobytes())
    stranger = ga.cga(3) if alg is not ga.cga(3) else ga.pga(3)
    with pytest.raises(AlgebraMismatch):
        x.scalar_product(stranger.scalar(1.0))


def test_pos_of_name_is_the_name_index():
    for alg in (ga.pga(2), ga.pga(3), ga.cga(3)):
        for pos, name in enumerate(alg.names):
            assert alg.pos_of_name(name) == pos
        for bad in ("e5", "e21", "", "E1", 3, None):
            message = f"no blade named {bad!r} in this algebra"
            with pytest.raises(GAError, match=f"^{re.escape(message)}$"):
                alg.pos_of_name(bad)


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


@pytest.mark.parametrize("pqr", [(4, 1, 1), (6, 0, 0), (5, 1, 0)], ids=str)
def test_every_algebra_checks_its_tables(monkeypatch, pqr):
    # a table corrupted as it is built is refused at every size allowed,
    # the largest included
    sig = Signature(*pqr)
    assert sig.dim == ga.MAX_GENERATORS
    build = ga.Algebra._build_tables

    def corrupt(alg):
        build(alg)
        alg.sign[3, 5] = -alg.sign[3, 5]

    monkeypatch.setattr(ga.Algebra, "_build_tables", corrupt)
    with pytest.raises(GAError, match="not associative"):
        ga.Algebra(sig)


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


def test_text_round_trip_every_signature():
    # str then parse gives back every byte, at the ends of the float range
    # and with the longest printed sum (64 terms at 6 generators)
    rng = np.random.default_rng(14)
    for sig in _signatures(ga.MAX_GENERATORS):
        alg = ga.build_algebra(sig)
        sign = rng.choice([-1.0, 1.0], (3, alg.size))
        huge = rng.uniform(1.0, 10.0, alg.size) * 10.0 ** rng.choice(
            [-300, 300], alg.size)
        subnormal = rng.integers(1, 2 ** 52, alg.size) * 5e-324
        sparse = np.where(rng.random(alg.size) < 0.5, huge * sign[2], 0.0)
        for c in (huge * sign[0], subnormal * sign[1], sparse):
            x = alg.from_coeffs(c)
            assert alg.parse(str(x)).coeffs.tobytes() == c.tobytes(), (sig, str(x))


@pytest.mark.parametrize("sig", [Signature(3, 0, 1, "dual"), Signature(4, 1, 0),
                                 Signature(2, 1, 0)])
def test_parse_orders_generators_like_brute_force(sig):
    alg = ga.build_algebra(sig)
    sign, blade = multiply_blades((2, 1, 0), (), dict(enumerate(alg.metric)))
    assert blade == (0, 1, 2)
    want = np.zeros(alg.size)
    want[alg.pos_of[mask_of_blade(blade)]] = sign
    assert alg.parse("e210").coeffs.tobytes() == want.tobytes()
    assert alg.parse("2.0*e210").coeffs.tobytes() == (2.0 * want).tobytes()


def test_parse_reads_expressions(pga3):
    assert pga3.parse("e1 ^ e2") == pga3.blade("e12")
    assert pga3.parse("+1.0 - +e1") == pga3.parse("1.0 - 1.0*e1")
    # the text is a sum of terms onto +0.0: no slot comes back -0.0
    for text in ("-e1", "-0.0", "-(1.0 + e1)"):
        c = pga3.parse(text).coeffs
        assert not np.signbit(c[c == 0.0]).any(), text


def test_blade_errors(pga3):
    # generators in any order, but only ASCII digits and hashable names
    for bad in (["e1"], None, "e\u0661", "e\u00b9", "e11", "e5", "E1"):
        with pytest.raises(GAError):
            pga3.blade(bad)


def test_parse_errors(pga3):
    for bad in ("", "1.5*", "e99", "2.0 2.0", "1.0 + * e1", "e1 e2", "*e1", "e11",
                "1e400", "1e308 + 1e308", " + ".join(["e1"] * 102), "P",
                "e\u0661", "<e1>" + "9" * 5000):
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


def _arrays(table):
    """Every array in a table, through tuples, lists and pair lists' public
    fields."""
    if isinstance(table, np.ndarray):
        yield table
    elif isinstance(table, ga.Pairs):
        yield from (table.i, table.j, table.k, table.sign)
    elif isinstance(table, (tuple, list)):
        for part in table:
            yield from _arrays(part)


def _pair_lists(table):
    """Every pair list in a table, through tuples and lists."""
    if isinstance(table, ga.Pairs):
        yield table
    elif isinstance(table, (tuple, list)):
        for part in table:
            yield from _pair_lists(part)


def test_shared_tables_are_read_only(pga2, pga3, cga3):
    """Pair lists, involution signs and every ``Algebra.cached`` table are
    shared by all callers, so a write to any of them raises; each pair
    list's private bins are its own writable copy of k."""
    from pgakit import conformal as cf
    from pgakit import dynamics, euclid

    for alg in (pga2, pga3):
        p = euclid.point(alg, *[1.0, -2.0, 0.5][:alg.n])
        line = du.join(p, euclid.point(alg, *[0.0, 3.0, 1.0][:alg.n]))
        euclid.point_coords(p), euclid.direction(line), euclid.ideal_norm(line)
    cf.flat_rep(line)  # pga(3)'s
    state = dynamics.BodyState(pga3.scalar(1.0), dynamics.bivector_from_vectors(
        pga3, [1.0, 2.0, 3.0], [0.5, 0.0, 0.0]))
    dynamics.write_trajectory(io.StringIO(), state, dynamics.InertiaOperator(
        (1.0, 2.0, 3.0), 1.0), 1e-3, 3)
    cf.rotor(cga3, [0.0, 0.0, 1.0], 0.5), cf.translator(cga3, [1.0, 2.0, 3.0])
    cf.infinity_pairing(cf.up(cga3, 1.0, 2.0, 3.0))
    for alg in (pga2, pga3, cga3):
        x = alg.blade("e1") + alg.blade("e12", 2.0)
        du.polarity(x), du.j_map(x), x.gp_dense(x)
    built = {f"{b.__module__}.{b.__name__}"
             for alg in (pga2, pga3, cga3) for b in alg._cache}
    assert built >= {
        "pgakit.algebra._cayley", "pgakit.duality._tables",
        "pgakit.duality._join_pairs", "pgakit.duality._polarity_pairs",
        "pgakit.euclid._slots", "pgakit.euclid._coord_table",
        "pgakit.euclid._e0_coeffs", "pgakit.dynamics._generator_basis",
        "pgakit.dynamics._even_positions", "pgakit.dynamics._tables",
        "pgakit.conformal._null_slots", "pgakit.conformal._n_inf_coeffs",
        "pgakit.conformal._rotor_pairs", "pgakit.conformal._translator_pairs",
        "pgakit.conformal._wedge_pairs", "pgakit.conformal._origin_coeffs"}
    for alg in (pga2, pga3, cga3):
        shared = list(_arrays([*alg.pairs.values(), alg.reverse_sign,
                               alg.involute_sign, *alg._cache.values()]))
        assert len(shared) > 4 * 4 + 2  # cached tables beside pairs and signs
        for table in shared:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0
        lists = list(_pair_lists([*alg.pairs.values(), *alg._cache.values()]))
        assert len(lists) > 4  # cached lists beside the algebra's four
        for pairs in lists:
            assert pairs._bins.flags.writeable
            assert np.array_equal(pairs._bins, pairs.k)
            assert not np.shares_memory(pairs._bins, pairs.k)
        assert alg.sign.flags.writeable  # build-time tables stay writable

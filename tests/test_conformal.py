import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from conftest import plain_range, rescaled
from pgakit import algebra
from pgakit import conformal as cf
from pgakit import euclid, motors
from pgakit.duality import join
from pgakit.euclid import GeometryError
from pgakit.motors import sandwich

coord = st.floats(-100.0, 100.0, allow_nan=False)


def proportional(a, b, tol=1e-12):
    """Equality up to one overall scale, anchored on a's largest entry."""
    i = int(np.argmax(np.abs(a.coeffs)))
    s = b.coeffs[i] / a.coeffs[i]
    scale = max(np.max(np.abs(b.coeffs)), 1e-30)
    return np.max(np.abs(b.coeffs - s * a.coeffs)) <= tol * scale


class TestNullBasis:
    def test_pairings(self, cga3):
        no, ni = cf.n_origin(cga3), cf.n_infinity(cga3)
        assert no.gp(no).scalar_part() == 0.0
        assert ni.gp(ni).scalar_part() == 0.0
        assert no.gp(ni).scalar_part() == -1.0

    def test_origin_embeds_to_n_origin(self, cga3):
        assert (cf.up(cga3, 0, 0, 0) - cf.n_origin(cga3)).norm() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(x=coord, y=coord, z=coord)
    def test_embedded_points_are_null(self, cga3, x, y, z):
        p = cf.up(cga3, x, y, z)
        assert cf.is_null(p)
        assert cf.infinity_pairing(p) == pytest.approx(-1.0, abs=1e-12)

    def test_far_scaled_point_is_no_traceback(self, cga3):
        # its norm, 1e200 times up()'s, is finite, and squared with ** it
        # raises OverflowError; its pairing overflows to NaN: not null
        p = cf.up(cga3, 1.0, 2.0, 3.0) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            assert not cf.is_null(p)


class TestEmbedding:
    def test_round_trip_is_exact(self, cga3, rng):
        for _ in range(50):
            x = rng.uniform(-100, 100, 3)
            assert np.array_equal(cf.down(cf.up(cga3, x)), x)

    def test_down_ignores_projective_scale(self, cga3):
        p = cf.up(cga3, 3.0, -1.0, 2.0) * -7.5
        assert np.array_equal(cf.down(p), [3.0, -1.0, 2.0])

    def test_down_refuses_infinity(self, cga3):
        with pytest.raises(GeometryError, match="infinity"):
            cf.down(cf.n_infinity(cga3))

    def test_coordinate_arity(self, cga3):
        with pytest.raises(GeometryError):
            cf.up(cga3, 1.0, 2.0)


class TestDistance:
    def test_three_four_five(self, cga3):
        p, q = cf.up(cga3, 0, 0, 0), cf.up(cga3, 3, 4, 0)
        assert cf.cga_distance(p, q) == 5.0
        assert cf.cga_distance(p, p) == 0.0

    def test_agrees_with_dual_model(self, pga3, cga3, rng):
        # same metric through two unrelated constructions: the degenerate
        # algebra's join norm and the null-cone inner product
        for _ in range(300):
            a, b = rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)
            d_dual = euclid.distance(euclid.point(pga3, *a),
                                     euclid.point(pga3, *b))
            d_null = cf.cga_distance(cf.up(cga3, a), cf.up(cga3, b))
            ref = float(np.linalg.norm(a - b))
            assert d_null == pytest.approx(ref, rel=1e-10, abs=1e-12)
            assert d_dual == pytest.approx(d_null, rel=1e-10, abs=1e-12)

    def test_rejects_non_null(self, cga3):
        with pytest.raises(GeometryError, match="null"):
            cf.cga_distance(cf.euclidean_vector(cga3, [1, 0, 0]),
                            cf.up(cga3, 0, 0, 0))

    def test_rejects_unnormalized(self, cga3):
        scaled = cf.up(cga3, 1, 0, 0) * 2.0
        with pytest.raises(GeometryError, match="normalized"):
            cf.cga_distance(scaled, cf.up(cga3, 0, 0, 0))


class TestVersors:
    def test_rotor_matches_matrix_oracle(self, cga3, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-3.0, 3.0)
            ref = Rotation.from_rotvec(angle * axis).as_matrix()
            R = cf.rotor(cga3, axis, angle)
            assert R.gp(~R).close_to(cga3.scalar(1.0), tol=1e-14)
            x = rng.uniform(-5, 5, 3)
            img = sandwich(R, cf.euclidean_vector(cga3, x))
            got = np.array([img[f"e{i}"] for i in range(3)])
            assert np.allclose(got, ref @ x, atol=1e-12)

    def test_rotor_slides_along_null_cone(self, cga3, rng):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        ref = Rotation.from_rotvec(0.7 * axis).as_matrix()
        R = cf.rotor(cga3, axis, 0.7)
        for _ in range(10):
            x = rng.uniform(-10, 10, 3)
            assert (sandwich(R, cf.up(cga3, x))
                    - cf.up(cga3, ref @ x)).norm() < 1e-12 * max(1, x @ x)

    def test_translator_acts_exactly(self, cga3, rng):
        t = np.array([1.0, -2.0, 3.0])
        T = cf.translator(cga3, t)
        assert T.gp(~T).close_to(cga3.scalar(1.0), tol=0.0)
        for _ in range(10):
            x = rng.uniform(-10, 10, 3)
            assert (sandwich(T, cf.up(cga3, x))
                    - cf.up(cga3, x + t)).norm() < 1e-12 * max(1, x @ x)

    def test_zero_axis_rejected(self, cga3):
        with pytest.raises(GeometryError):
            cf.rotor(cga3, [0, 0, 0], 1.0)


class TestFlatRep:
    def test_point_rep(self, pga3, cga3):
        rep = cf.flat_rep(euclid.point(pga3, 1.0, 2.0, 3.0))
        want = cf.up(cga3, 1, 2, 3) ^ cf.n_infinity(cga3)
        assert rep.grades_present(1e-14) == (2,)
        assert (rep - want).norm() == 0.0

    def test_line_and_plane_grades(self, pga3):
        line = euclid.line_from_points(euclid.point(pga3, 0, 0, 0),
                                       euclid.point(pga3, 1, 1, 0))
        assert cf.flat_rep(line).grades_present(1e-12) == (3,)
        assert cf.flat_rep(euclid.plane(pga3, 1, 1, 1, -3)
                           ).grades_present(1e-12) == (4,)

    def test_collinear_samplings_agree_up_to_scale(self, pga3, rng):
        # same line built from different point pairs, either orientation
        for _ in range(25):
            a, u = rng.uniform(-5, 5, 3), rng.normal(size=3)
            s, t = rng.uniform(-4, 4, 2)
            one = euclid.line_from_points(euclid.point(pga3, *a),
                                          euclid.point(pga3, *(a + s * u)))
            two = euclid.line_from_points(euclid.point(pga3, *(a + t * u)),
                                          euclid.point(pga3, *a))
            assert proportional(cf.flat_rep(one), cf.flat_rep(two))

    def test_incidence_survives_the_bridge(self, pga3, cga3):
        rep = cf.flat_rep(euclid.plane(pga3, 1, 1, 1, -3))
        on = cf.up(cga3, 1, 1, 1) ^ rep
        off = cf.up(cga3, 0, 0, 0) ^ rep
        assert on.norm() < 1e-12 * rep.norm()
        assert off.norm() > 1.0

    def test_commutes_with_rigid_motions(self, pga3, cga3, rng):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        t = np.array([1.0, -2.0, 3.0])
        g = motors.translator(pga3, t).gp(
            motors.rotation_about(pga3, axis, 0.7))
        G = cf.translator(cga3, t).gp(cf.rotor(cga3, axis, 0.7))
        for _ in range(20):
            x = rng.uniform(-10, 10, 3)
            moved_then_sent = cf.flat_rep(sandwich(g, euclid.point(pga3, *x)))
            sent_then_moved = sandwich(G, cf.flat_rep(euclid.point(pga3, *x)))
            err = (moved_then_sent - sent_then_moved).norm()
            assert err < 1e-12 * sent_then_moved.norm()
        for _ in range(10):
            a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
            line = euclid.line_from_points(euclid.point(pga3, *a),
                                           euclid.point(pga3, *b))
            assert proportional(sandwich(G, cf.flat_rep(line)),
                                cf.flat_rep(sandwich(g, line)))

    def test_ideal_input_rejected(self, pga3):
        with pytest.raises(GeometryError, match="ideal"):
            cf.flat_rep(euclid.ideal_plane(pga3))

    def test_mixed_grade_rejected(self, pga3):
        junk = euclid.point(pga3, 1, 0, 0) + euclid.plane(pga3, 1, 0, 0, 0)
        with pytest.raises(GeometryError):
            cf.flat_rep(junk)


class TestFarPoints:
    """Far from the origin a point embeds exactly or is refused; nothing
    in between comes back with its digits gone."""

    @pytest.mark.parametrize("r", [3.8e4, 1e6, 9.4e7])
    def test_down_inverts_up(self, cga3, r):
        x = np.array([0.6, -0.8, 0.0]) * r
        np.testing.assert_allclose(cf.down(cf.up(cga3, x)), x, rtol=1e-9)
        assert cf.infinity_pairing(cf.up(cga3, x)) == -1.0

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_down_of_a_scaled_far_point(self, cga3, scale):
        # scaling rounds the null slots, about 2^-53 h each (h = |x|^2 / 2)
        x = np.array([3e4, 4e4, -1e4])
        np.testing.assert_allclose(cf.down(cf.up(cga3, x) * scale), x,
                                   rtol=1e-6)

    def test_down_refuses_a_zero_pairing(self, cga3):
        for p in (cf.euclidean_vector(cga3, [1e-300, 0, 0]),
                  cf.n_infinity(cga3) * 1e300):
            with pytest.raises(GeometryError, match="infinity"):
                cf.down(p)

    def test_down_refuses_an_overflow(self, cga3):
        p = cf.euclidean_vector(cga3, [1e300, 0, 0]) - cf.n_origin(cga3) * 2e-300
        with pytest.raises(GeometryError, match="overflow"):
            cf.down(p)

    def test_up_refuses_where_slots_round(self, cga3):
        with pytest.raises(GeometryError, match="too far"):
            cf.up(cga3, 1e8, 0, 0)

    @pytest.mark.parametrize("a, b", [
        ((1e5, 3e4, -2e4), (1e5 + 0.6, 3e4 + 0.8, -2e4)),
        ((1e6, 0, 0), (1e6 + 1, 0, 0)),
        ((5e7, 0, 0), (5e7, 0, 0)),
    ], ids=["one-apart", "8192", "same"])
    def test_distance_refuses_lost_digits(self, cga3, a, b):
        with pytest.raises(GeometryError, match="null-cone distance"):
            cf.cga_distance(cf.up(cga3, a), cf.up(cga3, b))

    def test_distance_far_apart_is_kept(self, cga3):
        d = cf.cga_distance(cf.up(cga3, 1e4, 0, 0), cf.up(cga3, -1e4, 0, 0))
        assert d == pytest.approx(2e4, rel=1e-9)


# -- the composed formulas, kept as the byte-level oracle for the slot table --

def composed_n_origin(alg):
    n = alg.n
    return (alg.basis_vector(n + 1) - alg.basis_vector(n)) * 0.5


def composed_n_infinity(alg):
    return alg.basis_vector(alg.n) + alg.basis_vector(alg.n + 1)


def composed_euclidean_vector(alg, coords):
    c = np.asarray(coords, dtype=float)
    out = np.zeros(alg.size)
    for i, ci in enumerate(c):
        out[alg.names.index(f"e{i}")] = ci
    return alg.from_coeffs(out)


def composed_up(alg, coords):
    sq = 0.0
    for c in coords:  # left to right, as up(): sum() compensates from 3.12 on
        sq += float(c) ** 2
    return (composed_n_origin(alg) + composed_euclidean_vector(alg, coords)
            + composed_n_infinity(alg) * (0.5 * sq))


def composed_infinity_pairing(p):
    return p.gp(composed_n_infinity(p.algebra)).scalar_part()


def composed_is_null(p, tol=cf.NULL_TOL):
    return abs(p.gp(p).scalar_part()) <= tol * max(1.0, p.norm() ** 2)


def composed_down(p):
    w = -composed_infinity_pairing(p)
    if abs(w) <= cf.PAIRING_TOL * max(1.0, p.norm()):
        raise GeometryError("point at infinity has no euclidean coordinates")
    return np.array([p[f"e{i}"] / w for i in range(p.algebra.n)])


def composed_cga_distance(p, q):
    for name, x in (("p", p), ("q", q)):
        if not composed_is_null(x, tol=cf.PAIRING_TOL):
            raise GeometryError(f"{name} is not a null point")
        if abs(composed_infinity_pairing(x) + 1.0) > cf.PAIRING_TOL:
            raise GeometryError(f"{name} must be normalized against n_inf")
    return math.sqrt(max(0.0, -2.0 * p.gp(q).scalar_part()))


def composed_rotor(alg, axis, angle):
    u = np.asarray(axis, dtype=float)
    nu = np.linalg.norm(u)  # 0.0 once |u|^2 underflows
    if nu == 0.0:
        raise GeometryError("axis direction must be nonzero")
    plane = alg.blade("e012").gp(composed_euclidean_vector(alg, u / nu))
    half = 0.5 * float(angle)
    return alg.scalar(math.cos(half)) - plane * math.sin(half)


def composed_translator(alg, offset):
    t = composed_euclidean_vector(alg, offset)
    return alg.scalar(1.0) - t.gp(composed_n_infinity(alg)) * 0.5


def composed_flat_rep(x):
    """The full-pair wedges: points through up(), then ^ n_inf."""
    pga3, cga3 = x.algebra, cf.cga(3)
    ninf = composed_n_infinity(cga3)
    kind = euclid.flat_kind(x)
    if kind == "point":
        return cf.up(cga3, euclid.point_coords(x)) ^ ninf
    if kind == "line":
        a = euclid.point_coords((x | euclid.origin(pga3)) ^ x)
        u = euclid.direction(x)
        u = u / np.linalg.norm(u)
        return cf.up(cga3, a) ^ cf.up(cga3, a + u) ^ ninf
    pl = euclid.normalize(x)
    normal = np.array([pl["e1"], pl["e2"], pl["e3"]])
    base = -pl["e0"] * normal
    seed = np.array([0.0, 1.0, 0.0] if abs(normal[0]) > 0.9 else [1.0, 0.0, 0.0])
    t1 = seed - np.dot(seed, normal) * normal
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    return (cf.up(cga3, base) ^ cf.up(cga3, base + t1)
            ^ cf.up(cga3, base + t2) ^ ninf)


def outcome(f, *args):
    """Bytes of a result, or the type and text of the GeometryError."""
    try:
        value = f(*args)
    except GeometryError as e:
        return ("error", str(e))
    value = value.coeffs if hasattr(value, "coeffs") else value
    return np.asarray(value, dtype=float).tobytes(), type(value).__name__


def seeded_points(rng, count):
    """Coordinates with magnitudes 1e-3 to 1e3, signed zeros and NaNs."""
    for t in range(count):
        x = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-3, 3, 3)
        if t % 5 == 0:
            x[rng.integers(3)] = -0.0
        if t % 13 == 0:
            x[:] = rng.choice([0.0, -0.0], 3)
        if t % 17 == 0:
            x[rng.integers(3)] = np.nan
        yield x


class TestSlotTableMatchesComposition:
    """The slot-table primitives give the composed formulas' bytes."""

    def test_null_basis(self, cga3):
        assert outcome(cf.n_origin, cga3) == outcome(composed_n_origin, cga3)
        assert outcome(cf.n_infinity, cga3) == outcome(composed_n_infinity, cga3)

    def test_points_and_pairings(self, cga3, rng):
        points = list(seeded_points(rng, 600))
        with np.errstate(all="ignore"):  # NaN coordinates
            for x, y in zip(points, points[1:]):
                for f, g, args in (
                        (cf.euclidean_vector, composed_euclidean_vector, (cga3, x)),
                        (cf.up, composed_up, (cga3, x))):
                    assert outcome(f, *args) == outcome(g, *args)
                p, q = cf.up(cga3, x), cf.up(cga3, y)
                off = cga3.from_coeffs(rng.normal(size=cga3.size))
                for a in (p, p * -3.5, p * 1.0000001, off):
                    for f, g in ((cf.infinity_pairing, composed_infinity_pairing),
                                 (cf.is_null, composed_is_null),
                                 (cf.down, composed_down)):
                        assert outcome(f, a) == outcome(g, a)
                    assert (outcome(cf.cga_distance, a, q)
                            == outcome(composed_cga_distance, a, q))

    def test_up_accepts_every_coordinate_form(self, cga3):
        want = outcome(composed_up, cga3, [1.5, -0.0, 2])
        for args in ((1.5, -0.0, 2), ([1.5, -0.0, 2],),
                     (np.array([1.5, -0.0, 2.0]),)):
            assert outcome(cf.up, cga3, *args) == want

    @pytest.mark.parametrize("coords", [(1e200, 0, 0), (1e154, 1e154, 1e154),
                                        (0, -math.inf, 0)])
    def test_too_far_to_embed(self, cga3, coords):
        with pytest.raises(GeometryError, match="too far"):
            cf.up(cga3, *coords)

    def test_no_full_product(self, cga3, monkeypatch):
        """up, down and cga_distance run no pair list longer than a
        multivector, so never a full gp."""
        seen = []
        kernel = type(cga3).product

        def counted(alg, pairs, a, b):
            seen.append(len(pairs.i))
            return kernel(alg, pairs, a, b)

        monkeypatch.setattr(type(cga3), "product", counted)
        p, q = cf.up(cga3, 1.0, -2.0, 3.0), cf.up(cga3, 0.5, 0.0, -1.0)
        assert seen == []
        cf.down(p)
        cf.cga_distance(p, q)
        assert seen and max(seen) <= cga3.size


def seeded_vectors(rng, count):
    """Finite 3-vectors with magnitudes 1e-300 to 1e300 and signed zeros."""
    for t in range(count):
        x = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-300, 300, 3)
        if t % 3 == 0:  # comparable components, so no one swamps the rest
            x = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-3, 3)
        if t % 5 == 0:
            x[rng.integers(3)] = rng.choice([0.0, -0.0])
        if t % 11 == 0:
            x[:2] = rng.choice([0.0, -0.0], 2)
        yield x


def product_lengths(monkeypatch, alg):
    """Pair-list lengths of every kernel call on ``alg`` from now on."""
    seen, kernel = [], type(alg).product

    def counted(self, pairs, a, b):
        if self is alg:
            seen.append(len(pairs.i))
        return kernel(self, pairs, a, b)

    monkeypatch.setattr(type(alg), "product", counted)
    return seen


class TestVersorSlots:
    """rotor and translator give the composed products' bytes."""

    def test_rotor_and_translator_are_the_composed_bytes(self, cga3, rng):
        # an axis whose |axis|^2 overflows or underflows has no composed
        # bytes to match (np.linalg.norm gives inf or 0 for it); its rotor
        # is the composed one of the axis rescaled by a power of two
        vectors = list(seeded_vectors(rng, 2400))
        angles = rng.uniform(-10.0, 10.0, len(vectors))
        special = [0.0, -0.0, 1e-300, 1e300, math.pi]
        angles[::7] = rng.choice(special, len(angles[::7]))
        far = 0
        for x, y, angle in zip(vectors, vectors[1:], angles.tolist()):
            got = outcome(cf.rotor, cga3, x, angle)
            if plain_range(x):
                assert got == outcome(composed_rotor, cga3, x, angle), (x, angle)
            else:
                far += 1
                want = outcome(composed_rotor, cga3, rescaled(x)[0], angle)
                assert got[1] == want[1], (x, angle)  # type, or error text
                if got[0] != "error":
                    assert np.abs(np.frombuffer(got[0]) - np.frombuffer(
                        want[0])).max() <= 1e-15, (x, angle)
            assert (outcome(cf.translator, cga3, y)
                    == outcome(composed_translator, cga3, y)), y
        assert 100 < far < 2000  # both sides of the plain range are drawn

    @pytest.mark.parametrize("axis", [
        [1e200, 0.0, 0.0], [1e-200, 0.0, 0.0], [1e300, -0.0, 0.0],
        [5e-324, 0.0, 0.0]], ids=["1e200", "1e-200", "1e300", "subnormal"])
    def test_far_and_tiny_axes_give_the_unit_axis_rotor(self, cga3, axis):
        # sqrt(u.u) is inf or 0 for these: a bare scalar, or an axis
        # refused as zero
        got = cf.rotor(cga3, axis, 1.0)
        assert got.coeffs.tobytes() == cf.rotor(cga3, [1, 0, 0], 1.0).coeffs.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_refused(self, cga3, bad):
        # before any arithmetic: no NaN versor, and no numpy warning
        # (an inf axis gave inf / inf in the unit axis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(3):
                v = np.array([0.3, -0.2, 0.9])
                v[i] = bad
                with pytest.raises(GeometryError, match="finite axis"):
                    cf.rotor(cga3, v, 0.7)
                with pytest.raises(GeometryError, match="finite offset"):
                    cf.translator(cga3, v)
            with pytest.raises(GeometryError, match="finite axis and angle"):
                cf.rotor(cga3, [0, 0, 1], bad)

    def test_one_restricted_kernel_call(self, cga3, monkeypatch):
        # e012 times the three euclidean e_i; each e_i times e_n and e_(n+1)
        seen = product_lengths(monkeypatch, cga3)
        cf.rotor(cga3, [1.0, 2.0, -0.5], 0.7)
        assert seen == [3]
        cf.translator(cga3, [1.0, -2.0, 3.0])
        assert seen == [3, 6]  # of cga(3)'s 1024 gp pairs

    def test_refusals_are_unchanged(self, cga3, pga3):
        with pytest.raises(GeometryError, match="nonzero"):
            cf.rotor(cga3, [0.0, -0.0, 0.0], 1.0)
        with pytest.raises(GeometryError, match="expected 3 coordinates"):
            cf.rotor(cga3, [1.0, 2.0], 1.0)
        with pytest.raises(GeometryError, match="expected 3 coordinates"):
            cf.translator(cga3, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(GeometryError, match="conformal"):
            cf.rotor(pga3, [0, 0, 1], 1.0)
        with pytest.raises(GeometryError, match="conformal"):
            cf.translator(pga3, [0, 0, 1])


class TestFlatRepWedges:
    """flat_rep's wedges on restricted pairs give the full-pair bytes."""

    def test_points_lines_and_planes(self, pga3, rng):
        flats = []
        for _ in range(1000):
            a, b, c = (rng.uniform(-50, 50, 3) * 10.0 ** rng.uniform(-3, 1)
                       for _ in range(3))
            pa, pb = euclid.point(pga3, *a), euclid.point(pga3, *b)
            line = euclid.line_from_points(pa, pb)
            plane = join(line, euclid.point(pga3, *c))
            flats += [pa, pa * -2.5, line, line * 3.0, plane,
                      euclid.plane(pga3, *rng.uniform(-5, 5, 4))]
        flats += [euclid.point(pga3, 0.0, -0.0, 0.0),
                  euclid.plane(pga3, 0, 1, 0, 0), euclid.plane(pga3, 0, -0.0, 2, 0)]
        for x in flats:
            assert outcome(cf.flat_rep, x) == outcome(composed_flat_rep, x), x

    def test_no_full_wedge(self, pga3, cga3, monkeypatch):
        line = euclid.line_from_points(euclid.point(pga3, 1, 2, 3),
                                       euclid.point(pga3, -1, 0, 2))
        flats = [euclid.point(pga3, 1, 2, 3), line,
                 euclid.plane(pga3, 1, 1, 1, -3)]
        seen = product_lengths(monkeypatch, cga3)
        for x in flats:
            cf.flat_rep(x)
        assert len(seen) == 1 + 2 + 3
        assert max(seen) < len(cga3.pairs["outer"].i)

    def test_flat_shifted_once(self, pga3, monkeypatch):
        # flat_rep reads its kind on the flat it shifted in band, not on a
        # second shift of it: one rescaled call wherever a module holds it
        calls, shift = [], algebra.rescaled

        def counted(c):
            calls.append(c)
            return shift(c)

        for name, module in list(sys.modules.items()):
            if name == "pgakit" or name.startswith("pgakit."):
                for attr, obj in list(vars(module).items()):
                    if obj is shift:
                        monkeypatch.setattr(module, attr, counted)
        line = euclid.line_from_points(euclid.point(pga3, 1, 2, 3),
                                       euclid.point(pga3, -1, 0, 2))
        for x in (euclid.point(pga3, 1, 2, 3), line,
                  euclid.plane(pga3, 1, 1, 1, -3)):
            calls.clear()
            cf.flat_rep(x)
            assert len(calls) == 1, x


class TestDimensionAudit:
    def test_bivector_and_even_counts(self, cga3, pga3):
        assert len(cga3.basis_blades(2)) == 10
        assert len(pga3.basis_blades(2)) == 6
        assert sum(1 for g in cga3.grades if g % 2 == 0) == 16
        assert cga3.size == 32


class TestCachedInfinity:
    """infinity_pairing, translator and flat_rep's last wedge read one
    read-only n_inf, and flat_rep a read-only plane-based origin.  Slot
    writes: up, n_origin and euclidean_vector.  Restricted pairs:
    infinity_pairing, pairings (the "scalar" list), rotor (e012 on the
    left), translator (n_inf's slots on the right) and flat_rep's wedges
    (a 1-vector on the right)."""

    def test_pairing_is_bitwise_the_scalar_product(self, cga3, rng):
        _, plus, minus = cga3.cached(cf._null_slots)
        points = [cf.up(cga3, x) for x in seeded_points(rng, 200)]
        cases = [p * s for p in points for s in (1.0, -3.5, 1e-300, 1e300)]
        for p in points[:20]:
            for slot in (0, 1, plus, minus, cga3.size - 1):  # zero and n_inf slots
                for bad in (math.nan, math.inf, -math.inf):
                    c = p.coeffs.copy()
                    c[slot] = bad
                    cases.append(cga3.from_coeffs(c))
        with np.errstate(all="ignore"):  # NaN coordinates, inf * 0
            for p in cases:
                want = p.scalar_product(cf.n_infinity(cga3))
                got = cf.infinity_pairing(p)
                assert (np.float64(got).tobytes()
                        == np.float64(want).tobytes()), p.coeffs

    def test_cached_table_is_read_only(self, pga3, cga3):
        cf.flat_rep(euclid.line_from_points(  # fills both caches
            euclid.point(pga3, 1, 2, 3), euclid.point(pga3, 0, 1, 0)))
        for table, want in ((cga3.cached(cf._n_inf_coeffs), composed_n_infinity(cga3)),
                            (pga3.cached(cf._origin_coeffs), euclid.origin(pga3))):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
            assert np.array_equal(table, want.coeffs)

    def test_n_infinity_is_fresh_and_writable(self, cga3):
        first, second = cf.n_infinity(cga3), cf.n_infinity(cga3)
        table = cga3.cached(cf._n_inf_coeffs)
        for ninf in (first, second):
            assert ninf.coeffs.flags.writeable
            assert not np.shares_memory(ninf.coeffs, table)
        first.coeffs[0] = 5.0
        assert second == composed_n_infinity(cga3)
        assert cf.n_infinity(cga3) == composed_n_infinity(cga3)

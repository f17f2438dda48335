import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgakit.algebra import GAError, pga
from pgakit.duality import join, meet, polarity
from pgakit.euclid import (
    GeometryError,
    angle,
    direction,
    distance,
    euclidean_norm,
    euclidean_norm_of,
    flat_kind,
    ideal_direction,
    ideal_norm,
    ideal_plane,
    incident,
    is_ideal,
    line_from_points,
    normalize,
    origin,
    perpendicular_through_point,
    plane,
    point,
    point_coords,
    weight,
)
from pgakit.euclid import _slots

COORDS = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


class TestConstructors:
    def test_point_round_trip_3d(self, pga3):
        p = point(pga3, 0.5, -1.25, 2.0)
        assert weight(p) == 1.0
        assert np.allclose(point_coords(p), [0.5, -1.25, 2.0], atol=1e-14)

    def test_point_round_trip_2d(self, pga2):
        p = point(pga2, -3.0, 7.5)
        assert weight(p) == 1.0
        assert np.allclose(point_coords(p), [-3.0, 7.5], atol=1e-14)

    def test_point_is_bitwise_the_wedge_of_planes(self, pga2, pga3, rng):
        for alg in (pga2, pga3):
            n = alg.gens - 1
            cases = [rng.uniform(-50, 50, n) for _ in range(200)]
            cases += [rng.choice([0.0, -0.0, 1.5, -2.0], n) for _ in range(50)]
            for coords in cases:
                wedge = alg.scalar(1.0)
                for i, c in enumerate(coords, start=1):
                    wedge = wedge ^ (alg.blade(f"e{i}") - alg.blade("e0", c))
                got = point(alg, *coords).coeffs
                assert np.array_equal(got, wedge.coeffs), coords
                assert np.array_equal(np.signbit(got),
                                      np.signbit(wedge.coeffs)), coords

    @settings(max_examples=60, deadline=None)
    @given(x=COORDS, y=COORDS, z=COORDS)
    def test_point_coords_inverse(self, x, y, z):
        p = point(pga(3), x, y, z)
        assert np.allclose(point_coords(p), [x, y, z], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("x", [1.1e9, 1e15, -4e15])
    def test_far_points_keep_their_coordinates(self, pga3, x):
        """The weight is exactly 1 and above the rounding of the slots."""
        assert np.array_equal(point_coords(point(pga3, x, 0.0, -x)),
                              [x, 0.0, -x])

    def test_weight_zero_and_nan_weight_are_ideal(self, pga3):
        line = line_from_points(point(pga3, 1, 2, 3), point(pga3, 4, -1, 0))
        at_infinity = line ^ ideal_plane(pga3)
        assert weight(at_infinity) == 0.0
        nan_weight = point(pga3, 1.0, 2.0, 3.0)
        nan_weight.coeffs[pga3.pos_of_name("e123")] = math.nan
        tiny = point(pga3, 1.0, 2.0, 3.0)
        tiny.coeffs[pga3.pos_of_name("e123")] = 2.0 ** -52 * 3.0
        # from |x| = 2^52 on, a unit weight is within the slots' rounding
        beyond = point(pga3, 0.0, 2.0 ** 52, 0.0)
        for p in (at_infinity, nan_weight, tiny, pga3.zero(), beyond):
            with pytest.raises(GeometryError, match="ideal point"):
                point_coords(p)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_slot_is_refused_without_a_warning(self, pga2, pga3, bad):
        """A coefficient that is not finite is refused before the table's
        zeros multiply it, so no NaN coordinate and no numpy warning: by
        point_coords, and by the direction of an ideal point or a line."""
        points, ideal_points, lines = [], [], []
        for alg in (pga2, pga3):
            a, b = [1.0, -2.0, 0.5][:alg.n], [0.0, 3.0, 1.0][:alg.n]
            for i in np.flatnonzero(alg.grades == alg.n):  # the weight too
                p, d = point(alg, *a), point(alg, *a) - origin(alg)
                p.coeffs[i] = d.coeffs[i] = bad
                points.append(p)
                ideal_points.append(d)
            for i in np.flatnonzero(alg.grades == alg.n - 1):  # e01 among them
                line = join(point(alg, *a), point(alg, *b))
                line.coeffs[i] = bad
                lines.append(line)
        with np.errstate(over="ignore"):
            points.append(point(pga3, 1e300, 0.0, 0.0) * 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in points:
                with pytest.raises(GeometryError, match="ideal point"):
                    point_coords(p)
            for f, flats in ((ideal_direction, ideal_points), (direction, lines)):
                for x in flats:
                    with pytest.raises(GeometryError, match="non-finite"):
                        f(x)

    def test_small_weight_against_small_slots(self, pga3):
        """A tiny weight is refused only against the point's own slots."""
        p = point(pga3, 1.0, -2.0, 0.5) * 1e-300
        assert np.allclose(point_coords(p), [1.0, -2.0, 0.5], rtol=1e-15)

    def test_plane_contains_solutions(self, pga3):
        # x + 2y - z + 3 = 0 holds at (1, 0, 4) and (-3, 0, 0)
        pl = normalize(plane(pga3, 1.0, 2.0, -1.0, 3.0))
        assert incident(pl, point(pga3, 1.0, 0.0, 4.0))
        assert incident(pl, point(pga3, -3.0, 0.0, 0.0))
        assert not incident(pl, point(pga3, 0.0, 0.0, 0.0))

    def test_plane_needs_normal(self, pga3):
        with pytest.raises(GeometryError):
            plane(pga3, 0.0, 0.0, 0.0, 4.0)

    def test_arity_checks(self, pga3, pga2):
        with pytest.raises(GeometryError):
            point(pga3, 1.0, 2.0)
        with pytest.raises(GeometryError):
            plane(pga2, 1.0, 0.0, 0.0, 0.0)

    def test_flat_kinds(self, pga3, pga2):
        assert flat_kind(plane(pga3, 1.0, 0.0, 0.0, 2.0)) == "plane"
        assert flat_kind(point(pga3, 1.0, 1.0, 1.0)) == "point"
        line = line_from_points(point(pga3, 0, 0, 0), point(pga3, 1, 0, 0))
        assert flat_kind(line) == "line"
        assert flat_kind(point(pga2, 0.0, 0.0)) == "point"
        assert flat_kind(plane(pga2, 1.0, 0.0, 0.0)) == "line"

    def test_far_flat_kinds(self, pga3, pga2):
        # the grade tolerance scales with the norm, and a coefficient past
        # 1.3e154 overflows a plain sum of squares
        assert flat_kind(plane(pga3, 0.0, 1.0, 0.0, 1e200)) == "plane"
        assert flat_kind(point(pga3, 1e200, 0.0, -1e200)) == "point"
        line = line_from_points(point(pga3, 1e200, 0, 0), point(pga3, 1e200, 1, 0))
        assert flat_kind(line) == "line"
        assert flat_kind(point(pga2, 0.0, 1e200)) == "point"


class TestNorms:
    def test_three_four_five(self, pga2):
        seg = join(point(pga2, 0.0, 0.0), point(pga2, 3.0, 4.0))
        assert euclidean_norm(seg) == pytest.approx(5.0, abs=1e-14)

    def test_normalize_point_weight(self, pga3):
        p = point(pga3, 1.0, 2.0, 3.0) * -2.5
        q = normalize(p)
        assert weight(q) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(point_coords(q), [1.0, 2.0, 3.0])

    def test_normalize_plane(self, pga3):
        pl = normalize(plane(pga3, 3.0, 0.0, 4.0, 10.0))
        assert euclidean_norm(pl) == pytest.approx(1.0, abs=1e-15)
        # orientation survives: the x component keeps its sign
        assert pl["e1"] == pytest.approx(0.6)
        assert pl["e0"] == pytest.approx(2.0)

    def test_normalize_ideal(self, pga3):
        # ideal elements keep their orientation, only the scale changes
        horizon = ideal_plane(pga3) * -4.0
        assert normalize(horizon).close_to(ideal_plane(pga3) * -1.0)
        with pytest.raises(GeometryError):
            normalize(pga3.zero())

    def test_ideal_norm_counts_only_e0_blades(self, pga3):
        x = pga3.parse("3.0*e01 + 4.0*e02 + 7.0*e12")
        assert ideal_norm(x) == pytest.approx(5.0, abs=1e-14)
        assert euclidean_norm(x) == pytest.approx(7.0, abs=1e-14)

    def test_norm_of_coefficients_is_the_scalar_product_bitwise(
            self, pga2, pga3, rng):
        # the array form gives every bit of sqrt|<x ~x>_0|, signed zeros,
        # huge and non-finite slots included
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200]
        for alg in (pga2, pga3):
            for _ in range(500):
                c = rng.normal(size=alg.size) * 10.0 ** rng.uniform(
                    -3, 3, alg.size)
                c[rng.random(alg.size) < 0.3] = rng.choice(special)
                x = alg.from_coeffs(c)
                with np.errstate(all="ignore"):
                    got = (euclidean_norm_of(alg, c), euclidean_norm(x))
                    want = math.sqrt(abs(x.scalar_product(x.reverse())))
                for value in got:
                    assert (np.float64(value).tobytes()
                            == np.float64(want).tobytes())

    @pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-320, 5e-324])
    def test_normalize_a_point_whose_square_underflows(self, pga3, s):
        # s^2 is subnormal or zero: the plain norm gave a weight of
        # 1.0000056 at 1e-160, and 0.267 (the ideal norm's) from 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = normalize(point(pga3, 1.0, 2.0, 3.0) * s)
            assert weight(p) == 1.0
            assert point_coords(p).tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("s", [-1e-13, -1e-200, 1e-13, 1e-200])
    def test_normalize_a_tiny_point_divides_by_its_signed_weight(
            self, pga3, s):
        # every slot is below significant_grades' floor of 1e-12, so the
        # grades are read at unit size: a negative weight read -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = normalize(point(pga3, 1.0, 2.0, 3.0) * s)
            assert weight(p) == 1.0
            assert point_coords(p) == pytest.approx([1.0, 2.0, 3.0],
                                                     rel=1e-15)

    def test_normalize_a_plane_whose_square_underflows(self, pga3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pl = normalize(plane(pga3, 1e-200, 0.0, 0.0, 0.0))
        assert pl == pga3.blade("e1")  # it was refused as zero

    def test_norm_below_the_normal_range_scales_exactly(self, pga2, pga3, rng):
        # 2^-k commutes with the norm while every coefficient stays
        # normal, so the scaled norm is bitwise the plain one scaled,
        # where the square of the scaled coefficients underflows
        for alg in (pga2, pga3):
            for _ in range(200):
                c = rng.normal(size=alg.size)
                for k in (520, 700, 1000):
                    tiny = np.ldexp(c, -k)
                    assert euclidean_norm_of(alg, tiny) == math.ldexp(
                        euclidean_norm_of(alg, c), -k)
            assert euclidean_norm_of(alg, np.zeros(alg.size)) == 0.0

    def test_is_ideal(self, pga3):
        assert is_ideal(ideal_plane(pga3))
        assert not is_ideal(plane(pga3, 1.0, 0.0, 0.0, 100.0))


class TestIsIdeal:
    """A flat reads as ideal where its euclidean slots are within rounding
    of its ideal ones, as ``point_coords`` tests a weight: a flat 1e9 from
    the origin is finite, one 2^52 away is not."""

    @pytest.mark.parametrize("far", [1e9, 1e15, -3e15])
    def test_far_line_is_finite(self, pga3, far):
        line = line_from_points(point(pga3, far, 0.0, 0.0),
                                point(pga3, far, 1.0, 0.0))
        assert not is_ideal(line)
        from pgakit.conformal import flat_rep

        with pytest.raises(GeometryError, match="too far from the origin"):
            flat_rep(line)

    def test_ideal_flats_stay_ideal(self, pga2, pga3, rng):
        from conftest import random_motor
        from pgakit.motors import sandwich

        for alg in (pga2, pga3):
            n = alg.gens - 1
            assert is_ideal(ideal_plane(alg))
            for _ in range(50):
                x = rng.uniform(-1e3, 1e3, n)
                assert is_ideal(polarity(point(alg, *x)))
                assert is_ideal(polarity(plane(alg, *rng.normal(size=n + 1))))
                ideal_line = alg.from_coeffs(
                    np.where(alg.grades == n - 1, rng.normal(size=alg.size), 0.0)
                    * np.isin(np.arange(alg.size), alg.cached(_slots)[1]))
                moved = sandwich(random_motor(alg, rng), ideal_line)
                assert is_ideal(moved) and is_ideal(ideal_line)
                assert not is_ideal(point(alg, *x))

    @pytest.mark.parametrize("x", [1e9, 2.0 ** 52 * (1 - 2.0 ** -53), 2.0 ** 52,
                                   1e16, 1e200, -1e200, 1e300])
    @pytest.mark.parametrize("w", [1.0, -3.5, 1e-100, 1e7])
    def test_point_is_ideal_where_point_coords_refuses(self, pga3, x, w):
        p = point(pga3, x, 0.0, 0.0) * w
        try:
            point_coords(p)
            refused = False
        except GeometryError:
            refused = True
        assert is_ideal(p) == refused


class TestDistance:
    def test_matches_coordinate_norm(self, pga3, pga2, rng):
        for alg in (pga3, pga2):
            n = alg.gens - 1
            for _ in range(200):
                a, b = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
                d = distance(point(alg, *a), point(alg, *b))
                assert d == pytest.approx(np.linalg.norm(a - b), rel=1e-12, abs=1e-12)

    def test_rejects_unnormalized(self, pga3):
        p = point(pga3, 0.0, 0.0, 0.0)
        with pytest.raises(GeometryError):
            distance(p * 2.0, p)

    def test_rejects_ideal(self, pga3):
        p = point(pga3, 1.0, 0.0, 0.0)
        q = point(pga3, 3.0, 0.0, 0.0)
        with pytest.raises(GeometryError):
            distance(p - q, p)  # difference of points is ideal

    def test_rejects_non_points(self, pga3):
        pl = plane(pga3, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(GeometryError):
            distance(pl, point(pga3, 0.0, 0.0, 0.0))


class TestNonFiniteDistance:
    """A NaN coordinate, or points whose squared distance overflows, give
    an error with no warning (warnings are errors in this suite), never
    a NaN or inf distance."""

    @pytest.mark.parametrize("a, b", [
        ((0.0, 0.0, 0.0), (math.nan, 0.0, 0.0)),
        ((0.0, math.nan, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, math.inf)),
        ((1e154, 0.0, 0.0), (-1e154, 0.0, 0.0)),
        ((1e154, 1e154, 1e154), (-1e154, -1e154, -1e154)),
    ], ids=["nan-q", "nan-p", "inf", "far-axis", "far-diagonal"])
    def test_refused(self, pga3, a, b):
        with pytest.raises(GeometryError):
            distance(point(pga3, *a), point(pga3, *b))

    def test_refused_in_pga2(self, pga2):
        with pytest.raises(GeometryError):
            distance(point(pga2, 0.0, 0.0), point(pga2, math.nan, 1.0))
        with pytest.raises(GeometryError):
            distance(point(pga2, 1e154, 0.0), point(pga2, -1e154, 0.0))

    def test_far_finite_points_keep_their_distance(self, pga3):
        p, q = point(pga3, 1e153, 0.0, 0.0), point(pga3, -1e153, 0.0, 0.0)
        assert distance(p, q) == 2e153

    def test_far_points_one_apart(self, pga3):
        # each point's norm passes 1.3e154, so its square overflows; the
        # grade check that says "p is a point" scales with that norm
        p, q = point(pga3, 2e154, 0.0, 0.0), point(pga3, 2e154, 1.0, 0.0)
        assert distance(p, q) == 1.0


class TestAngle:
    def test_right_angle(self, pga3):
        a = normalize(plane(pga3, 1.0, 0.0, 0.0, 2.0))
        b = normalize(plane(pga3, 0.0, 1.0, 0.0, -7.0))
        assert angle(a, b) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_parallel_offset_planes(self, pga3):
        a = normalize(plane(pga3, 0.0, 0.0, 2.0, 1.0))
        b = normalize(plane(pga3, 0.0, 0.0, 5.0, -3.0))
        assert angle(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_matches_normal_vectors(self, pga3, rng):
        for _ in range(50):
            na, nb = rng.normal(size=3), rng.normal(size=3)
            da, db = rng.uniform(-2, 2, 2)
            got = angle(normalize(plane(pga3, *na, da)),
                        normalize(plane(pga3, *nb, db)))
            cos = np.dot(na, nb) / (np.linalg.norm(na) * np.linalg.norm(nb))
            assert got == pytest.approx(math.acos(np.clip(cos, -1, 1)), abs=1e-9)

    def test_far_plane(self, pga3):
        # a unit normal at offset 1e200, whose square overflows: the grade
        # check scales with the norm
        far = plane(pga3, 0.0, 1.0, 0.0, 1e200)
        assert angle(plane(pga3, 0.0, 0.0, 1.0, 0.0), far) == math.pi / 2
        assert angle(far, plane(pga3, 0.0, -1.0, 0.0, -1e200)) == math.pi

    def test_requires_unit_norm(self, pga3):
        with pytest.raises(GeometryError):
            angle(plane(pga3, 2.0, 0.0, 0.0, 0.0), plane(pga3, 0.0, 1.0, 0.0, 0.0))

    @pytest.mark.parametrize("coeffs", [
        (math.nan, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, math.nan),
        (0.0, 0.0, 1.0, math.inf),
    ], ids=["nan-normal", "nan-offset", "inf-offset"])
    def test_non_finite_plane_is_refused(self, pga3, coeffs):
        """A NaN norm passes abs(nan - 1) > tol, and max(-1.0, nan) is
        -1.0, so a NaN plane unchecked reads as an angle of pi."""
        good = plane(pga3, 0.0, 0.0, 1.0, 0.0)
        for u, v in ((good, plane(pga3, *coeffs)), (plane(pga3, *coeffs), good)):
            with pytest.raises(GeometryError):
                angle(u, v)


class TestLines:
    def test_two_routes_to_a_line(self, pga3):
        # z axis: meet of the planes x=0 and y=0, join of two of its points
        via_meet = meet(plane(pga3, 1, 0, 0, 0), plane(pga3, 0, 1, 0, 0))
        via_join = line_from_points(point(pga3, 0, 0, 0), point(pga3, 0, 0, 5.0))
        assert incident(via_meet, point(pga3, 0.0, 0.0, -2.0))
        assert incident(via_join, point(pga3, 0.0, 0.0, 3.0))
        d1, d2 = direction(via_meet), direction(via_join)
        assert np.allclose(np.cross(d1, d2), 0.0, atol=1e-12)

    def test_direction_points_from_second_to_first(self, pga3, rng):
        for _ in range(25):
            a, b = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3)
            u = direction(line_from_points(point(pga3, *a), point(pga3, *b)))
            v = a - b
            assert np.allclose(np.cross(u, v), 0.0, atol=1e-10)
            assert np.dot(u, v) > 0.0

    def test_line_weight_is_point_separation(self, pga3):
        line = line_from_points(point(pga3, 1.0, 0.0, 0.0), point(pga3, 4.0, 4.0, 0.0))
        assert euclidean_norm(line) == pytest.approx(5.0, abs=1e-13)


class TestIncidence:
    def test_scales_with_weight(self, pga3):
        pl = plane(pga3, 0.0, 0.0, 1.0, 0.0)
        on = point(pga3, 1000.0, -2000.0, 0.0)
        off = point(pga3, 0.0, 0.0, 1e-6)
        assert incident(pl * 1e6, on * 1e5)
        assert not incident(pl, off)

    def test_point_pair_coincidence(self, pga3):
        p = point(pga3, 1.0, 2.0, 3.0)
        assert incident(p, p)
        assert not incident(p, point(pga3, 1.0, 2.0, 3.001))


class TestPerpendicular:
    def test_drops_to_x_axis(self, pga3):
        x_axis = line_from_points(origin(pga3), point(pga3, 1.0, 0.0, 0.0))
        p = point(pga3, 3.0, 4.0, 0.0)
        perp = perpendicular_through_point(x_axis, p)
        assert incident(perp, p)
        assert incident(perp, point(pga3, 3.0, 0.0, 0.0))  # the foot
        u = direction(perp) / np.linalg.norm(direction(perp))
        assert abs(np.dot(u, [1.0, 0.0, 0.0])) < 1e-12

    def test_foot_matches_projection_oracle(self, pga3, rng):
        for _ in range(50):
            a, b = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
            if np.linalg.norm(b - a) < 1e-3:
                continue
            c = rng.uniform(-3, 3, 3)
            line = line_from_points(point(pga3, *a), point(pga3, *b))
            p = point(pga3, *c)
            foot_blade = (line | p) ^ line
            u = (b - a) / np.linalg.norm(b - a)
            expected = a + np.dot(c - a, u) * u
            if np.linalg.norm(expected - c) < 1e-6:
                continue  # p effectively on the line, construction degenerates
            assert np.allclose(point_coords(foot_blade), expected, atol=1e-9)
            perp = perpendicular_through_point(line, p)
            assert incident(perp, p)

    def test_degenerate_when_incident(self, pga3):
        x_axis = line_from_points(origin(pga3), point(pga3, 1.0, 0.0, 0.0))
        with pytest.raises(GeometryError):
            perpendicular_through_point(x_axis, point(pga3, 2.0, 0.0, 0.0))

    def test_works_in_2d(self, pga2):
        mirror = plane(pga2, 0.0, 1.0, 0.0)  # the x axis as a 2D line
        p = point(pga2, 2.0, 5.0)
        perp = perpendicular_through_point(mirror, p)
        assert incident(perp, p)
        assert incident(perp, point(pga2, 2.0, 0.0))


class TestPolarityOnFlats:
    def test_point_polar_is_ideal_plane(self, pga3):
        # weight-one points all polarize to the same ideal hyperplane
        assert polarity(point(pga3, 9.0, -2.0, 0.5)).close_to(ideal_plane(pga3))

    def test_plane_polar_is_its_ideal_normal_point(self, pga3):
        from pgakit.euclid import ideal_direction

        polar = polarity(plane(pga3, 0.0, 0.0, 2.0, -7.0))
        assert is_ideal(polar)
        v = ideal_direction(polar)
        assert np.allclose(np.cross(v, [0.0, 0.0, 1.0]), 0.0, atol=1e-14)
        assert np.linalg.norm(v) == pytest.approx(2.0, abs=1e-14)

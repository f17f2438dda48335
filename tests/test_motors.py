import math
import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pgakit.algebra import GAError, Signature, build_algebra, pga
from pgakit.duality import join
from pgakit.euclid import (
    GeometryError,
    direction,
    distance,
    euclidean_norm,
    line_from_points,
    normalize,
    plane,
    point,
    point_coords,
)
from biquaternion import (
    BQ_BASIS,
    Biquaternion,
    from_biquaternion,
    to_biquaternion,
)
from pgakit.motors import (
    MultivaluedLogError,
    axis_line,
    exp_bivector,
    log_versor,
    motor_from_screw,
    reflect,
    rotation_about,
    rotation_about_point,
    sandwich,
    screw_generator,
    screw_split,
    translator,
)

EPS = np.finfo(float).eps


def apply_to_coords(motor, coords):
    alg = motor.algebra
    return point_coords(sandwich(motor, point(alg, *coords)))


class TestReflect:
    def test_mirror_conditions(self, pga2, rng):
        # the image x of b in mirror a keeps the inner product and flips
        # the wedge: x . a = b . a and x ^ a = -(b ^ a)
        for _ in range(100):
            na, nb = rng.normal(size=2), rng.normal(size=2)
            a = normalize(plane(pga2, *na, rng.uniform(-2, 2)))
            b = normalize(plane(pga2, *nb, rng.uniform(-2, 2)))
            x = reflect(a, b)
            assert x.gp(a).scalar_part() == pytest.approx(
                b.gp(a).scalar_part(), abs=1e-12)
            assert (x ^ a).close_to(-(b ^ a), tol=1e-12)

    def test_parallel_mirror(self, pga2):
        a = normalize(plane(pga2, 1.0, 0.0, 0.0))
        b = normalize(plane(pga2, 1.0, 0.0, -3.0))  # x = 3, parallel to a
        x = reflect(a, b)
        assert (x ^ a).close_to(-(b ^ a), tol=1e-15)
        # the reflected line is x = -3
        assert x.close_to(normalize(plane(pga2, 1.0, 0.0, 3.0)))

    def test_requires_unit_mirror(self, pga2):
        with pytest.raises(GeometryError):
            reflect(plane(pga2, 2.0, 0.0, 0.0), plane(pga2, 0.0, 1.0, 0.0))


class TestSandwich:
    def test_odd_versor_mirrors_point(self, pga3):
        floor = plane(pga3, 0.0, 0.0, 1.0, 0.0)  # z = 0
        image = sandwich(floor, point(pga3, 1.0, 2.0, 3.0))
        # single reflections reverse point orientation: weight -1
        assert image.close_to(point(pga3, 1.0, 2.0, -3.0) * -1.0)

    def test_odd_versor_mirrors_plane(self, pga3):
        floor = plane(pga3, 0.0, 0.0, 1.0, 0.0)
        wall = plane(pga3, 1.0, 0.0, 0.0, -1.0)  # x = 1
        assert sandwich(floor, wall).close_to(wall)
        # the mirror itself flips orientation
        assert sandwich(floor, floor).close_to(floor * -1.0)

    def test_two_reflections_compose_to_motor(self, pga3, rng):
        a = normalize(plane(pga3, *rng.normal(size=3), rng.uniform(-1, 1)))
        b = normalize(plane(pga3, *rng.normal(size=3), rng.uniform(-1, 1)))
        g = a.gp(b)
        g = g / euclidean_norm(g)
        p = point(pga3, 0.3, -0.7, 1.1)
        assert sandwich(g, p).close_to(sandwich(a, sandwich(b, p)), tol=1e-12)

    def test_rejects_unnormalized(self, pga3):
        g = rotation_about(pga3, [0, 0, 1], 0.5) * 2.0
        with pytest.raises(GeometryError):
            sandwich(g, point(pga3, 1.0, 0.0, 0.0))

    def test_rejects_mixed_grade(self, pga3):
        g = pga3.scalar(1.0) + pga3.blade("e1")
        with pytest.raises(GeometryError):
            sandwich(g, point(pga3, 1.0, 0.0, 0.0))


class TestRotations:
    def test_matches_rotation_matrix(self, pga3, rng):
        for _ in range(30):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(-3.0, 3.0)
            motor = rotation_about(pga3, axis, theta)
            oracle = Rotation.from_rotvec(theta * axis)
            x = rng.uniform(-2, 2, 3)
            assert np.allclose(apply_to_coords(motor, x), oracle.apply(x),
                               atol=1e-12)

    def test_offcenter_rotation(self, pga3, rng):
        center = np.array([1.0, -2.0, 0.5])
        motor = rotation_about(pga3, [0.0, 0.0, 1.0], math.pi / 2, center=center)
        got = apply_to_coords(motor, center + np.array([1.0, 0.0, 0.0]))
        assert np.allclose(got, center + np.array([0.0, 1.0, 0.0]), atol=1e-13)

    def test_2d_rotation_about_point(self, pga2, rng):
        for _ in range(20):
            c = rng.uniform(-3, 3, 2)
            theta = rng.uniform(-3, 3)
            motor = rotation_about_point(point(pga2, *c), theta)
            x = rng.uniform(-3, 3, 2)
            cs, sn = math.cos(theta), math.sin(theta)
            rel = x - c
            expected = c + np.array([cs * rel[0] - sn * rel[1],
                                     sn * rel[0] + cs * rel[1]])
            assert np.allclose(apply_to_coords(motor, x), expected, atol=1e-12)


class TestTranslations:
    def test_translator_is_exact(self, pga3, rng):
        for _ in range(20):
            t = rng.uniform(-10, 10, 3)
            x = rng.uniform(-10, 10, 3)
            got = apply_to_coords(translator(pga3, t), x)
            assert np.allclose(got, x + t, atol=1e-13)

    def test_translator_equals_ideal_exp(self, pga3, rng):
        t = rng.uniform(-5, 5, 3)
        gen = pga3.zero()
        for i, ti in enumerate(t, start=1):
            gen = gen - pga3.blade(f"e0{i}", 0.5 * ti)
        assert exp_bivector(gen).close_to(translator(pga3, t), tol=0.0)

    def test_2d_translator(self, pga2):
        got = apply_to_coords(translator(pga2, [3.0, -4.0]), [1.0, 1.0])
        assert np.allclose(got, [4.0, -3.0], atol=1e-14)


class TestScrews:
    def test_screw_matches_composed_oracle(self, pga3, rng):
        for _ in range(30):
            center = rng.uniform(-2, 2, 3)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(0.05, 3.0)
            disp = rng.uniform(-2.0, 2.0)
            motor = motor_from_screw(pga3, center, axis, theta, disp)
            oracle = Rotation.from_rotvec(theta * axis)
            x = rng.uniform(-2, 2, 3)
            expected = center + oracle.apply(x - center) + disp * axis
            assert np.allclose(apply_to_coords(motor, x), expected, atol=1e-11)

    def test_axis_line_orientation(self, pga3):
        line = axis_line(pga3, [0.0, 0.0, 0.0], [0.0, 0.0, 2.0])
        assert np.allclose(direction(line), [0.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 5e-324],
                             ids=["1e200", "1e-200", "1e300", "subnormal"])
    @pytest.mark.parametrize("unit", [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    def test_axis_line_past_the_float_range(self, pga3, scale, unit):
        """u.u leaves the float range for these finite axes; norm_of
        scales the sum, so they are the unit axis, bit for bit."""
        center = [1.0, -0.5, 0.25]
        got = axis_line(pga3, center, np.multiply(unit, scale))
        assert got.coeffs.tobytes() == \
            axis_line(pga3, center, unit).coeffs.tobytes()

    @pytest.mark.parametrize("other", [1.0, 1e300])
    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    def test_axis_line_refuses_a_non_finite_axis(self, pga3, bad, index,
                                                 other):
        """Refused before any arithmetic on the axis, so with no numpy
        warning (an error here): u / inf, or u.u of an inf beside 1e300."""
        u = [other] * 3
        u[index] = bad
        with pytest.raises(GeometryError,
                           match="^axis direction must be finite$"):
            axis_line(pga3, [0.0, 0.0, 0.0], u)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_axis_line_of_a_mixed_far_axis(self, pga3, rng, scale):
        for _ in range(20):
            center, u = rng.uniform(-2, 2, 3), rng.normal(size=3)
            got = axis_line(pga3, center, u * scale)
            assert got.close_to(axis_line(pga3, center, u), tol=1e-14)

    def test_axis_line_keeps_the_plain_path(self, pga3, rng):
        """Axes whose u.u stays in the float range are divided by
        np.linalg.norm(u) and nothing else, so their bits do not move."""
        for scale in (1.0, 1e-150, 1e150, 2.0 ** 505, 2.0 ** -505):
            for _ in range(20):
                center, u = rng.uniform(-2, 2, 3), rng.normal(size=3) * scale
                c = np.asarray(center)
                unit = u / float(np.linalg.norm(u))
                want = normalize(join(point(pga3, *(c + unit)),
                                      point(pga3, *c)))
                assert axis_line(pga3, center, u).coeffs.tobytes() == \
                    want.coeffs.tobytes()

    def test_split_parts_commute(self, pga3, rng):
        for _ in range(40):
            b = random_screw_generator(pga3, rng)
            eu, ideal = screw_split(b)
            assert (eu + ideal).close_to(b, tol=1e-14)
            scale = max(1.0, eu.norm() * ideal.norm())
            assert eu.commutator(ideal).norm() <= 4 * EPS * scale
            lhs = exp_bivector(eu).gp(exp_bivector(ideal))
            rhs = exp_bivector(ideal).gp(exp_bivector(eu))
            assert lhs.close_to(rhs, tol=1e-14)
            assert lhs.close_to(exp_bivector(b), tol=1e-13)

    def test_split_of_pure_parts(self, pga3):
        eu, ideal = screw_split(pga3.blade("e12", 0.7))
        assert ideal.is_zero() and eu.close_to(pga3.blade("e12", 0.7))
        eu, ideal = screw_split(pga3.blade("e01", 0.7))
        assert eu.is_zero() and ideal.close_to(pga3.blade("e01", 0.7))


    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_split_refuses_an_overflowing_square(self, pga3, scale):
        b = axis_line(pga3, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]) * scale
        with np.errstate(over="ignore"), pytest.raises(
                GeometryError, match="square is not finite"):
            exp_bivector(b)
        with np.errstate(over="ignore"), pytest.raises(GeometryError):
            screw_split(b)


class TestExpLog:
    def test_round_trip(self, pga3, rng):
        for _ in range(100):
            b = random_screw_generator(pga3, rng)
            assert log_versor(exp_bivector(b)).close_to(b, tol=1e-12)

    def test_log_of_translator(self, pga3):
        t = translator(pga3, [2.0, -1.0, 0.5])
        b = log_versor(t)
        assert exp_bivector(b).close_to(t, tol=0.0)

    def test_log_of_identity(self, pga3):
        assert log_versor(pga3.scalar(1.0)).is_zero()

    def test_full_turn_is_multivalued(self, pga3):
        g = rotation_about(pga3, [0.0, 0.0, 1.0], 2.0 * math.pi)
        with pytest.raises(MultivaluedLogError):
            log_versor(g)

    def test_log_rejects_odd_or_unnormalized(self, pga3):
        with pytest.raises(GeometryError):
            log_versor(pga3.blade("e1"))
        with pytest.raises(GeometryError):
            log_versor(pga3.scalar(3.0))

    def test_exp_rejects_non_bivector(self, pga3):
        with pytest.raises(GeometryError) as err:
            exp_bivector(pga3.blade("e1"))
        assert str(err.value) == "exp is defined here for bivectors only"

    def test_split_rejects_non_bivector(self, pga3):
        with pytest.raises(GeometryError) as err:
            screw_split(pga3.blade("e1") + pga3.blade("e12"))
        assert str(err.value) == "screw split is defined for bivectors only"

    @pytest.mark.parametrize("kind", ["screw", "rotation", "point"])
    def test_exp_matches_power_series(self, kind, pga2, pga3, rng):
        # coefficient by coefficient, so -exp(b), which moves points the
        # same way, fails; log, ill-conditioned as sin(alpha) -> 0, must
        # take the series value back to b
        for _ in range(40):
            if kind == "point":
                half = rng.uniform(0.01, math.pi - 0.01) * rng.choice([-1, 1])
                b = normalize(point(pga2, *rng.uniform(-2, 2, 2))) * half
            else:
                line = axis_line(pga3, rng.uniform(-2, 2, 3), rng.normal(size=3))
                disp = 0.0 if kind == "rotation" else rng.uniform(-6.0, 6.0)
                b = screw_generator(line, rng.uniform(0.02, 2 * math.pi - 0.02),
                                    disp)  # alpha in (0, pi), |beta| <= 3
            series = power_series_exp(b)
            scale = 1.0 + b.norm()
            err = np.abs(exp_bivector(b).coeffs - series.coeffs).max()
            assert err <= 16 * EPS * scale, (b, err)
            sin_alpha = math.sin(math.sqrt(-b.gp(b).scalar_part()))
            err = np.abs(log_versor(series).coeffs - b.coeffs).max()
            assert err <= 1e-12 * scale ** 2 / sin_alpha, (b, err)


class TestIsometryInvariants:
    def test_distance_and_incidence_preserved(self, pga3, rng):
        from conftest import random_motor

        for _ in range(25):
            g = random_motor(pga3, rng)
            a, b = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
            p, q = point(pga3, *a), point(pga3, *b)
            assert distance(sandwich(g, p), sandwich(g, q)) == pytest.approx(
                distance(p, q), rel=1e-12)
            moved_line = sandwich(g, line_from_points(p, q))
            assert moved_line.close_to(
                line_from_points(sandwich(g, p), sandwich(g, q)), tol=1e-10)


class TestBiquaternions:
    def test_basis_products_match(self, pga3):
        for la in BQ_BASIS:
            for lb in BQ_BASIS:
                u, v = Biquaternion.unit(la), Biquaternion.unit(lb)
                lhs = to_biquaternion(
                    from_biquaternion(pga3, u).gp(from_biquaternion(pga3, v)))
                rhs = u * v
                assert lhs == rhs, f"{la} * {lb}: {lhs} != {rhs}"

    def test_unit_table_spot_checks(self):
        i, j, k = (Biquaternion.unit(s) for s in "ijk")
        eps = Biquaternion.unit("eps")
        assert i * j == k and j * i == k.scale(-1.0)
        assert i * i == Biquaternion.unit("1").scale(-1.0)
        assert eps * eps == Biquaternion.from_parts([0] * 4, [0] * 4)
        assert eps * i == i * eps == Biquaternion.unit("epsi")

    def test_random_homomorphism(self, pga3, rng):
        from conftest import random_even

        for _ in range(200):
            g, h = random_even(pga3, rng), random_even(pga3, rng)
            lhs = to_biquaternion(g.gp(h))
            rhs = to_biquaternion(g) * to_biquaternion(h)
            assert lhs.close_to(rhs, tol=1e-14)

    def test_round_trip(self, pga3, rng):
        from conftest import random_even

        g = random_even(pga3, rng)
        assert from_biquaternion(pga3, to_biquaternion(g)).close_to(g, tol=0.0)

    def test_motor_norm_is_biquaternion_norm(self, pga3, rng):
        from conftest import random_motor

        g = random_motor(pga3, rng)
        bq = to_biquaternion(g)
        assert sum(c * c for c in bq.real) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_odd_content(self, pga3):
        with pytest.raises(GeometryError):
            to_biquaternion(pga3.blade("e1"))

    def test_text_form(self):
        bq = Biquaternion.from_parts([1.0, -2.0, 0.0, 0.5], [0.0, 3.0, -1.5, 0.0])
        assert str(bq) == "(1.0 - 2.0i + 0.0j + 0.5k) + ε(0.0 + 3.0i - 1.5j + 0.0k)"


class TestNonFiniteVersors:
    """A NaN norm fails the unit checks (abs(nan - 1) > tol is False), and
    so does a non-finite ideal slot, which the euclidean norm never reads."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("blade", ["1", "e12", "e01", "e0123"])
    def test_non_finite_motor_is_refused(self, pga3, blade, bad):
        g = motor_from_screw(pga3, [1, 0, 0], [0, 1, 0], 0.9, 0.4)
        g.coeffs[pga3.pos_of_name(blade)] = bad
        p = point(pga3, 1.0, 2.0, 3.0)
        with pytest.raises(GeometryError) as err:
            sandwich(g, p)
        assert str(err.value) == "sandwich needs a normalized versor"
        with pytest.raises(GeometryError) as err:
            log_versor(g)
        assert str(err.value) == "log needs a normalized versor"

    @pytest.mark.parametrize("blade", ["e0", "e2"])
    def test_nan_mirror_is_refused(self, pga3, blade):
        mirror = pga3.blade("e1")
        mirror.coeffs[pga3.pos_of_name(blade)] = math.nan
        with pytest.raises(GeometryError) as err:
            reflect(mirror, point(pga3, 1.0, 2.0, 3.0))
        assert str(err.value) == "mirror must have unit euclidean norm"


class TestNonFiniteInput:
    """Each motor constructor refuses a non-finite input by name, before
    any arithmetic: no numpy warning, and no NaN or inf motor."""

    CASES = {
        "translator": (
            "translator offset",
            lambda A2, A3, bad: translator(A3, [bad, 0.0, 0.0])),
        "screw-angle": (
            "screw angle",
            lambda A2, A3, bad: motor_from_screw(A3, [1, 0, 0], [0, 1, 0], bad)),
        "screw-displacement": (
            "screw displacement",
            lambda A2, A3, bad: motor_from_screw(A3, [1, 0, 0], [0, 1, 0],
                                                 0.9, bad)),
        "screw-center": (
            "axis center",
            lambda A2, A3, bad: motor_from_screw(A3, [1, bad, 0], [0, 1, 0],
                                                 0.9, 0.4)),
        "rotation-angle": (
            "screw angle",
            lambda A2, A3, bad: rotation_about(A3, [0, 0, 1], bad)),
        "rotation-about-point-angle": (
            "rotation angle",
            lambda A2, A3, bad: rotation_about_point(point(A2, 1.0, 2.0), bad)),
        "rotation-about-point-center": (
            "rotation center",
            lambda A2, A3, bad: rotation_about_point(point(A2, bad, 2.0), 0.9)),
        "generator-angle": (
            "screw angle",
            lambda A2, A3, bad: screw_generator(
                axis_line(A3, [0, 0, 0], [0, 0, 1]), bad, 0.0)),
        "generator-displacement": (
            "screw displacement",
            lambda A2, A3, bad: screw_generator(
                axis_line(A3, [0, 0, 0], [0, 0, 1]), 0.9, bad)),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_refused_by_name(self, pga2, pga3, case, bad):
        what, make = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError) as err:
                make(pga2, pga3, bad)
        assert str(err.value) == f"{what} must be finite"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_generator_refuses_a_non_finite_line(self, pga3, bad):
        line = axis_line(pga3, [0, 0, 0], [0, 0, 1])
        line.coeffs[pga3.pos_of_name("e12")] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError,
                               match="^screw line must be finite$"):
                screw_generator(line, 0.9, 0.4)


class TestMotorDimensions:
    """The screw split holds up to pga(3); pga(4) has non-simple bivectors
    such as e12 + e34, whose exp has a grade-4 part."""

    def test_pga4_is_refused(self):
        alg = build_algebra(Signature(4, 0, 1, "dual"))
        b = alg.blade("e12") + alg.blade("e34")
        series = power_series_exp(b)  # what exp would have to give
        assert abs(series["e1234"]) > 0.7
        for f, arg in ((exp_bivector, b), (screw_split, b),
                       (log_versor, alg.scalar(1.0))):
            with pytest.raises(GeometryError) as err:
                f(arg)
            assert str(err.value) == ("screw motors need a plane-based pga(n)"
                                      " with n <= 3, not Algebra(dual 4,0,1)")


def power_series_exp(b, terms=40):
    """sum_{k < terms} b^k / k!, from gp alone."""
    term = total = b.algebra.scalar(1.0)
    for k in range(1, terms):
        term = term.gp(b) / k
        total = total + term
    return total


def random_screw_generator(alg, rng):
    center = rng.uniform(-2, 2, 3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0.02, math.pi - 0.02)
    disp = rng.uniform(-2.0, 2.0)
    return screw_generator(axis_line(alg, center, axis), theta, disp)

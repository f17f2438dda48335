import io
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.transform import Rotation

from pgakit.dynamics import (
    CSV_HEADER,
    BodyState,
    InertiaOperator,
    bivector_from_vectors,
    csv_row,
    energy,
    integrate,
    rk4_step,
    solution_space_dims,
    spatial_momentum,
    valid_state_dim,
    vectors_from_bivector,
    write_trajectory,
)
from pgakit.euclid import GeometryError, point, point_coords
from pgakit.motors import sandwich, translator


# -- independent reference integrator: unit quaternion + momentum vector --

def qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def oracle_top(q0, L0, moments, h, steps):
    """Body-frame free top: qdot = q (0, L/I) / 2, Ldot = L x (L/I)."""
    inv_i = 1.0 / np.asarray(moments, float)
    q = np.asarray(q0, float).copy()
    L = np.asarray(L0, float).copy()

    def f(q, L):
        w = L * inv_i
        return 0.5 * qmul(q, np.concatenate([[0.0], w])), np.cross(L, w)

    for _ in range(steps):
        k1q, k1l = f(q, L)
        k2q, k2l = f(q + 0.5 * h * k1q, L + 0.5 * h * k1l)
        k3q, k3l = f(q + 0.5 * h * k2q, L + 0.5 * h * k2l)
        k4q, k4l = f(q + h * k3q, L + h * k3l)
        q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        L = L + h / 6 * (k1l + 2 * k2l + 2 * k3l + k4l)
        q /= np.linalg.norm(q)
    return q, L


def rest_state(alg, angular, linear, inertia):
    m = inertia.apply(bivector_from_vectors(alg, angular, linear))
    return BodyState(alg.scalar(1.0), m)


class TestVectorPacking:
    def test_round_trip(self, pga3, rng):
        a, l = rng.normal(size=3), rng.normal(size=3)
        b = bivector_from_vectors(pga3, a, l)
        a2, l2 = vectors_from_bivector(b)
        assert np.array_equal(a2, a) and np.array_equal(l2, l)

    def test_angular_part_turns_the_right_way(self, pga3):
        from pgakit.motors import exp_bivector

        v = bivector_from_vectors(pga3, [0.0, 0.0, math.pi], [0, 0, 0])
        g = exp_bivector(v * 0.5)  # one unit of time at angular rate pi
        got = point_coords(sandwich(g, point(pga3, 1.0, 0.0, 0.0)))
        assert np.allclose(got, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_linear_part_slides(self, pga3):
        from pgakit.motors import exp_bivector

        v = bivector_from_vectors(pga3, [0, 0, 0], [1.5, 0.0, -2.0])
        g = exp_bivector(v * 0.5)
        assert g.close_to(translator(pga3, [1.5, 0.0, -2.0]), tol=1e-15)


class TestInertia:
    def test_slots(self, pga3):
        inertia = InertiaOperator((2.0, 3.0, 5.0), 7.0)
        v = bivector_from_vectors(pga3, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        m = inertia.apply(v)
        a, l = vectors_from_bivector(m)
        assert np.array_equal(a, [2.0, 3.0, 5.0])
        assert np.array_equal(l, [7.0, 7.0, 7.0])
        assert inertia.inverse_apply(m).close_to(v, tol=1e-15)

    def test_bodies_leave_the_table_store_alone(self, pga3, rng):
        v = bivector_from_vectors(pga3, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        InertiaOperator((1.0, 2.0, 3.0), 1.0).apply(v)
        before = len(pga3._cache)
        for _ in range(200):
            inertia = InertiaOperator(tuple(rng.uniform(0.5, 5.0, 3)),
                                      rng.uniform(0.5, 5.0))
            inertia.inverse_apply(inertia.apply(v))
        assert len(pga3._cache) == before

    @pytest.mark.parametrize("moments, mass", [
        ((1.0, 0.0, 1.0), 1.0), ((1.0, 1.0, 1.0), -2.0),
        ((math.nan, 1.0, 2.0), 1.0), ((1.0, 2.0, 3.0), math.nan),
        ((1.0, 2.0, math.inf), 1.0), ((1.0, 2.0, 3.0), math.inf),
    ], ids=["zero-moment", "negative-mass", "nan-moment", "nan-mass",
            "inf-moment", "inf-mass"])
    def test_rejects_nonpositive(self, moments, mass):
        with pytest.raises(GeometryError, match="positive and finite"):
            InertiaOperator(moments, mass)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_integrate_rejects_step_size(self, pga3, h):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        state = rest_state(pga3, [0.1, 0.2, 0.3], [0, 0, 0], inertia)
        with pytest.raises(GeometryError, match="positive finite step size"):
            integrate(state, inertia, h, 3)

    def test_energy_quadratic(self, pga3):
        inertia = InertiaOperator((2.0, 3.0, 5.0), 4.0)
        state = rest_state(pga3, [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], inertia)
        # E = (I1 w1^2 + m v2^2) / 2 = (2 + 16) / 2
        assert energy(state, inertia) == pytest.approx(9.0, abs=1e-14)


class TestFreeMotion:
    def test_spherical_top_momentum_is_constant(self, pga3):
        inertia = InertiaOperator((2.0, 2.0, 2.0), 1.0)
        state = rest_state(pga3, [0.3, -0.4, 0.5], [0, 0, 0], inertia)
        m0 = state.momentum
        out = integrate(state, inertia, 1e-2, 500)
        assert out.momentum.close_to(m0, tol=1e-13)

    def test_spherical_top_pose_is_axis_angle(self, pga3):
        inertia = InertiaOperator((2.0, 2.0, 2.0), 1.0)
        w = np.array([0.3, -0.4, 0.5])
        state = rest_state(pga3, w, [0, 0, 0], inertia)
        out = integrate(state, inertia, 1e-3, 1000)
        oracle = Rotation.from_rotvec(w * 1.0)  # t = 1
        x = np.array([0.2, 0.7, -1.1])
        got = point_coords(sandwich(out.pose, point(pga3, *x)))
        assert np.allclose(got, oracle.apply(x), atol=1e-10)

    def test_pure_translation(self, pga3):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 4.0)
        state = rest_state(pga3, [0, 0, 0], [2.0, -1.0, 0.4], inertia)
        out = integrate(state, inertia, 1e-2, 300)  # t = 3
        x = np.array([0.1, 0.2, 0.3])
        got = point_coords(sandwich(out.pose, point(pga3, *x)))
        assert np.allclose(got, x + 3.0 * np.array([2.0, -1.0, 0.4]), atol=1e-10)
        assert out.momentum.close_to(state.momentum, tol=1e-13)

    def test_tumbling_matches_quaternion_oracle(self, pga3):
        moments = (1.0, 2.0, 3.0)
        inertia = InertiaOperator(moments, 1.0)
        L0 = np.array([0.1, 1.0, 0.1])  # near the unstable middle axis
        state = rest_state(pga3, L0 / np.array(moments), [0, 0, 0],
                           InertiaOperator((1.0, 1.0, 1.0), 1.0))
        state = BodyState(state.pose,
                          bivector_from_vectors(pga3, L0, [0, 0, 0]))
        h, steps = 1e-3, 2000
        out = integrate(state, inertia, h, steps)
        q, L = oracle_top([1.0, 0, 0, 0], L0, moments, h, steps)
        got_L, got_lin = vectors_from_bivector(out.momentum)
        assert np.allclose(got_L, L, atol=1e-11)
        assert np.allclose(got_lin, 0.0, atol=1e-13)
        x = np.array([1.0, -0.5, 0.25])
        oracle_R = Rotation.from_quat(np.roll(q, -1))  # scipy wants xyzw
        got = point_coords(sandwich(out.pose, point(pga3, *x)))
        assert np.allclose(got, oracle_R.apply(x), atol=1e-10)

    def test_quaternion_reduction_via_biquaternion(self, pga3):
        # with rotational momentum only, the biquaternion image of the
        # run is the plain quaternion top integrated the same way
        from pgakit.motors import to_biquaternion

        moments = (1.0, 2.0, 3.0)
        inertia = InertiaOperator(moments, 1.0)
        m0 = bivector_from_vectors(pga3, [0.4, 0.9, -0.3], [0, 0, 0])
        state = BodyState(pga3.scalar(1.0), m0)
        h, steps = 1e-3, 1500
        # the quaternion components of the momentum carry their own axis
        # convention; read the start values off the isomorphism itself
        L0 = np.array(to_biquaternion(m0).real[1:])
        # map each momentum slot to its moment through the inertia action
        LI = np.array(to_biquaternion(inertia.apply(
            bivector_from_vectors(pga3, [1.0, 1.0, 1.0], [0, 0, 0]))).real[1:])
        LV = np.array(to_biquaternion(
            bivector_from_vectors(pga3, [1.0, 1.0, 1.0], [0, 0, 0])).real[1:])
        moments_q = LI / LV
        q, L = np.array([1.0, 0, 0, 0]), L0.copy()

        def f(q, L):
            w = L / moments_q
            return 0.5 * qmul(q, np.concatenate([[0.0], w])), np.cross(L, w)

        for _ in range(steps):
            k1q, k1l = f(q, L)
            k2q, k2l = f(q + 0.5 * h * k1q, L + 0.5 * h * k1l)
            k3q, k3l = f(q + 0.5 * h * k2q, L + 0.5 * h * k2l)
            k4q, k4l = f(q + h * k3q, L + h * k3l)
            q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            L = L + h / 6 * (k1l + 2 * k2l + 2 * k3l + k4l)
            q /= np.linalg.norm(q)
        out = integrate(state, inertia, h, steps)
        got_pose = np.array(to_biquaternion(out.pose).real)
        got_mom = np.array(to_biquaternion(out.momentum).real[1:])
        assert np.allclose(got_pose, q, atol=1e-10)
        assert np.allclose(got_mom, L, atol=1e-10)
        assert np.allclose(to_biquaternion(out.pose).dual, 0.0, atol=1e-12)

    def test_momentum_against_adaptive_integrator(self, pga3):
        moments = np.array([1.0, 2.0, 3.0])
        inertia = InertiaOperator(tuple(moments), 1.0)
        L0 = np.array([0.7, 0.6, -0.5])

        def field(_t, L):
            return np.cross(L, L / moments)

        ref = solve_ivp(field, (0.0, 2.0), L0, rtol=1e-12, atol=1e-14,
                        dense_output=True)
        state = BodyState(pga3.scalar(1.0),
                          bivector_from_vectors(pga3, L0, [0, 0, 0]))
        out = integrate(state, inertia, 1e-3, 2000)
        got_L, _ = vectors_from_bivector(out.momentum)
        assert np.allclose(got_L, ref.sol(2.0), atol=1e-9)

    def test_coaxial_screw_motion(self, pga3):
        # drift along the spin axis: the momentum commutator vanishes and
        # the body advances as a uniform screw
        inertia = InertiaOperator((1.0, 1.0, 2.0), 3.0)
        state = rest_state(pga3, [0, 0, 1.2], [0, 0, 0.5], inertia)
        out = integrate(state, inertia, 1e-3, 1000)
        assert out.momentum.close_to(state.momentum, tol=1e-13)
        x = np.array([1.0, 1.0, 0.0])
        oracle = Rotation.from_rotvec([0, 0, 1.2]).apply(x) + [0, 0, 0.5]
        got = point_coords(sandwich(out.pose, point(pga3, *x)))
        assert np.allclose(got, oracle, atol=1e-10)

    def test_momentum_coupling_terms(self, pga3, rng):
        # the commutator splits slotwise: the euclidean part carries
        # L x w, the ideal part p x w plus the cross coupling L x v.
        # the latter is what distinguishes this flow from the Newtonian
        # free body once momentum and drift are not aligned.
        for _ in range(20):
            L, p = rng.normal(size=3), rng.normal(size=3)
            w, v = rng.normal(size=3), rng.normal(size=3)
            m = bivector_from_vectors(pga3, L, p)
            vel = bivector_from_vectors(pga3, w, v)
            ang, lin = vectors_from_bivector(m.commutator(vel))
            assert np.allclose(ang, np.cross(L, w), atol=1e-13)
            assert np.allclose(lin, np.cross(p, w) + np.cross(L, v), atol=1e-13)


class TestInvariants:
    def test_energy_and_space_momentum_hold(self, pga3):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 2.0)
        state = rest_state(pga3, [0.2, 1.1, 0.1], [0.3, -0.2, 0.1], inertia)
        e0 = energy(state, inertia)
        ms0 = spatial_momentum(state)
        drift_e, drift_m = 0.0, 0.0
        s = state
        for _ in range(40):
            s = integrate(s, inertia, 1e-3, 50)
            drift_e = max(drift_e, abs(energy(s, inertia) - e0))
            drift_m = max(drift_m, (spatial_momentum(s) - ms0).norm())
        assert drift_e / e0 < 1e-10
        assert drift_m / ms0.norm() < 1e-9

    def test_renormalization_toggle(self, pga3):
        # needs a brisk tumble: the norm defect per step scales like a
        # high power of h times the angular rate
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        state = BodyState(pga3.scalar(1.0),
                          bivector_from_vectors(pga3, [12.0, 10.0, -8.0],
                                                [0.0, 0.0, 0.0]))
        kept = integrate(state, inertia, 1e-3, 2000, renormalize=True)
        drifted = integrate(state, inertia, 1e-3, 2000, renormalize=False)

        def unit_error(s):
            g = s.pose
            return abs(g.gp(g.reverse()).scalar_part() - 1.0)

        assert unit_error(kept) < 1e-14
        assert unit_error(drifted) > 1e-12

    def test_divergence_detected(self, pga3):
        inertia = InertiaOperator((1e-9, 1.0, 1.0), 1.0)
        state = rest_state(pga3, [1e6, 1e6, 1e6], [0, 0, 0], inertia)
        with np.errstate(all="ignore"):
            with pytest.raises(GeometryError, match="diverged at step"):
                integrate(state, inertia, 1e3, 50)


class TestIntermediateAxis:
    """The tennis-racket instability (Ashbaugh, Chicone & Cushman, J. Dyn.
    Diff. Eq. 1991): a spin about the middle principal axis tumbles, one
    about the smallest or the largest axis does not."""

    @pytest.mark.parametrize("axis, flips", [(0, 0), (1, 3), (2, 0)],
                             ids=["smallest", "middle", "largest"])
    def test_only_the_middle_axis_flips(self, pga3, axis, flips):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        spin = np.full(3, 1e-3)
        spin[axis] = 10.0
        state = BodyState(pga3.scalar(1.0),
                          bivector_from_vectors(pga3, spin, [0, 0, 0]))
        signs = []
        integrate(state, inertia, 1e-2, 2000, observer=lambda i, t, s:
                  signs.append(np.sign(vectors_from_bivector(s.momentum)[0])))
        signs = np.array(signs)
        changes = np.count_nonzero(signs[1:] != signs[:-1], axis=0)
        assert changes[axis] == flips
        assert np.all(signs != 0)


class TestEvenState:
    """The integrator keeps only even-grade slots, so a state with an odd
    part is refused rather than silently changed."""

    @pytest.mark.parametrize("part, blade, value", [
        ("pose", "e1", 1e-300), ("pose", "e123", -1.0),
        ("momentum", "e0", 2.0), ("momentum", "e012", np.nan),
    ])
    def test_odd_part_is_refused(self, pga3, part, blade, value):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        pose = pga3.scalar(1.0)
        momentum = bivector_from_vectors(pga3, [1.0, 2.0, 3.0], [0, 0, 0])
        parts = {"pose": pose, "momentum": momentum}
        parts[part] = parts[part] + pga3.blade(blade, value)
        state = BodyState(**parts)
        with pytest.raises(GeometryError, match="odd-grade part"):
            integrate(state, inertia, 1e-3, 10)
        with pytest.raises(GeometryError, match="odd-grade part"):
            rk4_step(state, inertia, 1e-3)

    def test_even_residue_and_negative_zero_are_kept(self, pga3):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        momentum = bivector_from_vectors(pga3, [1.0, 2.0, 3.0], [0, 0, 0])
        momentum = momentum + pga3.blade("e0123", 1e-17) \
            + pga3.blade("e1", -0.0)
        out = rk4_step(BodyState(pga3.scalar(1.0), momentum), inertia, 1e-3)
        assert out.momentum["e0123"] == 1e-17

    def test_checked_once_per_run_not_per_step(self, pga3, monkeypatch):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        pose = pga3.scalar(1.0)
        momentum = bivector_from_vectors(pga3, [1.0, 2.0, 3.0], [0.5, 0, 0])
        checks = []
        require = type(pga3).require
        monkeypatch.setattr(type(pga3), "require", lambda alg, *a: (
            checks.append(a), require(alg, *a))[1])

        def count(steps):
            checks.clear()
            integrate(BodyState(pose, momentum), inertia, 1e-3, steps,
                      observer=lambda *_: None)
            return len(checks)

        assert count(100) == count(1) > 0


class TestTrajectoryOutput:
    def test_header_and_shape(self, pga3):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        state = rest_state(pga3, [0.1, 0.2, 0.3], [1, 0, 0], inertia)
        buf = io.StringIO()
        write_trajectory(buf, state, inertia, 1e-3, 10)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 12  # header + initial row + 10 steps
        first = [float(f) for f in lines[1].split(",")]
        assert len(first) == 22
        assert first[0] == 0.0 and first[1] == 1.0  # t, scalar part of pose

    def test_runs_are_deterministic(self, pga3):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        state = rest_state(pga3, [0.5, -0.4, 0.3], [0.2, 0.1, 0.0], inertia)
        a, b = io.StringIO(), io.StringIO()
        write_trajectory(a, state, inertia, 1e-3, 200)
        write_trajectory(b, state, inertia, 1e-3, 200)
        assert a.getvalue() == b.getvalue()

    def test_row_precision_survives_round_trip(self, pga3):
        inertia = InertiaOperator((1.0, 2.0, 3.0), 1.0)
        state = rest_state(pga3, [1 / 3, 2 / 7, 0.1], [0, 0, 0], inertia)
        state = rk4_step(state, inertia, 1e-3)
        row = csv_row(0.123, state, inertia).split(",")
        back = [float(f) for f in row]
        assert back[9:15] == list(
            state.momentum.coeffs[pga3.grade_slice[2]])


class TestDimensions:
    def test_counts(self):
        assert solution_space_dims("pga") == (6, 8, 2)
        assert solution_space_dims("cga") == (10, 16, 14)
        assert valid_state_dim() == 12
        with pytest.raises(GeometryError):
            solution_space_dims("elliptic")

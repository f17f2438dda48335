"""Release gate: one test per shipping criterion, each printing a
terminal-visible PASS/FAIL line with its runtime against the budget."""

import time

import numpy as np
import pytest

from biquaternion import to_biquaternion
from bruteforce import blade_of_mask, multiply_blades
from conftest import random_even, random_motor
from dimensions import solution_space_dims, valid_state_dim
from pgakit import algebra as ga
from pgakit import conformal as cf
from pgakit import duality as du
from pgakit import dynamics, euclid, expr, motors
from pgakit.algebra import Signature


def _run(capsys, num, label, budget, work):
    t0 = time.perf_counter()
    try:
        work()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d} {verdict}  {label}"
              f"  [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"{label}: {elapsed:.2f}s exceeded the {budget}s budget"


def _signatures_of_dim(d):
    return [Signature(p, q, d - p - q)
            for p in range(d + 1) for q in range(d + 1 - p)]


def test_criterion_01_dimension_audit(capsys):
    def work():
        assert solution_space_dims("pga") == (6, 8, 2)
        assert solution_space_dims("cga") == (10, 16, 14)
        assert valid_state_dim() == 12

    _run(capsys, 1, "dimension audit", 1.0, work)


def test_criterion_02_perpendicular_construction(capsys, pga3, rng):
    def work():
        env_expr = expr.parse("((Pi | P) ^ Pi) & P")
        done = 0
        while done < 100:
            a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
            p = rng.uniform(-5, 5, 3)
            u = b - a
            if np.linalg.norm(u) < 0.1:
                continue
            u = u / np.linalg.norm(u)
            foot = a + ((p - a) @ u) * u
            if np.linalg.norm(p - foot) < 0.05:
                continue
            line = euclid.line_from_points(euclid.point(pga3, *a),
                                           euclid.point(pga3, *b))
            pt = euclid.point(pga3, *p)
            drop = expr.evaluate(env_expr, pga3, {"Pi": line, "P": pt})
            same = euclid.perpendicular_through_point(line, pt)
            assert np.array_equal(drop.coeffs, same.coeffs)

            resid = du.join(drop, pt).norm()
            assert resid <= 1e-9 * max(1e-30, drop.norm() * pt.norm())
            du_, dv = euclid.direction(drop), euclid.direction(line)
            cosang = abs(du_ @ dv) / (np.linalg.norm(du_)
                                      * np.linalg.norm(dv))
            assert cosang <= 1e-9
            got_foot = euclid.point_coords(
                euclid.normalize((line | pt) ^ line))
            assert np.linalg.norm(got_foot - foot) <= 1e-8 * max(
                1.0, np.linalg.norm(foot))
            done += 1

    _run(capsys, 2, "perpendicular from a point to a line", 1.0, work)


def test_criterion_03_reflection_conditions(capsys, pga2, rng):
    def work():
        for trial in range(1000):
            na = rng.normal(size=2)
            if trial % 10 == 0:
                nb = na * (1.0 if trial % 20 else -1.0)  # parallel mirror
            else:
                nb = rng.normal(size=2)
            a = euclid.normalize(
                euclid.plane(pga2, *na, rng.uniform(-2, 2)))
            b = euclid.normalize(
                euclid.plane(pga2, *nb, rng.uniform(-2, 2)))
            x = motors.reflect(a, b)
            assert abs(x.gp(a).scalar_part()
                       - b.gp(a).scalar_part()) <= 1e-12
            assert ((x ^ a) + (b ^ a)).norm() <= 1e-12

    _run(capsys, 3, "reflection keeps the inner, flips the wedge", 1.0, work)


def test_criterion_04_distance_routes(capsys, pga3, cga3, rng):
    def work():
        for _ in range(1000):
            a, b = rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)
            p, q = euclid.point(pga3, *a), euclid.point(pga3, *b)
            via_join = euclid.euclidean_norm(du.join(p, q))
            via_gp = euclid.ideal_norm(p.gp(q).grade(2))
            via_coords = float(np.linalg.norm(a - b))
            via_null = cf.cga_distance(cf.up(cga3, a), cf.up(cga3, b))
            scale = max(1.0, via_coords)
            assert abs(via_join - via_gp) <= 1e-10 * scale
            assert abs(via_join - via_coords) <= 1e-10 * scale
            assert abs(via_null - via_coords) <= 1e-10 * scale

    _run(capsys, 4, "distance agreement across four routes", 1.0, work)


def test_criterion_05_biquaternion_homomorphism(capsys, pga3, rng):
    def work():
        even = [n for n, g in zip(pga3.names, pga3.grades) if g % 2 == 0]
        assert len(even) == 8
        for na in even:
            for nb in even:
                x, y = pga3.blade(na), pga3.blade(nb)
                lhs = to_biquaternion(x.gp(y))
                rhs = to_biquaternion(x) * to_biquaternion(y)
                assert lhs.real == rhs.real and lhs.dual == rhs.dual, (na, nb)
        for _ in range(1000):
            x, y = random_even(pga3, rng), random_even(pga3, rng)
            lhs = to_biquaternion(x.gp(y))
            rhs = to_biquaternion(x) * to_biquaternion(y)
            parts = np.array(lhs.real + lhs.dual) - np.array(
                rhs.real + rhs.dual)
            scale = max(1.0, np.max(np.abs(np.array(lhs.real + lhs.dual))))
            assert np.max(np.abs(parts)) <= 1e-14 * scale

    _run(capsys, 5, "biquaternion map is multiplicative", 1.0, work)


def test_criterion_06_motor_covariance(capsys, pga3, rng):
    def work():
        for _ in range(200):
            g = random_motor(pga3, rng)
            a, b, c = (rng.uniform(-5, 5, 3) for _ in range(3))
            p, q = euclid.point(pga3, *a), euclid.point(pga3, *b)
            gp_, gq = motors.sandwich(g, p), motors.sandwich(g, q)
            d0 = euclid.distance(p, q)
            assert abs(euclid.distance(gp_, gq) - d0) <= 1e-10 * max(1.0, d0)

            pl1 = euclid.normalize(
                euclid.plane(pga3, *rng.normal(size=3), rng.uniform(-2, 2)))
            pl2 = euclid.normalize(
                euclid.plane(pga3, *rng.normal(size=3), rng.uniform(-2, 2)))
            ang0 = euclid.angle(pl1, pl2)
            ang1 = euclid.angle(euclid.normalize(motors.sandwich(g, pl1)),
                                euclid.normalize(motors.sandwich(g, pl2)))
            assert abs(ang1 - ang0) <= 1e-10

            line = euclid.line_from_points(p, q)
            gline = motors.sandwich(g, line)
            assert euclid.incident(gline, gp_)
            r = euclid.point(pga3, *c)
            assert euclid.incident(line, r) == euclid.incident(
                gline, motors.sandwich(g, r))

            if du.join(line, r).norm() > 1e-3:
                moved = motors.sandwich(
                    g, euclid.perpendicular_through_point(line, r))
                rebuilt = euclid.perpendicular_through_point(
                    gline, motors.sandwich(g, r))
                assert (moved - rebuilt).norm() <= 1e-10 * max(
                    1.0, rebuilt.norm())

    _run(capsys, 6, "motors preserve distance, angle, incidence", 5.0, work)


def test_criterion_07_exp_log_round_trip(capsys, pga3, rng):
    def work():
        for _ in range(500):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            line = motors.axis_line(pga3, rng.uniform(-3, 3, 3), axis)
            gen = motors.screw_generator(line, rng.uniform(0.01, np.pi - 0.01),
                                         rng.uniform(-2, 2))
            back = motors.log_versor(motors.exp_bivector(gen))
            assert (back - gen).norm() <= 1e-10 * max(1.0, gen.norm())
        for _ in range(100):
            t = rng.uniform(-5, 5, 3)
            gen = pga3.zero()
            for i, ti in enumerate(t, start=1):
                gen = gen + pga3.blade(f"e0{i}", -0.5 * ti)
            exact = motors.exp_bivector(gen)
            assert np.array_equal(exact.coeffs,
                                  motors.translator(pga3, t).coeffs)
            x = rng.uniform(-5, 5, 3)
            moved = euclid.point_coords(
                motors.sandwich(exact, euclid.point(pga3, *x)))
            tol = 1e-12 * (1.0 + np.abs(x).max() + np.abs(t).max())
            assert np.linalg.norm(moved - (x + t)) <= tol

    _run(capsys, 7, "screw exp/log round trip, ideal exp translates",
         1.0, work)


def test_criterion_08_rigid_body_conservation(capsys, pga3):
    def work():
        inertia = dynamics.InertiaOperator((1.0, 2.0, 3.0), 1.0)
        spun = dynamics.bivector_from_vectors(pga3, [12.0, 10.0, -8.0],
                                              [0.0, 0.0, 0.0])
        cases = [
            (dynamics.BodyState(pga3.scalar(1.0), spun), inertia),
            (dynamics.BodyState(
                pga3.scalar(1.0),
                dynamics.bivector_from_vectors(pga3, [12.0, 10.0, -8.0],
                                               [1.0, -2.0, 0.5])),
             dynamics.InertiaOperator((1.0, 2.0, 3.0), 2.0)),
        ]
        for state, inop in cases:
            e0 = dynamics.energy(state, inop)
            m0 = dynamics.spatial_momentum(state)
            final = dynamics.integrate(state, inop, 1e-3, 10_000)
            assert abs(dynamics.energy(final, inop) - e0) <= 1e-9 * e0
            assert (dynamics.spatial_momentum(final) - m0).norm() <= 1e-8

        raw = dynamics.integrate(dynamics.BodyState(pga3.scalar(1.0), spun),
                                 inertia, 1e-3, 10_000, renormalize=False)
        defect = abs(raw.pose.gp(raw.pose.reverse()).scalar_part() - 1.0)
        assert defect > 1e-12

    _run(capsys, 8, "free tops conserve energy and momentum", 30.0, work)


def test_criterion_09_duality_suite(capsys, pga3, rng):
    def work():
        for d in (1, 2, 3, 4):
            tables = [du._tables(ga.build_algebra(sig))
                      for sig in _signatures_of_dim(d)]
            partner0, sign0 = tables[0]
            for partner, sign in tables[1:]:
                assert np.array_equal(partner, partner0)
                assert np.array_equal(sign, sign0)

        for d in (1, 2, 3, 4):
            for base in _signatures_of_dim(d):
                alg = ga.build_algebra(
                    Signature(base.p, base.q, base.r, "dual"))
                for na in alg.names:
                    for nb in alg.names:
                        x, y = alg.blade(na), alg.blade(nb)
                        lhs = du.j_map(du.meet(x, y))
                        rhs = du.join(du.j_map(x), du.j_map(y))
                        assert lhs == rhs, (base, na, nb)

        for _ in range(20):
            normal = rng.normal(size=3)
            polars = [du.polarity(euclid.plane(pga3, *normal, off))
                      for off in rng.uniform(-10, 10, 5)]
            assert not polars[0].is_zero()
            assert euclid.is_ideal(polars[0])
            for other in polars[1:]:
                assert np.array_equal(other.coeffs, polars[0].coeffs)
        assert du.polarity(pga3.pseudoscalar()).is_zero()

    _run(capsys, 9, "duality: metric-free complement and polarity",
         5.0, work)


def test_criterion_10_small_product_oracle(capsys):
    def work():
        for d in (0, 1, 2, 3):
            for sig in _signatures_of_dim(d):
                alg = ga.build_algebra(sig)
                metric = dict(enumerate(alg.metric))
                for i, ma in enumerate(alg.mask_of):
                    for j, mb in enumerate(alg.mask_of):
                        want_sign, want = multiply_blades(
                            blade_of_mask(ma), blade_of_mask(mb), metric)
                        got = alg.blade(alg.names[i]).gp(
                            alg.blade(alg.names[j]))
                        if want_sign == 0:
                            assert got.is_zero(), (sig, i, j)
                            continue
                        pos = alg.pos_of[sum(1 << b for b in want)]
                        expect = np.zeros(alg.size)
                        expect[pos] = want_sign
                        assert np.array_equal(got.coeffs, expect), (sig, i, j)

    _run(capsys, 10, "products match the string-sorting oracle", 1.0, work)

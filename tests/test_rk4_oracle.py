"""The array RK4 in ``pgakit.dynamics`` against the ``Multivector`` RK4
it replaced (``tests/multivector_rk4.py``): the same states bit for bit,
sign bits of zeros included, after every step, the same CSV rows, and
the same divergence step and message."""

from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import multivector_rk4 as oracle
from pgakit import cli, dynamics, motors
from pgakit.algebra import GeometryError, pga

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _run(integrate, state, inertia, h, steps, renormalize):
    """Bytes of every observed state's pose and momentum, pgakit's and
    the oracle's CSV row of each pgakit state, and the error the run ended
    with, if any."""
    seen = []

    def observe(i, t, s):
        rows = ((dynamics.csv_row(t, s, inertia), oracle.csv_row(t, s, inertia))
                if isinstance(s, dynamics.BodyState) else (None, None))
        seen.append((i, s.pose.coeffs.tobytes(), s.momentum.coeffs.tobytes(),
                     *rows))

    try:
        integrate(state, inertia, h, steps, renormalize, observer=observe)
    except GeometryError as e:
        return seen, str(e)
    return seen, None


def assert_same_run(state, inertia, h, steps, renormalize):
    got, got_end = _run(dynamics.integrate, state, inertia, h, steps,
                        renormalize)
    want, want_end = _run(oracle.integrate, state, inertia, h, steps,
                          renormalize)
    assert got_end == want_end
    assert len(got) == len(want)
    for (i, pose, mom, row, row_oracle), (_, pose_o, mom_o, _, _) in zip(
            got, want):
        assert pose == pose_o, f"pose differs after step {i}"
        assert mom == mom_o, f"momentum differs after step {i}"
        assert row == row_oracle, f"CSV row differs after step {i}"
    return got, got_end


@pytest.mark.parametrize("name, steps, renormalize", [
    ("euler_top", None, True),
    ("free_top", None, True),
    ("euler_top", 2000, False),
    ("free_top", 2000, False),
])
def test_repo_scenes(name, steps, renormalize):
    scene = cli.load_scene(str(SCENES / f"{name}.json"))
    args = Namespace(h=None, steps=steps, no_renormalize=not renormalize)
    state, inertia, h, steps, renormalize = cli._dynamics_setup(scene, args)
    seen, end = assert_same_run(state, inertia, h, steps, renormalize)
    assert end is None and len(seen) == steps + 1


def _seeded(seed):
    rng = np.random.default_rng((8, seed))
    alg = pga(3)
    axis = rng.normal(size=3)
    pose = motors.motor_from_screw(alg, rng.uniform(-2, 2, 3),
                                   axis / np.linalg.norm(axis),
                                   rng.uniform(0.0, 3.0), rng.uniform(-1, 1))
    linear = rng.uniform(-3, 3, 3) if seed % 5 else np.zeros(3)
    momentum = dynamics.bivector_from_vectors(
        alg, rng.uniform(-15, 15, 3), linear)
    inertia = dynamics.InertiaOperator(tuple(rng.uniform(0.5, 5.0, 3)),
                                       rng.uniform(0.5, 3.0))
    h = float(rng.choice([1e-3, 1e-2, 0.05, 0.1]))
    return dynamics.BodyState(pose, momentum), inertia, h, seed % 3 != 0


@pytest.mark.parametrize("seed", range(50))
def test_seeded_scenes(seed):
    state, inertia, h, renormalize = _seeded(seed)
    assert_same_run(state, inertia, h, 60, renormalize)


@pytest.mark.parametrize("angular, linear, h, renormalize", [
    ([1e150, 0, 0], [0, 0, 0], 1e-3, True),
    ([1e160, 0, 0], [0, 0, 0], 1e-3, True),
    ([1e160, 0, 0], [0, 0, 0], 1e-3, False),
    # RK4 is unstable at this step size: the run overflows at step 18
    ([12, 10, -8], [1, -2, 0.5], 0.3, True),
    ([12, 10, -8], [1, -2, 0.5], 0.3, False),
])
def test_divergence_step_and_message(angular, linear, h, renormalize):
    alg = pga(3)
    inertia = dynamics.InertiaOperator((1.0, 2.0, 3.0), 1.0)
    state = dynamics.BodyState(alg.scalar(1.0), dynamics.bivector_from_vectors(
        alg, angular, linear))
    _, end = assert_same_run(state, inertia, h, 50, renormalize)
    assert end is not None and end.startswith("integration diverged at step")

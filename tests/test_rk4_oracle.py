"""The array RK4 in ``pgakit.dynamics`` against the ``Multivector`` RK4
it replaced (``tests/multivector_rk4.py``): the same states bit for bit,
sign bits of zeros included, after every step, the same CSV rows, the
same divergence step and message, and the same bytes from
``write_trajectory``, which writes its rows in blocks."""

import io
import math
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import multivector_rk4 as oracle
from pgakit import cli, dynamics, motors
from pgakit.algebra import GeometryError, pga

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _run(integrate, state, inertia, h, steps, renormalize):
    """Bytes of every observed state's pose and momentum, the CSV row of
    each state (pgakit's of a pgakit state, the oracle's of an oracle
    state), and the error the run ended with, if any."""
    seen = []

    def observe(i, t, s):
        row = (dynamics.csv_row if isinstance(s, dynamics.BodyState)
               else oracle.csv_row)(t, s, inertia)
        seen.append((i, s.pose.coeffs.tobytes(), s.momentum.coeffs.tobytes(),
                     row))

    try:
        integrate(state, inertia, h, steps, renormalize, observer=observe)
    except GeometryError as e:
        return seen, str(e)
    return seen, None


def _oracle_trajectory(seen, end):
    """The text and error of the row-by-row CSV writer, from an oracle run:
    the header and each row in turn, stopping with an error at the first
    row that spells a non-finite value, else at the run's own end."""
    text = dynamics.CSV_HEADER + "\n"
    for i, _, _, row in seen:
        if "inf" in row or "nan" in row:
            return text, (f"integration diverged at step {i}:"
                          " the row is not finite")
        text += row + "\n"
    return text, end


def assert_same_run(state, inertia, h, steps, renormalize):
    """Returns pgakit's observed states, the end of its integrate run and
    the end of its write_trajectory run."""
    got, got_end = _run(dynamics.integrate, state, inertia, h, steps,
                        renormalize)
    want, want_end = _run(oracle.integrate, state, inertia, h, steps,
                          renormalize)
    assert got_end == want_end
    assert len(got) == len(want)
    for (i, pose, mom, row), (_, pose_o, mom_o, row_o) in zip(got, want):
        assert pose == pose_o, f"pose differs after step {i}"
        assert mom == mom_o, f"momentum differs after step {i}"
        assert row == row_o, f"CSV row differs after step {i}"

    out = io.StringIO()
    try:
        dynamics.write_trajectory(out, state, inertia, h, steps, renormalize)
        written_end = None
    except GeometryError as e:
        written_end = str(e)
    text, end = _oracle_trajectory(want, want_end)
    assert written_end == end
    # line by line: pytest's diff of two whole texts would take minutes
    written, lines = (t.splitlines(keepends=True)
                      for t in (out.getvalue(), text))
    for n, (line, line_o) in enumerate(zip(written, lines)):
        assert line == line_o, f"written line {n} differs"
    assert len(written) == len(lines)
    return got, got_end, written_end


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
    seen, end, _ = assert_same_run(state, inertia, h, steps, renormalize)
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


@pytest.mark.parametrize("seed", [1, 3, 5])
@pytest.mark.parametrize("steps", [0, 1, 255, 256, 257, 600])
def test_seeded_scenes_across_blocks(seed, steps):
    """Step counts on and around the edges of write_trajectory's blocks
    (BLOCK_ROWS stepped states, after the initial row)."""
    assert dynamics.BLOCK_ROWS == 256
    state, inertia, h, renormalize = _seeded(seed)
    assert_same_run(state, inertia, h, steps, renormalize)


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
    _, end, _ = assert_same_run(state, inertia, h, 50, renormalize)
    assert end is not None and end.startswith("integration diverged at step")


def test_non_finite_initial_state():
    """integrate checks the states it makes, not the one it is given; its
    row is the initial state's only check."""
    alg = pga(3)
    inertia = dynamics.InertiaOperator((1.0, 2.0, 3.0), 1.0)
    momentum = alg.blade("e12", math.inf)
    state = dynamics.BodyState(alg.scalar(1.0), momentum)
    _, end, written_end = assert_same_run(state, inertia, 1e-3, 300, True)
    assert end == "integration diverged at step 1"
    assert written_end == ("integration diverged at step 0:"
                           " the row is not finite")


@pytest.mark.parametrize("h, renormalize, message", [
    # the state of step 256 overflows: the last state of the first block
    (0.2994878141113604, True, "integration diverged at step 256"),
    (0.2994878141113604, False, "integration diverged at step 256"),
    # the state of step 256 is finite, its row is not
    (0.29948781411136033, True,
     "integration diverged at step 256: the row is not finite"),
    # the first state of the second block
    (0.299487813949585, True, "integration diverged at step 257"),
    (0.299487813949585, False, "integration diverged at step 257"),
    (0.2994877844618789, True,
     "integration diverged at step 257: the row is not finite"),
    # the first state of the third block
    (0.2994866926193237, True, "integration diverged at step 513"),
])
def test_divergence_at_a_block_edge(h, renormalize, message):
    """Step sizes just past RK4's stability limit for this body, tuned so
    the run overflows on the last or the first state of a block."""
    alg = pga(3)
    inertia = dynamics.InertiaOperator((1.0, 2.0, 3.0), 1.0)
    state = dynamics.BodyState(alg.scalar(1.0), dynamics.bivector_from_vectors(
        alg, [12, 10, -8], [1, -2, 0.5]))
    _, _, end = assert_same_run(state, inertia, h, 600, renormalize)
    assert end == message

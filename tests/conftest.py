import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pgakit import algebra as ga


@pytest.fixture(scope="session")
def pga3():
    return ga.pga(3)


@pytest.fixture(scope="session")
def pga2():
    return ga.pga(2)


@pytest.fixture(scope="session")
def cga3():
    return ga.cga(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_mv(alg, rng, sparsity=None):
    c = rng.uniform(-2.0, 2.0, alg.size)
    if sparsity is not None:
        keep = rng.random(alg.size) < sparsity
        c = np.where(keep, c, 0.0)
    return alg.from_coeffs(c)


def random_motor(alg, rng):
    """Generic proper isometry: full screw in 3D, turn + slide in 2D."""
    from pgakit import motors
    from pgakit.euclid import point

    n = alg.gens - 1
    if n == 3:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        return motors.motor_from_screw(
            alg, rng.uniform(-2, 2, 3), axis,
            rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0))
    turn = motors.rotation_about_point(
        point(alg, *rng.uniform(-2, 2, 2)), rng.uniform(0.05, 3.0))
    return turn.gp(motors.translator(alg, rng.uniform(-2, 2, 2)))


def random_even(alg, rng):
    c = rng.uniform(-2.0, 2.0, alg.size)
    for pos in range(alg.size):
        if alg.grades[pos] % 2:
            c[pos] = 0.0
    return alg.from_coeffs(c)


def plain_range(c) -> bool:
    """Whether c's sum of squares is a normal finite float, where
    ``np.linalg.norm`` neither overflows nor loses digits to underflow."""
    with np.errstate(over="ignore"):
        return bool(np.finfo(float).tiny <= c.dot(c) < math.inf)


def rescaled(c):
    """The finite c times the power of two 2^-k that brings its largest
    component into [0.5, 1), and k: exact, but for components that fall
    below the normal range, too small to count in a 2-norm."""
    k = math.frexp(float(np.abs(c).max()))[1]
    return np.ldexp(c, -k), k


def rescaled_norm(c) -> float:
    """``np.linalg.norm`` of the finite c, taken on ``rescaled(c)``, where
    no square overflows, and scaled back: inf where that overflows."""
    scaled, k = rescaled(c)
    try:
        return math.ldexp(float(np.linalg.norm(scaled)), k)
    except OverflowError:
        return math.inf

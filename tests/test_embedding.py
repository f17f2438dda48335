"""pga(3) embeds in cga(3): the paper's claim that the plane-based model
is the smallest euclidean algebra with the conformal model's features on
flats, checked through the embedding in ``tests/embedding.py``."""

import numpy as np
import pytest

from pgakit import conformal, motors
from pgakit.euclid import point, point_coords

from conftest import random_motor
from embedding import CGA, PGA, phi

PRODUCTS = ("gp", "outer", "left_contract")


@pytest.mark.parametrize("kind", PRODUCTS)
def test_products_commute_with_phi_on_every_blade_pair(kind):
    # the coefficients are small integers, so the images agree bit for bit
    blades = [PGA.blade(name) for name in PGA.names]
    for a in blades:
        for b in blades:
            want = phi(getattr(a, kind)(b)).coeffs
            got = getattr(phi(a), kind)(phi(b)).coeffs
            assert got.tobytes() == want.tobytes(), (kind, a, b)


def _moved(v, x):
    """down(v up(x) v~): x moved by v, the image of a motor."""
    return conformal.down(v * conformal.up(CGA, x) * v.reverse())


def _ball(rng, radius=5.0):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u) * radius * rng.random()


def test_motor_images_move_points_as_the_sandwich_does(rng):
    worst = 0.0
    for _ in range(500):
        g, x = random_motor(PGA, rng), _ball(rng)
        want = point_coords(motors.sandwich(g, point(PGA, *x)))
        err = np.abs(_moved(phi(g), x) - want).max() / max(1.0, np.linalg.norm(x))
        worst = max(worst, err)
    assert worst <= 1e-12


def test_positive_n_inf_reverses_translations(rng):
    # e0 -> -n_inf is the sign that makes the two models agree
    for _ in range(20):
        d, x = rng.uniform(-3.0, 3.0, 3), _ball(rng)
        t = motors.translator(PGA, d)
        scale = 1e-12 * max(1.0, np.linalg.norm(x) + np.linalg.norm(d))
        assert np.abs(_moved(phi(t), x) - (x + d)).max() <= scale
        assert np.abs(_moved(phi(t, e0_sign=1.0), x) - (x - d)).max() <= scale

"""An algebra names its own euclidean model, and every function built for
one model refuses an algebra of another with GeometryError.  Each model's
distance has a working range, pinned at its edges."""

import warnings

import pytest

from biquaternion import Biquaternion, from_biquaternion, to_biquaternion
from pgakit import conformal, dynamics, euclid, motors
from pgakit.algebra import GeometryError, Signature, build_algebra, cga, pga

# a dual signature with a negative generator is no euclidean model
NEGATIVE_DUAL = Signature(2, 1, 1, "dual")


@pytest.mark.parametrize("signature, model, n", [
    (Signature(2, 0, 1, "dual"), "pga", 2),
    (Signature(3, 0, 1, "dual"), "pga", 3),
    (Signature(4, 1, 0), "cga", 3),
    (Signature(3, 0, 0), None, None),
    (NEGATIVE_DUAL, None, None),
], ids=["pga2", "pga3", "cga3", "euclidean", "negative-dual"])
def test_model_and_dimension(signature, model, n):
    alg = build_algebra(signature)
    assert (alg.model, alg.n) == (model, n)


def test_require_returns_n_or_names_the_algebra_it_needs():
    assert pga(2).require("pga") == 2
    assert pga(3).require("pga", 3) == 3
    assert cga(3).require("cga", 3) == 3
    with pytest.raises(GeometryError, match=r"needs a plane-based pga\(3\)"
                                            r" algebra, not Algebra\(dual 2"):
        pga(2).require("pga", 3)
    with pytest.raises(GeometryError, match="needs a conformal cga algebra"):
        pga(3).require("cga")


WRONG_MODEL = {
    "point-cga3": lambda: euclid.point(cga(3), 1.0, 2.0, 3.0),
    "point-negative-dual": lambda: euclid.point(
        build_algebra(NEGATIVE_DUAL), 1.0, 2.0, 3.0),
    "plane-cga3": lambda: euclid.plane(cga(3), 1.0, 0.0, 0.0, 0.0),
    "ideal_plane-cga3": lambda: euclid.ideal_plane(cga(3)),
    "exp_bivector-cga3": lambda: motors.exp_bivector(cga(3).blade("e12")),
    "translator-cga3": lambda: motors.translator(cga(3), [1.0, 0.0, 0.0]),
    "rotation_about-pga2": lambda: motors.rotation_about(
        pga(2), [0.0, 0.0, 1.0], 0.5),
    "rotation_about_point-pga3": lambda: motors.rotation_about_point(
        euclid.point(pga(3), 0.0, 0.0, 0.0), 0.5),
    "to_biquaternion-pga2": lambda: to_biquaternion(pga(2).scalar(1.0)),
    "from_biquaternion-pga2": lambda: from_biquaternion(
        pga(2), Biquaternion.unit("1")),
    "bivector_from_vectors-pga2": lambda: dynamics.bivector_from_vectors(
        pga(2), [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "inverse_apply-pga2": lambda: dynamics.InertiaOperator(
        (1.0, 2.0, 3.0), 1.0).inverse_apply(pga(2).blade("e12")),
    "up-pga3": lambda: conformal.up(pga(3), 1.0, 2.0, 3.0),
    "n_origin-pga3": lambda: conformal.n_origin(pga(3)),
    "rotor-pga3": lambda: conformal.rotor(pga(3), [0.0, 0.0, 1.0], 0.5),
    "flat_rep-pga2": lambda: conformal.flat_rep(euclid.point(pga(2), 1.0, 2.0)),
}


@pytest.mark.parametrize("call", WRONG_MODEL.values(), ids=WRONG_MODEL.keys())
def test_wrong_model_raises(call):
    with pytest.raises(GeometryError, match="needs a"):
        call()


def pga_distance(x: float) -> float:
    alg = pga(3)
    return euclid.distance(euclid.point(alg, x, 0.0, 0.0),
                           euclid.point(alg, x, 1.0, 0.0))


def cga_distance(x: float) -> float:
    alg = cga(3)
    return conformal.cga_distance(conformal.up(alg, x, 0.0, 0.0),
                                  conformal.up(alg, x, 1.0, 0.0))


@pytest.mark.parametrize("distance, inside, refused", [
    # the plane-based distance squares no coordinate, so it reads 1.0
    # past 1.3e154, where such a square overflows, up to the float range
    (pga_distance, [1e16, 2e154, 1e300], None),
    # the null-cone pairing cancels products as large as |x|^2 / 2, and
    # its rounding bound passes 1e-6 d^2 between 129 and 130
    (cga_distance, [129.0], 130.0),
], ids=["pga3", "cga3"])
def test_working_range(distance, inside, refused):
    """Points 1 apart at (x, 0, 0) and (x, 1, 0): exactly 1.0 inside each
    model's range, a GeometryError past it, and never a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in inside:
            assert distance(x) == 1.0
        if refused is not None:
            with pytest.raises(GeometryError, match="too far"):
                distance(refused)

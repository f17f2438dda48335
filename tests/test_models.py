"""An algebra names its own euclidean model, and every function built for
one model refuses an algebra of another with GeometryError."""

import pytest

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
    "to_biquaternion-pga2": lambda: motors.to_biquaternion(pga(2).scalar(1.0)),
    "from_biquaternion-pga2": lambda: motors.from_biquaternion(
        pga(2), motors.Biquaternion.unit("1")),
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

"""The dimension audit: why PGA is the smallest euclidean model for a
rigid body.  Counts of bivectors and even elements, read off the built
algebras, against the 12 freedoms one body actually has."""

import numpy as np

from pgakit.algebra import GeometryError, cga, pga


def solution_space_dims(model: str) -> tuple[int, int, int]:
    """(bivector count, even-subalgebra count, excess of the pair space
    over the 12 states a rigid body actually has) for a model family."""
    if model == "pga":
        alg = pga(3)
    elif model == "cga":
        alg = cga(3)
    else:
        raise GeometryError(f"unknown model {model!r}")
    biv = len(alg.basis_blades(2))
    even = int(np.count_nonzero(alg.grades % 2 == 0))
    return biv, even, biv + even - valid_state_dim()


def valid_state_dim() -> int:
    """Velocity and momentum freedoms of one rigid body."""
    return 2 * len(pga(3).basis_blades(2))

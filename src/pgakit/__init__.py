"""Plane-based euclidean geometric algebra with a conformal cross-check.

The package splits along what varies independently: ``algebra`` builds
multiplication tables for any signature, ``duality`` adds the metric-free
complement, ``euclid`` reads flats geometrically, ``motors`` handles the
isometry group, ``dynamics`` integrates free rigid bodies, ``conformal``
re-derives euclidean facts inside a different model as a check, and
``expr``/``cli`` are the text surfaces over all of it.
"""

from .algebra import (
    Algebra,
    AlgebraMismatch,
    GAError,
    GeometryError,
    Multivector,
    Signature,
    SignatureError,
    build_algebra,
    cga,
    pga,
)
from .duality import j_map, join, meet, polarity

__all__ = [
    "Algebra",
    "AlgebraMismatch",
    "GAError",
    "GeometryError",
    "Multivector",
    "Signature",
    "SignatureError",
    "build_algebra",
    "cga",
    "pga",
    "j_map",
    "join",
    "meet",
    "polarity",
]

"""Biquaternions, the oracle for PGA's even subalgebra.

This module is deliberately independent of the multivector tables: it
multiplies pairs of quaternions with the hand-written Hamilton product
and never touches ``Algebra.product``, so the isomorphism tests actually
compare two implementations.  Only the bridge, ``to_biquaternion`` and
``from_biquaternion``, reads and writes multivector coefficients, by
blade name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pgakit.algebra import Algebra, GeometryError, Multivector


def _quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


@dataclass(frozen=True)
class Biquaternion:
    """Quaternion pair q + eps*p with eps*eps = 0 and eps central."""

    real: tuple
    dual: tuple

    @staticmethod
    def from_parts(real, dual) -> "Biquaternion":
        return Biquaternion(tuple(float(c) for c in real),
                            tuple(float(c) for c in dual))

    @staticmethod
    def unit(label: str) -> "Biquaternion":
        real, dual = [0.0] * 4, [0.0] * 4
        dualpart = label.startswith("eps")
        core = label[3:] if dualpart else label
        idx = {"": 0, "1": 0, "i": 1, "j": 2, "k": 3}[core]
        (dual if dualpart else real)[idx] = 1.0
        return Biquaternion.from_parts(real, dual)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return Biquaternion(
            _quat_mul(self.real, other.real),
            tuple(x + y for x, y in zip(_quat_mul(self.real, other.dual),
                                        _quat_mul(self.dual, other.real))),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        return NotImplemented

    def scale(self, c: float) -> "Biquaternion":
        return Biquaternion(tuple(c * x for x in self.real),
                            tuple(c * x for x in self.dual))

    def __add__(self, other):
        return Biquaternion(tuple(x + y for x, y in zip(self.real, other.real)),
                            tuple(x + y for x, y in zip(self.dual, other.dual)))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def close_to(self, other, tol: float = 1e-12) -> bool:
        return all(
            abs(x - y) <= tol
            for x, y in zip(self.real + self.dual, other.real + other.dual)
        )

    def __str__(self):
        def q_text(q):
            w, x, y, z = (float(c) for c in q)
            parts = [repr(w)]
            for c, unit in ((x, "i"), (y, "j"), (z, "k")):
                sign = " - " if c < 0 else " + "
                parts.append(f"{sign}{repr(abs(c))}{unit}")
            return "".join(parts)
        return f"({q_text(self.real)}) + ε({q_text(self.dual)})"


BQ_BASIS = ("1", "i", "j", "k", "eps", "epsi", "epsj", "epsk")

# even-subalgebra blade carried by each biquaternion unit, with the sign
# that makes the correspondence multiplicative both ways
_BQ_BLADES = (
    ("1", 1.0), ("e23", 1.0), ("e13", 1.0), ("e12", 1.0),
    ("e0123", -1.0), ("e01", 1.0), ("e02", -1.0), ("e03", 1.0),
)


def to_biquaternion(g: Multivector) -> Biquaternion:
    """Even element of the 3D dual algebra as a biquaternion."""
    g.algebra.require("pga", 3)
    if any(k % 2 for k in g.grades_present()):
        raise GeometryError("only even multivectors map to biquaternions")
    coeffs = [g[name] * sign for name, sign in _BQ_BLADES]
    return Biquaternion.from_parts(coeffs[:4], coeffs[4:])


def from_biquaternion(alg: Algebra, bq: Biquaternion) -> Multivector:
    alg.require("pga", 3)
    out = np.zeros(alg.size)
    for (name, sign), c in zip(_BQ_BLADES, bq.real + bq.dual):
        out[alg.pos_of_name(name)] = sign * c
    return Multivector(alg, out)

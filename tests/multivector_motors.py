"""Screw motors, polarity and line directions written with whole
``Multivector`` products.

These are the compositions ``pgakit.motors``, ``duality.polarity`` and
``euclid.direction`` used before they ran on coefficient arrays, kept as
the oracle the array paths must match bit for bit on finite input:
polarity is a full ``gp`` with the pseudoscalar, and every intermediate
value is a ``Multivector``.  The input checks are ``motors``' own, so a
refused input reads the same on both sides.
"""

import math

import numpy as np

from pgakit.algebra import (GAError, GeometryError, Multivector, norm_of,
                            require_finite)
from pgakit.duality import join, meet
from pgakit.euclid import (euclidean_norm, ideal_direction, ideal_plane,
                           normalize, point)
from pgakit.motors import (SMALL_ANGLE, VERSOR_TOL, MultivaluedLogError,
                           _parity, _require_motor_algebra)


def polarity(x: Multivector) -> Multivector:
    return x.gp(x.algebra.pseudoscalar())


def direction(flat: Multivector) -> np.ndarray:
    return ideal_direction(meet(flat, ideal_plane(flat.algebra)))


def _require_unit(g: Multivector, message: str):
    defect = abs(g.scalar_product(g.reverse()) - 1.0)
    if not (defect <= VERSOR_TOL and np.isfinite(g.coeffs).all()):
        raise GeometryError(message)


def sandwich(g: Multivector, x: Multivector) -> Multivector:
    g._peer(x)
    _require_unit(g, "sandwich needs a normalized versor")
    operand = x.involute() if _parity(g) else x
    return g.gp(operand).gp(g.reverse())


def _split(b: Multivector, message: str):
    alg = b.algebra
    _require_motor_algebra(alg)
    if not b.is_zero() and b.grades_present() != (2,):
        raise GeometryError(message)
    if not norm_of(b.coeffs) < 2.0 ** 500:
        raise GeometryError("bivector too large: its square is not finite")
    sq = b.gp(b)
    s, size = sq.scalar_part(), b.norm()
    if s > 1e-12 * max(1.0, size * size):
        raise GAError("bivector square has positive scalar part")
    alpha = math.sqrt(max(0.0, -s))
    if alpha < SMALL_ANGLE:
        return alpha, 0.0, alg.zero(), b
    beta = -float(sq.coeffs[-1]) / (2.0 * alpha)
    ideal = polarity(b) * (beta / alpha)
    return alpha, beta, b - ideal, ideal


def exp_bivector(b: Multivector) -> Multivector:
    alpha, beta, euclidean, ideal = _split(
        b, "exp is defined here for bivectors only")
    if alpha < SMALL_ANGLE:
        return b.algebra.scalar(1.0) + b
    cos, sin = math.cos(alpha), math.sin(alpha)
    out = euclidean.coeffs * (sin / alpha) + ideal.coeffs * cos
    out[0], out[-1] = cos, -beta * sin
    return Multivector(b.algebra, out)


def log_versor(g: Multivector) -> Multivector:
    _require_motor_algebra(g.algebra)
    if _parity(g) != 0:
        raise GeometryError("log needs an even versor")
    _require_unit(g, "log needs a normalized versor")
    w = g.scalar_part()
    b2 = g.grade(2)
    sin_alpha = euclidean_norm(b2)
    pseudo = float(g.coeffs[-1])
    if sin_alpha < VERSOR_TOL:
        if w < 0.0:
            raise MultivaluedLogError("full-turn motor: axis is undetermined")
        if abs(pseudo) > VERSOR_TOL:
            raise GeometryError("not a motor: stray volume-grade component")
        return b2 / w
    alpha = math.atan2(sin_alpha, w)
    beta = -pseudo / sin_alpha
    axis_ideal = polarity(b2) / sin_alpha
    axis = (b2 - axis_ideal * (beta * w)) / sin_alpha
    return axis * alpha + axis_ideal * beta


def screw_split(b: Multivector) -> tuple[Multivector, Multivector]:
    return _split(b, "screw split is defined for bivectors only")[2:]


def axis_line(alg, center, axis) -> Multivector:
    u, c = np.asarray(axis, dtype=float), np.asarray(center, dtype=float)
    require_finite(u.ravel().tolist(), "axis direction must be finite")
    require_finite(c.ravel().tolist(), "axis center must be finite")
    nu = norm_of(u)
    if nu == 0.0:
        raise GeometryError("axis direction must be nonzero")
    u = u / nu
    return normalize(join(point(alg, *(c + u)), point(alg, *c)))


def screw_generator(line: Multivector, angle: float,
                    displacement: float) -> Multivector:
    require_finite([angle], "screw angle must be finite")
    require_finite([displacement], "screw displacement must be finite")
    require_finite(line.coeffs.tolist(), "screw line must be finite")
    half = 0.5 * float(angle)
    gen = line * half
    if displacement:
        gen = gen - polarity(line) * (0.5 * float(displacement))
    return gen

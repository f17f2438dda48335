"""Versors: reflections, motors, the bivector exponential, and its inverse.

A motor is an even versor of the degenerate dual algebra.  Every motor
is exp of a bivector, and one split, ``_split``, takes every bivector
b = alpha*u + beta*u*I (u a unit euclidean line) to its commuting
euclidean part alpha*u and ideal part beta*u*I = polarity(b) beta/alpha.
exp writes its value straight from those parts, no series:

    exp(b) = cos(alpha) + (sin(alpha)/alpha) alpha*u
             + cos(alpha) beta*u*I - beta sin(alpha) I,

and log reads the same four terms back off a motor.  The split needs
every bivector to be such a screw, which holds in pga(n) for n <= 3;
from pga(4) on, e12 + e34 is none (its square has a grade-4 part), so
``_split`` and ``log_versor`` refuse those algebras.

Inside, the screw and sandwich functions work on coefficient arrays, bit
for bit as ``Multivector`` arithmetic would, and wrap only what they return.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Algebra, GeometryError, Multivector, norm_of, require_finite
from .duality import join, polarity_of
from .euclid import euclidean_norm, euclidean_norm_of, normalize, point

VERSOR_TOL = 1e-9
SMALL_ANGLE = 1e-12


class MultivaluedLogError(GeometryError):
    """log of a full-turn motor: the axis is not recoverable."""


def _parity(g: Multivector) -> int:
    """0 for even, 1 for odd, error for mixed or zero."""
    grades = g.grades_present()
    if not grades:
        raise GeometryError("zero multivector is not a versor")
    parities = {k % 2 for k in grades}
    if len(parities) != 1:
        raise GeometryError("mixed-grade multivector is not a versor")
    return parities.pop()


def _require_unit(alg: Algebra, g: np.ndarray, message: str):
    """Finite coefficients and a unit norm, NaN failing (``not <=``): the
    norm reads only the euclidean slots, never the ideal ones."""
    require_finite(g.tolist(), message)
    if not abs(alg.scalar_product(g, g * alg.reverse_sign) - 1.0) <= VERSOR_TOL:
        raise GeometryError(message)


def _require_motor_algebra(alg: Algebra) -> None:
    """Screw motors as written here: a plane-based algebra of at most three
    dimensions, where every bivector is simple or a screw b = alpha*u +
    beta*u*I.  From four on, b*b has a grade-4 part the split ignores."""
    if alg.require("pga") > 3:
        raise GeometryError(
            f"screw motors need a plane-based pga(n) with n <= 3, not {alg!r}")


def reflect(mirror: Multivector, x: Multivector) -> Multivector:
    """Reflection in a unit hyperplane, the two-sided product a x a."""
    if mirror.grades_present() != (1,):
        raise GeometryError("mirror must be a 1-vector")
    message = "mirror must have unit euclidean norm"
    require_finite(mirror.coeffs.tolist(), message)
    if not abs(euclidean_norm(mirror) - 1.0) <= VERSOR_TOL:
        raise GeometryError(message)
    return mirror.gp(x).gp(mirror)


def sandwich(g: Multivector, x: Multivector) -> Multivector:
    """Apply a normalized versor: g x g~, with x grade-involuted if g is odd.

    The involution on the odd branch keeps orientations covariant, so a
    single reflection already maps oriented flats the same way two of
    them composed do.
    """
    g._peer(x)
    alg, c, gp = g.algebra, g.coeffs, g.algebra.pairs["gp"]
    _require_unit(alg, c, "sandwich needs a normalized versor")
    operand = x.coeffs * alg.involute_sign if _parity(g) else x.coeffs
    return Multivector(alg, alg.product(gp, alg.product(gp, c, operand),
                                        c * alg.reverse_sign))


def _split(b: Multivector, message: str):
    """alpha, beta and the commuting parts (alpha*u, beta*u*I) of the
    bivector b = alpha*u + beta*u*I, u a unit euclidean line, read from
    b*b = -alpha^2 - 2*alpha*beta*I and b*I = alpha*u*I.  An alpha below
    SMALL_ANGLE takes b as purely ideal: parts (0, b), as arrays.  A
    norm of 2^500 or more, inf or NaN is refused before b*b: below it,
    b*b and beta / alpha (alpha >= SMALL_ANGLE) stay finite."""
    alg, c = b.algebra, b.coeffs
    _require_motor_algebra(alg)
    grades = b.grades_present()  # () for zero, and for NaN-only b
    if grades != (2,) and (grades or not b.is_zero()):
        raise GeometryError(message)
    if not norm_of(c) < 2.0 ** 500:
        raise GeometryError("bivector too large: its square is not finite")
    sq = alg.product(alg.pairs["gp"], c, c)
    alpha = math.sqrt(max(0.0, -float(sq[0])))  # bin 0 sums -c^2 terms only
    if alpha < SMALL_ANGLE:
        return alpha, 0.0, np.zeros(alg.size), c
    beta = -float(sq[-1]) / (2.0 * alpha)  # I is the last slot
    ideal = polarity_of(alg, c) * (beta / alpha)
    return alpha, beta, c - ideal, ideal


def exp_bivector(b: Multivector) -> Multivector:
    """Closed-form exponential of a bivector in the dual algebra.

    Splits b = alpha*u + beta*u*I with u a unit euclidean axis, then
    exp(b) = (cos(alpha) + sin(alpha) u)(1 + beta u I), expanded as in
    the module docstring.  A purely ideal argument short-circuits to the
    exact translator 1 + b.
    """
    alpha, beta, euclidean, ideal = _split(
        b, "exp is defined here for bivectors only")
    if alpha < SMALL_ANGLE:
        return b.algebra.scalar(1.0) + b
    cos, sin = math.cos(alpha), math.sin(alpha)
    out = euclidean * (sin / alpha) + ideal * cos
    out[0], out[-1] = cos, -beta * sin  # both parts vanish on 1 and I
    return Multivector(b.algebra, out)


def log_versor(g: Multivector) -> Multivector:
    """Principal bivector logarithm of a normalized motor.

    Inverse of exp_bivector on its principal branch; the euclidean
    rotation half-angle lands in (0, pi).  Raises MultivaluedLogError
    when the motor is a full turn and the axis has cancelled out.
    """
    alg, c = g.algebra, g.coeffs
    _require_motor_algebra(alg)
    if _parity(g) != 0:
        raise GeometryError("log needs an even versor")
    _require_unit(alg, c, "log needs a normalized versor")
    w, pseudo = float(c[0]), float(c[-1])
    b2 = np.where(alg.grades == 2, c, 0.0)
    sin_alpha = euclidean_norm_of(alg, b2)
    if sin_alpha < VERSOR_TOL:
        if w < 0.0:
            raise MultivaluedLogError("full-turn motor: axis is undetermined")
        if abs(pseudo) > VERSOR_TOL:
            raise GeometryError("not a motor: stray volume-grade component")
        return Multivector(alg, b2 / w)
    alpha = math.atan2(sin_alpha, w)
    # g = w + sin(alpha) u + beta w u I - beta sin(alpha) I
    beta = -pseudo / sin_alpha
    axis_ideal = polarity_of(alg, b2) / sin_alpha
    axis = (b2 - axis_ideal * (beta * w)) / sin_alpha
    return Multivector(alg, axis * alpha + axis_ideal * beta)


def screw_split(b: Multivector) -> tuple[Multivector, Multivector]:
    """Commuting (euclidean, ideal) parts of a bivector, summing to b."""
    parts = _split(b, "screw split is defined for bivectors only")[2:]
    return tuple(Multivector(b.algebra, part) for part in parts)


def axis_line(alg: Algebra, center, axis) -> Multivector:
    """Unit line through center, oriented so exp(t*L) screws along +axis."""
    u, c = np.asarray(axis, dtype=float), np.asarray(center, dtype=float)
    require_finite(u.ravel().tolist(), "axis direction must be finite")
    require_finite(c.ravel().tolist(), "axis center must be finite")
    nu = norm_of(u)
    if nu == 0.0:
        raise GeometryError("axis direction must be nonzero")
    return normalize(join(point(alg, *(c + u / nu)), point(alg, *c)))


def screw_generator(line: Multivector, angle: float, displacement: float) -> Multivector:
    """Bivector whose exp rotates by angle about the unit line and slides
    displacement along it, both right-handed with the line's direction."""
    angle, displacement, alg = float(angle), float(displacement), line.algebra
    require_finite([angle], "screw angle must be finite")
    require_finite([displacement], "screw displacement must be finite")
    require_finite(line.coeffs.tolist(), "screw line must be finite")
    gen = line.coeffs * (0.5 * angle)
    if displacement:
        gen = gen - polarity_of(alg, line.coeffs) * (0.5 * displacement)
    return Multivector(alg, gen)


def motor_from_screw(alg: Algebra, center, axis, angle: float,
                     displacement: float = 0.0) -> Multivector:
    return exp_bivector(screw_generator(axis_line(alg, center, axis),
                                        angle, displacement))


def rotation_about(alg: Algebra, axis, angle: float, center=None) -> Multivector:
    """Motor for a right-handed rotation about an axis line in 3D."""
    alg.require("pga", 3)
    if center is None:
        center = [0.0, 0.0, 0.0]
    return motor_from_screw(alg, center, axis, angle, 0.0)


def rotation_about_point(p: Multivector, angle: float) -> Multivector:
    """2D motor turning counterclockwise by angle about a point."""
    p.algebra.require("pga", 2)
    angle = float(angle)
    require_finite([angle], "rotation angle must be finite")
    require_finite(p.coeffs.tolist(), "rotation center must be finite")
    return exp_bivector(normalize(p) * (-0.5 * angle))


def translator(alg: Algebra, offset) -> Multivector:
    """Exact motor translating by the given vector: 1 - (1/2) sum t_i e0i."""
    n = alg.require("pga")
    t = np.asarray(offset, dtype=float)
    if t.shape != (n,):
        raise GeometryError(f"expected {n} components")
    require_finite(t.tolist(), "translator offset must be finite")
    out = alg.scalar(1.0)
    for i, ti in enumerate(t, start=1):
        if ti:
            out = out - alg.blade(f"e0{i}", 0.5 * float(ti))
    return out


"""Euclidean flats in the plane-based model.

1-vectors are hyperplanes (``a*x + b*y + c*z + d = 0`` maps to
``d*e0 + a*e1 + b*e2 + c*e3``), points are their top-grade meets, and the
degenerate direction ``e0`` carries everything ideal.  A point built by
``point()`` always has weight +1 on the euclidean volume blade, which
is what makes polarity send it to the ideal hyperplane unscaled.

Distances are deliberately computed twice, through the regressive join
and through the grade-2 slice of the geometric product, and the two
routes are required to agree before a value is returned.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (Algebra, GAError, GeometryError, Multivector, norm_of,
                      require_finite, rescaled)
from .duality import join

CROSS_CHECK_TOL = 1e-12
INCIDENCE_TOL = 1e-9
NORMALIZED_TOL = 1e-9
JUNK_TOL = 1e-12
EPSILON = 2.0 ** -52  # spacing of floats at 1.0
NO_DIRECTION = "a flat with a non-finite coefficient has no direction"


def significant_grades(x: "Multivector") -> tuple:
    """Grades present after dropping versor-sandwich rounding residue."""
    return x.grades_present(tol=JUNK_TOL * x.norm())


def plane(alg: Algebra, *coeffs: float) -> Multivector:
    """Hyperplane from n normal components plus offset, normal first."""
    n = alg.require("pga")
    if len(coeffs) != n + 1:
        raise GeometryError(f"expected {n + 1} coefficients, got {len(coeffs)}")
    *normal, off = (float(c) for c in coeffs)
    if not any(normal):
        raise GeometryError("hyperplane normal must be nonzero")
    c = np.zeros(alg.size)
    c[alg.pos_of_name("e0")] = off
    for i, a in enumerate(normal, start=1):
        c[alg.pos_of_name(f"e{i}")] = a
    return Multivector(alg, c)


def point(alg: Algebra, *coords: float) -> Multivector:
    """Weight-one point: the meet of the n axis-aligned planes through it.

    The wedge of the planes ``e_i - x_i e0`` has 1 on the volume blade and
    ``(-1)^i x_i`` on the blade lacking ``e_i``, written here directly;
    ``+ 0.0`` turns -0.0 into +0.0 as the wedge's sums do.
    """
    n = alg.require("pga")
    if len(coords) != n:
        raise GeometryError(f"expected {n} coordinates, got {len(coords)}")
    full = alg.size - 1
    c = np.zeros(alg.size)
    c[alg.pos_of[full ^ 1]] = 1.0
    for i, x in enumerate(coords, start=1):
        x = float(x)
        c[alg.pos_of[full ^ 1 << i]] = (-x if i % 2 else x) + 0.0
    return Multivector(alg, c)


def origin(alg: Algebra) -> Multivector:
    return point(alg, *([0.0] * alg.require("pga")))


def ideal_plane(alg: Algebra) -> Multivector:
    alg.require("pga")
    return alg.blade("e0")


def line_from_points(p: Multivector, q: Multivector) -> Multivector:
    return join(p, q)


def weight(x: Multivector) -> float:
    """Coefficient on the volume blade e1..en; +-1 on normalized points."""
    return float(x.coeffs[x.algebra.pos_of[(x.algebra.size - 1) ^ 1]])


def euclidean_norm(x: Multivector) -> float:
    return euclidean_norm_of(x.algebra, x.coeffs)


def euclidean_norm_of(alg: Algebra, coeffs: np.ndarray) -> float:
    """sqrt|<x ~x>_0| from x's coefficients, for callers that hold an
    array rather than a ``Multivector``.  Where that square is a normal
    float, inf or NaN these are its plain bits.  Below the normal range the
    same pairing runs on the slots it reads, ``alg.pairs["scalar"].i``,
    shifted by 2^-e, e the exponent of the largest of them, and the root is
    shifted back, so a nonzero euclidean part has its norm to rounding."""
    sq = abs(alg.scalar_product(coeffs, coeffs * alg.reverse_sign))
    if not sq < 2.0 ** -1022:  # the smallest normal float
        return math.sqrt(sq)
    # the slots read, the rest zero: a slot the pairing skips could overflow
    read = alg.pairs["scalar"].i
    scaled, e = rescaled(np.bincount(read, coeffs[read], minlength=alg.size))
    return math.ldexp(math.sqrt(abs(alg.scalar_product(
        scaled, scaled * alg.reverse_sign))), e)


def ideal_norm(x: Multivector) -> float:
    """Euclidean size of the e0-carrying complement part."""
    x.algebra.require("pga")
    return norm_of(x.coeffs[x.algebra.cached(_slots)[1]])


def _slots(alg: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the euclidean slots, the ones ``<x ~x>_0`` reads, and
    of the ideal (e0) ones."""
    return alg.pairs["scalar"].i, np.flatnonzero(np.array(alg.mask_of) & 1)


def is_ideal(x: Multivector) -> bool:
    """max |x_E| <= 2^-52 max |x_ideal| (``point_coords``' weight test, no
    squares): true from about 2^52 away from the origin on, and for every
    ideal flat, whose euclidean slots products leave exactly zero."""
    (euclidean, ideal), size = x.algebra.cached(_slots), np.abs(x.coeffs)
    return size[euclidean].max() <= EPSILON * size[ideal].max()


def normalize(x: Multivector) -> Multivector:
    """Scale to unit euclidean norm, or unit ideal norm for ideal input.

    Top-grade elements with nonzero weight divide by the signed weight,
    so points come out with weight exactly +1; the grades are read on the
    unit euclidean form.

    The flat is read shifted by a power of two, the same flat, so
    normalize(2^k x) is normalize(x) bit for bit: by the exponent of its
    euclidean slots, the ones ``<x ~x>_0`` reads, before it is divided.
    Where the euclidean part is zero, or the exponent of the largest slot
    exceeds theirs by 1024 or more, so that the unit form would reach
    2^1021 or overflow, the flat is shifted as a whole and takes the ideal
    norm.  A weight that x / w would overflow on (one at rounding level
    beside the euclidean norm, say) is not divided by: that element keeps
    its unit euclidean form.
    """
    n = x.algebra.require("pga")
    euclidean = x.algebra.cached(_slots)[0]
    size = np.abs(x.coeffs)
    top, top_e = float(size.max()), float(size[euclidean].max())
    if not top < math.inf:  # NaN fails too
        raise GeometryError("cannot normalize a non-finite flat")
    if not top:
        raise GeometryError("cannot normalize a zero multivector")
    e, e_euclidean = math.frexp(top)[1], math.frexp(top_e)[1]
    # the unit form's slots lie below 2^(e - e_euclidean + 1)
    if top_e and e - e_euclidean < 1024:
        x = Multivector(x.algebra, np.ldexp(x.coeffs, -e_euclidean))
        unit, w = x / euclidean_norm(x), weight(x)
        # x / w is finite exactly where its largest slot is: top 2^-e_euclidean / w
        if (w != 0.0 and abs(math.ldexp(top, -e_euclidean) / w) < math.inf
                and significant_grades(unit) == (n,)):
            return x / w
        return unit
    x = Multivector(x.algebra, np.ldexp(x.coeffs, -e))
    return x / ideal_norm(x)  # its largest slot is ideal: a norm >= 1/2


def point_coords(p: Multivector) -> np.ndarray:
    """Cartesian coordinates of a (not necessarily unit-weight) point.

    The point is refused where a coefficient is not finite, or where its
    weight w is within rounding of zero against its own ideal slots
    w x_i, |w| <= 2^-52 max |w x_i|.  So a far point keeps its
    coordinates, up to |x| = 2^52 for a unit weight."""
    message = "ideal point has no cartesian coordinates"
    require_finite(p.coeffs.tolist(), message)
    w = weight(p)
    scaled = p.algebra.cached(_coord_table) @ p.coeffs
    if abs(w) <= EPSILON * np.abs(scaled).max():
        raise GeometryError(message)
    return scaled / w


def ideal_direction(p: Multivector) -> np.ndarray:
    """Direction vector packed in an ideal point (a weight-zero point)."""
    require_finite(p.coeffs.tolist(), NO_DIRECTION)
    return p.algebra.cached(_coord_table) @ p.coeffs


def _coord_table(alg: Algebra) -> np.ndarray:
    n = alg.require("pga")
    base = origin(alg)
    rows = np.zeros((n, alg.size))
    for i in range(n):
        unit = [0.0] * n
        unit[i] = 1.0
        diff = point(alg, *unit) - base  # single +-1 entry on one ideal blade
        rows[i] = diff.coeffs
    return rows


def _e0_coeffs(alg: Algebra) -> np.ndarray:
    """The ideal plane's coefficients; via ``alg.cached``."""
    return ideal_plane(alg).coeffs


def direction(flat: Multivector) -> np.ndarray:
    """Direction of a line: its ideal point flat ^ e0, as a vector."""
    alg = flat.algebra
    require_finite(flat.coeffs.tolist(), NO_DIRECTION)
    ideal = alg.product(alg.pairs["outer"], flat.coeffs, alg.cached(_e0_coeffs))
    return alg.cached(_coord_table) @ ideal


def _check_point(p: Multivector, n: int, who: str):
    if significant_grades(p) != (n,):
        raise GeometryError(f"{who} is not a point (grade {n} expected)")
    if abs(weight(p) - 1.0) > NORMALIZED_TOL:
        raise GeometryError(f"{who} must be normalized to weight +1")


def distance(p: Multivector, q: Multivector) -> float:
    """Euclidean distance between normalized points, computed two ways.

    The regressive join's euclidean norm and the ideal norm of the
    grade-2 part of the geometric product must agree; disagreement means
    the algebra is broken, so it raises rather than returning either.
    """
    p._peer(q)
    n = p.algebra.require("pga")
    # a non-finite coordinate, or a square past the float range, shows as
    # a non-finite route and is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        _check_point(p, n, "p")
        _check_point(q, n, "q")
        via_join = euclidean_norm(join(p, q))
        via_gp = ideal_norm(p.gp(q).grade(2))
    if not (math.isfinite(via_join) and math.isfinite(via_gp)):
        raise GeometryError("distance is not finite: a coordinate is not"
                            " finite, or the points are too far apart")
    if abs(via_join - via_gp) > CROSS_CHECK_TOL * max(1.0, via_join):
        raise GAError(
            f"distance routes disagree: join={via_join!r} gp={via_gp!r}"
        )
    return via_join


def angle(u: Multivector, v: Multivector) -> float:
    """Angle between normalized 1-vectors (hyperplanes), in [0, pi]."""
    u._peer(v)
    for name, x in (("u", u), ("v", v)):
        if significant_grades(x) != (1,):
            raise GeometryError(f"{name} is not a 1-vector")
        require_finite(x.coeffs.tolist(), f"{name} is not finite")
        if abs(euclidean_norm(x) - 1.0) > NORMALIZED_TOL:
            raise GeometryError(f"{name} must have unit euclidean norm")
    c = u.scalar_product(v)
    return math.acos(min(1.0, max(-1.0, c)))


def incident(x: Multivector, y: Multivector) -> bool:
    """Incidence test; the residual tolerance scales with both norms, with
    no floor, and each flat is read ``in_band``, so the answer holds for
    2^k x and its products with the other neither overflow nor underflow."""
    x._peer(y)
    x, y = in_band(x), in_band(y)
    nx, ny = x.norm(), y.norm()  # for significant_grades and the bound
    k = sum(x.grades_present(JUNK_TOL * nx) + y.grades_present(JUNK_TOL * ny))
    prod = x.outer(y) if k <= x.algebra.gens else join(x, y)
    return prod.norm() <= INCIDENCE_TOL * (nx * ny)


def in_band(x: Multivector) -> Multivector:
    """x shifted by a power of two (``rescaled``) that puts its largest
    slot in [1/2, 1): the same flat for a reader that takes it up to scale,
    which so answers the same for 2^k x, and one whose products with
    another such flat stay normal.  A non-finite flat is refused."""
    return Multivector(x.algebra, rescaled(x.coeffs)[0])


def perpendicular_through_point(line: Multivector, p: Multivector) -> Multivector:
    """Drop a perpendicular from p onto a line: ((line | p) ^ line) & p.

    The contraction builds the orthogonal hyperplane through p, the wedge
    meets it with the line to get the foot, and the join connects the
    foot back to p.  Degenerates when p already lies on the line.
    """
    line._peer(p)
    foot = (line | p) ^ line
    result = join(foot, p)
    # result is degree 4 in the inputs, as foot (degree 3) times p is
    if result.norm() <= INCIDENCE_TOL * foot.norm() * p.norm():
        raise GeometryError("construction degenerates: point lies on the line")
    return result


def flat_kind(x: Multivector) -> str:
    """The flat's name by its grade, read ``in_band``."""
    return kind_in_band(in_band(x))


def kind_in_band(x: Multivector) -> str:
    """``flat_kind`` of a flat already ``in_band``, read as it is: no shift."""
    n = x.algebra.require("pga")
    grades = significant_grades(x)
    if grades == (1,):
        return "plane" if n == 3 else "line"
    if grades == (2,):
        return "line" if n == 3 else "point"
    if grades == (3,) and n == 3:
        return "point"
    return "mixed"

"""Null-cone embedding of euclidean space, used as an independent check.

Two extra generators ride along with the euclidean three: e3 squares to
+1 and e4 to -1.  Their null mixtures

    n_o = (e4 - e3) / 2        n_inf = e3 + e4

pair to n_o . n_inf = -1, and a euclidean position x embeds on the
paraboloid cross-section of the null cone:

    up(x) = n_o + x + (1/2) |x|^2 n_inf

The scale convention here is up(x) . up(y) = -(1/2) |x - y|^2, so
distances come back as sqrt(-2 <pq>).  Everything in this module works
from that pairing alone: it imports only ``algebra``, and only flat_rep
reaches into the dual-algebra machinery (``euclid``), to sample points
off a degenerate-model flat and rebuild it as an outer product here.

The null basis, ``euclidean_vector``, ``up`` and ``down`` read and write
coefficient slots directly, from one per-algebra slot table
(``alg.cached(_null_slots)``): the slice of the euclidean generators and
the positions of e_n and e_(n+1).  Each slot gets exactly the value the
composed formula above gives it (``up`` writes x_i + 0.0 on the vector
slots and -1/2 + h, 1/2 + h with h = |x|^2 / 2 on e_n, e_(n+1)), so
points are bitwise those of ``n_origin + x + h n_inf``.  |x|^2 is the
left-to-right sum of the squares x_i ** 2, the same bits on every
interpreter (``sum()`` of floats is compensated from Python 3.12 on).
From h = 2^52 (|x| about 9.49e7) the two slots round and lose the
pairing with n_inf: such a point is too far from the origin to embed
(GeometryError).
Pairings are ``Multivector.scalar_product``, the scalar slot of ``gp``
without the rest of it.  n_inf's coefficients are built once per algebra,
read-only (``alg.cached(_n_inf_coeffs)``): ``infinity_pairing`` runs the
same kernel call as ``p.scalar_product(n_infinity(alg))`` on them, and
``flat_rep`` wedges with them; ``n_infinity()`` still hands out a fresh,
writable copy.

The versors are one kernel call each, on ``gp`` pairs cut down by
``Pairs.restrict``: ``rotor``'s plane e012 u over the pairs with e012 on
the left and a euclidean vector slot on the right (``_rotor_pairs``, 3 in
cga(3), kept with e012's coefficients), ``translator``'s t n_inf over
those with a euclidean vector slot on the left and e_n or e_(n+1) on the
right (``_translator_pairs``, 6), against the cached n_inf.  Each then takes
the composed difference on arrays, cos - plane sin (u from ``norm_of``)
and 1 - t n_inf / 2, so both are the composed products to the byte.
``flat_rep`` runs its wedges on restricted pairs: ``outer``'s
pairs with a 1-vector on the right (``_wedge_pairs``), enough for each
point and for n_inf, since the terms it drops are zeros of up() points
and n_inf; it reads a cached, read-only plane-based origin
(``_origin_coeffs``).  What still runs a full product list in cga(3)
is a product the caller asks for: a translator times a rotor, or a
sandwich.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (Algebra, GeometryError, Multivector, Pairs, cga, norm_of,
                      require_finite)

NULL_TOL = 1e-12
PAIRING_TOL = 1e-9
DISTANCE_TOL = 1e-6
ROUNDING = 2.0 ** -53  # unit roundoff of a float


def _null_slots(alg: Algebra) -> tuple[slice, int, int]:
    """Slots of e_0..e_(n-1), e_n (squares to +1) and e_(n+1) (to -1)."""
    n = alg.require("cga")
    first = alg.pos_of_name("e0")  # grade-sorted: e_i sits at first + i
    return slice(first, first + n), first + n, first + n + 1


def n_origin(alg: Algebra) -> Multivector:
    _, plus, minus = alg.cached(_null_slots)
    out = np.zeros(alg.size)
    out[plus], out[minus] = -0.5, 0.5  # (e_(n+1) - e_n) / 2
    return Multivector(alg, out)


def _n_inf_coeffs(alg: Algebra) -> np.ndarray:
    """n_inf's coefficients; via ``alg.cached``."""
    _, plus, minus = alg.cached(_null_slots)
    out = np.zeros(alg.size)
    out[plus] = out[minus] = 1.0
    return out


def n_infinity(alg: Algebra) -> Multivector:
    return Multivector(alg, alg.cached(_n_inf_coeffs).copy())


def _coords(alg: Algebra, coords) -> np.ndarray:
    c = np.asarray(coords, dtype=float)
    if c.shape != (alg.n,):
        raise GeometryError(f"expected {alg.n} coordinates, got {c.shape}")
    return c


def euclidean_vector(alg: Algebra, coords) -> Multivector:
    vec, _, _ = alg.cached(_null_slots)
    out = np.zeros(alg.size)
    out[vec] = _coords(alg, coords)
    return Multivector(alg, out)


def up(alg: Algebra, *coords) -> Multivector:
    """Null point for a euclidean position, n_inf pairing normalized to -1."""
    if len(coords) == 1 and np.ndim(coords[0]) == 1:
        coords = coords[0]
    vec, plus, minus = alg.cached(_null_slots)
    x = _coords(alg, coords)
    sq = 0.0
    try:  # c ** 2 is pow, which c * c need not match on every libm
        for c in x.tolist():  # left to right: sum() compensates from 3.12 on
            sq += c ** 2
    except OverflowError:
        sq = math.inf
    h = 0.5 * sq
    if h >= 2.0 ** 52:  # -1/2 + h and 1/2 + h round (inf when |x|^2 overflows)
        raise GeometryError("point too far from the origin to embed:"
                            " |x|^2 / 2 reaches 2^52")
    zero = 0.0 * h  # n_inf's zero slots times h: NaN for a NaN coordinate
    out = np.zeros(alg.size) if zero == 0.0 else np.full(alg.size, zero)
    out[vec] = x + zero
    out[plus], out[minus] = -0.5 + h, 0.5 + h
    return Multivector(alg, out)


def infinity_pairing(p: Multivector) -> float:
    """p . n_inf, bitwise ``p.scalar_product(n_infinity(alg))``: the same
    pairing on the cached coefficients, so a NaN or inf in a slot n_inf
    zeroes still propagates."""
    alg = p.algebra
    return alg.scalar_product(p.coeffs, alg.cached(_n_inf_coeffs))


def is_null(p: Multivector, tol: float = NULL_TOL) -> bool:
    size = p.norm()  # squared as a product: ** raises OverflowError
    return abs(p.scalar_product(p)) <= tol * max(1.0, size * size)


def down(p: Multivector) -> np.ndarray:
    """Euclidean coordinates of a (possibly unnormalized) null point; a
    weight w = -p . n_inf within the rounding of the null slots it is read
    from marks a point at infinity, and overflowing coordinates are refused."""
    vec, plus, minus = p.algebra.cached(_null_slots)
    w = -infinity_pairing(p)
    if abs(w) <= ROUNDING * (abs(p.coeffs[plus]) + abs(p.coeffs[minus])):
        raise GeometryError("point at infinity has no euclidean coordinates")
    if abs(w) >= 1.0:  # no quotient can overflow
        return p.coeffs[vec] / w
    with np.errstate(over="ignore"):  # refused just below
        x = p.coeffs[vec] / w
    if np.isinf(x).any():  # only a small w overflows
        raise GeometryError("point too far from the origin: x overflows")
    return x


def cga_distance(p: Multivector, q: Multivector) -> float:
    """Euclidean distance via the inner product of normalized null points.

    That pairing, -d^2 / 2, adds products as large as h_p h_q that cancel,
    one term p_i q_i per slot (every blade squares to +-1); where twice its
    rounding bound, size ROUNDING sum |p_i q_i|, exceeds DISTANCE_TOL
    (1e-6) max(1, d^2), d is refused (GeometryError)."""
    p._peer(q)
    for name, x in (("p", p), ("q", q)):
        if not is_null(x, tol=PAIRING_TOL):
            raise GeometryError(f"{name} is not a null point")
        if abs(infinity_pairing(x) + 1.0) > PAIRING_TOL:
            raise GeometryError(f"{name} must be normalized against n_inf")
    d2 = max(0.0, -2.0 * p.scalar_product(q))
    size = np.abs(p.coeffs) @ np.abs(q.coeffs)
    if 2.0 * p.algebra.size * ROUNDING * size > DISTANCE_TOL * max(1.0, d2):
        raise GeometryError("points too far from the origin for the null-cone"
                            f" distance: rounding over {DISTANCE_TOL:g} d^2")
    return math.sqrt(d2)


def _rotor_pairs(alg: Algebra) -> tuple[Pairs, np.ndarray]:
    """``gp``'s pairs from e012 times a euclidean e_i, and e012's
    coefficients: the rotor's plane."""
    vec, _, _ = alg.cached(_null_slots)
    e012 = alg.blade("e012").coeffs
    return alg.pairs["gp"].restrict(np.flatnonzero(e012),
                                    np.arange(vec.start, vec.stop)), e012


def _translator_pairs(alg: Algebra) -> Pairs:
    """``gp``'s pairs from a euclidean e_i times e_n or e_(n+1): t n_inf."""
    vec, plus, minus = alg.cached(_null_slots)
    return alg.pairs["gp"].restrict(np.arange(vec.start, vec.stop),
                                    [plus, minus])


def rotor(alg: Algebra, axis, angle: float) -> Multivector:
    """Rotation versor about an axis through the origin, right-handed:
    cos(angle/2) - e012 u sin(angle/2), u = axis / norm_of(axis)."""
    u, angle = np.asarray(axis, dtype=float), float(angle)
    require_finite([angle, *u.ravel().tolist()],
                   "rotor needs a finite axis and angle")
    nu = norm_of(u)
    if nu == 0.0:
        raise GeometryError("axis direction must be nonzero")
    alg.require("cga", 3)
    pairs, e012 = alg.cached(_rotor_pairs)
    plane = alg.product(pairs, e012, euclidean_vector(alg, u / nu).coeffs)
    half = 0.5 * angle
    return Multivector(alg, alg.scalar(math.cos(half)).coeffs
                       - plane * math.sin(half))


def translator(alg: Algebra, offset) -> Multivector:
    """Translation versor 1 - (1/2) t n_inf."""
    pairs = alg.cached(_translator_pairs)
    t = euclidean_vector(alg, offset).coeffs
    require_finite(t.tolist(), "translator needs a finite offset")
    t_inf = alg.product(pairs, t, alg.cached(_n_inf_coeffs))
    return Multivector(alg, alg.scalar(1.0).coeffs - t_inf * 0.5)


def _wedge_pairs(alg: Algebra) -> Pairs:
    """``outer``'s pairs with a 1-vector on the right: every wedge
    flat_rep makes, a blade of points with one more point or n_inf."""
    every = np.arange(alg.size)
    return alg.pairs["outer"].restrict(every, every[alg.grade_slice[1]])


def _origin_coeffs(alg: Algebra) -> np.ndarray:
    """The plane-based origin's coefficients; via ``alg.cached``."""
    from . import euclid

    return euclid.origin(alg).coeffs


def _span(points: list[Multivector]) -> Multivector:
    """points[0] ^ points[1] ^ ... ^ n_inf, wedged left to right."""
    alg = points[0].algebra
    pairs = alg.cached(_wedge_pairs)
    blade = points[0].coeffs
    for v in points[1:]:
        blade = alg.product(pairs, blade, v.coeffs)
    return Multivector(alg, alg.product(pairs, blade,
                                        alg.cached(_n_inf_coeffs)))


def flat_rep(x: Multivector) -> Multivector:
    """Conformal blade of a degenerate-model flat: representative points
    sent through up() and wedged with n_inf.

    The output is determined by the flat only up to scale, so the flat is
    read ``euclid.in_band``; the sampling (foot of the origin perpendicular,
    unit steps along the flat) is deterministic so repeated calls agree
    exactly.
    """
    from . import euclid

    alg_in = x.algebra
    alg_in.require("pga", 3)
    x = euclid.in_band(x)
    out = cga(3)
    if euclid.is_ideal(x):
        raise GeometryError("ideal flats lie outside the embedding")
    kind = euclid.kind_in_band(x)
    if kind == "point":
        return _span([up(out, euclid.point_coords(x))])
    if kind == "line":
        origin = Multivector(alg_in, alg_in.cached(_origin_coeffs))
        foot = (x | origin) ^ x
        a = euclid.point_coords(foot)
        u = euclid.direction(x)
        u = u / norm_of(u)
        return _span([up(out, a), up(out, a + u)])
    if kind == "plane":
        pl = euclid.normalize(x)
        normal = np.array([pl["e1"], pl["e2"], pl["e3"]])
        base = -pl["e0"] * normal
        seed = np.array([1.0, 0.0, 0.0])
        if abs(normal[0]) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        t1 = seed - np.dot(seed, normal) * normal
        t1 /= norm_of(t1)
        t2 = np.cross(normal, t1)
        return _span([up(out, base), up(out, base + t1), up(out, base + t2)])
    raise GeometryError(f"no conformal representation for a {kind} input")

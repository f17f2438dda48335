"""Non-metric duality: complement map, regressive join, wedge meet, polarity.

The complement map ``j_map`` sends each basis blade to its complementary
blade using only reordering signs, never the metric, so it survives
degenerate signatures.  Complementing reverses the (grade, bitmask)
order, so the partner of position i is position ``size - 1 - i``.  Signs
are chosen per complementary pair (b, c): the member b that comes first
in that order gets ``outer(b, j_map(b)) = +I``, the sign
``outer_sign[b, c]``, and its partner reuses the same sign, which makes
the map a strict involution, ``j_map(j_map(x)) = x``.  With an
involutive map the shuffle identity
``j_map(meet(x, y)) = join(j_map(x), j_map(y))`` holds with no stray
signs at any grade.

``join`` is the regressive product ``j_map(outer(j_map(x), j_map(y)))``,
run as one ``algebra.Pairs`` list on the shared kernel
``Algebra.product``: each ``outer`` pair (i, j, k, sign) moves through
the complement to (P i, P j, P k, sign * c[P i] * c[P j] * c[k]), with
partner P and sign c, and keeps its place in the list.  Every sign is
±1, so each value is bitwise that of the composition; only a zero slot
may differ in sign, where the composition's last ``j_map`` turns a +0.0
sum into -0.0.  In a dual algebra the native wedge intersects flats, so
``meet`` is just ``outer`` there; ``join`` then spans.  ``polarity``,
x * I, is not invertible when the metric is degenerate.  It is one
kernel call over the ``gp`` pairs restricted to the pseudoscalar on the
right (``_polarity_pairs``): the terms it drops, (x_i * s) * 0.0, never
change a sum that starts at +0.0, so a finite x gives ``x.gp(I)``'s
bits.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, GAError, Multivector, Pairs


def _tables(alg: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """Complement partner and sign of every blade; read via ``alg.cached``."""
    partner = np.arange(alg.size - 1, -1, -1, dtype=np.int32)
    lower = np.minimum(partner, partner[::-1])
    return partner, alg.outer_sign[lower, partner[lower]]


def j_map(x: Multivector) -> Multivector:
    """Grade-reversing complement; metric-free and involutive."""
    partner, sign = x.algebra.cached(_tables)
    out = np.zeros(x.algebra.size)
    out[partner] = sign * x.coeffs
    return Multivector(x.algebra, out)


def _join_pairs(alg: Algebra) -> Pairs:
    """``outer``'s pairs moved through the complement; via ``alg.cached``."""
    partner, sign = alg.cached(_tables)
    p, o = partner.astype(np.intp), alg.pairs["outer"]
    i, j = p[o.i], p[o.j]
    return Pairs(i, j, p[o.k], o.sign * sign[i] * sign[j] * sign[o.k], o.bins)


def join(x: Multivector, y: Multivector) -> Multivector:
    """Regressive product: the span of two flats in a dual algebra, one
    kernel call over the complemented ``outer`` pairs.  Values equal
    ``j_map(j_map(x).outer(j_map(y)))``'s, except that a zero slot may
    be +0.0 where the composition gives -0.0."""
    x._peer(y)
    alg = x.algebra
    return Multivector(alg, alg.product(alg.cached(_join_pairs), x.coeffs,
                                        y.coeffs))


def meet(x: Multivector, y: Multivector) -> Multivector:
    """Intersection of flats; only meaningful where wedge means meet."""
    x._peer(y)
    if x.algebra.signature.orientation != "dual":
        raise GAError("meet is the native wedge of dual algebras only")
    return x.outer(y)


def _polarity_pairs(alg: Algebra) -> tuple[Pairs, np.ndarray]:
    """``gp``'s pairs with the pseudoscalar slot on the right, and its
    coefficients; via ``alg.cached``."""
    return (alg.pairs["gp"].restrict(np.arange(alg.size), [alg.size - 1]),
            alg.pseudoscalar().coeffs)


def polarity_of(alg: Algebra, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of x * I from x's, one kernel call."""
    pairs, unit = alg.cached(_polarity_pairs)
    return alg.product(pairs, coeffs, unit)


def polarity(x: Multivector) -> Multivector:
    """Metric polarity x -> x * I; collapses ideal content when r > 0."""
    return Multivector(x.algebra, polarity_of(x.algebra, x.coeffs))

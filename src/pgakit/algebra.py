"""Graded Clifford algebras over small real signatures.

A basis blade is a bitmask: bit ``i`` set means generator ``e_i`` is a
factor.  The product of two blades is the XOR of their masks; its sign is
the parity of the generator transpositions needed to sort the
concatenation, times the metric square of every shared generator.  Every
table is built at once from one integer (blade × generator) bit matrix:
the transpositions are an inversion count, a matrix product of the bits
with their exclusive prefix sums, so only multivector coefficients are
floating point.

Generators are laid out degenerate-first: a signature (p, q, r) squares
to ``[0]*r + [+1]*p + [-1]*q``, which puts the degenerate direction of a
euclidean (n, 0, 1) algebra on ``e0``.

Coefficients are stored densely, ordered by (grade, bitmask).  The text
form ``"2.0*e0 + 1.5*e12"`` is a sentence of the ``expr`` language, which
``Algebra.parse`` reads back exactly: coefficients print with ``repr``.

The geometric, outer and left-contraction products, and the regressive
join that ``duality`` derives from ``outer``, share one kernel,
``Algebra.product(pairs, a, b)``.  Each product is built once as a
``Pairs``: its nonzero-sign blade pairs, fields ``i``, ``j``, ``k`` and
``sign``, in i-major order, the order of a loop over the left operand's
blades, and ``bins``, the length of its output.  The kernel adds every
term ``(a[i] * sign) * b[j]`` onto bin k with ``np.bincount`` in that
order, so results are bitwise reproducible; ``Pairs.restrict`` keeps the
order.  A zero-sign pair has no term: its ±0.0 never changed a sum that
starts at +0.0, and a non-finite operand no longer turns it into
``inf * 0 = NaN``.  Only this module reads a pair list's layout; other
modules read its named fields.  The dense einsum kernel behind
``gp_dense`` is kept only as an independent check on the tables.

``Algebra.pairs`` holds four such lists: ``"gp"``, ``"outer"`` and
``"left_contract"`` into ``size`` bins, and ``"scalar"``, the ``gp``
pairs that land on the scalar (k = 0), into one bin: each blade with
itself where it does not square to zero, 32 pairs in cga(3), 8 in
pga(3).  ``Algebra.scalar_product(a, b)``, the metric pairing <a b>_0 on
coefficient arrays, runs the kernel over that list and is its one
reader: it adds exactly the terms ``gp`` adds to its scalar slot, in the
same order, so it is bitwise ``gp``'s scalar part at a fraction of the
work.  ``Multivector.scalar_product``, the euclidean norm, the unit test
of a versor and the conformal pairings all call it.  Every caller shares
these lists, the involution signs and the tables ``Algebra.cached``
keeps, so their arrays are read-only; each list's private bin copy is
the one writable array in it.  The integer tables they are built from
(``sign``, ``result``, ``outer_sign``) stay writable: only the build and
table builders read them.

An algebra names the euclidean model it is, once, from its signature:
``model`` and ``n`` are ``("pga", n)`` for a dual (n,0,1) signature,
``("cga", n)`` for a standard (n+1,1,0) one and ``(None, None)`` for any
other.  Functions that need one model call ``alg.require(model, n)``,
which returns n or raises ``GeometryError`` naming the algebra it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

MAX_GENERATORS = 6


class GAError(Exception):
    """Base class for everything this package raises on purpose."""


class SignatureError(GAError):
    pass


class AlgebraMismatch(GAError):
    pass


class GeometryError(GAError):
    """Domain failure: ideal input, degenerate construction, bad weights,
    or an algebra of the wrong model."""


_MODEL_NAMES = {"pga": "plane-based", "cga": "conformal"}


@dataclass(frozen=True)
class Signature:
    """Counts of generators squaring to +1, -1 and 0, plus orientation.

    ``orientation`` is bookkeeping only: "dual" marks an algebra whose
    1-vectors are hyperplanes, so the wedge of blades is an intersection
    rather than a span.  No arithmetic ever consults it; only
    ``Algebra.model`` reads it.
    """

    p: int
    q: int = 0
    r: int = 0
    orientation: str = "standard"

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 0:
            raise SignatureError("generator counts must be nonnegative")
        if self.dim > MAX_GENERATORS:
            raise SignatureError(
                f"{self.dim} generators exceeds the supported maximum of {MAX_GENERATORS}"
            )
        if self.orientation not in ("standard", "dual"):
            raise SignatureError(f"unknown orientation {self.orientation!r}")

    @property
    def dim(self) -> int:
        return self.p + self.q + self.r


class Algebra:
    """Multiplication tables and blade bookkeeping for one signature.

    Do not construct directly; ``build_algebra`` caches one instance per
    signature so multivectors can check identity with ``is``.
    """

    def __init__(self, signature: Signature):
        self.signature = signature
        d = signature.dim
        self.gens = d
        self.size = 1 << d
        self.metric = tuple([0] * signature.r + [1] * signature.p + [-1] * signature.q)
        shape = (signature.orientation, signature.q, signature.r)
        if shape == ("dual", 0, 1):
            self.model, self.n = "pga", signature.p
        elif shape == ("standard", 1, 0) and signature.p >= 1:
            self.model, self.n = "cga", signature.p - 1
        else:
            self.model, self.n = None, None

        masks = sorted(range(self.size), key=lambda m: (m.bit_count(), m))
        self.mask_of = tuple(masks)  # position -> bitmask
        self.pos_of = {m: i for i, m in enumerate(masks)}  # bitmask -> position
        self.grades = np.array([m.bit_count() for m in masks], dtype=np.int8)
        self.names = tuple(self._name(m) for m in masks)
        self._pos_of_name = {name: i for i, name in enumerate(self.names)}

        self._cache = {}  # see cached()
        self._build_tables()
        self._check_associative()

    # -- construction of the integer tables ------------------------------

    def _name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "e" + "".join(str(i) for i in range(self.gens) if mask >> i & 1)

    def _build_tables(self):
        masks = np.array(self.mask_of)
        bits = masks[:, None] >> np.arange(self.gens) & 1  # (size, gens)
        # sorting a ++ b jumps each generator of a over the lower ones of b
        swaps = bits @ (np.cumsum(bits, 1) - bits).T
        order = 1 - 2 * (swaps & 1)
        shared = bits[:, None, :] & bits[None, :, :]
        metric = np.where(shared, np.array(self.metric, dtype=int), 1).prod(axis=2)
        self.sign = (order * metric).astype(np.int8)
        self.result = np.argsort(masks)[masks[:, None] ^ masks].astype(np.int32)
        self.outer_sign = np.where(masks[:, None] & masks, 0, order).astype(np.int8)

        # each product's nonzero-sign blade pairs, i-major; "scalar" is the
        # gp pairs that land on the scalar slot, into one bin
        g = self.grades
        contract = np.where(g[self.result] == g[None, :] - g[:, None], self.sign, 0)
        self.pairs = {}
        for kind, sign, bins in (
                ("gp", self.sign, self.size), ("outer", self.outer_sign, self.size),
                ("left_contract", contract, self.size),
                ("scalar", np.where(self.result == 0, self.sign, 0), 1)):
            i, j = np.nonzero(sign)  # row-major: i-major
            self.pairs[kind] = Pairs(i, j, self.result[i, j].astype(np.intp),
                                     sign[i, j].astype(float), bins)

        k = self.grades.astype(np.int64)
        self.reverse_sign = np.where(k * (k - 1) // 2 % 2, -1, 1).astype(np.int8)
        self.involute_sign = np.where(k % 2, -1, 1).astype(np.int8)
        _freeze((self.reverse_sign, self.involute_sign))
        # positions are grade-sorted, so grade g fills bounds[g]:bounds[g + 1]
        bounds = np.searchsorted(g, np.arange(self.gens + 2)).tolist()
        self.grade_slice = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.grade_start = np.array(bounds[:-1])

    def _check_associative(self):
        """Compare (ij)k with i(jk) on every blade triple at once."""
        s, r = self.sign, self.result
        left_sign, left = s[:, :, None] * s[r], r[r]
        right_sign, right = s[None, :, :] * s[:, r], r[:, r]
        bad = np.argwhere((left_sign != right_sign) | (left != right))
        if bad.size:
            i, j, k = bad[0]  # argwhere scans in lexicographic order
            raise GAError(f"product table not associative at blades {i},{j},{k}")

    def require(self, model: str, n: int | None = None) -> int:
        """Euclidean dimension n of this algebra if it is ``model`` ("pga"
        or "cga") over n-space, any n when ``n`` is None; else GeometryError."""
        if self.model != model or n is not None and self.n != n:
            wanted = model if n is None else f"{model}({n})"
            raise GeometryError(
                f"needs a {_MODEL_NAMES[model]} {wanted} algebra, not {self!r}")
        return self.n

    def cached(self, build):
        """Per-algebra table ``build(self)``, kept under the builder from
        first use: modules derive their own tables from the algebra here.
        Every caller shares it, so each array in it, through tuples and
        lists, is made read-only."""
        if build not in self._cache:
            self._cache[build] = _freeze(build(self))
        return self._cache[build]

    def product(self, pairs: "Pairs", a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The one product kernel: each pair's term (a[i] * sign) * b[j],
        the order of a loop over blades, added onto bin k of ``pairs.bins``
        in pair order.

        Operands stacked as (rows, size) give (rows, bins): row r's terms
        land on bins k + bins * r of the same bincount, still in pair
        order, so each row is bitwise its own 1-D product."""
        if a.ndim == 1:
            terms = a[pairs.i]  # a fresh array, scaled in place
            terms *= pairs.sign
            terms *= b[pairs.j]
            return np.bincount(pairs._bins, terms, minlength=pairs.bins)
        rows, bins = len(a), pairs.bins
        terms = a[:, pairs.i]
        terms *= pairs.sign
        terms *= b[:, pairs.j]
        at = (pairs.k + bins * np.arange(rows)[:, None]).ravel()
        return np.bincount(at, terms.ravel(),
                           minlength=rows * bins).reshape(rows, bins)

    def scalar_product(self, a: np.ndarray, b: np.ndarray) -> float:
        """<a b>_0 of two coefficient arrays, bitwise the scalar slot of
        their ``gp``: the kernel over the ``"scalar"`` pairs."""
        return float(self.product(self.pairs["scalar"], a, b)[0])

    # -- multivector factories -------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector(self, np.zeros(self.size))

    def scalar(self, value: float) -> "Multivector":
        c = np.zeros(self.size)
        c[0] = value
        return Multivector(self, c)

    def blade(self, name: str, coeff: float = 1.0) -> "Multivector":
        """``coeff`` times blade ``name``, in any generator order: e21 = -e12."""
        c = np.zeros(self.size)
        try:
            pos, flip = self._pos_of_name[name], 1
        except (KeyError, TypeError):
            name, flip = self._canonical_name(name)
            pos = self.pos_of_name(name)
        c[pos] = coeff * flip
        return Multivector(self, c)

    def basis_vector(self, i: int) -> "Multivector":
        if not 0 <= i < self.gens:
            raise GAError(f"no generator e{i} in a {self.gens}-generator algebra")
        return self.blade(f"e{i}")

    def from_coeffs(self, coeffs) -> "Multivector":
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.size,):
            raise GAError(f"expected {self.size} coefficients, got {c.shape}")
        return Multivector(self, c.copy())

    def pseudoscalar(self) -> "Multivector":
        return self.blade(self.names[-1])

    def pos_of_name(self, name: str) -> int:
        try:
            return self._pos_of_name[name]
        except (KeyError, TypeError):
            raise GAError(f"no blade named {name!r} in this algebra") from None

    def basis_blades(self, grade: int | None = None) -> list[str]:
        if grade is None:
            return list(self.names)
        return [n for n, g in zip(self.names, self.grades) if g == grade]

    # -- text form --------------------------------------------------------

    def parse(self, text: str) -> "Multivector":
        """Value of ``text`` in the ``expr`` language, no names bound: the
        inverse of a finite ``str(mv)``, byte for byte but for zeros' sign."""
        from . import expr

        value = expr.evaluate(expr.parse(text), self, {})
        # + 0.0 clears a -0.0 slot: the text is a sum of terms onto +0.0
        return Multivector(self, value.coeffs + 0.0)

    def _canonical_name(self, name: str) -> tuple[str, int]:
        if not (isinstance(name, str) and name[:1] == "e"
                and name[1:].isascii() and name[1:].isdigit()):
            raise GAError(f"no blade named {name!r} in this algebra")
        digits = [int(ch) for ch in name[1:]]
        if any(i >= self.gens for i in digits):
            raise GAError(f"blade {name!r} uses generators outside this algebra")
        if len(set(digits)) != len(digits):
            raise GAError(f"blade {name!r} repeats a generator")
        # sorting flips the sign once per inverted pair
        swaps = sum(a > b for i, a in enumerate(digits) for b in digits[i + 1:])
        return "e" + "".join(map(str, sorted(digits))), -1 if swaps % 2 else 1

    def __repr__(self):
        s = self.signature
        tag = "dual " if s.orientation == "dual" else ""
        return f"Algebra({tag}{s.p},{s.q},{s.r})"


class Pairs:
    """One product as its nonzero-sign blade pairs: the term
    (a[i] * sign) * b[j] of each lands on bin k of ``bins``, in list order.

    ``i``, ``j``, ``k`` (intp) and ``sign`` (float) are fresh arrays the
    list takes over and makes read-only, since every caller shares them.
    ``np.bincount`` copies a read-only index array on every call, so each
    list keeps ``_bins``, a private writable copy of ``k`` that only
    ``Algebra.product`` reads."""

    __slots__ = ("i", "j", "k", "sign", "bins", "_bins")

    def __init__(self, i, j, k, sign, bins: int):
        self.i, self.j, self.k, self.sign = _freeze((i, j, k, sign))
        self.bins, self._bins = bins, k.copy()

    def restrict(self, left, right) -> "Pairs":
        """The pairs from ``left`` × ``right`` slots, still in list order."""
        keep = np.isin(self.i, left) & np.isin(self.j, right)
        return Pairs(*(x[keep] for x in (self.i, self.j, self.k, self.sign)), self.bins)


def _freeze(table):
    """``table``, each array in it, through tuples and lists, read-only."""
    if isinstance(table, np.ndarray):
        table.flags.writeable = False
    elif isinstance(table, (tuple, list)):
        for part in table:
            _freeze(part)
    return table


def _cayley(alg: Algebra) -> np.ndarray:
    c = np.zeros((alg.size, alg.size, alg.size))
    i = np.arange(alg.size)
    c[i[:, None], i[None, :], alg.result] = alg.sign
    return c


def require_finite(values, message: str) -> None:
    """Raise ``GeometryError(message)`` unless every float in ``values`` is
    finite.  Entry points run it on their input before any arithmetic, where
    an inf times a table's zero would warn and give NaN.  Callers pass an
    array as its ``tolist()``: ``math.isfinite`` over a list costs about
    half of ``np.isfinite(c).all()`` on these short arrays."""
    if not all(map(math.isfinite, values)):
        raise GeometryError(message)


def rescaled(c: np.ndarray) -> tuple[np.ndarray, int]:
    """(c 2^-e, e), e the exponent of the largest |c_i|, so that slot lands
    in [1/2, 1).  The shift is exact but for slots it takes below the
    smallest subnormal, so a homogeneous element, a flat read up to scale,
    is the same element after it: a reader of it that shifts first answers
    the same for x and 2^k x.  A NaN or inf in c has no scale: it raises
    ``GeometryError``."""
    top = float(np.abs(c).max())
    if not top < math.inf:  # NaN fails too
        raise GeometryError("a non-finite flat has no scale")
    e = math.frexp(top)[1]
    return np.ldexp(c, -e), e


def norm_of(c: np.ndarray) -> float:
    """2-norm of the float array c: ``np.linalg.norm``'s bits (its ``dot``,
    here ``vdot``, which does not warn) where the sum of squares is a normal
    float, else ``math.hypot``'s scaled sum, finite wherever the norm is."""
    sq = float(np.vdot(c, c))
    if 2.0 ** -1022 <= sq < math.inf:  # the smallest normal float
        return math.sqrt(sq)
    return math.hypot(*c.ravel().tolist())


@lru_cache(maxsize=None)
def build_algebra(signature: Signature) -> Algebra:
    return Algebra(signature)


@cache
def pga(n: int) -> Algebra:
    """Euclidean plane-based algebra: 1-vectors are hyperplanes."""
    if n not in (2, 3):
        raise SignatureError("euclidean dimension must be 2 or 3")
    return build_algebra(Signature(n, 0, 1, orientation="dual"))


@cache
def cga(n: int = 3) -> Algebra:
    """Conformal algebra over euclidean n-space, point-based."""
    return build_algebra(Signature(n + 1, 1, 0, orientation="standard"))


class Multivector:
    """A dense element of one :class:`Algebra`.

    Operators: ``*`` geometric product, ``^`` outer, ``|`` left
    contraction, ``&`` regressive join, ``~`` reverse.  ``+``/``-`` and
    scalar scaling behave linearly.  Instances are value-like: all
    operations return new objects.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    # -- linear structure --------------------------------------------------

    def _peer(self, other) -> "Multivector":
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("operands live in different algebras")
        return other

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = self.algebra.scalar(other)
        return Multivector(self.algebra, self.coeffs + self._peer(other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = self.algebra.scalar(other)
        return Multivector(self.algebra, self.coeffs - self._peer(other).coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.algebra, self.coeffs * float(other))
        return self.gp(self._peer(other))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.algebra, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, scalar):
        return Multivector(self.algebra, self.coeffs / float(scalar))

    # -- products ----------------------------------------------------------

    def _product(self, other: "Multivector", kind: str) -> "Multivector":
        other = self._peer(other)
        alg = self.algebra
        return Multivector(alg, alg.product(alg.pairs[kind], self.coeffs,
                                            other.coeffs))

    def gp(self, other: "Multivector") -> "Multivector":
        """Geometric product via the multiplication tables."""
        return self._product(other, "gp")

    def gp_dense(self, other: "Multivector") -> "Multivector":
        """Same product through the dense einsum kernel (check's oracle)."""
        other = self._peer(other)
        alg = self.algebra
        return Multivector(
            alg, np.einsum("i,ijk,j->k", self.coeffs, alg.cached(_cayley),
                           other.coeffs)
        )

    def outer(self, other: "Multivector") -> "Multivector":
        return self._product(other, "outer")

    def left_contract(self, other: "Multivector") -> "Multivector":
        """Lower-onto-higher inner product: grade k-j part of each blade pair."""
        return self._product(other, "left_contract")

    def commutator(self, other: "Multivector") -> "Multivector":
        other = self._peer(other)
        return (self.gp(other) - other.gp(self)) * 0.5

    def __xor__(self, other):
        return self.outer(other)

    def __or__(self, other):
        return self.left_contract(other)

    def __and__(self, other):
        from . import duality

        return duality.join(self, other)

    # -- involutions and grade parts ----------------------------------------

    def reverse(self) -> "Multivector":
        return Multivector(self.algebra, self.coeffs * self.algebra.reverse_sign)

    def __invert__(self):
        return self.reverse()

    def involute(self) -> "Multivector":
        return Multivector(self.algebra, self.coeffs * self.algebra.involute_sign)

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.algebra.gens:
            raise GAError(f"grade {k} out of range for this algebra")
        out = np.zeros(self.algebra.size)
        sl = self.algebra.grade_slice[k]
        out[sl] = self.coeffs[sl]
        return Multivector(self.algebra, out)

    def grades_present(self, tol: float = 0.0) -> tuple[int, ...]:
        # fmax skips a NaN slot, as a per-grade any(|c| > tol) would
        peak = np.fmax.reduceat(np.abs(self.coeffs), self.algebra.grade_start)
        return tuple(g for g, p in enumerate(peak.tolist()) if p > tol)

    # -- inspection ----------------------------------------------------------

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def scalar_product(self, other: "Multivector") -> float:
        """<self other>_0, bitwise ``self.gp(other).scalar_part()``."""
        return self.algebra.scalar_product(self.coeffs,
                                           self._peer(other).coeffs)

    def __getitem__(self, blade_name: str) -> float:
        return float(self.coeffs[self.algebra.pos_of_name(blade_name)])

    def norm(self) -> float:
        """Plain coefficient 2-norm, ``norm_of(coeffs)``; metric-blind, used
        for residual checks, and finite for every finite norm."""
        return norm_of(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs.any()  # a NaN slot is not zero

    def close_to(self, other: "Multivector", tol: float = 1e-12) -> bool:
        other = self._peer(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.algebra is other.algebra and np.array_equal(
            self.coeffs, other.coeffs
        )

    __hash__ = None

    def __str__(self):
        parts, names = [], self.algebra.names
        nonzero = np.flatnonzero(self.coeffs)  # NaN is nonzero, -0.0 is not
        for i, c in zip(nonzero.tolist(), self.coeffs[nonzero].tolist()):
            name = names[i]
            sep = " - " if c < 0 and parts else (" + " if parts else "")
            mag = repr(abs(c)) if parts else repr(c)
            parts.append(sep + (mag if name == "1" else f"{mag}*{name}"))
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.algebra!r} {self}>"

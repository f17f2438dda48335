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
form ``"1.5*e12 + 2.0*e0"`` round-trips exactly because coefficients are
printed with ``repr``.

The geometric, outer and left-contraction products share one kernel,
``Algebra.product``.  Each product is built once as its nonzero-sign
blade pairs (i, j, k, sign) in i-major order, the order of a loop over
the left operand's blades, and the kernel adds every term
``(a[i] * sign) * b[j]`` onto blade k with ``np.bincount`` in that order,
so results are bitwise reproducible; ``restrict`` keeps the order.  A
zero-sign pair has no term: its ±0.0 never changed a sum that starts at
+0.0, and a non-finite operand no longer turns it into ``inf * 0 = NaN``.
The dense einsum kernel behind ``gp_dense`` is kept only as an
independent check on the tables.

An algebra names the euclidean model it is, once, from its signature:
``model`` and ``n`` are ``("pga", n)`` for a dual (n,0,1) signature,
``("cga", n)`` for a standard (n+1,1,0) one and ``(None, None)`` for any
other.  Functions that need one model call ``alg.require(model, n)``,
which returns n or raises ``GeometryError`` naming the algebra it needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_GENERATORS = 6
ASSOC_CHECK_LIMIT = 5  # exhaustive triple check is cheap up to 2^5 blades


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

        self._cache = {}  # see cached()
        self._build_tables()
        if d <= ASSOC_CHECK_LIMIT:
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

        # each product's nonzero-sign blade pairs (i, j, k, sign), i-major
        g = self.grades
        contract = np.where(g[self.result] == g[None, :] - g[:, None], self.sign, 0)
        self.pairs = {}
        for kind, sign in (("gp", self.sign), ("outer", self.outer_sign),
                           ("left_contract", contract)):
            i, j = np.nonzero(sign)  # row-major: i-major
            self.pairs[kind] = (i, j, self.result[i, j].astype(np.intp),
                                sign[i, j].astype(float))

        k = self.grades.astype(np.int64)
        self.reverse_sign = np.where(k * (k - 1) // 2 % 2, -1, 1).astype(np.int8)
        self.involute_sign = np.where(k % 2, -1, 1).astype(np.int8)
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

    def cached(self, build, *args):
        """Per-algebra table ``build(self, *args)``, built on first use.

        Modules that derive their own tables from this algebra keep them
        here, keyed by the builder and its arguments.
        """
        key = (build, args)
        if key not in self._cache:
            self._cache[key] = build(self, *args)
        return self._cache[key]

    def product(self, pairs, a: np.ndarray, b: np.ndarray,
                bins: int | None = None) -> np.ndarray:
        """The one product kernel: each pair's term (a[i] * sign) * b[j],
        the order of a loop over blades, added onto bin k in pair order."""
        i, j, k, sign = pairs
        terms = a[i]  # a fresh array, scaled in place
        terms *= sign
        terms *= b[j]
        return np.bincount(k, terms, minlength=bins or self.size)

    @property
    def cayley(self) -> np.ndarray:
        """Dense (size, size, size) kernel for the einsum product path."""
        return self.cached(_cayley)

    # -- multivector factories -------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector(self, np.zeros(self.size))

    def scalar(self, value: float) -> "Multivector":
        c = np.zeros(self.size)
        c[0] = value
        return Multivector(self, c)

    def blade(self, name: str, coeff: float = 1.0) -> "Multivector":
        c = np.zeros(self.size)
        c[self.pos_of_name(name)] = coeff
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
            return self.names.index(name)
        except ValueError:
            raise GAError(f"no blade named {name!r} in this algebra") from None

    def basis_blades(self, grade: int | None = None) -> list[str]:
        if grade is None:
            return list(self.names)
        return [n for n, g in zip(self.names, self.grades) if g == grade]

    # -- text form --------------------------------------------------------

    _TERM = re.compile(
        r"(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?:\s*\*\s*(?P<blade>e\d+))?"
        r"|(?P<lone>e\d+))"
    )

    def parse(self, text: str) -> "Multivector":
        """Inverse of ``str(mv)``; also accepts '-' separators and bare blades."""
        c = np.zeros(self.size)
        pos, n = 0, len(text)
        seen = False
        while True:
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n:
                break
            sign = 1.0
            if text[pos] in "+-":
                # separator, optionally followed by the term's own sign
                for _ in range(2):
                    if pos < n and text[pos] in "+-":
                        if text[pos] == "-":
                            sign = -sign
                        pos += 1
                        while pos < n and text[pos].isspace():
                            pos += 1
            elif seen:
                raise GAError(f"expected '+' or '-' at column {pos} of {text!r}")
            m = self._TERM.match(text, pos)
            if not m:
                raise GAError(f"cannot parse term at column {pos} of {text!r}")
            if m.group("lone"):
                value, name = sign, m.group("lone")
            elif m.group("blade"):
                value, name = sign * float(m.group("num")), m.group("blade")
            else:
                value, name = sign * float(m.group("num")), None
            if name is None:
                c[0] += value
            else:
                canon, flip = self._canonical_name(name)
                c[self.pos_of_name(canon)] += value * flip
            pos = m.end()
            seen = True
        if not seen:
            raise GAError(f"empty multivector text {text!r}")
        return Multivector(self, c)

    def _canonical_name(self, name: str) -> tuple[str, int]:
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


def _cayley(alg: Algebra) -> np.ndarray:
    c = np.zeros((alg.size, alg.size, alg.size))
    i = np.arange(alg.size)
    c[i[:, None], i[None, :], alg.result] = alg.sign
    return c


def restrict(pairs, left, right) -> tuple[np.ndarray, ...]:
    """The ``pairs`` from ``left`` × ``right`` slots, still i-major."""
    keep = np.isin(pairs[0], left) & np.isin(pairs[1], right)
    return tuple(p[keep] for p in pairs)


@lru_cache(maxsize=None)
def build_algebra(signature: Signature) -> Algebra:
    return Algebra(signature)


def pga(n: int) -> Algebra:
    """Euclidean plane-based algebra: 1-vectors are hyperplanes."""
    if n not in (2, 3):
        raise SignatureError("euclidean dimension must be 2 or 3")
    return build_algebra(Signature(n, 0, 1, orientation="dual"))


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
        """Same product through the dense einsum kernel (bench path)."""
        other = self._peer(other)
        alg = self.algebra
        return Multivector(
            alg, np.einsum("i,ijk,j->k", self.coeffs, alg.cayley, other.coeffs)
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
        return tuple(np.flatnonzero(peak > tol).tolist())

    # -- inspection ----------------------------------------------------------

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def __getitem__(self, blade_name: str) -> float:
        return float(self.coeffs[self.algebra.pos_of_name(blade_name)])

    def norm(self) -> float:
        """Plain coefficient 2-norm; metric-blind, used for residual checks."""
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

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
        parts = []
        for c, name in zip(self.coeffs, self.algebra.names):
            if c == 0.0:
                continue
            c = float(c)
            sep = " - " if c < 0 and parts else (" + " if parts else "")
            mag = repr(abs(c)) if parts else repr(c)
            parts.append(sep + (mag if name == "1" else f"{mag}*{name}"))
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.algebra!r} {self}>"

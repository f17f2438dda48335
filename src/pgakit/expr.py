"""Tiny expression language over multivectors.

Lets constructions live in config files and on the command line instead
of in code, e.g. ``((Pi | P) ^ Pi) & P`` with Pi and P bound in an
environment.  Grammar, loosest binding first:

    expr     = sum
    sum      = join { ("+" | "-") join }     addition, subtraction
    join     = wedge  { "&" wedge }          regressive product
    wedge    = inner  { "^" inner }          outer (meet in dual algebras)
    inner    = product { "|" product }       left contraction
    product  = unary { "*" unary }           geometric product
    unary    = { "~" | "!" | "-" | "+" } postfix
                             reverse, complement map, negate, identity
    postfix  = primary { "#" }               polarity (right factor I)
    primary  = NUMBER | BLADE | IDENT
             | "(" expr ")"
             | "<" expr ">" INT              grade selection

BLADE is ``e`` plus digits (``e0``, ``e12``, ``e012``), its generators in
any order (``e21`` is ``-e12``); any other word is an identifier looked up
in the environment.  All binary operators are left-associative; ``-`` or
``+`` after an operand is binary, elsewhere a prefix.  There are sums
because the package reads them anyway: the printed form of a multivector
(``2.0*e0 - 1.5*e12``) is one, and ``Algebra.parse`` reads it with this
parser, so multivector text has one reader.  There is no assignment.
An expression may nest at most ``MAX_DEPTH`` operators deep, with at
most ``MAX_DEPTH`` groups and prefix operators open at once; past that
it is refused where the limit is crossed, whatever the caller's stack
depth.  ``parse``, ``evaluate`` and ``to_text`` are loops over explicit
stacks, not recursion, so a tree built by hand however deep is evaluated
and printed too.  ``evaluate`` and ``to_text`` share one post-order walk
(``_post_order``), the one place that knows which fields of a node are
its operands; each keeps its own stack of what its operands gave.

Each operator is one entry of ``BINARY`` (its binding power and its
function) or of ``UNARY`` (its function; ``#`` is the one postfix).
``parse``, ``evaluate`` and ``to_text`` all read it, and a node whose
operator has no entry is refused.  The function is looked up when it is
called: ``operator.*`` dispatches to the ``Multivector`` method, and the
lambdas read this module's ``join``, ``j_map`` and ``polarity``, so a
wrapper bound over either later sees every call.

``parse`` keeps the trees of the last ``PARSE_CACHE_SIZE`` distinct texts
in one LRU cache, shared by every reader: ``construct``, ``eval`` and
``Algebra.parse`` all call ``parse``, so a repeated text is tokenized and
built once and every later call returns that same tree.  Sharing is safe
because every node is a frozen dataclass holding only nodes, strings and
numbers; a ``ParseError`` is raised on every call and never stored; and
the cache holds trees, never values, so ``evaluate`` still runs on every
call, against that call's environment.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .algebra import Algebra, GAError, Multivector
from .duality import j_map, join, polarity


MAX_DEPTH = 100
PARSE_CACHE_SIZE = 64  # distinct texts whose trees ``parse`` keeps


class ParseError(GAError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class EvalError(GAError):
    pass


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Blade(Node):
    name: str


@dataclass(frozen=True)
class Name(Node):
    ident: str


@dataclass(frozen=True)
class Unary(Node):
    op: str  # "~" and "!" print as prefixes, "#" as a postfix
    operand: Node


@dataclass(frozen=True)
class GradeSel(Node):
    operand: Node
    k: int


@dataclass(frozen=True)
class Binary(Node):
    op: str
    left: Node
    right: Node


# each function is looked up when it runs, never bound at import (see above)
# symbol: (binding power, function); every binary operator is left-associative
BINARY = {"+": (5, operator.add), "-": (5, operator.sub),
          "&": (10, lambda a, b: join(a, b)), "^": (20, operator.xor),
          "|": (30, operator.or_), "*": (40, operator.mul)}
# symbol: function; "#" is a postfix, the rest are prefixes
UNARY = {"~": operator.invert, "!": lambda x: j_map(x), "-": operator.neg,
         "+": lambda x: x, "#": lambda x: polarity(x)}


# -- tokenizer ---------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z_]\w*")
_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<word>{_WORD.pattern})"
    r"|(?P<op>[-+&^|*~!#()<>])"
)
_BLADE = re.compile(r"e\d+\Z")


def is_name(text: str) -> bool:
    """Whether ``text`` parses as exactly one identifier: a word, as the
    tokenizer reads one, that is not a blade."""
    return _WORD.fullmatch(text) is not None and _BLADE.match(text) is None


class _Token(NamedTuple):
    kind: str  # number | blade | ident | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, start, pos = 1, 0, 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             line, pos - start + 1)
        kind, text = m.lastgroup, m.group()
        if kind == "word":
            kind = "blade" if _BLADE.match(text) else "ident"
        if kind != "ws":
            out.append(_Token(kind, text, line, pos - start + 1))
        elif "\n" in text:
            line += text.count("\n")
            start = pos + text.rindex("\n") + 1
        pos = m.end()
    out.append(_Token("end", "", line, len(src) - start + 1))
    return out


# -- parser ------------------------------------------------------------------

_PREFIX = 50  # how tightly a prefix operator binds: tighter than any binary
_BRACKET = -1  # how tightly an open bracket binds: looser than anything
_CLOSER = {"(": ")", "<": ">"}


def _fail(t: _Token, message: str) -> ParseError:
    return ParseError(message, t.line, t.col)


def _nests(t: _Token, levels: int) -> int:
    if levels > MAX_DEPTH:
        raise _fail(t, "expression nests too deeply")
    return levels


def _leaf(t: _Token) -> Node:
    if t.kind == "number":
        value = float(t.text)
        if not math.isfinite(value):
            raise _fail(t, f"number {t.text!r} is out of range")
        return Num(value, line=t.line, col=t.col)
    if t.kind == "blade":
        return Blade(t.text, line=t.line, col=t.col)
    if t.kind == "ident":
        return Name(t.text, line=t.line, col=t.col)
    raise _fail(t, "expected a value" if t.kind == "end"
                else f"unexpected {t.text!r}")


def _reduce(t: _Token, values: list[tuple[Node, int]], unary: bool) -> None:
    """Apply the operator ``t`` to the operands on top of ``values``, as a
    node one operator deeper than they are."""
    node, depth = values.pop()
    if not unary:
        left, left_depth = values.pop()
        node = Binary(t.text, left, node, line=t.line, col=t.col)
        depth = max(left_depth, depth)
    elif t.text == "-" and isinstance(node, Num):
        # fold so printing a negative literal reparses to itself
        values.append((Num(-node.value, line=t.line, col=t.col), 0))
        return
    else:
        node = Unary(t.text, node, line=t.line, col=t.col)
    values.append((node, _nests(t, depth + 1)))


def parse(src: str) -> Node:
    """Precedence climbing (shunting-yard) over explicit stacks."""
    # only a str is a key; any other argument is parsed as before, so it
    # fails as before, never as unhashable
    return _parsed(src) if type(src) is str else _parse(src)


def _parse(src: str) -> Node:
    tokens = iter(_tokenize(src))
    values: list[tuple[Node, int]] = []  # (node, operators on longest path)
    # open brackets, prefix and binary operators, each with how tightly it binds
    stack: list[tuple[int, _Token]] = []
    opened = 0  # groups and prefix operators open at this token
    # only op tokens spell operators, so their text alone tells them apart
    for t in tokens:  # where an operand is due
        if t.text in _CLOSER or t.text in UNARY and t.text != "#":
            opened = _nests(t, opened + 1)
            stack.append((_BRACKET if t.text in _CLOSER else _PREFIX, t))
            continue
        values.append((_leaf(t), 0))
        for t in tokens:  # after an operand
            if t.text == "#":
                _reduce(t, values, True)
                continue
            bp = BINARY[t.text][0] if t.text in BINARY else 0
            while stack and stack[-1][0] >= bp:
                bind, op = stack.pop()
                opened -= bind == _PREFIX
                _reduce(op, values, bind == _PREFIX)
            if bp:  # a binary operator waits for its right operand
                stack.append((bp, t))
                break
            if not stack:  # t closes the whole expression
                if t.kind != "end":
                    raise _fail(t, f"unexpected {t.text!r}")
                return values[0][0]
            opener = stack.pop()[1]
            opened -= 1
            closer = _CLOSER[opener.text]
            if t.text != closer:
                raise _fail(t, f"expected {closer!r}")
            if closer == ">":
                k = next(tokens)
                if k.kind != "number" or not k.text.isdigit():
                    raise _fail(k, "grade index must be a plain integer")
                try:
                    grade = int(k.text)
                except ValueError:  # more digits than int() reads
                    raise _fail(k, "grade index has too many digits") from None
                node, depth = values.pop()
                values.append((GradeSel(node, grade, line=opener.line,
                                        col=opener.col),
                               _nests(opener, depth + 1)))


# the one cache of trees, keyed by text; a ParseError is never stored
_parsed = lru_cache(maxsize=PARSE_CACHE_SIZE)(_parse)


# -- the walk -----------------------------------------------------------------


def _post_order(node: Node) -> Iterator[Node]:
    """The nodes of the tree under ``node``, each after its operands, left
    operand first: the one place that knows which fields are operands."""
    order, todo = [], [node]
    while todo:  # pre-order, right operand first
        n = todo.pop()
        order.append(n)
        if isinstance(n, Binary):
            todo += n.left, n.right
        elif isinstance(n, (Unary, GradeSel)):
            todo.append(n.operand)
    return reversed(order)


# -- evaluation ---------------------------------------------------------------


def evaluate(node: Node, alg: Algebra, env: dict[str, Multivector]) -> Multivector:
    """Value of ``node``; fails at the first subexpression that is not finite."""
    values: list[Multivector] = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for n in _post_order(node):
            value = _value(n, values, alg, env)  # a Num checks itself, a Blade is +-1
            if not (isinstance(n, (Num, Blade))
                    or all(map(math.isfinite, value.coeffs.tolist()))):
                raise _error(n, "value is not finite")
            values.append(value)
    return values[0]


def _error(node: Node, message: str) -> EvalError:
    return EvalError(f"line {node.line}, column {node.col}: {message}")


def _entry(table: dict, node: Unary | Binary):
    """``node``'s operator's entry in ``table``; one it lacks is refused."""
    entry = table.get(node.op)
    if entry is None:
        raise _error(node, f"unknown operator {node.op!r}")
    return entry


def _value(node: Node, values: list[Multivector], alg: Algebra,
           env: dict[str, Multivector]) -> Multivector:
    """Value of ``node`` from its operands' values, popped off ``values``."""
    if isinstance(node, Num):  # finite from parse, but not if built by hand
        if not math.isfinite(node.value):
            raise _error(node, "value is not finite")
        return alg.scalar(node.value)
    if isinstance(node, Blade):
        try:
            return alg.blade(node.name)
        except GAError:
            raise _error(node, f"no blade {node.name!r} in this algebra") from None
    if isinstance(node, Name):
        bound = env.get(node.ident)
        if bound is None:
            raise _error(node, f"unbound name {node.ident!r}")
        if bound.algebra is not alg:
            raise _error(node, f"{node.ident!r} is bound in a different algebra")
        return bound
    if isinstance(node, Unary):
        return _entry(UNARY, node)(values.pop())
    if isinstance(node, GradeSel):
        try:
            return values.pop().grade(node.k)
        except GAError as e:
            raise _error(node, str(e)) from None
    if isinstance(node, Binary):
        b = values.pop()
        a = values.pop()
        if node.op == "*":
            # a number c scales: c b_k is each slot's one nonzero gp term,
            # and + 0.0 the sum's start, so for the finite operands
            # evaluate admits this is bitwise a.gp(b), at no pair list
            if isinstance(node.left, Num):
                return Multivector(alg, b.coeffs * node.left.value + 0.0)
            if isinstance(node.right, Num):
                return Multivector(alg, a.coeffs * node.right.value + 0.0)
        return _entry(BINARY, node)[1](a, b)
    raise EvalError(f"cannot evaluate {type(node).__name__}")


# -- printing -----------------------------------------------------------------


def to_text(node: Node) -> str:
    """Canonical text form; parse(to_text(n)) == n up to positions."""
    printed: list[tuple[str, float]] = []  # (text, how tightly it holds)
    for n in _post_order(node):
        printed.append(_text(n, printed))
    return printed[0][0]


def _text(node: Node, printed: list[tuple[str, float]]) -> tuple[str, float]:
    """``node``'s text and how tightly it holds together, from its operands'
    popped off ``printed``: a binary operator by its binding power, a prefix
    or a number printed with a minus sign as ``_PREFIX``, the rest tighter
    than any operator.  An operand that holds looser than its operator is
    parenthesized, as is a binary operator's right operand that holds as
    tightly (every binary operator is left-associative)."""
    if isinstance(node, Num):
        text = repr(node.value)  # a printed minus sign holds as a prefix
        return text, _PREFIX if text.startswith("-") else math.inf
    if isinstance(node, Blade):
        return node.name, math.inf
    if isinstance(node, Name):
        return node.ident, math.inf
    if isinstance(node, GradeSel):
        return f"<{printed.pop()[0]}>{node.k}", math.inf
    if isinstance(node, Unary):
        _entry(UNARY, node)  # an operator with no entry is refused
        inner, bp = printed.pop()
        holds = math.inf if node.op == "#" else _PREFIX
        if bp < holds:
            inner = f"({inner})"
        return inner + "#" if node.op == "#" else node.op + inner, holds
    if isinstance(node, Binary):
        bp = _entry(BINARY, node)[0]
        (rhs, right), (lhs, left) = printed.pop(), printed.pop()
        if left < bp:
            lhs = f"({lhs})"
        if right <= bp:
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}", bp
    raise EvalError(f"cannot print {type(node).__name__}")

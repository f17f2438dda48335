"""Tiny expression language over multivectors.

Lets constructions live in config files and on the command line instead
of in code, e.g. ``((Pi | P) ^ Pi) & P`` with Pi and P bound in an
environment.  Grammar, loosest binding first:

    expr     = join
    join     = wedge  { "&" wedge }          regressive product
    wedge    = inner  { "^" inner }          outer (meet in dual algebras)
    inner    = product { "|" product }       left contraction
    product  = unary { "*" unary }           geometric product
    unary    = { "~" | "!" | "-" } postfix   reverse, complement map, negate
    postfix  = primary { "#" }               polarity (right factor I)
    primary  = NUMBER | BLADE | IDENT
             | "(" expr ")"
             | "<" expr ">" INT              grade selection

BLADE is ``e`` plus digits (``e0``, ``e12``, ``e012``); any other word
is an identifier looked up in the environment.  All binary operators are
left-associative.  There is deliberately no addition and no assignment:
anything that needs a sum is built in code and bound to a name.  An
expression may nest at most ``MAX_DEPTH`` operators deep, with at most
``MAX_DEPTH`` groups and prefix operators open at once; past that it is
refused where the limit is crossed, whatever the caller's stack depth.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, GAError, Multivector
from .duality import j_map, join, polarity


MAX_DEPTH = 100


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
    # operators on the longest path down from here, as the parser counts
    depth: int = field(default=0, compare=False, repr=False, kw_only=True)


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


BINDING = {"&": 10, "^": 20, "|": 30, "*": 40}


# -- tokenizer ---------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z_]\w*")
_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<word>{_WORD.pattern})"
    r"|(?P<op>[-&^|*~!#()<>])"
)
_BLADE = re.compile(r"e\d+\Z")


def is_name(text: str) -> bool:
    """Whether ``text`` parses as exactly one identifier: a word, as the
    tokenizer reads one, that is not a blade."""
    return _WORD.fullmatch(text) is not None and _BLADE.match(text) is None


@dataclass(frozen=True)
class _Token:
    kind: str  # number | blade | ident | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, start = 1, 0
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             line, pos - start + 1)
        kind = m.lastgroup
        text = m.group()
        col = pos - start + 1
        if kind == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                start = pos + text.rindex("\n") + 1
        elif kind == "word":
            sub = "blade" if _BLADE.match(text) else "ident"
            out.append(_Token(sub, text, line, col))
        else:
            out.append(_Token(kind, text, line, col))
        pos = m.end()
    out.append(_Token("end", "", line, len(src) - start + 1))
    return out


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # groups and prefix operators open at this token

    @property
    def here(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.here
        self.i += 1
        return t

    def fail(self, message: str):
        t = self.here
        raise ParseError(message, t.line, t.col)

    def nests(self, t: _Token, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError("expression nests too deeply", t.line, t.col)
        return depth

    def node(self, t: _Token, cls, *fields) -> Node:
        """``cls(*fields)`` at t, one operator deeper than its operands."""
        depth = 1 + max(f.depth for f in fields if isinstance(f, Node))
        return cls(*fields, line=t.line, col=t.col, depth=self.nests(t, depth))

    def expect(self, text: str):
        if self.here.kind != "op" or self.here.text != text:
            self.fail(f"expected {text!r}")
        return self.advance()

    def parse(self) -> Node:
        try:
            node = self.binary(0)
        except RecursionError:
            self.fail("expression nests too deeply")
        if self.here.kind != "end":
            self.fail(f"unexpected {self.here.text!r}")
        return node

    def binary(self, min_bp: int) -> Node:
        left = self.unary()
        while (self.here.kind == "op" and self.here.text in BINDING
               and BINDING[self.here.text] >= min_bp):
            t = self.advance()
            # climb with bp+1 so equal precedence associates left
            right = self.binary(BINDING[t.text] + 1)
            left = self.node(t, Binary, t.text, left, right)
        return left

    def unary(self) -> Node:
        if self.here.kind == "op" and self.here.text in ("~", "!", "-"):
            t = self.advance()
            self.open = self.nests(t, self.open + 1)
            operand = self.unary()
            self.open -= 1
            if t.text == "-" and isinstance(operand, Num):
                # fold so printing a negative literal reparses to itself
                return Num(-operand.value, line=t.line, col=t.col)
            return self.node(t, Unary, t.text, operand)
        return self.postfix()

    def postfix(self) -> Node:
        node = self.primary()
        while self.here.kind == "op" and self.here.text == "#":
            node = self.node(self.advance(), Unary, "#", node)
        return node

    def primary(self) -> Node:
        t = self.here
        if t.kind == "number":
            value = float(t.text)
            if not math.isfinite(value):
                self.fail(f"number {t.text!r} is out of range")
            self.advance()
            return Num(value, line=t.line, col=t.col)
        if t.kind == "blade":
            self.advance()
            return Blade(t.text, line=t.line, col=t.col)
        if t.kind == "ident":
            self.advance()
            return Name(t.text, line=t.line, col=t.col)
        if t.kind == "op" and t.text in ("(", "<"):
            self.advance()
            self.open = self.nests(t, self.open + 1)
            node = self.binary(0)
            self.open -= 1
            if t.text == "(":
                self.expect(")")
                return node
            self.expect(">")
            k = self.here
            if k.kind != "number" or not k.text.isdigit():
                self.fail("grade index must be a plain integer")
            self.advance()
            return self.node(t, GradeSel, node, int(k.text))
        self.fail("expected a value" if t.kind == "end"
                  else f"unexpected {t.text!r}")


def parse(src: str) -> Node:
    return _Parser(_tokenize(src)).parse()


# -- evaluation ---------------------------------------------------------------


def evaluate(node: Node, alg: Algebra, env: dict[str, Multivector]) -> Multivector:
    """Value of ``node``; fails at the first subexpression that is not finite."""
    try:
        value = _value(node, alg, env)
    except RecursionError:
        raise _error(node, "expression nests too deeply") from None
    if not np.isfinite(value.coeffs).all():
        raise _error(node, "value is not finite")
    return value


def _error(node: Node, message: str) -> EvalError:
    return EvalError(f"line {node.line}, column {node.col}: {message}")


def _value(node: Node, alg: Algebra, env: dict[str, Multivector]) -> Multivector:
    if isinstance(node, Num):
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
        x = evaluate(node.operand, alg, env)
        if node.op == "~":
            return x.reverse()
        if node.op == "!":
            return j_map(x)
        if node.op == "-":
            return -x
        return polarity(x)
    if isinstance(node, GradeSel):
        x = evaluate(node.operand, alg, env)
        try:
            return x.grade(node.k)
        except GAError as e:
            raise _error(node, str(e)) from None
    if isinstance(node, Binary):
        a = evaluate(node.left, alg, env)
        b = evaluate(node.right, alg, env)
        if node.op == "*":
            return a.gp(b)
        if node.op == "^":
            return a.outer(b)
        if node.op == "|":
            return a.left_contract(b)
        return join(a, b)
    raise EvalError(f"cannot evaluate {type(node).__name__}")


# -- printing -----------------------------------------------------------------


def _bp(node: Node) -> int:
    if isinstance(node, Binary):
        return BINDING[node.op]
    return 100


def to_text(node: Node) -> str:
    """Canonical text form; parse(to_text(n)) == n up to positions."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Blade):
        return node.name
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Unary):
        inner = to_text(node.operand)
        needs_parens = isinstance(node.operand, Binary) or (
            node.op == "#" and (
                isinstance(node.operand, Unary) and node.operand.op != "#"
                # a printed minus sign would capture the postfix
                or isinstance(node.operand, Num) and inner.startswith("-")))
        if needs_parens:
            inner = f"({inner})"
        return inner + "#" if node.op == "#" else node.op + inner
    if isinstance(node, GradeSel):
        return f"<{to_text(node.operand)}>{node.k}"
    if isinstance(node, Binary):
        lhs, rhs = to_text(node.left), to_text(node.right)
        if _bp(node.left) < _bp(node):
            lhs = f"({lhs})"
        if _bp(node.right) <= _bp(node):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}"
    raise EvalError(f"cannot print {type(node).__name__}")

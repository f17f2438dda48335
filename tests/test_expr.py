import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mv
from pgakit import duality, euclid, expr
from pgakit.algebra import Multivector
from pgakit.expr import (
    PARSE_CACHE_SIZE,
    Binary,
    Blade,
    EvalError,
    GradeSel,
    Name,
    Node,
    Num,
    ParseError,
    Unary,
    evaluate,
    is_name,
    parse,
    to_text,
)


class TestParsing:
    def test_wedge_binds_tighter_than_join(self):
        assert parse("a ^ b & c") == Binary(
            "&", Binary("^", Name("a"), Name("b")), Name("c"))

    def test_contraction_tighter_than_wedge(self):
        assert parse("Pi | P ^ Pi") == Binary(
            "^", Binary("|", Name("Pi"), Name("P")), Name("Pi"))

    def test_worked_construction_shape(self):
        inner = Binary("^", Binary("|", Name("Pi"), Name("P")), Name("Pi"))
        assert parse("((Pi | P) ^ Pi) & P") == Binary("&", inner, Name("P"))

    def test_nested_reverses(self):
        g = Name("g")
        assert parse("~g * x * ~~g") == Binary(
            "*", Binary("*", Unary("~", g), Name("x")),
            Unary("~", Unary("~", g)))

    def test_left_associativity(self):
        assert parse("a | b | c") == Binary(
            "|", Binary("|", Name("a"), Name("b")), Name("c"))

    def test_sum_binds_loosest(self):
        assert parse("a + b & c") == Binary(
            "+", Name("a"), Binary("&", Name("b"), Name("c")))
        assert parse("-a * b - c") == Binary(
            "-", Binary("*", Unary("-", Name("a")), Name("b")), Name("c"))

    def test_sum_is_left_associative(self):
        assert parse("a - b - c") == Binary(
            "-", Binary("-", Name("a"), Name("b")), Name("c"))
        assert parse("a - b + c") == Binary(
            "+", Binary("-", Name("a"), Name("b")), Name("c"))

    def test_minus_and_plus_after_an_operand_are_binary(self):
        assert parse("a - -b") == Binary("-", Name("a"), Unary("-", Name("b")))
        assert parse("a - +b") == Binary("-", Name("a"), Unary("+", Name("b")))
        assert parse("+-2.5") == Unary("+", Num(-2.5))
        assert parse("1.0 - 2.0*e1") == Binary(
            "-", Num(1.0), Binary("*", Num(2.0), Blade("e1")))

    @pytest.mark.parametrize("src", ["a - (b + c)", "a - -b", "a + -b",
                                     "-(a - b)", "(a + b) * c", "<a - b>1"])
    def test_sums_print_back_to_themselves(self, src):
        assert to_text(parse(src)) == src
        assert parse(to_text(parse(src))) == parse(src)

    def test_parens_override(self):
        assert parse("a * (b & c)") == Binary(
            "*", Name("a"), Binary("&", Name("b"), Name("c")))

    def test_polarity_is_postfix(self):
        assert parse("P #") == Unary("#", Name("P"))
        assert parse("~P#") == Unary("~", Unary("#", Name("P")))

    def test_grade_selection(self):
        assert parse("<g * x>2") == GradeSel(
            Binary("*", Name("g"), Name("x")), 2)

    def test_negative_literal_folds(self):
        assert parse("-2.5") == Num(-2.5)
        assert parse("- -2.5") == Num(2.5)

    def test_blades_versus_identifiers(self):
        assert parse("e12") == Blade("e12")
        assert parse("e12x") == Name("e12x")
        assert parse("energy") == Name("energy")

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse("a ^\n  b @ c")
        assert err.value.line == 2 and err.value.col == 5
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse("(a ^ b")
        with pytest.raises(ParseError, match="integer"):
            parse("<a>1.5")
        with pytest.raises(ParseError):
            parse("")

    def test_non_finite_literal_refused(self):
        with pytest.raises(ParseError, match="out of range") as err:
            parse("e0 *\n 1e400")
        assert err.value.line == 2 and err.value.col == 2


def _nodes(node):
    """Every node of a tree, pre-order."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        out.append(n)
        todo += [v for v in vars(n).values() if isinstance(v, Node)]
    return out


class TestParseCache:
    """``parse`` keeps one bounded cache of trees, keyed by text."""

    TEXT = "((Pi | P) ^ Pi) & P + <~g * x#>2 - !2.5*e12"

    def test_a_repeated_text_is_the_same_tree(self):
        expr._parsed.cache_clear()
        first = parse(self.TEXT)
        assert parse(self.TEXT) is first
        assert parse("".join(list(self.TEXT))) is first  # an equal str hits
        fresh = expr._parse(self.TEXT)
        assert first == fresh and first is not fresh
        # positions too, which == leaves out
        assert ([(n.line, n.col) for n in _nodes(first)]
                == [(n.line, n.col) for n in _nodes(fresh)])
        assert expr._parsed.cache_info()[:2] == (2, 1)  # hits, misses

    @pytest.mark.parametrize("src", ["a ^\n  b @ c", "(a ^ b", "<a>1.5",
                                     "e0 *\n 1e400", ""],
                             ids=["character", "bracket", "grade", "number",
                                  "empty"])
    def test_a_bad_text_raises_on_every_call(self, src):
        expr._parsed.cache_clear()
        raised = []
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse(src)
            raised.append((str(err.value), err.value.line, err.value.col))
        assert raised == raised[:1] * 3
        assert expr._parsed.cache_info().currsize == 0

    def test_the_cache_keeps_at_most_its_bound(self):
        expr._parsed.cache_clear()
        texts = [f"{i}.0*e1" for i in range(3 * PARSE_CACHE_SIZE)]
        oldest = parse(texts[0])
        for text in texts:
            parse(text)
        info = expr._parsed.cache_info()
        assert info.maxsize == info.currsize == PARSE_CACHE_SIZE
        # the least recently used text went first, and is built again
        again = parse(texts[0])
        assert again == oldest and again is not oldest

    def test_nodes_are_immutable(self):
        nodes = _nodes(parse(self.TEXT))
        assert {type(n) for n in nodes} == {Num, Blade, Name, Unary,
                                            GradeSel, Binary}
        for node in nodes:
            for f in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, f.name, None)

    # the exception types parse raised before it had a cache: an argument
    # with no len, or that the tokenizer cannot match, is a TypeError; an
    # empty one reads as an empty text
    @pytest.mark.parametrize("arg, error", [
        (None, TypeError), (3, TypeError), (2.5, TypeError),
        (b"e1", TypeError), (["e1"], TypeError), (("e1",), TypeError),
        (b"", ParseError), ([], ParseError), (bytearray(), ParseError),
        ((), ParseError), ({}, ParseError),
    ], ids=["None", "int", "float", "bytes", "list", "tuple", "empty-bytes",
            "empty-list", "empty-bytearray", "empty-tuple", "empty-dict"])
    def test_a_non_str_argument_fails_as_before(self, arg, error):
        expr._parsed.cache_clear()
        with pytest.raises(error):
            parse(arg)
        assert expr._parsed.cache_info()[:2] == (0, 0)  # not looked up

    def test_algebra_parse_shares_the_cache(self, pga3):
        text = "1.5 + 2.0*e01 - 0.25*e123"
        expr._parsed.cache_clear()
        x = pga3.parse(text)
        assert parse(text) is parse(text)
        assert expr._parsed.cache_info()[:2] == (2, 1)
        assert pga3.parse(text).coeffs.tobytes() == x.coeffs.tobytes()

    def test_a_shared_tree_is_evaluated_on_every_call(self, pga3):
        p, q = euclid.point(pga3, 1.0, 2.0, 3.0), euclid.point(pga3, -1.0, 0.0, 2.0)
        for x in (p, q, p):
            got = evaluate(parse("2.0 * P"), pga3, {"P": x})
            assert got.coeffs.tobytes() == (x.coeffs * 2.0).tobytes()


def _parses_to_itself(text):
    """The rule ``is_name`` stands for: text parses to the name it spells."""
    try:
        return parse(text) == Name(text)
    except ParseError:
        return False


class TestNames:
    @settings(max_examples=500, deadline=None)
    @given(st.text() | st.from_regex(r"\s?[A-Za-z_]?\w*\s?", fullmatch=True))
    def test_agrees_with_the_parser(self, text):
        assert is_name(text) == _parses_to_itself(text)

    @pytest.mark.parametrize("text, usable", [
        ("", False), (" P", False), ("P\n", False), ("e0", False),
        ("e12x", True), ("_", True), ("1a", False), ("P\u00e9", True),
        ("\u00e9", False), ("e\u0661", False),
        ("(" * 200 + "P" + ")" * 200, False),
    ])
    def test_cases(self, text, usable):
        assert is_name(text) is usable
        assert _parses_to_itself(text) is usable


names = st.sampled_from(["a", "b", "g", "P", "Pi", "x_1"]).map(Name)
blades = st.sampled_from(["e0", "e1", "e12", "e012"]).map(Blade)
numbers = st.floats(-1e6, 1e6, allow_nan=False).map(Num)


def _extend(children):
    unary = st.tuples(st.sampled_from(sorted(expr.UNARY)), children).filter(
        # a folded literal: "-2.0" reparses as a number, not an op
        lambda t: not (t[0] == "-" and isinstance(t[1], Num))
    ).map(lambda t: Unary(*t))
    select = st.tuples(children, st.integers(0, 4)).map(
        lambda t: GradeSel(*t))
    binary = st.tuples(st.sampled_from(sorted(expr.BINARY)), children,
                       children).map(
        lambda t: Binary(*t))
    return st.one_of(unary, select, binary)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.recursive(names | blades | numbers, _extend, max_leaves=12))
    def test_print_then_parse_is_identity(self, ast):
        assert parse(to_text(ast)) == ast

    def test_minimal_parens(self):
        assert to_text(parse("((Pi | P) ^ Pi) & P")) == "Pi | P ^ Pi & P"
        assert to_text(parse("a * (b & c)")) == "a * (b & c)"


# the grammar's tokens, joined with no separator, so neighbours may merge
# (``e1`` then ``2`` is the blade ``e12``) as they would in typed text
TOKENS = st.sampled_from([
    "a", "P", "x_1", "e0", "e12", "e012", "0", "2.5", ".5", "1e400", "007",
    "~", "!", "-", "+", "#", "&", "^", "|", "*", "(", ")", "<", ">", "1", "2",
    " ", "\n",
])


def _reversed_deep(node: Node) -> Node:
    """``node`` under 2 * sys.getrecursionlimit() reverses, deeper than a
    recursive walk reaches."""
    for _ in range(2 * sys.getrecursionlimit()):
        node = Unary("~", node)
    return node


class TestRobustness:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(TOKENS, max_size=40))
    def test_parses_or_refuses(self, tokens):
        try:
            node = parse("".join(tokens))
        except ParseError:
            return
        assert parse(to_text(node)) == node

    def test_deep_tree_evaluates_without_recursion(self, pga3):
        n = 2 * sys.getrecursionlimit()
        node = _reversed_deep(Blade("e1"))
        out = evaluate(node, pga3, {})
        assert out.coeffs.tobytes() == pga3.blade("e1").coeffs.tobytes()
        assert to_text(node) == "~" * n + "e1"


class TestEvaluation:
    def test_generator_square(self, pga3):
        out = evaluate(parse("e1*e1"), pga3, {})
        assert out.close_to(pga3.scalar(1.0), tol=0.0)

    def test_matches_library_calls_bitwise(self, pga2, pga3, cga3, rng):
        for alg in (pga2, pga3, cga3):
            a, b = random_mv(alg, rng), random_mv(alg, rng)
            pairs = [
                ("a * b", a.gp(b)),
                ("a ^ b", a.outer(b)),
                ("a | b", a.left_contract(b)),
                ("a & b", duality.join(a, b)),
                ("~a", a.reverse()),
                ("!a", duality.j_map(a)),
                ("a#", duality.polarity(a)),
                ("<a>2", a.grade(2)),
                ("-a", -a),
                ("+a", a),
                ("a + b", a + b),
                ("a - b", a - b),
            ]
            for src, want in pairs:
                got = evaluate(parse(src), alg, {"a": a, "b": b})
                assert np.array_equal(got.coeffs, want.coeffs), (alg, src)
        # the cases spell every operator, so each entry meets its library call
        tops = [parse(src) for src, _ in pairs]
        assert {n.op for n in tops if isinstance(n, Binary)} == set(expr.BINARY)
        assert {n.op for n in tops if isinstance(n, Unary)} == set(expr.UNARY)

    def test_operators_reach_functions_rebound_after_import(self, pga3, rng,
                                                           monkeypatch):
        # perfbench's tracer wraps the products on Multivector, and join,
        # j_map and polarity wherever a pgakit module holds them, long after
        # expr is imported: an operator looks its function up when it runs
        seen = []

        def wrap(name, fn):
            return lambda *args: seen.append(name) or fn(*args)

        for name in ("gp", "outer", "left_contract"):
            monkeypatch.setattr(Multivector, name,
                                wrap(name, getattr(Multivector, name)))
        for fn in (duality.join, duality.j_map, duality.polarity):
            wrapped = wrap(fn.__name__, fn)
            for modname, module in list(sys.modules.items()):
                if modname == "pgakit" or modname.startswith("pgakit."):
                    for attr, obj in list(vars(module).items()):
                        if obj is fn:
                            monkeypatch.setattr(module, attr, wrapped)
        env = {"a": random_mv(pga3, rng), "b": random_mv(pga3, rng)}
        for src, name in [("a * b", "gp"), ("a ^ b", "outer"),
                          ("a | b", "left_contract"), ("a & b", "join"),
                          ("!a", "j_map"), ("a#", "polarity")]:
            seen.clear()
            evaluate(parse(src), pga3, env)
            assert seen == [name], src

    @pytest.mark.parametrize("node, op", [
        (Binary("@", Blade("e1"), Blade("e2"), line=2, col=4), "@"),
        (Unary("?", Blade("e1"), line=2, col=4), "?"),
        # each table's symbols, in the other table's node
        (Binary("#", Blade("e1"), Blade("e2"), line=2, col=4), "#"),
        (Unary("&", Blade("e1"), line=2, col=4), "&"),
        (Binary("+", Blade("e1"), Unary("?", Blade("e2"), line=2, col=4)), "?"),
        (_reversed_deep(Unary("?", Blade("e1"), line=2, col=4)), "?"),
    ], ids=["binary @", "unary ?", "binary #", "unary &", "nested unary ?",
            "deep unary ?"])
    def test_unknown_operator_refused(self, pga3, node, op):
        # no operator is read as another: evaluate and to_text name it
        message = re.escape(f"line 2, column 4: unknown operator {op!r}")
        with pytest.raises(EvalError, match=message):
            evaluate(node, pga3, {})
        with pytest.raises(EvalError, match=message):
            to_text(node)

    def test_perpendicular_construction(self, pga3):
        p = euclid.point(pga3, 1.0, 0.0, 0.0)
        z_axis = euclid.line_from_points(euclid.point(pga3, 0, 0, 0),
                                         euclid.point(pga3, 0, 0, 1))
        env = {"P": p, "Pi": z_axis}
        got = evaluate(parse("((Pi | P) ^ Pi) & P"), pga3, env)
        want = euclid.perpendicular_through_point(z_axis, p)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert euclid.flat_kind(got) == "line"
        d = euclid.direction(got)
        assert np.allclose(np.abs(d / np.linalg.norm(d)), [1, 0, 0])

    def test_polarity_of_point_is_ideal_plane(self, pga3):
        env = {"P": euclid.point(pga3, 3.0, -2.0, 1.0)}
        out = evaluate(parse("P #"), pga3, env)
        assert out.close_to(euclid.ideal_plane(pga3), tol=0.0)

    def test_unbound_name(self, pga3):
        with pytest.raises(EvalError, match="unbound name 'zz'"):
            evaluate(parse("zz * e1"), pga3, {})

    def test_number_times_is_bitwise_gp(self, pga3, cga3, rng):
        # a number scales the coefficients, + 0.0 clearing -0.0: the
        # bytes gp gives, on either side, at any magnitude and sign
        numbers = ["0", "-0.0", "5e-324", "1e-300", "2.5", "-7", "1e300"]
        for alg in (pga3, cga3):
            env = {"a": random_mv(alg, rng), "z": alg.from_coeffs(
                rng.choice([0.0, -0.0], alg.size)), "h": alg.from_coeffs(
                rng.normal(size=alg.size) * 10.0 ** rng.uniform(-300, 300, alg.size))}
            for x in numbers:
                c = alg.scalar(float(x))
                for name, mv in env.items():
                    with np.errstate(over="ignore"):  # 1e300 * 1e300
                        cases = ((f"{x} * {name}", c.gp(mv)),
                                 (f"{name} * {x}", mv.gp(c)))
                    for src, want in cases:
                        if not np.isfinite(want.coeffs).all():
                            with pytest.raises(EvalError, match="not finite"):
                                evaluate(parse(src), alg, env)
                            continue
                        got = evaluate(parse(src), alg, env)
                        assert got.coeffs.tobytes() == want.coeffs.tobytes(), src

    def test_parse_runs_no_gp(self, pga3, rng, monkeypatch):
        mv = random_mv(pga3, rng)
        monkeypatch.setattr(type(mv), "gp", None)  # any gp call fails
        assert pga3.parse(str(mv)) == mv
        assert evaluate(parse("2 * e1 * 3"), pga3, {}) == pga3.blade("e1", 6.0)

    def test_unknown_blade(self, pga3):
        with pytest.raises(EvalError, match="no blade 'e9'"):
            evaluate(parse("e9"), pga3, {})
        with pytest.raises(EvalError, match="no blade 'e11'"):
            evaluate(parse("e11"), pga3, {})
        with pytest.raises(EvalError, match="no blade 'e\u0661'"):
            evaluate(parse("e\u0661"), pga3, {})  # generators are ASCII

    def test_blade_in_any_generator_order(self, pga3):
        assert evaluate(parse("e21"), pga3, {}) == pga3.blade("e12", -1.0)
        assert evaluate(parse("e1032"), pga3, {}) == pga3.blade("e0123")
        assert evaluate(parse("e3120"), pga3, {}) == pga3.blade("e0123", -1.0)

    def test_non_finite_value_refused(self, pga3):
        # no errstate here: evaluate itself keeps numpy's overflow and
        # invalid-value warnings from preempting the EvalError
        with pytest.raises(EvalError, match="column 12: value is not finite"):
            evaluate(parse("e1 * 1e300 * 1e300 ^ e2"), pga3, {})
        with pytest.raises(EvalError, match="column 7: value is not finite"):
            evaluate(parse("1e308 + 1e308"), pga3, {})
        with pytest.raises(EvalError, match="column 1: value is not finite"):
            evaluate(parse("big * e1"), pga3,
                     {"big": pga3.scalar(float("inf"))})

    def test_hand_built_non_finite_number_refused(self, pga3):
        # parse never makes one, so the Num checks itself, at its own column
        node = Binary("+", Blade("e1", col=1), Binary(
            "*", Num(float("inf"), col=6), Blade("e2", col=10), col=8), col=4)
        with pytest.raises(EvalError, match="column 6: value is not finite"):
            evaluate(node, pga3, {})
        with pytest.raises(EvalError, match="column 3: value is not finite"):
            evaluate(Num(float("nan"), col=3), pga3, {})

    def test_only_operators_and_names_take_an_array_check(self, pga3,
                                                           monkeypatch):
        # each value's finite check is one all() over its slots
        import pgakit.expr

        seen = []
        monkeypatch.setattr(pgakit.expr, "all", lambda xs: seen.append(xs) or all(xs),
                            raising=False)
        evaluate(parse("e1 + 2 * e2 - P"), pga3, {"P": pga3.scalar(1.0)})
        assert len(seen) == 4  # P, *, + and -, not the two blades or the 2

    def test_algebra_mismatch(self, pga3, cga3):
        env = {"q": cga3.scalar(2.0)}
        with pytest.raises(EvalError, match="different algebra"):
            evaluate(parse("q * e1"), pga3, env)

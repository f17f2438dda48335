import copy
import functools
import hashlib
import json
import operator
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pgakit import cli, dynamics, euclid
from pgakit import expr as dsl
from pgakit.cli import SceneError, load_scene, main

SCENES = Path(__file__).parents[1] / "scenes"
README = Path(__file__).parents[1] / "README.md"
SRC = Path(__file__).parents[1] / "src"


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# scene files json.load cannot read: malformed, not UTF-8 (RFC 8259 JSON
# is UTF-8), nested deeper than its parser recurses, or behind a BOM
BAD_JSON = {
    "not-json": b"{not json",
    "not-utf8": b"\xff\xfe{}",
    "utf16": '{"algebra": {}}'.encode("utf-16"),
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
    "utf8-bom": b"\xef\xbb\xbf{}",
}
# and what eval prints for each, as a text-mode read of the file gave it
_NOT_UTF8 = ("error: scene is not valid JSON: 'utf-8' codec can't decode"
             " byte 0xff in position 0: invalid start byte\n")
BAD_JSON_TEXT = {
    "not-json": "error: scene is not valid JSON: Expecting property name"
                " enclosed in double quotes: line 1 column 2 (char 1)\n",
    "not-utf8": _NOT_UTF8,
    "utf16": _NOT_UTF8,
    "deep-array": "error: scene is not valid JSON:"
                  " arrays and objects nest too deeply\n",
    "utf8-bom": "error: scene is not valid JSON: Unexpected UTF-8 BOM (decode"
                " using utf-8-sig): line 1 column 1 (char 0)\n",
}


class TestSceneLoading:
    def test_repo_scenes_load(self):
        for name in ("perpendicular", "euler_top", "free_top", "cga_points"):
            load_scene(str(SCENES / f"{name}.json"))

    def test_entity_construction(self, tmp_path):
        path = write_scene(tmp_path, {
            "algebra": {"model": "pga", "n": 3},
            "entities": {
                "P": {"type": "point", "coords": [1, 2, 3]},
                "F": {"type": "plane", "coeffs": [0, 0, 1, -1]},
                "L": {"type": "line", "from": [0, 0, 0], "to": [1, 0, 0]},
            },
        })
        scene = load_scene(path)
        assert np.allclose(euclid.point_coords(scene.entities["P"]), [1, 2, 3])
        assert euclid.flat_kind(scene.entities["L"]) == "line"
        assert euclid.flat_kind(scene.entities["F"]) == "plane"

    @pytest.mark.parametrize("name", BAD_JSON)
    def test_bad_json(self, tmp_path, capsys, name):
        path = tmp_path / "broken.json"
        path.write_bytes(BAD_JSON[name])
        with pytest.raises(SceneError, match="valid JSON"):
            load_scene(str(path))
        assert main(["eval", "--scene", str(path), "e1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", BAD_JSON_TEXT[name])

    @pytest.mark.parametrize("name", ["perpendicular", "euler_top",
                                      "free_top", "cga_points"])
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_newlines_load_as_text_mode_reads_them(self, tmp_path, name,
                                                   newline):
        lf = (SCENES / f"{name}.json").read_bytes()
        assert b"\r" not in lf and lf.count(b"\n") > 1
        path = tmp_path / f"{name}.json"
        path.write_bytes(lf.replace(b"\n", newline))
        want, got = load_scene(str(SCENES / f"{name}.json")), load_scene(str(path))
        assert got.algebra is want.algebra
        assert got.dynamics_block == want.dynamics_block
        assert list(got.entities) == list(want.entities)
        for key, mv in want.entities.items():
            assert got.entities[key].coeffs.tobytes() == mv.coeffs.tobytes()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newlines_keep_error_positions(self, tmp_path, capsys, newline):
        # a wrong field and a syntax error read as from the LF copy, the
        # latter at the line and column text mode counts
        lf = '{"algebra": {"model": "cga",\n "n": 3},\n "entities": [1]}\n'
        texts = []
        for sep in ("\n", newline):
            path = tmp_path / "broken.json"
            path.write_bytes(lf.replace("\n", sep).encode())
            assert main(["eval", "--scene", str(path), "e1"]) == 2
            texts.append(capsys.readouterr().err)
        broken = '{"algebra": {"model": "cga",\n "n": 3},\n "entities": [1,]}'
        for sep in ("\n", newline):
            path.write_bytes(broken.replace("\n", sep).encode())
            assert main(["eval", "--scene", str(path), "e1"]) == 2
            texts.append(capsys.readouterr().err)
        assert texts[0] == texts[1] and texts[2] == texts[3]
        assert "line 3 column 17" in texts[2]

    def test_undecodable_scene_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(BAD_JSON["utf16"])
        assert main(["eval", "--scene", str(path), "e1"]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: [^\n]*\n", captured.err)
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("coords", [[1e200, 0, 0], [1e154, 1e154, 1e154],
                                        [1e8, 0, 0]],
                             ids=["square-overflows", "sum-overflows",
                                  "slots-round"])
    def test_point_too_far_to_embed_is_usage_error(self, tmp_path, capsys,
                                                    coords):
        path = write_scene(tmp_path, {
            "algebra": {"model": "cga", "n": 3},
            "entities": {"P": {"type": "point", "coords": coords}},
        })
        assert main(["eval", "--scene", path, "P"]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: entity 'P': point too far from the"
                            r" origin to embed[^\n]*\n", captured.err)
        assert captured.out == ""

    def test_missing_file(self):
        with pytest.raises(SceneError, match="cannot read"):
            load_scene("/nonexistent/scene.json")

    def test_unknown_model(self, tmp_path):
        path = write_scene(tmp_path, {"algebra": {"model": "sta", "n": 3}})
        with pytest.raises(SceneError, match="unknown algebra model"):
            load_scene(path)

    def test_plane_refused_in_cga_scene(self, tmp_path):
        path = write_scene(tmp_path, {
            "algebra": {"model": "cga", "n": 3},
            "entities": {"F": {"type": "plane", "coeffs": [0, 0, 1, 0]}},
        })
        with pytest.raises(SceneError, match="no 'plane' entities"):
            load_scene(path)

    def test_wrong_arity(self, tmp_path):
        path = write_scene(tmp_path, {
            "entities": {"P": {"type": "point", "coords": [1, 2]}},
        })
        with pytest.raises(SceneError, match="list of 3 numbers"):
            load_scene(path)


BODY = {"inertia": {"moments": [1, 2, 3], "mass": 1.0}, "h": 1e-3, "steps": 5}
POSE = {"center": [0, 0, 0], "axis": [0, 0, 1]}

# a scene every command accepts, with every field set and a short run
VALID_SCENE = {
    "algebra": {"model": "pga", "n": 3},
    "entities": {"P": {"type": "point", "coords": [1, 0, 0]},
                 "Pi": {"type": "line", "from": [0, 0, 0], "to": [0, 0, 1]},
                 "F": {"type": "plane", "coeffs": [0, 0, 1, 0]}},
    "dynamics": {"inertia": {"moments": [1, 2, 3], "mass": 1.0},
                 "pose": {**POSE, "angle": 0.5, "displacement": 0.1},
                 "momentum": {"angular": [1, 2, 3], "linear": [0, 1, 0]},
                 "h": 1e-3, "steps": 5, "renormalize": True},
}
STEP_TOKENS = ["nan", "inf", "0", "-1", "1e400", "abc", "0.001", "3"]


def _scene_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _scene_paths(child, prefix + (key,))


SCENE_PATHS = list(_scene_paths(VALID_SCENE))
FIELD_NAMES = sorted({key for path in SCENE_PATHS for key in path
                      if isinstance(key, str)})
# integers past 20 would make a long run of a substituted "steps"; parts
# of the valid scene in the wrong place keep some examples well typed
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.just(10 ** 400)
    | st.floats() | st.text(max_size=4) | st.sampled_from(
        [functools.reduce(operator.getitem, path, VALID_SCENE)
         for path in SCENE_PATHS]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELD_NAMES) | st.text(max_size=3), inner,
        max_size=4),
    max_leaves=8)


def _substitute(doc, path, value):
    """doc with the value at path; a path an earlier swap removed is left."""
    if not path:
        return value
    try:
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


class TestMalformedScene:
    @pytest.mark.parametrize("command, doc", [
        ("eval", {"algebra": [1]}),
        ("eval", {"algebra": {"n": 3.0}}),
        ("eval", {"entities": [1, 2]}),
        ("simulate", {"dynamics": 5}),
        ("simulate", {"dynamics": {**BODY, "momentum": [1, 2]}}),
        ("simulate", {"dynamics": {**BODY, "pose": [1]}}),
        ("simulate", {"dynamics": {**BODY, "pose": {**POSE, "angle": "big"}}}),
        ("simulate", {"dynamics": {**BODY,
                                   "inertia": {"moments": ["x", 1, 1]}}}),
        ("simulate", {"dynamics": {**BODY, "inertia": {"moments": [1, 2]}}}),
        ("simulate", {"dynamics": {**BODY, "inertia": {"moments": [1, 2, 3],
                                                       "mass": True}}}),
        ("simulate", {"dynamics": {**BODY, "steps": "3"}}),
        ("simulate", {"dynamics": {**BODY, "steps": 2.7}}),
        ("eval", {"entities": {"e1": {"type": "point", "coords": [0, 0, 0]}}}),
        ("eval", {"entities": {"my point": {"type": "point",
                                            "coords": [0, 0, 0]}}}),
    ], ids=["algebra-list", "n-float", "entities-list", "dynamics-number",
            "momentum-list", "pose-list", "angle-string", "moments-string",
            "moments-short", "mass-bool", "steps-string", "steps-float",
            "name-is-blade", "name-with-space"])
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, command, doc):
        argv = [command, "--scene", write_scene(tmp_path, doc)]
        assert main(argv + (["e1"] if command == "eval" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_scene_exits_cleanly(self, tmp_path, capsys, data):
        doc = copy.deepcopy(VALID_SCENE)
        paths = data.draw(st.lists(st.sampled_from(SCENE_PATHS),
                                   min_size=1, max_size=3))
        for path in paths:
            # a drawn part of VALID_SCENE is the original: a later swap
            # into the copy's path would otherwise write into VALID_SCENE
            doc = _substitute(doc, path, copy.deepcopy(data.draw(ANY_JSON)))
        command = data.draw(st.sampled_from(["construct", "simulate", "eval"]))
        argv = [command, "--scene", write_scene(tmp_path, doc)]
        if command == "eval":
            argv.append("P & Pi")
        if command == "simulate":
            for flag in data.draw(st.lists(st.sampled_from(["--h", "--steps"]),
                                           max_size=2)):
                argv += [flag, data.draw(st.sampled_from(STEP_TOKENS))]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

class TestConstruct:
    def test_worked_example(self, capsys):
        code = main(["construct", "--scene",
                     str(SCENES / "perpendicular.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "'^' is meet" in out
        assert "incident: yes" in out
        assert "orthogonal: yes" in out
        assert "e23" in out  # the x axis through the origin

    def test_incident_point_degenerates(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "entities": {
                "P": {"type": "point", "coords": [0, 0, 2]},
                "Pi": {"type": "line", "from": [0, 0, 0], "to": [0, 0, 1]},
            },
        })
        code = main(["construct", "--scene", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "meet degenerates" in captured.err

    def test_far_line_is_not_degenerate(self, tmp_path, capsys):
        # the points' norms pass 1.3e154, so their squares overflow; the
        # degeneracy test scales with those norms
        path = write_scene(tmp_path, {"entities": {
            "P": {"type": "point", "coords": [2e154, 0, 0]},
            "Q": {"type": "point", "coords": [2e154, 1, 0]}}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["construct", "--scene", path, "P & Q"]) == 0
        captured = capsys.readouterr()
        assert "result: 2e+154*e03 - 1.0*e13\n" in captured.out
        assert "incident: yes\n" in captured.out
        assert captured.err == ""

    def test_cga_scene_refused(self, capsys):
        code = main(["construct", "--scene", str(SCENES / "cga_points.json")])
        assert code == 2
        assert "plane-based" in capsys.readouterr().err

    def test_explicit_expression(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "entities": {"P": {"type": "point", "coords": [1, 0, 0]}},
        })
        code = main(["construct", "--scene", path, "P # "])
        out = capsys.readouterr().out
        assert code == 0
        assert "e0" in out
        assert "incident:" in out

    def test_non_finite_result_is_domain_error(self, tmp_path, capsys):
        path = write_scene(tmp_path, {"entities": {
            "P": {"type": "point", "coords": [1, 0, 0]}}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["construct", "--scene", path,
                         "P * 1e300 * 1e300"]) == 1
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert "result:" not in captured.out

    def test_parse_error_is_domain_error(self, tmp_path, capsys):
        path = write_scene(tmp_path, {"entities": {}})
        code = main(["construct", "--scene", path, "( P"])
        assert code == 1
        assert "column" in capsys.readouterr().err

    @pytest.mark.parametrize("coords, token", [
        ("[Infinity, 0, 0]", "Infinity"),
        ("[0, NaN, 0]", "NaN"),
        ("[1e400, 0, 0]", "1e400"),
    ])
    def test_non_finite_scene_number_is_usage_error(self, tmp_path, capsys,
                                                    coords, token):
        path = tmp_path / "scene.json"
        path.write_text('{"entities": {"P": {"type": "point", "coords": %s}}}'
                        % coords)
        assert main(["construct", "--scene", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"scene number {token} is not finite" in captured.err
        assert captured.out == ""


class TestEval:
    def test_blade_square(self, capsys):
        assert main(["eval", "e1 * e1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# algebra pga(3)")
        assert out[1] == "1.0"

    def test_cga_banner_says_span(self, capsys):
        code = main(["eval", "--scene", str(SCENES / "cga_points.json"),
                     "P | Q"])
        assert code == 0
        assert "'^' is span" in capsys.readouterr().out

    def test_unbound_name(self, capsys):
        assert main(["eval", "missing * e1"]) == 1
        captured = capsys.readouterr()
        assert "unbound" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("source, message", [
        ("e0 * 1e400", "column 6: number '1e400' is out of range"),
        ("e0 * 1e300 * 1e300", "column 12: value is not finite"),
    ])
    def test_non_finite_is_domain_error(self, capsys, source, message):
        # a numpy warning raised as an error would escape main
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", source]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("source, message", [
        ("<e1>7", "line 1, column 1: grade 7 out of range for this algebra"),
        ("<e1>" + "9" * 23,
         "line 1, column 1: grade " + "9" * 23 + " out of range for this algebra"),
        ("<e1>" + "9" * 5000,
         "line 1, column 5: grade index has too many digits"),
        ("(" * 3000 + "e1" + ")" * 3000, "expression nests too deeply"),
        ("~" * 3000 + "e1", "expression nests too deeply"),
        (" * ".join(["e1"] * 3000), "expression nests too deeply"),
        # a number takes ASCII digits only (U+0662 is ARABIC-INDIC TWO)
        ("\u0662*e1", "line 1, column 1: unexpected character '\u0662'"),
        ("<e12>\u0662", "line 1, column 6: unexpected character '\u0662'"),
    ], ids=["grade", "long-grade", "grade-past-int", "parentheses", "reverses",
            "product-chain", "non-ascii-number", "non-ascii-grade"])
    def test_error_is_one_positioned_line(self, capsys, source, message):
        assert main(["eval", source]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert re.fullmatch(r"error: line 1, column \d+: .*", line)
        assert message in line

    @pytest.mark.parametrize("argv, result", [
        (["-e1"], "-1.0*e1"),
        (["-e1 ^ e2"], "-1.0*e12"),
        (["--scene", str(SCENES / "perpendicular.json"), "-P"],
         "1.0*e023 - 1.0*e123"),
        (["-P", "--scene", str(SCENES / "perpendicular.json")],
         "1.0*e023 - 1.0*e123"),
    ], ids=["alone", "spaced", "after-scene", "before-scene"])
    def test_leading_minus_is_an_expression(self, capsys, argv, result):
        assert main(["eval", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[1] == result

    @pytest.mark.parametrize("source, result", [
        ("e21", "-1.0*e12"),
        ("1 + e1", "1.0 + 1.0*e1"),
        ("e1 - e2", "1.0*e1 - 1.0*e2"),
        ("+e1 - -e2", "1.0*e1 + 1.0*e2"),
    ])
    def test_sums_and_blade_order(self, capsys, source, result):
        assert main(["eval", source]) == 0
        assert capsys.readouterr().out.splitlines()[1] == result

    @pytest.mark.parametrize("scene, source", [
        ("perpendicular.json", "P & Pi"), ("perpendicular.json", "Pi"),
        ("cga_points.json", "P"), ("cga_points.json", "P & Q"),
        # every operator of the language at once
        ("cga_points.json",
         "~P + !Q + -P + +Q + P# + (P ^ Q) + (P | Q) + (P & Q) + P * Q"),
    ])
    def test_result_reads_back_as_itself(self, capsys, scene, source):
        argv = ["eval", "--scene", str(SCENES / scene)]
        assert main([*argv, source]) == 0
        first = capsys.readouterr().out.splitlines()
        assert main([*argv, first[-1]]) == 0
        assert capsys.readouterr().out.splitlines() == first

    @pytest.mark.parametrize("argv, message", [
        (["--bogus", "e1"], "unrecognized arguments: --bogus"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["e1", "-e2"], "unrecognized arguments: -e2"),
        (["-e1", "-e2"], "unrecognized arguments: -e1 -e2"),
        ([], "the following arguments are required: expression"),
    ], ids=["unknown-option", "unknown-option-alone", "second-expression",
            "two-expressions", "missing"])
    def test_usage_errors_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["eval", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def _at_depth(frames, call):
    """``call()`` from ``frames`` extra Python frames down the stack."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


class TestNestingLimit:
    SHAPES = {
        "parentheses": lambda d: "(" * d + "e1" + ")" * d,
        "reverses": lambda d: "~" * d + "e1",
        "product-chain": lambda d: " * ".join(["e1"] * (d + 1)),
        "polarities": lambda d: "e1" + "#" * d,
        "grades": lambda d: "<" * d + "e1" + ">2" * d,
    }

    @staticmethod
    def _eval(source, capsys):
        code = main(["eval", source])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("frames", [0, 300, 900])
    def test_limit_holds_at_any_caller_depth(self, capsys, shape, frames):
        build = self.SHAPES[shape]
        code, out, _ = _at_depth(
            frames, lambda: self._eval(build(dsl.MAX_DEPTH), capsys))
        assert code == 0 and out
        if shape == "parentheses":
            assert out == self._eval("e1", capsys)[1]
        code, out, err = _at_depth(
            frames, lambda: self._eval(build(dsl.MAX_DEPTH + 1), capsys))
        assert code == 1 and out == ""
        # the column is where the limit is crossed, not where the stack ran out
        _, _, top_err = self._eval(build(dsl.MAX_DEPTH + 1), capsys)
        assert err == top_err
        assert re.fullmatch(r"error: line 1, column \d+: expression nests"
                            r" too deeply\n", err)


@pytest.mark.parametrize("scene", sorted(p.name for p in SCENES.glob("*.json")))
def test_a_repeated_call_prints_the_same_bytes(capsys, scene):
    """Every command exits by the contract on every repo scene, and its
    second in-process call, which parses its expression from the cache,
    prints what the first, uncached call printed."""
    path = str(SCENES / scene)
    names = json.loads((SCENES / scene).read_text())["entities"]
    for argv in (["construct", "--scene", path],
                 ["eval", "--scene", path, "e1"],
                 ["eval", "--scene", path, " & ".join(names) or "e1"],
                 ["simulate", "--scene", path, "--steps", "5"]):
        dsl._parsed.cache_clear()
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0][0] in (0, 1, 2) and "Traceback" not in runs[0][2], argv
        assert runs[1] == runs[0], argv
        info = dsl._parsed.cache_info()
        assert info.hits == info.misses <= 1, argv  # none if refused before


def _pgakit_child(argv, unbuffered):
    """``python -m pgakit`` in a child process with piped stdout and
    stderr; ``unbuffered`` is the child's PYTHONUNBUFFERED, None to unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.Popen([sys.executable, "-m", "pgakit", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


class TestSimulate:
    def test_csv_shape_and_determinism(self, capsys):
        argv = ["simulate", "--scene", str(SCENES / "euler_top.json"),
                "--steps", "20"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.splitlines()
        assert lines[0].startswith("t,g0,")
        assert len(lines) == 22
        assert lines[1].split(",")[0] == "0"

    def test_out_file(self, tmp_path):
        target = tmp_path / "run.csv"
        code = main(["simulate", "--scene", str(SCENES / "free_top.json"),
                     "--steps", "5", "--out", str(target)])
        assert code == 0
        assert len(target.read_text().splitlines()) == 7

    def test_no_renormalize_changes_output(self, capsys):
        argv = ["simulate", "--scene", str(SCENES / "euler_top.json"),
                "--steps", "2000"]
        assert main(argv) == 0
        kept = capsys.readouterr().out
        assert main(argv + ["--no-renormalize"]) == 0
        drifted = capsys.readouterr().out
        assert kept != drifted

    def test_missing_dynamics_block(self, capsys):
        code = main(["simulate", "--scene",
                     str(SCENES / "perpendicular.json")])
        assert code == 2
        assert "no dynamics block" in capsys.readouterr().err

    def test_singular_inertia(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [0, 2, 3], "mass": 1.0},
                         "h": 0.001, "steps": 5},
        })
        assert main(["simulate", "--scene", path]) == 1
        assert "singular inertia" in capsys.readouterr().err

    @pytest.mark.parametrize("h, flags", [
        (-0.5, []), (1e-3, ["--h", "nan"]), (1e-3, ["--h", "inf"]),
        (1e-3, ["--h", "0"]),
    ], ids=["scene", "nan", "inf", "zero"])
    def test_invalid_step_size(self, tmp_path, capsys, h, flags):
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [1, 2, 3], "mass": 1.0},
                         "h": h, "steps": 5},
        })
        assert main(["simulate", "--scene", path] + flags) == 2
        captured = capsys.readouterr()
        assert "positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400],
                             ids=["float", "integer"])
    def test_non_finite_mass_is_usage_error(self, tmp_path, capsys, number):
        path = tmp_path / "scene.json"
        path.write_text('{"dynamics": {"inertia": {"moments": [1, 2, 3],'
                        ' "mass": %s}, "h": 0.001, "steps": 5}}' % number)
        assert main(["simulate", "--scene", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"scene number {number} is not finite" in captured.err
        assert captured.out == ""

    def test_renormalize_must_be_boolean(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [1, 2, 3], "mass": 1.0},
                         "h": 0.001, "steps": 5, "renormalize": "no"},
        })
        assert main(["simulate", "--scene", path]) == 2
        captured = capsys.readouterr()
        assert "'renormalize' must be true or false" in captured.err
        assert captured.out == ""

    def test_divergence_reports_step(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "dynamics": {
                "inertia": {"moments": [1e-150, 2e-150, 3e-150], "mass": 1.0},
                "momentum": {"angular": [1e150, 0, 0], "linear": [0, 0, 0]},
                "h": 1000.0, "steps": 50,
            },
        })
        assert main(["simulate", "--scene", path]) == 1
        assert "diverged at step" in capsys.readouterr().err

    def test_non_finite_first_row_is_domain_error(self, tmp_path, capsys):
        # finite state, but the energy of the initial row overflows
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [1, 2, 3]},
                         "momentum": {"angular": [1e160, 0, 0]}},
        })
        assert main(["simulate", "--scene", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == dynamics.CSV_HEADER + "\n"
        assert "not finite" in captured.err

    @pytest.mark.parametrize("pose", [
        # the half-angle bivector's square overflows: exp has no finite
        # angle to take the cosine of
        {"angle": 1e300}, {"angle": 1e200}, {"axis": [0, 0, 0]},
    ], ids=["angle-1e300", "angle-1e200", "zero-axis"])
    def test_bad_pose_is_usage_error(self, tmp_path, capsys, pose):
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [1, 2, 3]}, "pose": pose},
        })
        assert main(["simulate", "--scene", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: 'pose': [^\n]+\n", captured.err)

    @pytest.mark.parametrize("axis", [[1e200, 0, 0], [1e-200, 0, 0]],
                             ids=["huge", "tiny"])
    def test_pose_axis_past_the_float_range(self, tmp_path, capsys, axis):
        """u.u of these axes overflows or underflows; the run is the one
        the unit axis gives, byte for byte."""
        runs = []
        for u in (axis, [1, 0, 0]):
            path = write_scene(tmp_path, {"dynamics": {
                "inertia": {"moments": [1, 2, 3], "mass": 2},
                "pose": {"center": [1, -0.5, 0.25], "axis": u,
                         "angle": 0.9, "displacement": 0.4},
                "momentum": {"angular": [12, 10, -8], "linear": [1, -2, 0.5]},
                "steps": 300}})
            runs.append((main(["simulate", "--scene", path]),
                         capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].err == ""

    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_without_traceback(self, unbuffered):
        with _pgakit_child(["simulate", "--scene",
                            str(SCENES / "euler_top.json"),
                            "--steps", "20000"], unbuffered) as child:
            assert child.stdout.readline().startswith(b"t,g0,")
            child.stdout.close()  # the reader goes away, as with `| head -1`
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 1
        assert "Traceback" not in err

    def test_error_reported_after_reader_has_gone(self, tmp_path):
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [1, 2, 3]},
                         "momentum": {"angular": [1e160, 0, 0]}},
        })
        # buffered: the header is still unwritten when the error is
        # reported, and reporting it flushes into the closed pipe
        with _pgakit_child(["simulate", "--scene", path], None) as child:
            child.stdout.close()
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 1
        assert err == "error: integration diverged at step 0:" \
                      " the row is not finite\n"

    def test_unwritable_out_path(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "dynamics": {"inertia": {"moments": [1, 2, 3], "mass": 1.0},
                         "h": 0.001, "steps": 5},
        })
        out = str(tmp_path / "missing" / "run.csv")
        assert main(["simulate", "--scene", path, "--out", out]) == 2
        assert "cannot write output" in capsys.readouterr().err


class TestCheckAndBench:
    def test_check_passes_and_reproduces(self, capsys):
        assert main(["check", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert first.splitlines()[0] == "# seed=11"
        assert all(line.startswith("ok ") for line in first.splitlines()[1:])
        assert main(["check", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first

    def test_check_covers_every_module(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for name in ("ga-core", "duality", "flats", "motors", "dynamics",
                     "conformal", "dsl"):
            assert f"ok {name}" in out

    def test_seed_range(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--seed", "-1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_check_fails_a_perturbed_kernel_under_every_flag(self, flags):
        # python -O strips assert statements; check's invariants must hold
        # without them, so a kernel off by 1e-7 fails the same suites
        perturb = ("import sys\n"
                   "from pgakit import cli\n"
                   "from pgakit.algebra import Algebra\n"
                   "kernel = Algebra.product\n"
                   "Algebra.product = lambda *args: kernel(*args) * (1 + 1e-7)\n"
                   "sys.exit(cli.main(['check']))\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONOPTIMIZE", None)
        done = subprocess.run([sys.executable, *flags, "-c", perturb],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert "FAIL ga-core: dense and sparse kernels disagree" in lines
        assert "FAIL dynamics: spatial momentum drifted" in lines

    def test_optimized_check_prints_the_same_reports(self, capsys):
        # check's invariants are not assert statements, which python -O
        # strips: the optimized run prints the same reports for seeds 0..50
        seeds = ("import sys\n"
                 "from pgakit.cli import main\n"
                 "sys.exit(max([main(['check', '--seed', str(s)])"
                 " for s in range(51)]))\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONOPTIMIZE", None)
        done = subprocess.run([sys.executable, "-O", "-c", seeds],
                              capture_output=True, env=env)
        assert done.returncode == 0, done.stderr.decode()
        assert [main(["check", "--seed", str(s)]) for s in range(51)] == [0] * 51
        assert done.stdout == capsys.readouterr().out.encode()


# sha256 of simulate's standard output on the shipped dynamics scenes, with
# and without renormalisation: a change that moves one bit of the CSV moves
# its digest
SIMULATE_DIGESTS = {
    ("euler_top", False):
        "aa3d306cd4a41963ab91f41a58fd67cad77326fba0f1c92d8a68ebf7a2d50091",
    ("euler_top", True):
        "7c3708bd1e4cb332204fa0c2fd18afc66c807d7dd91e4387abfe516c71981df9",
    ("free_top", False):
        "4e45abd568652ff314cc1acf19dae854bceef767774814d815a093240677c73f",
    ("free_top", True):
        "4a6eebe94282fb8ecb0fbd4a9eb45fa82a149d50d6f658607e7648e9cf99d971",
}


class TestContracts:
    @pytest.mark.parametrize("scene, drift", list(SIMULATE_DIGESTS))
    def test_simulate_digest(self, capsys, scene, drift):
        argv = ["simulate", "--scene", str(SCENES / f"{scene}.json")]
        assert main(argv + ["--no-renormalize"] * drift) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == SIMULATE_DIGESTS[scene, drift]

    def test_check_seeds_0_to_50(self, capsys):
        for seed in range(51):
            assert main(["check", "--seed", str(seed)]) == 0, seed
            head, *suites = capsys.readouterr().out.splitlines()
            assert head == f"# seed={seed}"
            assert suites and all(line.startswith("ok ") for line in suites)


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_construct_requires_scene(self):
        with pytest.raises(SystemExit) as err:
            main(["construct"])
        assert err.value.code == 2


TOP_USAGE = "usage: pgakit [-h] {construct,simulate,eval,check} ...\n"
EVAL_USAGE = "usage: pgakit eval [-h] [--scene SCENE] expression\n"
CONSTRUCT_USAGE = "usage: pgakit construct [-h] --scene SCENE [expression]\n"
EVAL_E1 = "# algebra pga(3): '^' is meet, '&' is join\n-1.0*e1\n"

# argv: exit code, stdout, stderr, each exact at 80 columns
USAGE_PATHS = {
    "none": ([], 2, "", TOP_USAGE + "pgakit: error: the following"
             " arguments are required: command\n"),
    "help": (["-h"], 0, TOP_USAGE + """
plane-based geometric algebra: constructions, rigid-body runs, invariant
checks

positional arguments:
  {construct,simulate,eval,check}
    construct           evaluate a construction against a scene
    simulate            integrate the scene's rigid body, CSV out
    eval                evaluate one expression
    check               run the invariant suites

options:
  -h, --help            show this help message and exit
""", ""),
    # the wording of argparse's list of choices varies across Pythons;
    # the dispatch test below holds these cases to the top-level parser's
    "bogus": (["bogus"], 2, "", None),
    "bench": (["bench"], 2, "", None),  # a command until it was removed
    "eval": (["eval"], 2, "", EVAL_USAGE + "pgakit eval: error: the"
             " following arguments are required: expression\n"),
    "eval-help": (["eval", "-h"], 0, EVAL_USAGE + """
positional arguments:
  expression

options:
  -h, --help     show this help message and exit
  --scene SCENE
""", ""),
    "eval-extra": (["eval", "e1", "extra"], 2, "",
                   TOP_USAGE + "pgakit: error: unrecognized arguments:"
                   " extra\n"),
    "eval-dashes": (["eval", "--", "-e1"], 0, EVAL_E1, ""),
    "eval-minus": (["eval", "-e1"], 0, EVAL_E1, ""),
    "construct": (["construct"], 2, "", CONSTRUCT_USAGE + "pgakit"
                  " construct: error: the following arguments are"
                  " required: --scene\n"),
    "construct-bogus": (["construct", "--bogus", "x"], 2, "",
                        CONSTRUCT_USAGE + "pgakit construct: error: the"
                        " following arguments are required: --scene\n"),
    "simulate-help": (["simulate", "--help"], 0, """\
usage: pgakit simulate [-h] --scene SCENE [--steps STEPS] [--h H]
                       [--no-renormalize] [--out OUT]

options:
  -h, --help        show this help message and exit
  --scene SCENE
  --steps STEPS
  --h H
  --no-renormalize
  --out OUT
""", ""),
}


def _outcome(capsys, argv=None):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsagePaths:
    """``main`` hands a command's arguments to that command's own parser;
    the top-level parser runs only when argv names no command."""

    @pytest.mark.parametrize("argv, code, out, err", USAGE_PATHS.values(),
                             ids=USAGE_PATHS)
    def test_exact_output(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        got = _outcome(capsys, argv)
        assert got[:2] == (code, out)
        if err is None:
            assert got[2].startswith(TOP_USAGE + "pgakit: error: argument"
                                     " command: invalid choice: ")
        else:
            assert got[2] == err

    @pytest.mark.parametrize("argv", [
        *(case[0] for case in USAGE_PATHS.values()),
        ["--", "eval", "e1"], ["-h", "eval"], ["eval", "e1", "-h"],
        ["eval", "--", "--", "-e1"], ["eval", "-e1", "-e2"],
        ["eval", "--scene"], ["check", "--seed", "-1"], ["check", "extra"],
        ["construct", "--scene", str(SCENES / "perpendicular.json")],
        ["eval", "--sc", str(SCENES / "cga_points.json"), "P | Q"],
    ], ids=lambda argv: " ".join(map(os.path.basename, argv)) or "none")
    def test_same_as_top_level_dispatch(self, capsys, monkeypatch, argv):
        """Byte for byte what argparse's subparsers action gives, which
        main still uses when no command parser is known."""
        monkeypatch.setenv("COLUMNS", "80")
        direct = _outcome(capsys, argv)
        parser, _ = cli.build_parsers()
        monkeypatch.setattr(cli, "build_parsers", lambda: (parser, {}))
        assert _outcome(capsys, argv) == direct

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["pgakit", "eval", "-e1"])
        assert _outcome(capsys) == (0, EVAL_E1, "")


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Every ```python block of the README runs, all in one namespace, and
    every ``pgakit`` line of its other blocks exits 0 through ``main``,
    from a directory under tmp_path, so a file a line writes lands there."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    code = [text for lang, text in blocks if lang == "python"]
    lines = [line for lang, text in blocks if lang != "python"
             for line in text.splitlines() if line.startswith("pgakit ")]
    assert code and lines
    namespace = {}
    for text in code:
        exec(text, namespace)
    (tmp_path / "scenes").symlink_to(SCENES)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()

"""Command line front end: constructions, simulation, invariant checks.

Exit codes are a stable contract: 0 success, 1 domain error (geometry,
expression, divergence), 2 usage error (flags, malformed scene files).

A scene is a JSON file in UTF-8 (RFC 8259).  ``load_scene`` reads its
bytes once; CR and CRLF line ends read as LF, as text mode reads them,
so error positions count lines the same way.  ``algebra`` picks the
model, ``entities`` binds names the expression language can see, and
``dynamics`` configures a rigid-body run.  Each field, its JSON type and
its default (a field with no default is required):

    algebra               object     {"model": "pga", "n": 3}
      model               string     "pga" ("pga" or "cga")
      n                   integer    3 (pga: 2 or 3; cga: 3)
    entities              object     {}; each name maps to an object
                                     (a name is one identifier, not a
                                     blade such as e1, so expressions
                                     can refer to it):
      type                string     "point", "line", "plane", "multivector"
      coords              n numbers  (point)
      from, to            n numbers  (line through two points)
      coeffs              numbers    (plane: n + 1; multivector: one per blade)
    dynamics              object     absent; ``simulate`` needs it
      inertia             object
        moments           3 numbers
        mass              number     1.0
      pose                object     the identity
        center, axis      3 numbers  [0, 0, 0], [0, 0, 1]
        angle             number     0.0 (radians)
        displacement      number     0.0
      momentum            object     at rest
        angular, linear   3 numbers  [0, 0, 0] each
      h                   number     0.001 (positive)
      steps               integer    1000 (at least 1)
      renormalize         boolean    true

A number is a JSON integer or float, never ``true``/``false``; an integer
field takes only a JSON integer, so ``"steps": 1e4`` is refused.  A value
of the wrong type, and a non-finite number (``NaN``, ``Infinity``,
``1e400``), is a usage error (exit 2).

In a "cga" scene, points embed onto the null cone and the wedge spans
instead of meeting; ``construct`` refuses such scenes because its
expressions assume plane-based operators.

``main`` parses once per call.  When argv[0] names a command, the rest
goes straight to that command's own parser, one of the objects
``build_parsers`` made, as argparse's subparsers action would pass it;
only an argv that names no command (none, ``-h``, an unknown word) runs
the top-level parser.  Help, usage and error text therefore come from
the same parser objects either way, and leftover arguments still end in
the top-level parser's "unrecognized arguments" error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import conformal, dynamics, euclid, motors
from . import expr as dsl
from .algebra import Algebra, GAError, GeometryError, Multivector, cga, norm_of, pga
from .duality import j_map, join, meet, polarity

DEFAULT_EXPRESSION = "((Pi | P) ^ Pi) & P"


class SceneError(GAError):
    """Malformed configuration; reported as a usage error (exit 2)."""


# -- scene loading -----------------------------------------------------------


class Scene:
    def __init__(self, algebra: Algebra, entities: dict[str, Multivector],
                 dynamics_block):
        self.algebra = algebra
        self.entities = entities
        self.dynamics_block = dynamics_block


_KINDS = {dict: "an object", str: "a string", bool: "true or false",
          int: "an integer", float: "a number"}


def _field(block: dict, key: str, kind, default=None):
    """Read ``block[key]`` as ``kind``: dict, str, bool, int, float, or a
    count n for a list of n numbers (a float array).  Types are exact, so
    ``true`` is no number, but a float field takes an integer.  A missing
    key takes ``default``; with none, or a wrong type, it is a SceneError."""
    value = block.get(key, default)
    if isinstance(kind, int):
        if type(value) is list and len(value) == kind and all(
                type(x) in (int, float) for x in value):
            return np.array([float(x) for x in value])
        raise SceneError(f"{key!r} must be a list of {kind} numbers")
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise SceneError(f"{key!r} must be " + _KINDS[kind])
    return value


def _build_entity(alg: Algebra, name: str, blocks) -> Multivector:
    block = _field(blocks, name, dict)
    if not dsl.is_name(name):  # e1 parses as a blade
        raise SceneError(f"entity {name!r}: expressions cannot refer to"
                         " this name; use one identifier that is not a blade")
    model, n = alg.model, alg.n
    try:
        kind = _field(block, "type", str)
        if kind == "point":
            coords = _field(block, "coords", n)
            if model == "pga":
                return euclid.point(alg, *coords)
            return conformal.up(alg, coords)
        if kind == "plane" and model == "pga":
            return euclid.plane(alg, *_field(block, "coeffs", n + 1))
        if kind == "line" and model == "pga":
            return euclid.line_from_points(
                euclid.point(alg, *_field(block, "from", n)),
                euclid.point(alg, *_field(block, "to", n)))
        if kind == "multivector":
            return alg.from_coeffs(_field(block, "coeffs", alg.size))
    except GAError as e:
        raise SceneError(f"entity {name!r}: {e}") from None
    raise SceneError(f"entity {name!r}: no {kind!r} entities"
                     f" in a {model} scene")


def _finite(token: str) -> float:
    """JSON number hook: the token's float, refusing NaN, Infinity and
    literals past the float range."""
    value = float(token)
    if not math.isfinite(value):
        raise SceneError(f"scene number {token} is not finite")
    return value


def _finite_int(token: str) -> int:
    _finite(token)  # an integer past the float range is refused too
    return int(token)


# the decoder json.loads would build on every call with these hooks
_SCENE_JSON = json.JSONDecoder(parse_float=_finite, parse_int=_finite_int,
                               parse_constant=_finite)


def load_scene(path: str) -> Scene:
    try:
        with open(path, "rb", buffering=0) as f:  # one read: no buffer
            raw = f.read()
        # RFC 8259: JSON exchanged between systems is UTF-8
        text = raw.decode("utf-8")
        if "\r" in text:  # the newlines a text-mode read translates
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads' own check and text
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _SCENE_JSON.decode(text)
    except OSError as e:
        raise SceneError(f"cannot read scene: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SceneError(f"scene is not valid JSON: {e}") from None
    except RecursionError:
        raise SceneError("scene is not valid JSON:"
                         " arrays and objects nest too deeply") from None
    if not isinstance(doc, dict):
        raise SceneError("scene must be a JSON object")

    algebra_block = _field(doc, "algebra", dict, {})
    model = _field(algebra_block, "model", str, "pga")
    n = _field(algebra_block, "n", int, 3)
    if model == "pga":
        if n not in (2, 3):
            raise SceneError("pga scenes support n = 2 or 3")
        alg = pga(n)
    elif model == "cga":
        if n != 3:
            raise SceneError("cga scenes support n = 3")
        alg = cga(n)
    else:
        raise SceneError(f"unknown algebra model {model!r}")

    blocks = _field(doc, "entities", dict, {})
    entities = {name: _build_entity(alg, name, blocks) for name in blocks}
    return Scene(alg, entities, _field(doc, "dynamics", dict, {}))


def _dynamics_setup(scene: Scene, args):
    block = scene.dynamics_block
    if not block:
        raise SceneError("scene has no dynamics block")
    if (scene.algebra.model, scene.algebra.n) != ("pga", 3):
        raise SceneError("dynamics runs in the 3D plane-based algebra")

    inertia_block = _field(block, "inertia", dict)
    inertia = dynamics.InertiaOperator(
        _field(inertia_block, "moments", 3),
        _field(inertia_block, "mass", float, 1.0))

    pose_block = _field(block, "pose", dict, {})
    try:
        pose = motors.motor_from_screw(
            scene.algebra, _field(pose_block, "center", 3, [0, 0, 0]),
            _field(pose_block, "axis", 3, [0, 0, 1]),
            _field(pose_block, "angle", float, 0.0),
            _field(pose_block, "displacement", float, 0.0))
    except GeometryError as e:  # a screw too large, or a zero axis
        raise SceneError(f"'pose': {e}") from None

    momentum_block = _field(block, "momentum", dict, {})
    momentum = dynamics.bivector_from_vectors(
        scene.algebra, _field(momentum_block, "angular", 3, [0, 0, 0]),
        _field(momentum_block, "linear", 3, [0, 0, 0]))

    h = _field(block, "h", float, 1e-3) if args.h is None else args.h
    steps = _field(block, "steps", int, 1000) if args.steps is None \
        else args.steps
    if not 0.0 < h < math.inf:
        raise SceneError("step size h must be positive and finite")
    if steps < 1:
        raise SceneError("step count must be at least 1")
    renormalize = _field(block, "renormalize", bool, True) \
        and not args.no_renormalize
    return dynamics.BodyState(pose, momentum), inertia, h, steps, renormalize


# -- subcommands --------------------------------------------------------------


def _banner(alg: Algebra) -> str:
    wedge = "meet" if alg.model == "pga" else "span"
    return f"# algebra {alg.model}({alg.n}): '^' is {wedge}, '&' is join"


def cmd_construct(args) -> int:
    scene = load_scene(args.scene)
    if scene.algebra.model != "pga":
        raise SceneError("construct needs a plane-based scene;"
                         " its operators assume the dual algebra")
    source = args.expression or DEFAULT_EXPRESSION
    result = dsl.evaluate(dsl.parse(source), scene.algebra, scene.entities)

    print(_banner(scene.algebra))
    print(f"expression: {source}")
    scale = max((e.norm() for e in scene.entities.values()), default=1.0)
    if result.norm() <= 1e-12 * max(1.0, scale):
        _fail("meet degenerates")
        return 1
    print(f"result: {result}")

    p, line = scene.entities.get("P"), scene.entities.get("Pi")
    if p is not None:
        hit = euclid.incident(result, p)
        print("incident: " + ("yes" if hit else "no"))
    if line is not None and euclid.flat_kind(result) == "line" \
            and euclid.flat_kind(line) == "line":
        u, v = euclid.direction(result), euclid.direction(line)
        ortho = abs(u @ v) <= 1e-9 * max(1e-30, norm_of(u) * norm_of(v))
        print("orthogonal: " + ("yes" if ortho else "no"))
    return 0


def cmd_simulate(args) -> int:
    scene = load_scene(args.scene)
    state, inertia, h, steps, renormalize = _dynamics_setup(scene, args)
    if args.out:
        try:
            with open(args.out, "w") as f:
                dynamics.write_trajectory(f, state, inertia, h,
                                          steps, renormalize)
        except OSError as e:
            raise SceneError(f"cannot write output: {e}") from None
    else:
        dynamics.write_trajectory(sys.stdout, state, inertia, h,
                                  steps, renormalize)
    return 0


def cmd_eval(args) -> int:
    if args.scene:
        scene = load_scene(args.scene)
    else:
        scene = Scene(pga(3), {}, None)
    result = dsl.evaluate(dsl.parse(args.expression), scene.algebra,
                          scene.entities)
    sys.stdout.write(f"{_banner(scene.algebra)}\n{result}\n")
    return 0


# -- invariant suites for `check` ---------------------------------------------


def _expect(ok, message: str) -> None:
    """An invariant of ``check``: AssertionError(message) unless ``ok``.
    Unlike an ``assert`` statement, ``python -O`` does not remove it."""
    if not ok:
        raise AssertionError(message)


def _suite_core(rng):
    alg = pga(3)
    for _ in range(5):
        a, b, c = (alg.from_coeffs(rng.uniform(-2, 2, alg.size))
                   for _ in range(3))
        left, right = a.gp(b).gp(c), a.gp(b.gp(c))
        _expect(left.close_to(right, tol=1e-10 * max(1.0, left.norm())),
                "geometric product is not associative")
        dense = a.gp_dense(b)
        _expect(np.array_equal(dense.coeffs, a.gp(b).coeffs),
                "dense and sparse kernels disagree")


def _suite_duality(rng):
    for alg in (pga(2), pga(3)):
        for _ in range(5):
            x = alg.from_coeffs(rng.uniform(-2, 2, alg.size))
            y = alg.from_coeffs(rng.uniform(-2, 2, alg.size))
            _expect(j_map(j_map(x)).close_to(x, tol=0.0),
                    "complement map is not an involution")
            lhs, rhs = j_map(meet(x, y)), join(j_map(x), j_map(y))
            _expect(lhs.close_to(rhs, tol=1e-12 * max(1.0, lhs.norm())),
                    "complement does not exchange meet and join")
        _expect(polarity(alg.pseudoscalar()).norm() == 0.0,
                "polarity of the pseudoscalar should vanish")


def _suite_flats(rng):
    alg = pga(3)
    for _ in range(10):
        a, b = rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3)
        got = euclid.distance(euclid.point(alg, *a), euclid.point(alg, *b))
        _expect(abs(got - norm_of(a - b)) <= 1e-10 * max(1.0, got),
                "distance routes disagree with coordinates")
    p = euclid.point(alg, 1.0, 2.0, 0.5)
    axis = euclid.line_from_points(euclid.point(alg, 0, 0, 0),
                                   euclid.point(alg, 0, 0, 1))
    drop = euclid.perpendicular_through_point(axis, p)
    _expect(euclid.incident(drop, p), "perpendicular misses its point")
    _expect(abs(euclid.direction(drop) @ euclid.direction(axis)) < 1e-9,
            "perpendicular is not orthogonal")


def _suite_motors(rng):
    alg = pga(3)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= norm_of(axis)
        gen = motors.screw_generator(
            motors.axis_line(alg, rng.uniform(-2, 2, 3), axis),
            rng.uniform(0.05, 3.0), rng.uniform(-2, 2))
        back = motors.log_versor(motors.exp_bivector(gen))
        _expect(back.close_to(gen, tol=1e-10 * max(1.0, gen.norm())),
                "exp/log round trip failed")
    g = motors.motor_from_screw(alg, [1, 0, 0], [0, 1, 0], 0.9, 0.4)
    p = euclid.point(alg, 2.0, -1.0, 3.0)
    q = euclid.point(alg, -1.0, 0.5, 1.0)
    before = euclid.distance(p, q)
    after = euclid.distance(motors.sandwich(g, p), motors.sandwich(g, q))
    _expect(abs(after - before) <= 1e-10 * before,
            "motor does not preserve distance")


def _suite_dynamics(rng):
    alg = pga(3)
    inertia = dynamics.InertiaOperator((1.0, 2.0, 3.0), 1.0)
    state = dynamics.BodyState(
        alg.scalar(1.0),
        dynamics.bivector_from_vectors(alg, [12.0, 10.0, -8.0], [0, 0, 0]))
    e0 = dynamics.energy(state, inertia)
    m0 = dynamics.spatial_momentum(state)
    final = dynamics.integrate(state, inertia, 1e-3, 200)
    _expect(abs(dynamics.energy(final, inertia) - e0) <= 1e-9 * e0,
            "energy drifted")
    drift = (dynamics.spatial_momentum(final) - m0).norm()
    _expect(drift <= 1e-9 * m0.norm(), "spatial momentum drifted")


def _suite_conformal(rng):
    alg, calg = pga(3), cga(3)
    for _ in range(20):
        a, b = rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)
        d_dual = euclid.distance(euclid.point(alg, *a), euclid.point(alg, *b))
        d_null = conformal.cga_distance(conformal.up(calg, a),
                                        conformal.up(calg, b))
        _expect(abs(d_dual - d_null) <= 1e-10 * max(1.0, d_dual),
                "models disagree about distance")


def _suite_dsl(rng):
    alg = pga(3)
    ast = dsl.parse(DEFAULT_EXPRESSION)
    _expect(dsl.parse(dsl.to_text(ast)) == ast, "round trip broke the AST")
    a = alg.from_coeffs(rng.uniform(-2, 2, alg.size))
    b = alg.from_coeffs(rng.uniform(-2, 2, alg.size))
    got = dsl.evaluate(dsl.parse("a * b"), alg, {"a": a, "b": b})
    _expect(np.array_equal(got.coeffs, a.gp(b).coeffs),
            "evaluator disagrees with the library")


_SUITES = (
    ("ga-core", _suite_core),
    ("duality", _suite_duality),
    ("flats", _suite_flats),
    ("motors", _suite_motors),
    ("dynamics", _suite_dynamics),
    ("conformal", _suite_conformal),
    ("dsl", _suite_dsl),
)


def cmd_check(args) -> int:
    print(f"# seed={args.seed}")
    failures = 0
    for index, (name, suite) in enumerate(_SUITES):
        rng = np.random.default_rng((args.seed, index))
        try:
            suite(rng)
        except (AssertionError, GAError) as e:
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok {name}")
    return 1 if failures else 0


# -- argument plumbing ---------------------------------------------------------


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The top-level parser, built once, and each command's own parser by
    name: the subparsers action's ``choices``."""
    parser = argparse.ArgumentParser(
        prog="pgakit",
        description="plane-based geometric algebra: constructions,"
                    " rigid-body runs, invariant checks")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="evaluate a construction against a scene")
    construct.add_argument("--scene", required=True)
    construct.add_argument("expression", nargs="?",
                           help=f"default: {DEFAULT_EXPRESSION}")
    construct.set_defaults(func=cmd_construct)

    simulate = sub.add_parser(
        "simulate", help="integrate the scene's rigid body, CSV out")
    simulate.add_argument("--scene", required=True)
    simulate.add_argument("--steps", type=int, default=None)
    simulate.add_argument("--h", type=float, default=None)
    simulate.add_argument("--no-renormalize", action="store_true")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=cmd_simulate)

    evaluate = sub.add_parser("eval", help="evaluate one expression",
                              usage="%(prog)s [-h] [--scene SCENE] expression")
    evaluate.add_argument("--scene", default=None)
    evaluate.add_argument("expression", nargs="?")  # required; see main
    evaluate.set_defaults(func=cmd_eval, parser=evaluate)

    check = sub.add_parser("check", help="run the invariant suites")
    check.add_argument("--seed", type=_seed, default=0)
    check.set_defaults(func=cmd_check)
    return parser, sub.choices


def _fail(message: str) -> None:
    # flush first so redirected output keeps program order
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    print(f"error: {message}", file=sys.stderr)


def _drop_stdout() -> None:
    """Send the rest of stdout, including the flush at exit, to devnull
    once its reader has gone (``| head``), instead of a traceback."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # usage, help or an invalid choice
        args, extra = parser.parse_known_args(argv)
    else:  # what the subparsers action would do, without the outer pass
        args, extra = command.parse_known_args(argv[1:])
        args.command = argv[0]
    # argparse takes an expression that starts with a minus for an option
    if getattr(args, "expression", "") is None and len(extra) == 1 \
            and not extra[0].startswith("--"):
        args.expression, extra = extra[0], []
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    if args.func is cmd_eval and args.expression is None:
        args.parser.error("the following arguments are required: expression")
    try:
        # non-finite values are reported as errors, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except SceneError as e:
        _fail(str(e))
        return 2
    except GAError as e:
        _fail(str(e))
        return 1
    except BrokenPipeError:
        _drop_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())

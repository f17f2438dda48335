"""The three benchmark workloads: seeded inputs, one op each, and its oracle.

A workload draws a fixed-size pool of ops from the seed before anything
is timed and writes the scene files those ops read.  ``execute`` is the
timed part: it drives pgakit through ``cli.main`` and the modules' public
functions and returns what the program produced.  ``check`` compares that
with ``oracle``, which never calls pgakit, and returns figures for the
per-layer report.

Every pool is stratified by index, so the mix of op shapes (algebra,
expression, zero or nonzero linear momentum, renormalisation) is the same
for every seed and only the numbers vary.  The mixes are uneven on
purpose: the median op sits inside one stratum, not on the edge between
two, so ``call_p50_ms`` does not jump between strata from run to run.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from pgakit import cga, cli, conformal, euclid, motors, pga

import oracle
from oracle import require


def run_cli(argv: list[str]) -> str:
    """In-process ``pgakit`` call that must exit 0; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    require(code == 0, f"pgakit {argv[0]} exited {code}: {err.getvalue()!r}")
    return out.getvalue()


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _write_scene(path: str, doc: dict) -> str:
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def _close(got: float, want: float, scale: float, what: str) -> None:
    require(abs(got - want) <= 1e-9 * max(1.0, scale),
            f"{what}: got {got!r}, expected {want!r}")


def _close_vec(got, want, what: str) -> None:
    got, want = np.asarray(got, float), np.asarray(want, float)
    err = float(np.max(np.abs(got - want)))
    require(err <= 1e-9 * max(1.0, float(np.max(np.abs(want)))),
            f"{what}: off by {err:.3g}")


# -- rigid_body -------------------------------------------------------------------


class RigidBody:
    """An op is one ``simulate`` call on a seeded scene, CSV to a file."""

    name = "rigid_body"
    algebras = ("pga3",)
    POOL = 6
    STEPS = 50
    H = 1e-3
    work_per_op = STEPS  # integrator steps, one CSV row each
    # relative drift allowed over STEPS steps of RK4 at these momenta
    DRIFT_TOL = 1e-7

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.workdir = workdir
        self.ops = [self._scene(rng, i) for i in range(self.POOL)]
        self.digests: dict[int, str] = {}

    def _scene(self, rng, i: int) -> dict:
        moments = rng.uniform(1.0, 4.0, 3)
        angular = _unit(rng, 3) * rng.uniform(5.0, 15.0)
        # one scene in six spins in place, like scenes/euler_top.json
        linear = np.zeros(3) if i % 6 == 0 else \
            _unit(rng, 3) * rng.uniform(0.5, 3.0)
        doc = {
            "algebra": {"model": "pga", "n": 3},
            "entities": {},
            "dynamics": {
                "inertia": {"moments": moments.tolist(),
                            "mass": float(rng.uniform(0.5, 3.0))},
                "pose": {"center": rng.uniform(-2.0, 2.0, 3).tolist(),
                         "axis": _unit(rng, 3).tolist(),
                         "angle": float(rng.uniform(0.2, 3.0)),
                         "displacement": float(rng.uniform(-1.0, 1.0))},
                "momentum": {"angular": angular.tolist(),
                             "linear": linear.tolist()},
                "h": self.H,
                "steps": self.STEPS,
                "renormalize": i % 6 != 3,
            },
        }
        base = os.path.join(self.workdir, f"body{i}")
        return {"index": i, "scene": _write_scene(base + ".json", doc),
                "csv": base + ".csv",
                "body": {**doc["dynamics"]["inertia"],
                         **doc["dynamics"]["momentum"]}}

    def execute(self, op):
        return run_cli(["simulate", "--scene", op["scene"],
                        "--out", op["csv"]])

    def check(self, op, result) -> dict:
        with open(op["csv"], "rb") as f:
            data = f.read()
        stats = oracle.check_trajectory(data, self.STEPS, self.H,
                                        op["body"], self.DRIFT_TOL)
        first = self.digests.setdefault(op["index"], stats["sha256"])
        require(stats["sha256"] == first, "rerun of a scene changed its CSV")
        stats["csv_bytes"] = len(data)
        return stats


# -- geometry --------------------------------------------------------------------------

EXPRESSIONS = {
    "perpendicular": cli.DEFAULT_EXPRESSION,
    "meet": "F ^ Pi",
    "join": "P & Q",
    "contraction": "Pi | P",
}


class Geometry:
    """An op is one construction task in pga(2) or pga(3): a ``construct``
    call, a distance, and a screw motor applied and round-tripped."""

    name = "geometry"
    algebras = ("pga2", "pga3")
    POOL = 16
    work_per_op = 1

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.algebra = {2: pga(2), 3: pga(3)}
        kinds = list(EXPRESSIONS)
        # three of four tasks in pga(3), every expression in both
        self.ops = [self._task(rng, i, 2 if i % 4 == 3 else 3,
                               kinds[i // 4 % 4], workdir)
                    for i in range(self.POOL)]

    def _task(self, rng, i: int, n: int, kind: str, workdir: str) -> dict:
        while True:
            a, b, p, q = (rng.uniform(-5.0, 5.0, n) for _ in range(4))
            u = (b - a) / np.linalg.norm(b - a)
            normal = _unit(rng, n)
            foot = a + ((p - a) @ u) * u
            if (np.linalg.norm(b - a) > 0.5 and np.linalg.norm(p - q) > 0.5
                    and np.linalg.norm(p - foot) > 0.5
                    and abs(normal @ u) > 0.3):
                break
        offset = float(rng.uniform(-3.0, 3.0))
        entities = {"Pi": {"type": "line", "from": a.tolist(),
                           "to": b.tolist()}}
        if kind == "meet":
            entities["F"] = {"type": "plane",
                             "coeffs": normal.tolist() + [offset]}
        else:
            entities["P"] = {"type": "point", "coords": p.tolist()}
        if kind == "join":
            entities = {"P": entities["P"],
                        "Q": {"type": "point", "coords": q.tolist()}}
        doc = {"algebra": {"model": "pga", "n": n}, "entities": entities}
        path = _write_scene(os.path.join(workdir, f"construct{i}.json"), doc)
        return {"n": n, "kind": kind, "scene": path, "a": a, "b": b,
                "p": p, "q": q, "u": u, "foot": foot, "normal": normal,
                "offset": offset, "center": rng.uniform(-2.0, 2.0, n),
                "axis": _unit(rng, 3), "angle": float(rng.uniform(0.2, 3.0)),
                "slide": float(rng.uniform(-1.0, 1.0))}

    def execute(self, op):
        alg = self.algebra[op["n"]]
        text = run_cli(["construct", "--scene", op["scene"],
                           EXPRESSIONS[op["kind"]]])
        p, q = euclid.point(alg, *op["p"]), euclid.point(alg, *op["q"])
        drop = None
        if op["kind"] == "perpendicular":  # the library route as well
            line = euclid.line_from_points(euclid.point(alg, *op["a"]),
                                           euclid.point(alg, *op["b"]))
            drop = euclid.perpendicular_through_point(line, p).coeffs
        if op["n"] == 3:
            motor = motors.motor_from_screw(alg, op["center"], op["axis"],
                                            op["angle"], op["slide"])
        else:
            motor = motors.rotation_about_point(
                euclid.point(alg, *op["center"]), op["angle"])
        p2, q2 = motors.sandwich(motor, p), motors.sandwich(motor, q)
        back = motors.exp_bivector(motors.log_versor(motor))
        return {"text": text, "distance": euclid.distance(p, q),
                "moved_distance": euclid.distance(p2, q2),
                "moved": p2.coeffs, "motor": motor.coeffs,
                "round_trip": back.coeffs, "drop": drop}

    def check(self, op, result) -> dict:
        n, kind = op["n"], op["kind"]
        fields = oracle.output_fields(result["text"])
        got = oracle.parse_multivector(fields.get("result", ""), n + 1)
        p, q = op["p"], op["q"]
        if kind == "perpendicular":
            want = oracle.join(oracle.pga_point(op["foot"]),
                               oracle.pga_point(p))
            require(oracle.parallel(got, want, 1e-9)
                    and oracle.parallel(result["drop"], want, 1e-9),
                    "perpendicular misses the numpy foot")
        elif kind == "meet":
            a, d = op["a"], op["b"] - op["a"]
            t = -(op["normal"] @ a + op["offset"]) / (op["normal"] @ d)
            require(oracle.parallel(got, oracle.pga_point(a + t * d), 1e-9),
                    "meet is not the numpy intersection")
        elif kind == "join":
            want = oracle.join(oracle.pga_point(p), oracle.pga_point(q))
            require(oracle.parallel(got, want, 1e-9), "join is off")
        else:
            normal, off = got[2:n + 2], got[1]
            require(np.count_nonzero(got) == np.count_nonzero(got[1:n + 2]),
                    "contraction of a line onto a point is not grade 1")
            require(oracle.parallel(normal, op["u"], 1e-9),
                    "contraction is not orthogonal to the line")
            require(abs(normal @ p + off) <= 1e-9 * np.linalg.norm(normal)
                    * max(1.0, np.linalg.norm(p)),
                    "contraction misses the point")
        if kind != "meet":
            require(fields.get("incident") == "yes", "construct: not incident")
        if kind == "perpendicular" or (kind == "contraction" and n == 2):
            require(fields.get("orthogonal") == "yes",
                    "construct: not orthogonal")

        dist = float(np.linalg.norm(p - q))
        _close(result["distance"], dist, dist, "distance")
        _close(result["moved_distance"], dist, dist, "motor changed distance")
        c = op["center"]
        if n == 3:
            moved = c + oracle.rodrigues(p - c, op["axis"], op["angle"]) \
                + op["slide"] * op["axis"]
        else:
            cs, sn = np.cos(op["angle"]), np.sin(op["angle"])
            moved = c + np.array([[cs, -sn], [sn, cs]]) @ (p - c)
        require(oracle.parallel(result["moved"], oracle.pga_point(moved),
                                1e-9), "motor moved the point wrongly")
        _close_vec(result["round_trip"], result["motor"], "exp(log(motor))")
        return {}


# -- conformal ----------------------------------------------------------------------------


class Conformal:
    """An op is one cga(3) cross-check on a seeded pair of points."""

    name = "conformal"
    algebras = ("pga3", "cga3")
    POOL = 16
    work_per_op = 1
    EXPRESSION = "P | Q"

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.calg, self.alg = cga(3), pga(3)
        self.ops = [self._task(rng, i, workdir) for i in range(self.POOL)]

    def _task(self, rng, i: int, workdir: str) -> dict:
        while True:
            a, b = rng.uniform(-5.0, 5.0, 3), rng.uniform(-5.0, 5.0, 3)
            if np.linalg.norm(a - b) > 0.5:
                break
        doc = {"algebra": {"model": "cga", "n": 3},
               "entities": {"P": {"type": "point", "coords": a.tolist()},
                            "Q": {"type": "point", "coords": b.tolist()}}}
        path = _write_scene(os.path.join(workdir, f"cga{i}.json"), doc)
        return {"scene": path, "a": a, "b": b, "axis": _unit(rng, 3),
                "angle": float(rng.uniform(0.2, 3.0)),
                "shift": rng.uniform(-3.0, 3.0, 3)}

    def execute(self, op):
        calg, a, b = self.calg, op["a"], op["b"]
        p, q = conformal.up(calg, a), conformal.up(calg, b)
        versor = conformal.translator(calg, op["shift"]).gp(
            conformal.rotor(calg, op["axis"], op["angle"]))
        line = euclid.line_from_points(euclid.point(self.alg, *a),
                                       euclid.point(self.alg, *b))
        text = run_cli(["eval", "--scene", op["scene"], self.EXPRESSION])
        return {"down": (conformal.down(p), conformal.down(q)),
                "distance": conformal.cga_distance(p, q),
                "moved": conformal.down(motors.sandwich(versor, p)),
                "flat": conformal.flat_rep(line).coeffs, "text": text}

    def check(self, op, result) -> dict:
        a, b = op["a"], op["b"]
        _close_vec(result["down"][0], a, "down(up(a))")
        _close_vec(result["down"][1], b, "down(up(b))")
        dist = float(np.linalg.norm(a - b))
        _close(result["distance"], dist, dist, "cga_distance")
        _close_vec(result["moved"],
                   oracle.rodrigues(a, op["axis"], op["angle"]) + op["shift"],
                   "rotor then translator")

        flat = result["flat"]
        require(np.count_nonzero(flat) > 0 and not np.any(
            flat[np.array([bin(m).count("1") != 3
                           for m in oracle.blade_order(5)])]),
                "flat_rep of a line is not a 3-blade")
        side = np.cross(b - a, np.eye(3)[np.argmin(np.abs(b - a))])
        side /= np.linalg.norm(side)
        for t, off in ((-0.5, 0.0), (0.5, 0.0), (1.5, 0.0), (0.5, 1.0)):
            x = oracle.cga_up(a + t * (b - a) + off * side)
            size = np.linalg.norm(x) * np.linalg.norm(flat)
            resid = np.linalg.norm(oracle.wedge(x, flat))
            if off:
                require(resid > 1e-6 * size, "flat_rep contains a point off the line")
            else:
                require(resid <= 1e-9 * size, "flat_rep misses a point on the line")

        lines = result["text"].splitlines()
        require(len(lines) == 2 and lines[0].startswith("# algebra cga(3)"),
                f"eval printed {result['text']!r}")
        got = oracle.parse_multivector(lines[1], 5)
        _close(got[0], -0.5 * dist * dist, dist * dist, "eval P | Q")
        require(np.count_nonzero(got[1:]) == 0, "eval P | Q is not a scalar")
        return {}


WORKLOADS = {w.name: w for w in (RigidBody, Geometry, Conformal)}

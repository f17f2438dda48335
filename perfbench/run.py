"""Run one pgakit benchmark workload from a seed and print its metrics.

    python3 perfbench/run.py --workload rigid_body --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; pgakit is imported from its
``src``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, the machine fingerprint and how the tail
latency was taken.  Both are also written under ``.perfbench_out/``.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` gives the
per-layer metrics: it alternates plain and traced passes over the same
ops and reports span figures per traced pass.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("rigid_body", "geometry", "conformal")
# every thread pool a numpy build may start; runs are single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
BUILD_REPEATS = 3
TAIL_BEYOND = 10
ERRORS_KEPT = 5

# spans reported as <name>.calls and <name>.self_s in the traced run
SPAN_METRICS = (
    "algebra.gp", "algebra.outer", "algebra.left_contract",
    "duality.join", "duality.j_map",
    "euclid.point", "euclid.distance", "euclid.perpendicular_through_point",
    "motors.sandwich", "motors.exp_bivector", "motors.log_versor",
    "dynamics.rk4_step", "dynamics.csv_row",
    "conformal.up", "conformal.cga_distance", "conformal.flat_rep",
    "expr.parse", "expr.evaluate",
    "cli.load_scene", "cli.main",
)


class Tally:
    """Outcome of every op run, and latencies of the timed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.latencies_ns: list[int] = []  # thread CPU time per op
        self.wall_ns: list[int] = []
        self.errors: list[str] = []
        self.figures: dict[int, dict] = {}  # latest check figures per op


def run_pass(load, tally: Tally, timed: bool) -> float:
    """One pass over the op pool; returns CPU seconds spent in execute.

    Ops are timed by the thread's CPU clock.  pgakit is single-threaded
    and CPU-bound, so that is its wall time minus the time the host gives
    the CPU to other tenants.  Wall times are kept for the detail record.
    """
    busy = 0
    for index, op in enumerate(load.ops):
        tally.attempted += 1
        try:
            start, cpu = time.perf_counter_ns(), time.thread_time_ns()
            result = load.execute(op)
            elapsed = time.thread_time_ns() - cpu
            wall = time.perf_counter_ns() - start
            figures = load.check(op, result)
        except (Exception, SystemExit) as e:  # every failure is counted
            tally.failed += 1
            if len(tally.errors) < ERRORS_KEPT:
                tally.errors.append(f"{load.name}[{index}] "
                                    f"{type(e).__name__}: {e}")
            continue
        busy += elapsed
        tally.figures[index] = figures
        if timed:
            tally.latencies_ns.append(elapsed)
            tally.wall_ns.append(wall)
            tally.work += load.work_per_op
    return busy * 1e-9


def setup_time(algebras) -> float:
    """Cold import-and-build time in a fresh interpreter, at reference
    speed."""
    import reference

    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *algebras]
    done = subprocess.run(probe, capture_output=True, text=True, check=True,
                          timeout=120)
    setup, ref = (float(x) for x in done.stdout.split()[-2:])
    return setup * reference.NOMINAL_S / ref


def build_times() -> dict[str, float]:
    """Median in-process table build per algebra, bypassing the cache."""
    from pgakit.algebra import Algebra, Signature

    signatures = {"pga2": Signature(2, 0, 1, orientation="dual"),
                  "pga3": Signature(3, 0, 1, orientation="dual"),
                  "cga3": Signature(4, 1, 0)}
    out = {}
    for name, sig in signatures.items():
        times = []
        for _ in range(BUILD_REPEATS):
            start = time.perf_counter()
            Algebra(sig)
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    return out


def fingerprint() -> dict:
    import numpy

    # look for a repository at the checkout root only, and read no config
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": sha}


def end_to_end(load, tally: Tally, seconds: float, detail: dict) -> dict:
    import reference

    run_pass(load, tally, timed=False)  # warm-up: lazy tables, first CSVs
    # the reference loop is timed before the first pass and after every
    # pass; passes are (first op, op count, index of the loop before it)
    setups, refs, passes = [], [reference.cpu_seconds()], []
    elapsed = 0.0
    while elapsed < seconds:
        start, first = time.perf_counter(), len(tally.latencies_ns)
        run_pass(load, tally, timed=True)
        passes.append((first, len(tally.latencies_ns) - first, len(refs) - 1))
        refs.append(reference.cpu_seconds())
        elapsed += time.perf_counter() - start
        # set-up probes are spread over the run; a probe leaves this
        # process's caches cold, so the pass after it is not timed
        if len(setups) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            setups.append(setup_time(load.algebras))
            run_pass(load, tally, timed=False)
            refs.append(reference.cpu_seconds())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(load.algebras))

    if not tally.latencies_ns:
        return {}
    # each pass at reference speed; the median over the loops around it
    # ignores a loop that was itself interrupted
    scale = []
    for first, count, before in passes:
        window = refs[max(0, before - 2):before + 4]
        scale += [reference.NOMINAL_S / statistics.median(window)] * count
    lat = [t * f * 1e-6 for t, f in zip(tally.latencies_ns, scale)]
    cpu = sorted(t * 1e-6 for t in tally.latencies_ns)
    wall = sorted(t * 1e-6 for t in tally.wall_ns)
    n = len(cpu)
    beyond = min(TAIL_BEYOND, n - 1)
    detail["tail"] = {"percentile": 100.0 * (n - beyond) / n,
                      "samples": n, "beyond": beyond}
    detail["passes"] = len(passes)
    detail["reference_ms"] = statistics.median(refs) * 1e3
    detail["cpu_ms"] = {"p50": statistics.median(cpu),
                        "tail": cpu[n - 1 - beyond]}
    detail["wall_ms"] = {"p50": statistics.median(wall),
                         "tail": wall[n - 1 - beyond]}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (tally.work / (sum(lat) * 1e-3), "1/s"),
        "call_p50_ms": (statistics.median(lat), "ms"),
        # not scaled: the slowest ops are slow for reasons (collections,
        # interrupts) that do not follow the host's speed
        "call_tail_ms": (cpu[n - 1 - beyond], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(load, tally: Tally, seconds: float, spans_path: Path) -> dict:
    import spans

    run_pass(load, tally, timed=False)  # warm-up
    builds = build_times()
    recorder = spans.Recorder()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(load, tally, timed=False))
        recorder.install()
        try:
            traced.append(run_pass(load, tally, timed=False))
        finally:
            recorder.remove()
        if time.perf_counter() - start >= seconds:
            break

    passes = len(traced)
    totals = recorder.totals()
    out = {}
    for name in SPAN_METRICS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = (calls / passes, "count")
        out[name + ".self_s"] = (self_s / passes, "s")
    for kind in spans.PRODUCTS:
        pairs, dense = recorder.pairs[kind], recorder.dense_pairs[kind]
        out[f"algebra.{kind}.pairs"] = (pairs / passes, "count")
        out[f"algebra.{kind}.fill"] = (pairs / dense if dense else 0.0,
                                       "ratio")
    out["algebra.multivector.allocs"] = (recorder.allocs / passes, "count")
    for name, secs in builds.items():
        out[f"algebra.build.{name}_s"] = (secs, "s")
    calls, _, incl_s = totals.get("dynamics.rk4_step", (0, 0.0, 0.0))
    out["dynamics.rk4_step.us_per_call"] = (
        incl_s / calls * 1e6 if calls else 0.0, "us")
    figures = tally.figures.values()
    out["dynamics.csv.bytes"] = (
        sum(f.get("csv_bytes", 0) for f in figures), "bytes")
    for metric, key in (("dynamics.energy_drift_rel_max", "energy_drift"),
                        ("dynamics.momentum_drift_rel_max", "momentum_drift"),
                        ("dynamics.motor_norm_defect_max", "norm_defect")):
        out[metric] = (max((f.get(key, 0.0) for f in figures), default=0.0),
                       "ratio")
    plain_s = statistics.median(plain)
    out["trace.overhead_ratio"] = (
        statistics.median(traced) / plain_s if plain_s else 0.0, "ratio")
    recorder.write(str(spans_path))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pgakit" / "__init__.py").is_file():
        print(f"error: no pgakit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    out_dir = ROOT / ".perfbench_out"
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work_dir.mkdir(parents=True)
    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint()}
    try:
        load = workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), str(work_dir))
        if args.trace:
            metrics = per_layer(load, tally, args.seconds,
                                out_dir / f"spans-{args.workload}.csv")
        else:
            metrics = end_to_end(load, tally, args.seconds, detail)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there

    detail["errors"] = tally.errors
    result = {"correct": tally.failed == 0 and bool(metrics),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = out_dir / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({"detail": detail, "result": result},
                                 indent=1) + "\n")
    for line in tally.errors:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

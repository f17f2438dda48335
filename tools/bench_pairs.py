"""Alternating parent/change pairs of perfbench runs, summarised as a
``BENCH_<pr>.json`` file.

    python3 tools/bench_pairs.py --parent REV --seeds 30011-30020 \\
        --out BENCH_30.json --description "what the change is"

The change is this checkout's working tree; the parent is a ``git archive``
of REV, unpacked into a temporary directory.  For each seed, every
workload runs once on each side, the parent first on odd seeds, with
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``.
The workloads, the run length T, the end-to-end metrics and which way
each is better come from ``BENCHMARK.json``.

Per workload the file holds every run, the medians, the parent's
quartiles, the pairs the change wins, and whether each metric is
resolved: the same side is better on at least nine pairs in ten, and the
medians differ that way by more than the parent's quartile spread.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
SIDES = ("parent", "change")


def _better(value: float, than: float, better: str) -> bool:
    return value > than if better == "higher" else value < than


def summarize(seeds, runs, better) -> dict:
    """One workload's record from its runs.

    ``runs[side]`` is the list, in seed order, of perfbench results (the
    ``{"attempted", "failed", "metrics": {name: value}}`` of each run);
    ``better`` maps each end-to-end metric to "higher" or "lower"."""
    values = {side: {name: [r["metrics"][name] for r in runs[side]]
                     for name in better} for side in SIDES}
    out = {"seeds": list(seeds),
           "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
           "attempted_ops": {s: sum(r["attempted"] for r in runs[s])
                             for s in SIDES},
           "runs": values, "median": {}, "parent_quartiles": {}, "wins": {},
           "resolved": {}}
    need = math.ceil(0.9 * len(seeds))  # nine pairs in ten
    for name, way in better.items():
        parent, change = values["parent"][name], values["change"][name]
        median = {s: statistics.median(values[s][name]) for s in SIDES}
        q1, _, q3 = statistics.quantiles(parent, n=4)
        wins = sum(_better(c, p, way) for p, c in zip(parent, change))
        losses = sum(_better(p, c, way) for p, c in zip(parent, change))
        gap = abs(median["change"] - median["parent"]) > q3 - q1
        forward = _better(median["change"], median["parent"], way)
        out["median"][name] = median
        out["parent_quartiles"][name] = [q1, q3]
        out["wins"][name] = wins
        out["resolved"][name] = gap and (wins >= need if forward
                                         else losses >= need)
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its attempted and failed ops and its
    metric values."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} in {tree} exited"
                 f" {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def export(rev: str, dest: Path) -> None:
    """Unpack the committed files of ``rev`` into ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="first-last, e.g. 30011-30020")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for seed in args.seeds:  # interleaved across workloads
            for w in workloads:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    runs[w][side].append(run_once(trees[side], w, seed,
                                                  seconds))
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{s} {runs[w][s][-1]['metrics']['ops_per_s']:.0f}"
                    for s in SIDES), file=sys.stderr)
    record = {"description": args.description,
              "command": COMMAND.format(seconds=seconds),
              "parent": args.parent, "change": "this commit",
              "workloads": {w: summarize(args.seeds, runs[w], better)
                            for w in workloads}}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

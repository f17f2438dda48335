"""The benchmark's own tests: every declared metric is reported, and a
wrong output from pgakit is counted as a failed op.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pgakit.conformal  # noqa: E402
import pgakit.dynamics  # noqa: E402
import pgakit.euclid  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.05", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: (m["unit"],) for name, m in result["metrics"].items()} \
        == {m["name"]: (m["unit"],) for m in declared}
    assert detail["seed"] == 0 and detail["fingerprint"]["nproc"] >= 1


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert [w for w in run.WORKLOADS] == list(workloads.WORKLOADS)


def _run_once(name, tmp_path):
    load = workloads.WORKLOADS[name](np.random.default_rng(5), str(tmp_path))
    tally = run.Tally()
    run.run_pass(load, tally, timed=True)
    return load, tally


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_correct_outputs_pass(name, tmp_path):
    load, tally = _run_once(name, tmp_path)
    assert tally.failed == 0, tally.errors
    assert tally.attempted == len(load.ops) == len(tally.latencies_ns)


def _wrong_row(original):
    def row(t, state, inertia):
        fields = original(t, state, inertia).split(",")
        fields[15] = repr(float(fields[15]) * (1.0 + 1e-6))  # energy
        return ",".join(fields)
    return row


def _scaled(original, factor):
    return lambda *args: original(*args) * factor


@pytest.mark.parametrize("name, module, attr, fake", [
    ("rigid_body", pgakit.dynamics, "csv_row", _wrong_row),
    ("geometry", pgakit.euclid, "distance",
     lambda f: _scaled(f, 1.0 + 1e-6)),
    ("conformal", pgakit.conformal, "cga_distance",
     lambda f: _scaled(f, 1.0 + 1e-6)),
])
def test_wrong_output_is_counted_failed(name, module, attr, fake,
                                        monkeypatch, tmp_path):
    monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
    load, tally = _run_once(name, tmp_path)
    assert tally.failed == tally.attempted == len(load.ops)
    assert tally.latencies_ns == []
    assert all("OracleError" in e for e in tally.errors)


def test_nonzero_exit_is_counted_failed(monkeypatch, tmp_path):
    load = workloads.Geometry(np.random.default_rng(5), str(tmp_path))
    load.ops[0]["scene"] = str(tmp_path / "missing.json")
    tally = run.Tally()
    run.run_pass(load, tally, timed=True)
    assert tally.failed == 1 and "exited 2" in tally.errors[0]

"""``tools/bench_pairs.py``'s summary of a workload's paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SEEDS = list(range(30011, 30021))
BETTER = {"ops_per_s": "higher", "call_p50_ms": "lower"}


def _runs(ops, p50, failed=0):
    return [{"attempted": 100, "failed": failed,
             "metrics": {"ops_per_s": o, "call_p50_ms": p}}
            for o, p in zip(ops, p50)]


def _summary(parent, change):
    return bench_pairs.summarize(SEEDS, {"parent": parent, "change": change},
                                 BETTER)


def test_a_clear_gain_is_resolved():
    parent = _runs([100, 101, 102, 103, 104, 105, 106, 107, 108, 109],
                   [1.0] * 10)
    change = _runs([120, 121, 122, 123, 124, 125, 126, 127, 128, 99],
                   [1.0] * 10, failed=1)
    out = _summary(parent, change)
    assert out["seeds"] == SEEDS
    assert out["runs"]["parent"]["ops_per_s"][:2] == [100, 101]
    assert out["median"]["ops_per_s"] == {"parent": 104.5, "change": 123.5}
    # statistics.quantiles' default (exclusive) method on 100..109
    assert out["parent_quartiles"]["ops_per_s"] == [101.75, 107.25]
    assert out["wins"] == {"ops_per_s": 9, "call_p50_ms": 0}  # ties: no win
    assert out["resolved"] == {"ops_per_s": True, "call_p50_ms": False}
    assert out["failed_ops"] == {"parent": 0, "change": 10}
    assert out["attempted_ops"] == {"parent": 1000, "change": 1000}


def test_eight_wins_are_not_enough():
    parent = _runs(range(100, 110), [1.0] * 10)
    change = _runs([130] * 8 + [90, 90], [1.0] * 10)
    out = _summary(parent, change)
    assert out["wins"]["ops_per_s"] == 8
    assert not out["resolved"]["ops_per_s"]


def test_a_gap_inside_the_parent_spread_is_not_enough():
    parent = _runs(range(100, 110), [1.0] * 10)
    change = _runs(range(103, 113), [1.0] * 10)  # +3, spread 5.5
    out = _summary(parent, change)
    assert out["wins"]["ops_per_s"] == 10
    assert not out["resolved"]["ops_per_s"]


@pytest.mark.parametrize("way", ["gain", "loss"])
def test_lower_is_better_resolves_either_way(way):
    parent = _runs([100] * 10, [1.0, 1.01, 1.02, 1.03, 1.04] * 2)
    p50 = [0.8] * 10 if way == "gain" else [1.3] * 10
    out = _summary(parent, _runs([100] * 10, p50))
    assert out["wins"]["call_p50_ms"] == (10 if way == "gain" else 0)
    assert out["resolved"]["call_p50_ms"]  # worse by the same rule shows

"""The pair summary of ``tools/bench_pairs.py`` on canned benchmark run lines."""

import importlib.util
import json
import math
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: wall_s per pair; pair 1 is a tie, the change wins the four others
PARENT = [10.0, 12.0, 11.0, 13.0, 14.0]
CHANGE = [9.0, 12.0, 10.0, 12.0, 11.0]


def canned_runs(bad=()):
    """Run lines of five pairs; ``bad`` maps (pair, side) to (correct, failed)."""
    bad = dict(bad)
    runs = []
    for i, values in enumerate(zip(PARENT, CHANGE)):
        for side, value in zip(("parent", "change"), values):
            correct, failed = bad.get((i, side), (True, 0))
            result = {"metrics": {"wall_s": {"value": value}}, "correct": correct,
                      "failed": failed}
            runs.append({"pair": i, "side": side, "seed": i, "result": result})
    return runs


def test_summary_spread_wins_and_gap(bench_pairs):
    wall = bench_pairs.summarise(canned_runs())["wall_s"]
    assert wall["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "min": 10.0, "max": 14.0}
    assert wall["change"] == {"median": 11.0, "q1": 10.0, "q3": 12.0, "min": 9.0, "max": 12.0}
    assert (wall["change_wins"], wall["pairs"]) == (4, 5)
    assert wall["median_change_pct"] == pytest.approx(-100.0 / 12.0)
    assert wall["gap_over_parent_iqr"] == 0.5


def test_summary_of_a_zero_count(bench_pairs):
    # traced runs carry counters that read 0 on both sides
    runs = canned_runs()
    for run in runs:
        run["result"]["metrics"]["calls"] = {"value": 0}
    calls = bench_pairs.summarise(runs)["calls"]
    assert (calls["change_wins"], calls["parent"]["median"]) == (0, 0)
    assert math.isnan(calls["median_change_pct"]) and math.isnan(calls["gap_over_parent_iqr"])


def test_incorrect_runs_counted_per_side(bench_pairs):
    assert bench_pairs.incorrect_runs(canned_runs()) == {"parent": 0, "change": 0}
    runs = canned_runs({(0, "change"): (False, 0), (2, "parent"): (True, 3),
                        (3, "change"): (False, 1)})
    assert bench_pairs.incorrect_runs(runs) == {"parent": 1, "change": 2}


@pytest.mark.parametrize("bad,code", [((), 0), ({(4, "parent"): (False, 0)}, 1)])
def test_file_written_then_exit_code(bench_pairs, monkeypatch, tmp_path, bad, code):
    lines = {(r["pair"], r["side"]): r["result"] for r in canned_runs(bad)}
    calls = []

    def run(checkout, workload, seconds, seed, trace):
        calls.append(checkout)
        return lines[(seed, checkout)]

    monkeypatch.setattr(bench_pairs, "_run", run)
    monkeypatch.setattr(bench_pairs, "_machine", lambda checkout: {})
    monkeypatch.setattr(bench_pairs, "_source_digest", lambda checkout: checkout)
    out = tmp_path / "bench.json"
    argv = ["--parent", "parent", "--change", "change", "--workload", "w", "--pairs", "5",
            "--seeds", "0,1,2,3,4", "--out", str(out)]
    assert bench_pairs.main(argv) == code
    # the parent runs first in even pairs, the change in odd ones
    assert calls == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["incorrect_runs"] == {"parent": code, "change": 0}
    assert entry["summary"]["wall_s"]["change_wins"] == 4


def test_traced_runs_get_their_own_entry(bench_pairs, monkeypatch, tmp_path):
    lines = {(r["pair"], r["side"]): r["result"] for r in canned_runs()}
    monkeypatch.setattr(bench_pairs, "_run", lambda checkout, w, s, seed, t: lines[(seed, checkout)])
    monkeypatch.setattr(bench_pairs, "_machine", lambda checkout: {})
    monkeypatch.setattr(bench_pairs, "_source_digest", lambda checkout: checkout)
    out = tmp_path / "bench.json"
    argv = ["--parent", "parent", "--change", "change", "--workload", "w", "--pairs", "5",
            "--seeds", "0,1,2,3,4", "--out", str(out)]
    for trace in ("0", "1"):
        assert bench_pairs.main(argv + ["--trace", trace]) == 0
    entries = json.loads(out.read_text())["workloads"]
    assert sorted(entries) == ["w", "w+trace"]
    assert entries["w+trace"]["command"][-1] == "1"

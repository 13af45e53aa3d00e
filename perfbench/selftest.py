"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root (about five minutes on 2 CPUs).  They run
``run.py`` as a subprocess and check that the traced counts equal values
derived from the workload definitions, that two traced runs give identical
counts, that traced passes reproduce the recorded digests, that both the
default and the held-out seed produce their recorded digests, that any seed
runs at a recorded lab seed, that a digest mismatch fails the operation, and
that the benchmark refuses to run without the library sources or with more threads
configured than there are CPUs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]

# library defaults the counts depend on
BULK_CHUNK = 8192  # skew_terminal_samples / harrison_shepp_terminals chunk
EQUIVALENCE_STEPS = 2**10  # equivalence_suite's default grid
SIGMA_PANEL = 32  # equivalence_suite's n_sigma_paths
HYPOTHESIS_PROBE = 200  # paths probed before the *_mart suites


def bench(workload, seed, trace, cwd=ROOT, env=None):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )
    return done


def result(workload, seed, trace):
    done = bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def expected_counts(workload: str) -> dict:
    """Exact per-pass counts that follow from the workload definition."""
    if workload == "law_bulk":
        n, steps = W.LAW_PATHS, W.LAW_STEPS
        chunks = math.ceil(n / BULK_CHUNK)
        return {
            # one stream per walk plus bulk/base/{c} and bulk/signs/0/{c}
            "grid_paths.rng.calls": n + 2 * chunks,
            "skewbm.bulk_sampler.path_steps": n * steps,
            "skewbm.hs_walk.walk_steps": n * steps,
            "signed_measure.build_model.calls": 0,
            "excursion.decompose.calls": 0,
            "grid_paths.increments": 0,
        }
    if workload == "signed_paths":
        short, long_ = _short_rows(), _long_rows()
        counts = {k: short.get(k, 0) + long_.get(k, 0) for k in short.keys() | long_.keys()}
        counts["signed_measure.builds_per_path"] = (
            counts["signed_measure.build_model.calls"] / counts.pop("distinct models"))
        counts["skewbm.hs_walk.walk_steps"] = 0
        return counts
    raise KeyError(workload)


def _short_rows() -> dict:
    """martingale, representation and the criterion-10 list."""
    n, steps, panel = W.PERPATH_PATHS, W.PERPATH_STEPS, SIGMA_PANEL
    suite_paths = 3 * n + 2 * n  # 3 drift-test families, 2 stopping times
    eq_builds = (
        2 * 2 * (HYPOTHESIS_PROBE + 2 * n)  # *_mart: probe, left and right rebuild
        + 2 * 2 * 2 * panel  # abs_sigma and zalpha_sigma: two panels
        + 2 * (panel + n)  # cmart: sigma panel plus drift side
    )
    flips = 2 * n + 2 * panel + 2 * n  # zalpha_mart, zalpha_sigma, cmart
    sigma_checks = 2 * 2 * panel + 2 * 2 * panel + 2 * panel  # abs/zalpha_sigma, cmart
    # each shifted model decomposes its density; the equivalence suites
    # decompose in the hypothesis probe, in each flip and in sigma_h_check
    eq_decompose = 2 * 2 * HYPOTHESIS_PROBE + flips + sigma_checks
    return {
        "signed_measure.build_model.calls": suite_paths + eq_builds,
        "distinct models": suite_paths + 6 * n + 4 * panel,
        # a shifted model and its process draw one path each; under the
        # trivial model only the process draws
        "grid_paths.increments": 2 * steps * suite_paths + EQUIVALENCE_STEPS * eq_builds,
        "grid_paths.rng.calls": 2 * suite_paths + eq_builds + flips,
        "excursion.decompose.calls": suite_paths + eq_decompose,
        "excursion.decompose.points": (suite_paths * (steps + 1)
                                       + eq_decompose * (EQUIVALENCE_STEPS + 1)),
        # bm_plus_local_time's Tanaka sum, qp_residual in each sigma_h_check,
        # the abs and flip transforms, and every reflected_bm built by cmart
        "localtime.ito_sum.calls": n + sigma_checks + 2 * panel + 2 * panel + (panel + n),
    }


def _long_rows() -> dict:
    """identities, skew_residual and sigma_h."""
    s, levels = W.MESH_SEEDS, W.MESH_LEVELS
    coarse, finest = min(levels), max(levels)
    halvings = sum((n // coarse).bit_length() - 1 for n in levels)
    return {
        # identities: 2 per level; skew_residual: 1 per level; sigma_h: 1
        # (trivial) + 2 + 2 (shifted models decompose their density)
        "excursion.decompose.calls": s * (2 * len(levels) + len(levels) + 5),
        "excursion.decompose.points": s * (3 * sum(n + 1 for n in levels) + 5 * (finest + 1)),
        # identities refine one coarse path; skew_residual draws each level
        # afresh; sigma_h draws five finest paths
        "grid_paths.increments": s * (coarse + sum(n - coarse for n in levels)
                                      + sum(levels) + 5 * finest),
        # identities: 4 per level plus one Tanaka curve per level for seed 0;
        # skew_residual: 1 per level; sigma_h: 2 + 2 + 1
        "localtime.ito_sum.calls": s * (4 * len(levels) + len(levels) + 5) + len(levels),
        # identities: one driver plus its bridge halvings; skew_residual: the
        # same per level plus its sign stream; sigma_h: 1 + 2 + 2 paths
        "grid_paths.rng.calls": s * ((1 + halvings) + (2 * len(levels) + halvings) + 5),
        "signed_measure.build_model.calls": 3 * s,
        "distinct models": 3 * s,
    }


@pytest.fixture(scope="module")
def traced():
    return {w: [result(w, W.DEFAULT_SEED, 1) for _ in range(2)] for w in NAMES}


def test_traced_runs_are_correct(traced):
    """Traced passes reproduce the recorded (untraced) digests."""
    for w, runs in traced.items():
        for r in runs:
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 2, (w, r)


def test_per_layer_metrics_named_as_benchmark(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced.values():
        got = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        assert got == want


def test_counts_repeat_exactly(traced):
    for w, (a, b) in traced.items():
        for name, m in a["metrics"].items():
            if m["unit"] in ("count", "bytes", "ratio"):
                assert m["value"] == b["metrics"][name]["value"], (w, name)


def test_counts_match_workload_definition(traced):
    for w, runs in traced.items():
        got = runs[0]["metrics"]
        for name, value in expected_counts(w).items():
            assert got[name]["value"] == pytest.approx(value, rel=1e-12), (w, name)


def test_default_and_held_out_seeds_are_recorded():
    with open(os.path.join(BENCH, "digests.json")) as f:
        recorded = json.load(f)
    for w in NAMES:
        ops = {op.name for op in W.WORKLOADS[w].ops}
        for seed in (W.DEFAULT_SEED, W.HELD_OUT_SEED):
            assert set(recorded[w][str(seed)]) == ops, (w, seed)


def test_held_out_seed_end_to_end():
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for w in NAMES:
        r = result(w, W.HELD_OUT_SEED, 0)
        assert r["correct"] and r["failed"] == 0, (w, r)
        assert {k: v["unit"] for k, v in r["metrics"].items()} == want
        assert all(v["value"] > 0 for v in r["metrics"].values())


def test_every_seed_runs_at_a_recorded_lab_seed():
    for seed in (0, 31, 32, 33, 12345, 7654321, W.DEFAULT_SEED, W.HELD_OUT_SEED):
        assert W.lab_seed(seed) in W.RECORDED_SEEDS, seed
    assert W.lab_seed(W.HELD_OUT_SEED) == W.HELD_OUT_SEED


def test_unrecorded_seed_checked_against_recorded_digests():
    assert 7654321 not in W.RECORDED_SEEDS
    done = bench("law_bulk", 7654321, 1)
    assert done.returncode == 0, done.stderr
    assert f"law_bulk lab seed {7654321 % 32}" in done.stdout
    r = json.loads(done.stdout.strip().splitlines()[-1])
    assert r["correct"] and r["failed"] == 0


def test_wrong_digest_fails_every_operation(tmp_path):
    """A recorded digest the output does not match makes every pass fail."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".emit-*"))
    path = tmp_path / "perfbench" / "digests.json"
    recorded = json.loads(path.read_text())
    recorded["law_bulk"][str(W.DEFAULT_SEED)]["skew_law"] = "0" * 64
    path.write_text(json.dumps(recorded))
    done = bench("law_bulk", W.DEFAULT_SEED, 0, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    r = json.loads(done.stdout.strip().splitlines()[-1])
    assert not r["correct"] and r["failed"] == r["attempted"] >= 1


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".emit-*"))
    done = bench(NAMES[0], W.DEFAULT_SEED, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def test_refuses_more_threads_than_cpus():
    env = dict(os.environ, OMP_NUM_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    done = bench(NAMES[0], W.DEFAULT_SEED, 0, env=env)
    assert done.returncode == 2 and "exceeds nproc" in done.stderr

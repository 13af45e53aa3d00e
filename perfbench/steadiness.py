"""Steadiness report: two sets of benchmark runs of every workload.

    python3 perfbench/steadiness.py

Run from the repository root.  Each set runs ``perfbench/run.py`` once per
seed (seeds 1..10, the same in both sets) on every workload of
BENCHMARK.json at its ``run_seconds``.  For each end-to-end metric it prints,
per set, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (quartile distance over median), and flags

* SPREAD   a spread above the metric's bound;
* THIRD    a spread above a third of the bound (the target for a steady metric);
* DRIFT    a second-set median worse than the first by more than the bound.

Exit code 1 when any run fails or any SPREAD or DRIFT flag is raised.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output:\n{done.stderr}")
    return result["metrics"]


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(1, RUNS + 1)
    runs = {}  # (set, workload) -> list of metric dicts
    for which in (1, 2):
        for name in names:
            for seed in seeds:
                runs.setdefault((which, name), []).append(
                    one_run(name, seed, spec["run_seconds"]))
                print(f"set {which} {name} seed {seed} done", file=sys.stderr, flush=True)

    flagged = False
    print(f"{'workload':<16}{'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  flags")
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            for which in (1, 2):
                values = [r[key]["value"] for r in runs[(which, name)]]
                med, q1, q3, spread = summarize(values)
                medians.append(med)
                flags = []
                if spread > bound:
                    flags.append("SPREAD")
                    flagged = True
                if spread > bound / 3:
                    flags.append("THIRD")
                if which == 2 and worse(metric, medians[0], med) > bound:
                    flags.append("DRIFT")
                    flagged = True
                print(f"{name:<16}{key:<14}{which:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{spread:>9.4f}{bound:>7.3g}  {' '.join(flags)}")
    print(json.dumps({f"{w}/set{s}": rs for (s, w), rs in runs.items()}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

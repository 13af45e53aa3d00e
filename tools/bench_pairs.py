"""Alternating parent/change pairs of the benchmark, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload signed_paths --seconds 50 --seeds 5,6,7,918273645 --pairs 10 \\
        --out BENCH_17.json

``--parent`` and ``--change`` are two complete checkouts (each with
``BENCHMARK.json``, ``perfbench/`` and ``src/``).  Make them siblings, for
example ``git clone`` or ``git archive`` copies side by side: a run's
``peak_rss_mb`` depends on the directory it starts from by about 1 MiB, so
two checkouts at different depths compare unequally.

Pair i runs ``perfbench/run.py`` once in each checkout, one after the other,
with the i-th seed of ``--seeds`` (cycled); the parent goes first in even
pairs and the change first in odd ones, so drift over the session falls on
both sides alike.  Runs are sequential: two concurrent runs would share the
CPUs they time.  The output records the machine, every run's JSON line, and
per end-to-end metric each side's median and quartiles, the change's wins
per pair and its median change in percent.  Every metric is one where lower
is better.  Each workload gets its own entry, and its traced runs
(``--trace 1``) another one keyed ``<workload>+trace``: run the script once
per workload and trace setting with the same ``--out``, and an existing file
keeps the other entries.

A benchmark run prints its metrics even when its output was wrong, so each
entry also counts, per side, the runs that printed ``"correct": false`` or
failed an operation; when any did, the script still writes the file but
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys


def _run(checkout: str, workload: str, seconds: float, seed: int, trace: int) -> dict:
    """One benchmark run from ``checkout``; its last stdout line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run in {checkout} failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def _source_digest(checkout: str) -> str:
    """SHA-256 over the paths and bytes of the checkout's ``src/*.py`` files,
    which identifies the code a run measured in any kind of copy."""
    h = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode() + b"\n")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _machine(checkout: str) -> dict:
    """The benchmark's own machine block plus the library versions."""
    spec = importlib.util.spec_from_file_location(
        "_bench_run", os.path.join(checkout, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import numpy
    import scipy

    return dict(run.machine_block(), numpy=numpy.__version__, scipy=scipy.__version__)


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarise(runs: list[dict]) -> dict:
    """Per metric: each side's spread, the change's wins per pair, and the
    median change against the parent in percent."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    names = sorted(set.intersection(*(set(m) for side in pairs.values() for m in side.values())))
    out = {}
    for name in names:
        parent = [p["parent"][name]["value"] for p in pairs.values()]
        change = [p["change"][name]["value"] for p in pairs.values()]
        wins = sum(c < p for p, c in zip(parent, change))
        before, after = _spread(parent), _spread(change)
        out[name] = {
            "parent": before,
            "change": after,
            "change_wins": wins,
            "pairs": len(parent),
            "median_change_pct": 100.0 * (after["median"] - before["median"])
            / (before["median"] or float("nan")),
            "gap_over_parent_iqr": (before["median"] - after["median"])
            / ((before["q3"] - before["q1"]) or float("nan")),
        }
    return out


def incorrect_runs(runs: list[dict]) -> dict:
    """Per side, the runs that were not correct or failed an operation."""
    counts = {"parent": 0, "change": 0}
    for run in runs:
        result = run["result"]
        counts[run["side"]] += not result["correct"] or result["failed"] > 0
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="20240817",
                        help="comma-separated seeds, cycled over the pairs")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": args.parent, "change": args.change}

    runs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(sides[side], args.workload, args.seconds, seed, args.trace)
            runs.append({"pair": i, "side": side, "seed": seed, "result": result})
            metrics = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
            print(f"pair {i} {side:6s} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} {metrics}", file=sys.stderr, flush=True)

    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["machine"] = _machine(args.change)
    incorrect = incorrect_runs(runs)
    key = f"{args.workload}+trace" if args.trace else args.workload
    doc["workloads"][key] = {
        "src_sha256": {side: _source_digest(path) for side, path in sides.items()},
        "command": ["perfbench/run.py", "--workload", args.workload, "--seed", "<seed>",
                    "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
        "seeds": seeds,
        "summary": summarise(runs),
        "incorrect_runs": incorrect,
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    if any(incorrect.values()):
        print(f"incorrect or failing runs: {incorrect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

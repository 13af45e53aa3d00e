"""skewlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload law_bulk --seed 7 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` beside
this directory.  With ``--trace 0`` the run makes the warm-up call, then
for ``--seconds`` repeats passes of the workload, each followed by one set-up
probe (a fresh interpreter importing skewlab and making the warm-up call),
and reports the end-to-end metrics: the median set-up time, the median pass
time and the peak RSS.  Spreading the probes over the run lets them average
over the same stretch of machine time as the passes.  With ``--trace 1`` it
runs untraced passes for half the time and traced passes for the rest and
reports the per-layer metrics as medians over traced passes.  The lab runs
at ``workloads.lab_seed(--seed)``, a seed whose digests are recorded, and
every operation of every pass is checked against them (see
``workloads.py``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
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
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "NUMEXPR_MAX_THREADS",
)


class Refused(Exception):
    """The run cannot be measured here; exit 2 without a result."""


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def machine_block() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def check_threads(machine: dict) -> None:
    for key, value in machine["thread_env"].items():
        try:
            n = int(value)
        except ValueError:
            raise Refused(f"{key}={value!r} is not a thread count") from None
        if n > machine["nproc"]:
            raise Refused(f"{key}={n} exceeds nproc={machine['nproc']}")


def import_library():
    if not os.path.isfile(os.path.join(SRC, "skewlab", "__init__.py")):
        raise Refused(f"no skewlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import skewlab

    if os.path.dirname(os.path.dirname(os.path.abspath(skewlab.__file__))) != SRC:
        raise Refused(f"imported skewlab from {skewlab.__file__}, not from {SRC}")
    import numpy
    import scipy

    import workloads

    return workloads, {"numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_seconds() -> float:
    """Fresh interpreter to ready: import skewlab and make the warm-up call."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "ready.py")],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, workloads, workload, seed: int, out_dir: str):
        self.wl = workloads
        self.workload = workload
        self.seed = workloads.lab_seed(seed)
        self.out_dir = out_dir
        with open(os.path.join(BENCH, "digests.json")) as f:
            recorded = json.load(f).get(workload.name, {})
        self.expected = recorded.get(str(self.seed), {})
        self.attempted = 0
        self.failed = 0
        self.count_mismatches = []  # traced counts that differ between passes

    def one_pass(self) -> tuple[float, float]:
        """Run every operation once; returns (wall seconds, cpu seconds)."""
        wall = cpu = 0.0
        for op in self.workload.ops:
            out = os.path.join(self.out_dir, op.name)
            shutil.rmtree(out, ignore_errors=True)  # digest only this pass's files
            self.attempted += 1
            problem = ""
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                reports, files = op.run(self.seed, out)
            except Exception:  # an operation that raises is a failed operation
                problem = "raised\n" + traceback.format_exc()
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
            if not problem:
                problem = self.check(op, reports, files)
            if problem:
                self.failed += 1
                print(f"{op.name}: {problem}", file=sys.stderr)
        return wall, cpu

    def check(self, op, reports: list, files: list) -> str:
        """Empty string when the output matches the recorded digest, else the reason."""
        try:
            problem = self.wl.check_structure(op, reports, files, self.seed)
            got = "" if problem else self.wl.digest(reports, files)
        except Exception as e:  # e.g. a returned file that is missing
            return f"output check raised {e!r}"
        want = self.expected.get(op.name)
        if problem:
            return problem
        if want is None:
            return f"no digest recorded for seed {self.seed}"
        if got != want:
            return f"digest {got} != {want}"
        return ""

    def passes(self, seconds: float, minimum: int, on_pass=None) -> list[tuple[float, float]]:
        """Run at least ``minimum`` passes, then more while another pass as
        long as the last one still ends within ``seconds``."""
        out = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out.append(self.one_pass())
            if on_pass is not None:
                on_pass()
            now = time.perf_counter()
            if len(out) >= minimum and (now - start) + (now - t0) > seconds:
                return out


def untraced_metrics(runner: Runner, seconds: float) -> dict:
    setups = []
    walls = [w for w, _ in runner.passes(
        seconds, MIN_PASSES, on_pass=lambda: setups.append(setup_seconds()))]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def traced_metrics(runner: Runner, seconds: float) -> dict:
    import spans

    plain = runner.passes(seconds / 2, 1)
    tracer = spans.Tracer()
    snapshots = []

    def snapshot():
        snapshots.append(tracer.layer_metrics())
        tracer.reset()

    tracer.install()
    try:
        traced = runner.passes(seconds / 2, 1, on_pass=snapshot)
    finally:
        tracer.uninstall()
    metrics = {}
    for name, value in snapshots[0].items():
        values = [s[name] for s in snapshots]
        if isinstance(value, int):
            if len(set(values)) != 1:
                runner.count_mismatches.append(name)
                print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values)
    metrics["process.cpu_s"] = statistics.median(c for _, c in plain)
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        machine = machine_block()
        check_threads(machine)
        workloads, versions = import_library()
    except (Refused, OSError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    machine.update(versions)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"{workload.name} lab seed {workloads.lab_seed(args.seed)}")

    out_dir = tempfile.mkdtemp(prefix=".emit-", dir=BENCH)
    try:
        runner = Runner(workloads, workload, args.seed, out_dir)
        if args.trace:
            workloads.warmup()
            measured = traced_metrics(runner, args.seconds)
            wanted = spec["per_layer"]
        else:
            workloads.warmup()
            measured = untraced_metrics(runner, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    ratio = runner.failed / runner.attempted
    print(f"{workload.name} fail_ratio {ratio:.6g} "
          f"(ops_failed={runner.failed} ops_attempted={runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.count_mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

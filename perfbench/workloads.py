"""The benchmark's workloads: what each one runs and how its output is checked.

A workload is a list of operations.  One pass runs every operation once at
the workload's fixed size; an operation is one lab verdict (a CLI suite with
its report emission, or the criterion-10 equivalence case list) and yields
its reports plus the files it wrote.  Every operation is checked in two
ways:

* structure: the expected report names, finite statistics and thresholds,
  the run's seed in every report token, and the expected files on disk;
* digest: a SHA-256 over the report rows (suite, repr of statistic and
  threshold, n_paths, n_steps, seed token, pass) and the emitted bytes with
  the provenance timestamp removed.  It must equal the digest recorded in
  ``digests.json`` for the run's lab seed (see ``lab_seed``); an operation
  with no recorded digest fails.

The library is called through module attributes at call time, so the tracer
in ``spans.py`` sees these calls when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from skewlab import cli, signed_measure
from skewlab.grid_paths import SeedSpec

#: the lab's default master seed; the benchmark's default ``--seed``
DEFAULT_SEED = 20240817
#: a seed recorded in ``digests.json`` but never used while sizing the workloads
HELD_OUT_SEED = 918273645
#: the lab seeds whose digests ``digests.json`` records
RECORDED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED) + tuple(range(32))


def lab_seed(seed: int) -> int:
    """The master seed a run with ``--seed seed`` uses: the seed itself when
    its digests are recorded, else ``seed % 32``, so every run's output is
    checked against a recorded digest."""
    return seed if seed in RECORDED_SEEDS else seed % 32


LAW_PATHS = 2 * 8192  # two chunks of the bulk sampler and the walk
LAW_STEPS = 2**12
PERPATH_PATHS = 1000  # the statistical checks' minimum sample size
PERPATH_STEPS = 2**12
MESH_SEEDS = 128
MESH_LEVELS = (4096, 16384, 65536)

#: criterion 10's case list: (suite, base process)
EQUIVALENCE_CASES = (
    ("abs_mart", "shifted_bm"),
    ("abs_mart", "shifted_bm_drift"),
    ("zalpha_mart", "shifted_bm"),
    ("zalpha_mart", "shifted_bm_drift"),
    ("abs_sigma", "bm"),
    ("abs_sigma", "bm_plus_drift"),
    ("zalpha_sigma", "bm"),
    ("zalpha_sigma", "bm_plus_drift"),
    ("cmart", "reflected_bm"),
    ("cmart", "bm_plus_drift"),
)


@dataclass(frozen=True)
class Op:
    """One operation: ``run(master_seed, out_dir)`` returns (reports, files)."""

    name: str
    run: Callable[[int, str], tuple[list, list[str]]]
    suites: tuple[str, ...]
    files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]


def _suite(pairs: dict) -> Callable[[int, str], tuple[list, list[str]]]:
    """A CLI suite run plus its report emission."""

    def run(master_seed: int, out_dir: str):
        cfg = cli.config_from_pairs(dict(pairs, seed=str(master_seed), out=out_dir))
        bundle = cli.run_experiment(cfg)
        written = cli.emit_report(bundle, cfg.fmt, cfg.out_dir)
        return bundle.reports, written

    return run


def _equivalence(master_seed: int, out_dir: str):
    root = SeedSpec(master_seed)
    reports = [
        signed_measure.equivalence_suite(
            name, "trivial", base, 0.5 if name == "cmart" else 0.7,
            root.child(f"c10/{name}/{base}"), PERPATH_PATHS,
        )
        for name, base in EQUIVALENCE_CASES
    ]
    return reports, []


_MESH_STEPS = ",".join(str(n) for n in MESH_LEVELS)

WORKLOADS = {
    w.name: w
    for w in (
        # almost all time in the bulk terminal sampler and the skew walk's step
        # loop; no per-path calls, so chunk fan-out and walk vectorization show
        # here and nowhere else
        Workload(
            "law_bulk",
            (
                Op(
                    "skew_law",
                    _suite({"suite": "skew_law", "alpha": "0.7", "steps": str(LAW_STEPS),
                            "paths": str(LAW_PATHS), "format": "json"}),
                    ("skew_law.ks", "skew_law.sign_probability", "skew_law.walk_cross_check"),
                    ("reports.json", "curve_skew_density_alpha0.7.csv",
                     "curve_skew_empirical_density.csv"),
                ),
            ),
        ),
        # the signed-measure suites on paths built one Python call at a time:
        # many short rows (martingale, representation, criterion-10 list),
        # where per-path overhead dominates, then few rows of up to 2^16
        # points (identities, skew_residual, sigma_h), where array passes,
        # bridge refinement and 7 MB of curve CSV dominate.  A batched path
        # core should speed the first half; one that slows single long rows
        # or inflates memory shows in the second.  The bulk sampler and the
        # walk are not touched.
        Workload(
            "signed_paths",
            (
                Op(
                    "martingale",
                    _suite({"suite": "martingale", "model": "shifted_brownian",
                            "steps": str(PERPATH_STEPS), "paths": str(PERPATH_PATHS),
                            "format": "json"}),
                    ("martingale.bm", "martingale.bm_plus_local_time",
                     "martingale.negative_control"),
                    ("reports.json",),
                ),
                Op(
                    "representation",
                    _suite({"suite": "representation", "model": "shifted_brownian",
                            "steps": str(PERPATH_STEPS), "paths": str(PERPATH_PATHS),
                            "format": "json"}),
                    ("representation.T0.5", "representation.T1"),
                    ("reports.json",),
                ),
                Op(
                    "equivalence",
                    _equivalence,
                    tuple(f"equivalence.{name}" for name, _ in EQUIVALENCE_CASES),
                ),
                Op(
                    "identities",
                    _suite({"suite": "identities", "steps": _MESH_STEPS,
                            "seeds": str(MESH_SEEDS), "format": "csv"}),
                    tuple(f"identities.{kind}{tail}"
                          for kind in ("tanaka", "balayage", "transform")
                          for tail in ("", ".monotone")),
                    ("reports.csv",) + tuple(f"curve_tanaka_residual_n{n}.csv"
                                             for n in MESH_LEVELS),
                ),
                Op(
                    "skew_residual",
                    _suite({"suite": "skew_residual", "steps": _MESH_STEPS,
                            "seeds": str(MESH_SEEDS), "schedule.boundaries": "0,0.5",
                            "schedule.values": "0.3,0.8", "format": "csv"}),
                    ("skew_residual", "skew_residual.monotone"),
                    ("reports.csv",),
                ),
                Op(
                    "sigma_h",
                    _suite({"suite": "sigma_h", "steps": str(MESH_LEVELS[-1]),
                            "seeds": str(MESH_SEEDS), "format": "csv"}),
                    ("sigma_h.reflected_bm", "sigma_h.bm_plus_local_time",
                     "sigma_h.negative_control"),
                    ("reports.csv",),
                ),
            ),
        ),
    )
}


def warmup() -> None:
    """The set-up call: touch each module once on tiny inputs so lazy imports
    and first-call initialisation finish before anything is timed."""
    from skewlab import excursion, localtime, signflip, skewbm
    from skewlab.grid_paths import make_grid, refine_bridge, sample_brownian

    seed = SeedSpec(0, "warmup")
    p = refine_bridge(sample_brownian(make_grid(1.0, 64), seed), 2, seed)
    exc = excursion.decompose_excursions(p)
    excursion.last_zero_curve(exc)
    sched = signflip.AlphaSchedule.constant(0.7)
    signflip.build_sign_path(exc, signflip.assign_signs(exc, sched, seed), sched)
    localtime.identity_residual("tanaka", path=p)
    signed_measure.build_model("shifted_brownian", p.grid, seed)
    sample = skewbm.skew_terminal_sample(sched, 1000, 16, seed)
    skewbm.law_test(sample, skewbm.SkewLaw(0.7, 1.0))


def _row(r) -> str:
    seed = r.seed.token() if r.seed is not None else ""
    return (f"{r.suite}|{r.statistic!r}|{r.threshold!r}|{r.n_paths}|{r.n_steps}|"
            f"{seed}|{bool(r.passed)}")


def digest(reports: list, files: list[str]) -> str:
    """SHA-256 of the report rows and the emitted bytes, timestamp excluded."""
    h = hashlib.sha256()
    for r in reports:
        h.update(_row(r).encode() + b"\n")
    for path in sorted(files):
        h.update(os.path.basename(path).encode() + b"\n")
        with open(path, "rb") as f:
            data = f.read()
        if path.endswith(".json"):
            doc = json.loads(data)
            doc["provenance"].pop("timestamp")
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(data)
    return h.hexdigest()


def check_structure(op: Op, reports: list, files: list[str], master_seed: int) -> str:
    """Empty string when the output has the expected shape, else the reason."""
    names = tuple(r.suite for r in reports)
    if names != op.suites:
        return f"reports {names} != expected {op.suites}"
    for r in reports:
        if not (math.isfinite(r.statistic) and math.isfinite(r.threshold)):
            return f"{r.suite}: non-finite statistic or threshold"
        if r.seed is None or r.seed.master_seed != master_seed:
            return f"{r.suite}: seed {r.seed} is not the run's seed {master_seed}"
        if r.n_paths < 1 or r.n_steps < 1:
            return f"{r.suite}: n_paths={r.n_paths} n_steps={r.n_steps}"
    written = tuple(sorted(os.path.basename(p) for p in files))
    if written != tuple(sorted(op.files)):
        return f"files {written} != expected {tuple(sorted(op.files))}"
    return ""

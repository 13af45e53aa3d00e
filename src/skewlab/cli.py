"""Batch experiment runner: config parsing, suite orchestration, reports.

Configuration is flat dotted-key text (``suite=skew_law``,
``schedule.boundaries=0,0.5``), overridable by command-line flags of the same
names.  Reports serialize to one JSON document or CSV files; a rerun with the
same config and seed reproduces every byte except the timestamp.  Exit codes:
0 all selected reports pass, 1 at least one failed, 2 usage error,
3 hypothesis-not-met outcomes only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .grid_paths import SeedSpec, _alongside, make_grid, refine_bridge, sample_brownian
from .localtime import identity_residuals
from .signed_measure import (
    HYPOTHESIS_NOT_MET,
    MIN_PATHS,
    TestReport,
    martingale_drift_test,
    optional_representation_check,
    sigma_h_panel,
)
from .signflip import AlphaSchedule
from .skewbm import (
    SkewLaw,
    harrison_shepp_terminals,
    law_test,
    sde_residual,
    skew_terminal_sample,
    skew_transition_density,
)

#: suite -> runner ``(config, seed) -> (reports, curves)`` and suite -> blurb,
#: filled in run order by :func:`_suite`; the blurbs end with ``all``
SUITE_RUNNERS: dict[str, Callable] = {}
SUITE_BLURBS: dict[str, str] = {}


#: suites whose statistical checks refuse fewer than ``MIN_PATHS`` paths
_PATH_STATISTIC_SUITES = ("martingale", "skew_law", "representation")

#: the ``tol.*`` keys the suites read
_TOLERANCES = (
    "identities", "drift", "drift_reject", "carried_by", "sign_probability",
    "lattice_allowance", "sde_residual", "representation",
)


class UsageError(ValueError):
    """Bad configuration or command line; mapped to exit code 2."""


@dataclass
class ExperimentConfig:
    suite: str = "skew_law"
    model: str = "trivial"
    alpha: float = 0.7
    schedule_boundaries: tuple[float, ...] = ()
    schedule_values: tuple[float, ...] = ()
    n_paths: int = 10_000
    n_steps: tuple[int, ...] = (4096,)
    master_seed: int = 20240817
    out_dir: str = "."
    fmt: str = "json"
    n_seeds: int = 32
    tolerances: dict = field(default_factory=dict)

    def schedule(self) -> AlphaSchedule:
        if self.schedule_boundaries or self.schedule_values:
            return AlphaSchedule.piecewise(self.schedule_boundaries, self.schedule_values)
        return AlphaSchedule.constant(self.alpha)

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def validate(self) -> None:
        if self.suite not in SUITE_BLURBS:
            raise UsageError(f"unknown suite {self.suite!r}; see list-suites")
        if self.model not in ("trivial", "shifted_brownian"):
            raise UsageError(f"unknown model {self.model!r}")
        if not self.n_steps:
            raise UsageError("steps must list at least one step count")
        if self.n_paths <= 0 or self.n_seeds <= 0 or any(n <= 0 for n in self.n_steps):
            raise UsageError("paths, seeds and steps must be positive")
        if self.n_paths < MIN_PATHS and self.suite in _PATH_STATISTIC_SUITES + ("all",):
            raise UsageError(
                f"suite {self.suite} needs at least {MIN_PATHS} paths, got {self.n_paths}"
            )
        if self.master_seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.master_seed}")
        if not 0.0 <= self.alpha <= 1.0:
            raise UsageError(f"alpha must lie in [0, 1], got {self.alpha}")
        try:
            self.schedule()  # a constant schedule's alpha is checked above
        except ValueError as e:
            raise UsageError(f"bad schedule: {e}") from None
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.fmt!r}")
        for key, value in self.tolerances.items():
            if key not in _TOLERANCES:
                raise UsageError(f"unknown tolerance tol.{key}; known: {', '.join(_TOLERANCES)}")
            if not 0.0 <= value < math.inf:
                raise UsageError(f"tol.{key} must be finite and non-negative, got {value}")


@dataclass
class CurveSeries:
    """Plot-ready curve: emitted as CSV rows t,value,series."""

    series: str
    t: np.ndarray
    values: np.ndarray


@dataclass
class ReportBundle:
    reports: list
    curves: list
    provenance: dict

    @property
    def exit_code(self) -> int:
        failed = [r for r in self.reports if not r.passed]
        if not failed:
            return 0
        if all(r.hypothesis_not_met for r in failed):
            return 3
        return 1


def parse_config_text(text: str) -> dict:
    """Flat dotted-key config: one key=value per line, # comments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


class _Key(NamedTuple):
    field: str
    parse: Callable[[str], object]
    flag_help: Optional[str]
    recorded: bool = True


#: every configuration key but ``tol.*``: its ExperimentConfig field, its
#: parser, the help of its ``skewlab run`` flag (None: no flag) and whether
#: the provenance ``config`` block records it (the seed is recorded as
#: ``master_seed``; where and how reports are written is not recorded)
_KEYS = {
    "suite": _Key("suite", str, "suite selector (overrides config)"),
    "model": _Key("model", str, "model family (overrides config)"),
    "seed": _Key("master_seed", int, "master seed", recorded=False),
    "paths": _Key("n_paths", int, "Monte Carlo paths"),
    "steps": _Key("n_steps", _ints, "comma-separated step counts"),
    "seeds": _Key("n_seeds", int, "paths per mesh level of the long-row suites"),
    "alpha": _Key("alpha", float, "constant skewness"),
    "schedule.boundaries": _Key("schedule_boundaries", _floats, None),
    "schedule.values": _Key("schedule_values", _floats, None),
    "out": _Key("out_dir", str, "output directory (default $SKEWLAB_OUT or .)", recorded=False),
    "format": _Key("fmt", str, "report format: json or csv", recorded=False),
}
_FLAGS = tuple(key for key, k in _KEYS.items() if k.flag_help is not None)


def config_from_pairs(pairs: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in pairs.items():
        if key in _KEYS:
            try:
                setattr(cfg, _KEYS[key].field, _KEYS[key].parse(value))
            except ValueError as e:
                raise UsageError(f"bad value for {key}: {e}") from None
        elif key.startswith("tol."):
            try:
                cfg.tolerances[key[4:]] = float(value)
            except ValueError:
                raise UsageError(f"bad tolerance {key}={value}") from None
        else:
            raise UsageError(f"unknown configuration key {key!r}")
    if "alpha" in pairs and any(key.startswith("schedule.") for key in pairs):
        raise UsageError(
            "alpha cannot be combined with schedule.*: the schedule sets each cell's alpha"
        )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Suite drivers
# ---------------------------------------------------------------------------


def _coupled_paths(seed: SeedSpec, n_steps_list, i: int) -> dict:
    """One coarse driver from ``seed.with_path(i)`` refined through every
    requested mesh level, keyed by step count.  Each level is refined from
    the one before, which by :func:`refine_bridge`'s contract is the path a
    one-shot refinement of the coarse driver gives."""
    levels = sorted(n_steps_list)
    s = seed.with_path(i)
    paths = {levels[0]: sample_brownian(make_grid(1.0, levels[0]), s)}
    for coarse, n in zip(levels, levels[1:]):
        paths[n] = refine_bridge(paths[coarse], n // coarse, s)
    return paths


def _mesh_tol(n_steps) -> float:
    """Default threshold of a mesh study's median sup-norm.  It follows the
    O(N^{-1/4}) floor of the cross-estimator local-time residual at the
    finest N, so coarse-mesh runs stay calibrated."""
    return max(0.1, 2.5 * max(n_steps) ** -0.25)


def _mesh_reports(name: str, sups: dict, tol: float, seed: SeedSpec, n_paths: int,
                  detail: str) -> list:
    """A mesh study's reports from its sup-norms per level: the median at the
    finest level below ``tol`` and, over several levels, ``.monotone``
    (medians strictly decreasing)."""
    medians = {n: float(np.median(v)) for n, v in sups.items()}
    levels = sorted(medians)
    finest = levels[-1]
    reports = [TestReport.below(name, medians[finest], tol, n_paths, finest, seed, detail)]
    if len(levels) > 1:
        values = [medians[n] for n in levels]
        decreasing = all(a > b for a, b in zip(values, values[1:]))
        reports.append(TestReport(
            suite=f"{name}.monotone",
            statistic=1.0 if decreasing else 0.0,
            threshold=1.0,
            n_paths=n_paths,
            n_steps=finest,
            seed=seed,
            passed=decreasing,
            detail="medians " + " ".join(f"{n}:{medians[n]:.4f}" for n in levels),
        ))
    return reports


def _mesh_sups(seed: SeedSpec, n_steps, n_seeds: int, residuals: Callable) -> dict:
    """The sup norms of a mesh study, keyed by residual kind and then by step
    count: ``residuals(i, path)`` maps each level of coupled driver i (see
    :func:`_coupled_paths`) to one ``ResidualReport`` per kind."""
    coarse = min(n_steps)
    for n in n_steps:
        ratio = n // coarse
        if n % coarse or ratio & (ratio - 1):
            raise UsageError("mesh levels must be power-of-two multiples of the coarsest")
    sups = {}
    for i in range(n_seeds):
        # a comprehension, so no path outlives its seed and each residual's
        # buffers die with its call: a path left bound here would make the
        # next seed's buffers leapfrog it, and the heap grow by about one
        # working set
        levels = {n: residuals(i, p) for n, p in _coupled_paths(seed, n_steps, i).items()}
        for n, reports in levels.items():
            for kind, r in reports.items():
                sups.setdefault(kind, {}).setdefault(n, []).append(r.sup_norm)
    return sups


def _suite(blurb: str):
    """Register ``run_<name>`` as suite ``name`` with its description."""

    def register(runner):
        name = runner.__name__.removeprefix("run_")
        SUITE_RUNNERS[name] = runner
        SUITE_BLURBS[name] = blurb
        return runner

    return register


@_suite("pathwise residuals: Tanaka, frozen-k balayage, f(v)M transform, across mesh levels")
def run_identities(cfg: ExperimentConfig, seed: SeedSpec):
    tanaka = []
    sups = _mesh_sups(seed.child("identities"), cfg.n_steps, cfg.n_seeds,
                      lambda i, p: identity_residuals(p, tanaka if i == 0 else None))
    tol = cfg.tol("identities", _mesh_tol(cfg.n_steps))
    reports = []
    for kind in ("tanaka", "balayage", "transform"):
        reports += _mesh_reports(
            f"identities.{kind}", sups[kind], tol, seed, cfg.n_seeds,
            "median sup-norm at finest level",
        )
    curves = [CurveSeries(f"tanaka_residual_n{g.n_steps}", g.times, c) for g, c in tanaka]
    return reports, curves


@_suite("conditional-drift tests of the density-weighted product processes, "
        "with a drifting negative control")
def run_martingale(cfg: ExperimentConfig, seed: SeedSpec):
    n = max(cfg.n_steps)
    g = make_grid(1.0, n)
    reports = []

    def drift_test(base_name, tag, **kw):
        rep = martingale_drift_test("shifted_brownian", base_name, g, seed.child(f"mart/{tag}"),
                                    cfg.n_paths, **kw)
        return replace(rep, seed=seed)

    for base_name in ("bm", "bm_plus_local_time"):
        reports.append(drift_test(
            base_name, base_name, threshold=cfg.tol("drift", 4.0), suite=f"martingale.{base_name}",
        ))
    neg = drift_test("bm_plus_drift", "neg", suite="martingale.negative_control")
    thresh = cfg.tol("drift_reject", 5.0)
    reports.append(replace(
        neg, threshold=thresh, passed=neg.statistic > thresh,
        detail="acceptance region above threshold: control must be rejected",
    ))
    return reports, []


@_suite("carried-by membership checks for X = M + A, with a Lebesgue-drift negative control")
def run_sigma_h(cfg: ExperimentConfig, seed: SeedSpec):
    n = max(cfg.n_steps)
    g = make_grid(1.0, n)
    reports = []
    cases = [
        ("reflected_bm", "trivial", True),
        ("bm_plus_local_time", "shifted_brownian", True),
        ("bm_plus_drift", "shifted_brownian", False),
    ]
    tol = cfg.tol("carried_by", 0.05)
    for base_name, fam, positive in cases:
        stats, passes = sigma_h_panel(
            fam, base_name, g, seed.child(f"sigma/{base_name}"), cfg.n_seeds, tol=tol
        )
        frac = float(np.mean(passes))
        ok = frac >= 0.5 if positive else frac < 0.5
        name = base_name if positive else "negative_control"
        reports.append(
            TestReport(
                suite=f"sigma_h.{name}", statistic=float(np.median(stats)),
                threshold=1.0 - tol, n_paths=cfg.n_seeds, n_steps=n, seed=seed,
                passed=ok,
                detail=f"pass fraction {frac:.2f} over {cfg.n_seeds} paths"
                + ("" if positive else "; acceptance region below threshold"),
            )
        )
    return reports, []


@_suite("terminal-law verification of the sign-flip construction: closed-form KS, "
        "sign probability, skew-walk cross-check")
def run_skew_law(cfg: ExperimentConfig, seed: SeedSpec):
    if cfg.model != "trivial":
        return (
            [
                TestReport(
                    suite="skew_law", statistic=float("nan"), threshold=0.0,
                    n_paths=cfg.n_paths, n_steps=max(cfg.n_steps), seed=seed,
                    passed=False,
                    detail=f"{HYPOTHESIS_NOT_MET}: law-level claims need the "
                    "trivial model (no construction with base vanishing on a "
                    "nontrivial H is available)",
                )
            ],
            [],
        )
    n = max(cfg.n_steps)
    sched = cfg.schedule()
    alpha = sched.values[-1]

    def law():
        return skew_terminal_sample(sched, cfg.n_paths, n, seed.child("law"))

    reports, curves = [], []
    if sched.kind == "constant":
        # this thread steps the walk while the bulk sampler's workers draw
        sample, walk = _alongside(
            law, lambda: harrison_shepp_terminals(alpha, n, cfg.n_paths, seed.child("walk"))
        )
        ks = law_test(sample, SkewLaw(alpha, 1.0), seed=seed)
        reports.append(replace(ks, suite="skew_law.ks", n_steps=n))
        # 0.01 is the acceptance band at 10^5 paths; at smaller sizes fall
        # back to a 4-sigma binomial band so the default is calibrated
        four_sigma = 4.0 * float(np.sqrt(max(alpha * (1 - alpha), 0.05) / sample.n))
        sign_tol = cfg.tol("sign_probability", max(0.01, four_sigma))
        frac = float(np.mean(sample.values > 0))
        reports.append(TestReport.below(
            "skew_law.sign_probability", abs(frac - alpha), sign_tol, sample.n, n, seed,
            f"empirical {frac:.4f} vs alpha {alpha:g}",
        ))
        spacing = 2.0 / float(np.sqrt(n))
        allowance = cfg.tol("lattice_allowance", 0.005)
        wrep = law_test(
            sample, walk, lattice_allowance=allowance, lattice_spacing=spacing,
            seed=seed,
        )
        reports.append(replace(wrep, suite="skew_law.walk_cross_check", n_steps=n))
        ys = np.linspace(-4, 4, 161)
        curves.append(CurveSeries(f"skew_density_alpha{alpha:g}", ys,
                                  skew_transition_density(alpha, 1.0, ys)))
        hist, edges = np.histogram(sample.values, bins=80, range=(-4, 4), density=True)
        curves.append(CurveSeries("skew_empirical_density",
                                  0.5 * (edges[:-1] + edges[1:]), hist))
    else:
        # piecewise law: compare against an independently seeded equal-cell
        # homogeneous sample when the schedule is flat, else report the
        # sign fraction only
        sample = law()
        frac = float(np.mean(sample.values > 0))
        reports.append(
            TestReport(
                suite="skew_law.sign_fraction", statistic=frac, threshold=1.0,
                n_paths=sample.n, n_steps=n, seed=seed, passed=True,
                detail="informational: piecewise schedules have no closed-form "
                "terminal density here",
            )
        )
    return reports, curves


@_suite("pathwise skew SDE residuals across mesh levels for the configured schedule")
def run_skew_residual(cfg: ExperimentConfig, seed: SeedSpec):
    sched = cfg.schedule()
    signs = seed.child("sde/signs")
    sups = _mesh_sups(
        seed.child("sde/base"), cfg.n_steps, cfg.n_seeds,
        lambda i, p: {"skew_residual": sde_residual(p, sched, signs.with_path(i))},
    )
    tol = cfg.tol("sde_residual", _mesh_tol(cfg.n_steps))
    reports = _mesh_reports(
        "skew_residual", sups["skew_residual"], tol, seed, cfg.n_seeds,
        "median sup-norm at finest level, absolute variant",
    )
    return reports, []


@_suite("weak-form optional representation identity over an event dictionary")
def run_representation(cfg: ExperimentConfig, seed: SeedSpec):
    g = make_grid(1.0, max(cfg.n_steps))
    events = {
        "omega": lambda m, models: True,
        "w_quarter_pos": lambda m, models: m[:, g.index_at(0.25)] > 0,
    }
    base = "bm" if cfg.model == "trivial" else "bm_minus_frozen"
    reports = []
    for t_stop in (0.5, 1.0):
        rep = optional_representation_check(
            base, t_stop, events, cfg.n_paths, cfg.model, g,
            seed.child(f"rep/{t_stop:g}"), threshold=cfg.tol("representation", 4.0),
        )
        reports.append(replace(
            rep, suite=f"representation.T{t_stop:g}", seed=seed,
            detail=f"model={cfg.model} " + rep.detail,
        ))
    return reports, []


SUITES = tuple(SUITE_RUNNERS)
SUITE_BLURBS["all"] = "runs every suite in order: " + ", ".join(SUITES)


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute the selected suites and assemble a reproducible bundle."""
    config.validate()
    seed = SeedSpec(config.master_seed)
    selected = SUITES if config.suite == "all" else (config.suite,)
    reports, curves = [], []
    for name in selected:
        r, c = SUITE_RUNNERS[name](config, seed.child(name))
        reports.extend(r)
        curves.extend(c)
    provenance = {
        "artifact_version": __version__,
        "master_seed": config.master_seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {
            **{key: getattr(config, k.field) for key, k in _KEYS.items() if k.recorded},
            "tolerances": dict(sorted(config.tolerances.items())),
        },
    }
    return ReportBundle(reports=reports, curves=curves, provenance=provenance)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _report_row(r: TestReport) -> dict:
    return {
        "suite": r.suite,
        "statistic": r.statistic,
        "threshold": r.threshold,
        "n_paths": r.n_paths,
        "n_steps": r.n_steps,
        "seed": r.seed.token() if r.seed is not None else "",
        "pass": bool(r.passed),
        "detail": r.detail,
    }


def emit_report(bundle: ReportBundle, fmt: str, destination: str) -> list[str]:
    """Write the bundle; returns the paths written.

    JSON: one document with the provenance block and the reports array.
    CSV: a main table plus one t,value,series file per curve.
    """
    os.makedirs(destination, exist_ok=True)
    written = []
    if fmt == "json":
        doc = {
            "provenance": bundle.provenance,
            "reports": [_report_row(r) for r in bundle.reports],
        }
        path = os.path.join(destination, "reports.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        written.append(path)
    elif fmt == "csv":
        path = os.path.join(destination, "reports.csv")
        with open(path, "w") as f:
            f.write("suite,statistic,threshold,n_paths,n_steps,seed,pass\n")
            for r in bundle.reports:
                row = _report_row(r)
                f.write(
                    f"{row['suite']},{row['statistic']!r},{row['threshold']!r},"
                    f"{row['n_paths']},{row['n_steps']},{row['seed']},"
                    f"{str(row['pass']).lower()}\n"
                )
        written.append(path)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    for curve in bundle.curves:
        path = os.path.join(destination, f"curve_{curve.series}.csv")
        with open(path, "w") as f:
            f.write("t,value,series\n")
            for t, v in zip(curve.t, curve.values):
                f.write(f"{t!r},{v!r},{curve.series}\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="Monte Carlo verification lab for the sign-flip skew construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a suite and emit reports")
    run.add_argument("--config", help="config file of key=value lines")
    for key in _FLAGS:
        run.add_argument(f"--{key}", help=_KEYS[key].flag_help)
    sub.add_parser("list-suites", help="list the available suites")
    desc = sub.add_parser("describe", help="describe one suite")
    desc.add_argument("suite")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    pairs = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read config: {e}") from None
        pairs.update(parse_config_text(text))
    for key in _FLAGS:
        if getattr(args, key) is not None:
            pairs[key] = getattr(args, key)
    if "out" not in pairs and os.environ.get("SKEWLAB_OUT"):
        pairs["out"] = os.environ["SKEWLAB_OUT"]
    return config_from_pairs(pairs)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "list-suites":
        for name in SUITE_BLURBS:
            print(name)
        return 0
    if args.command == "describe":
        if args.suite not in SUITE_BLURBS:
            print(f"unknown suite {args.suite!r}", file=sys.stderr)
            return 2
        print(f"{args.suite}: {SUITE_BLURBS[args.suite]}")
        return 0
    try:
        config = _config_from_args(args)
        bundle = run_experiment(config)
        try:
            written = emit_report(bundle, config.fmt, config.out_dir)
        except OSError as e:
            raise UsageError(f"cannot write reports: {e}") from None
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    for r in bundle.reports:
        status = "PASS" if r.passed else ("HYP" if r.hypothesis_not_met else "FAIL")
        print(f"[{status}] {r.suite}: statistic={r.statistic:.6g} threshold={r.threshold:.6g}")
    for path in written:
        print(f"wrote {path}")
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())

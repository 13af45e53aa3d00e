"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each criterion runs at its stated tolerance and sample sizes.  Two statements
are known to sit beyond what the underlying mathematics supports and are
expected to stay red; see the assertion messages for the measured values:

* criterion 1's sup-norm bound: the occupation-vs-Tanaka local-time residual
  floors at O(N^{-1/4}) ~ 0.08 at N = 2^16 for every bandwidth choice, so a
  0.05 sup-norm bound is unattainable (the terminal residual does meet it,
  and the mesh medians do decrease);
* criterion 11's frozen-increment instance on the nontrivial model: W - W_gamma
  resets at predictable times with nonzero conditional mean, so it is a
  relative martingale rather than a martingale, and the representation
  identity genuinely fails at interior stopping times (22.41 standard errors
  in the printed run).
"""

import math

import numpy as np
import pytest
from scipy.stats import kstwobign, norm

from skewlab.cli import _mesh_sups
from skewlab.grid_paths import SeedSpec, make_grid, sample_brownian
from skewlab.localtime import (
    ResidualReport,
    _increments,
    _product_residual,
    identity_residual,
)
from skewlab.signed_measure import (
    PROCESS_ZOO,
    build_model,
    equivalence_suite,
    martingale_drift_test,
    optional_representation_check,
    sigma_h_check,
)
from skewlab.signflip import AlphaSchedule, sign_path_rows
from skewlab.skewbm import (
    SkewLaw,
    harrison_shepp_terminals,
    ks_statistic,
    law_test,
    sde_residual,
    skew_terminal_sample,
    skew_terminal_samples,
)

from conftest import shifted_qp_terminals

SEED = SeedSpec(727272)
LEVELS = (2**12, 2**14, 2**16)
ALPHAS = (0.3, 0.5, 0.7)
N_LAW = 100_000
KS_REPS = 10


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"[CRITERION {number:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def law_samples():
    """Ten independent terminal-law repetitions, alphas coupled on shared
    drivers within each repetition (criterion 3; reused by 4 and 5)."""
    scheds = [AlphaSchedule.constant(a) for a in ALPHAS]
    return [
        skew_terminal_samples(scheds, N_LAW, 2**12, SEED.child(f"c3/rep{r}"))
        for r in range(KS_REPS)
    ]


def test_criterion_01_tanaka_identity():
    # the CLI's mesh loop: coarse Brownian path i refined through every level
    sups = _mesh_sups(SEED.child("c1"), LEVELS, 32,
                      lambda i, p: {"tanaka": identity_residual("tanaka", path=p)})["tanaka"]
    medians = {n: float(np.median(v)) for n, v in sups.items()}
    decreasing = medians[LEVELS[0]] > medians[LEVELS[1]] > medians[LEVELS[2]]
    bound = medians[LEVELS[2]] < 0.05
    detail = (
        "tanaka sup-norm medians "
        + " ".join(f"{n}:{medians[n]:.4f}" for n in LEVELS)
        + f"; decreasing={decreasing}, <0.05 at 2^16: {bound}"
    )
    announce(1, decreasing and bound, detail)
    assert decreasing, detail
    assert bound, detail + (
        " | analysis: the cross-estimator residual floors at O(N^-1/4) "
        "~ 1.3 * 0.0625 = 0.08 at N = 2^16 for every occupation bandwidth; "
        "0.05 is unattainable for the sup norm (terminal residuals pass it)"
    )


def test_criterion_02_balayage_identity():
    exact_ok = True

    def residuals(i, p):
        nonlocal exact_ok
        balayage = identity_residual("balayage", path=p)
        if i == 0:
            y = np.abs(p.values)
            r1 = ResidualReport.from_residual(
                _product_residual(np.ones(len(p)), y, _increments(y))
            )
            exact_ok &= r1.sup_norm < 1e-12
        return {"balayage": balayage}

    sups = _mesh_sups(SEED.child("c2"), LEVELS, 32, residuals)["balayage"]
    medians = {n: float(np.median(v)) for n, v in sups.items()}
    decreasing = medians[LEVELS[0]] > medians[LEVELS[1]] > medians[LEVELS[2]]
    bound = medians[LEVELS[2]] < 0.05
    ok = decreasing and bound and exact_ok
    announce(
        2, ok,
        "cos(gamma) balayage medians "
        + " ".join(f"{n}:{medians[n]:.5f}" for n in LEVELS)
        + f"; k=1 exact: {exact_ok}",
    )
    assert ok


def test_criterion_03_skew_law(law_samples):
    all_ok = True
    details = []
    for j, alpha in enumerate(ALPHAS):
        frac = float(np.mean(law_samples[0][j].values > 0))
        sign_ok = abs(frac - alpha) < 0.01
        passes = sum(
            law_test(law_samples[r][j], SkewLaw(alpha, 1.0)).passed
            for r in range(KS_REPS)
        )
        ks_ok = passes >= 8
        all_ok &= sign_ok and ks_ok
        details.append(f"alpha={alpha}: P(X>0)={frac:.4f}, KS {passes}/{KS_REPS}")
    announce(3, all_ok, "; ".join(details))
    assert all_ok, details


def test_criterion_04_walk_cross_validation(law_samples):
    alpha = 0.7
    spacing = 2.0 / math.sqrt(2**12)
    construction = law_samples[0][ALPHAS.index(alpha)]
    walk = harrison_shepp_terminals(alpha, 2**12, N_LAW, SEED.child("c4/walk"))
    rep = law_test(construction, walk, lattice_allowance=0.005, lattice_spacing=spacing)
    expected_crit = kstwobign.isf(0.01) * math.sqrt(2.0 / N_LAW) + 0.005
    ok = rep.passed and abs(rep.threshold - expected_crit) < 1e-12
    announce(
        4, ok,
        f"two-sample KS {rep.statistic:.5f} vs critical+lattice {rep.threshold:.5f} "
        f"(lattice spacing {spacing:.5f}, continuity-corrected)",
    )
    assert ok


def test_criterion_05_alpha_degeneracies(law_samples):
    grid = make_grid(1.0, 2**12)
    s = SEED.child("c5")
    driver = sample_brownian(grid, s.child("base"))

    def signs(sched):
        return sign_path_rows(driver.values[None, :], grid, sched, [s.child("signs")])[0]

    reflected = signs(AlphaSchedule.constant(1.0)) * np.abs(driver.values)
    bit_exact_abs = np.array_equal(reflected, np.abs(driver.values))

    half = law_samples[0][ALPHAS.index(0.5)]
    ks = ks_statistic(half.values, lambda y: norm.cdf(y))
    ks_ok = ks < kstwobign.isf(0.01) / math.sqrt(half.n)

    const = signs(AlphaSchedule.constant(0.3))
    single = signs(AlphaSchedule.piecewise([0.0], [0.3]))
    bit_exact_cell = np.array_equal(const, single)

    ok = bit_exact_abs and ks_ok and bit_exact_cell
    announce(
        5, ok,
        f"alpha=1 reflection bit-exact: {bit_exact_abs}; alpha=1/2 KS {ks:.5f} "
        f"pass: {ks_ok}; single-cell bit-exact: {bit_exact_cell}",
    )
    assert ok


def test_criterion_06_inhomogeneous_construction():
    sched = AlphaSchedule.piecewise([0.0, 0.5], [0.3, 0.8])
    signs = SEED.child("c6/signs")
    sups = _mesh_sups(SEED.child("c6"), LEVELS, 32,
                      lambda i, p: {"sde": sde_residual(p, sched, signs.with_path(i))})["sde"]
    medians = {n: float(np.median(v)) for n, v in sups.items()}
    decreasing = medians[LEVELS[0]] > medians[LEVELS[1]] > medians[LEVELS[2]]
    bound = medians[LEVELS[2]] < 0.1

    equal = AlphaSchedule.piecewise([0.0, 0.5], [0.7, 0.7])
    sample_eq = skew_terminal_sample(equal, N_LAW, 2**12, SEED.child("c6/eq"))
    sample_hom = skew_terminal_sample(
        AlphaSchedule.constant(0.7), N_LAW, 2**12, SEED.child("c6/hom")
    )
    rep = law_test(sample_eq, sample_hom)
    ok = decreasing and bound and rep.passed
    announce(
        6, ok,
        "two-cell sde medians "
        + " ".join(f"{n}:{medians[n]:.4f}" for n in LEVELS)
        + f"; equal-cell vs homogeneous KS {rep.statistic:.5f} pass: {rep.passed}",
    )
    assert ok


def test_criterion_07_qp_residuals():
    med = {name: float(np.median(shifted_qp_terminals(name, SEED.child("c7"), 2**16, 32)))
           for name in ("bm", "bm_plus_local_time")}
    neg = shifted_qp_terminals("bm_plus_drift", SEED.child("c7neg"), 2**11, 10_000)
    neg_mean = float(np.mean(neg))
    ok = med["bm"] < 0.05 and med["bm_plus_local_time"] < 0.05 and abs(neg_mean - 1.0) < 0.05
    announce(
        7, ok,
        f"median terminal: W {med['bm']:.4f}, W+2L {med['bm_plus_local_time']:.4f}; "
        f"negative-control mean {neg_mean:.4f} (oracle 1.0)",
    )
    assert ok


def test_criterion_08_martingale_drift():
    g = make_grid(1.0, 2**11)
    stats = {}
    for name in ("bm", "bm_plus_local_time", "bm_plus_drift"):
        stats[name] = martingale_drift_test(
            "shifted_brownian", name, g, SEED.child(f"c8/{name}"), 10_000
        ).statistic
    ok = stats["bm"] < 4 and stats["bm_plus_local_time"] < 4 and stats["bm_plus_drift"] > 5
    announce(
        8, ok,
        f"drift stats: DW {stats['bm']:.2f}, D(W+2L) {stats['bm_plus_local_time']:.2f}, "
        f"D(W+t) {stats['bm_plus_drift']:.2f} (must exceed 5)",
    )
    assert ok


def test_criterion_09_sigma_h():
    g = make_grid(1.0, 2**16)
    outcomes = {}
    for name, fam, positive in (
        ("reflected_bm", "trivial", True),
        ("bm_plus_local_time", "shifted_brownian", True),
        ("bm_plus_drift", "shifted_brownian", False),
    ):
        reps = []
        for i in range(5):
            s = SEED.child(f"c9/{name}").with_path(i)
            model = build_model(fam, g, s.child("model"))
            reps.append(sigma_h_check(PROCESS_ZOO[name](model, g, [s]), model))
        if positive:
            outcomes[name] = all(r.passed and r.statistic >= 0.95 for r in reps)
        else:
            outcomes[name] = all(not r.passed for r in reps)
    ok = all(outcomes.values())
    announce(9, ok, ", ".join(f"{k}: {v}" for k, v in outcomes.items()))
    assert ok


def test_criterion_10_equivalence_suites():
    suites = {
        "abs_mart": [("shifted_bm", "pass"), ("shifted_bm_drift", "fail")],
        "zalpha_mart": [("shifted_bm", "pass"), ("shifted_bm_drift", "fail")],
        "abs_sigma": [("bm", "pass"), ("bm_plus_drift", "fail")],
        "zalpha_sigma": [("bm", "pass"), ("bm_plus_drift", "fail")],
        "cmart": [("reflected_bm", "pass"), ("bm_plus_drift", "fail")],
    }
    all_ok = True
    summary = []
    for name, cases in suites.items():
        ok = True
        for r in range(8):
            for base, expected in cases:
                n_paths = 10_000 if name == "cmart" and expected == "pass" else 4000
                alpha = 0.5 if name == "cmart" else 0.7
                rep = equivalence_suite(
                    name, "trivial", base, alpha,
                    SEED.child(f"c10/{name}/{base}/run{r}"), n_paths,
                )
                agreed = rep.passed
                directed = (
                    f"left={expected}" in rep.detail
                    and f"right={expected}" in rep.detail
                )
                if not (agreed and directed):
                    ok = False
        all_ok &= ok
        summary.append(f"{name}: {'ok' if ok else 'DISAGREE'}")
    announce(10, all_ok, "; ".join(summary) + " (8 runs each, verdicts agree)")
    assert all_ok, summary


def test_criterion_11_optional_representation():
    g = make_grid(1.0, 2**10)
    events = {
        "omega": lambda m, models: True,
        "w_quarter_pos": lambda m, models: m[:, g.index_at(0.25)] > 0,
    }
    stats = {}
    for model_fam, base in (("trivial", "bm"), ("shifted_brownian", "bm_minus_frozen")):
        for t_stop in (0.5, 1.0):
            rep = optional_representation_check(
                base, t_stop, events, N_LAW, model_fam, g,
                SEED.child(f"c11/{model_fam}/{t_stop:g}"),
            )
            stats[f"{model_fam}@T={t_stop:g}"] = rep.statistic
    ok = all(v < 4.0 for v in stats.values())
    announce(
        11, ok, "; ".join(f"{k}: {v:.2f}" for k, v in stats.items()) + " (all must be < 4)"
    )
    assert ok, (
        f"{stats} | analysis: the frozen-increment instance is a relative "
        "martingale, not a martingale; the identity genuinely fails at "
        "interior stopping times under the nontrivial model"
    )


def test_criterion_12_determinism():
    from skewlab.cli import config_from_pairs, emit_report, run_experiment

    cfg = config_from_pairs(
        {"suite": "skew_law", "alpha": "0.5", "paths": "4000", "steps": "512", "seed": "5"}
    )
    import json

    payloads = []
    for _ in range(2):
        bundle = run_experiment(cfg)
        bundle.provenance["timestamp"] = "fixed"
        payloads.append(
            json.dumps(
                {
                    "provenance": bundle.provenance,
                    "reports": [
                        (r.suite, r.statistic, r.threshold, r.n_paths, r.n_steps,
                         r.seed.token() if r.seed else "", r.passed, r.detail)
                        for r in bundle.reports
                    ],
                },
                sort_keys=True,
            )
        )
    ok = payloads[0] == payloads[1]
    announce(12, ok, "identical reports for identical (config, seed), timestamp excluded")
    assert ok


def test_criterion_12b_emitted_bytes_identical(tmp_path):
    from skewlab.cli import config_from_pairs, emit_report, run_experiment

    cfg = config_from_pairs(
        {"suite": "identities", "steps": "512,1024", "seeds": "6", "seed": "5"}
    )
    blobs = []
    for sub in ("a", "b"):
        bundle = run_experiment(cfg)
        bundle.provenance["timestamp"] = "fixed"
        d = tmp_path / sub
        emit_report(bundle, "json", str(d))
        emit_report(bundle, "csv", str(d))
        blob = b"".join(
            open(d / name, "rb").read() for name in sorted(p.name for p in d.iterdir())
        )
        blobs.append(blob)
    assert blobs[0] == blobs[1]

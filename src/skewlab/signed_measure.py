"""Signed-measure models and the statistical verification suites.

The density process D plays the role of dQ/dP.  Two concrete families are
provided: ``trivial`` (D identically 1, so Q = P and the zero set H is empty)
and ``shifted_brownian`` (D = 1 + Brownian path stopped at the horizon, which
has a nontrivial H).  On a finite horizon D is uniformly integrable and the
terminal value stands in for D_infinity.

A process M with decomposition M = m + v is a martingale under the signed
measure exactly when the product D*M is an ordinary martingale, which is
equivalent to the pathwise condition

    int_0^t D dv + <M, D>_t = 0  for all t,

so the harness checks the property two independent ways: the pathwise
residual of that display (``qp_residual``) and a conditional-drift test on
the simulated product process (``martingale_drift_test``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .excursion import LastZeroCurve, ZeroMask, decompose_excursions, last_zero_curve
from .grid_paths import SamplePath, SeedSpec, TimeGrid, sample_brownian
from .localtime import ResidualReport, ito_sum, local_time, quadratic_covariation
from .signflip import AlphaSchedule, apply_sign, draw_sign_path

__all__ = [
    "HYPOTHESIS_NOT_MET",
    "InsufficientSamplesError",
    "HypothesisNotMetError",
    "SignedMeasureModel",
    "Decomposition",
    "TestReport",
    "build_model",
    "qp_residual",
    "carried_by_check",
    "martingale_drift_test",
    "sigma_h_check",
    "equivalence_suite",
    "optional_representation_check",
    "EQUIVALENCE_SUITES",
    "PROCESS_ZOO",
    "make_bm",
    "make_bm_plus_local_time",
    "make_bm_plus_drift",
    "make_bm_minus_frozen",
    "make_reflected_bm",
    "make_shifted_bm",
    "make_shifted_bm_drift",
]

#: detail prefix marking a report whose hypotheses failed (distinct from a
#: plain failure; the CLI maps it to its own exit code)
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


class InsufficientSamplesError(ValueError):
    """Raised when a statistical check receives too few paths."""


class HypothesisNotMetError(RuntimeError):
    """Raised when a construction's standing hypotheses fail and the caller
    demanded strict enforcement."""


# ---------------------------------------------------------------------------
# Models and decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedMeasureModel:
    """Density process D with its zero set H, last-zero curve and final zero."""

    d_path: SamplePath
    d_infinity: float
    h_mask: ZeroMask
    gamma: LastZeroCurve
    gbar: int
    family: str

    @classmethod
    def from_density(cls, d_path: SamplePath, family: str = "custom") -> "SignedMeasureModel":
        exc = decompose_excursions(d_path)
        gamma, gbar = last_zero_curve(exc)
        return cls(
            d_path=d_path,
            d_infinity=float(d_path.values[-1]),
            h_mask=exc.zero_events,
            gamma=gamma,
            gbar=gbar,
            family=family,
        )


def build_model(family: str, grid: TimeGrid, seed: SeedSpec) -> SignedMeasureModel:
    """Construct a concrete model: ``trivial`` (D = 1) or ``shifted_brownian``
    (D = 1 + B from the seed's ``density`` substream)."""
    if family == "trivial":
        d = SamplePath(grid, np.ones(grid.n_points))
        n = grid.n_points
        return SignedMeasureModel(
            d_path=d,
            d_infinity=1.0,
            h_mask=ZeroMask(np.zeros(n, dtype=bool)),
            gamma=LastZeroCurve(np.zeros(n, dtype=np.int64)),
            gbar=0,
            family="trivial",
        )
    if family == "shifted_brownian":
        d = sample_brownian(grid, seed.child("density"), x0=1.0)
        return SignedMeasureModel.from_density(d, family="shifted_brownian")
    raise ValueError(f"unknown model family {family!r}")


@dataclass(frozen=True)
class Decomposition:
    """A process with its asserted semimartingale split, total = mart + fv.

    For martingale suites the fields read M = m + v; for class-Sigma(H)
    suites they read X = M + A.  ``zero_source``, when present, is the signed
    process whose sign changes define the zero structure of ``total`` (a
    reflected path shows no sign changes of its own on a grid).
    """

    total: SamplePath
    martingale_part: SamplePath
    fv_part: SamplePath
    label: str = ""
    zero_source: Optional[SamplePath] = None

    def __post_init__(self):
        recon = self.martingale_part.values + self.fv_part.values
        if not np.allclose(self.total.values, recon, atol=1e-9, rtol=1e-9):
            raise ValueError("total must equal martingale_part + fv_part")

    @classmethod
    def martingale(cls, path: SamplePath, label: str = "") -> "Decomposition":
        zero = SamplePath(path.grid, np.zeros(len(path)))
        return cls(total=path, martingale_part=path, fv_part=zero, label=label)

    @property
    def zero_path(self) -> SamplePath:
        """The path whose excursions define the zero structure:
        ``zero_source`` when set, else ``total``."""
        return self.total if self.zero_source is None else self.zero_source


@dataclass(frozen=True)
class TestReport:
    """One verification outcome; ``passed`` is the wire field ``pass``."""

    suite: str
    statistic: float
    threshold: float
    n_paths: int
    n_steps: int
    seed: Optional[SeedSpec]
    passed: bool
    detail: str = ""

    @property
    def hypothesis_not_met(self) -> bool:
        return self.detail.startswith(HYPOTHESIS_NOT_MET)


# ---------------------------------------------------------------------------
# Pathwise checks
# ---------------------------------------------------------------------------


def qp_residual(dec: Decomposition, model: SignedMeasureModel) -> ResidualReport:
    """Residual curve of  int_0^t D dv + <M, D>_t  for one decomposition.

    A residual near zero certifies the signed-measure local-martingale
    property of M = m + v; the caller asserts which part is the finite
    variation one.
    """
    d = model.d_path
    if not d.grid.same_as(dec.total.grid):
        raise ValueError("decomposition and model live on different grids")
    residual = ito_sum(d, dec.fv_part).values + quadratic_covariation(dec.total, d).values
    return ResidualReport.from_residual(
        f"qp_residual[{dec.label or 'unnamed'}]", residual, dec.total.grid.n_steps, None
    )


def carried_by_check(
    fv: SamplePath,
    mask: ZeroMask,
    tol: float = 0.05,
    dilation: int = 2,
    seed: Optional[SeedSpec] = None,
) -> TestReport:
    """Fraction of the total variation of fv accumulated near the mask.

    The statistic is TV(fv restricted to increments within ``dilation`` grid
    steps of a mask index) / TV(fv); it passes when >= 1 - tol.  Zero total
    variation passes vacuously.
    """
    if len(mask) != len(fv.values):
        raise ValueError("mask and path lengths differ")
    dv = np.abs(np.diff(fv.values))
    total = float(dv.sum())
    if total == 0.0:
        stat = 1.0
    else:
        near = mask.dilate(dilation)
        near_incr = near[:-1] | near[1:]
        stat = float(dv[near_incr].sum() / total)
    return TestReport(
        suite="carried_by",
        statistic=stat,
        threshold=1.0 - tol,
        n_paths=1,
        n_steps=fv.grid.n_steps,
        seed=seed,
        passed=stat >= 1.0 - tol,
        detail=f"dilation={dilation}",
    )


# ---------------------------------------------------------------------------
# Statistical martingale test
# ---------------------------------------------------------------------------


def martingale_drift_test(
    process_family: Callable[[int], SamplePath],
    n_paths: int,
    checkpoints: Sequence[float],
    seed: Optional[SeedSpec] = None,
    threshold: float = 4.0,
    suite: str = "martingale_drift",
) -> TestReport:
    """Zero-conditional-drift test for a simulated process family.

    For consecutive checkpoint pairs (s, t) and a fixed dictionary of bounded
    weights evaluated at or before s (constant 1, the sign of the path at
    s/2, the indicator that the path at s exceeds the cross-path median) the
    statistic is |mean w*(P_t - P_s)| over its standard error, maximised over
    pairs and weights.  Martingales stay below ``threshold`` standard errors.
    """
    if n_paths < 1000:
        raise InsufficientSamplesError(f"need at least 1000 paths, got {n_paths}")
    cps = sorted(float(t) for t in checkpoints)
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps[0] > 0.0:
        cps = [0.0] + cps

    first = process_family(0)
    grid = first.grid
    pairs = list(zip(cps[:-1], cps[1:]))
    needed = sorted({grid.index_at(t) for s, t in pairs for t in (s, t, s / 2.0)})
    pos = {ix: j for j, ix in enumerate(needed)}

    values = np.empty((n_paths, len(needed)))
    values[0] = first.values[needed]
    for p in range(1, n_paths):
        values[p] = process_family(p).values[needed]

    worst = 0.0
    worst_tag = ""
    sqrt_n = math.sqrt(n_paths)
    for s, t in pairs:
        incr = values[:, pos[grid.index_at(t)]] - values[:, pos[grid.index_at(s)]]
        at_half = values[:, pos[grid.index_at(s / 2.0)]]
        at_s = values[:, pos[grid.index_at(s)]]
        weights = {
            "const": np.ones(n_paths),
            "sign_half": np.sign(at_half),
            "above_median": (at_s > np.median(at_s)).astype(float),
        }
        for wname, w in weights.items():
            x = w * incr
            sd = float(np.std(x, ddof=1))
            if sd == 0.0:
                continue
            stat = abs(float(np.mean(x))) / (sd / sqrt_n)
            if stat > worst:
                worst, worst_tag = stat, f"pair=({s:g},{t:g}) weight={wname}"
    return TestReport(
        suite=suite,
        statistic=worst,
        threshold=threshold,
        n_paths=n_paths,
        n_steps=grid.n_steps,
        seed=seed,
        passed=worst < threshold,
        detail=worst_tag,
    )


# ---------------------------------------------------------------------------
# Class Sigma(H) membership
# ---------------------------------------------------------------------------


def sigma_h_check(
    dec: Decomposition,
    model: SignedMeasureModel,
    tol: float = 0.05,
    dilation: int = 2,
    qp_tol: float = 0.05,
    snap_scale: float = 2.0,
    mart_fv: Optional[SamplePath] = None,
    seed: Optional[SeedSpec] = None,
) -> TestReport:
    """Membership check for X = M + A in the class Sigma(H).

    Passes iff (a) dA is carried by {X = 0} union H, (b) the qp residual of
    the martingale part stays below ``qp_tol`` (with ``mart_fv`` as M's own
    finite-variation part, zero when omitted), and (c) both parts start at 0.
    The zero set of X is read off ``dec.zero_source`` when present; for a
    nonnegative X without a source, values within snap_scale*sqrt(dt) of zero
    are treated as zeros, since a reflected path never changes sign on a grid.
    """
    x = dec.total
    src = dec.zero_path
    snap = 0.0
    if np.all(src.values >= 0.0):
        snap = snap_scale * math.sqrt(src.grid.dt)
    x_events = decompose_excursions(src, snap_tol=snap).zero_events
    mask = ZeroMask(x_events.flags | model.h_mask.flags)

    carried = carried_by_check(dec.fv_part, mask, tol=tol, dilation=dilation, seed=seed)

    v_m = mart_fv if mart_fv is not None else SamplePath(x.grid, np.zeros(len(x)))
    m_dec = Decomposition(
        total=dec.martingale_part,
        martingale_part=SamplePath(
            x.grid, dec.martingale_part.values - v_m.values
        ),
        fv_part=v_m,
        label=f"{dec.label}:mart",
    )
    qp = qp_residual(m_dec, model)
    qp_ok = qp.terminal < qp_tol

    starts_ok = dec.fv_part.values[0] == 0.0 and dec.martingale_part.values[0] == 0.0

    passed = bool(carried.passed and qp_ok and starts_ok)
    return TestReport(
        suite="sigma_h",
        statistic=carried.statistic,
        threshold=1.0 - tol,
        n_paths=1,
        n_steps=x.grid.n_steps,
        seed=seed,
        passed=passed,
        detail=(
            f"carried={carried.statistic:.4f} qp_terminal={qp.terminal:.4f} "
            f"starts_ok={starts_ok} label={dec.label}"
        ),
    )


# ---------------------------------------------------------------------------
# Concrete process zoo
# ---------------------------------------------------------------------------


def make_bm(model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec) -> Decomposition:
    """W independent of D (its own substream), so <W, D> = 0."""
    w = sample_brownian(grid, seed.child("w"))
    return Decomposition.martingale(w, label="bm")


def make_bm_plus_local_time(
    model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec, scale: float = 2.0
) -> Decomposition:
    """W + scale * L^0(D): the finite-variation part is carried by H."""
    w = sample_brownian(grid, seed.child("w"))
    lt = local_time(model.d_path, "tanaka").curve
    v = SamplePath(grid, scale * lt.values)
    return Decomposition(
        total=SamplePath(grid, w.values + v.values),
        martingale_part=w,
        fv_part=v,
        label="bm_plus_local_time",
    )


def make_bm_plus_drift(
    model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec
) -> Decomposition:
    """Negative control W + t: Lebesgue drift is carried by nothing useful."""
    w = sample_brownian(grid, seed.child("w"))
    v = SamplePath(grid, grid.times.copy())
    return Decomposition(
        total=SamplePath(grid, w.values + grid.times),
        martingale_part=w,
        fv_part=v,
        label="bm_plus_drift",
    )


def make_bm_minus_frozen(
    model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec
) -> Decomposition:
    """W - W_gamma with gamma the last zero of D: a martingale null on H."""
    w = sample_brownian(grid, seed.child("w"))
    vals = w.values - w.values[model.gamma.gamma]
    return Decomposition.martingale(SamplePath(grid, vals), label="bm_minus_frozen")


def make_reflected_bm(
    model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec
) -> Decomposition:
    """X = |W| split by Tanaka: M = int sgn(W) dW, A = L^0(W)."""
    w = sample_brownian(grid, seed.child("w"))
    sgn = SamplePath(grid, np.sign(w.values))
    m = ito_sum(sgn, w)
    total = SamplePath(grid, np.abs(w.values))
    fv = SamplePath(grid, total.values - m.values)
    return Decomposition(
        total=total, martingale_part=m, fv_part=fv, label="reflected_bm", zero_source=w
    )


def make_shifted_bm(
    model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec, shift: float = 3.0
) -> Decomposition:
    """shift + W: a martingale that almost never hits zero on [0, 1]."""
    w = sample_brownian(grid, seed.child("w"), x0=shift)
    return Decomposition.martingale(w, label="shifted_bm")


def make_shifted_bm_drift(
    model: SignedMeasureModel, grid: TimeGrid, seed: SeedSpec, shift: float = 3.0
) -> Decomposition:
    """Negative control shift + W + t, still zero-free but drifting."""
    w = sample_brownian(grid, seed.child("w"), x0=shift)
    v = SamplePath(grid, grid.times.copy())
    return Decomposition(
        total=SamplePath(grid, w.values + grid.times),
        martingale_part=w,
        fv_part=v,
        label="shifted_bm_drift",
    )


PROCESS_ZOO: dict[str, Callable[..., Decomposition]] = {
    "bm": make_bm,
    "bm_plus_local_time": make_bm_plus_local_time,
    "bm_plus_drift": make_bm_plus_drift,
    "bm_minus_frozen": make_bm_minus_frozen,
    "reflected_bm": make_reflected_bm,
    "shifted_bm": make_shifted_bm,
    "shifted_bm_drift": make_shifted_bm_drift,
}


# ---------------------------------------------------------------------------
# Equivalence suites
# ---------------------------------------------------------------------------


def _resolve_base(base) -> Callable[..., Decomposition]:
    if callable(base):
        return base
    try:
        return PROCESS_ZOO[base]
    except KeyError:
        raise ValueError(f"unknown base process {base!r}") from None


def _flip(dec: Decomposition, alpha: float, seed: SeedSpec) -> SamplePath:
    """Z^alpha applied to the total, with signs drawn on the zero source.

    A nonnegative total (a reflection) is flipped as Z * |source|: its own
    discretization shows no sign changes to hang excursions on.
    """
    src = dec.zero_path
    z = draw_sign_path(src, AlphaSchedule.constant(alpha), seed)
    if dec.zero_source is not None and np.all(dec.total.values >= 0):
        return apply_sign(z, src, mode="absolute")
    return apply_sign(z, dec.total, mode="signed")


def _zeros_within(dec: Decomposition, model: SignedMeasureModel, dilation: int = 2) -> bool:
    """Empirical check of {t : base_t = 0} subset H (up to grid dilation)."""
    events = decompose_excursions(dec.zero_path).zero_events
    if events.is_empty:
        return True
    near_h = model.h_mask.dilate(dilation)
    return bool(np.all(near_h[events.indices()]))


@dataclass
class _SuiteContext:
    model_family: str
    base_factory: Callable[..., Decomposition]
    alpha: float
    seed: SeedSpec
    n_paths: int
    grid: TimeGrid
    checkpoints: tuple[float, ...]
    threshold: float
    n_sigma_paths: int
    hyp_frac: float

    def instance(self, p: int) -> tuple[SignedMeasureModel, Decomposition, SeedSpec]:
        sp = self.seed.with_path(p)
        model = build_model(self.model_family, self.grid, sp.child("model"))
        dec = self.base_factory(model, self.grid, sp)
        return model, dec, sp


def _drift_verdict(ctx: _SuiteContext, make_product, tag: str, n_paths=None) -> TestReport:
    return martingale_drift_test(
        make_product,
        n_paths or ctx.n_paths,
        ctx.checkpoints,
        seed=ctx.seed,
        threshold=ctx.threshold,
        suite=tag,
    )


def _product(model: SignedMeasureModel, path: SamplePath) -> SamplePath:
    return SamplePath(path.grid, model.d_path.values * path.values)


def _hypothesis_violation_fraction(ctx: _SuiteContext, n_probe: int = 200) -> float:
    bad = 0
    n = min(n_probe, ctx.n_paths)
    for p in range(n):
        model, dec, _ = ctx.instance(p)
        if not _zeros_within(dec, model):
            bad += 1
    return bad / n


def _sigma_side(ctx: _SuiteContext, transform: Optional[str]) -> tuple[bool, float]:
    """Majority sigma_h verdict over a panel of paths; returns (pass, median stat)."""
    verdicts, stats = [], []
    for p in range(ctx.n_sigma_paths):
        model, dec, sp = ctx.instance(p)
        if transform == "abs":
            dec = _abs_transform(dec)
        elif transform == "flip":
            dec = _flip_transform(dec, ctx.alpha, sp.child("flip"))
        rep = sigma_h_check(dec, model, seed=ctx.seed)
        verdicts.append(rep.passed)
        stats.append(rep.statistic)
    return sum(verdicts) >= (len(verdicts) + 1) // 2, float(np.median(stats))


def _abs_transform(dec: Decomposition) -> Decomposition:
    """|X| with martingale part int sgn(X) dM and the rest as A."""
    src = dec.zero_path
    sgn = SamplePath(dec.total.grid, np.sign(src.values))
    m = ito_sum(sgn, dec.martingale_part)
    total = SamplePath(dec.total.grid, np.abs(dec.total.values))
    fv = SamplePath(dec.total.grid, total.values - total.values[0] - m.values)
    if total.values[0] != 0.0:
        total = SamplePath(total.grid, total.values - total.values[0])
    return Decomposition(
        total=total,
        martingale_part=m,
        fv_part=fv,
        label=f"abs({dec.label})",
        zero_source=src,
    )


def _flip_transform(dec: Decomposition, alpha: float, seed: SeedSpec) -> Decomposition:
    """Z^alpha X with martingale part int Z dM and the rest as A."""
    src = dec.zero_path
    z = draw_sign_path(src, AlphaSchedule.constant(alpha), seed)
    total = apply_sign(z, dec.total, mode="signed")
    m = ito_sum(z, dec.martingale_part)
    fv = SamplePath(dec.total.grid, total.values - m.values)
    return Decomposition(
        total=total,
        martingale_part=m,
        fv_part=fv,
        label=f"flip({dec.label})",
        zero_source=src,
    )


def _iff_report(ctx, name, left_pass, right_pass, stat, extra="") -> TestReport:
    left = "pass" if left_pass else "fail"
    right = "pass" if right_pass else "fail"
    return TestReport(
        suite=f"equivalence.{name}",
        statistic=stat,
        threshold=1.0,
        n_paths=ctx.n_paths,
        n_steps=ctx.grid.n_steps,
        seed=ctx.seed,
        passed=left_pass == right_pass,
        detail=f"left={left} right={right} {extra}".strip(),
    )


def _suite_abs_mart(ctx: _SuiteContext) -> TestReport:
    frac = _hypothesis_violation_fraction(ctx)
    if frac > ctx.hyp_frac:
        return _hyp_not_met(ctx, "abs_mart", frac)
    left = _drift_verdict(
        ctx, lambda p: _product(*_mp(ctx, p)), "equivalence.abs_mart.left"
    )
    right = _drift_verdict(
        ctx, lambda p: _abs_product(ctx, p), "equivalence.abs_mart.right"
    )
    stat = max(left.statistic, right.statistic) / ctx.threshold
    return _iff_report(ctx, "abs_mart", left.passed, right.passed, stat)


def _mp(ctx, p):
    model, dec, _ = ctx.instance(p)
    return model, dec.total


def _abs_product(ctx, p):
    model, dec, _ = ctx.instance(p)
    return _product(model, SamplePath(dec.total.grid, np.abs(dec.total.values)))


def _suite_zalpha_mart(ctx: _SuiteContext) -> TestReport:
    frac = _hypothesis_violation_fraction(ctx)
    if frac > ctx.hyp_frac:
        return _hyp_not_met(ctx, "zalpha_mart", frac)

    def flipped(p):
        model, dec, sp = ctx.instance(p)
        return _product(model, _flip(dec, ctx.alpha, sp.child("flip")))

    left = _drift_verdict(
        ctx, lambda p: _product(*_mp(ctx, p)), "equivalence.zalpha_mart.left"
    )
    right = _drift_verdict(ctx, flipped, "equivalence.zalpha_mart.right")
    stat = max(left.statistic, right.statistic) / ctx.threshold
    return _iff_report(ctx, "zalpha_mart", left.passed, right.passed, stat)


def _suite_abs_sigma(ctx: _SuiteContext) -> TestReport:
    left_pass, left_stat = _sigma_side(ctx, None)
    right_pass, right_stat = _sigma_side(ctx, "abs")
    stat = 1.0 - min(left_stat, right_stat)
    return _iff_report(
        ctx, "abs_sigma", left_pass, right_pass, stat,
        extra=f"stats=({left_stat:.3f},{right_stat:.3f})",
    )


def _suite_zalpha_sigma(ctx: _SuiteContext) -> TestReport:
    left_pass, left_stat = _sigma_side(ctx, None)
    right_pass, right_stat = _sigma_side(ctx, "flip")
    stat = 1.0 - min(left_stat, right_stat)
    return _iff_report(
        ctx, "zalpha_sigma", left_pass, right_pass, stat,
        extra=f"stats=({left_stat:.3f},{right_stat:.3f})",
    )


def _suite_cmart(ctx: _SuiteContext) -> TestReport:
    left_pass, left_stat = _sigma_side(ctx, None)

    def half_flip(p):
        model, dec, sp = ctx.instance(p)
        return _product(model, _flip(dec, 0.5, sp.child("flip")))

    right = _drift_verdict(ctx, half_flip, "equivalence.cmart.right")
    stat = right.statistic / ctx.threshold
    return _iff_report(
        ctx, "cmart", left_pass, right.passed, stat,
        extra=f"sigma_stat={left_stat:.3f}",
    )


def _suite_ito_xdx(ctx: _SuiteContext) -> TestReport:
    def xdx(p):
        model, dec, _ = ctx.instance(p)
        return _product(model, ito_sum(dec.total, dec.total))

    rep = _drift_verdict(ctx, xdx, "equivalence.ito_xdx")
    return TestReport(
        suite="equivalence.ito_xdx",
        statistic=rep.statistic / ctx.threshold,
        threshold=1.0,
        n_paths=ctx.n_paths,
        n_steps=ctx.grid.n_steps,
        seed=ctx.seed,
        passed=rep.passed,
        detail=rep.detail,
    )


def _suite_qp_brownian(ctx: _SuiteContext, qv_tol: float = 0.05, qp_tol: float = 0.05) -> TestReport:
    qv_errs, qp_terms = [], []
    horizon = ctx.grid.horizon
    for p in range(ctx.n_sigma_paths):
        model, dec, _ = ctx.instance(p)
        qv = quadratic_covariation(dec.total, dec.total).values[-1]
        qv_errs.append(abs(qv - horizon))
        qp_terms.append(qp_residual(dec, model).terminal)
    stat = max(float(np.median(qv_errs)) / qv_tol, float(np.median(qp_terms)) / qp_tol)
    return TestReport(
        suite="equivalence.qp_brownian",
        statistic=stat,
        threshold=1.0,
        n_paths=ctx.n_sigma_paths,
        n_steps=ctx.grid.n_steps,
        seed=ctx.seed,
        passed=stat < 1.0,
        detail=f"median_qv_err={np.median(qv_errs):.4f} median_qp={np.median(qp_terms):.4f}",
    )


def _suite_abs_brownian(ctx: _SuiteContext) -> TestReport:
    from scipy.stats import kstwobign, norm

    def half_flip(p):
        model, dec, sp = ctx.instance(p)
        return _product(model, _flip(dec, 0.5, sp.child("flip")))

    rep = _drift_verdict(ctx, half_flip, "equivalence.abs_brownian.drift")
    terminals = np.empty(ctx.n_paths)
    for p in range(ctx.n_paths):
        model, dec, sp = ctx.instance(p)
        terminals[p] = _flip(dec, 0.5, sp.child("flip")).values[-1]
    sorted_t = np.sort(terminals)
    n = len(sorted_t)
    cdf = norm.cdf(sorted_t, scale=math.sqrt(ctx.grid.horizon))
    emp_mid = (np.arange(n) + 0.5) / n
    ks = float(np.max(np.abs(emp_mid - cdf)))
    ks_crit = float(kstwobign.isf(0.01)) / math.sqrt(n)
    stat = max(rep.statistic / ctx.threshold, ks / ks_crit)
    return TestReport(
        suite="equivalence.abs_brownian",
        statistic=stat,
        threshold=1.0,
        n_paths=ctx.n_paths,
        n_steps=ctx.grid.n_steps,
        seed=ctx.seed,
        passed=stat < 1.0,
        detail=f"drift={rep.statistic:.2f} ks={ks:.5f} ks_crit={ks_crit:.5f}",
    )


def _hyp_not_met(ctx: _SuiteContext, name: str, frac: float) -> TestReport:
    return TestReport(
        suite=f"equivalence.{name}",
        statistic=frac,
        threshold=ctx.hyp_frac,
        n_paths=ctx.n_paths,
        n_steps=ctx.grid.n_steps,
        seed=ctx.seed,
        passed=False,
        detail=(
            f"{HYPOTHESIS_NOT_MET}: zeros of the base process are not "
            f"contained in H (violation fraction {frac:.3f})"
        ),
    )


EQUIVALENCE_SUITES = {
    "abs_mart": _suite_abs_mart,
    "zalpha_mart": _suite_zalpha_mart,
    "abs_sigma": _suite_abs_sigma,
    "zalpha_sigma": _suite_zalpha_sigma,
    "cmart": _suite_cmart,
    "ito_xdx": _suite_ito_xdx,
    "qp_brownian": _suite_qp_brownian,
    "abs_brownian": _suite_abs_brownian,
}


def equivalence_suite(
    name: str,
    model_family: str,
    base: Union[str, Callable[..., Decomposition]],
    alpha: float,
    seed: SeedSpec,
    n_paths: int,
    grid: Optional[TimeGrid] = None,
    checkpoints: Sequence[float] = (0.5, 1.0),
    threshold: float = 4.0,
    n_sigma_paths: int = 32,
    hyp_frac: float = 0.02,
) -> TestReport:
    """Run one named equivalence suite and report the two-sided verdict.

    For the "iff" suites the report passes when the left and right verdicts
    agree (pass/pass on positive instances, fail/fail on negative controls);
    a hypothesis violation (such as base zeros outside H) is reported with a
    hypothesis-not-met detail rather than a silent pass.  Consult
    ``EQUIVALENCE_SUITES`` for the recognized names.
    """
    if name not in EQUIVALENCE_SUITES:
        raise ValueError(f"unknown equivalence suite {name!r}")
    from .grid_paths import make_grid

    ctx = _SuiteContext(
        model_family=model_family,
        base_factory=_resolve_base(base),
        alpha=alpha,
        seed=seed,
        n_paths=n_paths,
        grid=grid if grid is not None else make_grid(1.0, 2**10),
        checkpoints=tuple(checkpoints),
        threshold=threshold,
        n_sigma_paths=n_sigma_paths,
        hyp_frac=hyp_frac,
    )
    return EQUIVALENCE_SUITES[name](ctx)


# ---------------------------------------------------------------------------
# Optional representation formula
# ---------------------------------------------------------------------------


def optional_representation_check(
    family: Callable[[SignedMeasureModel, TimeGrid, SeedSpec], Decomposition],
    stopping_rule: Union[float, Callable[[SamplePath, SignedMeasureModel], int]],
    events: dict,
    n_paths: int,
    model_family: str,
    grid: TimeGrid,
    seed: SeedSpec,
    threshold: float = 4.0,
) -> TestReport:
    """Weak-form check of M_T - M_{gamma_T} = E[M_inf 1{gbar < T} | F_T].

    Equality of conditional expectations is tested against a finite event
    dictionary: for each event A the paired statistic
    |mean (lhs - rhs) 1_A| / SE is required to stay below ``threshold``
    standard errors.  The caller is responsible for certifying the family as
    a signed-measure martingale with M_gbar = 0 (qp_residual / drift test).
    """
    if not events:
        raise ValueError("event dictionary must not be empty")
    if n_paths < 1000:
        raise InsufficientSamplesError(f"need at least 1000 paths, got {n_paths}")

    names = list(events)
    diffs = {name: np.empty(n_paths) for name in names}
    hits = {name: np.empty(n_paths, dtype=bool) for name in names}

    for p in range(n_paths):
        sp = seed.with_path(p)
        model = build_model(model_family, grid, sp.child("model"))
        dec = family(model, grid, sp)
        m = dec.total.values
        if callable(stopping_rule):
            t_idx = int(stopping_rule(dec.total, model))
        else:
            t_idx = grid.index_at(float(stopping_rule))
        g_t = int(model.gamma.gamma[t_idx])
        lhs = m[t_idx] - m[g_t]
        rhs = m[-1] * (model.gbar < t_idx)
        for name in names:
            diffs[name][p] = lhs - rhs
            hits[name][p] = bool(events[name](dec.total, model))

    worst, worst_name = 0.0, ""
    for name in names:
        x = diffs[name] * hits[name]
        sd = float(np.std(x, ddof=1))
        stat = 0.0 if sd == 0.0 else abs(float(np.mean(x))) / (sd / math.sqrt(n_paths))
        if stat >= worst:
            worst, worst_name = stat, name
    return TestReport(
        suite="optional_representation",
        statistic=worst,
        threshold=threshold,
        n_paths=n_paths,
        n_steps=grid.n_steps,
        seed=seed,
        passed=worst < threshold,
        detail=f"worst_event={worst_name}",
    )

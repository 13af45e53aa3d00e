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
residual of that display (the qp residual, ``_qp_rows``) and a
conditional-drift test on the simulated product process
(``martingale_drift_test``).

Models (:class:`ModelRows`) and processes with their split
(:class:`DecompositionRows`) are blocks, one path per row.  The suites (the
drift test, the equivalence suites, the optional representation check and
the sigma_h panels) name their base process by its ``PROCESS_ZOO`` name and
read it through one block reader, which builds each row block once
(``build_model_rows`` and the zoo's row kernels) and hands it to everything
the suite needs; ``build_model`` is the one-row case.
Likewise the qp residual, the carried-by fraction and Sigma(H) membership
are row kernels that work along the last axis of a block's arrays;
``sigma_h_check`` is the one-row case of the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .excursion import ExcursionRows, _signs, dilate
from .grid_paths import SeedSpec, TimeGrid, _check_aligned, block_rows, brownian_rows, make_grid
from .localtime import covariation_rows, ito_rows, tanaka_rows
from .signflip import AlphaSchedule, sign_path_rows

__all__ = [
    "HYPOTHESIS_NOT_MET",
    "InsufficientSamplesError",
    "ModelRows",
    "DecompositionRows",
    "MIN_PATHS",
    "TestReport",
    "build_model_rows",
    "build_model",
    "martingale_drift_test",
    "sigma_h_check",
    "sigma_h_panel",
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


#: the fewest paths (or law samples) a statistical check accepts
MIN_PATHS = 1000


# ---------------------------------------------------------------------------
# Models and decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelRows:
    """A block of density processes D, one path per row of ``d``; a
    one-row block is one model.

    ``d`` is stored as a read-only view, so a handed-out model stays frozen.
    The zero structure of D (``zeros.events`` is the zero set H of each row,
    ``zeros.gamma`` its last-zero curve and ``zeros.gbar`` its final zero) is
    computed on first read, so a suite that never reads it never decomposes D.
    """

    family: str
    grid: TimeGrid
    d: np.ndarray

    def __post_init__(self):
        d = self.d.view()
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @cached_property
    def zeros(self) -> ExcursionRows:
        return ExcursionRows(self.d)


def build_model_rows(family: str, grid: TimeGrid, seeds: Sequence[SeedSpec]) -> ModelRows:
    """Models of a block of paths, row j from ``seeds[j]``: ``trivial``
    (D = 1, a read-only broadcast of 1.0 that holds no row of its own) or
    ``shifted_brownian`` (D = 1 + B from the seed's ``density`` substream)."""
    if family == "trivial":
        return ModelRows(family, grid, np.broadcast_to(1.0, (len(seeds), grid.n_points)))
    if family == "shifted_brownian":
        d = brownian_rows(grid, [s.child("density") for s in seeds], x0=1.0)
        return ModelRows(family, grid, d)
    raise ValueError(f"unknown model family {family!r}")


def build_model(family: str, grid: TimeGrid, seed: SeedSpec) -> ModelRows:
    """Construct one concrete model, as a one-row block: the one-row case of
    :func:`build_model_rows`."""
    return build_model_rows(family, grid, [seed])


#: elements of each temporary of :func:`_check_split`
_SPLIT_TILE = 2**14


def _check_split(total: np.ndarray, mart: np.ndarray, fv: np.ndarray) -> None:
    """Require |total - recon| <= 1e-9 + 1e-9 |recon| everywhere, with
    recon = mart + fv: ``np.allclose`` on finite values.  The (rows,
    n_points) arrays, any of them broadcast, are checked in tiles of at most
    ``_SPLIT_TILE`` elements (whole rows when they fit), so the two
    temporaries stay that small, and the check stops at the first tile that
    fails."""
    total, mart, fv = np.broadcast_arrays(total, mart, fv)
    n_rows, n_points = total.shape
    cols = max(1, min(n_points, _SPLIT_TILE))
    rows = _SPLIT_TILE // cols
    buffers = np.empty((2, rows * cols))
    for r in range(0, n_rows, rows):
        for c in range(0, n_points, cols):
            tile = np.s_[r:r + rows, c:c + cols]
            t = total[tile]
            recon, err = (b[:t.size].reshape(t.shape) for b in buffers)
            np.add(mart[tile], fv[tile], out=recon)
            np.subtract(t, recon, out=err)
            np.abs(err, out=err)
            np.abs(recon, out=recon)
            recon *= 1e-9
            recon += 1e-9
            if not (err <= recon).all():
                raise ValueError("total must equal martingale_part + fv_part")


@dataclass(frozen=True, eq=False)
class DecompositionRows:
    """A block of processes with their asserted semimartingale split,
    total = martingale_part + fv_part, one path per row of each array.

    For martingale suites the fields read M = m + v; for class-Sigma(H)
    suites they read X = M + A.  ``zero_source``, when present, holds the
    signed processes whose sign changes define the zero structure of
    ``total`` (a reflected path shows no sign changes of its own on a grid).
    The arrays are stored as read-only views, so a handed-out block stays
    frozen.
    """

    grid: TimeGrid
    total: np.ndarray
    martingale_part: np.ndarray
    fv_part: np.ndarray
    label: str = ""
    zero_source: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_split(self.total, self.martingale_part, self.fv_part)
        for name in ("total", "martingale_part", "fv_part", "zero_source"):
            values = getattr(self, name)
            if values is not None:
                values = values.view()
                values.flags.writeable = False
                object.__setattr__(self, name, values)

    @classmethod
    def martingale(cls, grid: TimeGrid, values: np.ndarray, label: str = "") -> "DecompositionRows":
        return cls(grid, values, values, np.broadcast_to(0.0, values.shape), label)

    @property
    def zero_path(self) -> np.ndarray:
        """The rows whose excursions define the zero structure:
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

    @classmethod
    def below(cls, suite, statistic, threshold, n_paths, n_steps, seed, detail="") -> "TestReport":
        """The report of a check that passes when ``statistic < threshold``."""
        passed = statistic < threshold
        return cls(suite, statistic, threshold, n_paths, n_steps, seed, passed, detail)

    @property
    def hypothesis_not_met(self) -> bool:
        return self.detail.startswith(HYPOTHESIS_NOT_MET)


# ---------------------------------------------------------------------------
# Pathwise checks
# ---------------------------------------------------------------------------


def _qp_rows(d: np.ndarray, total: np.ndarray, fv: Optional[np.ndarray] = None) -> np.ndarray:
    """Residual curves of  int_0^t D dv + <M, D>_t  along the last axis, for
    M = total with finite-variation part fv (v = 0 when fv is None).  A
    residual near zero certifies the signed-measure local-martingale property
    of M = m + v."""
    residual = covariation_rows(total, d)
    if fv is not None:
        residual += ito_rows(d, fv)
    return residual


def _check_one_row(dec: DecompositionRows, model: ModelRows) -> None:
    for what, rows in (("model", len(model.d)), ("decomposition", len(dec.total))):
        if rows != 1:
            raise ValueError(f"need a one-row {what}, got {rows} rows")
    _check_aligned(dec, model)


#: grid steps around a zero (of H, or of the base) that count as on it
_DILATION = 2
#: tolerance of the carried-by fraction and of the qp residual in a Sigma(H)
#: check (the carried-by one is ``tol.carried_by`` in the CLI)
_SIGMA_TOL = 0.05


def _carried_rows(fv: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Carried-by statistic of each row of fv: the total variation over the
    increments within ``_DILATION`` steps of a mask index, over the total
    variation, and 1 where that is 0."""
    dv = np.diff(fv, axis=-1)
    np.abs(dv, out=dv)
    total = dv.sum(axis=-1)
    near = dilate(mask, _DILATION)
    near_incr = near[:, :-1] | near[:, 1:]
    stat = np.ones(len(dv))
    # compacted row by row: a masked sum along the axis rounds differently
    for r in np.flatnonzero(total):
        stat[r] = dv[r][near_incr[r]].sum() / total[r]
    return stat


# ---------------------------------------------------------------------------
# Statistical martingale test
# ---------------------------------------------------------------------------


def _require_paths(n_paths: int) -> None:
    if n_paths < MIN_PATHS:
        raise InsufficientSamplesError(f"need at least {MIN_PATHS} paths, got {n_paths}")


#: the checkpoint pairs (s, t) of every drift test
_PAIRS = ((0.0, 0.5), (0.5, 1.0))


def _checkpoint_columns(grid: TimeGrid) -> list[int]:
    """Grid indices the drift statistic reads: s, t and s/2 of each pair."""
    return sorted({grid.index_at(t) for s, t in _PAIRS for t in (s, t, s / 2.0)})


#: default threshold of the drift and representation t statistics
_THRESHOLD = 4.0


def _t_stat(x: np.ndarray) -> float:
    """|mean x| over its standard error; 0 when x has no spread."""
    sd = float(np.std(x, ddof=1))
    return 0.0 if sd == 0.0 else abs(float(np.mean(x))) / (sd / math.sqrt(len(x)))


def _drift_report(
    values: np.ndarray,
    grid: TimeGrid,
    seed: Optional[SeedSpec],
    threshold: float,
    suite: str,
) -> TestReport:
    """The drift statistic of an (n_paths, k) matrix of checkpoint columns."""
    pos = {ix: j for j, ix in enumerate(_checkpoint_columns(grid))}
    n_paths = len(values)
    worst = 0.0
    worst_tag = ""
    for s, t in _PAIRS:
        incr = values[:, pos[grid.index_at(t)]] - values[:, pos[grid.index_at(s)]]
        at_half = values[:, pos[grid.index_at(s / 2.0)]]
        at_s = values[:, pos[grid.index_at(s)]]
        weights = {
            "const": np.ones(n_paths),
            "sign_half": np.sign(at_half),
            "above_median": (at_s > np.median(at_s)).astype(float),
        }
        for wname, w in weights.items():
            stat = _t_stat(w * incr)
            if stat > worst:
                worst, worst_tag = stat, f"pair=({s:g},{t:g}) weight={wname}"
    return TestReport.below(suite, worst, threshold, n_paths, grid.n_steps, seed, worst_tag)


def martingale_drift_test(
    model_family: str,
    base: str,
    grid: TimeGrid,
    seed: SeedSpec,
    n_paths: int,
    threshold: float = _THRESHOLD,
    suite: str = "martingale_drift",
) -> TestReport:
    """Zero-conditional-drift test of the products P = D * X of a model
    family and the base process named ``base``, path p from
    ``seed.with_path(p)`` (its model from that seed's ``model`` substream).

    For the checkpoint pairs (s, t) of ``_PAIRS`` and a fixed dictionary of
    bounded weights evaluated at or before s (constant 1, the sign of the path
    at s/2, the indicator that the path at s exceeds the cross-path median) the
    statistic is |mean w*(P_t - P_s)| over its standard error, maximised over
    pairs and weights.  Martingales stay below ``threshold`` standard errors.
    Only the checkpoint columns of each path are kept.  The report carries
    ``seed``.
    """
    _require_paths(n_paths)
    columns = _checkpoint_columns(grid)
    _, (values,) = _read_blocks(
        model_family, base, grid, seed,
        [(n_paths, lambda models, dec, seeds: _product_at(models, dec.total, columns))],
    )
    return _drift_report(values, grid, seed, threshold, suite)


# ---------------------------------------------------------------------------
# Class Sigma(H) membership
# ---------------------------------------------------------------------------


def _sigma_rows(models: ModelRows, src, mart, fv, tol=_SIGMA_TOL):
    """Sigma(H) membership of X = M + A along the last axis, with the zeros
    of X read off ``src``: per row the carried-by statistic of A, the qp
    terminal of M, whether both parts start at 0, and the verdict."""
    nonneg = (src >= 0.0).all(axis=-1)
    snap = np.where(nonneg, 2.0 * math.sqrt(models.grid.dt), 0.0)
    mask = ExcursionRows(src, snap_tol=snap[:, None]).events | models.zeros.events
    carried = _carried_rows(fv, mask)
    qp = np.abs(_qp_rows(models.d, mart)[:, -1])
    starts_ok = (fv[:, 0] == 0.0) & (mart[:, 0] == 0.0)
    passed = (carried >= 1.0 - tol) & (qp < _SIGMA_TOL) & starts_ok
    return carried, qp, starts_ok, passed


def sigma_h_check(dec: DecompositionRows, model: ModelRows) -> TestReport:
    """Membership check for X = M + A in the class Sigma(H), for a one-row
    decomposition and a one-row model: the one-row case of the Sigma(H) row
    kernel.

    Passes iff (a) dA is carried by {X = 0} union H: at least 0.95 of its
    total variation lies on increments within 2 grid steps of those zeros
    (the statistic, against the threshold 0.95), (b) the terminal qp
    residual of the martingale part M, split as M = M + 0, stays below 0.05,
    and (c) both parts start at 0.
    The zero set of X is read off ``dec.zero_source`` when present; for a
    nonnegative X without a source, values within 2 sqrt(dt) of zero are
    treated as zeros, since a reflected path never changes sign on a grid.
    The report carries no seed.
    """
    _check_one_row(dec, model)
    rows = _sigma_rows(model, dec.zero_path, dec.martingale_part, dec.fv_part)
    carried, qp, starts_ok, passed = (r[0] for r in rows)
    return TestReport(
        suite="sigma_h",
        statistic=float(carried),
        threshold=1.0 - _SIGMA_TOL,
        n_paths=1,
        n_steps=dec.grid.n_steps,
        seed=None,
        passed=bool(passed),
        detail=(
            f"carried={carried:.4f} qp_terminal={qp:.4f} "
            f"starts_ok={bool(starts_ok)} label={dec.label}"
        ),
    )


# ---------------------------------------------------------------------------
# Concrete process zoo
# ---------------------------------------------------------------------------


def _w(grid: TimeGrid, seeds: Sequence[SeedSpec], x0: float = 0.0) -> np.ndarray:
    return brownian_rows(grid, [s.child("w") for s in seeds], x0)


def make_bm(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """W independent of D (its own substream), so <W, D> = 0."""
    return DecompositionRows.martingale(grid, _w(grid, seeds), label="bm")


def make_bm_plus_local_time(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """W + 2 L^0(D): the finite-variation part is carried by H."""
    w = _w(grid, seeds)
    v = tanaka_rows(models.d)
    v *= 2.0
    return DecompositionRows(grid, w + v, w, v, label="bm_plus_local_time")


def make_bm_plus_drift(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """Negative control W + t: Lebesgue drift is carried by nothing useful."""
    w = _w(grid, seeds)
    t = np.broadcast_to(grid.times, w.shape)
    return DecompositionRows(grid, w + grid.times, w, t, label="bm_plus_drift")


def make_bm_minus_frozen(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """W - W_gamma with gamma the last zero of D: a martingale null on H."""
    w = _w(grid, seeds)
    frozen = np.take_along_axis(w, models.zeros.gamma, axis=1)
    return DecompositionRows.martingale(grid, w - frozen, label="bm_minus_frozen")


def make_reflected_bm(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """X = |W| split by Tanaka: M = int sgn(W) dW, A = L^0(W)."""
    w = _w(grid, seeds)
    m = ito_rows(_signs(w), w)
    total = np.abs(w)
    return DecompositionRows(grid, total, m, total - m, label="reflected_bm", zero_source=w)


def make_shifted_bm(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """3 + W: a martingale that almost never hits zero on [0, 1]."""
    return DecompositionRows.martingale(grid, _w(grid, seeds, 3.0), label="shifted_bm")


def make_shifted_bm_drift(models: ModelRows, grid: TimeGrid, seeds) -> DecompositionRows:
    """Negative control 3 + W + t, still zero-free but drifting."""
    w = _w(grid, seeds, 3.0)
    t = np.broadcast_to(grid.times, w.shape)
    return DecompositionRows(grid, w + grid.times, w, t, label="shifted_bm_drift")


#: the process zoo: name -> row kernel ``(models, grid, seeds) ->
#: DecompositionRows``, row j from ``seeds[j]`` and the model in row j
PROCESS_ZOO: dict[str, Callable[..., DecompositionRows]] = {
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

#: paths whose zeros are checked against H before a *_mart suite runs, and
#: the largest fraction of them that may fail
_PROBE_PATHS = 200
_HYP_FRAC = 0.02
#: the equivalence suites' grid
_EQUIVALENCE_GRID = make_grid(1.0, 2**10)
#: the paths of the equivalence suites' sigma_h and qp panels
_SIGMA_PATHS = 32


def _flip_rows(dec: DecompositionRows, alpha: float, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Z^alpha, with signs drawn on the zero source from each path's ``flip``
    substream, and Z * X."""
    z = sign_path_rows(
        dec.zero_path, dec.grid, AlphaSchedule.constant(alpha), [s.child("flip") for s in seeds]
    )
    return z, z * dec.total


def _abs_split(dec: DecompositionRows, seeds) -> tuple[np.ndarray, np.ndarray]:
    """|X| - |X_0| split as int sgn(X) dM plus the rest as A."""
    m = ito_rows(_signs(dec.zero_path), dec.martingale_part)
    total = np.abs(dec.total)
    return m, total - total[:, :1] - m


def _flip_split(dec: DecompositionRows, seeds, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Z^alpha X split as int Z dM plus the rest as A."""
    z, flipped = _flip_rows(dec, alpha, seeds)
    m = ito_rows(z, dec.martingale_part)
    return m, flipped - m


def _sigma_side(split=None, tol: float = _SIGMA_TOL):
    """A side of sigma_h (statistic, verdict) rows of X = M + A, with (M, A)
    = ``split(dec, seeds)`` (the base's own split when None) and the zeros
    of X read off the base's zero source."""

    def side(models: ModelRows, dec: DecompositionRows, seeds) -> np.ndarray:
        m, fv = (dec.martingale_part, dec.fv_part) if split is None else split(dec, seeds)
        carried, _, _, passed = _sigma_rows(models, dec.zero_path, m, fv, tol)
        return np.column_stack((carried, passed))

    return side


def _majority(panel: np.ndarray) -> tuple[bool, float]:
    """Majority verdict over a panel of sigma_h rows and the median statistic."""
    passed = int(panel[:, 1].sum()) >= (len(panel) + 1) // 2
    return passed, float(np.median(panel[:, 0]))


def _hypothesis_violations(models: ModelRows, dec: DecompositionRows, k: int) -> int:
    """Paths among the block's first k whose zeros are not within H (up to
    grid dilation): an empirical check of {t : base_t = 0} subset H."""
    events = ExcursionRows(dec.zero_path[:k]).events
    near_h = dilate(models.zeros.events[:k], _DILATION)
    return int(np.count_nonzero((events & ~near_h).any(axis=1)))


def _product_at(models: ModelRows, x: np.ndarray, columns) -> np.ndarray:
    """Columns of the products D * X."""
    return models.d[:, columns] * x[:, columns]


def _read_blocks(model_family: str, base: str, grid: TimeGrid, seed: SeedSpec, sides,
                 n_probe: int = 0):
    """Read what a suite needs in one pass over its row blocks, so each block
    of models and base processes is built once.

    Path p reads ``seed.with_path(p)``, its model that seed's ``model``
    substream and its base process the zoo member named ``base``, whatever
    block it falls in; blocks hold ``block_rows(grid.n_points)`` paths.
    Each side is a pair ``(n, side)``: ``side`` maps a block ``(models, dec,
    seeds)`` to one row per path and is gathered over the first n paths.
    The zeros of the first ``n_probe`` paths are checked against H, and the
    pass stops after the probe when more than ``_HYP_FRAC`` of them fail.

    Returns (probe violation fraction, side matrices or None when the probe
    failed).
    """
    if base not in PROCESS_ZOO:
        raise ValueError(f"unknown base process {base!r}: expected a PROCESS_ZOO name")
    kernel = PROCESS_ZOO[base]
    gathered = [[] for _ in sides]

    def read_block(lo: int, hi: int) -> int:
        # the block dies with this call, before the next one is built
        seeds = [seed.with_path(p) for p in range(lo, hi)]
        models = build_model_rows(model_family, grid, [s.child("model") for s in seeds])
        dec = kernel(models, grid, seeds)
        for out, (n, side) in zip(gathered, sides):
            if lo < n:
                out.append(side(models, dec, seeds)[: min(hi, n) - lo])
        probed = min(hi, n_probe) - lo
        return _hypothesis_violations(models, dec, probed) if probed > 0 else 0

    n_paths = max(n for n, _ in sides)
    step = block_rows(grid.n_points)
    bad = 0
    for lo in range(0, n_paths, step):
        hi = min(lo + step, n_paths)
        bad += read_block(lo, hi)
        if lo < n_probe <= hi and bad / n_probe > _HYP_FRAC:
            return bad / n_probe, None
    return (bad / n_probe if n_probe else 0.0), [np.concatenate(out) for out in gathered]


def sigma_h_panel(model_family: str, base: str, grid: TimeGrid, seed: SeedSpec, n_paths: int,
                  tol=_SIGMA_TOL):
    """sigma_h statistics and verdicts of paths 0..n_paths-1 of a model family
    and the base process named ``base``, read as :func:`_read_blocks` reads
    them."""
    _, (panel,) = _read_blocks(model_family, base, grid, seed, [(n_paths, _sigma_side(tol=tol))])
    return panel[:, 0], panel[:, 1].astype(bool)


@dataclass
class _SuiteContext:
    model_family: str
    base: str
    alpha: float
    seed: SeedSpec
    n_paths: int
    grid: TimeGrid

    def drift_columns(self):
        """The grid columns the drift statistic reads, once the suite's path
        count is checked."""
        _require_paths(self.n_paths)
        return _checkpoint_columns(self.grid)

    def drift(self, values: np.ndarray, tag: str) -> TestReport:
        return _drift_report(values, self.grid, self.seed, _THRESHOLD, tag)

    def read(self, sides, probe: bool = False):
        """:func:`_read_blocks` on this suite's paths; with ``probe`` the
        first ``_PROBE_PATHS`` of them are probed."""
        n_probe = min(_PROBE_PATHS, self.n_paths) if probe else 0
        return _read_blocks(self.model_family, self.base, self.grid, self.seed, sides, n_probe)

    def panel(self, split=None):
        """A side of sigma_h rows gathered over the first ``_SIGMA_PATHS``."""
        return _SIGMA_PATHS, _sigma_side(split)

    def report(self, name, statistic, passed, detail, threshold=1.0) -> TestReport:
        """The report of suite ``name`` over this suite's paths, grid and seed."""
        return TestReport(
            f"equivalence.{name}", statistic, threshold, self.n_paths, self.grid.n_steps,
            self.seed, passed, detail,
        )

    def below(self, name, statistic, detail, n_paths=None) -> TestReport:
        """The report of suite ``name`` whose statistic is scaled to a
        threshold of 1 and passes below it (over all ``n_paths`` paths unless
        told otherwise)."""
        n_paths = self.n_paths if n_paths is None else n_paths
        return TestReport.below(
            f"equivalence.{name}", statistic, 1.0, n_paths, self.grid.n_steps, self.seed, detail
        )


def _iff_report(ctx, name, left_pass, right_pass, stat, extra="") -> TestReport:
    left = "pass" if left_pass else "fail"
    right = "pass" if right_pass else "fail"
    return ctx.report(
        name, stat, left_pass == right_pass, f"left={left} right={right} {extra}".strip()
    )


def _mart_suite(ctx: _SuiteContext, name: str, right_process) -> TestReport:
    """An iff suite of two drift tests: D * X on the left, D * right_process
    on the right, after the hypothesis probe."""
    columns = ctx.drift_columns()
    frac, sides = ctx.read(
        [
            (ctx.n_paths, lambda models, dec, seeds: _product_at(models, dec.total, columns)),
            (ctx.n_paths,
             lambda models, dec, seeds: _product_at(models, right_process(dec, seeds), columns)),
        ],
        probe=True,
    )
    if sides is None:
        return ctx.report(
            name, frac, False,
            f"{HYPOTHESIS_NOT_MET}: zeros of the base process are not "
            f"contained in H (violation fraction {frac:.3f})",
            threshold=_HYP_FRAC,
        )
    left = ctx.drift(sides[0], f"equivalence.{name}.left")
    right = ctx.drift(sides[1], f"equivalence.{name}.right")
    stat = max(left.statistic, right.statistic) / _THRESHOLD
    return _iff_report(ctx, name, left.passed, right.passed, stat)


def _sigma_suite(ctx: _SuiteContext, name: str, split) -> TestReport:
    """An iff suite of two sigma_h panels, the base and its transform."""
    _, panels = ctx.read([ctx.panel(), ctx.panel(split)])
    (left_pass, left_stat), (right_pass, right_stat) = map(_majority, panels)
    stat = 1.0 - min(left_stat, right_stat)
    return _iff_report(
        ctx, name, left_pass, right_pass, stat,
        extra=f"stats=({left_stat:.3f},{right_stat:.3f})",
    )


def _suite_cmart(ctx: _SuiteContext) -> TestReport:
    columns = ctx.drift_columns()
    _, (panel, half_flips) = ctx.read([
        ctx.panel(),
        (ctx.n_paths,
         lambda models, dec, seeds: _product_at(models, _flip_rows(dec, 0.5, seeds)[1], columns)),
    ])
    left_pass, left_stat = _majority(panel)
    right = ctx.drift(half_flips, "equivalence.cmart.right")
    stat = right.statistic / _THRESHOLD
    return _iff_report(
        ctx, "cmart", left_pass, right.passed, stat,
        extra=f"sigma_stat={left_stat:.3f}",
    )


def _suite_ito_xdx(ctx: _SuiteContext) -> TestReport:
    columns = ctx.drift_columns()
    _, (xdx,) = ctx.read(
        [(ctx.n_paths,
          lambda models, dec, seeds: _product_at(models, ito_rows(dec.total, dec.total), columns))]
    )
    rep = ctx.drift(xdx, "equivalence.ito_xdx")
    return ctx.report("ito_xdx", rep.statistic / _THRESHOLD, rep.passed, rep.detail)


def _suite_qp_brownian(ctx: _SuiteContext) -> TestReport:
    horizon = ctx.grid.horizon

    def residuals(models, dec, seeds):
        qv = covariation_rows(dec.total, dec.total)[:, -1]
        qp = _qp_rows(models.d, dec.total, dec.fv_part)[:, -1]
        return np.column_stack((np.abs(qv - horizon), np.abs(qp)))

    _, (panel,) = ctx.read([(_SIGMA_PATHS, residuals)])
    qv_errs, qp_terms = panel.T
    stat = max(float(np.median(qv_errs)) / 0.05, float(np.median(qp_terms)) / 0.05)
    return ctx.below(
        "qp_brownian", stat,
        f"median_qv_err={np.median(qv_errs):.4f} median_qp={np.median(qp_terms):.4f}",
        n_paths=_SIGMA_PATHS,
    )


def _suite_abs_brownian(ctx: _SuiteContext) -> TestReport:
    from .skewbm import LawSample, SkewLaw, law_test  # skewbm imports this module

    columns = ctx.drift_columns()

    def half_flips(models, dec, seeds):
        _, x = _flip_rows(dec, 0.5, seeds)
        return np.column_stack((_product_at(models, x, columns), x[:, -1]))

    _, (read,) = ctx.read([(ctx.n_paths, half_flips)])
    rep = ctx.drift(read[:, :-1], "equivalence.abs_brownian.drift")
    horizon = ctx.grid.horizon
    ks = law_test(LawSample(read[:, -1]), SkewLaw(0.5, horizon))
    stat = max(rep.statistic / _THRESHOLD, ks.statistic / ks.threshold)
    return ctx.below(
        "abs_brownian", stat,
        f"drift={rep.statistic:.2f} ks={ks.statistic:.5f} ks_crit={ks.threshold:.5f}",
    )


EQUIVALENCE_SUITES = {
    "abs_mart": lambda ctx: _mart_suite(ctx, "abs_mart", lambda dec, seeds: np.abs(dec.total)),
    "zalpha_mart": lambda ctx: _mart_suite(
        ctx, "zalpha_mart", lambda dec, seeds: _flip_rows(dec, ctx.alpha, seeds)[1]
    ),
    "abs_sigma": lambda ctx: _sigma_suite(ctx, "abs_sigma", _abs_split),
    "zalpha_sigma": lambda ctx: _sigma_suite(
        ctx, "zalpha_sigma", lambda dec, seeds: _flip_split(dec, seeds, ctx.alpha)
    ),
    "cmart": _suite_cmart,
    "ito_xdx": _suite_ito_xdx,
    "qp_brownian": _suite_qp_brownian,
    "abs_brownian": _suite_abs_brownian,
}


def equivalence_suite(
    name: str,
    model_family: str,
    base: str,
    alpha: float,
    seed: SeedSpec,
    n_paths: int,
) -> TestReport:
    """Run one named equivalence suite on ``_EQUIVALENCE_GRID`` (2**10 steps
    on [0, 1]) and report the two-sided verdict.

    For the "iff" suites the report passes when the left and right verdicts
    agree (pass/pass on positive instances, fail/fail on negative controls);
    a hypothesis violation (such as base zeros outside H) is reported with a
    hypothesis-not-met detail rather than a silent pass.  Consult
    ``EQUIVALENCE_SUITES`` for the recognized names.
    """
    if name not in EQUIVALENCE_SUITES:
        raise ValueError(f"unknown equivalence suite {name!r}")
    ctx = _SuiteContext(
        model_family=model_family,
        base=base,
        alpha=alpha,
        seed=seed,
        n_paths=n_paths,
        grid=_EQUIVALENCE_GRID,
    )
    return EQUIVALENCE_SUITES[name](ctx)


# ---------------------------------------------------------------------------
# Optional representation formula
# ---------------------------------------------------------------------------


def optional_representation_check(
    base: str,
    stopping_rule: Union[float, Callable[[np.ndarray, ModelRows], np.ndarray]],
    events: dict,
    n_paths: int,
    model_family: str,
    grid: TimeGrid,
    seed: SeedSpec,
    threshold: float = _THRESHOLD,
) -> TestReport:
    """Weak-form check of M_T - M_{gamma_T} = E[M_inf 1{gbar < T} | F_T] for
    the base process named ``base``, its paths read as :func:`_read_blocks`
    reads them.

    Equality of conditional expectations is tested against a finite event
    dictionary: for each event A the paired statistic
    |mean (lhs - rhs) 1_A| / SE is required to stay below ``threshold``
    standard errors.  The caller is responsible for certifying the family as
    a signed-measure martingale with M_gbar = 0 (qp residual / drift test).

    A callable stopping rule and the events are row functions ``(m,
    models)`` of a block's ``(rows, n_points)`` M values and its
    :class:`ModelRows`: the stopping rule returns one grid index per row, an
    event one bool per row or a scalar that broadcasts to every row.
    """
    if not events:
        raise ValueError("event dictionary must not be empty")
    _require_paths(n_paths)
    fixed_t = None if callable(stopping_rule) else grid.index_at(float(stopping_rule))

    def side(models: ModelRows, dec: DecompositionRows, seeds) -> np.ndarray:
        """(lhs - rhs, hit of each event) of each path."""
        m = dec.total
        t_idx = stopping_rule(m, models) if fixed_t is None else fixed_t
        t_idx = np.broadcast_to(np.asarray(t_idx, dtype=int), len(m))
        r = np.arange(len(m))
        g_t = models.zeros.gamma[r, t_idx]
        lhs = m[r, t_idx] - m[r, g_t]
        rhs = m[:, -1] * (models.zeros.gbar < t_idx)
        hits = [np.broadcast_to(np.asarray(event(m, models), dtype=bool), len(m))
                for event in events.values()]
        return np.column_stack([lhs - rhs] + hits)

    _, (read,) = _read_blocks(model_family, base, grid, seed, [(n_paths, side)])
    worst, worst_name = 0.0, ""
    for j, name in enumerate(events, start=1):
        stat = _t_stat(read[:, 0] * read[:, j])
        if stat >= worst:
            worst, worst_name = stat, name
    return TestReport.below(
        "optional_representation", worst, threshold, n_paths, grid.n_steps, seed,
        f"worst_event={worst_name}",
    )

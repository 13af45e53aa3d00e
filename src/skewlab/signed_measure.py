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
terminal residual of that display (the qp residual, ``_qp_terminal``) and
a conditional-drift test on the simulated product process
(``martingale_drift_test``).

Models (:class:`ModelRows`) and processes with their split
(:class:`DecompositionRows`) are blocks, one path per row.  The suites (the
drift test, the equivalence suites, the optional representation check and
the sigma_h panels) name their base process by its ``PROCESS_ZOO`` name and
read it through one block reader, which builds each row block once
(``build_model_rows`` and the zoo's row kernels) and hands it to everything
the suite needs; ``build_model`` is the one-row case.  The reader only
gathers sides (one row per path); the *_mart suites' probe of the base's
zeros against H is one of them.  It has a worker thread draw the Gaussian
rows of the next block while the calling thread builds and reads the
current one; the models and kernels finish those rows in the calling
thread, which makes every public call.
Likewise the qp residual, the carried-by fraction and Sigma(H) membership
are row kernels that work along the last axis of a block's arrays;
``sigma_h_check`` is the one-row case of the last.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .excursion import ExcursionRows, _signs, dilate
from .grid_paths import (
    SeedSpec,
    TimeGrid,
    _check_aligned,
    _fill_normals,
    _finish_brownian,
    _run_chunks,
    block_rows,
    brownian_rows,
    make_grid,
    stream_states,
)
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


def build_model_rows(family: str, grid: TimeGrid, seeds: Sequence[SeedSpec],
                     drawn: Optional[np.ndarray] = None) -> ModelRows:
    """Models of a block of paths, row j from ``seeds[j]``: ``trivial``
    (D = 1, a read-only broadcast of 1.0 that holds no row of its own) or
    ``shifted_brownian`` (D = 1 + B from the seed's ``density`` substream).
    The block reader passes B's N(0, 1) draws, made ahead in columns 1.. of
    ``drawn``, and D is finished from them in place; otherwise B is drawn
    here."""
    if family == "trivial":
        return ModelRows(family, grid, np.broadcast_to(1.0, (len(seeds), grid.n_points)))
    if family == "shifted_brownian":
        if drawn is None:
            d = brownian_rows(grid, [s.child("density") for s in seeds], x0=1.0)
        else:
            d = _finish_brownian(drawn, grid, 1.0)
        return ModelRows(family, grid, d)
    raise ValueError(f"unknown model family {family!r}")


def build_model(family: str, grid: TimeGrid, seed: SeedSpec) -> ModelRows:
    """Construct one concrete model, as a one-row block: the one-row case of
    :func:`build_model_rows`."""
    return build_model_rows(family, grid, [seed])


#: elements of each temporary of :func:`_check_split` and :func:`_qp_terminal`
_SPLIT_TILE = 2**14


def _tiles(n_rows: int, n_cols: int):
    """Tiles of an (n_rows, n_cols) array of at most ``_SPLIT_TILE``
    elements (whole rows when they fit), band of rows by band of rows and
    left to right within a band: each tile's (rows, cols) slices and two
    scratch arrays of its shape, views of one buffer that the tiles share."""
    cols = max(1, min(n_cols, _SPLIT_TILE))
    rows = _SPLIT_TILE // cols
    buffers = np.empty((2, rows * cols))
    for r in range(0, n_rows, rows):
        band = slice(r, min(r + rows, n_rows))
        for c in range(0, n_cols, cols):
            cut = slice(c, min(c + cols, n_cols))
            shape = (band.stop - band.start, cut.stop - cut.start)
            yield band, cut, [b[:shape[0] * shape[1]].reshape(shape) for b in buffers]


def _check_split(total: np.ndarray, mart: np.ndarray, fv: np.ndarray) -> None:
    """Require |total - recon| <= 1e-9 + 1e-9 |recon| everywhere, with
    recon = mart + fv: ``np.allclose`` on finite values.  The (rows,
    n_points) arrays, any of them broadcast, are checked in the tiles of
    :func:`_tiles`, so the two temporaries stay tile-sized, and the check
    stops at the first tile that fails."""
    total, mart, fv = np.broadcast_arrays(total, mart, fv)
    for band, cut, (recon, err) in _tiles(*total.shape):
        np.add(mart[band, cut], fv[band, cut], out=recon)
        np.subtract(total[band, cut], recon, out=err)
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


def _qp_terminal(d: np.ndarray, m: np.ndarray, fv: Optional[np.ndarray] = None) -> np.ndarray:
    """|int_0^T D dv + <M, D>_T| of each row, for M = m with finite-variation
    part fv (v = 0 when fv is None).  A residual near zero certifies the
    signed-measure local-martingale property of M = m + v.

    <M, D>_T is summed without building a path-length row: the increment
    products are summed in the tiles of :func:`_tiles`, and each tile's
    first product takes the running sum of the tiles before it, so the
    additions are those of ``covariation_rows(m, d)``'s cumsum, in its
    order, and the sum is bit-identical to that curve's last column."""
    terminal = np.empty(m.shape[0])
    for band, cut, (steps, dd) in _tiles(m.shape[0], m.shape[1] - 1):
        ahead = slice(cut.start + 1, cut.stop + 1)
        np.subtract(m[band, ahead], m[band, cut], out=steps)
        steps *= np.subtract(d[band, ahead], d[band, cut], out=dd)
        if cut.start:
            steps[:, 0] += terminal[band]
        np.cumsum(steps, axis=1, out=steps)
        terminal[band] = steps[:, -1]
    if fv is not None:
        terminal += ito_rows(d, fv)[:, -1]
    return np.abs(terminal, out=terminal)


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
    (values,) = _read_blocks(
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
    qp = _qp_terminal(models.d, mart)
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


def make_bm(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """W independent of D (its own substream), so <W, D> = 0."""
    return DecompositionRows.martingale(grid, w, label="bm")


def make_bm_plus_local_time(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """W + 2 L^0(D): the finite-variation part is carried by H."""
    v = tanaka_rows(models.d)
    v *= 2.0
    return DecompositionRows(grid, w + v, w, v, label="bm_plus_local_time")


def make_bm_plus_drift(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """Negative control W + t: Lebesgue drift is carried by nothing useful."""
    t = np.broadcast_to(grid.times, w.shape)
    return DecompositionRows(grid, w + grid.times, w, t, label="bm_plus_drift")


def make_bm_minus_frozen(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """W - W_gamma with gamma the last zero of D: a martingale null on H."""
    frozen = np.take_along_axis(w, models.zeros.gamma, axis=1)
    return DecompositionRows.martingale(grid, w - frozen, label="bm_minus_frozen")


def make_reflected_bm(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """X = |W| split by Tanaka: M = int sgn(W) dW, A = L^0(W)."""
    m = ito_rows(_signs(w), w)
    total = np.abs(w)
    return DecompositionRows(grid, total, m, total - m, label="reflected_bm", zero_source=w)


def make_shifted_bm(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """3 + W: a martingale that almost never hits zero on [0, 1]."""
    return DecompositionRows.martingale(grid, w + 3.0, label="shifted_bm")


def make_shifted_bm_drift(models: ModelRows, grid: TimeGrid, w: np.ndarray) -> DecompositionRows:
    """Negative control 3 + W + t, still zero-free but drifting."""
    w = w + 3.0
    t = np.broadcast_to(grid.times, w.shape)
    return DecompositionRows(grid, w + grid.times, w, t, label="shifted_bm_drift")


#: the process zoo: name -> row kernel ``(models, grid, w) ->
#: DecompositionRows`` of a block of models and a block of Brownian paths W
#: from 0, row j of the output from row j of each (the suites draw path p's
#: W from ``seed.with_path(p)``'s ``w`` substream)
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

#: paths whose zeros a *_mart suite checks against H, and the largest
#: fraction of them that may fail
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


def _majority(stats: np.ndarray, passes: np.ndarray) -> tuple[bool, float]:
    """Majority verdict over a panel of sigma_h statistics and verdicts (at
    least half of them pass) and the median statistic."""
    passed = int(passes.sum()) >= (len(passes) + 1) // 2
    return passed, float(np.median(stats))


def _hypothesis_violations(models: ModelRows, dec: DecompositionRows, seeds) -> np.ndarray:
    """A side flagging each path whose zeros are not within H (up to grid
    dilation): an empirical check of {t : base_t = 0} subset H."""
    near_h = dilate(models.zeros.events, _DILATION)
    return (ExcursionRows(dec.zero_path).events & ~near_h).any(axis=1)


def _product_at(models: ModelRows, x: np.ndarray, columns) -> np.ndarray:
    """Columns of the products D * X."""
    return models.d[:, columns] * x[:, columns]


#: workers of :func:`_read_blocks`: while the calling thread reads block k,
#: one has block k + 1's draws done or under way and the other starts block
#: k + 2's once block k is released
_DRAW_WORKERS = 2


def _read_blocks(model_family: str, base: str, grid: TimeGrid, seed: SeedSpec, sides):
    """Read what a suite needs in one pass over its row blocks, so each block
    of models and base processes is built once.

    Path p reads ``seed.with_path(p)``, its model that seed's ``model``
    substream and its base process the zoo member named ``base``, whatever
    block it falls in; blocks hold ``block_rows(grid.n_points)`` paths.
    Each side is a pair ``(n, side)``: ``side`` maps a block ``(models, dec,
    seeds)`` to one row per path and is gathered over the first n paths.
    The pass reads every block; only an exception from a side ends it early,
    after the draws in flight are waited for.

    The Gaussian draws of each block's W substreams (and of D's ``density``
    substreams in the ``shifted_brownian`` family) are made ahead through
    :func:`~skewlab.grid_paths._run_chunks`: the calling thread derives
    their PCG64 states and allocates their rows, a worker thread fills the
    rows while the calling thread builds and reads the block before, and
    the model and W are then finished from them in place.  The workers run
    only private helpers and numpy, so every public call stays in the
    calling thread, and each row comes from its own stream by the same
    operations, so the output is bit-identical for any number of workers.
    With ``_DRAW_WORKERS`` workers, one block of draws is held ahead of the
    block being read, whatever the number of CPUs.

    Returns the side matrices, in the order of ``sides``.
    """
    if base not in PROCESS_ZOO:
        raise ValueError(f"unknown base process {base!r}: expected a PROCESS_ZOO name")
    kernel = PROCESS_ZOO[base]
    tags = ["w", "model/density"] if model_family == "shifted_brownian" else ["w"]
    gathered = [[] for _ in sides]

    def draw_ahead(c: int, lo: int, hi: int):
        # the calling thread makes the block's seeds, stream states and rows
        seeds = [seed.with_path(p) for p in range(lo, hi)]
        states = {t: stream_states([s.child(t) for s in seeds]) for t in tags}
        rows = {t: np.empty((hi - lo, grid.n_points)) for t in tags}

        def fill():  # runs in a worker
            for t in tags:
                _fill_normals(rows[t], states[t])
            return seeds, rows

        return fill

    def read_block(lo: int, hi: int, seeds, drawn) -> None:
        # the block's intermediates die with this call
        models = build_model_rows(model_family, grid, [s.child("model") for s in seeds],
                                  drawn.get("model/density"))
        dec = kernel(models, grid, _finish_brownian(drawn["w"], grid, 0.0))
        for out, (n, side) in zip(gathered, sides):
            if lo < n:
                out.append(side(models, dec, seeds)[: min(hi, n) - lo])

    n_paths = max(n for n, _ in sides)
    chunks = _run_chunks(n_paths, block_rows(grid.n_points), draw_ahead, _DRAW_WORKERS)
    with closing(chunks) as blocks:
        for paths, block in blocks:
            read_block(paths.start, paths.stop, *block)
            del block  # before the next block's rows are allocated
    return [np.concatenate(out) for out in gathered]


def sigma_h_panel(model_family: str, base: str, grid: TimeGrid, seed: SeedSpec, n_paths: int,
                  tol=_SIGMA_TOL):
    """sigma_h statistics and verdicts of paths 0..n_paths-1 of a model family
    and the base process named ``base``, read as :func:`_read_blocks` reads
    them."""
    (panel,) = _read_blocks(model_family, base, grid, seed, [(n_paths, _sigma_side(tol=tol))])
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

    def read(self, sides):
        """:func:`_read_blocks` on this suite's paths."""
        return _read_blocks(self.model_family, self.base, self.grid, self.seed, sides)

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
    """An iff suite of two drift tests, D * X on the left and D * right_process
    on the right, unless more than ``_HYP_FRAC`` of the first
    ``_PROBE_PATHS`` paths have zeros outside H."""
    columns = ctx.drift_columns()
    flags, left, right = ctx.read([
        (min(_PROBE_PATHS, ctx.n_paths), _hypothesis_violations),
        (ctx.n_paths, lambda models, dec, seeds: _product_at(models, dec.total, columns)),
        (ctx.n_paths,
         lambda models, dec, seeds: _product_at(models, right_process(dec, seeds), columns)),
    ])
    frac = int(np.count_nonzero(flags)) / len(flags)
    if frac > _HYP_FRAC:
        return ctx.report(
            name, frac, False,
            f"{HYPOTHESIS_NOT_MET}: zeros of the base process are not "
            f"contained in H (violation fraction {frac:.3f})",
            threshold=_HYP_FRAC,
        )
    left = ctx.drift(left, f"equivalence.{name}.left")
    right = ctx.drift(right, f"equivalence.{name}.right")
    stat = max(left.statistic, right.statistic) / _THRESHOLD
    return _iff_report(ctx, name, left.passed, right.passed, stat)


def _sigma_suite(ctx: _SuiteContext, name: str, split) -> TestReport:
    """An iff suite of two sigma_h panels, the base and its transform."""
    panels = ctx.read([ctx.panel(), ctx.panel(split)])
    (left_pass, left_stat), (right_pass, right_stat) = (_majority(*p.T) for p in panels)
    stat = 1.0 - min(left_stat, right_stat)
    return _iff_report(
        ctx, name, left_pass, right_pass, stat,
        extra=f"stats=({left_stat:.3f},{right_stat:.3f})",
    )


def _suite_cmart(ctx: _SuiteContext) -> TestReport:
    columns = ctx.drift_columns()
    panel, half_flips = ctx.read([
        ctx.panel(),
        (ctx.n_paths,
         lambda models, dec, seeds: _product_at(models, _flip_rows(dec, 0.5, seeds)[1], columns)),
    ])
    left_pass, left_stat = _majority(*panel.T)
    right = ctx.drift(half_flips, "equivalence.cmart.right")
    stat = right.statistic / _THRESHOLD
    return _iff_report(
        ctx, "cmart", left_pass, right.passed, stat,
        extra=f"sigma_stat={left_stat:.3f}",
    )


def _suite_ito_xdx(ctx: _SuiteContext) -> TestReport:
    columns = ctx.drift_columns()
    (xdx,) = ctx.read(
        [(ctx.n_paths,
          lambda models, dec, seeds: _product_at(models, ito_rows(dec.total, dec.total), columns))]
    )
    rep = ctx.drift(xdx, "equivalence.ito_xdx")
    return ctx.report("ito_xdx", rep.statistic / _THRESHOLD, rep.passed, rep.detail)


def _suite_qp_brownian(ctx: _SuiteContext) -> TestReport:
    horizon = ctx.grid.horizon

    def residuals(models, dec, seeds):
        qv = covariation_rows(dec.total, dec.total)[:, -1]
        qp = _qp_terminal(models.d, dec.total, dec.fv_part)
        return np.column_stack((np.abs(qv - horizon), qp))

    (panel,) = ctx.read([(_SIGMA_PATHS, residuals)])
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

    (read,) = ctx.read([(ctx.n_paths, half_flips)])
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

    (read,) = _read_blocks(model_family, base, grid, seed, [(n_paths, side)])
    worst, worst_name = 0.0, ""
    for j, name in enumerate(events, start=1):
        stat = _t_stat(read[:, 0] * read[:, j])
        if stat >= worst:
            worst, worst_name = stat, name
    return TestReport.below(
        "optional_representation", worst, threshold, n_paths, grid.n_steps, seed,
        f"worst_event={worst_name}",
    )

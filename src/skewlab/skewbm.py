"""Skew Brownian motion by excursion sign-flipping, with law-level oracles.

The construction pipeline is: decompose the driving path into excursions,
draw one independent Bernoulli(alpha) sign per excursion (a piecewise
schedule reads alpha in the cell where the excursion is born), assemble the
sign path and multiply.  The flipped reflection solves

    X_t = x + B_t + (2 alpha - 1) L_t^0(X)

weakly (and the time-inhomogeneous analogue for piecewise schedules), which
the harness checks three independent ways: the pathwise SDE residual, the
closed-form skew transition density, and the lattice skew random walk.

``sde_residual(driver, schedule, signs)`` is the one SDE check: it flips
the reflection of a signed Brownian driver W into X = Z |W|, recovers the
driving noise as int Z sgn(W) dW and subtracts the occupation correction.
Only the reflection is flipped: a flip Z W of the signed driver re-randomizes
signs that are already symmetric, so it follows the alpha = 1/2 law.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .excursion import ExcursionRows
from .grid_paths import (
    SamplePath, SeedSpec, TimeGrid, _check_finite, _draw_streams, stream_states
)
from .localtime import (
    OCCUPATION_EXPONENT,
    ResidualReport,
    _increments_in_place,
    _occupation,
    ito_rows,
)
from .signed_measure import InsufficientSamplesError, MIN_PATHS, TestReport
from .signflip import AlphaSchedule, sign_path_rows

__all__ = [
    "LawSample",
    "SkewLaw",
    "sde_residual",
    "skew_transition_density",
    "skew_transition_cdf",
    "harrison_shepp_terminals",
    "skew_terminal_sample",
    "skew_terminal_samples",
    "law_test",
    "ks_statistic",
    "two_sample_ks",
    "lattice_smooth",
]


@dataclass(frozen=True)
class LawSample:
    """Terminal values of iid construction runs at one fixed time."""

    values: np.ndarray
    tag: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("law sample values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)


def _driving_noise(driver: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The driving noise B = int Z sgn(W) dW of the flip Z |W| of the signed
    ``driver`` W, as an array checked finite.

    It must integrate against the reflection's martingale part, not against
    |W| itself: the increments of |W| carry the local time of W, and summing
    them with the flip signs injects a (2 alpha - 1) L drift into what should
    be the Brownian driver."""
    integrand = np.sign(driver)
    _check_finite(np.multiply(sign, integrand, out=integrand))
    return _check_finite(ito_rows(integrand, driver))


def _skew_correction(x: np.ndarray, grid: TimeGrid, schedule: AlphaSchedule) -> np.ndarray:
    """sum_{i<j} (2 alpha(t_i) - 1) dL_i for j = 1..N, with L the occupation
    local time of the path ``x`` on ``grid`` at the default bandwidth."""
    lt = _check_finite(_occupation(x, grid.dt, grid.dt**OCCUPATION_EXPONENT))
    steps = _increments_in_place(lt)
    # alpha(t_i) is constant on the runs of grid times between the
    # schedule's boundaries; times[lo:hi] is cell c's run
    edges = np.searchsorted(grid.times[:-1], schedule.boundaries[1:]).tolist()
    for alpha, lo, hi in zip(schedule.values, [0] + edges, edges + [len(steps)]):
        steps[lo:hi] *= 2.0 * alpha - 1.0
    return np.cumsum(steps, out=steps)


def sde_residual(driver: SamplePath, schedule: AlphaSchedule, signs: SeedSpec) -> ResidualReport:
    """Pathwise residual of the skew SDE for the flip X = Z |W| of the
    signed ``driver`` W, its excursion signs Z drawn from ``signs``.

    residual_t = X_t - X_0 - B_t - sum (2 alpha(t_i) - 1) dL_i  with the
    driving noise B recovered by ``_driving_noise`` and L the occupation
    estimate (default bandwidth dt**0.4) on the constructed path.
    The occupation count is insensitive to the boundary microstructure; the
    crossing-counting tanaka estimate is not: a flipped path bounces off
    zero wherever consecutive excursions kept their sign, so it sees only
    the 2 alpha (1 - alpha) fraction of boundaries that flipped and
    underestimates the local time by exactly that factor.
    """
    w, grid = driver.values, driver.grid
    z = sign_path_rows(w[None, :], grid, schedule, [signs])[0]
    x = np.abs(w)
    np.multiply(z, x, out=x)
    b = _driving_noise(w, z)
    residual = x - x[0]
    residual -= b
    del b
    residual[1:] -= _skew_correction(x, grid, schedule)
    return ResidualReport.from_residual(residual, out=residual)


# ---------------------------------------------------------------------------
# Law oracles
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _usable_cpus() -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


#: bytes of rows a sampler thread holds at a time: the bulk sampler's base
#: path and sign uniform blocks, and the walk's step table (its uniform
#: blocks hold an eighth of it)
_BLOCK_BYTES = 2 << 20


def _block_rows(row_bytes: int) -> int:
    """As many ``row_bytes`` rows as fit in ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _row_blocks(m: int, row_bytes: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of rows 0..m-1 in order, in blocks of
    :func:`_block_rows` rows."""
    rows = _block_rows(row_bytes)
    return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


#: the task that the next :func:`_run_chunks` in this thread runs while it
#: waits for its workers; set only by :func:`_alongside`
_MEANWHILE: ContextVar[Optional[Callable[[], None]]] = ContextVar("meanwhile", default=None)


def _alongside(main: Callable[[], object], meanwhile: Callable[[], object]) -> tuple:
    """``(main(), meanwhile())``, both run in the calling thread: meanwhile()
    runs inside main() while the first :func:`_run_chunks` there waits for
    its workers, or after main() returns if none does.

    The task reaches :func:`_run_chunks` through a context variable, so the
    public calls that main() and meanwhile() make keep their arguments.
    """
    done = []

    def task() -> None:
        _MEANWHILE.set(None)  # once, and not from inside itself
        done.append(meanwhile())

    token = _MEANWHILE.set(task)
    try:
        first = main()
    finally:
        _MEANWHILE.reset(token)
    return first, done[0] if done else meanwhile()


def _run_chunks(
    n_items: int, chunk: int, job: Callable[[int, int, int], Callable[[], object]]
) -> Iterator[tuple[slice, object]]:
    """Items 0..n_items-1 in chunks of ``chunk``, run concurrently on a thread
    pool (one worker per usable CPU, at most one per chunk).

    ``job(c, lo, hi)`` runs in the calling thread and returns the
    zero-argument callable a worker runs for chunk c, so streams and
    generators are built here and the workers run numpy only.  Chunk c is
    prepared only once chunk c - workers has been collected, so at most one
    chunk per worker is prepared and not yet collected, however many chunks
    there are.  Before it first waits for a result, the calling thread runs
    the task that :func:`_alongside` set, if any, so it works beside the
    workers instead of idling.  Yields each chunk's output slice and result,
    in chunk order.
    """
    _check_count("chunk", chunk)
    bounds = [slice(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
    workers = max(1, min(len(bounds), _usable_cpus()))
    pending = deque()

    def collect() -> tuple[slice, object]:
        meanwhile = _MEANWHILE.get()
        if meanwhile is not None:
            meanwhile()
        done, future = pending.popleft()
        return done, future.result()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for c, b in enumerate(bounds):
            if len(pending) == workers:
                yield collect()
            pending.append((b, pool.submit(job(c, b.start, b.stop))))
        while pending:
            yield collect()


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")


# The normal density and CDF below repeat the arithmetic of scipy.stats
# (``norm.pdf`` is ``_norm_pdf(y / s) / s``, ``norm.cdf`` is ``ndtr(y / s)``)
# in numpy alone, so the runtime loads no scipy module.  ``_ndtr`` is Cephes
# ``ndtr`` (Moshier, *Methods and Programs for Mathematical Functions*, 1989),
# as scipy.special runs it: the same rational approximations, the same
# operations in the same order, and the platform libm ``exp`` (``math.exp``;
# numpy's SIMD ``np.exp`` can differ in the last bit).  The Kolmogorov
# critical value at the one KS level, 0.01, is a constant.
# tests/test_scipy_kernels.py pins all of them bit for bit against scipy.
_SQRT_2PI = math.sqrt(2 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: ``kolmogi(0.01)``, the Kolmogorov distribution's upper 0.01 point
_KS_CRITICAL_01 = 1.6276236115189504


def _polevl(x: np.ndarray, coef: Sequence[float], leading_one: bool = False) -> np.ndarray:
    """Cephes ``polevl`` (``p1evl`` with ``leading_one``): Horner's rule with
    a separate multiply and add per coefficient."""
    y = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` on |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, True)


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, bit for bit Cephes ``ndtr`` as scipy.special runs
    it; NaN maps to NaN and +-inf to 1 or 0, with no floating-point warning."""
    a = np.asarray(a, dtype=float)
    x = (a * _SQRT1_2).ravel()
    z = np.abs(x)
    out = np.zeros_like(x)
    near = z < _SQRT1_2
    out[near] = 0.5 + 0.5 * _erf_small(x[near])
    # 0.5 * erfc(z) on the rest: 1 - erf(z) below 1, else a rational tail
    # times exp(-z * z), which is 0 once -z * z < -MAXLOG (z >= 27 is far past
    # that and is left out before squaring, so nothing overflows)
    mid = ~near & (z < 1.0)
    out[mid] = 0.5 * (1.0 - _erf_small(z[mid]))
    for lo, hi, p, q in ((1.0, 8.0, _ERFC_P, _ERFC_Q), (8.0, 27.0, _ERFC_R, _ERFC_S)):
        idx = np.flatnonzero((z >= lo) & (z < hi))
        w = z[idx]
        neg_sq = -w * w
        keep = neg_sq >= -_MAXLOG
        idx, w = idx[keep], w[keep]
        e = np.fromiter(map(math.exp, neg_sq[keep].tolist()), dtype=float, count=len(w))
        out[idx] = 0.5 * (e * _polevl(w, p) / _polevl(w, q, True))
    upper = ~near & (x > 0)
    out[upper] = 1.0 - out[upper]
    out[np.isnan(x)] = np.nan
    return out.reshape(a.shape)


def skew_transition_density(alpha: float, t: float, y) -> np.ndarray:
    """Closed-form transition density of skew BM from 0: 2 alpha phi_t(y) for
    y > 0 and 2 (1 - alpha) phi_t(y) for y < 0."""
    _check_alpha(alpha)
    _check_time(t)
    y = np.asarray(y, dtype=float)
    scale = math.sqrt(t)
    x = y / scale
    phi = np.exp(-x**2 / 2.0) / _SQRT_2PI / scale
    weight = np.where(y > 0, 2.0 * alpha, np.where(y < 0, 2.0 * (1.0 - alpha), 1.0))
    return weight * phi


def skew_transition_cdf(alpha: float, t: float, y) -> np.ndarray:
    """CDF matching :func:`skew_transition_density`."""
    _check_alpha(alpha)
    _check_time(t)
    y = np.asarray(y, dtype=float)
    base = _ndtr(y / math.sqrt(t))
    neg = 2.0 * (1.0 - alpha) * base
    pos = 2.0 * alpha * base + (1.0 - 2.0 * alpha)
    return np.where(y < 0, neg, pos)


@dataclass(frozen=True)
class SkewLaw:
    """Density handle for law tests: skew BM at time t started from 0."""

    alpha: float
    t: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_time(self.t)

    def cdf(self, y):
        return skew_transition_cdf(self.alpha, self.t, y)

    @property
    def sign_probability(self) -> float:
        return self.alpha


# ---------------------------------------------------------------------------
# Harrison-Shepp skew random walk
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=2)
def _octet_steps(from_zero_up: bool) -> np.ndarray:
    """Change of e = ups - 4r over the eight steps from step 8r, by table
    entry plus clip(e, -4, 4), with ups the up-steps so far: the state at
    step 8r is 2e.  The table depends on alpha only through
    ``from_zero_up`` (alpha >= 1/2), so each of the two is built once and
    kept read-only.

    A step's code c = [u < alpha] + [u < 1/2] takes it up from any state
    when c = 2 and from none when c = 0; one comparison implies the other,
    so c = 1 takes it up from 0 iff alpha >= 1/2 and elsewhere iff
    alpha < 1/2.  Step 8r + j starts from 0 iff 2 * (e + up-steps since step
    8r) = j; for j < 8 that never holds once |e| >= 4, which is why e can be
    clipped.
    """
    *codes, e = np.ix_(*[range(3)] * 8, range(-4, 5))
    ups = 0
    for j, c in enumerate(codes):
        from_zero = 2 * (e + ups) == j
        ups = ups + ((c == 2) | ((c == 1) & (from_zero == from_zero_up)))
    steps = (ups - 4).ravel()
    steps.flags.writeable = False
    return steps


def _walk_octets(states: Sequence[tuple[int, int]], n_steps: int, alpha: float) -> np.ndarray:
    """Step table of the walks with PCG64 ``states``: entry (r, i) codes
    steps 8r to 8r + 7 of walk i in one uint16.

    An octet's code is the base-3 number of its eight steps' codes c (as in
    :func:`_octet_steps`, first step first), in 0..6560, and the entry is
    9 * code + 4, the index of (code, e = 0) in :func:`_octet_steps`.  Row r
    holds octet r of every walk, so the step loop reads one contiguous row
    per octet.  Uniforms are drawn and coded in blocks of walks that hold an
    eighth of ``_BLOCK_BYTES`` (8 rows at 2**12 steps; one draw per row
    either way) and transposed into the table block by block; padding past
    n_steps leaves uniforms of 1, which add no up-step.
    """
    m = len(states)
    n_octets = -(-n_steps // 8)
    table = np.empty((n_octets, m), dtype=np.uint16)
    blocks = _row_blocks(m, 8 * (8 * n_steps))
    u = np.ones((blocks[0][1], 8 * n_octets))
    codes = np.empty(u.shape, dtype=np.uint8)
    below_half = np.empty(u.shape, dtype=bool)
    for lo, hi in blocks:
        k = hi - lo
        _draw_streams(states[lo:hi], lambda rng, row: rng.random(out=row[:n_steps]), u[:k])
        c = codes[:k]
        np.less(u[:k], alpha, out=c.view(bool))
        c += np.less(u[:k], 0.5, out=below_half[:k])
        # merge neighbouring codes in place, little-endian: a uint16 lane
        # of two codes (c0, c1) times 3 * 2**8 + 1 holds 3 * c0 + c1 in its
        # high byte, which the shift brings down; lanes of 4 and of 8 steps
        # merge two halves the same way, the last one scaled by 9
        pairs = c.view(np.uint16)
        pairs *= 3 << 8 | 1
        pairs >>= 8
        quads = c.view(np.uint32)
        quads *= 9 << 16 | 1
        quads >>= 16
        octets = c.view(np.uint64)
        octets *= 729 << 32 | 9
        octets >>= 32
        np.add(octets.T, 4, out=table[:, lo:hi], casting="unsafe")
    return table


def _walk_terminals(states: Sequence[tuple[int, int]], n_steps: int, alpha: float) -> np.ndarray:
    """Integer terminal states of the skew walks with PCG64 ``states``.

    Each octet r adds to e = ups - 4r its entry in :func:`_octet_steps` at
    its table entry plus clip(e, -4, 4); the padded octets end at ups - 4 *
    n_octets, so the state after n_steps is 2 * e + 8 * n_octets - n_steps.
    """
    steps = _octet_steps(alpha >= 0.5)
    table = _walk_octets(states, n_steps, alpha)
    e = np.zeros(len(states), dtype=np.int64)
    d = np.empty_like(e)
    change = np.empty_like(e)
    for octet in table:
        np.clip(e, -4, 4, out=d)
        d += octet
        # every index is in range, so "clip" only skips the bounds check
        np.take(steps, d, out=change, mode="clip")
        e += change
    return 2 * e + 8 * len(table) - n_steps


#: the most walks in one unit of :func:`harrison_shepp_terminals`; below
#: 2**10 steps it, not ``_BLOCK_BYTES``, bounds a unit's ``stream_states`` list
_WALK_UNIT = 8192


def harrison_shepp_terminals(alpha: float, n_steps: int, n_walks: int, seed: SeedSpec) -> LawSample:
    """Terminal values of many independent skew walks, scaled by 1/sqrt(n)
    to the unit horizon.

    From state 0 a walk steps +1 with probability alpha; elsewhere it is
    symmetric.  Step j of walk k is up iff the j-th uniform of
    ``seed.with_path(k)``'s stream is below that probability, so walk k is
    fixed by k alone: this output depends on neither the unit nor the walk
    block size.

    The calling thread runs everything, one unit of at most ``_WALK_UNIT``
    walks and at most ``_BLOCK_BYTES`` of step table (2048 walks at 2**12
    steps) at a time: it derives the unit's streams with
    :func:`~skewlab.grid_paths.stream_states`, sets a Generator to each
    walk's state in turn, draws and codes its uniforms and steps the walks.
    The walk is bound by the interpreter lock (a state reset and a draw call
    per walk), so a second thread would gain it nothing; run beside the bulk
    sampler's workers instead (see :func:`_alongside`), it uses a CPU they
    leave idle.  It holds one step table of about 2 MiB (two bytes per eight
    steps of each walk) and one block of float64 uniforms with their codes:
    about 256 KiB up to 2**15 steps, one row (2 MiB at 2**18) past that.
    """
    _check_alpha(alpha)
    _check_count("n_steps", n_steps)
    _check_count("n_walks", n_walks)
    # two bytes of step table per eight steps of a walk
    unit = min(_WALK_UNIT, _block_rows(2 * -(-n_steps // 8)))
    out = np.empty(n_walks)
    for lo in range(0, n_walks, unit):
        hi = min(lo + unit, n_walks)
        states = stream_states([seed.with_path(k) for k in range(lo, hi)])
        out[lo:hi] = _walk_terminals(states, n_steps, alpha)
    return LawSample(out / math.sqrt(n_steps), tag=f"hs_walk[alpha={alpha:g}]")


# ---------------------------------------------------------------------------
# Batched terminal sampling of the construction
# ---------------------------------------------------------------------------


def _base_rows(
    rng: np.random.Generator, m: int, n_steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row excursion count, straddling-excursion birth index and terminal
    value of m float32 base-path rows drawn in order from ``rng``.

    Rows are generated and scanned one ``_row_blocks`` block at a time, so
    only about ``_BLOCK_BYTES`` of the (m, n_steps) base-path matrix (128
    rows at 2**12 steps) is ever held, whatever n_steps.  A block's float32
    rows are dropped once their int8 signs are taken, so the scan holds only
    the signs and one boolean mask of starts, a quarter of the block each.
    The birth is the straddling excursion's g index on the full path, as
    :class:`~skewlab.excursion.ExcursionRows` dates it: the exact zero just
    before its first covered index, else that index; 0 when the row has no
    excursion.
    """
    n_exc = np.empty(m, dtype=np.int64)
    birth = np.empty(m, dtype=np.int64)
    terminal = np.empty(m)
    scale = np.float32(math.sqrt(dt))
    for lo, hi in _row_blocks(m, 4 * n_steps):
        path = rng.standard_normal((hi - lo, n_steps), dtype=np.float32)
        path *= scale
        np.cumsum(path, axis=1, out=path)
        terminal[lo:hi] = path[:, -1]
        rows = ExcursionRows(path)
        del path

        # column c is path index c + 1 and the x0 = 0 column is implicit, so
        # a first covered column c is born at index c when c = 0 or column
        # c - 1 is an exact zero, and at c + 1 otherwise; only the last start
        # of each row is read (``rows.births`` would date every excursion)
        last = n_steps - 1 - np.argmax(rows.starts[:, ::-1], axis=1)
        after_zero = (last == 0) | (rows.sign[np.arange(hi - lo), last - 1] == 0)
        n_exc[lo:hi] = rows.counts
        birth[lo:hi] = np.where(rows.counts == 0, 0, np.where(after_zero, last, last + 1))
        del rows  # before the next block is drawn
    return n_exc, birth, terminal


def _bulk_chunk(
    rng_base: np.random.Generator,
    rng_signs: Sequence[np.random.Generator],
    schedules: Sequence[AlphaSchedule],
    m: int,
    n_steps: int,
    dt: float,
) -> list[np.ndarray]:
    """Terminal values of one chunk's m paths, one array per schedule; the
    base paths and then each schedule's sign uniforms are drawn one
    :func:`_row_blocks` block at a time."""
    n_exc, birth, terminal = _base_rows(rng_base, m, n_steps, dt)
    np.abs(terminal, out=terminal)
    # ordinal of the excursion straddling the horizon = (#starts) - 1
    last_ord = np.maximum(n_exc - 1, 0)
    max_exc = int(n_exc.max())
    birth_time = birth * dt
    rows = np.arange(m)
    outs = []
    for schedule, rng in zip(schedules, rng_signs):
        alphas = np.asarray(schedule.values)
        n_cells = schedule.n_cells
        birth_cell = schedule.cell_indices(birth_time)
        # each path's row of uniforms is drawn in order, a block of rows at
        # a time, and only the straddling excursion's, in its birth cell, kept
        width = max(max_exc, 1) * n_cells
        column = last_ord * n_cells + birth_cell
        pick = np.empty(m)
        for lo, hi in _row_blocks(m, 8 * width):
            pick[lo:hi] = rng.random((hi - lo, width))[rows[:hi - lo], column[lo:hi]]
        zeta = np.where(pick < alphas[birth_cell], 1.0, -1.0)
        zeta[n_exc == 0] = 0.0
        outs.append(zeta * terminal)
    return outs


#: paths per chunk of the bulk sampler; part of its determinism contract
_BULK_CHUNK = 8192


def skew_terminal_samples(
    schedules: Sequence[AlphaSchedule], n_paths: int, n_steps: int, seed: SeedSpec
) -> list[LawSample]:
    """Bulk terminal sampling of the construction's absolute variant,
    Z_1 * |W_1|, over shared driver paths W, at the unit horizon.

    The paths run in chunks of ``_BULK_CHUNK``.  Chunk c draws its driver
    increments from seed.child(f"bulk/base/{c}")
    (row per path, float32) and, for schedule k, its sign uniforms from
    seed.child(f"bulk/signs/{k}/{c}") with one row of
    max_excursions * n_cells uniforms per path, consumed row-major exactly
    like ``assign_signs``.  Only the sign of the excursion straddling the
    horizon is materialized (drawn in the cell of that excursion's birth,
    matching :func:`~skewlab.signflip.build_sign_path`), which is all the terminal
    value depends on; tests pin this shortcut against the full per-path
    pipeline run on the same streams, on Gaussian rows and on integer-step
    rows with exact zeros.  Sharing the drivers across schedules
    is a variance-reduction coupling; each individual sample keeps the exact
    law.

    ``_BULK_CHUNK`` is part of the sampler's determinism contract; the
    number of worker threads and the row block size are not.  The calling
    thread derives each chunk's generators and collects the chunks in
    order; the chunks run on a thread pool (one worker per usable CPU, at
    most one per chunk) that runs numpy and private helpers only, and each
    writes only its own slice of the output, so the result is bit-identical
    to a serial run.  While the calling thread waits for them it runs the
    task of an enclosing :func:`_alongside`, if any.  Each worker holds a
    few arrays of chunk values and one row block at a time: about 2 MiB of
    float32 base paths (128 rows at 2**12 steps) and their int8 signs, then
    the signs and one boolean mask of excursion starts, or about 2 MiB of
    float64 sign uniforms, whatever n_steps up to 2**19 (past that, one
    row).
    """
    _check_count("n_steps", n_steps)
    _check_count("n_paths", n_paths)
    dt = 1.0 / n_steps

    def job(c: int, lo: int, hi: int):
        rng_signs = [seed.child(f"bulk/signs/{k}/{c}").rng() for k in range(len(schedules))]
        return functools.partial(
            _bulk_chunk, seed.child(f"bulk/base/{c}").rng(), rng_signs, schedules,
            hi - lo, n_steps, dt,
        )

    outs = [np.empty(n_paths) for _ in schedules]
    for rows, values in _run_chunks(n_paths, _BULK_CHUNK, job):
        for out, v in zip(outs, values):
            out[rows] = v
    return [
        LawSample(out, tag=f"skew[absolute,{sched.kind}]")
        for out, sched in zip(outs, schedules)
    ]


def skew_terminal_sample(
    schedule: AlphaSchedule, n_paths: int, n_steps: int, seed: SeedSpec
) -> LawSample:
    """Terminal values of many independent construction runs (trivial
    model): the one-schedule case of :func:`skew_terminal_samples`."""
    return skew_terminal_samples([schedule], n_paths, n_steps, seed)[0]


# ---------------------------------------------------------------------------
# Law tests
# ---------------------------------------------------------------------------


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample KS distance with the midpoint convention at ties.

    At each distinct sample value the empirical CDF is taken halfway through
    its jump, which removes the spurious half-atom penalty when lattice
    (tied) data is compared to a continuous CDF.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    vals, counts = np.unique(x, return_counts=True)
    upper = np.cumsum(counts)
    mid = (upper - 0.5 * counts) / n
    return float(np.max(np.abs(mid - np.asarray(cdf(vals), dtype=float))))


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance (max gap between empirical CDFs)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def lattice_smooth(values: np.ndarray, spacing: float) -> np.ndarray:
    """Deterministic continuity correction for a lattice-valued sample.

    Each atom's points are spread evenly across its cell
    (a - spacing/2, a + spacing/2), so the smoothed empirical CDF is the
    linear interpolation through the mid-jump values of the original one.
    Against a continuous law this removes the half-atom artifact (an atom of
    mass p forces a spurious p/2 into any sup-CDF distance); it is the
    two-sample counterpart of the one-sample midpoint convention.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    v = np.sort(np.asarray(values, dtype=float))
    vals, counts = np.unique(v, return_counts=True)
    reps = np.repeat(vals, counts)
    start = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(len(v)) - start
    c_rep = np.repeat(counts, counts)
    return reps + ((within + 0.5) / c_rep - 0.5) * spacing


def law_test(
    samples_a: LawSample,
    reference: Union[LawSample, SkewLaw],
    lattice_allowance: float = 0.0,
    lattice_spacing: Optional[float] = None,
    seed: Optional[SeedSpec] = None,
) -> TestReport:
    """KS comparison of a law sample against a reference.

    Against another sample: two-sample KS below the asymptotic critical
    value at level 0.01 plus ``lattice_allowance``; when the reference lives
    on a lattice, pass its spacing so the continuity correction of
    :func:`lattice_smooth` is applied (and disclosed).  Against a density
    handle: one-sample KS (midpoint convention) at the same level; the
    detail also reports the sign-probability discrepancy.
    """
    if samples_a.n < MIN_PATHS:
        raise InsufficientSamplesError(f"need at least {MIN_PATHS} samples, got {samples_a.n}")
    if isinstance(reference, LawSample):
        if reference.n < MIN_PATHS:
            raise InsufficientSamplesError(
                f"need at least {MIN_PATHS} reference samples, got {reference.n}"
            )
        ref_values = reference.values
        note = ""
        if lattice_spacing is not None:
            ref_values = lattice_smooth(ref_values, lattice_spacing)
            note = f" lattice_spacing={lattice_spacing:.5f} smoothed"
        stat = two_sample_ks(samples_a.values, ref_values)
        n, m = samples_a.n, reference.n
        crit = _KS_CRITICAL_01 * math.sqrt((n + m) / (n * m)) + lattice_allowance
        detail = f"two_sample vs {reference.tag or 'sample'} level=0.01{note}"
        n_paths = min(n, m)
    else:
        stat = ks_statistic(samples_a.values, reference.cdf)
        crit = _KS_CRITICAL_01 / math.sqrt(samples_a.n) + lattice_allowance
        sign_frac = float(np.mean(samples_a.values > 0))
        detail = (
            "one_sample midpoint level=0.01 "
            f"sign_prob_err={abs(sign_frac - reference.sign_probability):.5f}"
        )
        n_paths = samples_a.n
    return TestReport.below("law_ks", stat, crit, n_paths, 0, seed, detail)

"""Skew Brownian motion by excursion sign-flipping, with law-level oracles.

The construction pipeline is: decompose the driving path into excursions,
draw one independent Bernoulli(alpha) sign per excursion (a piecewise
schedule reads alpha in the cell where the excursion is born), assemble the
sign path and multiply.  The flipped reflection solves

    X_t = x + B_t + (2 alpha - 1) L_t^0(X)

weakly (and the time-inhomogeneous analogue for piecewise schedules), which
the harness checks three independent ways: the pathwise SDE residual with
the driving noise recovered as int Z dW, the closed-form skew transition
density, and the lattice skew random walk.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .excursion import ExcursionRows, dilate
from .grid_paths import SamplePath, SeedSpec, _draw_streams, stream_states
from .localtime import ResidualReport, ito_sum, local_time
from .signed_measure import (
    _DILATION,
    _check_one_row,
    DecompositionRows,
    HypothesisNotMetError,
    InsufficientSamplesError,
    ModelRows,
    TestReport,
    qp_residual,
)
from .signflip import AlphaSchedule, sign_path_rows

__all__ = [
    "LawSample",
    "SkewLaw",
    "build_skew",
    "recover_driving_noise",
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
    t: float
    tag: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("law sample values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)


def check_construction_hypotheses(base: DecompositionRows, model: ModelRows) -> list[str]:
    """Violations of the standing hypotheses for law-level claims, for a
    one-row base and a one-row model.

    Under the trivial model every condition is vacuous.  Otherwise the base
    must vanish on H (its zero events, dilated by 2 grid steps, must cover H)
    and be orthogonal to D; both are checked empirically on this realization.
    """
    if model.family == "trivial":
        return []
    problems = []
    near = dilate(ExcursionRows(base.zero_path).events[0], _DILATION)
    if not np.all(near[model.zeros.events[0]]):
        problems.append("base process does not vanish on H")
    qp = qp_residual(base, model)
    if qp.terminal > 0.1:
        problems.append(f"qp residual {qp.terminal:.3f} suggests <D, M> != 0 or bad split")
    return problems


def build_skew(variant: str, schedule: AlphaSchedule, base: DecompositionRows, model: ModelRows,
               seed: SeedSpec, strict: bool = True) -> SamplePath:
    """Run the sign-flip construction on a one-row base under a one-row
    model and return the flipped path.

    Variant ``signed`` flips the driving process itself, ``absolute`` flips
    its reflection; either way the excursion structure is read off the
    signed driver, ``base.zero_path`` (a reflected path has no sign changes
    of its own to decompose).  With ``strict`` (the default) a violation of
    the law-level hypotheses raises HypothesisNotMetError; pathwise residual
    studies on models with a nontrivial H pass ``strict=False`` and assert
    only the SDE identity.  When the driver starts away from zero the
    excursion straddling t = 0 keeps sign +1, so the output starts where the
    driver does (no flip before the first zero).  Piecewise schedules freeze
    each excursion's sign at its birth cell (see
    :func:`~skewlab.signflip.build_sign_path`).
    """
    if variant not in ("signed", "absolute"):
        raise ValueError(f"variant must be 'signed' or 'absolute', got {variant!r}")
    _check_one_row(base, model)
    if strict:
        problems = check_construction_hypotheses(base, model)
        if problems:
            raise HypothesisNotMetError("; ".join(problems))
    src = base.zero_path
    z = sign_path_rows(src, base.grid, schedule, [seed], pin_start=True)
    z *= src if variant == "signed" else np.abs(src)
    return SamplePath(base.grid, z[0])


def recover_driving_noise(
    driver: SamplePath, sign: SamplePath, variant: str = "signed"
) -> SamplePath:
    """The constructed driving noise of a flip of the signed ``driver`` M:
    int Z dM (signed) or int Z dW with W = int sgn(M) dM (absolute).

    The absolute variant must integrate against the reflection's martingale
    part, not against |M| itself: the increments of |M| carry the local time
    of M, and summing them with the flip signs injects a (2 alpha - 1) L
    drift into what should be the Brownian driver.
    """
    if variant == "signed":
        integrand = sign
    elif variant == "absolute":
        integrand = SamplePath(driver.grid, sign.values * np.sign(driver.values))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ito_sum(integrand, driver)


def sde_residual(
    x_alpha: SamplePath,
    driver: SamplePath,
    sign: SamplePath,
    schedule: AlphaSchedule,
    variant: str = "signed",
) -> ResidualReport:
    """Pathwise residual of the skew SDE for a path constructed from the
    signed ``driver``.

    residual_t = X_t - X_0 - W_t - sum (2 alpha(t_i) - 1) dL_i  with the
    driving noise W recovered by ``recover_driving_noise`` and L the
    occupation estimate (default bandwidth dt**0.4) on the constructed path.
    The occupation count is insensitive to the boundary microstructure; the
    crossing-counting tanaka estimate is not: a flipped path bounces off
    zero wherever consecutive excursions kept their sign, so it sees only
    the 2 alpha (1 - alpha) fraction of boundaries that flipped and
    underestimates the local time by exactly that factor.
    """
    if not x_alpha.grid.same_as(sign.grid):
        raise ValueError("constructed path and sign path live on different grids")
    w = recover_driving_noise(driver, sign, variant)
    lt = local_time(x_alpha, "occupation")
    weights = 2.0 * schedule.alpha_at(x_alpha.grid.times[:-1]) - 1.0
    correction = np.empty(len(x_alpha))
    correction[0] = 0.0
    np.cumsum(weights * np.diff(lt.values), out=correction[1:])
    residual = x_alpha.values - x_alpha.values[0] - w.values - correction
    return ResidualReport.from_residual(
        f"skew_sde[{schedule.kind},{variant}]", residual, x_alpha.grid.n_steps
    )


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


def _run_chunks(
    n_items: int, chunk: int, job: Callable[[int, int, int], Callable[[], object]]
) -> list[tuple[slice, object]]:
    """Items 0..n_items-1 in chunks of ``chunk``, run concurrently on a thread
    pool (one worker per usable CPU, at most one per chunk).

    ``job(c, lo, hi)`` runs in the calling thread and returns the
    zero-argument callable a worker runs for chunk c, so streams and
    generators are built here and the workers run numpy only.  Returns each
    chunk's output slice and result, in chunk order.
    """
    _check_count("chunk", chunk)
    bounds = [slice(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
    with ThreadPoolExecutor(max_workers=max(1, min(len(bounds), _usable_cpus()))) as pool:
        futures = [pool.submit(job(c, b.start, b.stop)) for c, b in enumerate(bounds)]
        return [(b, future.result()) for b, future in zip(bounds, futures)]


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
# critical value at the default level 0.01 is a constant; other levels ask
# scipy.special.kolmogi.  tests/test_scipy_kernels.py pins all of them bit for
# bit against scipy.
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


def _ks_critical(level: float) -> float:
    """Asymptotic Kolmogorov critical value at ``level`` (``kolmogi(level)``)."""
    if level == 0.01:
        return _KS_CRITICAL_01
    from scipy.special import kolmogi

    return float(kolmogi(level))


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

    def density(self, y):
        return skew_transition_density(self.alpha, self.t, y)

    def cdf(self, y):
        return skew_transition_cdf(self.alpha, self.t, y)

    @property
    def sign_probability(self) -> float:
        return self.alpha


# ---------------------------------------------------------------------------
# Harrison-Shepp skew random walk
# ---------------------------------------------------------------------------

#: walks whose uniforms are drawn and coded before being transposed into the
#: quad table
_WALK_BLOCK = 32


def _quad_steps(alpha: float) -> np.ndarray:
    """Up-steps of one quad (four steps from step 4q) by table entry plus
    clip(d, -2, 2), with d = ups - 2q: the state at step 4q is 2d.

    An even step's code e = [u < alpha] + [u < 1/2] takes it up from any
    state when e = 2 and from none when e = 0; one comparison implies the
    other, so e = 1 takes it up from 0 iff alpha >= 1/2 and elsewhere iff
    alpha < 1/2.  An odd step never starts from 0 and goes up iff its code
    o = [u < 1/2].  Steps 4q and 4q + 2 start from 0 iff d = 0 and
    d + (up-steps at 4q, 4q + 1) = 1; neither holds once |d| >= 2, which is
    why d can be clipped.
    """
    e0, o1, e2, o3, d = np.ix_(range(3), range(2), range(3), range(2), range(-2, 3))

    def up(e, from_zero):
        return (e == 2) | ((e == 1) & (from_zero == (alpha >= 0.5)))

    first = up(e0, d == 0) + o1
    return (first + up(e2, d + first == 1) + o3).ravel()


def _walk_quads(states: Sequence[tuple[int, int]], n_steps: int, alpha: float) -> np.ndarray:
    """Quad table of the walks with PCG64 ``states``: entry (q, i) codes
    steps 4q to 4q + 3 of walk i in one byte.

    A pair of steps (an even step's e, then an odd step's o, as in
    :func:`_quad_steps`) has code 2e + o in 0..5, a quad has code
    6 * (first pair's) + second pair's in 0..35, and the entry is
    5 * code + 2, the index of (code, d = 0) in :func:`_quad_steps`.  Row q
    holds quad q of every walk, so the step loop reads one contiguous row
    per quad.  Uniforms are drawn and coded ``_WALK_BLOCK`` walks at a time
    and transposed into the table block by block; padding past n_steps
    leaves uniforms of 1, which add no up-step.
    """
    m = len(states)
    n_quads = (n_steps + 3) // 4
    table = np.empty((n_quads, m), dtype=np.uint8)
    u = np.ones((_WALK_BLOCK, 4 * n_quads))
    for b in range(0, m, _WALK_BLOCK):
        k = min(_WALK_BLOCK, m - b)
        _draw_streams(states[b:b + k], lambda rng, row: rng.random(out=row[:n_steps]), u[:k])
        even, odd = u[:k, 0::2], u[:k, 1::2]
        pair = np.add(even < alpha, even < 0.5, dtype=np.uint8)
        pair <<= 1
        pair += odd < 0.5
        table[:, b:b + k] = (30 * pair[:, 0::2] + 5 * pair[:, 1::2] + 2).T
    return table


def _walk_terminals(states: Sequence[tuple[int, int]], n_steps: int, alpha: float) -> np.ndarray:
    """Integer terminal states of the skew walks with PCG64 ``states``.

    The state after j steps is 2 * ups - j, with ups the number of up-steps
    so far; each quad looks its up-steps up at its entry plus
    clip(ups - 2q, -2, 2).
    """
    steps = _quad_steps(alpha)
    ups = np.zeros(len(states), dtype=np.int64)
    d = np.empty_like(ups)
    for q, quad in enumerate(_walk_quads(states, n_steps, alpha)):
        np.clip(np.subtract(ups, 2 * q, out=d), -2, 2, out=d)
        d += quad
        ups += steps[d]
    return 2 * ups - n_steps


def harrison_shepp_terminals(
    alpha: float,
    n_steps: int,
    n_walks: int,
    seed: SeedSpec,
    chunk: int = 8192,
) -> LawSample:
    """Terminal values of many independent skew walks, scaled by 1/sqrt(n)
    to the unit horizon.

    From state 0 a walk steps +1 with probability alpha; elsewhere it is
    symmetric.  Step j of walk k is up iff the j-th uniform of
    ``seed.with_path(k)``'s stream is below that probability, so walk k is
    fixed by k alone: unlike the bulk sampler's, this output depends on
    neither ``chunk`` nor the worker count nor the walk block size.

    The calling thread derives each chunk's walk streams with
    :func:`~skewlab.grid_paths.stream_states`; the chunks then run
    concurrently on a thread pool (one worker per usable CPU, at most one
    per chunk).  A worker sets a Generator to each walk's state in turn,
    draws and codes its uniforms and steps the walks; the draws and the array passes
    release the interpreter lock.  It writes only its own slice of the
    output, so the result is bit-identical to a serial run.  Each
    worker holds one quad table of ceil(n_steps / 4) * chunk bytes (8 MiB
    at the default chunk and 2**12 steps) and one block of 32 * n_steps
    float64 uniforms with their codes.
    """
    _check_alpha(alpha)
    _check_count("n_steps", n_steps)
    _check_count("n_walks", n_walks)

    def job(c: int, lo: int, hi: int):
        states = stream_states([seed.with_path(k) for k in range(lo, hi)])
        return functools.partial(_walk_terminals, states, n_steps, alpha)

    out = np.empty(n_walks)
    for rows, terminals in _run_chunks(n_walks, chunk, job):
        out[rows] = terminals
    return LawSample(out / math.sqrt(n_steps), t=1.0, tag=f"hs_walk[alpha={alpha:g}]")


# ---------------------------------------------------------------------------
# Batched terminal sampling of the construction
# ---------------------------------------------------------------------------

#: bytes of rows the bulk sampler holds at a time: it draws and scans its
#: base paths, and draws its sign uniforms, in row blocks of about this size
_BLOCK_BYTES = 2 << 20


def _row_blocks(m: int, row_bytes: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of rows 0..m-1 in order, in blocks of as many
    ``row_bytes`` rows as fit in ``_BLOCK_BYTES`` (at least one)."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _base_rows(
    rng: np.random.Generator, m: int, n_steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row excursion count, straddling-excursion birth index and terminal
    value of m float32 base-path rows drawn in order from ``rng``.

    Rows are generated and scanned one ``_row_blocks`` block at a time, so
    only about ``_BLOCK_BYTES`` of the (m, n_steps) base-path matrix (128
    rows at 2**12 steps) is ever held, whatever n_steps.  The birth is the
    straddling excursion's g index on the full path, as
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

        # column c is path index c + 1 and the x0 = 0 column is implicit, so
        # a first covered column c is born at index c when c = 0 or column
        # c - 1 is an exact zero, and at c + 1 otherwise; only the last start
        # of each row is read (``rows.births`` would date every excursion)
        rows = ExcursionRows(path)
        last = n_steps - 1 - np.argmax(rows.starts[:, ::-1], axis=1)
        after_zero = (last == 0) | ~rows.covered[np.arange(hi - lo), last - 1]
        n_exc[lo:hi] = rows.counts
        birth[lo:hi] = np.where(rows.counts == 0, 0, np.where(after_zero, last, last + 1))
    return n_exc, birth, terminal


def _bulk_chunk(
    rng_base: np.random.Generator,
    rng_signs: Sequence[np.random.Generator],
    schedules: Sequence[AlphaSchedule],
    m: int,
    n_steps: int,
    dt: float,
    variant: str,
) -> list[np.ndarray]:
    """Terminal values of one chunk's m paths, one array per schedule; the
    base paths and then each schedule's sign uniforms are drawn one
    :func:`_row_blocks` block at a time."""
    n_exc, birth, terminal = _base_rows(rng_base, m, n_steps, dt)
    if variant == "absolute":
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


def skew_terminal_samples(
    schedules: Sequence[AlphaSchedule],
    n_paths: int,
    n_steps: int,
    seed: SeedSpec,
    variant: str = "absolute",
    chunk: int = 8192,
) -> list[LawSample]:
    """Bulk terminal sampling of the construction over shared driver paths,
    at the unit horizon.

    Chunk c draws its driver increments from seed.child(f"bulk/base/{c}")
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

    The chunk size is part of the sampler's determinism contract; the
    number of worker threads and the row block size are not.  Chunks run
    concurrently on a thread pool (one worker per usable CPU, at most one
    per chunk), and each writes only its own slice of the output, so the
    result is bit-identical to a serial run.  Each worker holds a few
    arrays of chunk values and one row block at a time: about 2 MiB of
    float32 base paths (128 rows at 2**12 steps) with their int8 signs and
    up to three boolean masks of that shape, or about 2 MiB of float64
    sign uniforms, whatever n_steps up to 2**19 (past that, one row).
    """
    if variant not in ("signed", "absolute"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_count("n_steps", n_steps)
    _check_count("n_paths", n_paths)
    dt = 1.0 / n_steps

    def job(c: int, lo: int, hi: int):
        rng_signs = [seed.child(f"bulk/signs/{k}/{c}").rng() for k in range(len(schedules))]
        return functools.partial(
            _bulk_chunk, seed.child(f"bulk/base/{c}").rng(), rng_signs, schedules,
            hi - lo, n_steps, dt, variant,
        )

    outs = [np.empty(n_paths) for _ in schedules]
    for rows, values in _run_chunks(n_paths, chunk, job):
        for out, v in zip(outs, values):
            out[rows] = v
    return [
        LawSample(out, t=1.0, tag=f"skew[{variant},{sched.kind}]")
        for out, sched in zip(outs, schedules)
    ]


def skew_terminal_sample(
    schedule: AlphaSchedule,
    n_paths: int,
    n_steps: int,
    seed: SeedSpec,
    variant: str = "absolute",
    chunk: int = 8192,
) -> LawSample:
    """Terminal values of many independent construction runs (trivial
    model): the one-schedule case of :func:`skew_terminal_samples`."""
    return skew_terminal_samples([schedule], n_paths, n_steps, seed, variant, chunk)[0]


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
    level: float = 0.01,
    lattice_allowance: float = 0.0,
    lattice_spacing: Optional[float] = None,
    seed: Optional[SeedSpec] = None,
) -> TestReport:
    """KS comparison of a law sample against a reference.

    Against another sample: two-sample KS below the asymptotic critical
    value at ``level`` plus ``lattice_allowance``; when the reference lives
    on a lattice, pass its spacing so the continuity correction of
    :func:`lattice_smooth` is applied (and disclosed).  Against a density
    handle: one-sample KS (midpoint convention) at the same level; the
    detail also reports the sign-probability discrepancy.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if samples_a.n < 1000:
        raise InsufficientSamplesError(f"need at least 1000 samples, got {samples_a.n}")
    c_level = _ks_critical(level)
    if isinstance(reference, LawSample):
        if reference.n < 1000:
            raise InsufficientSamplesError(
                f"need at least 1000 reference samples, got {reference.n}"
            )
        ref_values = reference.values
        note = ""
        if lattice_spacing is not None:
            ref_values = lattice_smooth(ref_values, lattice_spacing)
            note = f" lattice_spacing={lattice_spacing:.5f} smoothed"
        stat = two_sample_ks(samples_a.values, ref_values)
        n, m = samples_a.n, reference.n
        crit = c_level * math.sqrt((n + m) / (n * m)) + lattice_allowance
        detail = f"two_sample vs {reference.tag or 'sample'} level={level:g}{note}"
        n_paths = min(n, m)
    else:
        stat = ks_statistic(samples_a.values, reference.cdf)
        crit = c_level / math.sqrt(samples_a.n) + lattice_allowance
        sign_frac = float(np.mean(samples_a.values > 0))
        detail = (
            f"one_sample midpoint level={level:g} "
            f"sign_prob_err={abs(sign_frac - reference.sign_probability):.5f}"
        )
        n_paths = samples_a.n
    return TestReport.below("law_ks", stat, crit, n_paths, 0, seed, detail)

"""Uniform time grids, seeded Brownian path sampling, and bridge refinement.

Every random quantity in the package is drawn from a substream addressed by a
:class:`SeedSpec`.  The substream derivation is a fixed, documented mix: the
triple ``(master_seed, stream_label, path_index)`` is fed through numpy's
``SeedSequence`` entropy pool (with the label reduced to a 64-bit blake2b
digest so the mix does not depend on Python's salted ``hash``) and drives a
PCG64 generator.  The mix is stable across runs, processes and platforms;
distinct triples yield streams indistinguishable from independent ones.
:func:`stream_states` derives the PCG64 states of a whole block of
substreams at once, equal to ``SeedSpec.rng``'s bit for bit.

:func:`_run_chunks` is the one thread-pool helper: the calling thread
derives the streams and allocates the arrays of each chunk of work, and the
workers run private helpers and numpy on them, so every public call stays
in the calling thread.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "SeedSpec",
    "stream_states",
    "TimeGrid",
    "SamplePath",
    "make_grid",
    "block_rows",
    "brownian_rows",
    "sample_brownian",
    "refine_bridge",
]

#: float64 elements per array of one row block (see :func:`block_rows`)
BLOCK_ELEMENTS = 2**16


@functools.lru_cache(maxsize=4096)
def _label_digest(label: str) -> int:
    """Stable 64-bit digest of a stream label."""
    return int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little"
    )


@dataclass(frozen=True)
class SeedSpec:
    """Address of one independent random substream.

    ``child(tag)`` descends into a namespaced sub-label and ``with_path(i)``
    selects a parallel stream, so Monte Carlo fan-out over ``path_index``
    needs no shared state.  ``rng()`` materialises the generator:

        SeedSequence(entropy=(master_seed, blake2b64(stream_label), path_index))
        -> PCG64

    This is the specification of a stream.  :func:`stream_states` derives
    the same PCG64 states for a block of specs in numpy, and a test pins it
    equal to ``rng()`` bit for bit.
    """

    master_seed: int
    stream_label: str = ""
    path_index: int = 0

    def child(self, tag: str) -> "SeedSpec":
        """Sub-stream ``tag`` below this one, joined to the label by ``/``.

        A tag may itself contain ``/``, and by design ``child("a/b")`` is the
        same stream as ``child("a").child("b")``: labels such as
        ``bulk/base/{c}`` are built either way.
        """
        label = f"{self.stream_label}/{tag}" if self.stream_label else tag
        return SeedSpec(self.master_seed, label, self.path_index)

    def with_path(self, index: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_label, int(index))

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=(self.master_seed, _label_digest(self.stream_label), self.path_index)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def token(self) -> str:
        """Compact text form used in reports."""
        return f"{self.master_seed}:{self.stream_label}:{self.path_index}"


# numpy's SeedSequence (4-word pool) and PCG64 seeding constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL = 4
#: pool words each source word is mixed into, in SeedSequence's order
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


def _entropy_words(seed: SeedSpec) -> list[int]:
    """32-bit words of ``(master_seed, blake2b64(stream_label), path_index)``,
    each value split little-endian (0 has one word) as ``SeedSequence``
    splits its entropy."""
    words = []
    for value in (seed.master_seed, _label_digest(seed.stream_label), seed.path_index):
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value >> 32:
            value >>= 32
            words.append(value & _MASK32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, n_calls: int) -> np.ndarray:
    """SeedSequence's hash constants as a ``(n_calls + 1, 1)`` uint32 column:
    hashmix call k xors with entry k and multiplies by entry k + 1."""
    consts = [init]
    for _ in range(n_calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 ``values`` by the calls whose
    constants start ``consts``, one call per row of the result."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x
    out -= _MIX_MULT_R * y
    out ^= out >> 16
    return out


def stream_states(seeds) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of each seed's stream, derived for the whole
    block at once.

    Row j is ``seeds[j].rng().bit_generator.state["state"]`` as a pair: the
    entropy words of ``(master_seed, blake2b64(stream_label), path_index)`` go
    through ``SeedSequence``'s pool (hashmix, mix, and one more mixing pass
    per word past the fourth) and ``generate_state(4, uint64)`` in uint32
    arithmetic vectorized over the block and the pool words, then through
    PCG64's two seeding steps.  Like ``SeedSequence``, it raises ValueError
    for a negative seed or index.
    """
    rows = [_entropy_words(seed) for seed in seeds]
    n_words = np.array([len(words) for words in rows], dtype=np.int64)
    width = max(_POOL, int(n_words.max(initial=0)))
    # words past a row's length are 0, which is SeedSequence's pool padding
    entropy = np.array(
        [words + [0] * (width - len(words)) for words in rows], dtype=np.uint32
    ).reshape(len(rows), width).T

    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * width)
    pool = _hashmix(entropy[:_POOL], consts[:_POOL + 1])
    call = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[call:call + _POOL]))
        call += _POOL - 1
    for src in range(_POOL, width):
        live = n_words > src
        mixed = _mix(pool, _hashmix(entropy[src], consts[call:call + _POOL + 1]))
        pool[:, live] = mixed[:, live]
        call += _POOL

    # generate_state(4, uint64): 8 uint32 words, read in little-endian pairs
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    words = words.astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    # PCG64 seeding from (seed, seq): inc = 2 seq + 1, then state = inc is
    # stepped once after adding seed: state = (inc + seed) * mult + inc
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _draw_streams(states, draw, rows) -> list:
    """``draw(rng, row)`` for each PCG64 ``(state, inc)`` of ``states`` and
    the matching item of ``rows``, in order; the results as a list.

    ``rng`` is one Generator, set to each state in turn and moved to the
    next one as soon as ``draw`` returns, so ``draw`` must be done with it
    by then.  Every caller of :func:`stream_states` draws through here, so
    no caller holds two streams' generators at once.  It calls no public
    function, so a worker thread may run it on states and rows that the
    calling thread prepared (see :func:`_run_chunks`).
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bits = gen.bit_generator
    out = []
    for (state, inc), row in zip(states, rows, strict=True):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        out.append(draw(gen, row))
    return out


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _usable_cpus() -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


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
    n_items: int,
    chunk: int,
    job: Callable[[int, int, int], Callable[[], object]],
    max_workers: Optional[int] = None,
) -> Iterator[tuple[slice, object]]:
    """Items 0..n_items-1 in chunks of ``chunk``, run concurrently on a thread
    pool (one worker per usable CPU, at most one per chunk and at most
    ``max_workers`` when given).

    ``job(c, lo, hi)`` runs in the calling thread and returns the
    zero-argument callable a worker runs for chunk c, so streams, generators
    and output arrays are built here and the workers run private helpers
    and numpy only: the bulk sampler's chunks, and the Gaussian rows that
    the signed-measure block reader draws ahead of the block it reads.
    Chunk c is prepared only once chunk c - workers has been collected, so
    at most one chunk per worker is prepared and not yet collected, however
    many chunks there are.  Before it first waits for a result, the calling
    thread runs the task that :func:`_alongside` set, if any, so it works
    beside the workers instead of idling.  Yields each chunk's output slice
    and result, in chunk order.  Closing the generator early waits for the
    chunks in flight and stops the pool.
    """
    _check_count("chunk", chunk)
    bounds = [slice(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
    cpus = _usable_cpus() if max_workers is None else min(max_workers, _usable_cpus())
    workers = max(1, min(len(bounds), cpus))
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = horizon with N = n_steps."""

    horizon: float
    n_steps: int
    times: np.ndarray

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    def index_at(self, t: float) -> int:
        """Largest grid index i with times[i] <= t (clipped to the grid)."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), self.n_steps)

    def same_as(self, other: "TimeGrid") -> bool:
        return (
            self is other
            or (self.n_steps == other.n_steps and self.horizon == other.horizon)
        )


def _check_finite(values: np.ndarray) -> np.ndarray:
    """``values``, once checked finite as a :class:`SamplePath` checks its
    own; kernels that keep their intermediates as bare arrays check each
    one here."""
    if not np.isfinite(values).all():
        raise ValueError("path values must all be finite")
    return values


def _check_aligned(a, b) -> None:
    """Require two paths or blocks (anything with a ``grid``) to share it."""
    if not a.grid.same_as(b.grid):
        raise ValueError("paths live on different grids")


@dataclass(frozen=True)
class SamplePath:
    """A discretized process: values aligned one-to-one with grid.times.

    The path stores a read-only view of its values, so a frozen path stays
    frozen even when its values are a row of a larger block.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have length {self.grid.n_points}, got {v.shape}"
            )
        _check_finite(v)
        v = v.view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.grid.n_points


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Build the uniform grid over [0, horizon] with n_steps steps.

    Raises ValueError for a horizon that is not positive and finite, or for
    fewer than one step.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    times = np.linspace(0.0, float(horizon), n_steps + 1)
    return TimeGrid(float(horizon), int(n_steps), times)


def block_rows(n_points: int) -> int:
    """Rows per block for paths of ``n_points`` points: about
    ``BLOCK_ELEMENTS`` float64 per array, and at least one row.  The block
    size sets memory and speed only; no result depends on it."""
    return max(1, BLOCK_ELEMENTS // n_points)


def _fill_normals(values: np.ndarray, states) -> np.ndarray:
    """The fill step of :func:`brownian_rows`: N(0, 1) draws into columns
    1.. of each row of ``values``, row j from the PCG64 state ``states[j]``."""
    _draw_streams(states, lambda rng, row: rng.standard_normal(out=row), values[:, 1:])
    return values


def _finish_brownian(values: np.ndarray, grid: TimeGrid, x0: float) -> np.ndarray:
    """The finish step of :func:`brownian_rows`, in place on the rows that
    :func:`_fill_normals` filled: x0 in column 0, then the draws scaled by
    sqrt(dt), summed along the row and shifted by x0."""
    values[:, 0] = x0
    steps = values[:, 1:]
    steps *= math.sqrt(grid.dt)
    np.cumsum(steps, axis=1, out=steps)
    steps += x0
    return values


def brownian_rows(grid: TimeGrid, seeds, x0: float = 0.0) -> np.ndarray:
    """Sample a block of Brownian paths as a ``(len(seeds), n_points)`` array.

    Row j is x0 plus cumulative N(0, dt) increments drawn entirely from
    ``seeds[j]``'s substream, so each row is reproducible on its own, bit
    for bit, whatever block it is sampled in.
    """
    values = _fill_normals(np.empty((len(seeds), grid.n_points)), stream_states(seeds))
    return _finish_brownian(values, grid, x0)


def sample_brownian(grid: TimeGrid, seed: SeedSpec) -> SamplePath:
    """Sample one Brownian path from 0: the one-row case of :func:`brownian_rows`."""
    return SamplePath(grid, brownian_rows(grid, [seed])[0])


def refine_bridge(path: SamplePath, factor: int, seed: SeedSpec) -> SamplePath:
    """Brownian-bridge midpoint refinement of a Brownian path.

    Each halving keeps the existing points bit-exactly and draws the new
    midpoints from the conditional law N((x_i + x_{i+1})/2, dt_new / 2) where
    dt_new is the refined spacing.  ``factor`` must be a power of two; the
    bridge draws for the halving that starts from an n-step path come from
    ``seed.child(f"bridge{n}")``, so iterated refinement (4 = 2 then 2) and
    one-shot refinement by 4 produce the same path.
    """
    if factor < 1 or factor & (factor - 1) != 0:
        raise ValueError(f"factor must be a power of 2, got {factor}")
    out = path
    while factor > 1:
        out = _halve(out, seed)
        factor //= 2
    return out


def _halve(path: SamplePath, seed: SeedSpec) -> SamplePath:
    n = path.grid.n_steps
    rng = seed.child(f"bridge{n}").rng()
    fine = make_grid(path.grid.horizon, 2 * n)
    half_dt = fine.dt
    x = path.values
    mids = 0.5 * (x[:-1] + x[1:]) + math.sqrt(half_dt / 2.0) * rng.standard_normal(n)
    values = np.empty(fine.n_points)
    values[0::2] = x
    values[1::2] = mids
    return SamplePath(fine, values)

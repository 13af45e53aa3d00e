"""Bernoulli sign processes over an excursion decomposition.

Each excursion of the source path carries one sign, +1 with probability
alpha.  A piecewise schedule draws one sign per (excursion, partition cell)
pair, and each excursion takes the sign drawn for the cell of its birth (its
left endpoint), so the sign stays constant on an excursion that straddles a
cell boundary.  Off the excursions the sign path is exactly zero.

Seed discipline: for a given seed, excursion n with an m-cell schedule
consumes uniforms [n*m, (n+1)*m) of the substream, so the signs of the first
k excursions do not depend on how many excursions follow them.  Refining a
grid, which can only reveal additional excursions, therefore never reshuffles
the signs of the ones already present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .excursion import ExcursionRows, ExcursionSet
from .grid_paths import SamplePath, SeedSpec, TimeGrid, _draw_streams, stream_states

__all__ = [
    "AlphaSchedule",
    "assign_signs",
    "build_sign_path",
    "sign_path_rows",
]


@dataclass(frozen=True)
class AlphaSchedule:
    """Skewness parameter, constant or piecewise constant in time.

    boundaries = (0 = t_0 < t_1 < ... < t_m) and values = (a_0, ..., a_m)
    mean alpha(t) = a_i on [t_i, t_{i+1}) and a_m from t_m on.  A single cell
    is the constant case.
    """

    boundaries: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.boundaries) != len(self.values) or not self.boundaries:
            raise ValueError("need one alpha value per boundary")
        if not np.isfinite(self.boundaries).all():
            raise ValueError("boundaries must be finite")
        if self.boundaries[0] != 0.0:
            raise ValueError("first boundary must be 0")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if any(not 0.0 <= a <= 1.0 for a in self.values):
            raise ValueError("alpha values must lie in [0, 1]")

    @classmethod
    def constant(cls, alpha: float) -> "AlphaSchedule":
        return cls((0.0,), (float(alpha),))

    @classmethod
    def piecewise(cls, boundaries, values) -> "AlphaSchedule":
        return cls(tuple(float(b) for b in boundaries), tuple(float(a) for a in values))

    @property
    def kind(self) -> str:
        return "constant" if len(self.values) == 1 else "piecewise"

    @property
    def n_cells(self) -> int:
        return len(self.values)

    def cell_indices(self, times: np.ndarray) -> np.ndarray:
        """Cell index of each time (cell i is [t_i, t_{i+1}))."""
        return np.clip(
            np.searchsorted(self.boundaries, times, side="right") - 1, 0, self.n_cells - 1
        )


def _draw_signs(
    n_excursions: int, schedule: AlphaSchedule, rng: np.random.Generator
) -> np.ndarray:
    u = rng.uniform(size=(n_excursions, schedule.n_cells))
    alpha = np.asarray(schedule.values)
    return np.where(u < alpha[None, :], 1, -1).astype(np.int8)


def assign_signs(
    excursions: ExcursionSet, schedule: AlphaSchedule, seed: SeedSpec
) -> np.ndarray:
    """Draw the per-excursion (and per-cell) Bernoulli signs: an int8 array
    of -1 and +1 with one row per excursion and one column per cell.

    Sign (n, i) is +1 iff the corresponding uniform is < alpha_i, so alpha = 1
    gives all +1 and alpha = 0 all -1; draws are independent across both
    indices and independent of the path given its excursion structure.
    """
    return _draw_signs(excursions.n_excursions, schedule, seed.rng())


def _assemble(
    rows: ExcursionRows, signs: np.ndarray, schedule: AlphaSchedule, grid: TimeGrid
) -> np.ndarray:
    """Sign rows from the signs of every excursion of a block (row 0's
    excursions first), each excursion frozen at the cell of its birth."""
    cells = schedule.cell_indices(grid.times[rows.births])
    frozen = np.append(signs[np.arange(len(signs)), cells], 0).astype(float)
    # excursions are numbered across the whole block, row 0's first; the
    # zero mask gets number -1, which reads the 0 appended to their signs
    number = np.cumsum(rows.starts, dtype=np.int64).reshape(rows.sign.shape)
    number -= 1
    number[~rows.covered] = -1
    return np.take(frozen, number)


def build_sign_path(
    excursions: ExcursionSet,
    signs: np.ndarray,
    schedule: AlphaSchedule,
) -> SamplePath:
    """Assemble the {-1, 0, +1}-valued sign path from an ``(n_excursions,
    n_cells)`` array of signs, such as :func:`assign_signs` draws.

    Each excursion takes the sign drawn for the cell containing its birth
    (its ``g_index``), so the path is constant on each excursion and exactly
    0 on the zero mask.  Re-flipping inside an excursion that straddles a
    cell boundary would make the flipped path jump by the full excursion
    height there, and a solution of the inhomogeneous SDE must stay
    continuous.  With a single cell every excursion reads its only sign.
    """
    if len(signs) != excursions.n_excursions:
        raise ValueError(
            f"signs have {len(signs)} excursions, "
            f"decomposition has {excursions.n_excursions}"
        )
    if signs.shape[1:] != (schedule.n_cells,):
        raise ValueError("signs and schedule disagree on cell count")
    grid = excursions.path.grid
    return SamplePath(grid, _assemble(excursions.rows, signs, schedule, grid)[0])


def sign_path_rows(
    sources: np.ndarray,
    grid: TimeGrid,
    schedule: AlphaSchedule,
    seeds,
) -> np.ndarray:
    """Sign paths of a block of sign-flip runs: decompose each row of
    ``sources`` into excursions, draw its signs from ``seeds[row]`` and
    assemble the ``(rows, n_points)`` sign rows.  This is the one
    decompose -> sign -> assemble routine; a single run is a one-row block.
    """
    if sources.shape[-1] != grid.n_points:
        raise ValueError(
            f"sources have {sources.shape[-1]} points per row, grid has {grid.n_points}"
        )
    rows = ExcursionRows(sources)
    signs = np.concatenate(
        _draw_streams(
            stream_states(seeds),
            lambda rng, n: _draw_signs(int(n), schedule, rng),
            rows.counts,
        )
    )
    return _assemble(rows, signs, schedule, grid)

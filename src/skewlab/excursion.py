"""Excursion decomposition of a discretized path.

A path is split into the discrete zero set and the excursions on which it
keeps a constant nonzero sign.  Boundary conventions, fixed once here and
relied on everywhere downstream:

* An index belongs to the zero mask iff its value is exactly zero (after the
  optional snap tolerance).  Every other index is covered by exactly one
  excursion: a maximal run of covered indices of one sign.  Discretized
  Brownian paths almost never hit zero exactly, so strict sign changes also
  end excursions: when ``x[i] * x[i+1] < 0``, index i is the last covered
  index of the ending excursion and i+1 the first of the next one, and
  neither index is masked.
* An excursion's birth (its g index) is its first covered index, or the
  exact zero just before it when there is one.  The sign-flip construction
  draws each excursion's sign in the schedule cell of its birth and gives it
  to every index the excursion covers; masked indices stay 0.
* ``zero_events`` marks the discrete stand-ins for visits to zero: the masked
  indices plus, for each sign change, the entry index i+1 of the new
  excursion.  The last-zero curve gamma and the final zero gbar are computed
  from this event set; when there are no events, gamma is identically 0 and
  gbar = 0 (the 0-or-last-zero convention).  The O(sqrt(dt)) values at
  crossing boundaries make these choices immaterial in the mesh limit, which
  the test suite checks explicitly.

The kernels work along the last axis of a ``(rows, n_points)`` block of
paths (:class:`ExcursionRows`); :func:`decompose_excursions` and
:func:`last_zero_curve` are their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid_paths import SamplePath

__all__ = [
    "ExcursionRows",
    "ExcursionSet",
    "decompose_excursions",
    "dilate",
    "last_zero_curve",
]


def dilate(flags: np.ndarray, radius: int) -> np.ndarray:
    """Boolean flags with each True smeared over +/- radius indices along the
    last axis, so a ``(rows, n_points)`` block dilates row by row."""
    out = flags.copy()
    for off in range(1, radius + 1):
        out[..., off:] |= flags[..., :-off]
        out[..., :-off] |= flags[..., off:]
    return out


def _signs(x: np.ndarray) -> np.ndarray:
    """sgn(x) as int8, with no full-size float temporary; an int8 sign
    multiplies a float exactly as the float sign does."""
    return np.sign(x, out=np.empty(x.shape, np.int8), casting="unsafe")


class ExcursionRows:
    """Excursion structure of a ``(rows, n_points)`` block of paths.

    Every row is decomposed on its own, along the last axis.  Only the signs
    are computed up front; each other field is computed on first read.
    ``births`` lists the excursions of row 0, then row 1, and so on;
    ``counts[r]`` is the number of excursions of row r.  Values of magnitude
    <= ``snap_tol`` count as exact zeros; it is one tolerance or a column of
    one per row.
    """

    def __init__(self, values: np.ndarray, snap_tol=0.0):
        self.sign = _signs(values)
        if np.any(snap_tol > 0.0):
            # |x| <= snap_tol as two comparisons, again with no float temporary
            near = values <= snap_tol
            near &= values >= -snap_tol
            self.sign[near] = 0

    @cached_property
    def covered(self) -> np.ndarray:
        """True where an excursion covers the index, False on the zero mask."""
        return self.sign != 0

    @cached_property
    def events(self) -> np.ndarray:
        """Zero events: the zero mask plus the entry index of each crossing."""
        s = self.sign
        events = s == 0
        events[:, 1:] |= s[:, 1:] * s[:, :-1] < 0
        return events

    @cached_property
    def starts(self) -> np.ndarray:
        """True on the first covered index of each excursion: a covered index
        whose sign differs from the one before it (or that has none), as one
        boolean mask with no full-size temporary."""
        s = self.sign
        starts = np.empty(s.shape, dtype=bool)
        starts[:, 0] = True
        np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:])
        return np.logical_and(starts, s, out=starts)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Last zero event at or before each index, 0 when there is none."""
        # each row of the flat index minus its first entry is the column index
        gamma = np.arange(self.sign.size, dtype=np.int64).reshape(self.sign.shape)
        gamma -= gamma[:, :1]
        gamma *= self.events
        return np.maximum.accumulate(gamma, axis=1, out=gamma)

    @property
    def gbar(self) -> np.ndarray:
        """Final zero of each row."""
        return self.gamma[:, -1]

    @cached_property
    def counts(self) -> np.ndarray:
        return np.count_nonzero(self.starts, axis=1)

    @cached_property
    def births(self) -> np.ndarray:
        """g index of each excursion: its first covered index, or the exact
        zero just before it."""
        row, first = np.nonzero(self.starts)
        at_zero = (first > 0) & ~self.covered[row, np.maximum(first - 1, 0)]
        return np.where(at_zero, first - 1, first)


@dataclass(frozen=True)
class ExcursionSet:
    """Excursions of one path plus its discrete zero data: the one-row view
    of an :class:`ExcursionRows`."""

    path: SamplePath
    rows: ExcursionRows

    @property
    def zero_mask(self) -> np.ndarray:
        """True on the exact zeros."""
        return ~self.rows.covered[0]

    @property
    def zero_events(self) -> np.ndarray:
        """True on the zero events (see the module docstring)."""
        return self.rows.events[0]

    @property
    def n_excursions(self) -> int:
        return int(self.rows.counts[0])


def decompose_excursions(path: SamplePath, snap_tol: float = 0.0) -> ExcursionSet:
    """Split a path into excursions and its discrete zero set.

    Values of magnitude <= snap_tol are treated as exact zeros (default 0:
    only true zeros).  An everywhere-zero path yields no excursions and a
    full mask.  This is the one-row case of :class:`ExcursionRows`.
    """
    return ExcursionSet(path, ExcursionRows(path.values[None, :], snap_tol))


def last_zero_curve(excursions: ExcursionSet) -> tuple[np.ndarray, int]:
    """Running last zero event and the final zero gbar of a decomposition.

    gamma[i] is the largest zero-event index <= i, and 0 when no event has
    occurred yet; it is nondecreasing and idempotent (gamma[gamma[i]] =
    gamma[i]).  gbar is the last event index, or 0 for an event-free path.
    """
    gamma = excursions.rows.gamma[0]
    return gamma, int(gamma[-1])

"""Discrete stochastic calculus: Ito sums, covariation, local time, residuals.

All cumulative sums run left to right in grid order (numpy cumsum), so every
result is reproducible bit for bit; parallelism in this package only ever
fans out across independent paths, never inside one sum.

Sign convention: sgn(0) = 0 throughout (the symmetric local time convention),
which is what numpy.sign provides.

``ito_rows``, ``covariation_rows`` and ``tanaka_rows`` work along the last
axis of an array, so one call serves a single path or a ``(rows, n_points)``
block; ``ito_sum`` is the one-path case of the first.  Each builds its
result in one output buffer (``out=`` differences, in-place products and
``cumsum``), with the same floating-point operations in the same order as
the textbook ``np.diff``/``cumsum`` expressions.

The three pathwise identities (Tanaka, frozen-k balayage and the f(v)M
transform) have one implementation, ``identity_residuals``: it computes
sign(X), |X| and int sgn(X) dX once per path for all three, and the CLI's
``identities`` suite calls it on every mesh level.  ``identity_residual`` is
its one-kind front.  Its private kernels work on bare arrays, overwrite the
buffers they consume, and check every intermediate finite, with the
``ValueError`` a ``SamplePath`` raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .excursion import ExcursionRows, _signs
from .grid_paths import SamplePath, _check_aligned, _check_finite

__all__ = [
    "ResidualReport",
    "ito_rows",
    "ito_sum",
    "covariation_rows",
    "tanaka_rows",
    "identity_residual",
    "identity_residuals",
]

#: occupation bandwidth default: eps = dt**OCCUPATION_EXPONENT, balancing the
#: eps -> 0 bias against the eps**2/dt -> inf consistency requirement
OCCUPATION_EXPONENT = 0.4


@dataclass(frozen=True)
class ResidualReport:
    """Pathwise residual of one identity: sup norm over [0, T] and terminal."""

    sup_norm: float
    terminal: float

    @classmethod
    def from_residual(
        cls, residual: np.ndarray, out: Optional[np.ndarray] = None
    ) -> "ResidualReport":
        """Report of one residual curve: its sup norm and terminal magnitude.
        The magnitudes go to ``out`` when given, which may be ``residual``."""
        magnitude = np.abs(residual, out=out)
        return cls(sup_norm=float(np.max(magnitude)), terminal=float(magnitude[-1]))


def _increments(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x[..., i+1] - x[..., i] along the last axis, into ``out`` when given."""
    return np.subtract(x[..., 1:], x[..., :-1], out=out)


def _increments_in_place(x: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Overwrite x[1:] of a 1-d array with the increments of x and return
    that view.  Chunks run from the end, so each reads values not yet
    overwritten, and only a chunk is ever copied."""
    for hi in range(len(x) - 1, 0, -chunk):
        lo = max(hi - chunk, 0)
        x[lo + 1:hi + 1] -= x[lo:hi]
    return x[1:]


def _ito_accumulate(integrand: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Turn the integrator increments ``steps`` into the left-endpoint Ito
    sum without its leading 0, in place:
    steps[..., j] <- sum_{i<=j} integrand[..., i] * steps[..., i]."""
    steps *= integrand[..., :-1]
    return np.cumsum(steps, axis=-1, out=steps)


def ito_rows(integrand: np.ndarray, integrator: np.ndarray) -> np.ndarray:
    """Left-endpoint Ito sums along the last axis:
    out[..., j] = sum_{i<j} f[..., i] * (g[..., i+1] - g[..., i])."""
    out = np.empty(integrator.shape)
    out[..., 0] = 0.0
    _ito_accumulate(integrand, _increments(integrator, out=out[..., 1:]))
    return out


def ito_sum(integrand: SamplePath, integrator: SamplePath) -> SamplePath:
    """Left-endpoint Ito sum: out[j] = sum_{i<j} f[i] * (g[i+1] - g[i])."""
    _check_aligned(integrand, integrator)
    return SamplePath(integrand.grid, ito_rows(integrand.values, integrator.values))


def covariation_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative sums of increment products along the last axis:
    out[..., j] = sum_{i<j} (x[..., i+1] - x[..., i]) * (y[..., i+1] - y[..., i])."""
    out = np.empty(x.shape)
    out[..., 0] = 0.0
    steps = _increments(x, out=out[..., 1:])
    steps *= np.diff(y, axis=-1)
    np.cumsum(steps, axis=-1, out=steps)
    return out


def tanaka_rows(x: np.ndarray) -> np.ndarray:
    """Discrete Tanaka local time along the last axis:
    |X_t| - |X_0| - sum sgn(X_i) (X_{i+1} - X_i)."""
    out = np.abs(x).astype(float, copy=False)
    out -= np.abs(x[..., :1])
    out -= ito_rows(_signs(x), x)
    return out


def _occupation(x: np.ndarray, dt: float, eps: float) -> np.ndarray:
    """Occupation local time of one path at bandwidth eps:
    (2 eps)^-1 * dt * #{i < t : |x_i| <= eps}, built in its own buffer."""
    curve = np.empty(len(x))
    curve[0] = 0.0
    hits = np.abs(x[:-1], out=curve[1:])
    np.less_equal(hits, eps, out=hits)
    hits *= dt / (2.0 * eps)
    np.cumsum(hits, out=hits)
    return curve


# The identity kernels below work on bare arrays of one path and overwrite
# the buffers they are said to consume, so identity_residuals computes |X|
# and int sgn(X) dX once for all three identities.  Each intermediate is
# checked finite, with the ValueError a SamplePath raises.


def _tanaka_residual(y: np.ndarray, m: np.ndarray, dt: float) -> np.ndarray:
    """|X_t| - |X_0| - int sgn(X) dX - L_t with L the occupation estimate at
    the default bandwidth, from y = |X| and m = int sgn(X) dX, in a new
    buffer."""
    occ = _check_finite(_occupation(y, dt, dt**OCCUPATION_EXPONENT))
    residual = y - y[0]
    residual -= m
    _check_finite(residual)  # the Tanaka local time
    residual -= occ
    return residual


def _product_residual(
    f: np.ndarray, total: np.ndarray, dm: np.ndarray, tail: Optional[np.ndarray] = None
) -> np.ndarray:
    """f_t M_t - f_0 M_0 - sum f_i dm_i [- tail_t] for M = ``total`` and the
    increments ``dm`` of the integrator m, in the buffer of ``f``; consumes
    ``f`` and ``dm``, and checks ``f`` and the Ito sum finite."""
    ito = _check_finite(_ito_accumulate(_check_finite(f), dm))
    start = f[0] * total[0]
    residual = f
    residual *= total
    residual -= start
    residual[1:] -= ito
    if tail is not None:
        residual -= tail
    return residual


def identity_residuals(path: SamplePath, curves: Optional[list] = None) -> dict:
    """Residuals of the three pathwise identities on one path, keyed by kind:

    tanaka
        |X_t| - |X_0| - sum sgn(X) dX - L_t with L estimated by the
        occupation kernel at its default bandwidth, so the discrete Tanaka
        rearrangement is checked against an independent estimator of the
        same local time.
    balayage
        k_{gamma_t} Y_t - k_0 Y_0 - sum k_{gamma_i} dY for Y = |X| and
        k = cos, with gamma the last-zero curve of X: a nonnegative Y shows
        no sign changes on a discrete grid, so its zero set is read off the
        signed X.
    transform
        f(v_t) M_t - f(v_0) M_0 - sum f(v_i) dm - F(v_t) for M = |X|,
        m = int sgn(X) dX, v = M - m, f = cos and F = sin, so F(v_0) = 0.

    sign(X), |X| and int sgn(X) dX are computed once for all three, and each
    buffer is freed or reused as soon as it is spent, so at most five
    path-length float arrays are alive at once, the path included.  When
    ``curves`` is given, ``(path.grid, tanaka residual)`` is appended to it.
    """
    x, grid = path.values, path.grid
    # balayage first, while the fewest arrays are alive
    rows = ExcursionRows(x[None, :])
    signs = rows.sign[0]
    k_frozen = _check_finite(np.cos(grid.times))[rows.gamma[0]]
    del rows
    y = _check_finite(np.abs(x))
    balayage = _product_residual(k_frozen, y, _increments(y))
    reports = {"balayage": ResidualReport.from_residual(balayage, out=balayage)}
    del balayage, k_frozen

    m = _check_finite(ito_rows(signs, x))
    del signs
    tanaka = _tanaka_residual(y, m, grid.dt)
    if curves is None:
        reports["tanaka"] = ResidualReport.from_residual(tanaka, out=tanaka)
    else:
        reports["tanaka"] = ResidualReport.from_residual(tanaka)
        curves.append((grid, tanaka))
    del tanaka

    v = _check_finite(y - m)
    dm = _increments(m)
    del m
    fv = np.cos(v)
    transform = _product_residual(fv, y, dm, np.sin(v, out=v))
    reports["transform"] = ResidualReport.from_residual(transform, out=transform)
    return reports


def identity_residual(kind: str, path: SamplePath) -> ResidualReport:
    """The ``kind`` entry of :func:`identity_residuals`: ``"tanaka"``,
    ``"balayage"`` or ``"transform"``."""
    reports = identity_residuals(path)
    if kind not in reports:
        raise ValueError(f"unknown identity kind {kind!r}")
    return reports[kind]

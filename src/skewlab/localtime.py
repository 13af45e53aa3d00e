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

Each pathwise identity has one implementation, a private kernel on bare
arrays of one path: ``identity_residual`` calls it on ``SamplePath`` inputs,
and the CLI's ``identities`` suite calls it directly, computing sign(X),
|X| and int sgn(X) dX once per level for all three identities.  A kernel
overwrites the buffers it consumes, and checks every intermediate finite,
with the ``ValueError`` a ``SamplePath`` raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
# the buffers they are said to consume, so a caller holding |X| and
# int sgn(X) dX computes each once for all three identities.  Each
# intermediate is checked finite, with the ValueError a SamplePath raises.


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


def identity_residual(kind: str, **inputs) -> ResidualReport:
    """Pathwise residual of one of the named identities.

    tanaka
        requires ``path``; residual of
        |X_t| - |X_0| - sum sgn(X) dX - L_t  with L estimated by the
        occupation kernel at its default bandwidth, so the discrete Tanaka
        rearrangement is checked against an independent estimator of the
        same local time.
    balayage_predictable
        requires ``y`` and ``k`` (a path of k_t values, or a callable
        evaluated on the grid times); residual of
        k_{gamma_t} Y_t - k_0 Y_0 - sum k_{gamma_i} dY  with gamma the
        last-zero curve of Y.  An optional ``reference`` path supplies the
        zero structure instead of Y itself; a nonnegative Y (for example a
        reflected path) shows no sign changes on a discrete grid, so its
        zero set must be read off the signed parent process.
    transform_c3
        requires ``total`` (M), ``martingale_part`` (m), ``fv_part`` (v) and
        callables ``f`` and ``F`` with F(x) = int_0^x f; residual of
        f(v_t) M_t - f(v_0) M_0 - sum f(v_i) dm - F(v_t), which presumes the
        caller's normalization F(v_0) = 0.
    """
    if kind == "tanaka":
        path = _require(inputs, "path", kind)
        x = path.values
        y = _check_finite(np.abs(x))
        residual = _tanaka_residual(y, _check_finite(ito_rows(_signs(x), x)), path.grid.dt)
        return ResidualReport.from_residual(residual, out=residual)

    if kind == "balayage_predictable":
        y = _require(inputs, "y", kind)
        k = _require(inputs, "k", kind)
        if callable(k):
            k = SamplePath(y.grid, np.asarray(k(y.grid.times), dtype=float))
        _check_aligned(k, y)
        reference = inputs.get("reference") or y
        _check_aligned(reference, y)
        k_frozen = k.values[ExcursionRows(reference.values[None, :]).gamma[0]]
        residual = _product_residual(k_frozen, y.values, _increments(y.values))
        return ResidualReport.from_residual(residual, out=residual)

    if kind == "transform_c3":
        total = _require(inputs, "total", kind)
        m = _require(inputs, "martingale_part", kind)
        v = _require(inputs, "fv_part", kind)
        f: Callable = _require(inputs, "f", kind)
        big_f: Callable = _require(inputs, "F", kind)
        _check_aligned(total, m)
        _check_aligned(total, v)
        # a copy, since the kernel overwrites it and f may return its input
        fv = SamplePath(total.grid, np.asarray(f(v.values), dtype=float)).values.copy()
        residual = _product_residual(
            fv, total.values, _increments(m.values), np.asarray(big_f(v.values), dtype=float)
        )
        return ResidualReport.from_residual(residual, out=residual)

    raise ValueError(f"unknown identity kind {kind!r}")


def _require(inputs: dict, key: str, kind: str):
    if key not in inputs or inputs[key] is None:
        raise ValueError(f"identity kind {kind!r} requires input {key!r}")
    return inputs[key]

"""Discrete stochastic calculus: Ito sums, covariation, local time, residuals.

All cumulative sums run left to right in grid order (numpy cumsum), so every
result is reproducible bit for bit; parallelism in this package only ever
fans out across independent paths, never inside one sum.

Sign convention: sgn(0) = 0 throughout (the symmetric local time convention),
which is what numpy.sign provides.

``ito_rows``, ``covariation_rows`` and ``tanaka_rows`` work along the last
axis of an array, so one call serves a single path or a ``(rows, n_points)``
block; ``ito_sum``, ``quadratic_covariation`` and
``local_time(path, "tanaka")`` are their one-path case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .excursion import decompose_excursions, last_zero_curve
from .grid_paths import SamplePath

__all__ = [
    "ResidualReport",
    "ito_rows",
    "ito_sum",
    "covariation_rows",
    "tanaka_rows",
    "quadratic_covariation",
    "local_time",
    "identity_residual",
]

#: occupation bandwidth default: eps = dt**OCCUPATION_EXPONENT, balancing the
#: eps -> 0 bias against the eps**2/dt -> inf consistency requirement
OCCUPATION_EXPONENT = 0.4


@dataclass(frozen=True)
class ResidualReport:
    """Pathwise residual of one identity: sup norm over [0, T] and terminal."""

    identity_name: str
    sup_norm: float
    terminal: float
    n_steps: int

    @classmethod
    def from_residual(cls, name: str, residual: np.ndarray, n_steps: int) -> "ResidualReport":
        """Report of one residual curve: its sup norm and terminal magnitude."""
        return cls(
            identity_name=name,
            sup_norm=float(np.max(np.abs(residual))),
            terminal=float(abs(residual[-1])),
            n_steps=n_steps,
        )


def _check_aligned(a: SamplePath, b: SamplePath) -> None:
    if not a.grid.same_as(b.grid):
        raise ValueError("paths live on different grids")


def ito_rows(integrand: np.ndarray, integrator: np.ndarray) -> np.ndarray:
    """Left-endpoint Ito sums along the last axis:
    out[..., j] = sum_{i<j} f[..., i] * (g[..., i+1] - g[..., i])."""
    out = np.empty(integrator.shape)
    out[..., 0] = 0.0
    steps = np.diff(integrator, axis=-1).astype(float, copy=False)
    steps *= integrand[..., :-1]
    np.cumsum(steps, axis=-1, out=out[..., 1:])
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
    steps = np.diff(x, axis=-1)
    steps *= np.diff(y, axis=-1)
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def tanaka_rows(x: np.ndarray) -> np.ndarray:
    """Discrete Tanaka local time along the last axis:
    |X_t| - |X_0| - sum sgn(X_i) (X_{i+1} - X_i)."""
    out = np.abs(x).astype(float, copy=False)
    out -= np.abs(x[..., :1])
    out -= ito_rows(np.sign(x), x)
    return out


def quadratic_covariation(x: SamplePath, y: SamplePath) -> SamplePath:
    """Cumulative sum of increment products <x, y>: the one-path case of
    :func:`covariation_rows`."""
    _check_aligned(x, y)
    return SamplePath(x.grid, covariation_rows(x.values[None, :], y.values[None, :])[0])


def local_time(
    path: SamplePath, method: str = "tanaka", bandwidth: Optional[float] = None
) -> SamplePath:
    """Estimate the symmetric local time of the path at level 0, as a path
    on the same grid.

    tanaka:      L_t = |X_t| - |X_0| - sum sgn(X_i) (X_{i+1} - X_i), the
                 discrete Tanaka rearrangement with sgn(0) = 0; nondecreasing
                 only up to discretization noise.
    occupation:  L_t = (2 eps)^-1 * dt * #{i < t : |X_i| <= eps}, a kernel
                 count with eps = bandwidth or dt**0.4 by default; exactly
                 nondecreasing.
    """
    x = path.values
    if method == "tanaka":
        return SamplePath(path.grid, tanaka_rows(x))
    if method == "occupation":
        eps = float(bandwidth) if bandwidth is not None else path.grid.dt**OCCUPATION_EXPONENT
        if eps <= 0:
            raise ValueError("occupation bandwidth must be positive")
        hits = (np.abs(x[:-1]) <= eps).astype(float)
        curve = np.empty(len(x))
        curve[0] = 0.0
        np.cumsum(hits * (path.grid.dt / (2.0 * eps)), out=curve[1:])
        return SamplePath(path.grid, curve)
    raise ValueError(f"unknown local time method {method!r}")


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
        tanaka = local_time(path, "tanaka").values
        occ = local_time(path, "occupation").values
        return ResidualReport.from_residual("tanaka", tanaka - occ, path.grid.n_steps)

    if kind == "balayage_predictable":
        y = _require(inputs, "y", kind)
        k = _require(inputs, "k", kind)
        if callable(k):
            k = SamplePath(y.grid, np.asarray(k(y.grid.times), dtype=float))
        _check_aligned(k, y)
        reference = inputs.get("reference") or y
        _check_aligned(reference, y)
        gamma, _ = last_zero_curve(decompose_excursions(reference))
        k_frozen = SamplePath(y.grid, k.values[gamma])
        residual = (
            k_frozen.values * y.values
            - k_frozen.values[0] * y.values[0]
            - ito_sum(k_frozen, y).values
        )
        return ResidualReport.from_residual("balayage_predictable", residual, y.grid.n_steps)

    if kind == "transform_c3":
        total = _require(inputs, "total", kind)
        m = _require(inputs, "martingale_part", kind)
        v = _require(inputs, "fv_part", kind)
        f: Callable = _require(inputs, "f", kind)
        big_f: Callable = _require(inputs, "F", kind)
        _check_aligned(total, m)
        _check_aligned(total, v)
        fv = SamplePath(total.grid, np.asarray(f(v.values), dtype=float))
        residual = (
            fv.values * total.values
            - fv.values[0] * total.values[0]
            - ito_sum(fv, m).values
            - np.asarray(big_f(v.values), dtype=float)
        )
        return ResidualReport.from_residual("transform_c3", residual, total.grid.n_steps)

    raise ValueError(f"unknown identity kind {kind!r}")


def _require(inputs: dict, key: str, kind: str):
    if key not in inputs or inputs[key] is None:
        raise ValueError(f"identity kind {kind!r} requires input {key!r}")
    return inputs[key]

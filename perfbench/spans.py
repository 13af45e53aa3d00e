"""Span tracer that wraps skewlab's public functions from outside the library.

``install()`` replaces every public function of each skewlab module at every
binding the call graph reads: the defining module, each module (and the
package) that imported the name, and module-level tables such as
``PROCESS_ZOO`` and ``SUITE_RUNNERS``; ``SeedSpec.rng`` is wrapped on the
class.  ``uninstall()`` puts the originals back.  Each call is a span named
``<module>.<function>``; its self time is its duration minus the durations of
the spans it called.  A few spans also add work counts computed from their
arguments (normals drawn, points decomposed, walk steps, bytes emitted).
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

import skewlab
from skewlab import cli, excursion, grid_paths, localtime, signed_measure, signflip, skewbm

MODULES = (grid_paths, excursion, signflip, localtime, signed_measure, skewbm, cli)
LAYERS = ("grid_paths", "excursion", "signflip", "localtime", "signed_measure", "skewbm")

#: per-layer metric prefix -> traced span
SPANS = {
    "grid_paths.rng": "grid_paths.SeedSpec.rng",
    "grid_paths.sample_brownian": "grid_paths.sample_brownian",
    "grid_paths.refine_bridge": "grid_paths.refine_bridge",
    "excursion.decompose": "excursion.decompose_excursions",
    "excursion.last_zero": "excursion.last_zero_curve",
    "localtime.ito_sum": "localtime.ito_sum",
    "localtime.identity_residual": "localtime.identity_residual",
    "signed_measure.build_model": "signed_measure.build_model",
    "signed_measure.drift_test": "signed_measure.martingale_drift_test",
    "signed_measure.representation": "signed_measure.optional_representation_check",
    "signed_measure.equivalence": "signed_measure.equivalence_suite",
    "signed_measure.sigma_h": "signed_measure.sigma_h_check",
    "skewbm.bulk_sampler": "skewbm.skew_terminal_samples",
    "skewbm.hs_walk": "skewbm.harrison_shepp_terminals",
    "skewbm.law_test": "skewbm.law_test",
    "skewbm.sde_residual": "skewbm.sde_residual",
    "cli.emit": "cli.emit_report",
}


def _sample_brownian(t, result, grid, seed, x0=0.0):
    t.counts["grid_paths.increments"] += grid.n_steps


def _refine_bridge(t, result, path, factor, seed):
    t.counts["grid_paths.increments"] += path.grid.n_steps * (factor - 1)


def _decompose(t, result, path, snap_tol=0.0):
    t.counts["excursion.decompose.points"] += len(path.values)


def _assign_signs(t, result, excursions, schedule, seed):
    t.counts["signflip.signs_drawn"] += excursions.n_excursions * schedule.n_cells


def _build_model(t, result, family, grid, seed):
    t.models.add((family, grid.n_steps, grid.horizon, seed.token()))


def _bulk_sampler(t, result, schedules, n_paths, n_steps, *args, **kwargs):
    t.counts["skewbm.bulk_sampler.path_steps"] += n_paths * n_steps


def _hs_walk(t, result, alpha, n_steps, n_walks, *args, **kwargs):
    t.counts["skewbm.hs_walk.walk_steps"] += n_walks * n_steps


def _emit(t, result, *args, **kwargs):
    t.counts["cli.emit.bytes"] += sum(os.path.getsize(p) for p in result)


#: span -> hook(tracer, result, *call args) run after a successful call
HOOKS = {
    "grid_paths.sample_brownian": _sample_brownian,
    "grid_paths.refine_bridge": _refine_bridge,
    "excursion.decompose_excursions": _decompose,
    "signflip.assign_signs": _assign_signs,
    "signed_measure.build_model": _build_model,
    "skewbm.skew_terminal_samples": _bulk_sampler,
    "skewbm.harrison_shepp_terminals": _hs_walk,
    "cli.emit_report": _emit,
}

COUNTS = (
    "grid_paths.increments",
    "excursion.decompose.points",
    "signflip.signs_drawn",
    "skewbm.bulk_sampler.path_steps",
    "skewbm.hs_walk.walk_steps",
    "cli.emit.bytes",
)


class Tracer:
    """In-memory span aggregates for the calls made while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.models = set()
        self._stack = []
        self._undo = []

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()
        self.models.clear()

    def _wrap(self, fn, span: str):
        hook = HOOKS.get(span)
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                calls[span] += 1
                total[span] += dur
                self_time[span] += dur - children
                if stack:
                    stack[-1] += dur
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        return traced

    def _rebind(self, holder, key, value) -> None:
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(obj, f"{short}.{name}")
        for ns in (skewlab,) + MODULES:
            for name, obj in list(vars(ns).items()):
                if name.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(ns, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._rebind(obj, key, wrapped[value])
        self._rebind(
            grid_paths.SeedSpec, "rng",
            self._wrap(grid_paths.SeedSpec.rng, "grid_paths.SeedSpec.rng"),
        )

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    def layer_metrics(self) -> dict:
        """Per-layer values of everything recorded since the last reset."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v for span, v in self.self_time.items() if span.split(".", 1)[0] == layer
            )
        for prefix, span in SPANS.items():
            m[f"{prefix}.calls"] = self.calls[span]
            m[f"{prefix}.self_s"] = self.self_time[span]
            m[f"{prefix}.s"] = self.total[span]
        for suite in cli.SUITES:
            m[f"cli.run_experiment.{suite}.s"] = self.total[f"cli.run_{suite}"]
        for name in COUNTS:
            m[name] = self.counts[name]
        builds = self.calls["signed_measure.build_model"]
        m["signed_measure.builds_per_path"] = builds / len(self.models) if self.models else 0.0
        return m

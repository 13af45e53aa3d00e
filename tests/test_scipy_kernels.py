"""The runtime loads no scipy module.

The normal density and CDF are written in numpy in the arithmetic scipy.stats
uses, the CDF as Cephes ``ndtr`` on the platform libm ``exp`` exactly as
scipy.special runs it, and the Kolmogorov critical value at the one KS level,
0.01, is a constant, so every printed number stays bit-identical to a scipy
computation.  These pins compare them with scipy.special and scipy.stats in
the test process, bit for bit; a fresh interpreter checks that importing and
warming up the lab loads no scipy module at all, and the package metadata
keeps scipy out of the runtime dependencies.
"""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import kolmogi, ndtr
from scipy.stats import kstwobign, norm

import skewlab
from skewlab.grid_paths import SeedSpec, make_grid
from skewlab.signed_measure import equivalence_suite
from skewlab.skewbm import (
    LawSample,
    SkewLaw,
    _KS_CRITICAL_01,
    _ndtr,
    law_test,
    skew_transition_cdf,
    skew_transition_density,
)

from conftest import PERFBENCH

EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0])


def same_bits(a, b):
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def density_reference(alpha, t, y):
    y = np.asarray(y, dtype=float)
    weight = np.where(y > 0, 2.0 * alpha, np.where(y < 0, 2.0 * (1.0 - alpha), 1.0))
    return weight * norm.pdf(y, scale=math.sqrt(t))


def cdf_reference(alpha, t, y):
    y = np.asarray(y, dtype=float)
    base = norm.cdf(y, scale=math.sqrt(t))
    return np.where(y < 0, 2.0 * (1.0 - alpha) * base, 2.0 * alpha * base + (1.0 - 2.0 * alpha))


@pytest.mark.parametrize("t", [1e-3, 0.25, 0.5, 1.0, 2.0, 7.3])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_density_and_cdf_equal_scipy_stats(alpha, t):
    rng = np.random.default_rng(int(1000 * t) + int(10 * alpha))
    y = np.concatenate([3.0 * math.sqrt(t) * rng.standard_normal(4000), EDGES])
    assert same_bits(skew_transition_density(alpha, t, y), density_reference(alpha, t, y))
    assert same_bits(skew_transition_cdf(alpha, t, y), cdf_reference(alpha, t, y))
    for scalar in (0.0, -0.0, 0.3, -2.5):
        assert same_bits(skew_transition_density(alpha, t, scalar),
                         density_reference(alpha, t, scalar))
        assert same_bits(skew_transition_cdf(alpha, t, scalar), cdf_reference(alpha, t, scalar))


@pytest.mark.parametrize("level", [0.01])
def test_law_test_critical_value_equals_kstwobign(level):
    rng = np.random.default_rng(5)
    sample = LawSample(rng.standard_normal(1500))
    other = LawSample(rng.standard_normal(2100))
    c_level = float(kstwobign.isf(level))
    one = law_test(sample, SkewLaw(0.5, 1.0))
    assert same_bits(one.threshold, c_level / math.sqrt(1500) + 0.0)
    two = law_test(sample, other)
    assert same_bits(two.threshold, c_level * math.sqrt((1500 + 2100) / (1500 * 2100)) + 0.0)


def test_ndtr_equals_scipy_special():
    rng = np.random.default_rng(20240817)
    x = np.concatenate([
        rng.standard_normal(200_000), rng.uniform(-40.0, 40.0, 200_000),
        3.0 * rng.standard_normal(200_000), EDGES, [math.inf, -math.inf, math.nan],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(_ndtr(x), ndtr(x))
        for scalar in [*EDGES, math.inf, -math.inf, math.nan, 0.3, -2.5]:
            out = _ndtr(np.float64(scalar))
            assert out.shape == () and same_bits(out, ndtr(scalar))


def test_default_ks_critical_value_is_kolmogi():
    assert same_bits(_KS_CRITICAL_01, kolmogi(0.01))
    assert same_bits(_KS_CRITICAL_01, kstwobign.isf(0.01))


#: (base, horizon, repr(statistic), repr(threshold), detail) of the
#: abs_brownian suite, recorded while it still called scipy.stats; for
#: reflected_bm the KS term sets the statistic, for bm the drift term does
ABS_BROWNIAN_PINS = [
    ("bm", 1.0, "0.7146001245836643", "1.0", "drift=2.86 ks=0.02274 ks_crit=0.05147"),
    ("reflected_bm", 1.0, "0.6911545649687572", "1.0", "drift=1.67 ks=0.03557 ks_crit=0.05147"),
    ("reflected_bm", 0.5, "0.6911545649687582", "1.0", "drift=1.74 ks=0.03557 ks_crit=0.05147"),
]


@pytest.mark.parametrize("base,horizon,statistic,threshold,detail", ABS_BROWNIAN_PINS)
def test_abs_brownian_report_pinned(base, horizon, statistic, threshold, detail):
    rep = equivalence_suite("abs_brownian", "trivial", base, 0.5,
                            SeedSpec(7).child(f"pin/abs_brownian/{base}"), 1000,
                            grid=make_grid(horizon, 2**10))
    assert (repr(rep.statistic), repr(rep.threshold), rep.detail) == (statistic, threshold, detail)


#: the benchmark's own warm-up (``perfbench/workloads.warmup``, imported
#: without writing bytecode there), then the calls it does not make: among
#: them the two-sample KS on a lattice that the walk cross-check runs
GUARD = """
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import workloads

from skewlab import signed_measure, signflip, skewbm
from skewlab.grid_paths import SeedSpec

workloads.warmup()
seed = SeedSpec(0, "warmup")
skewbm.skew_transition_density(0.7, 1.0, [0.5, -0.5])
signed_measure.equivalence_suite("abs_brownian", "trivial", "bm", 0.5, seed, 1000)
sample = skewbm.skew_terminal_sample(signflip.AlphaSchedule.constant(0.7), 1000, 16, seed)
walk = skewbm.harrison_shepp_terminals(0.7, 16, 1000, seed)
skewbm.law_test(sample, walk, lattice_allowance=0.005, lattice_spacing=0.5)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded)
sys.exit(1 if loaded else 0)
"""


def test_runtime_never_imports_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", GUARD, PERFBENCH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])

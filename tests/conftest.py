import os

import numpy as np
import pytest

from skewlab.grid_paths import SeedSpec, make_grid, sample_brownian

MASTER = 314159
#: the benchmark's directory, whose files the tests read and never write
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def seed():
    return SeedSpec(MASTER)


@pytest.fixture
def grid12():
    return make_grid(1.0, 2**12)


def brownian(n_steps=2**12, path_index=0, label="test", x0=0.0, horizon=1.0):
    """One Brownian path with a fully specified substream."""
    return sample_brownian(
        make_grid(horizon, n_steps), SeedSpec(MASTER, label, path_index), x0
    )


def independent_pair(grid, seed):
    """Two Brownian paths from the disjoint child streams ``pair0`` and
    ``pair1`` of one seed."""
    return sample_brownian(grid, seed.child("pair0")), sample_brownian(grid, seed.child("pair1"))


def path_from_values(values):
    """Wrap explicit values on a unit-horizon grid of matching size."""
    from skewlab.grid_paths import SamplePath

    values = np.asarray(values, dtype=float)
    return SamplePath(make_grid(1.0, len(values) - 1), values)


def martingale_row(path, label=""):
    """One path as a one-row martingale decomposition M = M + 0."""
    from skewlab.signed_measure import DecompositionRows

    return DecompositionRows.martingale(path.grid, path.values[None, :], label)

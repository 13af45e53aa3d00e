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


def brownian(n_steps=2**12, path_index=0, label="test", horizon=1.0):
    """One Brownian path from 0 with a fully specified substream."""
    return sample_brownian(make_grid(horizon, n_steps), SeedSpec(MASTER, label, path_index))


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


def qp_terminals(d, total, fv=None):
    """|terminal qp residual| of each row of a block."""
    from skewlab.signed_measure import _qp_rows

    return np.abs(_qp_rows(d, total, fv)[:, -1])


def zoo_block(base, models, grid, seeds):
    """The zoo member ``base`` on a block of models, row j's W drawn from
    ``seeds[j]``'s ``w`` substream as the suites' block reader draws it."""
    from skewlab.grid_paths import brownian_rows
    from skewlab.signed_measure import PROCESS_ZOO

    return PROCESS_ZOO[base](models, grid, brownian_rows(grid, [s.child("w") for s in seeds]))


def shifted_qp_terminals(base, seed, n_steps, n_paths):
    """qp terminals of paths 0..n_paths-1 of the zoo member ``base`` under
    the shifted model, path p from ``seed.with_path(p)``, read through the
    suites' block reader."""
    from skewlab.signed_measure import _read_blocks

    _, (terms,) = _read_blocks(
        "shifted_brownian", base, make_grid(1.0, n_steps), seed,
        [(n_paths, lambda models, dec, seeds: qp_terminals(models.d, dec.total, dec.fv_part))],
    )
    return terms


def excursion_runs(rows, r=0):
    """(birth, first covered, last covered, sign) of each excursion of row r
    of an ``ExcursionRows``, read from its births, starts and coverage: an
    excursion covers the covered indices from its start up to the next
    start."""
    first = int(np.sum(rows.counts[:r]))
    births = rows.births[first:first + rows.counts[r]]
    starts = np.flatnonzero(rows.starts[r]).tolist()
    covered = rows.covered[r]
    runs = []
    for birth, lo, hi in zip(births.tolist(), starts, starts[1:] + [len(covered)]):
        idx = lo + np.flatnonzero(covered[lo:hi])
        runs.append((birth, int(idx[0]), int(idx[-1]), int(rows.sign[r, lo])))
    return runs

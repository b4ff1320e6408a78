"""Memory bounds of generation and export, measured with tracemalloc.

Levy-based generators fill the output array a row block at a time, so a
subordinated ensemble costs its own bytes plus a few block-sized
temporaries; the binary writer sends the value buffer to the file as is.
"""

import tracemalloc

import numpy as np
import pytest

from idtlab.io import read_binary, read_csv, write_binary, write_csv
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    GammaSubordinator,
    Subordinated,
    TimeGrid,
    generate,
)
from idtlab.randkit import RngState

GRID64 = TimeGrid(np.geomspace(0.0625, 4.0, 64))
SPEC = Subordinated(Brownian(1.0, 0.0), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7))
MB = 1 << 20


def _peak_beyond_start(fn):
    """``(result, peak bytes allocated by fn beyond what was live when it started)``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ensemble():
    generate(SPEC, GRID64, 10, RngState(3))  # first-call set-up stays out of the bound
    e, peak = _peak_beyond_start(lambda: generate(SPEC, GRID64, 50_000, RngState(3)))
    assert e.values.nbytes == 50_000 * 64 * 8
    return e, peak


def test_subordinated_generation_peaks_at_output_plus_blocks(ensemble):
    e, peak = ensemble
    assert peak <= e.values.nbytes + 4 * MB


def test_write_binary_adds_no_copy_of_the_values(ensemble, tmp_path):
    e, _ = ensemble
    path = tmp_path / "paths.bin"
    _, peak = _peak_beyond_start(lambda: write_binary(e, path))
    assert peak < MB
    assert path.stat().st_size > e.values.nbytes


def test_blocked_ensemble_round_trips_bit_exact(ensemble, tmp_path):
    e, _ = ensemble
    write_binary(e, tmp_path / "paths.bin")
    assert np.array_equal(read_binary(tmp_path / "paths.bin").values, e.values)
    head = e.with_values(e.values[:300])
    write_csv(head, tmp_path / "paths.csv")
    assert np.array_equal(read_csv(tmp_path / "paths.csv").values, head.values)

"""Memory bounds of generation, export and the tests, measured with tracemalloc.

Levy-based generators fill the output array a row block at a time, so a
subordinated ensemble, on an additive or a weighted subordinator clock,
costs its own bytes plus a few reused 256 KiB blocks (clock, scratch),
also when a helper thread draws the next clock block; ``idtlab export``
streams the same blocks through one reused buffer, so it holds a few
blocks and never the ensemble.  The bounds sit below what 1 MiB blocks
took (2.2-3.2 MiB beyond the output for ``generate``, 3.2-4.3 MiB for
``export``).  The binary writer sends the value buffer to the file as
is, the binary reader reads the payload straight into the value array,
and the CSV writer formats and writes a few thousand values at a time.

On the test path each array holds at most one ensemble's worth of data.
A Gaussian draw holds the normals and the output, the stationarity test
drops the drawn ensemble once its Lamperti copy is made, KS keeps one
sorted copy per sample and forms its CDFs in place, and a sum of
independent ensembles adds into one running total.  ``idtlab run`` runs
its tests one after another on the calling thread, so ``--threads``
adds no ECF block and no second test's ensembles.
"""

import tracemalloc

import numpy as np
import pytest

from idtlab.cli import main
from idtlab.io import read_binary, read_csv, write_binary, write_csv
from idtlab.kernels import FBmKernel
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    GammaSubordinator,
    GaussianKernel,
    Mixture,
    StableMotion,
    Subordinated,
    TimeGrid,
    generate,
    sample_blocks,
)
from idtlab.randkit import RngState
from idtlab.statlab import TEST_KINDS, ks_two_sample
from idtlab.transforms import sum_independent

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
    assert peak <= e.values.nbytes + 1.5 * MB

    def streamed():  # at two threads, block by block, as an export takes it
        _, blocks = sample_blocks(SPEC, GRID64, 50_000, RngState(3), 2)
        first, same = 0, []
        for block in blocks:
            same.append(np.array_equal(block, e.values[first : first + len(block)]))
            first += len(block)
        return first, same

    (rows, same), peak = _peak_beyond_start(streamed)
    assert peak <= 1.5 * MB
    assert rows == 50_000 and len(same) > 1 and all(same)


def test_mixture_block_holds_no_base_draw_at_its_yield():
    # a subordinated loop on a one-block mixture clock reads the clock while
    # the blend waits at its yield, so the base path that the blend drew at
    # the 8 merged points, twice the block's bytes here, must be gone by then
    spec = Mixture(AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7), ((1.0, 0.5), (3.0, 0.5)))
    grid = TimeGrid([0.5, 1.0, 2.0, 4.0])
    list(sample_blocks(spec, grid, 10, RngState(3))[1])  # first-call set-up stays out of the bound
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, blocks = sample_blocks(spec, grid, 50_000, RngState(3))
        block = next(blocks)
        held = tracemalloc.get_traced_memory()[0] - start
        blocks.close()
    finally:
        tracemalloc.stop()
    assert block.shape == (50_000, 4)
    assert held <= block.nbytes + 64 * 1024


def test_subordinated_gives_no_scratch_pair_to_a_family_that_reads_none():
    # a stable family over a gamma clock is drawn as one (N, m) block, so a
    # scratch pair would be 2*N*m floats: the peak was 42.7 MiB with it and is
    # 30.5 MiB without (the output is 6.1 MiB, the stable draws hold the rest)
    spec = Subordinated(StableMotion(1.5), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7))
    grid = TimeGrid([0.5, 1.0, 2.0, 4.0])
    generate(spec, grid, 10, RngState(3))  # first-call set-up stays out of the bound
    e, peak = _peak_beyond_start(lambda: generate(spec, grid, 200_000, RngState(3)))
    assert e.values.shape == (200_000, 4)
    assert peak <= 36 * MB


def test_write_binary_adds_no_copy_of_the_values(ensemble, tmp_path):
    e, _ = ensemble
    path = tmp_path / "paths.bin"
    _, peak = _peak_beyond_start(lambda: write_binary(e, path))
    assert peak < MB
    assert path.stat().st_size > e.values.nbytes


def test_read_binary_holds_one_copy_of_the_values(ensemble, tmp_path):
    e, _ = ensemble
    write_binary(e, tmp_path / "paths.bin")
    back, peak = _peak_beyond_start(lambda: read_binary(tmp_path / "paths.bin"))
    assert peak < e.values.nbytes + MB
    assert np.array_equal(back.values, e.values)


def test_write_csv_peaks_below_a_block_of_text(ensemble, tmp_path):
    e, _ = ensemble
    head = e.with_values(e.values[:4000])  # 2 MB of values, about 5 MB of text
    _, peak = _peak_beyond_start(lambda: write_csv(head, tmp_path / "paths.csv"))
    assert peak < MB
    assert (tmp_path / "paths.csv").stat().st_size > 2 * head.values.nbytes


EXPORT_CONF = """
seed = 3
n_paths = 50000
grid = {grid}
export.formats = {formats}
spec.kind = subordinated
spec.family.kind = brownian
spec.chrono.alpha = 0.7
spec.chrono.family.kind = gamma
spec.chrono.kind = {chrono}
"""
# the weighted clock adds dilations and weights to the additive clock's keys
WEIGHTED = "weighted_subordinator\nspec.chrono.dilations = 1 3\nspec.chrono.weights = 0.5 0.5"


@pytest.mark.parametrize(
    "formats, threads, chrono, bound",
    [
        ("csv bin", 1, "additive", 2 * MB),
        ("bin", 2, "additive", 2 * MB),
        ("bin", 1, WEIGHTED, 3 * MB),
        ("bin", 2, WEIGHTED, 3 * MB),
    ],
    ids=["csv bin-1", "bin-2", "weighted bin-1", "weighted bin-2"],
)
def test_streamed_export_holds_blocks_not_the_ensemble(tmp_path, formats, threads, chrono, bound):
    # 25.6 MB of values; at two threads the clock ring holds one more block.
    # The weighted clock draws its gamma path at the merged points of both
    # dilations, 2.1-2.5 MiB in all; drawn as one block of every path it
    # took 73 MiB
    conf = tmp_path / "export.conf"
    grid = " ".join(map(repr, GRID64.times.tolist()))
    conf.write_text(EXPORT_CONF.format(grid=grid, formats=formats, chrono=chrono))
    args = ["export", str(conf), "--out", str(tmp_path / "out"), "--threads", str(threads)]
    assert main(args + ["--paths", "100"]) == 0  # first-call set-up stays out of the bound
    code, peak = _peak_beyond_start(lambda: main(args))
    assert code == 0
    assert peak < bound
    back = read_binary(tmp_path / "out" / "paths.bin")
    assert back.values.shape == (50_000, 64)


def test_blocked_ensemble_round_trips_bit_exact(ensemble, tmp_path):
    e, _ = ensemble
    write_binary(e, tmp_path / "paths.bin")
    assert np.array_equal(read_binary(tmp_path / "paths.bin").values, e.values)
    head = e.with_values(e.values[:300])
    write_csv(head, tmp_path / "paths.csv")
    assert np.array_equal(read_csv(tmp_path / "paths.csv").values, head.values)


# ---------------------------------------------------------------------------
# the test path: fBm(0.3), the Gaussian alpha-IDT process of `idtlab run`
# ---------------------------------------------------------------------------

FBM = GaussianKernel(FBmKernel(0.3))
GRID3 = TimeGrid([0.5, 1.0, 2.0])
Y_GRID = [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]


@pytest.fixture(scope="module")
def warmed():
    """The stationarity kind and its params, run once at 100 paths so that the
    thread's ECF block and first-call set-up stay out of the bounds."""
    kind = TEST_KINDS["stationarity"]
    params = kind.fill({"y_grid": Y_GRID}, FBM)
    kind.run(FBM, params, 100, RngState(5), 1.0)
    return kind, params


@pytest.mark.parametrize("grid", [GRID3, TimeGrid([0.0, 0.5, 1.0, 2.0])], ids=["positive", "with_zero"])
def test_fbm_draw_holds_the_normals_and_the_output(warmed, grid):
    e, peak = _peak_beyond_start(lambda: generate(FBM, grid, 20_000, RngState(5)))
    # the product is written into the output; a separate product array took
    # a third ensemble on positive times, and 2.5 with a time 0
    assert peak <= 2 * e.values.nbytes + 64 * 1024


def test_stationarity_holds_two_ensembles(warmed):
    kind, params = warmed
    report, peak = _peak_beyond_start(lambda: kind.run(FBM, params, 20_000, RngState(5), 1.0))
    assert np.isfinite(report.statistic)
    # the draw's normals and output, then the output and its Lamperti copy;
    # keeping the drawn ensemble through the test took a third
    assert peak <= 2 * 20_000 * len(Y_GRID) * 8 + 256 * 1024


def test_ks_two_sample_holds_sorted_copies_and_ranks():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(20_000), rng.standard_normal(20_000)
    ks_two_sample(a[:10], b[:10])
    _, peak = _peak_beyond_start(lambda: ks_two_sample(a, b))
    # the sorted copies, the pooled values (later the CDF of a and the
    # difference), the ranks in b and either the ranks in a or the CDF of b
    # are 8 samples' worth; separate CDF, difference and absolute-value
    # arrays took 12
    assert peak <= 8 * a.nbytes + 256 * 1024


def test_sum_of_three_holds_the_total_and_one_part(warmed):
    e, peak = _peak_beyond_start(lambda: sum_independent(FBM, 3, GRID3, 20_000, RngState(5)))
    # the first part and its copy, then the total beside a Gaussian draw's
    # normals and output; keeping each part to the next draw and a fresh
    # total per addition took five
    assert peak <= 3 * e.values.nbytes + 64 * 1024


RUN_CONF = """
seed = 7
n_paths = 20000
grid = 0.5 1 2
export_csv = false
spec.kind = fbm
spec.hurst = 0.3
test.a.kind = idt
test.a.n = 2
test.a.threshold = 0.5
test.b.kind = idt
test.b.n = 3
test.b.threshold = 0.5
test.c.kind = idt
test.c.n = 2
test.c.mode = sum
test.c.threshold = 0.5
"""


def test_run_threads_add_no_traced_memory(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(RUN_CONF)
    args = ["run", str(conf), "--out", str(tmp_path / "out")]
    assert main(args + ["--paths", "100", "--threads", "1"]) in (0, 1)  # this thread's ECF block and first-call set-up
    peaks = {}
    for threads in ("1", "2"):
        code, peaks[threads] = _peak_beyond_start(lambda: main(args + ["--threads", threads]))
        assert code in (0, 1)
    # the tests run one after another on the calling thread at any --threads;
    # a pool of two held a second ECF block and a second test's ensembles
    # (4.9 MiB against 1.4 MiB)
    assert peaks["2"] <= peaks["1"] + 64 * 1024

"""Column-by-column row arithmetic against the numpy one-liners it replaces.

Tall, narrow matrices take the column loop, the others numpy's form;
both must give the same bytes.
"""

import re

import numpy as np
import pytest

from idtlab.kernels import FBmKernel
from idtlab.processes import (
    Brownian,
    ContractViolation,
    GaussianKernel,
    Mixture,
    PathEnsemble,
    PowerLine,
    StableLine,
    TimeGrid,
    _by_columns,
    _chronometer_increments,
    _cumsum_rows,
    generate,
    levy_increments,
)
from idtlab.randkit import RngState, StableParams, sample_normal, sample_stable
from idtlab.transforms import lamperti_apply

# column by column: more rows than columns, at most 4 columns; the rest
# take numpy's form
SHAPES = [(20000, 3), (20000, 4), (5, 4), (20000, 5), (4, 4), (2048, 64), (64, 64), (256, 512), (1, 3)]
IDS = [f"{n}x{m}" for n, m in SHAPES]


def _matrix(shape, seed):
    """Heavy-tailed values with signed zeros, infinities and a NaN mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-5, 6, shape)
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, min(flat.size, 5), replace=False)
    flat[picks] = [0.0, -0.0, np.inf, -np.inf, np.nan][: picks.size]
    return a


def _same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_cumsum_rows_is_numpy_cumsum(shape):
    a = _matrix(shape, 1)
    with np.errstate(invalid="ignore"):
        want = np.cumsum(a, axis=1)
        got = _cumsum_rows(a.copy())
    _same_bytes(got, want)


@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_outer_product_by_columns(shape):
    n, m = shape
    col = _matrix((n,), 2)
    row = _matrix((m,), 3)
    with np.errstate(invalid="ignore"):
        _same_bytes(_by_columns(np.multiply, col[:, None], row), col[:, None] * row[None, :])


@pytest.mark.parametrize("op", [np.multiply, np.divide, np.subtract, np.add])
@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_matrix_by_row_by_columns(shape, op):
    a = _matrix(shape, 4)
    row = _matrix((shape[1],), 5)
    with np.errstate(all="ignore"):
        want = op(a, row[None, :])
        _same_bytes(_by_columns(op, a, row), want)
        in_place = a.copy()
        _same_bytes(_by_columns(op, in_place, row, out=in_place), want)
        _same_bytes(in_place, want)


@pytest.mark.parametrize(
    "dt_shape, out_shape", [((3,), (20000, 3)), ((64,), (2048, 64)), ((20000, 3), (20000, 3)), ((), (10,))]
)
def test_brownian_increments_by_columns(dt_shape, out_shape):
    """A grid row of durations takes the column loop, a full block numpy's pass."""
    dt = np.abs(np.random.default_rng(7).standard_normal(dt_shape))
    dt.reshape(-1)[0] = 0.0
    family = Brownian(1.3, -0.4)
    got = levy_increments(family, dt, RngState(8), size=out_shape)
    want = sample_normal(RngState(8), out=np.empty(out_shape))
    want *= np.sqrt(dt) * 1.3
    want += -0.4 * dt
    _same_bytes(got, want)


@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_column_differences_by_columns(shape):
    a = _matrix(shape, 6)
    want = np.empty_like(a)
    got = np.empty_like(a)
    with np.errstate(invalid="ignore"):
        np.subtract(a[:, 1:], a[:, :-1], out=want[:, 1:])
        _by_columns(np.subtract, a[:, 1:], a[:, :-1], out=got[:, 1:])
    _same_bytes(got[:, 1:], want[:, 1:])


def _clock(shape, seed):
    """Nondecreasing rows from 0 up: the values of a valid chronometer."""
    steps = np.random.default_rng(seed).exponential(size=shape)
    steps[:, 0] = 0.0
    return np.cumsum(steps, axis=1)


@pytest.mark.parametrize("shape", SHAPES, ids=IDS)
def test_chronometer_increments_are_the_column_differences(shape):
    clock = _clock(shape, 7)
    want = np.concatenate([clock[:, :1], clock[:, 1:] - clock[:, :-1]], axis=1)
    _same_bytes(_chronometer_increments(clock), want)
    out = np.empty_like(clock)
    assert _chronometer_increments(clock, out, first=123) is out
    _same_bytes(out, want)


@pytest.mark.parametrize("shape", [s for s in SHAPES if s[0] > 1], ids=[i for s, i in zip(SHAPES, IDS) if s[0] > 1])
@pytest.mark.parametrize("first", [0, 40_000])
def test_chronometer_errors_name_the_global_path(shape, first):
    n, m = shape
    clock = _clock(shape, 8)
    # a NaN at row 0 must not hide a decrease at row n - 1 and, from the
    # second check on, a negative start at row 1
    clock[0, m - 1] = np.nan
    clock[n - 1, m - 1] = clock[n - 1, m - 2] - 1.0
    with pytest.raises(ContractViolation, match=f"^chronometer path {first + n - 1} is decreasing$"):
        _chronometer_increments(clock, first=first)
    clock[1, 0] = -1e-300
    message = f"chronometer path {first + 1} is negative at the first time"
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        _chronometer_increments(clock, first=first)


GRID = TimeGrid([0.5, 1.0, 2.0])
LINES = {
    # spec, the index of its stable draws, the time factors of its columns
    "stable_line": (StableLine(1.5), 1.5, GRID.times),
    "power_line": (PowerLine(0.7), 1.0, GRID.times**0.7),
}


@pytest.mark.parametrize("line", list(LINES))
@pytest.mark.parametrize("n_paths", [20000, 2])
def test_lines_are_the_outer_product(line, n_paths):
    spec, index, times = LINES[line]
    draws = sample_stable(RngState(9), StableParams(index, 0.0), n_paths)
    _same_bytes(generate(spec, GRID, n_paths, RngState(9)).values, draws[:, None] * times[None, :])


@pytest.mark.parametrize("n_paths", [20000, 3])
def test_lamperti_maps_are_the_broadcast_forms(n_paths):
    y = np.linspace(-1.0, 1.0, 5)
    values = _matrix((n_paths, 5), 10)
    ens = PathEnsemble(TimeGrid(np.exp(y)), values, spec=None, seed=10)
    factors = np.exp(-0.6 * y / 2.0)
    with np.errstate(invalid="ignore"):
        _same_bytes(lamperti_apply(ens, 0.6, y).values, values * factors[None, :])


@pytest.mark.parametrize("n_paths", [20000, 2])
def test_mixture_blend_is_the_einsum(n_paths):
    # negative weights on the exact zero of fBm at t = 0 give -0.0 for
    # every atom, and einsum's sum from +0.0 turns the total into +0.0
    base = GaussianKernel(FBmKernel(0.3))
    atoms = ((1.0, -0.5), (2.0, -0.25), (3.0, -1.0))
    grid = TimeGrid([0.0, 0.5, 1.0, 2.0])
    got = generate(Mixture(base, atoms), grid, n_paths, RngState(11)).values
    points = np.multiply.outer(np.array([u for u, _ in atoms]), grid.times)
    merged = np.unique(points)
    drawn = generate(base, TimeGrid(merged), n_paths, RngState(11).split(0)).values
    want = np.einsum("i,nij->nj", np.array([w for _, w in atoms]), drawn[:, np.searchsorted(merged, points)])
    _same_bytes(got, want)
    assert not np.any(np.signbit(got[:, 0]))

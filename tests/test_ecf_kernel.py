"""The product-form ECF kernel against the direct formula, and ECF invariants."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idtlab.kernels import FBmKernel
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    GammaSubordinator,
    GaussianKernel,
    PathEnsemble,
    StableLine,
    Subordinated,
    TimeGrid,
    generate,
)
from idtlab.randkit import RngState
from idtlab.statlab import (
    _ECF_BLOCK_ROWS,
    THETA_COMPONENTS,
    _ecf_vector,
    _phasor_block,
    calibrate,
    default_theta_groups,
    ecf,
    stationarity_test,
)
from idtlab.transforms import lamperti_apply

GRID = TimeGrid([0.5, 1.0, 2.0])
SPECS = {
    "stable_line(0.8)": StableLine(0.8),
    "stable_line(1.5)": StableLine(1.5),
    "fbm(0.3)": GaussianKernel(FBmKernel(0.3)),
    "subordinated": Subordinated(
        Brownian(1.0, 0.0), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    ),
}
SINGLE = default_theta_groups(1)[0][1]
PAIR = default_theta_groups(2)[2][1]


def direct_ecf(values, cols, thetas):
    """The direct formula: cos/sin of every phase, averaged over paths."""
    phases = values[:, list(cols)] @ np.asarray(thetas, dtype=np.float64).T
    return np.cos(phases).mean(axis=0) + 1j * np.sin(phases).mean(axis=0)


def direct_vector(values, cols):
    """The direct formula over ``default_theta_groups``, as one flat vector."""
    groups = default_theta_groups(len(cols))
    return np.concatenate([direct_ecf(values, [cols[c] for c in g], th) for g, th in groups])


@pytest.fixture(scope="module", params=list(SPECS))
def ensemble(request):
    # the dilated grid reaches far into the tails of the heavy-tailed lines
    return generate(SPECS[request.param], GRID.scale(3.0), 20000, RngState(31))


def test_product_kernel_matches_direct_formula(ensemble):
    got = _ecf_vector(ensemble.values, [0, 1, 2])
    ref = direct_vector(ensemble.values, [0, 1, 2])
    assert got.shape == ref.shape == (108,)
    assert np.abs(got - ref).max() <= 1e-12


def test_public_ecf_uses_the_same_kernel(ensemble):
    got = _ecf_vector(ensemble.values, [0, 1, 2])
    ref = [ecf(ensemble, cols, thetas) for cols, thetas in default_theta_groups(3)]
    assert np.array_equal(got, np.concatenate(ref))


@pytest.mark.parametrize("cols", [(1,), (2, 0), (1, 1), (2, 0, 1), (0, 2, 2)])
def test_ecf_vector_layout_is_default_theta_groups(cols):
    # singles, then pairs, of the columns in the order given; a repeated
    # column is compared with itself
    ens = generate(SPECS["stable_line(1.5)"], GRID, 3000, RngState(39))
    groups = default_theta_groups(len(cols))
    ref = [ecf(ens, [cols[c] for c in g], thetas) for g, thetas in groups]
    assert np.array_equal(_ecf_vector(ens.values, list(cols)), np.concatenate(ref))


def test_pair_rows_follow_signed_layout():
    comps = np.array(THETA_COMPONENTS)
    assert np.array_equal(PAIR[:, 0], np.repeat(comps, 8))
    assert np.array_equal(PAIR[:, 1], np.tile(np.concatenate([comps, -comps]), 4))


def test_custom_thetas_are_bit_identical_to_direct(ensemble):
    rng = np.random.default_rng(5)
    groups = [
        ((0,), rng.normal(size=(5, 1))),
        ((1, 2), rng.normal(size=(7, 2))),
        ((0, 1, 2), rng.normal(size=(9, 3))),
        ((0, 2), PAIR[:16]),
    ]
    for cols, thetas in groups:
        value = ecf(ensemble, cols, thetas)
        assert np.array_equal(value, direct_ecf(ensemble.values, cols, thetas))


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("shift", [0, 1, 2])
def test_stationarity_windows_match_direct_evaluation(window, shift):
    y = np.linspace(-1.0, 1.0, 5)
    ens = generate(GaussianKernel(FBmKernel(0.3)), TimeGrid(np.exp(y)), 5000, RngState(32))
    lam = lamperti_apply(ens, 0.6, y)
    idx_b = [i + shift for i in range(window)]
    ref = direct_vector(lam.values, idx_b)
    assert np.abs(_ecf_vector(lam.values, idx_b) - ref).max() <= 1e-12
    expected = np.abs(direct_vector(lam.values, list(range(window))) - ref).max()
    statistic = stationarity_test(lam, window, shift, threshold=1.0).statistic
    assert statistic == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# the half-angle phasors against libm cos and sin
# ---------------------------------------------------------------------------


def _base_phasors(x):
    """``cos`` and ``sin`` of ``0.25 * x`` as ``_phasor_block`` computes them."""
    w = np.empty((1, 8, x.size))
    _phasor_block(x.reshape(-1, 1), [0], w)
    return w[0, 0], w[0, 4]


def test_half_angle_phasors_match_cos_and_sin():
    rng = np.random.default_rng(38)
    n = 200_000
    # 0.125 * x lands on the poles of tan, pi/2 + k*pi, as near as doubles go
    poles = 8.0 * (np.pi / 2 + np.pi * np.arange(-20_000, 20_000))
    x = np.concatenate([
        rng.standard_cauchy(n),
        rng.standard_cauchy(n) * 1e6,
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n),
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.finfo(float).max],
        poles, np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf),
    ])
    cos, sin = _base_phasors(x)
    assert np.abs(cos - np.cos(0.25 * x)).max() <= 4.5e-16
    assert np.abs(sin - np.sin(0.25 * x)).max() <= 4.5e-16
    # the zeros keep their sign, as np.sin does
    assert np.array_equal(np.signbit(sin[n * 3 : n * 3 + 2]), [False, True])
    assert np.all(cos[n * 3 : n * 3 + 2] == 1.0)


def test_half_angle_phasors_of_non_finite_values_are_nan():
    cos, sin = _base_phasors(np.array([np.nan, np.inf, -np.inf, 1.0]))
    assert np.all(np.isnan(cos[:3])) and np.all(np.isnan(sin[:3]))
    assert np.isfinite(cos[3]) and np.isfinite(sin[3])


# ---------------------------------------------------------------------------
# the per-thread phasor block
# ---------------------------------------------------------------------------

R = _ECF_BLOCK_ROWS


def test_default_grid_call_peak_does_not_grow_with_paths():
    values = generate(SPECS["fbm(0.3)"], GRID, 200_000, RngState(35)).values
    _ecf_vector(values[:R], [0, 1, 2])  # warm-up on one block
    tracemalloc.start()
    try:
        _ecf_vector(values, [0, 1, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a workspace of 8 complex phasors per path would be 77 MB here
    assert peak < 2_000_000


def test_default_grid_call_allocates_no_phasor_blocks_after_warm_up(ensemble):
    _ecf_vector(ensemble.values, [0, 1, 2])
    tracemalloc.start()
    try:
        _ecf_vector(ensemble.values, [0, 1, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one fresh three-column phasor block is 1.5 MiB
    assert peak < 1_000_000


def test_results_do_not_alias_the_workspace(ensemble):
    first = _ecf_vector(ensemble.values, [0, 1, 2])
    kept = first.copy()
    _ecf_vector(ensemble.values[:, ::-1] * 0.5, [0, 1, 2])
    assert np.array_equal(first, kept)


def test_workspace_serves_smaller_and_larger_calls():
    # every side of a block boundary, R rows to a block
    for n in (3000, 1, R - 1, R, R + 1, 3 * R + 7, 20000, 500):
        values = generate(SPECS["fbm(0.3)"], GRID, n, RngState(n)).values
        got = _ecf_vector(values, [0, 1, 2])
        assert np.abs(got - direct_vector(values, [0, 1, 2])).max() <= 1e-12


def test_concurrent_threads_get_their_own_workspace():
    inputs = [
        generate(SPECS[label], GRID, 2000, RngState(40 + i)).values
        for i, label in enumerate(SPECS)
    ]
    expected = [_ecf_vector(v, [0, 1, 2]) for v in inputs]
    mismatches = []

    def work(i):
        for _ in range(20):
            if not np.array_equal(_ecf_vector(inputs[i], [0, 1, 2]), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_calibrate_is_the_same_at_one_and_two_threads():
    def threshold(threads):
        return calibrate(
            SPECS["stable_line(1.5)"], "idt", 100, 0.99, RngState(34), 2000,
            threads=threads, n=2, grid=[0.5, 1.0, 2.0], times=[0.5, 1.0, 2.0],
        )

    assert threshold(1) == threshold(2)


def test_calibrate_over_several_blocks_is_the_same_at_one_and_two_threads():
    def threshold(threads):
        return calibrate(
            SPECS["stable_line(1.5)"], "idt", 12, 0.9, RngState(36), 2 * R + 100,
            threads=threads, n=2, grid=[0.5, 1.0, 2.0], times=[0.5, 1.0, 2.0],
        )

    assert threshold(1) == threshold(2)


# ---------------------------------------------------------------------------
# invariants through the public ecf()
# ---------------------------------------------------------------------------

ensembles = st.builds(
    lambda label, seed, n: generate(SPECS[label], GRID, n, RngState(seed)),
    st.sampled_from(list(SPECS)),
    st.integers(0, 2**31),
    st.integers(1, 400),
)
time_subsets = st.sampled_from([(0,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)])


def _thetas(m):
    return st.lists(
        st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m), min_size=1, max_size=6
    ).map(np.array)


@settings(max_examples=40, deadline=None)
@given(ensembles, time_subsets, st.data())
def test_ecf_invariants(ens, cols, data):
    thetas = data.draw(_thetas(len(cols)))
    value = ecf(ens, cols, thetas)
    assert np.all(np.abs(value) <= 1.0 + 1e-12)
    assert np.array_equal(value, direct_ecf(ens.values, cols, thetas))
    assert np.array_equal(ecf(ens, cols, -thetas), np.conj(value))
    zero = ecf(ens, cols, np.zeros((1, len(cols))))
    assert zero[0] == 1.0 + 0.0j


@settings(max_examples=25, deadline=None)
@given(ensembles, st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]))
@example(generate(StableLine(0.8), GRID, 191, RngState(905)), (0, 1))  # values up to 1.5e7, 4.87e-12 apart
def test_default_grid_invariants(ens, cols):
    thetas = SINGLE if len(cols) == 1 else PAIR
    value = ecf(ens, cols, thetas)
    assert np.all(np.abs(value) <= 1.0 + 1e-12)
    # the direct kernel rounds each phase theta.x by about eps*sum|theta_i*x_i|, which heavy tails make
    # large; the product kernel's error does not grow with |x|, so unit-scale values keep about 1e-12
    phase_size = (np.abs(ens.values[:, list(cols)]) @ np.abs(thetas).T).mean(axis=0)
    bound = 1e-12 + 4 * np.finfo(np.float64).eps * phase_size
    assert np.all(np.abs(value - direct_ecf(ens.values, cols, thetas)) <= bound)
    # -thetas is not the default grid, so this also crosses the two kernels
    assert np.all(np.abs(ecf(ens, cols, -thetas) - np.conj(value)) <= bound)


# ---------------------------------------------------------------------------
# non-finite values never pass
# ---------------------------------------------------------------------------


def _ensemble_with_non_finite_column(col, bad=np.nan):
    grid = TimeGrid([1.0, 2.0, 3.0, 4.0])
    values = generate(GaussianKernel(FBmKernel(0.3)), grid, 500, RngState(33)).values.copy()
    values[7, col] = bad
    return PathEnsemble(grid, values, spec=None, seed=33)


def test_nan_in_a_later_group_fails_the_test():
    # the first group compares columns 0 and 1, both finite; the second
    # compares column 1 with column 2, which holds the NaN
    report = stationarity_test(_ensemble_with_non_finite_column(2), 2, 1, threshold=10.0)
    assert np.isnan(report.statistic)
    assert report.passed is False


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_the_last_block_fails_the_test(bad):
    grid = TimeGrid([1.0, 2.0, 3.0])
    values = generate(GaussianKernel(FBmKernel(0.3)), grid, 2 * R + 5, RngState(37)).values.copy()
    values[-1, 2] = bad
    ens = PathEnsemble(grid, values, spec=None, seed=37)
    report = stationarity_test(ens, 2, 1, threshold=10.0)
    assert np.isnan(report.statistic)
    assert report.passed is False


# the default single and pair grids take the product kernel, other frequencies the direct one
THETAS = [SINGLE, np.array([[0.3], [1.7]]), np.array([[0.0], [1.7]]), PAIR, np.array([[0.3, -1.1]])]


@pytest.mark.parametrize("thetas", THETAS)
def test_ecf_rejects_non_finite_values(thetas):
    width = thetas.shape[1]
    for bad in (np.nan, np.inf, -np.inf):
        ens = _ensemble_with_non_finite_column(2, bad)
        with pytest.raises(ValueError, match="ECF values must be finite"):
            ecf(ens, [2, 1][:width], thetas)
        # the same frequencies on the finite columns pass
        assert np.all(np.isfinite(ecf(ens, [0, 1][:width], thetas)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise_no_numpy_warning(bad):
    """Both kernels keep numpy's invalid-value warning to themselves: ``ecf``
    raises its own error and a distance test reports NaN, with nothing on stderr."""
    ens = _ensemble_with_non_finite_column(2, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for thetas in THETAS:
            with pytest.raises(ValueError, match="ECF values must be finite"):
                ecf(ens, [2, 1][: thetas.shape[1]], thetas)
        report = stationarity_test(ens, 2, 1, threshold=10.0)
    assert np.isnan(report.statistic)
    assert report.passed is False

import math

import numpy as np
import pytest

from idtlab.kernels import FBmKernel, lamperti_cov
from idtlab.processes import ContractViolation, GaussianKernel, StableLine, TimeGrid, generate
from idtlab.randkit import RngState
from idtlab.statlab import ks_one_sample
from idtlab.transforms import lamperti_apply, scale_paths, sum_independent


def ecf_noise_bound(n, k_points, delta=1e-6):
    """Hoeffding-style uniform bound on the ECF estimation error.

    P(max over k_points of |ecf_hat - ecf| > eps) <= delta for
    eps = sqrt(4 * ln(4 * k_points / delta) / n).
    """
    return math.sqrt(4.0 * math.log(4.0 * k_points / delta) / n)


def _fbm_on_exp_grid(y, n_paths, rng):
    grid = TimeGrid(np.exp(y))
    return generate(GaussianKernel(FBmKernel(0.3)), grid, n_paths, rng)


# ---------------------------------------------------------------------------
# lamperti_apply
# ---------------------------------------------------------------------------


def test_lamperti_alpha_zero_only_relabels():
    y = np.linspace(-1.0, 1.0, 5)
    e = _fbm_on_exp_grid(y, 50, RngState(1))
    out = lamperti_apply(e, 0.0, y)
    assert np.array_equal(out.values, e.values)
    assert np.array_equal(out.grid.times, y)


def test_lamperti_single_origin_point_unchanged():
    e = _fbm_on_exp_grid(np.array([0.0]), 50, RngState(2))
    out = lamperti_apply(e, 0.6, [0.0])
    assert np.array_equal(out.values, e.values)


def test_lamperti_grid_mismatch_is_contract_error():
    y = np.linspace(-1.0, 1.0, 5)
    e = _fbm_on_exp_grid(y, 10, RngState(3))
    with pytest.raises(ContractViolation):
        lamperti_apply(e, 0.6, y + 0.1)
    with pytest.raises(ContractViolation):
        lamperti_apply(e, 0.6, y[:-1])


def test_lamperti_output_covariance_matches_closed_form():
    hurst = 0.3
    y = np.linspace(-1.0, 1.0, 5)  # uniform spacing 0.5
    n = 4 * 10**4
    e = _fbm_on_exp_grid(y, n, RngState(4))
    out = lamperti_apply(e, 2 * hurst, y)
    emp = out.values.T @ out.values / n
    for lag in (1, 2, 3):
        d = y[lag] - y[0]
        expected = math.cosh(hurst * d) - 0.5 * (2.0 * math.sinh(abs(d) / 2.0)) ** (2 * hurst)
        assert lamperti_cov(FBmKernel(hurst), 2 * hurst, d, 0.0) == pytest.approx(expected, abs=1e-12)
        observed = np.mean([emp[i, i + lag] for i in range(len(y) - lag)])
        assert observed == pytest.approx(expected, abs=5.0 / math.sqrt(n))


# ---------------------------------------------------------------------------
# scale_paths
# ---------------------------------------------------------------------------


def test_scale_paths_trivial_cases():
    e = generate(StableLine(1.0), TimeGrid([0.5, 1.0]), 50, RngState(7))
    assert np.array_equal(scale_paths(e, 1.0).values, e.values)
    assert np.all(scale_paths(e, 0.0).values == 0.0)
    twice = scale_paths(scale_paths(e, -1.0), -1.0)
    assert np.array_equal(twice.values, e.values)


def test_dilate_and_scale_match_fresh_fbm_in_law():
    # X(a t) scaled by a**(-alpha/2) has the law of X; the ECFs compare
    # columns, so the dilated grid needs no relabelling
    hurst, a = 0.3, 2.0
    grid = TimeGrid([0.5, 1.0, 2.0])
    spec = GaussianKernel(FBmKernel(hurst))
    n = 2 * 10**4
    dilated = generate(spec, grid.scale(a), n, RngState(9).split(0))
    matched = scale_paths(dilated, a ** (-hurst))
    fresh = generate(spec, grid, n, RngState(9).split(1))
    from idtlab.statlab import _ecf_vector

    got = _ecf_vector(matched.values, [0, 1, 2])
    ref = _ecf_vector(fresh.values, [0, 1, 2])
    bound = 2.0 * ecf_noise_bound(n, got.size)
    assert np.abs(got - ref).max() < bound


# ---------------------------------------------------------------------------
# sum_independent
# ---------------------------------------------------------------------------


def test_sum_single_copy_matches_generate():
    grid = TimeGrid([0.5, 1.0])
    rng = RngState(10)
    total = sum_independent(StableLine(1.5), 1, grid, 100, rng)
    direct = generate(StableLine(1.5), grid, 100, rng.split(0))
    assert np.array_equal(total.values, direct.values)


def test_sum_of_cauchy_lines_is_scaled_cauchy():
    grid = TimeGrid([1.0])
    total = sum_independent(StableLine(1.0), 2, grid, 10**4, RngState(11))
    _, p = ks_one_sample(total.values[:, 0], lambda v: 0.5 + np.arctan(v / 2.0) / np.pi)
    assert p > 0.01


def test_sum_variance_additivity_for_gaussian():
    grid = TimeGrid([1.0, 2.0])
    spec = GaussianKernel(FBmKernel(0.4))
    one = generate(spec, grid, 2 * 10**4, RngState(12).split(0))
    three = sum_independent(spec, 3, grid, 2 * 10**4, RngState(12).split(1))
    for j in range(2):
        ratio = three.values[:, j].var() / one.values[:, j].var()
        assert ratio == pytest.approx(3.0, rel=0.1)


def test_sum_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        sum_independent(StableLine(1.0), 0, TimeGrid([1.0]), 10, RngState(13))

import math

import numpy as np
import pytest

from idtlab.kernels import (
    FBmKernel,
    SpectralKernel,
    SpectralMeasure,
    check_scaling,
    cov_matrix,
    fbm_cov,
    lamperti_cov,
    psd_check,
    spectral_cov,
)


def _random_symmetric_measure(rng, max_pairs=7):
    n = int(rng.integers(1, max_pairs + 1))
    locs = rng.uniform(0.2, 3.0, n)
    wts = rng.uniform(0.1, 1.0, n) / n
    return SpectralMeasure.symmetric(tuple(zip(locs, wts)))


# ---------------------------------------------------------------------------
# fbm_cov
# ---------------------------------------------------------------------------


def test_fbm_cov_h_half_is_min():
    for s, t in [(1.0, 2.0), (0.25, 4.0), (3.0, 3.0), (0.0, 5.0)]:
        assert fbm_cov(0.5, s, t) == min(s, t)


def test_fbm_cov_diagonal_is_one_at_t1():
    for h in (0.2, 0.5, 0.8):
        assert fbm_cov(h, 1.0, 1.0) == 1.0


def test_fbm_cov_direct_value():
    # (|2|^0.6 + 1 - 1) / 2 evaluated independently
    expected = 0.5 * 2.0**0.6
    assert math.isclose(expected, 0.757858283255199, rel_tol=1e-12)
    assert math.isclose(fbm_cov(0.3, 1.0, 2.0), expected, rel_tol=1e-14)


def test_fbm_cov_domain():
    with pytest.raises(ValueError):
        fbm_cov(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        fbm_cov(1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# spectral_cov
# ---------------------------------------------------------------------------


def test_spectral_cov_atom_at_origin_is_rank_one():
    mu = SpectralMeasure(((0.0, 1.0),))
    assert spectral_cov(2.0, mu, 2.0, 3.0) == pytest.approx(6.0, rel=1e-14)


def test_spectral_cov_equal_times_gives_total_mass():
    mu = SpectralMeasure.symmetric(((1.0, 0.4), (2.5, 0.6)))
    for alpha in (0.6, 1.0, 2.0):
        assert spectral_cov(alpha, mu, 1.0, 1.0) == pytest.approx(mu.total_mass, rel=1e-14)


def test_spectral_cov_direct_value():
    # sqrt(e) * cos(1), from one symmetric atom pair at +-1 with weight 1/2 each
    mu = SpectralMeasure(((1.0, 0.5), (-1.0, 0.5)))
    expected = math.sqrt(math.e) * math.cos(1.0)
    assert math.isclose(expected, 0.8908079042931287, rel_tol=1e-12)
    assert spectral_cov(1.0, mu, 1.0, math.e) == pytest.approx(expected, rel=1e-12)


def test_spectral_cov_zero_time_convention_and_domain():
    mu = SpectralMeasure(((0.0, 1.0),))
    assert spectral_cov(1.0, mu, 0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        spectral_cov(1.0, mu, -1.0, 2.0)


def test_spectral_measure_validation():
    with pytest.raises(ValueError):
        SpectralMeasure(((1.0, 0.5),))  # missing mirror atom
    with pytest.raises(ValueError):
        SpectralMeasure(((1.0, -0.5), (-1.0, -0.5)))
    with pytest.raises(ValueError):
        SpectralMeasure(())


# ---------------------------------------------------------------------------
# cov_matrix / psd_check
# ---------------------------------------------------------------------------


def test_cov_matrix_brownian_case():
    m = cov_matrix(FBmKernel(0.5), [1.0, 2.0, 3.0])
    assert np.array_equal(m, [[1, 1, 1], [1, 2, 2], [1, 2, 3]])


def test_cov_matrix_single_point():
    m = cov_matrix(FBmKernel(0.3), [1.0])
    assert m.shape == (1, 1)
    assert m[0, 0] == 1.0


def test_cov_matrix_off_diagonal():
    m = cov_matrix(FBmKernel(0.3), [1.0, 2.0])
    assert m[0, 1] == pytest.approx(0.5 * 2.0**0.6, rel=1e-14)
    assert m[0, 1] == m[1, 0]


def test_psd_check_identity_and_rank_one():
    assert psd_check(np.eye(3)) == pytest.approx(1.0)
    assert psd_check(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(0.0, abs=1e-12)


def test_psd_check_fbm_is_psd():
    m = cov_matrix(FBmKernel(0.7), [0.5, 1.0, 2.0, 4.0])
    assert psd_check(m) >= -1e-10


def test_psd_check_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_check(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        psd_check(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# check_scaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
def test_fbm_scaling_at_2h(hurst, a):
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    report = check_scaling(FBmKernel(hurst), 2.0 * hurst, a, grid, tol=1e-10)
    assert report.passed, report.statistic


def test_spectral_scaling_at_alpha():
    rng = np.random.Generator(np.random.Philox(key=2024))
    grid = np.geomspace(0.25, 4.0, 12)
    for alpha in (0.6, 1.0, 2.0):
        mu = _random_symmetric_measure(rng)
        report = check_scaling(SpectralKernel(alpha, mu), alpha, 2.0, grid, tol=1e-10)
        assert report.passed, report.statistic


def test_scaling_negative_control():
    report = check_scaling(FBmKernel(0.3), 1.0, 2.0, [0.25, 0.5, 1.0, 2.0, 4.0], tol=1e-3)
    assert not report.passed
    assert report.statistic > 1e-3


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
def test_scaling_tolerance_must_be_finite_and_positive(tol):
    # an infinite tolerance would pass the negative control above
    with pytest.raises(ValueError, match=f"^field 'tol': expected a finite number > 0, got {tol}$"):
        check_scaling(FBmKernel(0.3), 1.0, 2.0, [0.25, 0.5, 1.0, 2.0, 4.0], tol=tol)


# ---------------------------------------------------------------------------
# lamperti_cov
# ---------------------------------------------------------------------------


def test_lamperti_diagonal_normalizes_to_one():
    for h in (0.2, 0.5, 0.8):
        for y in (-1.0, 0.0, 2.0):
            assert lamperti_cov(FBmKernel(h), 2.0 * h, y, y) == pytest.approx(1.0, rel=1e-12)


def test_lamperti_fbm_closed_form():
    h = 0.3
    for d in (-2.0, -0.5, 0.3, 1.7):
        expected = math.cosh(h * d) - 0.5 * (2.0 * math.sinh(abs(d) / 2.0)) ** (2.0 * h)
        got = lamperti_cov(FBmKernel(h), 2.0 * h, d, 0.0)
        assert got == pytest.approx(expected, abs=1e-12)


def test_lamperti_shift_invariance():
    k = FBmKernel(0.3)
    ys = np.linspace(-1.0, 1.0, 5)
    for shift in (-0.7, 0.4, 1.3):
        a = lamperti_cov(k, 0.6, ys[:, None] + shift, ys[None, :] + shift)
        b = lamperti_cov(k, 0.6, ys[:, None], ys[None, :])
        assert np.abs(a - b).max() <= 1e-12


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------


def test_invariant_spectral_scaling_exact():
    rng = np.random.Generator(np.random.Philox(key=7))
    grid = np.geomspace(0.3, 5.0, 9)
    for _ in range(5):
        alpha = float(rng.uniform(0.4, 2.0))
        kernel = SpectralKernel(alpha, _random_symmetric_measure(rng))
        for a in (0.5, 2.0, 3.0):
            assert check_scaling(kernel, alpha, a, grid, tol=1e-10).passed


def test_invariant_lamperti_stationary_for_scaling_kernels():
    rng = np.random.Generator(np.random.Philox(key=8))
    kernels = [FBmKernel(0.2), FBmKernel(0.5), FBmKernel(0.8)]
    kernels += [SpectralKernel(1.0, _random_symmetric_measure(rng))]
    ys = np.linspace(-1.5, 1.5, 7)
    hs = (-0.8, 0.5, 1.1)
    for k in kernels:
        alpha = k.idt_exponent
        base = lamperti_cov(k, alpha, ys[:, None], ys[None, :])
        for hshift in hs:
            shifted = lamperti_cov(k, alpha, ys[:, None] + hshift, ys[None, :] + hshift)
            assert np.abs(shifted - base).max() <= 1e-10


def test_invariant_psd_across_kernels():
    rng = np.random.Generator(np.random.Philox(key=9))
    grid = np.geomspace(0.25, 6.0, 16)
    for h in (0.2, 0.5, 0.8):
        assert psd_check(cov_matrix(FBmKernel(h), grid)) >= -1e-8
    for alpha in (0.6, 1.3, 2.0):
        mu = _random_symmetric_measure(rng, max_pairs=7)
        assert psd_check(cov_matrix(SpectralKernel(alpha, mu), grid)) >= -1e-8

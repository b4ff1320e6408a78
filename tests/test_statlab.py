import math
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from idtlab import statlab
from idtlab.kernels import FBmKernel, check_scaling, fbm_cov
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    GammaSubordinator,
    GaussianKernel,
    PathEnsemble,
    StableLine,
    StableMotion,
    TimeGrid,
    generate,
)
from idtlab.randkit import RngState, sample_normal
from idtlab.statlab import (
    association_test,
    calibrate,
    ecf,
    idt_test,
    ks_one_sample,
    ks_two_sample,
    selfsimilarity_test,
    stability_test,
    stationarity_test,
    temporal_sd_test,
)
from idtlab.transforms import lamperti_apply, scale_paths

GRID = TimeGrid([0.5, 1.0, 2.0])
TIMES = [0.5, 1.0, 2.0]
N_SMALL = 4000
FBM = GaussianKernel(FBmKernel(0.3))


@pytest.fixture(scope="module")
def mini_thresholds():
    """Small-scale calibrated thresholds shared across this module."""
    reps, q = 60, 0.95
    out = {}
    out["idt_stable1_n2"] = calibrate(
        StableLine(1.0), "idt", reps, q, RngState(70001), N_SMALL, n=2, grid=GRID, times=TIMES
    )
    out["idt_fbm_n2"] = calibrate(
        FBM, "idt", reps, q, RngState(70002), N_SMALL, n=2, grid=GRID, times=TIMES
    )
    out["selfsim_stable"] = calibrate(
        StableLine(1.5), "selfsimilarity", reps, q, RngState(70003), N_SMALL,
        h=1.0, a=2.0, grid=GRID, times=TIMES,
    )
    out["stability_fbm"] = calibrate(
        FBM, "stability", reps, q, RngState(70004), N_SMALL, beta=2.0, n=2, grid=GRID, times=TIMES
    )
    out["tsd_fbm"] = calibrate(
        FBM, "temporal_sd", reps, q, RngState(70005), N_SMALL, b=0.5, grid=GRID, times=TIMES
    )
    out["stationarity_fbm"] = calibrate(
        FBM, "stationarity", reps, q, RngState(70006), N_SMALL,
        y_grid=[-0.5, 0.0, 0.5, 1.0], window=2, shift=1,
    )
    return out


# ---------------------------------------------------------------------------
# ecf
# ---------------------------------------------------------------------------


def test_ecf_zero_frequency_is_exactly_one():
    e = generate(StableLine(1.5), GRID, 500, RngState(1))
    ev = ecf(e, [0, 1], np.array([[0.0, 0.0]]))
    assert ev[0] == 1.0 + 0.0j


def test_ecf_conjugate_symmetry_is_exact():
    e = generate(StableLine(1.5), GRID, 500, RngState(2))
    thetas = np.array([[0.7, -0.3], [1.2, 0.4]])
    plus = ecf(e, [0, 2], thetas)
    minus = ecf(e, [0, 2], -thetas)
    assert np.array_equal(minus, np.conj(plus))


def test_ecf_cauchy_line_matches_analytic_cf():
    n = 10**4
    e = generate(StableLine(1.0), GRID, n, RngState(3))
    thetas = np.array([[0.25], [0.5], [1.0], [2.0]])
    ev = ecf(e, [1], thetas)  # t = 1: CF is exp(-|theta|)
    expected = np.exp(-np.abs(thetas[:, 0]))
    assert np.abs(ev - expected).max() <= 3.0 / math.sqrt(n)


def test_ecf_modulus_bounded_by_one():
    e = generate(AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7), GRID, 2000, RngState(4))
    groups = np.array([[2.0, -1.5, 0.3]])
    ev = ecf(e, [0, 1, 2], groups)
    assert np.all(np.abs(ev) <= 1.0 + 1e-12)


def test_ecf_domain_errors():
    e = generate(StableLine(1.0), GRID, 100, RngState(5))
    with pytest.raises(ValueError):
        ecf(e, [0, 1], np.empty((0, 2)))
    with pytest.raises(ValueError):
        ecf(e, [], np.array([[1.0]]))
    with pytest.raises(ValueError):
        ecf(e, [0, 1], np.array([[1.0, 2.0, 3.0]]))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def test_ks_identical_samples():
    x = list(np.linspace(-1, 1, 100))
    d, p = ks_two_sample(x, x)
    assert d == 0.0
    assert p == 1.0


def test_ks_null_and_power():
    rng = RngState(6)
    a = sample_normal(rng.split(0), 10**4)
    b = sample_normal(rng.split(1), 10**4)
    _, p = ks_two_sample(a, b)
    assert p > 0.01
    _, p_shift = ks_two_sample(a, b + 1.0)
    assert p_shift < 1e-6


def test_ks_matches_scipy_oracle():
    rng = RngState(7)
    a = sample_normal(rng.split(0), 3000)
    b = 1.1 * sample_normal(rng.split(1), 2000)
    d, p = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    # classical asymptotic p-value: scipy's limiting distribution is an
    # independent implementation of the same series
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    assert p == pytest.approx(scipy.stats.kstwobign.sf(en * d), rel=1e-10)
    # scipy's ks_2samp adds a finite-sample correction; stay close to it
    assert p == pytest.approx(ref.pvalue, abs=0.01)


def test_ks_one_sample_against_scipy():
    x = sample_normal(RngState(8), 5000)
    from scipy.special import ndtr

    d, p = ks_one_sample(x, ndtr)
    ref = scipy.stats.kstest(x, "norm", mode="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(scipy.stats.kstwobign.sf(math.sqrt(x.size) * d), rel=1e-10)
    assert p == pytest.approx(ref.pvalue, abs=0.01)


def test_ks_null_calibration_rate():
    # under identical laws the asymptotic p-value is below 0.01 rarely
    n, hits = 500, 0
    for rep in range(n):
        rng = RngState(9).split(rep)
        a = sample_normal(rng.split(0), 5000)
        b = sample_normal(rng.split(1), 5000)
        _, p = ks_two_sample(a, b)
        hits += p >= 0.01
    assert hits >= 0.98 * n


def test_ks_leaves_scipy_unimported():
    """``_kolmogorov_sf`` stands in for scipy, whose import would slow every command."""
    code = (
        "import sys, idtlab\n"
        "from idtlab import AdditiveTimeChange, Brownian, RngState, association_test\n"
        "association_test(AdditiveTimeChange(Brownian(1.0, 0.0), 0.5), Brownian(1.0, 0.0), 0.5,"
        " [0.5, 1.0], 200, RngState(1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_ks_empty_input():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def _ks_two_sample_reference(a, b):
    """The textbook two-sample statistic: both CDFs over the pooled values."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
def test_ks_in_place_statistic_is_bit_identical_to_the_reference(tied):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((3000, 3))
    if tied:
        m = np.round(m * 4.0)
    # strided columns, as association_test passes them
    a, b = m[:, 0], 1.1 * m[:2000, 2]
    d, p = ks_two_sample(a, b)
    assert d == _ks_two_sample_reference(a, b)
    assert p == statlab._kolmogorov_sf(math.sqrt(a.size * b.size / (a.size + b.size)) * d)


def _no_series(x):
    raise AssertionError("the Kolmogorov series ran on a non-finite sample")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
def test_ks_two_sample_non_finite_value_gives_nan(monkeypatch, bad, side):
    rng = RngState(7)
    samples = [sample_normal(rng.split(0), 2000), sample_normal(rng.split(1), 2000)]
    samples[side][1000] = bad
    monkeypatch.setattr(statlab, "_kolmogorov_sf", _no_series)
    d, p = ks_two_sample(*samples)
    assert math.isnan(d) and math.isnan(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_ks_one_sample_non_finite_value_gives_nan(monkeypatch, bad):
    from scipy.special import ndtr

    x = sample_normal(RngState(8), 2000)
    x[1000] = bad
    monkeypatch.setattr(statlab, "_kolmogorov_sf", _no_series)
    d, p = ks_one_sample(x, ndtr)
    assert math.isnan(d) and math.isnan(p)


# ---------------------------------------------------------------------------
# idt_test
# ---------------------------------------------------------------------------


def test_idt_test_rejects_small_n():
    with pytest.raises(ValueError):
        idt_test(StableLine(1.0), 1.0, 1, GRID, TIMES, 100, RngState(1), 1.0)


def test_idt_stable_line_population_zero(mini_thresholds):
    report = idt_test(
        StableLine(1.0), 1.0, 2, GRID, TIMES, N_SMALL, RngState(10), mini_thresholds["idt_stable1_n2"]
    )
    assert report.passed, report.statistic


def test_idt_fbm_passes_at_its_exponent(mini_thresholds):
    report = idt_test(FBM, 0.6, 2, GRID, TIMES, N_SMALL, RngState(11), mini_thresholds["idt_fbm_n2"])
    assert report.passed, report.statistic


def test_idt_fbm_fails_at_wrong_exponent(mini_thresholds):
    report = idt_test(FBM, 1.0, 2, GRID, TIMES, N_SMALL, RngState(12), mini_thresholds["idt_fbm_n2"])
    assert not report.passed
    assert report.statistic > 2.0 * mini_thresholds["idt_fbm_n2"]


def test_idt_power_and_sum_modes_agree(mini_thresholds):
    thr = mini_thresholds["idt_fbm_n2"]
    power = idt_test(FBM, 0.6, 2, GRID, TIMES, N_SMALL, RngState(13), thr, mode="power")
    summed = idt_test(FBM, 0.6, 2, GRID, TIMES, N_SMALL, RngState(13), thr, mode="sum")
    assert abs(power.statistic - summed.statistic) <= 2.0 * thr
    assert summed.passed


def test_idt_report_is_reproducible():
    a = idt_test(StableLine(1.5), 1.5, 2, GRID, TIMES, 1000, RngState(14), 1.0)
    b = idt_test(StableLine(1.5), 1.5, 2, GRID, TIMES, 1000, RngState(14), 1.0)
    assert a.statistic == b.statistic
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# selfsimilarity / stability
# ---------------------------------------------------------------------------


def test_selfsimilarity_stable_line_pathwise(mini_thresholds):
    report = selfsimilarity_test(
        StableLine(1.5), 1.0, 2.0, GRID, TIMES, N_SMALL, RngState(15), mini_thresholds["selfsim_stable"]
    )
    assert report.passed


def test_selfsimilarity_wrong_exponent_fails(mini_thresholds):
    report = selfsimilarity_test(
        StableLine(1.5), 1.3, 2.0, GRID, TIMES, N_SMALL, RngState(16), mini_thresholds["selfsim_stable"]
    )
    assert not report.passed


def test_selfsimilarity_rejects_unit_dilation():
    with pytest.raises(ValueError):
        selfsimilarity_test(StableLine(1.0), 1.0, 1.0, GRID, TIMES, 100, RngState(1), 1.0)


def test_stability_gaussian_is_2_stable(mini_thresholds):
    report = stability_test(FBM, 2.0, 2, GRID, TIMES, N_SMALL, RngState(17), mini_thresholds["stability_fbm"])
    assert report.passed


def test_stability_heavy_tail_is_not_2_stable(mini_thresholds):
    report = stability_test(
        StableLine(1.5), 2.0, 2, GRID, TIMES, N_SMALL, RngState(18), mini_thresholds["stability_fbm"]
    )
    assert not report.passed


def test_stability_stable_line_at_its_own_index():
    thr = calibrate(
        StableLine(1.5), "stability", 60, 0.95, RngState(70009), N_SMALL,
        beta=1.5, n=2, grid=GRID, times=TIMES,
    )
    report = stability_test(StableLine(1.5), 1.5, 2, GRID, TIMES, N_SMALL, RngState(27), thr)
    assert report.passed


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def _lamperti_fbm(alpha, y, n, rng):
    ens = generate(FBM, TimeGrid(np.exp(y)), n, rng)
    return lamperti_apply(ens, alpha, y)


def test_stationarity_zero_shift_is_exactly_zero():
    y = np.array([-0.5, 0.0, 0.5, 1.0])
    lam = _lamperti_fbm(0.6, y, 500, RngState(19))
    report = stationarity_test(lam, 2, 0, threshold=0.0)
    assert report.statistic == 0.0
    assert report.passed


def test_stationarity_correct_exponent_passes(mini_thresholds):
    y = np.array([-0.5, 0.0, 0.5, 1.0])
    lam = _lamperti_fbm(0.6, y, N_SMALL, RngState(20))
    report = stationarity_test(lam, 2, 1, mini_thresholds["stationarity_fbm"])
    assert report.passed


def test_stationarity_wrong_exponent_fails(mini_thresholds):
    y = np.array([-0.5, 0.0, 0.5, 1.0])
    lam = _lamperti_fbm(1.2, y, N_SMALL, RngState(21))
    report = stationarity_test(lam, 2, 1, mini_thresholds["stationarity_fbm"])
    assert not report.passed


def test_stationarity_window_domain():
    y = np.array([0.0, 0.5])
    lam = _lamperti_fbm(0.6, y, 100, RngState(22))
    with pytest.raises(ValueError):
        stationarity_test(lam, 2, 1, 1.0)


# ---------------------------------------------------------------------------
# temporal self-decomposition
# ---------------------------------------------------------------------------


def test_temporal_sd_cauchy_line_is_analytic_zero(mini_thresholds):
    # exp(-t|q|) = exp(-bt|q|) * exp(-(1-b)t|q|) exactly
    thr = calibrate(
        StableLine(1.0), "temporal_sd", 60, 0.95, RngState(70007), N_SMALL, b=0.5, grid=GRID, times=TIMES
    )
    report = temporal_sd_test(StableLine(1.0), 1.0, 0.5, GRID, TIMES, N_SMALL, RngState(23), thr)
    assert report.passed


@pytest.mark.parametrize("b", [0.25, 0.5])
def test_temporal_sd_fbm_passes(mini_thresholds, b):
    thr = mini_thresholds["tsd_fbm"] if b == 0.5 else calibrate(
        FBM, "temporal_sd", 60, 0.95, RngState(70008), N_SMALL, b=b, grid=GRID, times=TIMES
    )
    report = temporal_sd_test(FBM, 0.6, b, GRID, TIMES, N_SMALL, RngState(24), thr)
    assert report.passed


def test_temporal_sd_wrong_exponent_fails(mini_thresholds):
    report = temporal_sd_test(FBM, 1.0, 0.5, GRID, TIMES, N_SMALL, RngState(25), mini_thresholds["tsd_fbm"])
    assert not report.passed


def test_temporal_sd_domain():
    with pytest.raises(ValueError):
        temporal_sd_test(FBM, 0.6, 0.0, GRID, TIMES, 100, RngState(1), 1.0)
    with pytest.raises(ValueError):
        temporal_sd_test(FBM, 0.6, 1.0, GRID, TIMES, 100, RngState(1), 1.0)


# ---------------------------------------------------------------------------
# association
# ---------------------------------------------------------------------------


def test_association_matched_stable_pair_passes():
    report = association_test(
        StableLine(1.5), StableMotion(1.5), 1.5, TIMES, 10**4, RngState(26)
    )
    assert report.passed


def test_association_at_t1_is_definitional():
    report = association_test(StableLine(1.5), StableMotion(1.5), 1.5, [1.0], 10**4, RngState(27))
    assert report.passed


def test_association_mismatched_tails_fail():
    report = association_test(StableLine(1.5), Brownian(1.0, 0.0), 1.5, TIMES, 10**4, RngState(28))
    assert not report.passed


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, math.nan])
def test_association_level_outside_the_unit_interval_raises(level):
    with pytest.raises(ValueError, match=re.escape(f"field 'level': expected a number inside (0, 1), got {level}")):
        association_test(StableLine(1.5), StableMotion(1.5), 1.5, TIMES, 100, RngState(26), level=level)


def test_association_nan_p_value_in_a_later_column_fails(monkeypatch):
    """The matched pair of ``test_association_matched_stable_pair_passes``
    with one NaN at the third time: its p-value, and so the report's, is NaN."""
    draw = statlab.generate

    def with_nan(*args, **kwargs):
        values = draw(*args, **kwargs).values.copy()
        values[0, 2] = np.nan
        return PathEnsemble(args[1], values, spec=None, seed=0)

    monkeypatch.setattr(statlab, "generate", with_nan)
    report = association_test(StableLine(1.5), StableMotion(1.5), 1.5, TIMES, 10**4, RngState(26))
    p_values = report.details["p_values"]
    assert all(p > 0.01 for p in p_values[:2]) and math.isnan(p_values[2])
    assert math.isnan(report.statistic)
    assert not report.passed


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_quantile_one_is_max():
    thr_max = calibrate(StableLine(1.0), "idt", 20, 1.0, RngState(33), 500, n=2, grid=GRID, times=TIMES)
    thr_med = calibrate(StableLine(1.0), "idt", 20, 0.95, RngState(33), 500, n=2, grid=GRID, times=TIMES)
    assert thr_med <= thr_max


def test_calibrate_monotone_in_quantile():
    qs = (0.9, 0.95, 1.0)
    thr = [
        calibrate(StableLine(1.0), "idt", 40, q, RngState(34), 500, n=2, grid=GRID, times=TIMES)
        for q in qs
    ]
    assert thr[0] <= thr[1] <= thr[2]


def test_calibrate_deterministic_and_thread_independent():
    kw = dict(n=2, grid=GRID, times=TIMES)
    a = calibrate(StableLine(1.0), "idt", 20, 0.9, RngState(35), 500, threads=1, **kw)
    b = calibrate(StableLine(1.0), "idt", 20, 0.9, RngState(35), 500, threads=4, **kw)
    assert a == b


def test_calibrate_replays_the_true_null_whatever_alpha_is_passed():
    kw = dict(n=2, grid=GRID, times=TIMES)
    null = calibrate(StableLine(1.0), "idt", 20, 0.9, RngState(39), 200, **kw)
    assert calibrate(StableLine(1.0), "idt", 20, 0.9, RngState(39), 200, alpha=1.7, **kw) == null


def test_calibrate_insufficient_reps():
    with pytest.raises(ValueError):
        calibrate(StableLine(1.0), "idt", 50, 0.99, RngState(36), 500, n=2, grid=GRID, times=TIMES)
    with pytest.raises(ValueError):
        calibrate(StableLine(1.0), "nonsense", 50, 0.9, RngState(36), 500, n=2, grid=GRID, times=TIMES)
    # the maximum of no replays is undefined
    with pytest.raises(ValueError, match="^0 repetitions cannot resolve the 1.0 quantile"):
        calibrate(StableLine(1.0), "idt", 0, 1.0, RngState(36), 500, n=2, grid=GRID, times=TIMES)


@pytest.mark.parametrize(
    "function, params",
    [
        (idt_test, {"n": 2}),
        (selfsimilarity_test, {"h": 0.5, "a": 2.0}),
        (stability_test, {"beta": 2.0, "n": 2}),
        (temporal_sd_test, {"b": 0.5}),
    ],
    ids=["idt", "selfsimilarity", "stability", "temporal_sd"],
)
def test_a_kind_calls_its_function_with_its_fields_by_name(function, params):
    import inspect

    kind = statlab.TEST_KINDS[function.__name__.removesuffix("_test")]
    assert {name for name, _, _ in kind.fields} | {"grid", "times"} <= set(inspect.signature(function).parameters)
    params = kind.fill({**params, "grid": GRID.times, "times": TIMES}, FBM)
    direct = function(FBM, n_paths=200, rng=RngState(3), threshold=0.1, **params)
    assert kind.run(FBM, params, 200, RngState(3), 0.1).to_json() == direct.to_json()
    # a field that the function does not take is an error, never dropped
    with pytest.raises(TypeError, match="'extra'"):
        kind.run(FBM, {**params, "extra": 1.0}, 200, RngState(3), 0.1)


# one case per precondition of the four spec tests, with its message
VIEW_OVERFLOW = "view dilation and scale must be finite and > 0, got an overflow"
SPEC_TEST_PRECONDITIONS = [
    (idt_test, {"alpha": 0.6, "n": 1}, GRID, "n must be at least 2, got 1"),
    (idt_test, {"alpha": 0, "n": 2}, GRID, "field 'alpha': expected a finite number > 0, got 0"),
    (idt_test, {"alpha": 0.6, "n": 2, "mode": "x"}, GRID, "unknown mode 'x'"),
    (idt_test, {"alpha": 0.6, "n": 2}, TimeGrid([0.5, 1.0, 2.0, 4.0]), "at most three comparison times"),
    (idt_test, {"alpha": 0.6, "n": 2, "times": [0.5, 0.75]}, GRID, "time 0.75 is not on the grid [0.5, 1.0, 2.0]"),
    (selfsimilarity_test, {"h": 0.5, "a": 1}, GRID, "dilation must be != 1, got 1"),
    (selfsimilarity_test, {"h": 0.5, "a": math.inf}, GRID, "field 'a': expected a finite number > 0, got inf"),
    (selfsimilarity_test, {"h": 0.5, "a": 2.0, "times": [3.0]}, GRID, "time 3.0 is not on the grid [0.5, 1.0, 2.0]"),
    (stability_test, {"beta": 2.0, "n": 1}, GRID, "n must be at least 2, got 1"),
    (stability_test, {"beta": 0.0, "n": 2}, GRID, "field 'beta': expected a finite number > 0, got 0.0"),
    (stability_test, {"beta": math.nan, "n": 2}, GRID, "field 'beta': expected a finite number > 0, got nan"),
    (stability_test, {"beta": 2.0, "n": 2, "times": [0.25]}, GRID, "time 0.25 is not on the grid [0.5, 1.0, 2.0]"),
    (temporal_sd_test, {"alpha": 0.6, "b": 1.5}, GRID, "field 'b': expected a number inside (0, 1), got 1.5"),
    (temporal_sd_test, {"alpha": 0, "b": 0.5}, GRID, "field 'alpha': expected a finite number > 0, got 0"),
    (temporal_sd_test, {"alpha": 0.6, "b": 0.5, "times": [1.5]}, GRID, "time 1.5 is not on the grid [0.5, 1.0, 2.0]"),
    # a view factor beyond the float range: the power overflows, or underflows to 0
    (idt_test, {"alpha": 0.0001, "n": 2}, GRID, VIEW_OVERFLOW),
    (
        idt_test, {"alpha": 0.000977, "n": 2}, GRID,
        "view dilation 1.3082154914488027e+308 takes the last grid time beyond the float range",
    ),
    (stability_test, {"beta": 0.0001, "n": 2}, GRID, VIEW_OVERFLOW),
    (selfsimilarity_test, {"h": 2000.0, "a": 2.0}, GRID, VIEW_OVERFLOW),
    (selfsimilarity_test, {"h": -2000.0, "a": 2.0}, GRID, "view dilation and scale must be finite and > 0, got 1 and 0.0"),
    (temporal_sd_test, {"alpha": 0.0001, "b": 0.5}, GRID, "view dilation and scale must be finite and > 0, got 0.0 and 1"),
]


@pytest.mark.parametrize(
    "function, params, grid, message",
    SPEC_TEST_PRECONDITIONS,
    ids=[
        "idt_n", "idt_alpha", "idt_mode", "idt_four_times", "idt_off_grid", "selfsim_a", "selfsim_a_inf",
        "selfsim_off_grid", "stability_n", "stability_beta_zero", "stability_beta_nan", "stability_off_grid",
        "tsd_b", "tsd_alpha", "tsd_off_grid", "idt_alpha_tiny", "idt_grid_beyond_float", "stability_beta_tiny",
        "selfsim_h_huge", "selfsim_h_very_negative", "tsd_alpha_tiny",
    ],
)
def test_spec_test_preconditions_raise_their_message(monkeypatch, function, params, grid, message):
    draws = []
    monkeypatch.setattr(statlab, "generate", lambda *args, **kwargs: draws.append(args))
    params = {"times": grid.times.tolist(), **params}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(FBM, grid=grid, n_paths=100, rng=RngState(1), threshold=1.0, **params)
    assert draws == []  # checked before any draw


# each view's row (split, dilation, scale, copies) in drawing order; the split
# indices are the RNG substream layout, and the factors keep their exact expressions
VIEWS = [
    ("idt", {"n": 3, "alpha": 0.6, "mode": "power"}, ((1, 3 ** (1.0 / 0.6), 1, 1), (0, 1, 1, 1))),
    ("idt", {"n": 3, "alpha": 0.6, "mode": "sum"}, ((1, 3 ** (1.0 / 0.6), 1, 1), (0, 1, 1, 3))),
    ("selfsimilarity", {"h": 0.5, "a": 2.0}, ((0, 2.0, 1, 1), (1, 1, 2.0**0.5, 1))),
    ("stability", {"beta": 1.5, "n": 2}, ((0, 1, 1, 2), (1, 1, 2 ** (1.0 / 1.5), 1))),
    (
        "temporal_sd",
        {"b": 0.3, "alpha": 0.6},
        ((0, 1, 1, 1), (1, 0.3 ** (1.0 / 0.6), 1, 1), (2, (1.0 - 0.3) ** (1.0 / 0.6), 1, 1)),
    ),
]


@pytest.mark.parametrize(
    "kind, fields, rows", VIEWS, ids=["idt_power", "idt_sum", "selfsimilarity", "stability", "temporal_sd"]
)
def test_views_keep_the_split_layout_and_exact_factors(kind, fields, rows):
    assert statlab.TEST_KINDS[kind].views(fields) == rows


def test_details_are_the_declared_fields_by_their_types():
    report = idt_test(StableLine(1.5), 1.5, 2.0, GRID, TIMES, 100, RngState(2), 1.0)
    assert report.details["n"] == 2 and type(report.details["n"]) is int
    assert set(report.details) == {"alpha", "n", "mode", "times", "stream", "theta_grid", "convention"}


def test_null_resets_the_spec_exponent_and_leaves_the_probes():
    kinds = statlab.TEST_KINDS
    assert kinds["idt"].null({"n": 2, "alpha": 1.0, "mode": "sum"}, FBM) == {"n": 2, "alpha": 0.6, "mode": "sum"}
    assert kinds["temporal_sd"].null({"b": 0.5, "alpha": 0.9}, FBM) == {"b": 0.5, "alpha": 0.6}
    assert kinds["selfsimilarity"].null({"h": 0.9, "a": 2.0}, FBM) == {"h": 0.9, "a": 2.0}
    assert kinds["stability"].null({"beta": 0.7, "n": 2}, FBM) == {"beta": 0.7, "n": 2}


# the count that resolves the quantile exactly, although 1/(1 - q) rounds above it
REPLAY_BOUNDARY = [(0.9, 10), (0.95, 20), (0.99, 100)]


@pytest.mark.parametrize("quantile, n_reps", REPLAY_BOUNDARY)
def test_calibrate_accepts_the_exact_replay_count(quantile, n_reps):
    kw = dict(n=2, grid=GRID, times=TIMES)
    with pytest.raises(ValueError, match=f"^{n_reps - 1} repetitions cannot resolve"):
        calibrate(StableLine(1.0), "idt", n_reps - 1, quantile, RngState(38), 50, **kw)
    stats = [
        idt_test(StableLine(1.0), 1.0, 2, GRID, TIMES, 50, RngState(38).split(rep), math.inf).statistic
        for rep in range(n_reps)
    ]
    thr = calibrate(StableLine(1.0), "idt", n_reps, quantile, RngState(38), 50, **kw)
    assert thr == np.quantile(stats, quantile, method="higher")


# ---------------------------------------------------------------------------
# residual of a selfdecomposable Gaussian process stays time-divisible
# ---------------------------------------------------------------------------


def test_gaussian_residual_cf_ratio_and_kernel_scaling():
    # X Gaussian scaling at 0.6; residual against the 0.6-scaled copy has
    # CF ratio exp(-(1 - c^2) * Var(X_t) * theta^2 / 2) and covariance
    # (1 - c^2) c(s, t), which still scales at exponent 0.6.
    c = 0.6
    n = 2 * 10**4
    x = generate(FBM, GRID, n, RngState(37).split(0))
    cx = scale_paths(generate(FBM, GRID, n, RngState(37).split(1)), c)
    for theta in (0.5, 1.0):
        fx = ecf(x, [1], np.array([[theta]]))[0]
        fc = ecf(cx, [1], np.array([[theta]]))[0]
        var_t = fbm_cov(0.3, 1.0, 1.0)
        expected = math.exp(-0.5 * (1.0 - c * c) * var_t * theta * theta)
        assert abs(fx / fc - expected) < 0.05

    class ResidualKernel:
        def cov(self, s, t):
            return (1.0 - c * c) * fbm_cov(0.3, s, t)

    report = check_scaling(ResidualKernel(), 0.6, 2.0, [0.25, 0.5, 1.0, 2.0], tol=1e-10)
    assert report.passed

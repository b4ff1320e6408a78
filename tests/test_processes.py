import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from idtlab.kernels import FBmKernel, SpectralKernel, SpectralMeasure
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    CompoundPoisson,
    ContractViolation,
    GammaSubordinator,
    GaussianKernel,
    Mixture,
    PathEnsemble,
    PowerLine,
    StableLine,
    StableMotion,
    Subordinated,
    TimeGrid,
    WeightedSubordinator,
    _chronometer_increments,
    additive_paths,
    fbm_moving_average_paths,
    gaussian_paths,
    generate,
    is_nondecreasing_spec,
    levy_increments,
    spec_label,
    weighted_subordinator_paths,
)
from idtlab.randkit import RngState, StableParams, sample_stable
from idtlab.statlab import ks_one_sample, ks_two_sample

GRID = TimeGrid([0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# TimeGrid / PathEnsemble plumbing
# ---------------------------------------------------------------------------


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid([])
    with pytest.raises(ValueError):
        TimeGrid([1.0, 1.0])
    with pytest.raises(ValueError):
        TimeGrid([2.0, 1.0])
    with pytest.raises(ValueError):
        TimeGrid([-1.0, 1.0])
    TimeGrid([-1.0, 1.0], allow_negative=True)
    assert len(TimeGrid([0.0, 1.0])) == 2


def test_ensemble_is_immutable():
    e = generate(StableLine(1.0), GRID, 10, RngState(1))
    with pytest.raises(ValueError):
        e.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        PathEnsemble(GRID, np.zeros((3, 2)), None, 0)


def test_generate_rejects_bad_paths_count():
    with pytest.raises(ValueError):
        generate(StableLine(1.0), GRID, 0, RngState(1))


# ---------------------------------------------------------------------------
# line and power-line specs
# ---------------------------------------------------------------------------


def test_stable_line_is_a_random_line():
    e = generate(StableLine(1.0), TimeGrid([1.0, 2.0]), 500, RngState(5))
    assert np.array_equal(e.values[:, 1], 2.0 * e.values[:, 0])


def test_power_line_matches_stable_line_at_exponent_one():
    a = generate(PowerLine(1.0), TimeGrid([1.7]), 10**4, RngState(6).split(0))
    b = generate(StableLine(1.0), TimeGrid([1.7]), 10**4, RngState(6).split(1))
    _, p = ks_two_sample(a.values[:, 0], b.values[:, 0])
    assert p > 0.01


def test_lines_vanish_at_zero():
    e = generate(StableLine(1.5), TimeGrid([0.0, 1.0]), 50, RngState(7))
    assert np.all(e.values[:, 0] == 0.0)
    e = generate(PowerLine(0.7), TimeGrid([0.0, 1.0]), 50, RngState(7))
    assert np.all(e.values[:, 0] == 0.0)


# ---------------------------------------------------------------------------
# levy_increments
# ---------------------------------------------------------------------------


def test_increments_zero_duration_is_exactly_zero():
    rng = RngState(8)
    for family in (
        Brownian(1.0, 0.3),
        StableMotion(1.5),
        GammaSubordinator(1.0, 1.0),
        CompoundPoisson(2.0, 0.5, 0.1),
    ):
        incs = levy_increments(family, [0.0, 1.0, 0.0], rng)
        assert incs[0] == 0.0
        assert incs[2] == 0.0


def test_brownian_increment_variance():
    incs = levy_increments(Brownian(1.0, 0.0), np.ones(10**5), RngState(9))
    assert abs(incs.var() - 1.0) < 0.02


def test_compound_poisson_with_zero_intensity_is_flat():
    incs = levy_increments(CompoundPoisson(0.0, 1.0, 1.0), np.ones(1000), RngState(10))
    assert np.all(incs == 0.0)


def test_increments_reject_negative_duration():
    with pytest.raises(ValueError):
        levy_increments(Brownian(), [-0.1], RngState(1))


# ---------------------------------------------------------------------------
# additive time change
# ---------------------------------------------------------------------------


def test_additive_alpha_one_is_plain_levy():
    # marginal of a Brownian additive path at t is N(0, t)
    e = additive_paths(Brownian(1.0, 0.0), 1.0, GRID, 10**4, RngState(11))
    for j, t in enumerate(GRID.times):
        _, p = ks_one_sample(e.values[:, j], lambda v, t=t: ndtr(v / math.sqrt(t)))
        assert p > 0.01


def test_additive_stable_marginal_scaling():
    # marginal at t of the clock-deformed stable motion is t**(alpha/index) * S
    alpha, index = 1.5, 1.5
    e = additive_paths(StableMotion(index), alpha, GRID, 10**4, RngState(12).split(0))
    fresh = sample_stable(RngState(12).split(1), StableParams(index), 10**4)
    for j, t in enumerate(GRID.times):
        _, p = ks_two_sample(e.values[:, j], t ** (alpha / index) * fresh)
        assert p > 0.01


def test_additive_brownian_alpha_two_variance():
    e = additive_paths(Brownian(1.0, 0.0), 2.0, GRID, 2 * 10**4, RngState(13))
    for j, t in enumerate(GRID.times):
        assert abs(e.values[:, j].var() - t**2) < 6.0 * t**2 / math.sqrt(e.n_paths)


def test_additive_monotone_families_yield_monotone_paths():
    for family in (GammaSubordinator(1.0, 1.0), StableMotion(0.7, 1.0)):
        e = additive_paths(family, 0.7, GRID, 2000, RngState(14))
        assert np.all(np.diff(e.values, axis=1) >= 0)
        assert np.all(e.values >= 0)


def test_additive_gamma_marginal_is_gamma_at_clock_time():
    shape, rate, alpha = 1.0, 1.0, 0.7
    e = additive_paths(GammaSubordinator(shape, rate), alpha, GRID, 10**4, RngState(59).split(0))
    oracle_rng = RngState(59).split(1)
    for j, t in enumerate(GRID.times):
        direct = oracle_rng.generator.gamma(shape * t**alpha, 1.0 / rate, 10**4)
        _, p = ks_two_sample(e.values[:, j], direct)
        assert p > 0.01


def test_additive_compound_poisson_marginal_matches_direct_simulation():
    lam, mean, sd, alpha = 2.0, 0.5, 0.3, 0.7
    family = CompoundPoisson(lam, mean, sd)
    e = additive_paths(family, alpha, GRID, 10**4, RngState(60).split(0))
    oracle_rng = RngState(60).split(1)
    for j, t in enumerate(GRID.times):
        counts = oracle_rng.generator.poisson(lam * t**alpha, 10**4)
        noise = oracle_rng.generator.standard_normal(10**4)
        oracle = mean * counts + sd * np.sqrt(counts) * noise
        _, p = ks_two_sample(e.values[:, j], oracle)
        assert p > 0.01


# ---------------------------------------------------------------------------
# subordination
# ---------------------------------------------------------------------------


def test_subordinated_identity_chronometer_is_plain_levy():
    identity = AdditiveTimeChange(Brownian(0.0, 1.0), 1.0)
    spec = Subordinated(Brownian(1.0, 0.0), identity)
    e = generate(spec, GRID, 10**4, RngState(15))
    for j, t in enumerate(GRID.times):
        _, p = ks_one_sample(e.values[:, j], lambda v, t=t: ndtr(v / math.sqrt(t)))
        assert p > 0.01


def test_subordinated_flat_chronometer_gives_zero_increments():
    frozen = AdditiveTimeChange(Brownian(0.0, 0.0), 1.0)  # xi identically 0
    spec = Subordinated(Brownian(1.0, 0.0), frozen)
    e = generate(spec, GRID, 100, RngState(16))
    assert np.all(e.values == 0.0)


def test_subordinated_rejects_non_monotone_chronometer_spec():
    with pytest.raises(ValueError):
        Subordinated(Brownian(1.0, 0.0), StableLine(1.5))
    with pytest.raises(ValueError):
        Subordinated(Brownian(1.0, 0.0), AdditiveTimeChange(Brownian(1.0, 0.0), 1.0))


def test_chronometer_runtime_check_names_offending_path():
    bad = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 1.5]])
    with pytest.raises(ContractViolation, match="path 1"):
        _chronometer_increments(bad)
    with pytest.raises(ContractViolation, match="path 0"):
        _chronometer_increments(np.array([[-1.0, 0.0]]))


def test_subordinated_runtime_recheck_catches_bad_samples(monkeypatch):
    # a chronometer that passes the static check but yields a decreasing
    # sample must be caught per path at generation time
    import idtlab.processes as proc

    chrono = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    broken = PathEnsemble(GRID, np.array([[0.0, 1.0, 0.5]]), chrono, 0)
    monkeypatch.setattr(proc, "generate", lambda *a, **k: broken)
    with pytest.raises(ContractViolation, match="path 0"):
        proc.subordinated_paths(Brownian(1.0, 0.0), chrono, GRID, 1, RngState(1))


def test_blocked_chronometer_check_names_the_global_path(monkeypatch):
    # with 7-row blocks, local row 3 of the second block is path 10
    import idtlab.processes as proc

    chrono = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    calls = []

    def clock(spec, grid, n_paths, rng):
        values = np.tile([0.0, 1.0, 2.0], (n_paths, 1))
        if calls:
            values[3] = [0.0, 1.0, 0.5]
        calls.append(n_paths)
        return PathEnsemble(grid, values, spec, 0)

    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * len(GRID) * 7)
    monkeypatch.setattr(proc, "generate", clock)
    with pytest.raises(ContractViolation, match="path 10 is decreasing"):
        proc.subordinated_paths(Brownian(1.0, 0.0), chrono, GRID, 20, RngState(1))
    assert calls == [7, 7]


def test_nondecreasing_spec_classifier():
    gamma_clock = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    assert is_nondecreasing_spec(gamma_clock)
    assert is_nondecreasing_spec(Subordinated(GammaSubordinator(1.0, 1.0), gamma_clock))
    assert is_nondecreasing_spec(Mixture(gamma_clock, ((1.0, 0.5), (2.0, 0.5))))
    assert not is_nondecreasing_spec(Mixture(gamma_clock, ((1.0, 1.0), (2.0, -0.5))))
    assert not is_nondecreasing_spec(StableLine(1.0))
    assert not is_nondecreasing_spec(GaussianKernel(FBmKernel(0.3)))


# ---------------------------------------------------------------------------
# mixtures and weighted subordinator blends
# ---------------------------------------------------------------------------


def test_mixture_identity_atom_reduces_to_base():
    base = GaussianKernel(FBmKernel(0.3))
    spec = Mixture(base, ((1.0, 1.0),))
    a = generate(spec, GRID, 10**4, RngState(17).split(0))
    b = generate(base, GRID, 10**4, RngState(17).split(1))
    for j in range(len(GRID)):
        _, p = ks_two_sample(a.values[:, j], b.values[:, j])
        assert p > 0.01


def test_mixture_merged_grid_uses_one_trajectory():
    # weights (1, -1) with equal dilations cancel exactly: one path evaluated twice
    base = GaussianKernel(FBmKernel(0.3))
    spec = Mixture(base, ((1.0, 1.0), (1.0, -1.0)))
    e = generate(spec, GRID, 50, RngState(18))
    assert np.all(e.values == 0.0)


def test_weighted_subordinator_single_atom_equals_additive():
    rng_a = RngState(19)
    rng_b = RngState(19)
    a = weighted_subordinator_paths(GammaSubordinator(1.0, 1.0), ((1.0, 1.0),), 0.7, GRID, 200, rng_a)
    b = additive_paths(GammaSubordinator(1.0, 1.0), 0.7, GRID, 200, rng_b)
    assert np.array_equal(a.values, b.values)


def test_weighted_subordinator_alpha_one_identity_atom():
    a = weighted_subordinator_paths(GammaSubordinator(1.0, 1.0), ((1.0, 1.0),), 1.0, GRID, 200, RngState(20))
    b = additive_paths(GammaSubordinator(1.0, 1.0), 1.0, GRID, 200, RngState(20))
    assert np.array_equal(a.values, b.values)


def test_weighted_subordinator_rejects_bad_atoms():
    with pytest.raises(ValueError):
        WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, -0.5),), 0.7)
    with pytest.raises(ValueError):
        WeightedSubordinator(Brownian(1.0, 0.0), ((1.0, 0.5),), 0.7)
    with pytest.raises(ValueError):
        WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((0.0, 0.5),), 0.7)


# ---------------------------------------------------------------------------
# Gaussian paths
# ---------------------------------------------------------------------------


def test_gaussian_paths_empirical_covariance():
    n = 2 * 10**4
    e = gaussian_paths(FBmKernel(0.5), TimeGrid([1.0, 2.0, 3.0]), n, RngState(21))
    emp = e.values.T @ e.values / n
    expected = np.array([[1, 1, 1], [1, 2, 2], [1, 2, 3]], dtype=float)
    assert np.abs(emp - expected).max() < 5.0 / math.sqrt(n) * 3.0


def test_gaussian_paths_single_time_variance():
    e = gaussian_paths(FBmKernel(0.3), TimeGrid([1.0]), 10**4, RngState(22))
    assert abs(e.values.var() - 1.0) < 0.05


def test_gaussian_paths_scaling_ratio():
    # covariance at (2, 4) over (1, 2) should be 2**(2H)
    n = 4 * 10**4
    e = gaussian_paths(FBmKernel(0.7), TimeGrid([1.0, 2.0, 4.0]), n, RngState(23))
    c12 = (e.values[:, 0] * e.values[:, 1]).mean()
    c24 = (e.values[:, 1] * e.values[:, 2]).mean()
    assert c24 / c12 == pytest.approx(2.0**1.4, rel=0.1)


def test_gaussian_paths_zero_time_column_is_zero():
    e = gaussian_paths(FBmKernel(0.3), TimeGrid([0.0, 1.0]), 100, RngState(24))
    assert np.all(e.values[:, 0] == 0.0)


def test_gaussian_spectral_rejects_nonpositive_times():
    kernel = SpectralKernel(1.0, SpectralMeasure.symmetric(((1.0, 1.0),)))
    with pytest.raises(ValueError):
        gaussian_paths(kernel, TimeGrid([0.0, 1.0]), 10, RngState(25))


def test_gaussian_paths_records_jitter():
    e = gaussian_paths(FBmKernel(0.5), GRID, 10, RngState(26))
    assert "jitter" in e.meta


# ---------------------------------------------------------------------------
# moving-average of fractional Brownian motion
# ---------------------------------------------------------------------------


def test_fbm_moving_average_indicator_recovers_fbm():
    hurst = 0.3
    u = np.linspace(0.0, 4.0, 401)
    weights = (u[:-1] < 1.0).astype(float)  # indicator of [0, 1)
    grid = TimeGrid([0.5, 1.0, 2.0])
    n = 10**4
    e = fbm_moving_average_paths(hurst, weights, u, grid, n, RngState(27))
    emp = e.values.T @ e.values / n
    expected = np.array([[fbm_cov_(hurst, s, t) for t in grid.times] for s in grid.times])
    assert np.abs(emp - expected).max() < 0.08  # statistical + O(mesh) bias


def fbm_cov_(h, s, t):
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))


def test_fbm_moving_average_variance_scaling():
    hurst = 0.4
    u = np.linspace(0.0, 8.0, 801)
    weights = np.exp(-u[:-1])  # smooth decaying window
    grid = TimeGrid([1.0, 2.0])
    e = fbm_moving_average_paths(hurst, weights, u, grid, 2 * 10**4, RngState(28))
    ratio = e.values[:, 1].var() / e.values[:, 0].var()
    assert ratio == pytest.approx(2.0 ** (2 * hurst), rel=0.1)


def test_fbm_moving_average_zero_weights_gives_zero_process():
    u = np.linspace(0.0, 2.0, 21)
    e = fbm_moving_average_paths(0.3, np.zeros(20), u, TimeGrid([1.0]), 10, RngState(29))
    assert np.all(e.values == 0.0)


def test_fbm_moving_average_empty_support_is_domain_error():
    with pytest.raises(ValueError):
        fbm_moving_average_paths(0.3, np.array([]), np.array([0.0]), TimeGrid([1.0]), 10, RngState(30))


# ---------------------------------------------------------------------------
# reproducibility and labels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        StableLine(1.5),
        PowerLine(0.7),
        GaussianKernel(FBmKernel(0.3)),
        AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7),
        Subordinated(Brownian(1.0, 0.0), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)),
        Mixture(GaussianKernel(FBmKernel(0.3)), ((1.0, 0.5), (2.0, 0.5))),
        WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, 0.5), (2.0, 0.5)), 0.7),
    ],
)
def test_generate_is_bit_reproducible(spec):
    a = generate(spec, GRID, 300, RngState(31, 9))
    b = generate(spec, GRID, 300, RngState(31, 9))
    assert np.array_equal(a.values, b.values)
    assert spec_label(spec) == spec_label(spec)


def test_exponent_bookkeeping():
    assert StableLine(1.5).idt_exponent == 1.5
    assert PowerLine(0.7).idt_exponent == 0.7
    assert GaussianKernel(FBmKernel(0.3)).idt_exponent == pytest.approx(0.6)
    assert AdditiveTimeChange(Brownian(), 0.7).idt_exponent == 0.7
    chrono = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    assert Subordinated(Brownian(), chrono).idt_exponent == 0.7
    assert Mixture(GaussianKernel(FBmKernel(0.3)), ((1.0, 1.0),)).idt_exponent == pytest.approx(0.6)
    assert WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, 1.0),), 0.7).idt_exponent == 0.7


# ---------------------------------------------------------------------------
# spec_label keys the threshold table, so distinct specs need distinct labels
# ---------------------------------------------------------------------------

# two values per field, so that specs differing in a single field are drawn often
_POS = st.sampled_from([0.5, 1.0])
_REAL = st.sampled_from([0.0, 0.5])
_ATOMS = st.lists(st.tuples(_POS, _POS), min_size=1, max_size=2).map(tuple)

_subordinators = st.one_of(
    st.builds(GammaSubordinator, _POS, _POS),
    st.builds(Brownian, st.just(0.0), _POS),
    st.builds(StableMotion, st.sampled_from([0.5, 0.7]), st.just(1.0)),
    st.builds(CompoundPoisson, _POS, _POS, st.just(0.0)),
)
_families = st.one_of(
    _subordinators,
    st.builds(Brownian, _POS, _REAL),
    st.builds(StableMotion, st.sampled_from([1.0, 1.5]), st.just(0.0)),
    st.builds(CompoundPoisson, _POS, _REAL, _POS),
)
_clocks = st.builds(AdditiveTimeChange, _subordinators, _POS)
_chronos = st.one_of(_clocks, st.builds(Subordinated, _subordinators, _clocks))
_leaf_specs = st.one_of(
    st.builds(StableLine, _POS),
    st.builds(PowerLine, _POS),
    st.builds(GaussianKernel, st.builds(FBmKernel, _POS.map(lambda h: h / 2))),
    st.builds(
        GaussianKernel,
        st.builds(SpectralKernel, _POS, _ATOMS.map(SpectralMeasure.symmetric)),
    ),
    st.builds(AdditiveTimeChange, _families, _POS),
    st.builds(WeightedSubordinator, _subordinators, _ATOMS, _POS),
    st.builds(Subordinated, _families, _chronos),
)
_specs = st.recursive(_leaf_specs, lambda inner: st.builds(Mixture, inner, _ATOMS), max_leaves=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(_specs, min_size=30, max_size=60))
def test_spec_label_is_injective(specs):
    seen = {}
    for spec in specs:
        assert seen.setdefault(spec_label(spec), spec) == spec


def _one_value_changed(obj):
    """Valid copies of a spec, family or kernel that differ from it in exactly one number."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            changed = list(_one_value_changed(value))
        elif isinstance(value, tuple):  # atoms: ((dilation or location, weight), ...)
            changed = []
            for i, (u, w) in enumerate(value):
                for atom in ((u + 0.25, w), (u, w + 0.25)):
                    changed.append(value[:i] + (atom,) + value[i + 1 :])
        else:
            changed = [value + 0.25]
        for new in changed:
            try:
                yield dataclasses.replace(obj, **{field.name: new})
            except ValueError:
                pass  # outside the constructor's domain


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_changing_any_one_value_changes_the_label(spec):
    label = spec_label(spec)
    for variant in _one_value_changed(spec):
        assert spec_label(variant) != label

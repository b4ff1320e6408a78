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
    gaussian_paths,
    generate,
    levy_increments,
    sample_blocks,
    spec_label,
)
from idtlab.randkit import RngState, StableParams, sample_stable
from idtlab.statlab import ks_one_sample, ks_two_sample

GRID = TimeGrid([0.5, 1.0, 2.0])


def _streamed(spec, grid, n_paths, rng, threads):
    """The rows of ``sample_blocks(spec, grid, n_paths, rng, threads)``, copied block by block."""
    _, blocks = sample_blocks(spec, grid, n_paths, rng, threads)
    return np.concatenate([block.copy() for block in blocks])


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
    assert len(TimeGrid([0.0, 1.0])) == 2


def test_negative_times_make_a_grid_but_no_ensemble():
    # a grid may hold log times; generation alone takes nonnegative times only
    grid = TimeGrid([-1.0, 1.0])
    assert grid.times.tolist() == [-1.0, 1.0]
    for draw in (generate, sample_blocks):
        with pytest.raises(ValueError, match="^process generation needs nonnegative times$"):
            draw(StableLine(1.0), grid, 10, RngState(1))


def test_time_grid_copies_its_times():
    times = np.array([0.5, 1.0])
    grid = TimeGrid(times)
    times[0] = 0.25  # the caller's array stays writable, and the grid keeps its own read-only copy
    assert grid.times.tolist() == [0.5, 1.0] and not grid.times.flags.writeable


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
    e = generate(AdditiveTimeChange(Brownian(1.0, 0.0), 1.0), GRID, 10**4, RngState(11))
    for j, t in enumerate(GRID.times):
        _, p = ks_one_sample(e.values[:, j], lambda v, t=t: ndtr(v / math.sqrt(t)))
        assert p > 0.01


def test_additive_stable_marginal_scaling():
    # marginal at t of the clock-deformed stable motion is t**(alpha/index) * S
    alpha, index = 1.5, 1.5
    e = generate(AdditiveTimeChange(StableMotion(index), alpha), GRID, 10**4, RngState(12).split(0))
    fresh = sample_stable(RngState(12).split(1), StableParams(index), 10**4)
    for j, t in enumerate(GRID.times):
        _, p = ks_two_sample(e.values[:, j], t ** (alpha / index) * fresh)
        assert p > 0.01


def test_additive_brownian_alpha_two_variance():
    e = generate(AdditiveTimeChange(Brownian(1.0, 0.0), 2.0), GRID, 2 * 10**4, RngState(13))
    for j, t in enumerate(GRID.times):
        assert abs(e.values[:, j].var() - t**2) < 6.0 * t**2 / math.sqrt(e.n_paths)


def test_additive_monotone_families_yield_monotone_paths():
    for family in (GammaSubordinator(1.0, 1.0), StableMotion(0.7, 1.0)):
        e = generate(AdditiveTimeChange(family, 0.7), GRID, 2000, RngState(14))
        assert np.all(np.diff(e.values, axis=1) >= 0)
        assert np.all(e.values >= 0)


def test_additive_gamma_marginal_is_gamma_at_clock_time():
    shape, rate, alpha = 1.0, 1.0, 0.7
    e = generate(AdditiveTimeChange(GammaSubordinator(shape, rate), alpha), GRID, 10**4, RngState(59).split(0))
    oracle_rng = RngState(59).split(1)
    for j, t in enumerate(GRID.times):
        direct = oracle_rng.generator.gamma(shape * t**alpha, 1.0 / rate, 10**4)
        _, p = ks_two_sample(e.values[:, j], direct)
        assert p > 0.01


def test_additive_compound_poisson_marginal_matches_direct_simulation():
    lam, mean, sd, alpha = 2.0, 0.5, 0.3, 0.7
    family = CompoundPoisson(lam, mean, sd)
    e = generate(AdditiveTimeChange(family, alpha), GRID, 10**4, RngState(60).split(0))
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

    def broken(spec, grid, n_paths, rng, threads=1, out=None):  # the clock's block loop
        for _, rows in proc._row_blocks(n_paths, len(grid), True, out):
            rows[...] = [0.0, 1.0, 0.5]
            yield rows

    monkeypatch.setattr(AdditiveTimeChange, "blocks", broken)
    with pytest.raises(ContractViolation, match="path 0"):
        Subordinated(Brownian(1.0, 0.0), chrono).sample(GRID, 1, RngState(1))


def test_blocked_chronometer_check_names_the_global_path(monkeypatch):
    # with 7-row blocks, local row 3 of the second block is path 10; at two
    # threads the helper has drawn the third block's clock by then
    import idtlab.processes as proc

    chrono = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)

    def clock(spec, grid, n_paths, rng, threads=1, out=None):  # the clock's continuing block loop
        for _, rows in proc._row_blocks(n_paths, len(grid), True, out):
            rows[...] = [0.0, 1.0, 2.0]
            if calls:
                rows[3] = [0.0, 1.0, 0.5]
            calls.append(rows.shape[0])
            yield rows

    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * len(GRID) * 7)
    monkeypatch.setattr(AdditiveTimeChange, "blocks", clock)
    for threads, drawn in ((1, [7, 7]), (2, [7, 7, 6])):
        calls = []
        with pytest.raises(ContractViolation, match="path 10 is decreasing"):
            _streamed(Subordinated(Brownian(1.0, 0.0), chrono), GRID, 20, RngState(1), threads)
        assert calls == drawn


def test_clock_helper_thread_starts_only_for_threads_and_blocks(monkeypatch):
    # generate draws on the calling thread, also over several blocks; only
    # the streamed path at two threads starts the one clock helper
    import threading

    import idtlab.processes as proc

    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self.name) or start(self))
    spec = Subordinated(Brownian(1.0, 0.0), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7))
    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * len(GRID) * 7)
    whole = generate(spec, GRID, 20, RngState(1)).values
    assert started == []
    assert np.array_equal(_streamed(spec, GRID, 20, RngState(1), 1), whole)
    assert np.array_equal(_streamed(spec, GRID, 7, RngState(1), 2), whole[:7])
    assert started == []
    assert np.array_equal(_streamed(spec, GRID, 20, RngState(1), 2), whole)
    assert len(started) == 1


def test_concurrent_clock_prefetch_under_fast_switching(monkeypatch):
    # four streamed ensembles at two threads each, so eight threads on fewer cores,
    # switching every microsecond: each must still give its one-thread values
    import sys
    from concurrent.futures import ThreadPoolExecutor

    import idtlab.processes as proc

    spec = Subordinated(Brownian(1.0, 0.3), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7))
    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * len(GRID) * 7)
    expected = [generate(spec, GRID, 300, RngState(seed)).values for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_streamed, spec, GRID, 300, RngState(seed), 2) for seed in range(4)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def test_per_element_follows_the_parts():
    gamma, stable = GammaSubordinator(1.0, 1.0), StableMotion(0.5, 1.0)
    gamma_clock = AdditiveTimeChange(gamma, 0.7)
    weighted = WeightedSubordinator(gamma, ((1.0, 0.5), (3.0, 0.5)), 0.7)
    mixture = Mixture(gamma_clock, ((1.0, 0.5), (2.0, 0.5)))
    assert weighted.per_element
    assert not WeightedSubordinator(stable, ((1.0, 0.5),), 0.6).per_element
    assert not mixture.per_element
    for clock in (gamma_clock, weighted, Subordinated(gamma, gamma_clock)):
        assert Subordinated(Brownian(), clock).per_element
        assert not Subordinated(StableMotion(1.5), clock).per_element
    assert not Subordinated(Brownian(), mixture).per_element
    assert not Subordinated(Brownian(), AdditiveTimeChange(stable, 0.5)).per_element


@pytest.mark.parametrize("family", [StableMotion(1.5), CompoundPoisson(2.0, 0.5, 0.3)], ids=["stable", "poisson"])
def test_one_block_subordinated_gives_its_clock_the_one_block(monkeypatch, family):
    # the family is drawn as one block, so the blocked gamma clock must fill
    # all 20 rows of it; with 7-row blocks it would otherwise give 7
    import idtlab.processes as proc

    spec = Subordinated(family, AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7))
    whole = generate(spec, GRID, 20, RngState(1)).values
    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * len(GRID) * 7)
    assert np.array_equal(generate(spec, GRID, 20, RngState(1)).values, whole)
    for threads in (1, 2):
        assert np.array_equal(_streamed(spec, GRID, 20, RngState(1), threads), whole)


def test_nondecreasing_spec_classifier():
    gamma_clock = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    assert gamma_clock.nondecreasing
    assert Subordinated(GammaSubordinator(1.0, 1.0), gamma_clock).nondecreasing
    assert Mixture(gamma_clock, ((1.0, 0.5), (2.0, 0.5))).nondecreasing
    assert not Mixture(gamma_clock, ((1.0, 1.0), (2.0, -0.5))).nondecreasing
    assert not StableLine(1.0).nondecreasing
    assert not GaussianKernel(FBmKernel(0.3)).nondecreasing


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
    a = generate(WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, 1.0),), 0.7), GRID, 200, rng_a)
    b = generate(AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7), GRID, 200, rng_b)
    assert np.array_equal(a.values, b.values)


def test_weighted_subordinator_alpha_one_identity_atom():
    a = generate(WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, 1.0),), 1.0), GRID, 200, RngState(20))
    b = generate(AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 1.0), GRID, 200, RngState(20))
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
    # every kernel's covariance is 0 at time 0, and the identity forces X(0) = 0
    for kernel in (FBmKernel(0.3), SpectralKernel(1.0, SpectralMeasure.symmetric(((1.0, 1.0),)))):
        e = gaussian_paths(kernel, TimeGrid([0.0, 1.0]), 100, RngState(24))
        assert np.all(e.values[:, 0] == 0.0)
        assert np.all(e.values[:, 1] != 0.0)


def test_gaussian_spectral_rejects_negative_times():
    kernel = SpectralKernel(1.0, SpectralMeasure.symmetric(((1.0, 1.0),)))
    with pytest.raises(ValueError, match="^process generation needs nonnegative times$"):
        gaussian_paths(kernel, TimeGrid([-1.0, 1.0]), 10, RngState(25))


def test_gaussian_fbm_rejects_negative_times():
    # fBm's variance at t = -1 is 1, so a zero column there would be wrong, not a convention
    with pytest.raises(ValueError, match="^process generation needs nonnegative times$"):
        gaussian_paths(FBmKernel(0.3), TimeGrid([-1.0, 1.0]), 5, RngState(1))


def test_gaussian_paths_records_jitter():
    e = gaussian_paths(FBmKernel(0.5), GRID, 10, RngState(26))
    assert "jitter" in e.meta


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


# Labels key the shipped threshold table and must not change: one spec or
# family of each kind, with its label as a literal string.
_PINNED_LABELS = [
    (StableLine(1.5), "stable_line(alpha=1.5)"),
    (PowerLine(0.7), "power_line(alpha=0.7)"),
    (GaussianKernel(FBmKernel(0.3)), "gaussian(fbm(hurst=0.3))"),
    (
        GaussianKernel(SpectralKernel(1.0, SpectralMeasure.symmetric(((0.0, 2.0), (1.5, 1.0))))),
        "gaussian(spectral(alpha=1.0,atoms=[(0.0,2.0),(1.5,0.5),(-1.5,0.5)]))",
    ),
    (AdditiveTimeChange(Brownian(1.0, 0.3), 0.5), "additive(brownian(volatility=1.0,drift=0.3),alpha=0.5)"),
    (
        Subordinated(CompoundPoisson(2.0, 0.5, 0.1), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)),
        "subordinated(compound_poisson(intensity=2.0,jump_mean=0.5,jump_sd=0.1),"
        "chrono=additive(gamma(shape=1.0,rate=1.0),alpha=0.7))",
    ),
    (
        Mixture(Mixture(GaussianKernel(FBmKernel(0.3)), ((1.0, 0.5), (2.0, 0.5))), ((3.0, -1.0),)),
        "mixture(mixture(gaussian(fbm(hurst=0.3)),atoms=[(1.0,0.5),(2.0,0.5)]),atoms=[(3.0,-1.0)])",
    ),
    (
        WeightedSubordinator(StableMotion(0.5, 1.0), ((1.0, 0.5), (2.0, 0.25)), 0.7),
        "weighted_subordinator(stable_motion(index=0.5,skew=1.0),atoms=[(1.0,0.5),(2.0,0.25)],alpha=0.7)",
    ),
    (Brownian(1.0, 0.3), "brownian(volatility=1.0,drift=0.3)"),
    (StableMotion(1.5), "stable_motion(index=1.5,skew=0.0)"),
    (GammaSubordinator(2.0, 3.0), "gamma(shape=2.0,rate=3.0)"),
    (CompoundPoisson(2.0, 0.5, 0.1), "compound_poisson(intensity=2.0,jump_mean=0.5,jump_sd=0.1)"),
]


@pytest.mark.parametrize("obj, label", _PINNED_LABELS, ids=[label.split("(")[0] for _, label in _PINNED_LABELS])
def test_pinned_label_of_each_kind(obj, label):
    assert spec_label(obj) == label


def _config_value(obj, name):
    """The config value of field ``name`` of a spec or family: kernels are
    read through, and atoms split into points and weights."""
    obj = getattr(obj, "kernel", obj)
    if name not in ("dilations", "locations", "weights"):
        return getattr(obj, name)
    if hasattr(obj, "measure"):  # back to the (location >= 0, total weight) pairs
        atoms = [(a, w if a == 0 else 2.0 * w) for a, w in obj.measure.atoms if a >= 0]
    else:
        atoms = obj.atoms
    return [w if name == "weights" else u for u, w in atoms]


def _render(obj, prefix="spec"):
    """Config lines that ``cli.build_spec`` turns back into ``obj``, found
    through the kind tables: the kind whose constructor rebuilds ``obj``."""
    from idtlab.processes import FAMILY_KINDS, SPEC_KINDS

    for kind, (make, fields) in {**SPEC_KINDS, **FAMILY_KINDS}.items():
        try:
            values = {name: _config_value(obj, name) for name, _, _ in fields}
            if make(**values) != obj:
                continue
        except (AttributeError, ValueError):
            continue
        lines = [f"{prefix}.kind = {kind}"]
        for name, parse, _ in fields:
            value = values[name]
            if parse in ("spec", "family"):
                lines.append(_render(value, f"{prefix}.{name}"))
            elif isinstance(value, list):
                lines.append(f"{prefix}.{name} = {' '.join(map(repr, value))}")
            else:
                lines.append(f"{prefix}.{name} = {value!r}")
        return "\n".join(lines)
    raise AssertionError(f"no config kind rebuilds {obj!r}")


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_config_round_trip(spec):
    from idtlab.cli import build_spec, parse_config_text

    assert build_spec(parse_config_text(_render(spec))["spec"], "spec") == spec


# ---------------------------------------------------------------------------
# Field domains: no NaN or Inf parameter reaches a sampler, by config or by library
# ---------------------------------------------------------------------------

def _marked(rendered):
    """``(line, numeric)`` pairs of rendered spec or family lines: every line but a ``kind`` is a number."""
    return [(line, not line.split(" = ")[0].endswith(".kind")) for line in rendered.splitlines()]


def _test_section(kind, family):
    """``(line, numeric)`` pairs of a valid ``test.x`` section of ``kind``: 0.5 for a number, ``0.5 1``
    for a list, ``n = 2`` and ``family`` rendered; ``numeric`` marks the lines of domain rows."""
    from idtlab.domains import DOMAINS

    lines = [(f"test.x.kind = {kind.name}", False)]
    for name, parse, default in kind.fields:
        if parse in DOMAINS:
            lines.append((f"test.x.{name} = 0.5", True))
        elif parse.removesuffix("s") in DOMAINS:
            lines.append((f"test.x.{name} = 0.5 1", True))
        elif parse == "family":
            lines += _marked(_render(family, "test.x.family"))
        elif default is None:
            lines.append((f"test.x.{name} = 2", False))
    return lines


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_non_finite_config_number_exits_two_naming_its_field(data):
    """NaN, +inf or -inf in any one number of a spec, family or test row, nested sections included."""
    import tempfile
    from contextlib import redirect_stderr
    from io import StringIO
    from pathlib import Path

    from idtlab.cli import main
    from idtlab.statlab import TEST_KINDS

    if data.draw(st.booleans(), label="in a test section"):
        kind = data.draw(st.sampled_from(list(TEST_KINDS.values())), label="test kind")
        lines = [("spec.kind = stable_line", False), ("spec.alpha = 1.5", False)]
        lines += _test_section(kind, data.draw(_families, label="family"))
    else:
        lines = _marked(_render(data.draw(_specs, label="spec")))
    index = data.draw(st.sampled_from([i for i, (_, numeric) in enumerate(lines) if numeric]), label="line")
    key, value = lines[index][0].split(" = ")
    items = value.split()
    bad = data.draw(st.sampled_from(["nan", "inf", "-inf"]), label="value")
    items[data.draw(st.integers(0, len(items) - 1), label="item")] = bad
    text = "seed = 1\nn_paths = 500\ngrid = 0.5 1 2\n" + "\n".join(
        f"{key} = {' '.join(items)}" if i == index else line for i, (line, _) in enumerate(lines)
    )
    with tempfile.TemporaryDirectory() as tmp:
        conf, out, err = Path(tmp) / "exp.conf", Path(tmp) / "out", StringIO()
        conf.write_text(text + "\n")
        with redirect_stderr(err):
            assert main(["run", str(conf), "--out", str(out), "--threads", "1"]) == 2
        assert err.getvalue().startswith(f"config error: field '{key}': expected ")
        assert err.getvalue().endswith(f", got '{bad}'\n")
        assert not out.exists()


def _numeric_leaves(obj, path=()):
    """Paths to every number of a spec, family or kernel: a field name, or ``(atoms field, atom, item)``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _numeric_leaves(value, path + (f.name,))
        elif isinstance(value, tuple):
            for i in range(len(value)):
                yield from (path + ((f.name, i, j),) for j in range(2))
        else:
            yield path + (f.name,)


def _with_leaf(obj, path, value):
    """``obj`` rebuilt through its constructors with the number at ``path`` set to ``value``."""
    head, rest = path[0], path[1:]
    if isinstance(head, tuple):
        name, i, j = head
        atoms = [list(atom) for atom in getattr(obj, name)]
        atoms[i][j] = value
        return dataclasses.replace(obj, **{name: tuple(map(tuple, atoms))})
    new = _with_leaf(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: new})


@settings(max_examples=200, deadline=None)
@given(_specs, st.data())
def test_non_finite_parameter_never_gives_a_passing_report(spec, data):
    """A library caller's NaN or Inf parameter, at any depth, is refused by a constructor, or its
    spec's idt test fails; it never passes."""
    from idtlab.statlab import idt_test

    path = data.draw(st.sampled_from(list(_numeric_leaves(spec))), label="leaf")
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    try:
        spec = _with_leaf(spec, path, bad)
    except ValueError:
        return
    assert not idt_test(spec, 1.0, 2, GRID, GRID.times, 200, RngState(1), 1.0).passed

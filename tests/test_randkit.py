import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import ndtr

from idtlab.randkit import RngState, StableParams, next_uniform, sample_gamma, sample_normal, sample_stable
from idtlab.statlab import ks_one_sample, ks_two_sample


def test_same_key_reproduces_bit_exactly():
    a = next_uniform(RngState(1, 5), 1000)
    b = next_uniform(RngState(1, 5), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, next_uniform(RngState(1, 6), 1000))
    assert not np.array_equal(a, next_uniform(RngState(2, 5), 1000))


def test_split_streams_are_distinct_and_deterministic():
    root = RngState(99)
    kids = [root.split(i) for i in range(8)]
    streams = {k.stream for k in kids}
    assert len(streams) == 8
    again = [RngState(99).split(i) for i in range(8)]
    for k, g in zip(kids, again):
        assert np.array_equal(next_uniform(k, 100), next_uniform(g, 100))


_U64 = st.integers(0, 2**64 - 1)
_INDEX = st.integers(0, 2**63)


@given(_U64, _U64, _INDEX, st.integers(1, 2**62))
def test_split_gives_distinct_streams_for_distinct_indices(seed, stream, i, delta):
    parent = RngState(seed, stream)
    a, b = parent.split(i), parent.split(i + delta)
    assert a.stream != b.stream
    assert not np.array_equal(next_uniform(a, 4), next_uniform(b, 4))


@given(_U64, _U64, _U64, _U64, _INDEX)
def test_split_gives_distinct_streams_for_distinct_parents(seed_a, stream_a, seed_b, stream_b, i):
    assume((seed_a, stream_a) != (seed_b, stream_b))
    a = RngState(seed_a, stream_a).split(i)
    b = RngState(seed_b, stream_b).split(i)
    assert (a.seed, a.stream) != (b.seed, b.stream)
    assert not np.array_equal(next_uniform(a, 4), next_uniform(b, 4))


def test_uniform_open_interval():
    u = next_uniform(RngState(3), 10**6)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # CLT: the mean of 1e6 uniforms has sd 1/sqrt(12e6) ~ 0.00029
    assert abs(u.mean() - 0.5) < 0.002


def test_uniform_scalar_in_range():
    u = next_uniform(RngState(1))
    assert 0.0 < u < 1.0


def test_normal_moments_and_law():
    x = sample_normal(RngState(11), 10**5)
    # var of the sample variance is ~2/N: 3 sigma ~ 0.0134
    assert abs(x.var() - 1.0) < 0.02
    _, p = ks_one_sample(x, ndtr)
    assert p > 0.01
    assert np.array_equal(x, sample_normal(RngState(11), 10**5))


def test_stable_params_domain():
    with pytest.raises(ValueError):
        StableParams(0.0)
    with pytest.raises(ValueError):
        StableParams(2.5)
    with pytest.raises(ValueError):
        StableParams(1.5, 1.5)
    with pytest.raises(ValueError):
        StableParams(1.0, 0.5)  # asymmetric strictly 1-stable is rejected
    StableParams(1.0, 0.0)
    StableParams(0.7, 1.0)


def test_stable_index2_is_normal_variance_2():
    x = sample_stable(RngState(21), StableParams(2.0), 10**5)
    _, p = ks_one_sample(x, lambda v: ndtr(v / math.sqrt(2.0)))
    assert p > 0.01


def test_stable_index1_is_cauchy():
    x = sample_stable(RngState(22), StableParams(1.0), 10**5)
    _, p = ks_one_sample(x, lambda v: 0.5 + np.arctan(v) / np.pi)
    assert p > 0.01


def test_stable_one_sided_positive():
    x = sample_stable(RngState(23), StableParams(0.7, 1.0), 10**4)
    assert (x > 0).all()
    # Laplace transform of the one-sided law: exp(-lam^a / cos(pi a / 2))
    lam = 1.0
    expected = math.exp(-(lam**0.7) / math.cos(math.pi * 0.7 / 2.0))
    assert abs(np.exp(-lam * x).mean() - expected) < 0.005


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 3])
def test_stable_closure_under_sums(alpha, n):
    # (X_1 + ... + X_n) / n**(1/alpha) must match a fresh draw in law
    root = RngState(31 + n)
    total = sum(sample_stable(root.split(i), StableParams(alpha), 10**5) for i in range(n))
    fresh = sample_stable(root.split(n), StableParams(alpha), 10**5)
    _, p = ks_two_sample(total / n ** (1.0 / alpha), fresh)
    assert p > 0.01


def test_gamma_moments():
    x = sample_gamma(RngState(41), 1.0, 1.0, 10**5)
    assert abs(x.mean() - 1.0) < 0.02  # CLT: 3 sigma ~ 0.0095
    y = sample_gamma(RngState(42), 2.0, 4.0, 10**5)
    assert abs(y.mean() - 0.5) < 0.005  # mean shape/rate, 3 sigma ~ 0.0034
    assert (x >= 0).all()
    assert np.array_equal(x, sample_gamma(RngState(41), 1.0, 1.0, 10**5))


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        sample_gamma(RngState(1), 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_gamma(RngState(1), 1.0, -2.0)
    # an infinite rate would draw zeros, a NaN shape NaNs
    with pytest.raises(ValueError, match="^field 'rate': expected a finite number > 0, got inf$"):
        sample_gamma(RngState(1), 1.0, math.inf)
    with pytest.raises(ValueError, match="^field 'shape': expected a finite number > 0, got nan$"):
        sample_gamma(RngState(1), math.nan, 1.0)


def test_rng_state_domain():
    with pytest.raises(ValueError):
        RngState(-1)
    with pytest.raises(ValueError):
        RngState(2**64)
    with pytest.raises(ValueError):
        RngState(1).split(-1)

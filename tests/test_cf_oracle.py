"""Exact joint characteristic functions of the closed-form spec kinds, fed
through the ``idt`` kind's own views and combine.

The α-IDT identity is ``φ_{X(n^{1/α}t)}(θ) = φ_{X(t)}(θ)^n``, and these
kinds have a closed-form joint CF on any times ``t``:

- ``stable_line``, ``X_t = t S``: ``exp(-|Σ θ_i t_i|^α)``;
- ``power_line``, ``X_t = t^α C``: ``exp(-|Σ θ_i t_i^α|)``;
- a Gaussian kernel: ``exp(-½ θᵀKθ)`` with ``K = cov_matrix(kernel, t)``.

Laid out by ``default_theta_groups``, the population value of the
statistic at the spec's own exponent is zero up to rounding, and at the
exponent + 0.5 (the negative control of acceptance criterion 6) it must
exceed the shipped threshold, or no sample size could reject it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtlab.kernels import FBmKernel, SpectralKernel, SpectralMeasure, cov_matrix
from idtlab.processes import GaussianKernel, PowerLine, StableLine
from idtlab.statlab import TEST_KINDS, default_theta_groups
from idtlab.thresholds import ThresholdTable

IDT = TEST_KINDS["idt"]
GRID = [0.5, 1.0, 2.0]  # the calibration grid of every shipped entry


def _joint_cf(spec, times, thetas):
    """The exact CF of ``spec`` at ``times`` for each row of ``thetas``."""
    if isinstance(spec, StableLine):
        return np.exp(-np.abs(thetas @ times) ** spec.alpha)
    if isinstance(spec, PowerLine):
        return np.exp(-np.abs(thetas @ times**spec.alpha))
    k = cov_matrix(spec.kernel, times)
    return np.exp(-0.5 * np.einsum("ri,ij,rj->r", thetas, k, thetas))


def _view_cf(spec, times, view):
    """The exact CF vector of one ``(split, dilation, scale, copies)`` view, in the ECF vector's layout."""
    _, dilation, scale, copies = view
    t = dilation * np.asarray(times, dtype=np.float64)
    groups = default_theta_groups(len(t))
    return np.concatenate([_joint_cf(spec, t[list(cols)], scale * thetas) ** copies for cols, thetas in groups])


def _discrepancy(spec, times, n, alpha, mode="power"):
    """The population statistic of ``idt`` on ``spec``: the largest modulus of its combine."""
    fields = IDT.typed({"n": n, "alpha": alpha, "mode": mode})
    vectors = [_view_cf(spec, times, view) for view in IDT.views(fields)]
    return float(np.abs(IDT.combine(fields, *vectors)).max())


# Each kind inside its domain, at sizes near the shipped specs: a phase or quadratic form whose terms
# have size S and cancel keeps about S * 1e-16 of rounding, so larger exponents, weights or dilations
# n^(1/α) leave more (a spectral kernel of alpha 0.2 at n = 3 gave 1.5e-14).
_specs = st.one_of(
    st.floats(0.5, 2.0).map(StableLine),
    st.floats(0.5, 2.0).map(PowerLine),
    st.floats(0.25, 0.95).map(lambda h: GaussianKernel(FBmKernel(h))),
    st.builds(
        lambda alpha, atoms: GaussianKernel(SpectralKernel(alpha, SpectralMeasure.symmetric(atoms))),
        st.floats(0.5, 2.0),
        st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 0.5)), min_size=1, max_size=3, unique_by=lambda a: a[0]),
    ),
)
_times = st.lists(st.sampled_from(GRID), min_size=1, max_size=3, unique=True).map(sorted)


@settings(max_examples=100, deadline=None)
@given(_specs, _times, st.sampled_from([2, 3]), st.sampled_from(["power", "sum"]))
def test_identity_holds_exactly_at_the_spec_exponent(spec, times, n, mode):
    assert _discrepancy(spec, times, n, spec.idt_exponent, mode) <= 1e-14


# the shipped entries of these kinds, each at all the grid's times
SHIPPED = {
    "idt2_stable15": (StableLine(1.5), 2),
    "idt3_stable15": (StableLine(1.5), 3),
    "idt2_stable1": (StableLine(1.0), 2),
    "idt2_fbm03": (GaussianKernel(FBmKernel(0.3)), 2),
    "idt3_fbm03": (GaussianKernel(FBmKernel(0.3)), 3),
    "idt2_powerline": (PowerLine(0.7), 2),
    "idt2_spectral": (GaussianKernel(SpectralKernel(1.0, SpectralMeasure.symmetric([(1.0, 1.0)]))), 2),
}


@pytest.mark.parametrize("name", SHIPPED)
def test_negative_control_exceeds_its_shipped_threshold(name):
    spec, n = SHIPPED[name]
    table = ThresholdTable.default()
    params = IDT.fill({"n": n, "grid": GRID, "times": GRID}, spec)
    threshold = table.lookup(IDT.key(spec, 20000, table.meta["quantile"], params))
    assert _discrepancy(spec, GRID, n, spec.idt_exponent + 0.5) > threshold

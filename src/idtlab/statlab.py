"""Statistical verification of distributional identities between ensembles.

Every identity is checked in characteristic-function space: empirical
characteristic functions (ECFs) are bounded by 1 regardless of tails, so
the same machinery covers Gaussian and heavy-tailed families alike.  A
test statistic is the maximum modulus of an ECF discrepancy over a fixed
grid of frequency vectors; its acceptance threshold comes from
``calibrate``, which replays the test under a true-null configuration
and returns an empirical quantile of the statistic.

ECF evaluation is the cost every replay repeats, so the default grid
takes a product-form kernel.  Its magnitudes are
``THETA_COMPONENTS = 0.25 * 2**j`` and its pair frequencies are
``(a, +-b)``, so every value is built from the unit phasors
``exp(i*c*x)``: one ``cos``/``sin`` pair of ``0.25*x`` per path and
time, then three complex squarings (``z(2c) = z(c)**2``) and
conjugation for the negative magnitudes.  A single-time ECF is the mean
of a phasor row; a pair ECF is ``[Z_k Z_l^T, Z_k conj(Z_l)^T] / N``,
formed as one 4x8 matrix product.  For three times that is 3 ``cos``/
``sin`` pairs per path instead of 108, one per frequency vector.  Any
other frequency array, including every custom ``thetas``, takes the
direct kernel: ``cos``/``sin`` of ``values @ thetas.T``.

The product kernel writes its phasors into a per-thread workspace
(``threading.local``) of ``8 * 16 * N`` bytes per column, kept for the
life of the thread and regrown only when a call needs more; every
returned ECF array is fresh.  So replays reuse the same pages instead of
faulting in new ones, and the distance tests reduce each ensemble to its
ECFs before generating the next, which keeps one ensemble alive beside
the workspace.

Each test kind has one ``TestKind`` entry in ``TEST_KINDS``: its config
fields and defaults, its threshold-key fields, its preconditions and how
to run it.  The CLI and ``calibrate`` read everything from the entry, so
adding a kind takes one entry plus its public ``*_test`` function, which
for a distance test is a thin wrapper over ``_spec_report``: the ensembles
to draw, each on its own ``rng.split`` index, and how to combine their
ECFs.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import sub

import numpy as np

from .processes import (
    PathEnsemble,
    TimeGrid,
    additive_paths,
    generate,
    spec_label,
)
from .randkit import RngState
from .report import TestReport
from .transforms import lamperti_apply, scale_paths, sum_independent

THETA_COMPONENTS = (0.25, 0.5, 1.0, 2.0)
DEFAULT_THETA_ID = "m12:0.25-2"

# The product kernel derives each magnitude from the previous one by a
# complex squaring, so the components must double from the first.
assert THETA_COMPONENTS == tuple(
    THETA_COMPONENTS[0] * 2.0**j for j in range(len(THETA_COMPONENTS))
)

_SIGNED_COMPONENTS = THETA_COMPONENTS + tuple(-c for c in THETA_COMPONENTS)
_SINGLE_THETAS = np.array(THETA_COMPONENTS).reshape(-1, 1)
_PAIR_THETAS = np.array([(a, b) for a in THETA_COMPONENTS for b in _SIGNED_COMPONENTS])
_SINGLE_THETAS.setflags(write=False)
_PAIR_THETAS.setflags(write=False)


@dataclass(frozen=True)
class EcfEvaluation:
    """Empirical characteristic function values on a frequency grid."""

    times: tuple
    theta_points: np.ndarray
    values: np.ndarray
    n_samples: int

    def __post_init__(self):
        if self.theta_points.shape[0] != self.values.shape[0]:
            raise ValueError("one value per frequency vector required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ECF values must be finite")
        if np.any(np.abs(self.values) > 1.0 + 1e-12):
            raise ValueError("ECF modulus exceeded 1")


def _direct_ecf(values_sub: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """ECF of the column-subset matrix at each row of ``thetas``."""
    phases = values_sub @ thetas.T
    return np.cos(phases).mean(axis=0) + 1j * np.sin(phases).mean(axis=0)


def _phasors(x: np.ndarray, z: np.ndarray) -> None:
    """Fill row ``j`` of ``z`` with ``exp(i*s*x)``, ``s = _SIGNED_COMPONENTS[j]``."""
    k = len(THETA_COMPONENTS)
    arg = THETA_COMPONENTS[0] * x
    z[0].real = np.cos(arg)
    z[0].imag = np.sin(arg)
    for j in range(1, k):
        np.square(z[j - 1], out=z[j])
    np.conjugate(z[:k], out=z[k:])


_workspace = threading.local()


def _phasor_slots(n_slots: int, n: int) -> np.ndarray:
    """This thread's ``(n_slots, 8, n)`` phasor workspace.

    The backing buffer lives as long as the thread and is replaced only
    when a call needs more than it holds.
    """
    size = n_slots * len(_SIGNED_COMPONENTS) * n
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size, dtype=np.complex128)
    return buf[:size].reshape(n_slots, len(_SIGNED_COMPONENTS), n)


def _group_ecfs(values: np.ndarray, col_of, groups):
    """ECF values of each ``(cols, thetas)`` group on ``values[:, col_of[c]]``.

    Default-grid groups take the product kernel, with phasors computed
    once per column into this thread's workspace and shared by every
    group of the call; any other frequency array takes the direct
    kernel.  Every returned array is freshly allocated, never a view of
    the workspace.
    """
    n = values.shape[0]
    k = len(THETA_COMPONENTS)
    slot_of = {}
    slots = None

    def z(col):
        nonlocal slots
        if col not in slot_of:
            if slots is None:
                slots = _phasor_slots(len(col_of), n)
            slot_of[col] = len(slot_of)
            _phasors(values[:, col], slots[slot_of[col]])
        return slots[slot_of[col]]

    out = []
    for cols, thetas in groups:
        cols = [col_of[c] for c in cols]
        if len(cols) == 1 and np.array_equal(thetas, _SINGLE_THETAS):
            out.append(z(cols[0])[:k].mean(axis=1))
        elif len(cols) == 2 and np.array_equal(thetas, _PAIR_THETAS):
            out.append((z(cols[0])[:k] @ z(cols[1]).T).ravel() / n)
        else:
            out.append(_direct_ecf(values[:, cols], thetas))
    return out


def ecf(ensemble: PathEnsemble, time_indices, thetas) -> EcfEvaluation:
    """ECF of the ensemble at a subset of at most three grid times.

    ``thetas`` is a (K, m) array of frequency vectors, one component per
    selected time.  The value at the zero vector is exactly 1, and
    conjugating the frequencies conjugates the value.
    """
    idx = [int(i) for i in time_indices]
    if not 1 <= len(idx) <= 3:
        raise ValueError("time subset must have between 1 and 3 entries")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if thetas.size == 0:
        raise ValueError("need at least one frequency vector")
    if thetas.shape[1] != len(idx):
        raise ValueError(
            f"frequency vectors have {thetas.shape[1]} components, expected {len(idx)}"
        )
    return EcfEvaluation(
        times=tuple(float(ensemble.grid.times[i]) for i in idx),
        theta_points=thetas,
        values=_group_ecfs(ensemble.values, idx, [(range(len(idx)), thetas)])[0],
        n_samples=ensemble.n_paths,
    )


def default_theta_groups(m_total: int):
    """Frequency groups: all single times and all time pairs.

    Components come from ``THETA_COMPONENTS``; the leading component is
    kept positive because ensembles are real, so the ECF at ``-theta`` is
    the conjugate and carries no extra information.
    """
    groups = [((k,), _SINGLE_THETAS) for k in range(m_total)]
    for k in range(m_total):
        for l in range(k + 1, m_total):
            groups.append(((k, l), _PAIR_THETAS))
    return groups


def _time_indices(grid: TimeGrid, times) -> list:
    out = []
    for t in times:
        hits = np.nonzero(np.abs(grid.times - t) <= 1e-12 * max(1.0, abs(t)))[0]
        if hits.size == 0:
            raise ValueError(f"time {t} is not on the grid {grid.times.tolist()}")
        out.append(int(hits[0]))
    return out


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution."""
    # not scipy.special.kolmogorov: importing scipy would add about 0.3 s to every command
    if x <= 0:
        return 1.0
    if x < 0.4:
        # theta-function form; the alternating series converges too slowly here
        total = 0.0
        for k in range(1, 20):
            total += math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * x * x))
        return float(min(max(1.0 - math.sqrt(2.0 * math.pi) / x * total, 0.0), 1.0))
    total = 0.0
    for k in range(1, 200):
        term = math.exp(-2.0 * (k * x) ** 2)
        total += -term if k % 2 == 0 else term
        if term < 1e-18:
            break
    return float(min(max(2.0 * total, 0.0), 1.0))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    return d, _kolmogorov_sf(en * d)


def ks_one_sample(x, cdf):
    """One-sample Kolmogorov-Smirnov test against a callable CDF."""
    xs = np.sort(np.asarray(x, dtype=np.float64).ravel())
    if xs.size == 0:
        raise ValueError("sample must be nonempty")
    n = xs.size
    f = np.asarray(cdf(xs), dtype=np.float64)
    d_plus = float((np.arange(1, n + 1) / n - f).max())
    d_minus = float((f - np.arange(0, n) / n).max())
    d = max(d_plus, d_minus)
    return d, _kolmogorov_sf(math.sqrt(n) * d)


# ---------------------------------------------------------------------------
# Preconditions, shared by the public tests and the CLI's config checks
# ---------------------------------------------------------------------------


def _at_least_two(n) -> int:
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return n


def _check_exponent(alpha) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"exponent must be finite and > 0, got {alpha}")


def _check_mode(mode) -> None:
    if mode not in ("power", "sum"):
        raise ValueError(f"unknown mode {mode!r}")


def _at_most_three(times) -> None:
    if len(times) > 3:
        raise ValueError("at most three comparison times")


def _check_dilation(a) -> None:
    if not a > 0 or a == 1.0:
        raise ValueError(f"dilation must be positive and != 1, got {a}")


def _check_fraction(b) -> None:
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must be inside (0, 1), got {b}")


def _check_window(window, shift, n_times: int) -> tuple:
    window = int(window)
    shift = int(shift)
    if not 1 <= window <= 3:
        raise ValueError(f"window must have 1 to 3 points, got {window}")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if window + shift > n_times:
        raise ValueError(f"window {window} + shift {shift} exceeds grid size {n_times}")
    return window, shift


def _check_replays(n_reps, quantile: float) -> int:
    n_reps = int(n_reps)
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    if quantile < 1.0 and n_reps < 1.0 / (1.0 - quantile):
        raise ValueError(f"{n_reps} repetitions cannot resolve the {quantile} quantile")
    return n_reps


# ---------------------------------------------------------------------------
# Distance tests in characteristic-function space
# ---------------------------------------------------------------------------


def _distance_report(name, views, n_times, thetas, combine, threshold, n_samples, seed, details):
    """Report of the largest ``|combine(ECF_0, ECF_1, ...)|`` over the frequency groups.

    ``views`` are ``(draw, idx)`` pairs: ``draw()`` returns a value matrix
    and ``idx`` the columns compared.  Each view is reduced to its ECFs
    before the next is drawn, so at most one ensemble is alive at a time.
    """
    if thetas is None:
        groups, theta_id = default_theta_groups(n_times), DEFAULT_THETA_ID
    else:
        groups, theta_id = thetas, "custom"
    ecfs = [_group_ecfs(draw(), idx, groups) for draw, idx in views]
    # the largest modulus over every group's discrepancy; NaN anywhere gives NaN
    statistic = float(np.abs(np.concatenate([combine(*parts) for parts in zip(*ecfs)])).max())
    return TestReport.from_distance(
        name=name,
        statistic=statistic,
        threshold=threshold,
        n_samples=n_samples,
        seed=seed,
        details={**details, "theta_grid": theta_id},
    )


def _spec_report(kind, spec, grid, times, n_paths, rng, threshold, thetas, draws, combine, details):
    """``_distance_report`` over ensembles ``draw(grid)`` of ``spec`` at ``times``.

    Each draw takes its own ``rng.split`` index, so the order in which
    they run does not change the result.
    """
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(grid)
    idx = _time_indices(grid, times)
    views = [(lambda draw=draw: draw(grid).values, idx) for draw in draws]
    details = {**details, "times": [float(t) for t in times], "stream": rng.stream}
    return _distance_report(
        f"{kind}[{spec_label(spec)}]", views, len(idx), thetas, combine,
        threshold, n_paths, rng.seed, details,
    )


def idt_test(
    spec,
    alpha: float,
    n: int,
    grid: TimeGrid,
    times,
    n_paths: int,
    rng: RngState,
    threshold: float,
    thetas=None,
    mode: str = "power",
) -> TestReport:
    """Check the dividing-time identity at exponent ``alpha``.

    Compares the ECF of a fresh ensemble on the grid dilated by
    ``n**(1/alpha)`` against the n-th power of the ECF on the base grid
    (the power of a characteristic function is the n-fold convolution).
    ``mode="sum"`` replaces the power by the ECF of an actual pointwise
    sum of ``n`` independent ensembles, as a cross-check.
    """
    n = _at_least_two(n)
    _check_exponent(alpha)
    _check_mode(mode)
    _at_most_three(times)
    if mode == "power":
        reference = lambda g: generate(spec, g, n_paths, rng.split(0))
        combine = lambda got, ref: got - ref**n
    else:
        reference = lambda g: sum_independent(spec, n, g, n_paths, rng.split(0))
        combine = sub
    draws = [lambda g: generate(spec, g.scale(n ** (1.0 / alpha)), n_paths, rng.split(1)), reference]
    details = {"alpha": float(alpha), "n": n, "mode": mode}
    return _spec_report("idt", spec, grid, times, n_paths, rng, threshold, thetas, draws, combine, details)


def selfsimilarity_test(
    spec,
    h: float,
    a: float,
    grid: TimeGrid,
    times,
    n_paths: int,
    rng: RngState,
    threshold: float,
    thetas=None,
) -> TestReport:
    """Check ``X(a*t) = a**h * X(t)`` in law via ECF distance."""
    _check_dilation(a)
    draws = [
        lambda g: generate(spec, g.scale(a), n_paths, rng.split(0)),
        lambda g: scale_paths(generate(spec, g, n_paths, rng.split(1)), a**h),
    ]
    details = {"h": float(h), "a": float(a)}
    return _spec_report(
        "selfsimilarity", spec, grid, times, n_paths, rng, threshold, thetas, draws, sub, details
    )


def stability_test(
    spec,
    beta_index: float,
    n: int,
    grid: TimeGrid,
    times,
    n_paths: int,
    rng: RngState,
    threshold: float,
    thetas=None,
) -> TestReport:
    """Check strict stability: n-fold sum matches ``n**(1/beta) * X`` in law."""
    n = _at_least_two(n)
    draws = [
        lambda g: sum_independent(spec, n, g, n_paths, rng.split(0)),
        lambda g: scale_paths(generate(spec, g, n_paths, rng.split(1)), n ** (1.0 / beta_index)),
    ]
    details = {"beta": float(beta_index), "n": n}
    return _spec_report(
        "stability", spec, grid, times, n_paths, rng, threshold, thetas, draws, sub, details
    )


def stationarity_test(
    ensemble: PathEnsemble,
    window: int,
    shift: int,
    threshold: float,
    thetas=None,
) -> TestReport:
    """Compare ECFs over two windows of a (log-time transformed) ensemble."""
    window, shift = _check_window(window, shift, ensemble.n_times)
    views = [(lambda: ensemble.values, [i + s for i in range(window)]) for s in (0, shift)]
    return _distance_report(
        "stationarity", views, window, thetas, sub, threshold,
        ensemble.n_paths, ensemble.seed, {"window": window, "shift": shift},
    )


def temporal_sd_test(
    spec,
    alpha: float,
    b: float,
    grid: TimeGrid,
    times,
    n_paths: int,
    rng: RngState,
    threshold: float,
    thetas=None,
) -> TestReport:
    """Check the time-scale factorization of the joint CF.

    For a process dividing time at exponent ``alpha``, the CF at times t
    equals the product of the CFs at ``b**(1/alpha) * t`` and
    ``(1-b)**(1/alpha) * t``.  Three independent ensembles estimate the
    three factors; passing exhibits the scaled-copy-plus-residual
    decomposition with ratio ``b**(1/alpha)``.
    """
    _check_fraction(b)
    _check_exponent(alpha)
    draws = [
        lambda g: generate(spec, g, n_paths, rng.split(0)),
        lambda g: generate(spec, g.scale(b ** (1.0 / alpha)), n_paths, rng.split(1)),
        lambda g: generate(spec, g.scale((1.0 - b) ** (1.0 / alpha)), n_paths, rng.split(2)),
    ]
    details = {"alpha": float(alpha), "b": float(b)}
    return _spec_report(
        "temporal_sd", spec, grid, times, n_paths, rng, threshold, thetas, draws,
        lambda whole, part, rest: whole - part * rest, details,
    )


def association_test(
    spec,
    family,
    alpha: float,
    t_list,
    n_paths: int,
    rng: RngState,
    level: float = 0.01,
) -> TestReport:
    """Marginal match between the spec and the clock-deformed Levy process.

    Two-sample KS at every requested time, Bonferroni-corrected: passes
    iff each p-value is at least ``level / len(t_list)``.
    """
    grid = TimeGrid(t_list)
    left = generate(spec, grid, n_paths, rng.split(0))
    right = additive_paths(family, alpha, grid, n_paths, rng.split(1))
    p_values = []
    for j in range(len(grid)):
        _, p = ks_two_sample(left.values[:, j], right.values[:, j])
        p_values.append(p)
    p_min = min(p_values)
    return TestReport.from_pvalue(
        name=f"association[{spec_label(spec)}]",
        p_value=p_min,
        level=level / len(p_values),
        n_samples=n_paths,
        seed=rng.seed,
        details={
            "alpha": float(alpha),
            "times": [float(t) for t in t_list],
            "p_values": p_values,
            "level": level,
            "stream": rng.stream,
        },
    )


def cov_estimate(ensemble: PathEnsemble) -> np.ndarray:
    """Uncentered sample covariance (the processes are centered by design)."""
    if ensemble.n_paths < 2:
        raise ValueError("need at least 2 paths to estimate a covariance")
    v = ensemble.values
    m = v.T @ v / ensemble.n_paths
    return (m + m.T) / 2.0


# ---------------------------------------------------------------------------
# Test kinds: what the CLI and ``calibrate`` read about each test
# ---------------------------------------------------------------------------

_SPEC_EXPONENT = object()  # field default: the spec's own ``idt_exponent``


@dataclass(frozen=True)
class TestKind:
    """One test kind: its config fields, threshold key and how to run it.

    ``fields`` are ``(name, type, default)`` triples.  ``type`` is one of
    ``"int"``, ``"float"``, ``"str"``, ``"floats"`` and ``"family"``;
    ``default`` is ``None`` for a required field, ``_SPEC_EXPONENT`` for
    the spec's ``idt_exponent``, or a literal.  A kind that ``uses_times``
    also reads ``grid`` and ``times`` (by default the whole grid), and both
    go into its threshold key next to ``key_fields``.  Each check
    ``(fields, rule)`` raises ``ValueError`` from ``rule(params)`` when those
    fields break the test's precondition.  ``run(spec, params, n_paths, rng,
    threshold)`` calls the public test function.  Only ``calibrated`` kinds
    have null-replay thresholds.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    fields: tuple
    run: Callable
    key_fields: tuple = ()
    checks: tuple = ()
    uses_times: bool = True
    calibrated: bool = True

    def fill(self, params: dict, spec) -> dict:
        """``params`` with each missing optional field at its default."""
        out = dict(params)
        for name, _, default in self.fields:
            if name not in out and default is not None:
                out[name] = spec.idt_exponent if default is _SPEC_EXPONENT else default
        return out


def _run_stationarity(spec, p, n_paths, rng, threshold):
    y = np.asarray(p["y_grid"], dtype=np.float64)
    ensemble = generate(spec, TimeGrid(np.exp(y)), n_paths, rng)
    return stationarity_test(lamperti_apply(ensemble, p["alpha"], y), p["window"], p["shift"], threshold)


_ON_GRID = (("times",), lambda p: _time_indices(TimeGrid(p["grid"]), p["times"]))
_N_AT_LEAST_TWO = (("n",), lambda p: _at_least_two(p["n"]))
_EXPONENT = (("alpha",), lambda p: _check_exponent(p["alpha"]))

TEST_KINDS = {
    kind.name: kind
    for kind in (
        TestKind(
            "idt",
            fields=(("n", "int", None), ("alpha", "float", _SPEC_EXPONENT), ("mode", "str", "power")),
            key_fields=("n", "mode"),
            checks=(
                _N_AT_LEAST_TWO,
                _EXPONENT,
                (("mode",), lambda p: _check_mode(p["mode"])),
                _ON_GRID,
                (("times",), lambda p: _at_most_three(p["times"])),
            ),
            run=lambda spec, p, n_paths, rng, threshold: idt_test(
                spec, p["alpha"], p["n"], p["grid"], p["times"], n_paths, rng, threshold, mode=p["mode"]
            ),
        ),
        TestKind(
            "selfsimilarity",
            fields=(("h", "float", None), ("a", "float", None)),
            key_fields=("a",),
            checks=((("a",), lambda p: _check_dilation(p["a"])), _ON_GRID),
            run=lambda spec, p, n_paths, rng, threshold: selfsimilarity_test(
                spec, p["h"], p["a"], p["grid"], p["times"], n_paths, rng, threshold
            ),
        ),
        TestKind(
            "stability",
            fields=(("beta", "float", None), ("n", "int", None)),
            key_fields=("n",),
            checks=(_N_AT_LEAST_TWO, _ON_GRID),
            run=lambda spec, p, n_paths, rng, threshold: stability_test(
                spec, p["beta"], p["n"], p["grid"], p["times"], n_paths, rng, threshold
            ),
        ),
        TestKind(
            "temporal_sd",
            fields=(("b", "float", None), ("alpha", "float", _SPEC_EXPONENT)),
            key_fields=("b",),
            checks=((("b",), lambda p: _check_fraction(p["b"])), _EXPONENT, _ON_GRID),
            run=lambda spec, p, n_paths, rng, threshold: temporal_sd_test(
                spec, p["alpha"], p["b"], p["grid"], p["times"], n_paths, rng, threshold
            ),
        ),
        TestKind(
            "stationarity",
            fields=(
                ("y_grid", "floats", None),
                ("window", "int", 2),
                ("shift", "int", 1),
                ("alpha", "float", _SPEC_EXPONENT),
            ),
            key_fields=("y_grid", "window", "shift"),
            checks=(
                (("y_grid",), lambda p: TimeGrid(np.exp(p["y_grid"]))),
                (("window", "shift"), lambda p: _check_window(p["window"], p["shift"], len(p["y_grid"]))),
                _EXPONENT,
            ),
            run=_run_stationarity,
            uses_times=False,
        ),
        TestKind(
            "association",
            fields=(("alpha", "float", None), ("level", "float", 0.01), ("family", "family", None)),
            checks=((("times",), lambda p: TimeGrid(p["times"])), _EXPONENT),
            run=lambda spec, p, n_paths, rng, threshold: association_test(
                spec, p["family"], p["alpha"], p["times"], n_paths, rng, level=p["level"]
            ),
            calibrated=False,
        ),
    )
}


# ---------------------------------------------------------------------------
# Threshold calibration
# ---------------------------------------------------------------------------


def calibrate(
    null_spec,
    kind: str,
    n_reps: int,
    quantile: float,
    rng: RngState,
    n_paths: int,
    threads: int = 1,
    **params,
) -> float:
    """Empirical null quantile of a test statistic, used as its threshold.

    Replays the named test ``n_reps`` times under the true-null
    configuration with fresh substreams and returns the requested
    empirical quantile (``method="higher"``: never below the nominal
    coverage, monotone in the quantile).
    """
    n_reps = _check_replays(n_reps, quantile)
    test = TEST_KINDS.get(kind)
    if test is None or not test.calibrated:
        raise ValueError(f"unknown test kind {kind!r}")
    params = test.fill(params, null_spec)

    def one(rep: int) -> float:
        return test.run(null_spec, params, n_paths, rng.split(rep), float("inf")).statistic

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            stats = list(pool.map(one, range(n_reps)))
    else:
        stats = [one(rep) for rep in range(n_reps)]
    return float(np.quantile(np.asarray(stats), quantile, method="higher"))

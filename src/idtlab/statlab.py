"""Statistical verification of distributional identities between ensembles.

Every identity is checked in characteristic-function space: empirical
characteristic functions (ECFs) are bounded by 1 regardless of tails, so
the same machinery covers Gaussian and heavy-tailed families alike.  A
test statistic is the maximum modulus of an ECF discrepancy over one
fixed grid of frequency vectors, the default grid of
``default_theta_groups``; its acceptance threshold comes from
``calibrate``, which replays the test under a true-null configuration
and returns an empirical quantile of the statistic.

ECF evaluation is the cost every replay repeats, so the default grid
takes a product-form kernel, ``_ecf_vector``.  Its magnitudes are
``THETA_COMPONENTS = 0.25 * 2**j`` and its pair frequencies are
``(a, +-b)``, so every value is built from ``cos`` and ``sin`` of
``c*x``.  One ``t = tan(0.125*x)`` per path and time gives those of
``0.25*x`` by the half-angle identities ``cos = (1 - t**2)/(1 + t**2)``
and ``sin = 2*t/(1 + t**2)`` (numpy vectorises float64 ``tan``, not
``cos`` and ``sin``; the results stay within 2.2e-16 absolute of
``np.cos`` and ``np.sin``), then three
real double-angle steps (``c**2 - s**2`` and ``2*c*s``) give the larger
magnitudes.  A single-time ECF is a row sum of ``[C; S]``; a pair ECF
comes from one 8x8 real product ``[C_k; S_k] @ [C_l; S_l]^T``, whose
four blocks give ``Z_k Z_l^T = (CC - SS) + i(CS + SC)`` and
``Z_k conj(Z_l)^T = (CC + SS) + i(SC - CS)``.  For three times that is
3 ``tan`` calls per path instead of 108 ``cos``/``sin`` pairs, one per
frequency vector.  The distance tests always use the default grid.
Arbitrary frequencies go through ``ecf()`` only, which takes the direct
kernel for any array other than the default single or pair grid:
``cos``/``sin`` of ``values @ thetas.T``.  It returns the complex values
as a plain array and raises ``ValueError`` on a value that is not finite
or whose modulus exceeds 1.  ECF values may differ at the
ulp level between numpy builds whose float64 ``tan`` differs.

The product kernel streams the rows through one fixed block per thread
(``threading.local``): ``_ECF_BLOCK_ROWS`` = 8,192 rows of ``[C; S]``,
512 KiB per column in use (``_ECF_BLOCK_BYTES`` = 1 MiB for a pair), so
1.5 MiB for three times at any number of paths, inside a 2 MiB L2
cache.  The block is kept for the life of the thread and regrown only
when a call compares more columns.  The sums of the blocks are added in
row order, so a result does not depend on the thread, and every returned
ECF array is fresh.  The distance tests reduce each ensemble to one flat
ECF vector before generating the next, which keeps one ensemble alive
beside the block, and take the statistic over the whole vector at once.

Each test kind has one ``TestKind`` entry in ``TEST_KINDS``: its config
fields and defaults, its threshold key, its true null, its preconditions
and how to run it.  A kind that compares ensembles of its spec also
states their ``views`` (each a substream, grid dilation, value scale and
count of summed copies) and the ``combine`` of their ECF vectors
(``got - ref``, ``got - ref**n`` or ``whole - part*rest``), and its
public ``*_test`` function is one call of ``_distance_test``.  The CLI
and ``calibrate`` read everything from the entry.  ``calibrate``'s
replays run through ``_map``, on a pool of worker threads when asked for
more than one; ``idtlab run`` runs its tests in config order on the
calling thread, since a pool overlapped little of their work and held a
second ECF block.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .processes import (
    AdditiveTimeChange,
    PathEnsemble,
    TimeGrid,
    generate,
    spec_label,
)
from .randkit import RngState
from .report import TestReport
from .thresholds import DEFAULT_THETA_ID, entry_key
from .transforms import lamperti_apply, sum_independent

THETA_COMPONENTS = (0.25, 0.5, 1.0, 2.0)

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


def _direct_ecf(values_sub: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """ECF of the column-subset matrix at each row of ``thetas``."""
    # an infinite value gives NaN, which ecf() turns into its ValueError
    with np.errstate(invalid="ignore"):
        phases = values_sub @ thetas.T
        return np.cos(phases).mean(axis=0) + 1j * np.sin(phases).mean(axis=0)


# a block holds 8 float64 rows, [cos; sin], for each column in use; the
# two columns of a pair fill _ECF_BLOCK_BYTES, so its rows are 8,192
_ECF_BLOCK_BYTES = 1 << 20
_ECF_BLOCK_ROWS = _ECF_BLOCK_BYTES // (2 * len(_SIGNED_COMPONENTS) * 8)


def _phasor_block(rows: np.ndarray, cols, w: np.ndarray) -> None:
    """Fill ``w[i]`` (8, r) with ``[cos; sin]`` of ``c * rows[:, cols[i]]``, ``c`` in ``THETA_COMPONENTS``."""
    k = len(THETA_COMPONENTS)
    c, s = w[:, :k], w[:, k:]
    # half angle: with t = tan(a/2), cos a = (1 - t^2)/(1 + t^2) and
    # sin a = 2t/(1 + t^2); numpy vectorises float64 tan, not cos and sin.
    # Halving is exact, and slots 1-3 of c are scratch until the steps below.
    t, t2, d = c[:, 1], c[:, 2], c[:, 3]
    for i, col in enumerate(cols):
        np.multiply(rows[:, col], 0.5 * THETA_COMPONENTS[0], out=t[i])
    with np.errstate(invalid="ignore"):  # tan(+-inf) is NaN, the caller's to report
        np.tan(t, out=t)
    np.multiply(t, t, out=t2)
    np.add(t2, 1.0, out=d)
    np.subtract(1.0, t2, out=c[:, 0])
    np.divide(c[:, 0], d, out=c[:, 0])
    np.add(t, t, out=s[:, 0])
    np.divide(s[:, 0], d, out=s[:, 0])
    for j in range(1, k):
        # double angle: cos 2a = cos^2 a - sin^2 a, sin 2a = 2 cos a sin a
        np.multiply(c[:, j - 1], c[:, j - 1], out=c[:, j])
        np.multiply(s[:, j - 1], s[:, j - 1], out=s[:, j])
        np.subtract(c[:, j], s[:, j], out=c[:, j])
        np.multiply(c[:, j - 1], s[:, j - 1], out=s[:, j])
        np.add(s[:, j], s[:, j], out=s[:, j])


_workspace = threading.local()


def _phasor_slots(n_slots: int) -> np.ndarray:
    """This thread's ``(n_slots, 8, _ECF_BLOCK_ROWS)`` phasor block.

    The backing buffer lives as long as the thread and is replaced only
    when a call compares more columns than it holds.
    """
    size = n_slots * len(_SIGNED_COMPONENTS) * _ECF_BLOCK_ROWS
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size, dtype=np.float64)
    return buf[:size].reshape(n_slots, len(_SIGNED_COMPONENTS), _ECF_BLOCK_ROWS)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """A fresh complex array ``re + i*im``."""
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def _ecf_vector(values: np.ndarray, cols) -> np.ndarray:
    """Every single-time ECF, then every time-pair ECF, of ``values[:, cols]``.

    The layout is that of ``default_theta_groups(len(cols))``.  The rows
    pass through this thread's phasor block ``_ECF_BLOCK_ROWS`` at a time,
    each distinct column once per block, and the single and pair ECFs sum
    from the same block.  The returned vector is freshly allocated, never
    a view of the block.
    """
    n = values.shape[0]
    k = len(THETA_COMPONENTS)
    # a repeated column takes one slot, so its pair is one product of a slot with itself
    distinct = list(dict.fromkeys(cols))
    slot = [distinct.index(c) for c in cols]
    pairs = [(slot[a], slot[b]) for a in range(len(cols)) for b in range(a + 1, len(cols))]
    slots = _phasor_slots(len(distinct))
    row_sums = np.zeros((len(distinct), 2 * k))
    pair_sums = np.zeros((len(pairs), 2 * k, 2 * k))
    for start in range(0, n, _ECF_BLOCK_ROWS):
        stop = min(n, start + _ECF_BLOCK_ROWS)
        w = slots[:, :, : stop - start]
        _phasor_block(values[start:stop], distinct, w)
        row_sums += w.sum(axis=2)
        for acc, (a, b) in zip(pair_sums, pairs):
            acc += w[a] @ w[b].T  # [C_a; S_a] @ [C_b; S_b]^T

    singles = row_sums[slot] / n
    cc, cs = pair_sums[:, :k, :k], pair_sums[:, :k, k:]
    sc, ss = pair_sums[:, k:, :k], pair_sums[:, k:, k:]
    # Z_a Z_b^T beside Z_a conj(Z_b)^T, in the row layout of _PAIR_THETAS
    pair_re = np.concatenate([cc - ss, cc + ss], axis=2) / n
    pair_im = np.concatenate([cs + sc, sc - cs], axis=2) / n
    re = np.concatenate([singles[:, :k].ravel(), pair_re.ravel()])
    im = np.concatenate([singles[:, k:].ravel(), pair_im.ravel()])
    return _complex(re, im)


def ecf(ensemble: PathEnsemble, time_indices, thetas) -> np.ndarray:
    """ECF of the ensemble at a subset of at most three grid times.

    ``thetas`` is a (K, m) array of frequency vectors, one component per
    selected time; the result is the K complex values in row order.  The
    value at the zero vector is exactly 1, and conjugating the frequencies
    conjugates the value.  A NaN or Inf in a selected column raises
    ``ValueError``.  This is the one entry point for arbitrary
    frequencies: the default single or pair grid returns its slice of
    ``_ecf_vector``, any other array the direct formula.
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
    default = {1: _SINGLE_THETAS, 2: _PAIR_THETAS}.get(len(idx))
    if default is not None and np.array_equal(thetas, default):
        values = _ecf_vector(ensemble.values, idx)[-len(default):]
    else:
        values = _direct_ecf(ensemble.values[:, idx], thetas)
    if not np.all(np.isfinite(values)):
        raise ValueError("ECF values must be finite")
    if np.any(np.abs(values) > 1.0 + 1e-12):
        raise ValueError("ECF modulus exceeded 1")
    return values


def default_theta_groups(m_total: int):
    """Frequency groups: all single times and all time pairs.

    This is the layout of the ECF vector of ``m_total`` times that the
    distance tests compare: group by group, and each group's frequency
    vectors in row order.  Components come from ``THETA_COMPONENTS``; the leading component is
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


def _finite(xs: np.ndarray) -> bool:
    """Whether a sorted sample is finite: a sort puts -inf first and +inf, then NaN, last."""
    return math.isfinite(xs[0]) and math.isfinite(xs[-1])


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    A sample that holds a NaN or an infinity gives ``(nan, nan)``, so the
    p-value can never pass a level.
    """
    # one sorted flat copy per sample
    a = np.sort(np.asarray(a, dtype=np.float64), axis=None)
    b = np.sort(np.asarray(b, dtype=np.float64), axis=None)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (_finite(a) and _finite(b)):
        return math.nan, math.nan
    pooled = np.concatenate([a, b])
    rank_b = np.searchsorted(b, pooled, side="right")
    # the pooled buffer takes the CDF of a, then its difference from that of b
    diff = np.divide(np.searchsorted(a, pooled, side="right"), a.size, out=pooled)
    np.subtract(diff, rank_b / b.size, out=diff)
    d = float(np.abs(diff, out=diff).max())
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    return d, _kolmogorov_sf(en * d)


def ks_one_sample(x, cdf):
    """One-sample Kolmogorov-Smirnov test against a callable CDF.

    A sample that holds a NaN or an infinity gives ``(nan, nan)``.
    """
    xs = np.sort(np.asarray(x, dtype=np.float64), axis=None)
    if xs.size == 0:
        raise ValueError("sample must be nonempty")
    if not _finite(xs):
        return math.nan, math.nan
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


def _check_fraction(value, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be inside (0, 1), got {value}")


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
    # 1/(1 - 0.9) is 10.000000000000002: a count within 1e-9 of the bound resolves it
    if n_reps < (1 if quantile == 1.0 else math.ceil(1.0 / (1.0 - quantile) - 1e-9)):
        raise ValueError(f"{n_reps} repetitions cannot resolve the {quantile} quantile")
    return n_reps


# ---------------------------------------------------------------------------
# Distance tests in characteristic-function space
# ---------------------------------------------------------------------------


def _distance_report(name, discrepancy, threshold, n_samples, seed, details):
    """Report of the largest modulus of an ECF ``discrepancy`` vector on the default grid."""
    # NaN anywhere gives NaN
    statistic = float(np.abs(discrepancy).max())
    details = {**details, "theta_grid": DEFAULT_THETA_ID}
    return TestReport.from_distance(name, statistic, threshold, n_samples, seed, details)


def _view_values(spec, grid: TimeGrid, n_paths: int, rng: RngState, view) -> np.ndarray:
    """The values of one view ``(split, dilation, scale, copies)``: ``copies``
    independent ensembles on ``grid`` dilated by ``dilation``, summed, drawn
    on ``rng.split(split)`` and multiplied by ``scale``."""
    split, dilation, scale, copies = view
    grid = grid if dilation == 1 else grid.scale(dilation)
    if copies > 1:
        values = sum_independent(spec, copies, grid, n_paths, rng.split(split)).values
    else:
        values = generate(spec, grid, n_paths, rng.split(split)).values
    return values if scale == 1 else values * scale


_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _distance_test(kind: str, spec, n_paths: int, rng: RngState, threshold: float, **params) -> TestReport:
    """The distance test of ``TEST_KINDS[kind]`` on ``params``, its fields and ``grid`` and ``times``.

    The kind's checks run first.  Each view is reduced to its ECF vector
    before the next is drawn, so at most one ensemble is alive at a time.
    """
    test = TEST_KINDS[kind]
    grid = params["grid"] if isinstance(params["grid"], TimeGrid) else TimeGrid(params["grid"])
    params = {**params, "grid": grid.times}
    for _, rule in test.checks:
        rule(params)
    fields = {name: _FIELD_TYPES[parse](params[name]) for name, parse, _ in test.fields}
    idx = _time_indices(grid, params["times"])
    vectors = [_ecf_vector(_view_values(spec, grid, n_paths, rng, view), idx) for view in test.views(fields)]
    details = {**fields, "times": [float(t) for t in params["times"]], "stream": rng.stream}
    return _distance_report(
        f"{kind}[{spec_label(spec)}]", test.combine(fields, *vectors), threshold, n_paths, rng.seed, details
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
    mode: str = "power",
) -> TestReport:
    """Check the dividing-time identity at exponent ``alpha``.

    Compares the ECF of a fresh ensemble on the grid dilated by
    ``n**(1/alpha)`` against the n-th power of the ECF on the base grid
    (the power of a characteristic function is the n-fold convolution).
    ``mode="sum"`` replaces the power by the ECF of an actual pointwise
    sum of ``n`` independent ensembles, as a cross-check.
    """
    return _distance_test("idt", spec, n_paths, rng, threshold, alpha=alpha, n=n, grid=grid, times=times, mode=mode)


def selfsimilarity_test(
    spec,
    h: float,
    a: float,
    grid: TimeGrid,
    times,
    n_paths: int,
    rng: RngState,
    threshold: float,
) -> TestReport:
    """Check ``X(a*t) = a**h * X(t)`` in law via ECF distance."""
    return _distance_test("selfsimilarity", spec, n_paths, rng, threshold, h=h, a=a, grid=grid, times=times)


def stability_test(
    spec,
    beta: float,
    n: int,
    grid: TimeGrid,
    times,
    n_paths: int,
    rng: RngState,
    threshold: float,
) -> TestReport:
    """Check strict stability: n-fold sum matches ``n**(1/beta) * X`` in law."""
    return _distance_test("stability", spec, n_paths, rng, threshold, beta=beta, n=n, grid=grid, times=times)


def stationarity_test(
    ensemble: PathEnsemble,
    window: int,
    shift: int,
    threshold: float,
) -> TestReport:
    """Compare ECFs over two windows of a (log-time transformed) ensemble."""
    window, shift = _check_window(window, shift, ensemble.n_times)
    first, second = (_ecf_vector(ensemble.values, [i + s for i in range(window)]) for s in (0, shift))
    return _distance_report(
        "stationarity", first - second, threshold,
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
) -> TestReport:
    """Check the time-scale factorization of the joint CF.

    For a process dividing time at exponent ``alpha``, the CF at times t
    equals the product of the CFs at ``b**(1/alpha) * t`` and
    ``(1-b)**(1/alpha) * t``.  Three independent ensembles estimate the
    three factors; passing exhibits the scaled-copy-plus-residual
    decomposition with ratio ``b**(1/alpha)``.
    """
    return _distance_test("temporal_sd", spec, n_paths, rng, threshold, alpha=alpha, b=b, grid=grid, times=times)


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
    iff each p-value is at least ``level / len(t_list)``.  A NaN or an
    infinity in either ensemble makes that time's p-value NaN, and a NaN
    p-value at any time makes the reported one NaN, which fails.
    """
    _check_fraction(level, "level")
    grid = TimeGrid(t_list)
    left = generate(spec, grid, n_paths, rng.split(0))
    right = generate(AdditiveTimeChange(family, alpha), grid, n_paths, rng.split(1))
    p_values = []
    for j in range(len(grid)):
        _, p = ks_two_sample(left.values[:, j], right.values[:, j])
        p_values.append(p)
    p_min = float(np.min(p_values))  # np.min, unlike min, carries a NaN from any place
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

    A kind with ``views`` is a distance test between ensembles of its spec
    (``_distance_test``): ``views(fields)`` gives one row ``(split,
    dilation, scale, copies)`` per ensemble, in drawing order, and
    ``combine(fields, *vectors)`` the elementwise discrepancy of their ECF
    vectors, both on the fields converted by their types.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    fields: tuple
    run: Callable
    key_fields: tuple = ()
    checks: tuple = ()
    uses_times: bool = True
    calibrated: bool = True
    views: Callable | None = None
    combine: Callable | None = None

    def fill(self, params: dict, spec) -> dict:
        """``params`` with each missing optional field at its default."""
        out = dict(params)
        for name, _, default in self.fields:
            if name not in out and default is not None:
                out[name] = spec.idt_exponent if default is _SPEC_EXPONENT else default
        return out

    def null(self, params: dict, spec) -> dict:
        """``params`` under the true null: each field that defaults to the spec's exponent at that exponent."""
        return {**params, **{f: spec.idt_exponent for f, _, d in self.fields if d is _SPEC_EXPONENT}}

    def key(self, spec, n_paths: int, quantile: float, params: dict) -> str:
        """The table key of this test on filled ``params``.  The hypothesis exponents (``alpha``, ``h``,
        ``beta``) stay out: under the null they do not shape the statistic, so a negative control
        shares the threshold of its positive twin."""
        names = self.key_fields + ("grid", "times") * self.uses_times
        return entry_key(self.name, spec, n_paths, quantile, **{name: params[name] for name in names})


def _by_name(function: str) -> Callable:
    """``run`` for this module's test ``function``, with the kind's fields, ``grid`` and ``times`` by
    name; it is looked up at each call, so a wrapper set on the module (a span tracer) is called."""
    return lambda spec, p, paths, rng, thr: globals()[function](spec, n_paths=paths, rng=rng, threshold=thr, **p)


def _run_stationarity(spec, p, n_paths, rng, threshold):
    y = np.asarray(p["y_grid"], dtype=np.float64)
    ensemble = generate(spec, TimeGrid(np.exp(y)), n_paths, rng)
    ensemble = lamperti_apply(ensemble, p["alpha"], y)  # the drawn ensemble is dropped here
    return stationarity_test(ensemble, p["window"], p["shift"], threshold)


_ON_GRID = (("times",), lambda p: _time_indices(TimeGrid(p["grid"]), p["times"]))
_N_AT_LEAST_TWO = (("n",), lambda p: _at_least_two(p["n"]))
_EXPONENT = (("alpha",), lambda p: _check_exponent(p["alpha"]))
_DIFFERENCE = lambda f, got, ref: got - ref

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
            run=_by_name("idt_test"),
            views=lambda f: ((1, f["n"] ** (1.0 / f["alpha"]), 1, 1), (0, 1, 1, f["n"] if f["mode"] == "sum" else 1)),
            combine=lambda f, got, ref: (got - ref ** f["n"]) if f["mode"] == "power" else got - ref,
        ),
        TestKind(
            "selfsimilarity",
            fields=(("h", "float", None), ("a", "float", None)),
            key_fields=("a",),
            checks=((("a",), lambda p: _check_dilation(p["a"])), _ON_GRID),
            run=_by_name("selfsimilarity_test"),
            views=lambda f: ((0, f["a"], 1, 1), (1, 1, f["a"] ** f["h"], 1)),
            combine=_DIFFERENCE,
        ),
        TestKind(
            "stability",
            fields=(("beta", "float", None), ("n", "int", None)),
            key_fields=("n",),
            checks=(_N_AT_LEAST_TWO, _ON_GRID),
            run=_by_name("stability_test"),
            views=lambda f: ((0, 1, 1, f["n"]), (1, 1, f["n"] ** (1.0 / f["beta"]), 1)),
            combine=_DIFFERENCE,
        ),
        TestKind(
            "temporal_sd",
            fields=(("b", "float", None), ("alpha", "float", _SPEC_EXPONENT)),
            key_fields=("b",),
            checks=((("b",), lambda p: _check_fraction(p["b"], "b")), _EXPONENT, _ON_GRID),
            run=_by_name("temporal_sd_test"),
            views=lambda f: (
                (0, 1, 1, 1),
                (1, f["b"] ** (1.0 / f["alpha"]), 1, 1),
                (2, (1.0 - f["b"]) ** (1.0 / f["alpha"]), 1, 1),
            ),
            combine=lambda f, whole, part, rest: whole - part * rest,
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
            checks=(
                (("times",), lambda p: TimeGrid(p["times"])),
                _EXPONENT,
                (("level",), lambda p: _check_fraction(p["level"], "level")),
            ),
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


def _map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, on a pool of ``threads`` worker threads
    when both ``threads`` and the number of items exceed 1.  Each item
    draws from its own substream, so the results do not depend on
    ``threads``."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


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

    Replays the named test ``n_reps`` times on ``rng.split(rep)`` under the
    true null of ``params`` (``TestKind.null``: each field that defaults to
    the spec's exponent is set to it, whatever value was passed) and returns
    the requested empirical quantile (``method="higher"``: never below the
    nominal coverage, monotone in the quantile).
    """
    n_reps = _check_replays(n_reps, quantile)
    test = TEST_KINDS.get(kind)
    if test is None or not test.calibrated:
        raise ValueError(f"unknown test kind {kind!r}")
    params = test.null(test.fill(params, null_spec), null_spec)

    def one(rep: int) -> float:
        return test.run(null_spec, params, n_paths, rng.split(rep), float("inf")).statistic

    stats = _map(one, range(n_reps), threads)
    return float(np.quantile(np.asarray(stats), quantile, method="higher"))

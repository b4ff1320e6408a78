"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single ``ACCEPTANCE <k>: PASS`` line when its criterion
holds (visible with ``pytest -s`` or ``-v``); statistical criteria use the
calibrated 0.99 thresholds shipped with the package.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import ndtr

from idtlab.kernels import FBmKernel, SpectralKernel, SpectralMeasure, check_scaling, cov_matrix, fbm_cov, lamperti_cov, psd_check
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    GammaSubordinator,
    GaussianKernel,
    Mixture,
    PowerLine,
    StableLine,
    StableMotion,
    Subordinated,
    WeightedSubordinator,
)
from idtlab.randkit import RngState, StableParams, sample_stable
from idtlab.statlab import (
    TEST_KINDS,
    association_test,
    idt_test,
    ks_one_sample,
    selfsimilarity_test,
    stability_test,
    temporal_sd_test,
)

GRID = [0.5, 1.0, 2.0]
TIMES = [0.5, 1.0, 2.0]
N_PATHS = 20000
QUANTILE = 0.99

FBM03 = GaussianKernel(FBmKernel(0.3))
SUITE = {
    "stable_line(1.5)": StableLine(1.5),
    "fbm(0.3)": FBM03,
    "additive_gamma(0.7)": AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7),
    "subordinated_bm_gamma(0.7)": Subordinated(
        Brownian(1.0, 0.0), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    ),
    "mixture_fbm(0.3)": Mixture(FBM03, ((1.0, 0.5), (2.0, 0.5))),
    "weighted_subordinator(0.7)": WeightedSubordinator(
        GammaSubordinator(1.0, 1.0), ((1.0, 0.5), (2.0, 0.5)), 0.7
    ),
}


def _announce(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def _key(kind, spec, **params):
    """The shipped table's key of a test on ``GRID`` at ``TIMES``, as ``idtlab run`` forms it."""
    test = TEST_KINDS[kind]
    return test.key(spec, N_PATHS, QUANTILE, test.fill({**params, "grid": GRID, "times": TIMES}, spec))


def _idt_threshold(table, spec, n):
    return table.lookup(_key("idt", spec, n=n))


# ---------------------------------------------------------------------------
# 1. kernel exactness
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_exactness():
    t0 = time.perf_counter()
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    for s in grid:
        for t in grid:
            assert fbm_cov(0.5, s, t) == min(s, t)
    worst = 0.0
    for hurst in (0.2, 0.5, 0.8):
        for a in (0.5, 2.0, 3.0):
            rep = check_scaling(FBmKernel(hurst), 2.0 * hurst, a, grid, tol=1e-10)
            worst = max(worst, rep.statistic)
            assert rep.passed
    elapsed = time.perf_counter() - t0
    _announce(1, elapsed < 1.0, f"min-kernel exact, scaling max err {worst:.2e}, {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2. spectral kernels: scaling + positive semidefiniteness
# ---------------------------------------------------------------------------


def test_criterion_2_spectral_kernels():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=202))
    grid = np.geomspace(0.25, 4.0, 12)
    worst_scale, worst_eig = 0.0, 0.0
    for _ in range(5):
        n_pairs = int(rng.integers(1, 8))
        pairs = tuple(
            (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 1.0)) / n_pairs)
            for _ in range(n_pairs)
        )
        measure = SpectralMeasure.symmetric(pairs)
        for alpha in (0.6, 1.0, 2.0):
            kernel = SpectralKernel(alpha, measure)
            rep = check_scaling(kernel, alpha, 2.0, grid, tol=1e-10)
            worst_scale = max(worst_scale, rep.statistic)
            assert rep.passed
            eig = psd_check(cov_matrix(kernel, grid))
            worst_eig = min(worst_eig, eig)
            assert eig >= -1e-8
    elapsed = time.perf_counter() - t0
    _announce(
        2,
        elapsed < 5.0,
        f"scaling max err {worst_scale:.2e}, min eigenvalue {worst_eig:.2e}, {elapsed:.2f}s < 5s",
    )


# ---------------------------------------------------------------------------
# 3. stationarity of the log-time kernel
# ---------------------------------------------------------------------------


def test_criterion_3_lamperti_kernel_stationarity():
    hurst = 0.3
    kernels = [
        (FBmKernel(hurst), 0.6),
        (SpectralKernel(1.0, SpectralMeasure.symmetric(((1.0, 1.0),))), 1.0),
    ]
    ys = np.linspace(-1.2, 1.2, 10)
    zs = np.linspace(-1.0, 1.4, 10)
    hshifts = np.linspace(-0.8, 0.8, 5)
    worst = 0.0
    for kernel, alpha in kernels:
        base = lamperti_cov(kernel, alpha, ys[:, None], zs[None, :])
        for h in hshifts:
            shifted = lamperti_cov(kernel, alpha, ys[:, None] + h, zs[None, :] + h)
            worst = max(worst, float(np.abs(shifted - base).max()))
    assert worst <= 1e-10
    closed = 0.0
    for d in np.linspace(-2.0, 2.0, 21):
        expected = math.cosh(hurst * d) - 0.5 * (2.0 * math.sinh(abs(d) / 2.0)) ** (2 * hurst)
        closed = max(closed, abs(lamperti_cov(FBmKernel(hurst), 0.6, d, 0.0) - expected))
    assert closed <= 1e-10
    _announce(3, True, f"shift invariance {worst:.2e}, closed form {closed:.2e}, both <= 1e-10")


# ---------------------------------------------------------------------------
# 4. stable sampler correctness across seeds
# ---------------------------------------------------------------------------


def test_criterion_4_sampler_ks_across_seeds():
    t0 = time.perf_counter()
    n, seeds = 10**5, 100
    hits_normal = hits_cauchy = 0
    for s in range(seeds):
        x = sample_stable(RngState(40000 + s), StableParams(2.0), n)
        _, p = ks_one_sample(x, lambda v: ndtr(v / math.sqrt(2.0)))
        hits_normal += p > 0.01
        y = sample_stable(RngState(41000 + s), StableParams(1.0), n)
        _, p = ks_one_sample(y, lambda v: 0.5 + np.arctan(v) / np.pi)
        hits_cauchy += p > 0.01
    elapsed = time.perf_counter() - t0
    ok = hits_normal >= 98 and hits_cauchy >= 98 and elapsed < 60.0
    _announce(
        4,
        ok,
        f"normal(0,2) {hits_normal}/100, cauchy {hits_cauchy}/100 at p>0.01, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 5 & 6. dividing-time identity: positive suite and negative controls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", list(SUITE))
def test_criterion_5_positive_suite(threshold_table, label):
    # each fold count is its own test: for n = 2 and for n = 3 separately,
    # at least 95 of 100 seeds must pass at the calibrated 0.99 threshold
    t0 = time.perf_counter()
    spec = SUITE[label]
    alpha = spec.idt_exponent
    passes = {}
    for n in (2, 3):
        thr = _idt_threshold(threshold_table, spec, n)
        passes[n] = sum(
            idt_test(spec, alpha, n, GRID, TIMES, N_PATHS, RngState(50000 + s).split(n), thr).passed
            for s in range(100)
        )
    elapsed = time.perf_counter() - t0
    ok = passes[2] >= 95 and passes[3] >= 95 and elapsed < 600.0 / len(SUITE)
    _announce(
        5,
        ok,
        f"{label}: n=2 {passes[2]}/100, n=3 {passes[3]}/100 seeds pass (need >= 95), {elapsed:.0f}s",
    )


@pytest.mark.parametrize("label", list(SUITE))
def test_criterion_6_negative_controls(threshold_table, label):
    spec = SUITE[label]
    alpha = spec.idt_exponent + 0.5
    fails = {}
    for n in (2, 3):
        thr = _idt_threshold(threshold_table, spec, n)
        fails[n] = sum(
            not idt_test(spec, alpha, n, GRID, TIMES, N_PATHS, RngState(60000 + s).split(n), thr).passed
            for s in range(100)
        )
    ok = fails[2] >= 99 and fails[3] >= 99
    _announce(
        6,
        ok,
        f"{label}: n=2 {fails[2]}/100, n=3 {fails[3]}/100 seeds fail at alpha+0.5 (need >= 99)",
    )


# ---------------------------------------------------------------------------
# 7. marginal association with the clock-deformed Levy process
# ---------------------------------------------------------------------------


def test_criterion_7_association():
    t0 = time.perf_counter()
    passes = 0
    for s in range(100):
        rep = association_test(
            StableLine(1.5), StableMotion(1.5), 1.5, TIMES, N_PATHS, RngState(70000 + s)
        )
        passes += rep.passed
    mismatch_fails = 0
    for s in range(100):
        rep = association_test(
            StableLine(1.5), Brownian(1.0, 0.0), 1.5, TIMES, N_PATHS, RngState(71000 + s)
        )
        mismatch_fails += not rep.passed
    ok = passes >= 95 and mismatch_fails >= 99
    _announce(
        7,
        ok,
        f"matched pair {passes}/100 pass, brownian mismatch {mismatch_fails}/100 fail "
        f"({time.perf_counter() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. stability and selfsimilarity are two faces of the same exponent
# ---------------------------------------------------------------------------


def test_criterion_8_stability_selfsimilarity_equivalence(threshold_table):
    spec = AdditiveTimeChange(StableMotion(1.2), 0.8)
    h = 2.0 / 3.0  # 0.8 / 1.2
    thr_stab = threshold_table.lookup(_key("stability", spec, n=2))
    thr_ss = threshold_table.lookup(_key("selfsimilarity", spec, a=2.0))
    stab_ok = ss_ok = 0
    ss_bad = 0
    for s in range(5):
        root = RngState(80000 + s)
        stab_ok += stability_test(spec, 1.2, 2, GRID, TIMES, N_PATHS, root.split(0), thr_stab).passed
        ss_ok += selfsimilarity_test(spec, h, 2.0, GRID, TIMES, N_PATHS, root.split(1), thr_ss).passed
        ss_bad += not selfsimilarity_test(
            spec, h + 0.3, 2.0, GRID, TIMES, N_PATHS, root.split(2), thr_ss
        ).passed
    ok = stab_ok >= 4 and ss_ok >= 4 and ss_bad == 5
    _announce(
        8,
        ok,
        f"stability {stab_ok}/5, selfsimilarity {ss_ok}/5 pass; perturbed h fails {ss_bad}/5",
    )


# ---------------------------------------------------------------------------
# 9. temporal factorization of the joint characteristic function
# ---------------------------------------------------------------------------


def test_criterion_9_temporal_factorization(threshold_table):
    cauchy = StableLine(1.0)
    thr_c = threshold_table.lookup(_key("temporal_sd", cauchy, b=0.5))
    cauchy_ok = sum(
        temporal_sd_test(cauchy, 1.0, 0.5, GRID, TIMES, N_PATHS, RngState(90000 + s), thr_c).passed
        for s in range(5)
    )
    fbm_ok = {}
    for b in (0.25, 0.5):
        thr = threshold_table.lookup(_key("temporal_sd", FBM03, b=b))
        fbm_ok[b] = sum(
            temporal_sd_test(FBM03, 0.6, b, GRID, TIMES, N_PATHS, RngState(91000 + s), thr).passed
            for s in range(5)
        )
    thr_50 = threshold_table.lookup(_key("temporal_sd", FBM03, b=0.5))
    wrong_fails = sum(
        not temporal_sd_test(FBM03, 1.0, 0.5, GRID, TIMES, N_PATHS, RngState(92000 + s), thr_50).passed
        for s in range(5)
    )
    ok = cauchy_ok >= 4 and fbm_ok[0.25] >= 4 and fbm_ok[0.5] >= 4 and wrong_fails == 5
    _announce(
        9,
        ok,
        f"cauchy line {cauchy_ok}/5, fbm b=0.25 {fbm_ok[0.25]}/5, b=0.5 {fbm_ok[0.5]}/5 pass; "
        f"wrong alpha fails {wrong_fails}/5",
    )


# ---------------------------------------------------------------------------
# 10. end-to-end determinism under different thread counts
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# variant coverage beyond the six-spec suite (supports the module invariant
# that every spec family passes at its declared exponent)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        StableLine(1.0),
        PowerLine(0.7),
        GaussianKernel(SpectralKernel(1.0, SpectralMeasure.symmetric(((1.0, 1.0),)))),
    ],
    ids=["stable_line(1)", "power_line(0.7)", "spectral(1)"],
)
def test_variant_coverage_idt_positive_and_negative(threshold_table, spec):
    thr = _idt_threshold(threshold_table, spec, 2)
    alpha = spec.idt_exponent
    good = sum(
        idt_test(spec, alpha, 2, GRID, TIMES, N_PATHS, RngState(95000 + s), thr).passed
        for s in range(5)
    )
    bad = sum(
        not idt_test(spec, alpha + 0.5, 2, GRID, TIMES, N_PATHS, RngState(96000 + s), thr).passed
        for s in range(5)
    )
    assert good >= 4
    assert bad == 5


GOLDEN_CONFIG = """
seed = 123
n_paths = 20000
grid = 0.5 1 2
threshold_table = default
output_dir = {out}

spec.kind = stable_line
spec.alpha = 1

test.divide2.kind = idt
test.divide2.n = 2
"""


def test_criterion_10_thread_count_determinism(threshold_table, tmp_path):
    out = tmp_path / "out"
    conf = tmp_path / "golden.conf"
    conf.write_text(GOLDEN_CONFIG.format(out=out))

    def run(threads):
        proc = subprocess.run(
            [sys.executable, "-m", "idtlab", "run", str(conf), "--threads", str(threads)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = {}
        for name in ("report_divide2.json", "summary.json"):
            doc = json.loads((out / name).read_text())
            doc.pop("timestamp", None)
            files[name] = json.dumps(doc, sort_keys=True)
        return files

    first = run(1)
    second = run(4)
    ok = first == second
    _announce(10, ok, "reports bit-identical across --threads 1 and --threads 4")

"""Byte-identity guard: distance-test reports pinned by sha256 digest.

Each digest covers the JSON of six reports of one spec and seed (idt in
power and in sum mode, selfsimilarity, stability, temporal_sd and
stationarity, each run through its ``TestKind``), and one more covers a
threshold calibrated at two threads.  A refactor of the ECF kernel or of
the statistic reduction must leave every digest as it is; a change of
arithmetic that moves them must say so and record the new digests.
"""

import hashlib

import pytest

from idtlab.kernels import FBmKernel
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    GammaSubordinator,
    GaussianKernel,
    StableLine,
    Subordinated,
)
from idtlab.randkit import RngState
from idtlab.statlab import TEST_KINDS, calibrate

GRID = [0.5, 1.0, 2.0]
N_PATHS = 3000
THRESHOLD = 0.05

SPECS = {
    "stable_line(1.5)": StableLine(1.5),
    "fbm(0.3)": GaussianKernel(FBmKernel(0.3)),
    "subordinated": Subordinated(
        Brownian(1.0, 0.0), AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
    ),
}

# name -> (test kind, parameters); the exponents default to the spec's own
TESTS = {
    "idt_power": ("idt", {"n": 2, "mode": "power"}),
    "idt_sum": ("idt", {"n": 3, "mode": "sum"}),
    "selfsimilarity": ("selfsimilarity", {"h": 0.5, "a": 2.0}),
    "stability": ("stability", {"beta": 1.5, "n": 2}),
    "temporal_sd": ("temporal_sd", {"b": 0.3}),
    "stationarity": ("stationarity", {"y_grid": [-0.5, 0.0, 0.5, 1.0], "window": 2, "shift": 1}),
}

# sha256 of the report JSONs, each followed by a newline, recorded before the
# ECF vector replaced the per-group kernel dispatch
DIGESTS = {
    ("stable_line(1.5)", 11): "853af0243f15307770f9fc066ca74109d292419b333c17c798d2e0093f04389f",
    ("stable_line(1.5)", 12): "47a35592c2eb83a37299de3348f93d278a2eae2e9d6f355acac3dbfae7a811eb",
    ("fbm(0.3)", 11): "57a0b9985913b16e5f9fb6af09fa0cd7de2835852a541dd0b48ea7ff3e318611",
    ("fbm(0.3)", 12): "398557b82593bba24263f49fd1f1c87d3426b10b5cd7e44be02ce38921a6bd20",
    ("subordinated", 11): "f3ebbb6f2db3d73a07ec527a42f7ab6cde5f0ffe8a09d23b5be64b13c2305b27",
    ("subordinated", 12): "3c47fd459cb4ea3e9908c3e665926cf755b6a21299b777ec6ad53f62883e2312",
}
CALIBRATE_DIGEST = "fc085d7ce612fb19882cfd8f57ca408be3c41135048e775f2f347a967292bbc3"


def _reports(label, seed):
    spec = SPECS[label]
    for index, (kind, params) in enumerate(TESTS.values()):
        test = TEST_KINDS[kind]
        params = test.fill({**params, "grid": GRID, "times": GRID}, spec)
        yield test.run(spec, params, N_PATHS, RngState(seed).split(index), THRESHOLD)


@pytest.mark.parametrize("label, seed", list(DIGESTS), ids=[f"{l}-{s}" for l, s in DIGESTS])
def test_reports_match_pinned_digest(label, seed):
    h = hashlib.sha256()
    for report in _reports(label, seed):
        h.update(report.to_json().encode("utf-8") + b"\n")
    assert h.hexdigest() == DIGESTS[label, seed]


def test_two_thread_calibration_matches_pinned_digest():
    thresholds = [
        calibrate(SPECS[label], "idt", 20, 0.9, RngState(13), N_PATHS, threads=2, n=2, grid=GRID, times=GRID)
        for label in SPECS
    ]
    digest = hashlib.sha256(repr(thresholds).encode("ascii")).hexdigest()
    assert digest == CALIBRATE_DIGEST

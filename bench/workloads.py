"""The benchmark's workloads: one idtlab CLI command each, plus its checks.

A workload turns the benchmark seed into a config file, names the CLI
command that runs it, counts the units of work one command does, and
checks the command's outputs.  ``check`` returns a digest of the outputs,
which must repeat exactly for every command of one run (same seed, same
bytes), and a dict of values that the reference file pins for the
default seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

GRID3 = "0.5 1 2"
# 64 geometric points from 0.0625 to 4 (ratio 2**(6/63)), written out so
# the config text does not depend on how numpy rounds geomspace
GRID64 = " ".join(repr(0.0625 * 2.0 ** (6.0 * k / 63.0)) for k in range(64))

CALIBRATE_ENTRIES = """
entry.idt2_stable15.test = idt
entry.idt2_stable15.n = 2
entry.idt2_stable15.spec.kind = stable_line
entry.idt2_stable15.spec.alpha = 1.5

entry.idt3_subord.test = idt
entry.idt3_subord.n = 3
entry.idt3_subord.spec.kind = subordinated
entry.idt3_subord.spec.family.kind = brownian
entry.idt3_subord.spec.family.volatility = 1
entry.idt3_subord.spec.family.drift = 0
entry.idt3_subord.spec.chrono.kind = additive
entry.idt3_subord.spec.chrono.alpha = 0.7
entry.idt3_subord.spec.chrono.family.kind = gamma
entry.idt3_subord.spec.chrono.family.shape = 1
entry.idt3_subord.spec.chrono.family.rate = 1
"""
CALIBRATE_REPS = 100  # the least `calibrate` accepts at q = 0.99

RUN_TESTS = """
spec.kind = fbm
spec.hurst = 0.3

test.idt2.kind = idt
test.idt2.n = 2
test.idt3.kind = idt
test.idt3.n = 3
test.idt2sum.kind = idt
test.idt2sum.n = 2
test.idt2sum.mode = sum
test.idt2sum.threshold = 0.05
test.tsd.kind = temporal_sd
test.tsd.b = 0.5
test.stat.kind = stationarity
test.stat.y_grid = -0.75 -0.5 -0.25 0 0.25 0.5 0.75
test.stat.window = 2
test.stat.shift = 1
test.assoc.kind = association
test.assoc.alpha = 0.6
test.assoc.family.kind = brownian
"""
RUN_TEST_NAMES = ("assoc", "idt2", "idt2sum", "idt3", "stat", "tsd")
# the shipped threshold table is keyed by n_paths = 20000, so `run` keeps
# that size at every scale
RUN_PATHS = 20_000

SUBORDINATED_SPEC = """
spec.kind = subordinated
spec.family.kind = brownian
spec.chrono.kind = additive
spec.chrono.alpha = 0.7
spec.chrono.family.kind = gamma
"""


class CheckFailed(Exception):
    """An output that is missing, malformed or wrong."""


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is the benchmark; ``tiny`` is for its own tests."""

    calibrate_paths: int
    sample_paths: int
    layer_paths: int
    layer_reps: int
    scaling_paths: int  # reduced calibrate behind the thread-scaling metrics


SCALES = {
    "full": Scale(20_000, 200_000, 20_000, 5, 2_000),
    "tiny": Scale(200, 2_000, 500, 1, 200),
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the idtlab subcommand
    throughput: str  # the workload's name for ops_per_s
    config: Callable[[int, Scale], str]
    ops: Callable[[Scale], int]
    check: Callable  # (out_dir, returncode, scale) -> (digest, values)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from None


def _json(path):
    try:
        return json.loads(_read(path))
    except ValueError as exc:
        raise CheckFailed(f"{os.path.basename(path)} is not JSON: {exc}") from None


def _without_timestamp(path) -> bytes:
    doc = _json(path)
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True).encode()


def _read_ensemble(reader, path, n_paths, grid):
    """Read back one written ensemble with the package's own reader."""
    try:
        ensemble = reader(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"cannot read back {os.path.basename(path)}: {exc}") from None
    times = [float(t) for t in grid.split()]
    name = os.path.basename(path)
    _require(ensemble.values.shape == (n_paths, len(times)), f"{name}: shape {ensemble.values.shape}")
    _require(ensemble.grid.times.tolist() == times, f"{name}: wrong time grid")
    return ensemble.values


# --- calibrate ------------------------------------------------------------


def _calibrate_config(seed: int, scale: Scale) -> str:
    return (
        f"seed = {seed}\nn_paths = {scale.calibrate_paths}\ngrid = {GRID3}\n"
        f"quantile = 0.99\nn_reps = {CALIBRATE_REPS}\noutput = thresholds.json\n"
        + CALIBRATE_ENTRIES
    )


def _check_calibrate(out_dir, returncode, scale):
    _require(returncode == 0, f"calibrate exited with {returncode}")
    raw = _read(os.path.join(out_dir, "thresholds.json"))
    try:
        doc = json.loads(raw)
        entries = doc["entries"]
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"malformed threshold table: {exc}") from None
    _require(len(entries) == 2, f"expected 2 table entries, got {len(entries)}")
    _require(doc.get("meta", {}).get("n_reps") == CALIBRATE_REPS, "table records the wrong n_reps")
    for key, value in entries.items():
        _require(f"n_paths={scale.calibrate_paths}|" in key, f"entry key has the wrong n_paths: {key}")
        _require(isinstance(value, float) and math.isfinite(value) and value > 0, f"bad threshold {value!r}")
    return _sha(raw), {"thresholds": entries}


# --- run --------------------------------------------------------------------


def _run_config(seed: int, scale: Scale) -> str:
    return (
        f"seed = {seed}\nn_paths = {RUN_PATHS}\ngrid = {GRID3}\nthreshold_table = default\n"
        "export_csv = true\n" + RUN_TESTS
    )


def _check_run(out_dir, returncode, scale):
    from idtlab import io

    _require(returncode in (0, 1), f"run exited with {returncode}")
    summary = _json(os.path.join(out_dir, "summary.json"))
    _require(summary.get("all_pass") == (returncode == 0), "exit code disagrees with summary.all_pass")
    decisions, statistics, blobs = {}, {}, []
    for name in RUN_TEST_NAMES:
        path = os.path.join(out_dir, f"report_{name}.json")
        report = _json(path).get("report", {})
        _require(report == summary["reports"].get(name), f"summary disagrees with report_{name}.json")
        stat, thr = report.get("statistic"), report.get("threshold")
        _require(isinstance(stat, float) and math.isfinite(stat), f"{name}: non-finite statistic {stat!r}")
        convention = report.get("details", {}).get("convention")
        expected = stat <= thr if convention == "distance" else stat >= thr
        _require(report.get("pass") is expected, f"{name}: pass flag disagrees with statistic and threshold")
        decisions[name] = report["pass"]
        statistics[name] = stat
        blobs.append(_without_timestamp(path))
    blobs.append(_without_timestamp(os.path.join(out_dir, "summary.json")))
    values = _read_ensemble(io.read_csv, os.path.join(out_dir, "paths.csv"), RUN_PATHS, GRID3)
    blobs.append(values.tobytes())
    return _sha(*blobs), {"decisions": decisions, "statistics": statistics}


# --- sample -----------------------------------------------------------------


def _sample_config(seed: int, scale: Scale) -> str:
    return (
        f"seed = {seed}\nn_paths = {scale.sample_paths}\ngrid = {GRID64}\n"
        "export.formats = bin\n" + SUBORDINATED_SPEC
    )


def _check_sample(out_dir, returncode, scale):
    from idtlab import io

    _require(returncode == 0, f"export exited with {returncode}")
    values = _read_ensemble(io.read_binary, os.path.join(out_dir, "paths.bin"), scale.sample_paths, GRID64)
    digest = _sha(values.tobytes())
    return digest, {"digest": digest}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("calibrate", "calibrate", "replays_per_s", _calibrate_config,
                 lambda scale: 2 * CALIBRATE_REPS, _check_calibrate),
        Workload("run", "run", "tests_per_s", _run_config,
                 lambda scale: len(RUN_TEST_NAMES), _check_run),
        Workload("sample", "export", "paths_per_s", _sample_config,
                 lambda scale: scale.sample_paths, _check_sample),
    )
}


def compare_values(reference: dict, got: dict, rel: float = 1e-12) -> None:
    """Raise CheckFailed unless ``got`` matches ``reference``.

    Floats match within ``rel`` relative; everything else exactly.
    """
    if isinstance(reference, dict):
        _require(isinstance(got, dict) and set(got) == set(reference),
                 f"keys differ from the reference: {sorted(got) if isinstance(got, dict) else got!r}")
        for key in reference:
            compare_values(reference[key], got[key], rel)
    elif isinstance(reference, float):
        _require(isinstance(got, float) and abs(got - reference) <= rel * abs(reference),
                 f"{got!r} differs from the reference {reference!r}")
    else:
        _require(got == reference, f"{got!r} differs from the reference {reference!r}")

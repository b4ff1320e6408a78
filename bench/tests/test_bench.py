"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import idtlab  # noqa: E402
import idtlab.cli  # noqa: E402
from run import Checker, check_in_child, check_in_process  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

TINY = SCALES["tiny"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _produce(workload, tmp_path):
    config = tmp_path / "w.conf"
    config.write_text(workload.config(5, TINY))
    out = tmp_path / "out"
    out.mkdir()
    code = idtlab.cli.main([workload.command, str(config), "--out", str(out), "--threads", "1"])
    return out, code


def test_flipped_byte_in_paths_bin_counts_as_failure(tmp_path):
    workload = WORKLOADS["sample"]
    out, code = _produce(workload, tmp_path)
    checker = Checker(check_in_child(workload, "tiny"))
    checker.record(out, code)
    assert (checker.attempted, checker.failed) == (1, 0)
    payload = bytearray((out / "paths.bin").read_bytes())
    payload[-1] ^= 0x01
    (out / "paths.bin").write_bytes(bytes(payload))
    checker.record(out, code)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_perturbed_threshold_counts_as_failure(tmp_path):
    workload = WORKLOADS["calibrate"]
    out, code = _produce(workload, tmp_path)
    _, reference = workload.check(str(out), code, TINY)
    table_path = out / "thresholds.json"
    table = json.loads(table_path.read_text())
    key = sorted(table["entries"])[0]
    table["entries"][key] *= 1.0 + 1e-9
    table_path.write_text(json.dumps(table))
    checker = Checker(check_in_process(workload, TINY), reference)
    checker.record(out, code)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "differs from the reference" in checker.reasons[0]


def _idtlab_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "idtlab" or name.startswith("idtlab.")
    }


def test_tracer_records_spans_and_restores_every_attribute(tmp_path):
    before = _idtlab_namespaces()
    original = idtlab.statlab.generate
    with pytest.raises(RuntimeError):
        with Tracer(idtlab) as tracer:
            assert idtlab.statlab.generate is not original
            assert idtlab.generate is idtlab.statlab.generate
            _produce(WORKLOADS["run"], tmp_path)
            raise RuntimeError("a failing pass must still restore the package")
    assert idtlab.statlab.generate is original
    after = _idtlab_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert all(after[name][attr] is obj for attr, obj in namespace.items()), name
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "cli.cmd_run", "statlab.idt_test", "processes.generate", "io.write_csv"} <= names


def test_self_time_subtracts_children_on_the_same_thread():
    root = Span("a", 0.0, None, 1)
    root.end = 10.0
    child = Span("b", 2.0, root, 1)
    child.end = 5.0
    totals, root_total = self_times([root, child])
    assert totals == {"a": 7.0, "b": 3.0}
    assert root_total == 10.0

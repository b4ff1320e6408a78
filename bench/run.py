"""Benchmark of the idtlab command line, end to end and layer by layer.

    python3 bench/run.py --workload calibrate --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's CLI command
runs in fresh processes, one at a time (a closed loop with one client),
as often as fits in ``--seconds``, and every command's outputs are checked.
``--trace 1`` measures the per-layer metrics: isolated calls into each
layer, then a pass that runs the same command inside this process with
every public idtlab function wrapped by a span tracer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and record the machine.  See
``bench/README.md`` for the workloads and how to compare two commits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import TRACED_MODULES, Tracer, self_times
from workloads import SCALES, WORKLOADS, CheckFailed, Workload, compare_values

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SETUP_RUNS = 7
# the fresh-interpreter set-up that every command pays before any test work
SETUP_CODE = "import sys, idtlab, idtlab.cli; idtlab.cli.load_config(sys.argv[1]); idtlab.ThresholdTable.default()"
TRACE_SPANS = (
    "statlab.calibrate", "statlab.idt_test", "processes.generate", "transforms.sum_independent",
    "statlab.ks_two_sample", "io.write_csv", "io.write_binary", "io.read_csv", "io.read_binary",
    "io.atomic_write_bytes",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The caller's environment, with the checkout's sources importable.

    BLAS and OpenMP thread settings pass through untouched: the benchmark
    measures the program as shipped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, log_path) -> tuple[int, float, float, float]:
    """Run one child; return its exit code, wall s, CPU s and peak RSS MB.

    CPU and RSS come from the child's own rusage (``wait4``), not from the
    cumulative RUSAGE_CHILDREN, whose peak RSS is a high-water mark over
    every child this process has waited for.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Checker:
    """Counts checked operations and failures for one run.

    ``check(out_dir, returncode)`` returns the outputs' digest and values,
    or raises.  An operation fails if its check raises, if its digest
    differs from the first operation's (every operation of a run uses the
    same seed, so the bytes must repeat across processes and thread
    counts), or if its values differ from the reference for this seed.
    """

    def __init__(self, check, reference=None):
        self.check = check
        self.reference = reference
        self.first_digest = None
        self.first_values = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, out_dir, returncode) -> None:
        self.attempted += 1
        try:
            digest, values = self.check(str(out_dir), returncode)
            if self.first_digest is None:
                self.first_digest, self.first_values = digest, values
            elif digest != self.first_digest:
                raise CheckFailed("outputs differ from the first operation of this run")
            if self.reference is not None:
                compare_values(self.reference, values)
        except Exception as exc:  # a failed check is counted and reported, never fatal
            self.failed += 1
            self.reasons.append(f"{type(exc).__name__}: {exc}")

    def absorb(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons


def check_in_process(workload: Workload, scale):
    return lambda out_dir, returncode: workload.check(out_dir, returncode, scale)


def check_in_child(workload: Workload, scale_name: str):
    """Check outputs in a fresh process (see check.py for why)."""

    def check(out_dir, returncode):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "check.py"), workload.name, scale_name, out_dir, str(returncode)],
            capture_output=True, text=True, env=child_env(),
        )
        try:
            doc = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise CheckFailed(f"checker exited with {done.returncode}: {done.stderr[-2000:]}") from None
        if "error" in doc:
            raise CheckFailed(doc["error"])
        return doc["digest"], doc["values"]

    return check


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def write_config(workload: Workload, seed: int, scale, work: Path) -> Path:
    path = work / f"{workload.name}.conf"
    path.write_text(workload.config(seed, scale), encoding="utf-8")
    return path


def end_to_end(workload: Workload, scale, seed: int, seconds: float, work: Path, checker: Checker) -> dict:
    config = write_config(workload, seed, scale, work)
    log = work / "child.log"
    setup = [sys.executable, "-c", SETUP_CODE, str(config)]
    setup_walls = []

    def time_setup() -> float:
        code, wall, _, _ = spawn(setup, log)
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}: {log.read_text(errors='replace')[-2000:]}")
        return wall

    time_setup()  # warm-up: the first import in a checkout compiles bytecode
    out = work / "out"
    command = [sys.executable, "-m", "idtlab", workload.command, str(config),
               "--out", str(out), "--threads", str(nproc())]
    walls, cpus, rss = [], [], []
    start = time.perf_counter()
    # start another command only while it is expected to end within
    # `seconds`, so a command longer than half the window runs once
    while not walls or time.perf_counter() - start + statistics.median(walls) < seconds:
        # set-up samples interleave with the commands, so both see the same
        # phases of machine load
        setup_walls.append(time_setup())
        reset_dir(out)
        code, wall, cpu, peak = spawn(command, log)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        checker.record(out, code)
    while len(setup_walls) < SETUP_RUNS:
        setup_walls.append(time_setup())

    wall_s = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ops_per_s": (workload.ops(scale) / wall_s, "1/s"),
    }


def trace_pass(workload: Workload, scale, seed: int, work: Path, checker: Checker) -> dict:
    """Run the workload's command in this process: untraced, then traced.

    Three passes share one output directory: untraced at ``nproc``
    threads, traced at ``nproc`` threads (its wall time minus the
    untraced one is the tracing overhead) and traced at one thread.  Self
    times come from the one-thread pass, where every span's children run
    on its own thread.  Each pass includes the output check, so the
    read-backs of `run` and `sample` are traced too.
    """
    import idtlab
    import idtlab.cli

    config = write_config(workload, seed, scale, work)
    out = work / "traced"

    def one_pass(threads: int) -> tuple[float, float]:
        reset_dir(out)
        start, cpu = time.perf_counter(), time.process_time()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = idtlab.cli.main([workload.command, str(config), "--out", str(out), "--threads", str(threads)])
        checker.record(out, code)
        return time.perf_counter() - start, time.process_time() - cpu

    untraced_wall, untraced_cpu = one_pass(nproc())
    traced_wall, tracers = {}, {}
    for threads in (nproc(), 1):
        with Tracer(idtlab) as tracers[threads]:
            traced_wall[threads] = one_pass(threads)[0]
        tracers[threads].write_jsonl(WORK_ROOT / f"trace-{workload.name}-seed{seed}-threads{threads}.jsonl")
    totals, root_total = self_times(tracers[1].spans)
    return {
        "untraced_wall": untraced_wall,
        "untraced_cpu": untraced_cpu,
        "traced_wall": traced_wall[nproc()],
        "speedup": traced_wall[1] / traced_wall[nproc()],
        "self_s": totals,
        "root_s": root_total,
    }


def per_layer(workload: Workload, scale, seed: int, work: Path, checker: Checker) -> dict:
    from layers import layer_metrics

    metrics = layer_metrics(scale, work, write_config(workload, seed, scale, work), SRC)
    traced = trace_pass(workload, scale, seed, work, checker)
    self_s, root_s = traced["self_s"], traced["root_s"]
    for name in TRACE_SPANS:
        short = name.split(".", 1)[1]
        metrics[f"trace.self_ms.{short}"] = (self_s.get(name, 0.0) * 1e3, "ms")
        metrics[f"trace.share.{short}"] = (self_s.get(name, 0.0) / root_s, "ratio")
    for module in TRACED_MODULES:
        layer_s = sum(t for name, t in self_s.items() if name.startswith(module + "."))
        metrics[f"trace.layer_self_ms.{module}"] = (layer_s * 1e3, "ms")
        metrics[f"trace.layer_share.{module}"] = (layer_s / root_s, "ratio")
    metrics["trace.overhead_frac"] = (
        (traced["traced_wall"] - traced["untraced_wall"]) / traced["untraced_wall"], "ratio")

    # Thread scaling of `calibrate`: on the calibrate workload from its own
    # traced pass; elsewhere from the same entries at a reduced path count.
    if workload.name != "calibrate":
        calibrate = WORKLOADS["calibrate"]
        reduced = dataclasses.replace(scale, calibrate_paths=scale.scaling_paths)
        scaling_checker = Checker(check_in_process(calibrate, reduced))
        traced = trace_pass(calibrate, reduced, seed, work, scaling_checker)
        checker.absorb(scaling_checker)
    replays = WORKLOADS["calibrate"].ops(scale)
    metrics["statlab.calibrate_speedup_2t"] = (traced["speedup"], "ratio")
    metrics["statlab.calibrate_cpu_per_replay_ms"] = (traced["untraced_cpu"] * 1e3 / replays, "ms")
    return metrics


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "IDTLAB_THREADS")},
        "seed": seed,
    }


def load_reference(workload: Workload, seed: int, scale_name: str):
    """Reference values, pinned only for the default seed at full scale."""
    if seed != DEFAULT_SEED or scale_name != "full":
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]


def record_reference(workload: Workload, values: dict) -> None:
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    doc[workload.name] = values
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's outputs as the reference (needs --seed {DEFAULT_SEED})")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idtlab" / "__init__.py").is_file():
        print(f"bench: no idtlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != DEFAULT_SEED or args.scale != "full"):
        print(f"bench: --record-reference needs --seed {DEFAULT_SEED} and --scale full", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, scale = WORKLOADS[args.workload], SCALES[args.scale]
    reference = None if args.record_reference else load_reference(workload, args.seed, args.scale)
    if args.trace:
        checker = Checker(check_in_process(workload, scale), reference)
    else:
        checker = Checker(check_in_child(workload, args.scale), reference)
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    reset_dir(work)
    try:
        if args.trace:
            metrics = per_layer(workload, scale, args.seed, work, checker)
        else:
            metrics = end_to_end(workload, scale, args.seed, args.seconds, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record_reference and checker.failed == 0:
        record_reference(workload, checker.first_values)

    print("# machine " + json.dumps(machine_record(args.seed), sort_keys=True))
    for reason in checker.reasons:
        print(f"# failed: {reason}")
    print(f"# failed_frac {checker.failed / checker.attempted:.6g} ({checker.failed}/{checker.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"# {workload.throughput} {metrics['ops_per_s'][0]:.6g} 1/s (reported as ops_per_s)")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

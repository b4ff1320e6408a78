"""Isolated calls into each idtlab layer, timed one public function at a time.

Every figure is the median of ``scale.layer_reps`` timed calls after one
untimed warm-up call, so lazy imports and first-touch allocations are not
counted.  The inputs are fixed (seed 7): the figures depend on the code,
not on the workload seed.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import GRID3, GRID64, Scale

LAYER_SEED = 7

# spec config snippets, named as in the per-layer metric names
FAMILIES = {
    "stable_line": "spec.kind = stable_line\nspec.alpha = 1.5",
    "power_line": "spec.kind = power_line\nspec.alpha = 0.7",
    "fbm": "spec.kind = fbm\nspec.hurst = 0.3",
    "spectral": "spec.kind = spectral\nspec.alpha = 1\nspec.locations = 1\nspec.weights = 1",
    "additive_gamma": "spec.kind = additive\nspec.alpha = 0.7\nspec.family.kind = gamma",
    "subordinated": (
        "spec.kind = subordinated\nspec.family.kind = brownian\n"
        "spec.chrono.kind = additive\nspec.chrono.alpha = 0.7\nspec.chrono.family.kind = gamma"
    ),
    "mixture": (
        "spec.kind = mixture\nspec.dilations = 1 2\nspec.weights = 0.5 0.5\n"
        "spec.base.kind = fbm\nspec.base.hurst = 0.3"
    ),
    "weighted_subordinator": (
        "spec.kind = weighted_subordinator\nspec.alpha = 0.7\nspec.dilations = 1 2\n"
        "spec.weights = 0.5 0.5\nspec.family.kind = gamma"
    ),
}


def _median_s(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds(src_dir, reps: int) -> float:
    """Median time for a fresh interpreter to import ``idtlab.cli``."""
    code = "import time; t = time.perf_counter(); import idtlab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(reps + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def layer_metrics(scale: Scale, work_dir, config_path, src_dir) -> dict:
    """Per-layer figures as ``{name: (value, unit)}``."""
    from idtlab import cli, io, kernels, randkit, statlab, transforms
    from idtlab.processes import TimeGrid, generate
    from idtlab.thresholds import ThresholdTable

    n, reps = scale.layer_paths, scale.layer_reps
    rng = randkit.RngState(LAYER_SEED)
    grid3 = TimeGrid([float(t) for t in GRID3.split()])
    grid64 = TimeGrid([float(t) for t in GRID64.split()])
    specs = {name: cli.build_spec(cli.parse_config_text(text)["spec"], "spec") for name, text in FAMILIES.items()}
    out: dict = {}

    def ms(name, fn, count=reps):
        out[name] = (_median_s(fn, count) * 1e3, "ms")

    stable = generate(specs["stable_line"], grid3, n, rng.split(1))
    groups = statlab.default_theta_groups(3)
    ms("statlab.ecf_ms", lambda: [statlab.ecf(stable, cols, thetas) for cols, thetas in groups])
    for order in (2, 3):
        ms(f"statlab.idt_test_ms.n{order}", lambda: statlab.idt_test(
            specs["stable_line"], 1.5, order, grid3, grid3.times, n, rng.split(2), float("inf")))
    a, b = randkit.sample_normal(rng.split(3), n), randkit.sample_normal(rng.split(4), n)
    ms("statlab.ks_two_sample_ms", lambda: statlab.ks_two_sample(a, b), 5 * reps)
    ms("transforms.sum_independent_ms.n2",
       lambda: transforms.sum_independent(specs["fbm"], 2, grid3, n, rng.split(5)))
    y = np.array([-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75])
    lamperti_input = generate(specs["fbm"], TimeGrid(np.exp(y)), n, rng.split(6))
    ms("transforms.lamperti_apply_ms", lambda: transforms.lamperti_apply(lamperti_input, 0.6, y), 5 * reps)

    for name, spec in specs.items():
        ms(f"processes.generate_ms.{name}", lambda spec=spec: generate(spec, grid3, n, rng.split(8)))
    for name in ("fbm", "subordinated"):
        ms(f"processes.generate_ms.{name}_m64", lambda name=name: generate(specs[name], grid64, n, rng.split(9)))

    draws = 50 * n
    for name, fn in (
        ("stable", lambda: randkit.sample_stable(rng.split(10), randkit.StableParams(1.5), draws)),
        ("normal", lambda: randkit.sample_normal(rng.split(11), draws)),
        ("gamma", lambda: randkit.sample_gamma(rng.split(12), 1.0, 1.0, draws)),
    ):
        out[f"randkit.{name}_ns"] = (_median_s(fn, reps) * 1e9 / draws, "ns")
    fbm_kernel = specs["fbm"].kernel
    out["kernels.cov_matrix_us.m64"] = (_median_s(lambda: kernels.cov_matrix(fbm_kernel, grid64), 20 * reps) * 1e6, "us")

    # CSV text I/O is slow, so it gets a tenth of the paths of the binary files
    for fmt, writer, reader, paths in (
        ("csv", io.write_csv, io.read_csv, max(n // 10, 100)),
        ("binary", io.write_binary, io.read_binary, n),
    ):
        ensemble = generate(specs["subordinated"], grid64, paths, rng.split(13))
        path = os.path.join(work_dir, f"layer.{fmt}")
        write_s = _median_s(lambda: writer(ensemble, path), reps)
        mb = os.path.getsize(path) / 1e6
        read_s = _median_s(lambda: reader(path), reps)
        out[f"io.write_{fmt}_mb_s"] = (mb / write_s, "MB/s")
        out[f"io.read_{fmt}_mb_s"] = (mb / read_s, "MB/s")
        os.unlink(path)

    ms("thresholds.load_ms", ThresholdTable.default, 10 * reps)
    ms("cli.parse_config_ms", lambda: cli.load_config(config_path), 10 * reps)
    out["cli.import_s"] = (import_seconds(src_dir, reps), "s")
    return out

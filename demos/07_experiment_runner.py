"""The batch experiment runner, driven from Python.

Writes a config, runs it through the CLI, and shows the report files.
The same flow works from a shell:

    idtlab run experiment.conf
    idtlab report out/
    idtlab export experiment.conf
"""

import json
import pathlib
import subprocess
import sys
import tempfile

CONFIG = """
seed = 123
n_paths = 20000
grid = 0.5 1 2
threshold_table = default
export_csv = true
output_dir = {out}

spec.kind = fbm
spec.hurst = 0.3

test.divide2.kind = idt
test.divide2.n = 2

test.divide3.kind = idt
test.divide3.n = 3

test.factorize.kind = temporal_sd
test.factorize.b = 0.5
"""

with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    out = tmp / "out"
    conf = tmp / "experiment.conf"
    conf.write_text(CONFIG.format(out=out))

    proc = subprocess.run(
        [sys.executable, "-m", "idtlab", "run", str(conf)],
        capture_output=True,
        text=True,
    )
    print(proc.stdout)
    print(f"exit code: {proc.returncode} (0 = all tests passed)")

    summary = json.loads((out / "summary.json").read_text())
    print("reports written:", sorted(p.name for p in out.iterdir()))
    for name, rep in summary["reports"].items():
        print(f"  {name}: statistic {rep['statistic']:.4f} vs threshold {rep['threshold']:.4f}")

    header = (out / "paths.csv").read_text().splitlines()[0]
    print("ensemble CSV header:", header)

import json
import subprocess
import sys

import numpy as np
import pytest

from idtlab.cli import main, parse_config_text, ConfigError, build_spec
from idtlab.io import read_binary, read_csv
from idtlab.processes import StableLine, TimeGrid, generate
from idtlab.randkit import RngState

RUN_OK = """
seed = 7
n_paths = 500
grid = 0.5 1 2
output_dir = {out}

spec.kind = stable_line
spec.alpha = 1.5

test.pathline.kind = idt
test.pathline.n = 2
test.pathline.threshold = 0.5
"""

RUN_FAIL = """
seed = 7
n_paths = 2000
grid = 0.5 1 2
output_dir = {out}

spec.kind = fbm
spec.hurst = 0.3

test.wrong.kind = idt
test.wrong.n = 2
test.wrong.alpha = 1.0   # the fBm exponent is 0.6; this must fail
test.wrong.threshold = 0.06
"""


def _write(tmp_path, text, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_parser_sections_and_comments():
    tree = parse_config_text("a.b = 1 # comment\n# full comment line\nc = x y\n")
    assert tree == {"a": {"b": "1"}, "c": "x y"}
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na.b = 2\n")


def test_build_spec_round_trip():
    tree = parse_config_text(
        "kind = subordinated\nfamily.kind = brownian\nfamily.volatility = 1\n"
        "chrono.kind = additive\nchrono.family.kind = gamma\nchrono.family.shape = 1\n"
        "chrono.family.rate = 1\nchrono.alpha = 0.7\n"
    )
    spec = build_spec(tree, "spec")
    assert spec.idt_exponent == 0.7


def test_run_pass_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, RUN_OK.format(out=out)), "--threads", "1"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "ok 1 - idt[stable_line(alpha=1.5)]" in captured
    report = json.loads((out / "report_pathline.json").read_text())
    assert report["report"]["pass"] is True
    assert report["config"]["spec.kind"] == "stable_line"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is True


def test_run_failing_test_exit_one(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", _write(tmp_path, RUN_FAIL.format(out=out)), "--threads", "1"])
    assert code == 1
    assert "not ok 1" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is False


def test_run_missing_seed_exit_two(tmp_path, capsys):
    conf = "n_paths = 500\ngrid = 1 2\nspec.kind = stable_line\nspec.alpha = 1\n"
    code = main(["run", _write(tmp_path, conf)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_run_unknown_spec_kind_exit_two(tmp_path, capsys):
    conf = "seed = 1\nn_paths = 500\ngrid = 1 2\nspec.kind = pony\n"
    code = main(["run", _write(tmp_path, conf)])
    assert code == 2
    assert "spec.kind" in capsys.readouterr().err


def test_run_small_n_paths_exit_two(tmp_path):
    conf = "seed = 1\nn_paths = 50\ngrid = 1 2\nspec.kind = stable_line\nspec.alpha = 1\n"
    assert main(["run", _write(tmp_path, conf)]) == 2


@pytest.mark.parametrize(
    "spec_lines, field",
    [
        ("spec.kind = fbm\nspec.hurst = 1.5\n", "'spec.hurst'"),
        ("spec.kind = stable_line\nspec.alpha = 2.5\n", "'spec.alpha'"),
        (
            "spec.kind = subordinated\nspec.family.kind = brownian\n"
            "spec.chrono.kind = additive\nspec.chrono.alpha = 0.7\n"
            "spec.chrono.family.kind = gamma\nspec.chrono.family.shape = -1\n",
            "'spec.chrono.family.shape'",
        ),
    ],
    ids=["fbm_hurst", "stable_alpha", "nested_gamma_shape"],
)
def test_run_out_of_range_spec_value_exit_two(tmp_path, capsys, spec_lines, field):
    conf = "seed = 1\nn_paths = 500\ngrid = 1 2\n" + spec_lines
    assert main(["run", _write(tmp_path, conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


@pytest.mark.parametrize(
    "test_lines, field",
    [
        ("test.x.kind = idt\ntest.x.n = 1\n", "'test.x.n'"),
        ("test.x.kind = stability\ntest.x.beta = 2\ntest.x.n = 1\n", "'test.x.n'"),
        ("test.x.kind = idt\ntest.x.n = 2\ntest.x.times = 0.7\n", "'test.x.times'"),
        ("test.x.kind = idt\ntest.x.n = 2\ntest.x.mode = twice\n", "'test.x.mode'"),
        ("test.x.kind = selfsimilarity\ntest.x.h = 0.5\ntest.x.a = 1\n", "'test.x.a'"),
        ("test.x.kind = temporal_sd\ntest.x.b = 1.5\n", "'test.x.b'"),
        (
            "test.x.kind = stationarity\ntest.x.y_grid = 0 0.5 1\ntest.x.window = 2\ntest.x.shift = 2\n",
            "'test.x.window', 'test.x.shift'",
        ),
        ("test.x.kind = stationarity\ntest.x.y_grid = 0 0 1\n", "'test.x.y_grid'"),
        (
            "test.x.kind = association\ntest.x.alpha = 0.6\ntest.x.times = 2 1\ntest.x.family.kind = brownian\n",
            "'test.x.times'",
        ),
    ],
    ids=[
        "idt_n", "stability_n", "times_off_grid", "idt_mode", "selfsim_a", "tsd_b",
        "stationarity_shift", "stationarity_y_grid", "association_times",
    ],
)
def test_run_test_precondition_exit_two(tmp_path, capsys, test_lines, field):
    conf = "seed = 1\nn_paths = 500\ngrid = 0.5 1 2\nspec.kind = stable_line\nspec.alpha = 1.5\n"
    conf += f"output_dir = {tmp_path / 'out'}\n" + test_lines + "test.x.threshold = 0.5\n"
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "test_lines",
    [
        "test.x.kind = idt\ntest.x.n = 2\n",
        "test.x.kind = temporal_sd\ntest.x.b = 0.5\n",
        "test.x.kind = stationarity\ntest.x.y_grid = 0 0.5 1\n",
        "test.x.kind = association\ntest.x.family.kind = brownian\n",
    ],
    ids=["idt", "temporal_sd", "stationarity", "association"],
)
def test_run_bad_exponent_exit_two(tmp_path, capsys, test_lines, alpha):
    conf = "seed = 1\nn_paths = 500\ngrid = 0.5 1 2\nspec.kind = stable_line\nspec.alpha = 1.5\n"
    conf += f"output_dir = {tmp_path / 'out'}\n" + test_lines + f"test.x.alpha = {alpha}\ntest.x.threshold = 0.5\n"
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'test.x.alpha': ")
    assert err.count("\n") == 1


def test_run_unordered_grid_exit_two(tmp_path, capsys):
    conf = "seed = 1\nn_paths = 500\ngrid = 2 1\nspec.kind = stable_line\nspec.alpha = 1\n"
    assert main(["run", _write(tmp_path, conf)]) == 2
    assert "'grid'" in capsys.readouterr().err


def test_run_calibrate_too_few_reps_exit_two(tmp_path, capsys):
    conf = RUN_OK.format(out=tmp_path / "out").replace(
        "test.pathline.threshold = 0.5\n", "threshold_table = calibrate\ncalibration.n_reps = 10\n"
    )
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "'calibration.n_reps'" in err


def test_run_threshold_key_missing_from_table_exit_two(tmp_path, capsys):
    # the shipped table has no entry at 500 paths
    conf = RUN_OK.format(out=tmp_path / "out").replace("test.pathline.threshold = 0.5\n", "")
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: test.pathline:")
    assert "test=idt|spec=stable_line(alpha=1.5)|n_paths=500|" in err


def test_run_malformed_threshold_table_exit_two(tmp_path, capsys):
    (tmp_path / "table.json").write_text("{not json")
    conf = RUN_OK.format(out=tmp_path / "out").replace(
        "test.pathline.threshold = 0.5\n", "threshold_table = table.json\n"
    )
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    assert "table.json" in capsys.readouterr().err


def test_run_seed_override_changes_reports(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    conf = _write(tmp_path, RUN_OK.format(out=out_a))
    assert main(["run", conf, "--threads", "1"]) == 0
    assert main(["run", conf, "--seed", "8", "--out", str(out_b), "--threads", "1"]) == 0
    rep_a = json.loads((out_a / "report_pathline.json").read_text())["report"]
    rep_b = json.loads((out_b / "report_pathline.json").read_text())["report"]
    assert rep_a["seed"] == 7 and rep_b["seed"] == 8
    assert rep_a["statistic"] != rep_b["statistic"]


def test_run_threads_do_not_change_reports(tmp_path):
    conf_text = RUN_OK.format(out=tmp_path / "o1") + "\ntest.extra.kind = idt\ntest.extra.n = 3\ntest.extra.threshold = 0.5\n"
    conf = _write(tmp_path, conf_text)
    assert main(["run", conf, "--threads", "1"]) == 0
    rep1 = (tmp_path / "o1" / "report_pathline.json").read_text()
    sum1 = (tmp_path / "o1" / "summary.json").read_text()
    assert main(["run", conf, "--out", str(tmp_path / "o2"), "--threads", "4"]) == 0
    rep2 = (tmp_path / "o2" / "report_pathline.json").read_text()
    sum2 = (tmp_path / "o2" / "summary.json").read_text()

    def strip_volatile(text):
        doc = json.loads(text)
        doc.pop("timestamp", None)
        doc["config"].pop("output_dir", None)
        return json.dumps(doc, sort_keys=True)

    assert strip_volatile(rep1) == strip_volatile(rep2)
    assert strip_volatile(sum1) == strip_volatile(sum2)


CALIBRATE_CONF = """
seed = 11
n_paths = 300
grid = 0.5 1 2
n_reps = 25
output = thresholds.json

entry.low.test = idt
entry.low.n = 2
entry.low.quantile = 0.8
entry.low.spec.kind = stable_line
entry.low.spec.alpha = 1

entry.high.test = idt
entry.high.n = 2
entry.high.quantile = 0.96
entry.high.spec.kind = stable_line
entry.high.spec.alpha = 1
"""


def test_calibrate_writes_table_and_is_deterministic(tmp_path):
    conf = _write(tmp_path, CALIBRATE_CONF)
    assert main(["calibrate", conf, "--threads", "1"]) == 0
    table_path = tmp_path / "thresholds.json"
    first = table_path.read_text()
    doc = json.loads(first)
    entries = doc["entries"]
    assert len(entries) == 2
    assert all(v > 0 for v in entries.values())
    lo = next(v for k, v in entries.items() if "q=0.8" in k)
    hi = next(v for k, v in entries.items() if "q=0.96" in k)
    assert lo <= hi
    assert main(["calibrate", conf, "--threads", "4"]) == 0
    assert table_path.read_text() == first  # bit-identical rerun


@pytest.mark.parametrize(
    "extra, field",
    [("n_reps = 10\n", "'entry.high.n_reps'"), ("entry.high.n = 1\n", "'entry.high.n'")],
    ids=["too_few_reps", "entry_n"],
)
def test_calibrate_config_error_exit_two(tmp_path, capsys, extra, field):
    conf = _write(tmp_path, CALIBRATE_CONF.replace("n_reps = 25\n", "") + extra)
    assert main(["calibrate", conf, "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not (tmp_path / "thresholds.json").exists()


def test_shipped_calibration_config_gives_the_shipped_keys(tmp_path, monkeypatch):
    """The CLI's field parsing and threshold keys, replayed on the shipped config."""
    import pathlib

    import idtlab.cli
    from idtlab.thresholds import ThresholdTable

    conf = pathlib.Path(__file__).parent.parent / "calibration" / "calibration.conf"
    text = conf.read_text().replace("output = ../src/idtlab/data/thresholds.json", "output = keys.json")
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: 0.0)
    assert main(["calibrate", _write(tmp_path, text), "--threads", "1"]) == 0
    keys = json.loads((tmp_path / "keys.json").read_text())["entries"]
    shipped = ThresholdTable.default().entries
    assert len(shipped) == 22
    assert sorted(keys) == sorted(shipped)


def test_run_with_calibrated_table(tmp_path):
    conf = _write(tmp_path, CALIBRATE_CONF)
    assert main(["calibrate", conf, "--threads", "1"]) == 0
    run_conf = _write(
        tmp_path,
        """
seed = 3
n_paths = 300
grid = 0.5 1 2
quantile = 0.96
threshold_table = thresholds.json
output_dir = {out}

spec.kind = stable_line
spec.alpha = 1

test.main.kind = idt
test.main.n = 2
""".format(out=tmp_path / "out"),
        name="run.conf",
    )
    assert main(["run", run_conf, "--threads", "1"]) == 0


EXPORT_CONF = """
seed = 21
n_paths = 120
grid = 0.5 1 2
output_dir = {out}
export.formats = csv bin

spec.kind = stable_line
spec.alpha = 1.5
"""


def test_export_round_trip(tmp_path):
    out = tmp_path / "out"
    conf = _write(tmp_path, EXPORT_CONF.format(out=out))
    assert main(["export", conf]) == 0
    from idtlab.cli import _STREAM_EXPORT

    expected = generate(
        StableLine(1.5), TimeGrid([0.5, 1.0, 2.0]), 120, RngState(21).split(_STREAM_EXPORT)
    )
    csv_back = read_csv(out / "paths.csv")
    bin_back = read_binary(out / "paths.bin")
    assert np.array_equal(csv_back.values, expected.values)
    assert np.array_equal(bin_back.values, expected.values)
    assert (out / "paths.bin").read_bytes()[:4] == b"IDT1"
    header = (out / "paths.csv").read_text().splitlines()[0]
    assert header == "t=0.5,t=1,t=2"


def test_export_unknown_format_exit_two(tmp_path):
    conf = _write(tmp_path, EXPORT_CONF.format(out=tmp_path / "o") + "export.formats = parquet\n")
    assert main(["export", conf]) == 2


def test_report_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, RUN_OK.format(out=out)), "--threads", "1"]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ok 1 - idt[stable_line(alpha=1.5)]" in text
    assert "1/1 tests passed" in text


def test_report_missing_dir_exit_two(tmp_path):
    assert main(["report", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize("text", ["{not json", '{"config": {}}', '{"report": {"name": "x"}}'])
def test_report_malformed_file_exit_two(tmp_path, capsys, text):
    (tmp_path / "report_bad.json").write_text(text)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "report_bad.json" in err


def test_console_entry_point_subprocess(tmp_path):
    conf = _write(tmp_path, RUN_OK.format(out=tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-m", "idtlab", "run", conf, "--threads", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok 1" in proc.stdout


def test_env_var_thread_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("IDTLAB_THREADS", "3")
    from idtlab.cli import _default_threads

    assert _default_threads() == 3
    monkeypatch.setenv("IDTLAB_THREADS", "bogus")
    assert _default_threads() >= 1

import json
import re
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


def _set_lines(text, lines):
    """``text`` with each ``key = value`` of ``lines`` in place of that key's line, or appended."""
    for line in lines.splitlines():
        key = line.split("=", 1)[0].strip()
        text, found = re.subn(rf"(?m)^{re.escape(key)} =.*$", line, text)
        if not found:
            text += line + "\n"
    return text


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


def _threshold_line(test_lines):
    """An explicit threshold for a distance test; association takes none."""
    return "" if "kind = association" in test_lines else "test.x.threshold = 0.5\n"


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
    conf += f"output_dir = {tmp_path / 'out'}\n" + test_lines + _threshold_line(test_lines)
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
    conf += f"output_dir = {tmp_path / 'out'}\n" + test_lines + f"test.x.alpha = {alpha}\n" + _threshold_line(test_lines)
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'test.x.alpha': ")
    assert err.count("\n") == 1


def test_run_unordered_grid_exit_two(tmp_path, capsys):
    conf = "seed = 1\nn_paths = 500\ngrid = 2 1\nspec.kind = stable_line\nspec.alpha = 1\n"
    assert main(["run", _write(tmp_path, conf)]) == 2
    assert "'grid'" in capsys.readouterr().err


def test_run_threshold_table_calibrate_exit_two(tmp_path, capsys):
    """``run`` replays no null: ``calibrate`` is read as a table path, which does not exist."""
    out = tmp_path / "out"
    conf = RUN_OK.format(out=out).replace("test.pathline.threshold = 0.5\n", "threshold_table = calibrate\n")
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read threshold table {tmp_path / 'calibrate'}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_threshold_key_missing_from_table_exit_two(tmp_path, capsys):
    # the shipped table has no entry at 500 paths
    conf = RUN_OK.format(out=tmp_path / "out").replace("test.pathline.threshold = 0.5\n", "")
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: test.pathline:")
    assert "test=idt|spec=stable_line(alpha=1.5)|n_paths=500|" in err


@pytest.mark.parametrize("source", ["default", "table.json"])
def test_run_reads_the_threshold_table_once(tmp_path, monkeypatch, source):
    from idtlab.thresholds import ThresholdTable

    reads = []

    class Table:
        def lookup(self, key):
            return 0.5

    def read(cls, *path):
        reads.append(path)
        return Table()

    monkeypatch.setattr(ThresholdTable, "default", classmethod(read))
    monkeypatch.setattr(ThresholdTable, "load", classmethod(read))
    tests = "".join(f"test.{name}.kind = idt\ntest.{name}.n = {n}\n" for name, n in (("a", 2), ("b", 3), ("c", 2)))
    conf = RUN_OK.format(out=tmp_path / "out").replace(
        "test.pathline.kind = idt\ntest.pathline.n = 2\ntest.pathline.threshold = 0.5\n",
        f"threshold_table = {source}\n" + tests,
    )
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 0
    assert reads == ([()] if source == "default" else [(str(tmp_path / "table.json"),)])
    assert len(json.loads((tmp_path / "out" / "summary.json").read_text())["reports"]) == 3


# the threshold key of RUN_OK's test, so a table's only fault is the one named
_KEY = (
    "test=idt|spec=stable_line(alpha=1.5)|n_paths=500|theta=m12:0.25-2|q=0.99|"
    "grid=[0.5,1.0,2.0]|mode=power|n=2|times=[0.5,1.0,2.0]"
)
# table text, and the part of its error that names the field
MALFORMED_TABLES = {
    "not json": ("{not json", "Expecting property name"),
    "list": ("[]", "expected a JSON object, got []"),
    "version 2": (f'{{"version": 2, "entries": {{"{_KEY}": 0.5}}}}', "field 'version'"),
    "version true": (f'{{"version": true, "entries": {{"{_KEY}": 0.5}}}}', "field 'version'"),
    "meta 3": (f'{{"version": 1, "meta": 3, "entries": {{"{_KEY}": 0.5}}}}', "field 'meta'"),
    "entry string": (f'{{"version": 1, "entries": {{"{_KEY}": "abc"}}}}', "field 'entries', key"),
    "entry null": (f'{{"version": 1, "entries": {{"{_KEY}": null}}}}', "field 'entries', key"),
    "entry true": (f'{{"version": 1, "entries": {{"{_KEY}": true}}}}', "field 'entries', key"),
    "entry numeric string": (f'{{"version": 1, "entries": {{"{_KEY}": "0.05"}}}}', "field 'entries', key"),
    "entry NaN": (f'{{"version": 1, "entries": {{"{_KEY}": NaN}}}}', "field 'entries', key"),
    "entries list": ('{"version": 1, "entries": []}', "field 'entries': expected an object"),
    "no entries": ('{"version": 1}', "field 'entries': missing"),
}


@pytest.mark.parametrize("text, message", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_run_malformed_threshold_table_exit_two(tmp_path, capsys, text, message):
    (tmp_path / "table.json").write_text(text)
    conf = RUN_OK.format(out=tmp_path / "out").replace(
        "test.pathline.threshold = 0.5\n", "threshold_table = table.json\n"
    )
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read threshold table {tmp_path / 'table.json'}: ")
    assert message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_well_formed_threshold_table_gates_the_test(tmp_path):
    (tmp_path / "table.json").write_text(f'{{"version": 1, "meta": {{}}, "entries": {{"{_KEY}": 5}}}}')
    conf = RUN_OK.format(out=tmp_path / "out").replace(
        "test.pathline.threshold = 0.5\n", "threshold_table = table.json\n"
    )
    assert main(["run", _write(tmp_path, conf), "--threads", "1"]) == 0
    assert json.loads((tmp_path / "out" / "report_pathline.json").read_text())["report"]["threshold"] == 5.0


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


FBM_THREE_TESTS = """
seed = 7
n_paths = 500
grid = 0.5 1 2
output_dir = {out}
export_csv = false

spec.kind = fbm
spec.hurst = 0.3

test.a.kind = idt
test.a.n = 2
test.a.threshold = 0.5
test.b.kind = idt
test.b.n = 3
test.b.threshold = 0.5
test.c.kind = idt
test.c.n = 2
test.c.mode = sum
test.c.threshold = 0.5
"""


def test_run_tests_start_no_thread(tmp_path, monkeypatch):
    import threading

    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self.name) or start(self))
    conf = _write(tmp_path, FBM_THREE_TESTS.format(out=tmp_path / "out"))
    assert main(["run", conf, "--threads", "4"]) == 0
    # the tests run in config order on the calling thread
    assert started == []
    assert len(json.loads((tmp_path / "out" / "summary.json").read_text())["reports"]) == 3


CALIBRATE_CONF = """
seed = 11
n_paths = 300
grid = 0.5 1 2
quantile = 0.96
n_reps = 25
output = thresholds.json

entry.two.test = idt
entry.two.n = 2
entry.two.spec.kind = stable_line
entry.two.spec.alpha = 1

entry.three.test = idt
entry.three.n = 3
entry.three.spec.kind = stable_line
entry.three.spec.alpha = 1
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
    # every entry ran with the command's replay count and quantile, which the table records
    assert doc["meta"] == {"seed": 11, "n_reps": 25, "quantile": 0.96, "tool": "idtlab calibrate"}
    assert main(["calibrate", conf, "--threads", "4"]) == 0
    assert table_path.read_text() == first  # bit-identical rerun


@pytest.mark.parametrize(
    "extra, flags, field",
    [
        ("n_reps = 10\n", [], "fields 'n_reps', 'quantile': 10 repetitions cannot resolve the 0.96 quantile"),
        ("entry.three.n = 1\n", [], "'entry.three.n'"),
        ("n_paths = 0\n", [], "'n_paths'"),
        ("", ["--paths", "0"], "'n_paths'"),
        # one table is one calibration: an entry overrides none of the command's values
        ("entry.two.n_paths = 300\n", [], "unknown config field 'entry.two.n_paths'"),
        ("entry.two.quantile = 0.9\n", [], "unknown config field 'entry.two.quantile'"),
        ("entry.two.n_reps = 40\n", [], "unknown config field 'entry.two.n_reps'"),
        ("entry.two.grid = 0.5 1 2\n", [], "unknown config field 'entry.two.grid'"),
        # the maximum of no replays is undefined
        ("n_reps = 0\nquantile = 1\n", [], "fields 'n_reps', 'quantile': 0 repetitions cannot resolve the 1.0 quantile"),
        # the key leaves alpha out, so this entry would overwrite entry.two's threshold
        (
            "entry.x.test = idt\nentry.x.n = 2\nentry.x.alpha = 1.3\nentry.x.spec.kind = stable_line\n"
            "entry.x.spec.alpha = 1\n",
            [],
            "entries 'entry.two' and 'entry.x' have the same threshold key ",
        ),
        (
            "entry.x.test = association\nentry.x.spec.kind = stable_line\nentry.x.spec.alpha = 1\n",
            [],
            "entry.x: association uses p-values, not calibrated thresholds",
        ),
        # the table needs a file name, under the config's directory or under --out
        ("output =\n", [], "field 'output': expected a file name, got ''"),
        ("output = sub/\n", [], "field 'output': expected a file name, got 'sub/'"),
        ("output = sub/..\n", [], "field 'output': expected a file name, got 'sub/..'"),
    ],
    ids=[
        "too_few_reps", "entry_n", "n_paths", "paths_flag", "entry_n_paths", "entry_quantile", "entry_n_reps",
        "entry_grid", "no_reps_at_quantile_one", "same_key", "p_value_test", "empty_output", "output_without_file_name",
        "output_parent_dir",
    ],
)
def test_calibrate_config_error_exit_two(tmp_path, capsys, monkeypatch, extra, flags, field):
    import idtlab.cli

    replays = []
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: replays.append(args) or 0.0)
    conf = _write(tmp_path, _set_lines(CALIBRATE_CONF.replace("n_reps = 25\n", ""), extra))
    out = tmp_path / "out"
    assert main(["calibrate", conf, "--out", str(out), "--threads", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert field in err
    assert replays == []
    assert not out.exists()


@pytest.mark.parametrize("quantile, n_reps", [(0.9, 10), (0.95, 20), (0.99, 100)])
@pytest.mark.parametrize("short", [True, False], ids=["short", "exact"])
def test_calibrate_replay_count_boundary(tmp_path, capsys, quantile, n_reps, short):
    # n_reps = 1/(1 - quantile) resolves the quantile; one fewer does not
    conf = (
        f"seed = 3\nn_paths = 50\ngrid = 0.5 1 2\nquantile = {quantile}\nn_reps = {n_reps - short}\n"
        "entry.x.test = idt\nentry.x.n = 2\n"
        "entry.x.spec.kind = stable_line\nentry.x.spec.alpha = 1\n"
    )
    code = main(["calibrate", _write(tmp_path, conf), "--threads", "1"])
    table = tmp_path / "thresholds.json"
    if short:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: fields 'n_reps', 'quantile': ")
        assert not table.exists()
    else:
        assert code == 0
        assert len(json.loads(table.read_text())["entries"]) == 1


def test_calibrate_out_dir_takes_the_basename_of_output(tmp_path):
    conf = _write(tmp_path, CALIBRATE_CONF.replace("output = thresholds.json", "output = ../x/thresholds.json"))
    out = tmp_path / "o"
    assert main(["calibrate", conf, "--out", str(out), "--threads", "1"]) == 0
    assert len(json.loads((out / "thresholds.json").read_text())["entries"]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["thresholds.json"]
    assert not (tmp_path / "x").exists()
    assert not (tmp_path.parent / "x").exists()


def test_calibrate_creates_a_missing_nested_out_dir(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(["calibrate", _write(tmp_path, CALIBRATE_CONF), "--out", str(out), "--threads", "1"]) == 0
    assert len(json.loads((out / "thresholds.json").read_text())["entries"]) == 2


@pytest.mark.parametrize("command", ["calibrate", "export"])
def test_out_dir_blocked_by_a_file_exit_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    import idtlab.cli

    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    work = []
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: work.append(args))
    monkeypatch.setattr(idtlab.cli, "sample_blocks", lambda *args, **kwargs: work.append(args))
    text = CALIBRATE_CONF if command == "calibrate" else EXPORT_CONF.format(out=tmp_path / "o")
    assert main([command, _write(tmp_path, text), "--out", str(blocker / "sub"), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert len(err.strip().splitlines()) == 1
    assert work == []


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


def test_shipped_probe_exponents_are_the_specs_own_indices():
    """``calibrate`` replays a ``selfsimilarity`` or ``stability`` entry at its own ``h`` or ``beta``, so
    each shipped entry must state its spec's index, or its threshold is that of a wrong exponent."""
    import math
    import pathlib

    from idtlab.processes import AdditiveTimeChange, StableMotion

    conf = pathlib.Path(__file__).parent.parent / "calibration" / "calibration.conf"
    checked = []
    for name, node in sorted(parse_config_text(conf.read_text())["entry"].items()):
        if node["test"] not in ("selfsimilarity", "stability"):
            continue
        spec = build_spec(node["spec"], f"entry.{name}.spec")
        # a stable motion of index b on the clock t**alpha is self-similar with h = alpha/b and stable
        # with index b; an entry on any other spec needs its indices worked out here
        assert isinstance(spec, AdditiveTimeChange) and isinstance(spec.family, StableMotion), name
        index = spec.family.index
        field, value = ("h", spec.alpha / index) if node["test"] == "selfsimilarity" else ("beta", index)
        # rel_tol allows the last digit of a decimal h such as 0.8/1.2
        assert math.isclose(float(node[field]), value, rel_tol=1e-15), f"entry.{name}.{field}"
        checked.append(name)
    assert checked == ["selfsim_addstable", "stab_addstable"]


def test_run_reads_the_threshold_that_calibrate_wrote(tmp_path):
    """A table from an ``idtlab calibrate`` entry that matches a test's fields gives ``run`` its threshold."""
    spec = "spec.kind = additive\nspec.alpha = 0.8\nspec.family.kind = stable_motion\nspec.family.index = 1.2\n"
    common = "seed = 7\nn_paths = 200\ngrid = 0.5 1 2\nquantile = 0.9\n"
    entry = "test = stability\nbeta = 1.2\nn = 2\n" + spec
    calibrate_conf = common + "n_reps = 20\n" + "".join(f"entry.x.{line}\n" for line in entry.splitlines())
    out = tmp_path / "cal"
    assert main(["calibrate", _write(tmp_path, calibrate_conf, "cal.conf"), "--out", str(out), "--threads", "1"]) == 0
    (threshold,) = json.loads((out / "thresholds.json").read_text())["entries"].values()
    test = "test.x.kind = stability\ntest.x.beta = 1.2\ntest.x.n = 2\n"
    run_conf = common + f"threshold_table = cal/thresholds.json\noutput_dir = {tmp_path / 'out'}\n" + test + spec
    assert main(["run", _write(tmp_path, run_conf, "run.conf"), "--threads", "1"]) in (0, 1)
    assert json.loads((tmp_path / "out" / "report_x.json").read_text())["report"]["threshold"] == threshold


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


SUBORDINATED_SPEC = """
spec.kind = subordinated
spec.family.kind = brownian
spec.chrono.kind = additive
spec.chrono.alpha = 0.7
spec.chrono.family.kind = gamma
"""



@pytest.mark.parametrize(
    "command, text, field",
    [
        ("run", RUN_OK.replace("spec.alpha = 1.5\n", ""), "'spec.alpha'"),
        ("run", RUN_OK.replace("test.pathline.n = 2\n", ""), "'test.pathline.n'"),
        ("run", RUN_OK.replace("spec.kind = stable_line\n", ""), "'spec.kind'"),
        (
            "run",
            RUN_OK.replace("spec.kind = stable_line\nspec.alpha = 1.5\n", "spec.kind = additive\nspec.alpha = 0.7\nspec.family.kind = stable_motion\n"),
            "'spec.family.index'",
        ),
        ("calibrate", CALIBRATE_CONF + "entry.b.test = idt\nentry.b.n = 2\nentry.b.spec.kind = fbm\n", "'entry.b.spec.hurst'"),
        ("calibrate", CALIBRATE_CONF + "entry.b.n = 2\nentry.b.spec.kind = fbm\nentry.b.spec.hurst = 0.3\n", "'entry.b.test'"),
    ],
    ids=["spec_alpha", "test_n", "spec_kind", "family_index", "entry_spec_hurst", "entry_test"],
)
def test_missing_field_is_named_by_its_dotted_path(tmp_path, capsys, command, text, field):
    conf = _write(tmp_path, text.format(out=tmp_path / "out"))
    assert main([command, conf, "--threads", "1"]) == 2
    assert capsys.readouterr().err == f"config error: missing required config field {field}\n"


@pytest.mark.parametrize(
    "command, text, key, accepted",
    [
        (
            "run",
            RUN_OK.replace("spec.kind = stable_line\nspec.alpha = 1.5\n", SUBORDINATED_SPEC + "spec.family.drfit = 0.3\n"),
            "spec.family.drfit",
            "kind, volatility, drift",
        ),
        ("run", RUN_OK + "spec.aplha = 1\n", "spec.aplha", "kind, alpha"),
        ("run", RUN_OK + "test.pathline.mdoe = sum\n", "test.pathline.mdoe", "kind, threshold, times, n, alpha, mode"),
        (
            "run",
            RUN_OK + "test.assoc.kind = association\ntest.assoc.alpha = 1\ntest.assoc.family.kind = brownian\n"
            "test.assoc.threshold = 0.5\n",
            "test.assoc.threshold",
            "kind, times, alpha, level, family",
        ),
        (
            "calibrate",
            CALIBRATE_CONF + "entry.two.nreps = 30\n",
            "entry.two.nreps",
            "test, spec, times, n, alpha, mode",
        ),
    ],
    ids=["family", "spec", "test", "association_threshold", "entry"],
)
def test_undeclared_key_exit_two(tmp_path, capsys, monkeypatch, command, text, key, accepted):
    import idtlab.cli

    replays = []
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: replays.append(args) or 0.0)
    conf = _write(tmp_path, text.format(out=tmp_path / "out"))
    assert main([command, conf, "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown config field {key!r}; ")
    assert err.rstrip().endswith(f"takes {accepted}")
    assert replays == []


@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_every_section_is_checked_before_the_first_replay(tmp_path, capsys, monkeypatch, command):
    """No null replay (``calibrate``) or test (``run``) starts before the last section is checked."""
    import idtlab.cli
    import idtlab.statlab

    replays = []
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: replays.append(args) or 0.0)
    monkeypatch.setattr(idtlab.statlab, "idt_test", lambda *args, **kwargs: replays.append(args))
    if command == "run":
        text = RUN_OK + "test.zlast.kind = idt\n"  # sorted last, and missing its n
        field = "'test.zlast.n'"
    else:
        text = CALIBRATE_CONF + "entry.zlast.test = idt\nentry.zlast.n = 2\nentry.zlast.spec.kind = stable_line\nentry.zlast.spec.alpha = 3\n"
        field = "'entry.zlast.spec.alpha'"
    conf = _write(tmp_path, text.format(out=tmp_path / "out"))
    assert main([command, conf, "--threads", "1"]) == 2
    assert field in capsys.readouterr().err
    assert replays == []
    assert not (tmp_path / "thresholds.json").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("run", RUN_OK + "qauntile = 0.5\n", "qauntile"),
        ("run", RUN_OK + "export.formats = bin\n", "export.formats"),
        ("run", RUN_OK + "calibration.nreps = 100\n", "calibration.nreps"),
        ("run", RUN_OK + "calibration = 100\n", "calibration"),
        ("export", EXPORT_CONF.replace("export.formats", "export.fromats"), "export.fromats"),
        ("export", EXPORT_CONF + "threshold_tabel = default\n", "threshold_tabel"),
        ("calibrate", CALIBRATE_CONF + "calibration.n_reps = 100\n", "calibration.n_reps"),
        ("calibrate", CALIBRATE_CONF + "output_dir = elsewhere\n", "output_dir"),
        # run replays no null, so neither command takes a replay count
        ("run", RUN_OK + "calibration.n_reps = 100\n", "calibration.n_reps"),
        ("export", EXPORT_CONF + "calibration.n_reps = 100\n", "calibration.n_reps"),
    ],
    ids=["run_quantile", "run_export", "run_calibration", "run_calibration_scalar",
         "export_formats", "export_top", "calibrate_calibration", "calibrate_output_dir",
         "run_calibration_n_reps", "export_calibration_n_reps"],
)
def test_undeclared_command_key_exit_two(tmp_path, capsys, command, text, key):
    out = tmp_path / "out"
    conf = _write(tmp_path, text.format(out=out))
    assert main([command, conf, "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown key {key!r}; idtlab {command} takes seed, n_paths, grid, ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert not (tmp_path / "thresholds.json").exists()


def test_export_reads_a_run_config(tmp_path):
    text = RUN_OK.replace("output_dir", "threshold_table = default\nquantile = 0.99\nexport_csv = true\noutput_dir")
    conf = _write(tmp_path, text.format(out=tmp_path / "out"))
    assert main(["export", conf, "--threads", "1"]) == 0
    assert read_csv(tmp_path / "out" / "paths.csv").values.shape == (500, 3)


def _shipped_configs():
    """``(source, command, text)`` of every config shipped in the repository."""
    import ast
    import importlib.util
    import pathlib
    import re

    root = pathlib.Path(__file__).parent.parent
    yield "calibration.conf", "calibrate", (root / "calibration" / "calibration.conf").read_text()
    for demo in sorted((root / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "CONFIG" for t in node.targets):
                text = ast.literal_eval(node.value)
                yield demo.stem, "run", text
                yield demo.stem, "export", text
    for block in re.findall(r"^```\w*\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S):
        if re.search(r"^seed = ", block, re.M):
            yield "README", "run", block
            yield "README", "export", block
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["bench_workloads"]
    for workload in workloads.WORKLOADS.values():
        yield f"bench_{workload.name}", workload.command, workload.config(1, workloads.SCALES["tiny"])


SHIPPED_CONFIGS = list(_shipped_configs())


@pytest.mark.parametrize(
    "command, text", [c[1:] for c in SHIPPED_CONFIGS], ids=[f"{src}-{cmd}" for src, cmd, _ in SHIPPED_CONFIGS]
)
def test_shipped_configs_pass_the_strict_parser(tmp_path, monkeypatch, command, text):
    import idtlab.cli

    # every section is parsed and checked, and the tests run; null replays are skipped
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: 0.1)
    conf = _write(tmp_path, text.format(out=tmp_path / "out") if "{out}" in text else text)
    argv = [command, conf, "--out", str(tmp_path / "out"), "--threads", "1"]
    if command == "export":
        argv += ["--paths", "100"]
    assert main(argv) in (0, 1)


def test_every_kind_of_shipped_config_is_found():
    commands = [command for _, command, _ in SHIPPED_CONFIGS]
    assert commands.count("calibrate") == 2  # the shipped table and the benchmark
    assert commands.count("run") >= 3  # demo 07, the README example and the benchmark
    assert commands.count("export") >= 3


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


def test_export_bytes_do_not_depend_on_threads(tmp_path, monkeypatch):
    import idtlab.processes

    monkeypatch.setattr(idtlab.processes, "_BLOCK_BYTES", 8 * 3 * 7)  # 18 blocks of clock
    text = EXPORT_CONF.format(out=tmp_path / "o").replace("spec.kind = stable_line\nspec.alpha = 1.5\n", SUBORDINATED_SPEC)
    conf = _write(tmp_path, text)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["export", conf, "--out", str(out), "--threads", threads]) == 0
        written.append([(out / name).read_bytes() for name in ("paths.bin", "paths.csv")])
    assert written[0] == written[1]
    assert b"subordinated(" in written[0][0]


STREAMED_SPECS = {
    "subordinated": SUBORDINATED_SPEC,
    "additive_gamma": (
        "spec.kind = additive\nspec.alpha = 0.7\n"
        "spec.family.kind = gamma\nspec.family.shape = 0.8\nspec.family.rate = 2\n"
    ),
    "weighted_subordinator": (
        "spec.kind = weighted_subordinator\nspec.alpha = 0.7\nspec.dilations = 1 2\n"
        "spec.weights = 0.5 0.5\nspec.family.kind = gamma\n"
    ),
    "fbm": "spec.kind = fbm\nspec.hurst = 0.3\n",  # drawn whole: one block
}


@pytest.mark.parametrize("rows_per_block", [None, 7])
@pytest.mark.parametrize("kind", sorted(STREAMED_SPECS))
def test_streamed_export_matches_the_whole_ensemble_writers(tmp_path, monkeypatch, kind, rows_per_block):
    # 5,000 paths on 64 times are three 1 MiB blocks; 120 on 3 times are 18 blocks of 7
    import idtlab.processes
    from idtlab.cli import _STREAM_EXPORT
    from idtlab.io import write_binary, write_csv

    times = np.geomspace(0.0625, 4.0, 64) if rows_per_block is None else np.array([0.5, 1.0, 2.0])
    n_paths = 5000 if rows_per_block is None else 120
    if rows_per_block is not None:
        monkeypatch.setattr(idtlab.processes, "_BLOCK_BYTES", 8 * times.size * rows_per_block)
    text = (
        f"seed = 21\nn_paths = {n_paths}\ngrid = {' '.join(map(repr, times.tolist()))}\n"
        "export.formats = csv bin\n" + STREAMED_SPECS[kind]
    )
    spec = build_spec(parse_config_text(text)["spec"], "spec")
    whole = generate(spec, TimeGrid(times), n_paths, RngState(21).split(_STREAM_EXPORT))
    write_csv(whole, tmp_path / "paths.csv")
    write_binary(whole, tmp_path / "paths.bin")
    names = ("paths.csv", "paths.bin")
    expected = [(tmp_path / name).read_bytes() for name in names]
    conf = _write(tmp_path, text)
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["export", conf, "--out", str(out), "--threads", threads]) == 0
        assert [(out / name).read_bytes() for name in names] == expected


def test_export_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    # with 7-row blocks the clock decreases at local row 3 of the second
    # block, path 10, after the first block has gone to both files
    import idtlab.processes as proc
    from idtlab.processes import AdditiveTimeChange, ContractViolation

    def clock(spec, grid, n_paths, rng, threads=1, out=None):  # the clock's continuing block loop
        for _, rows in proc._row_blocks(n_paths, len(grid), True, out):
            rows[...] = [0.0, 1.0, 2.0]
            if calls:
                rows[3] = [0.0, 1.0, 0.5]
            calls.append(rows.shape[0])
            yield rows

    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * 3 * 7)
    monkeypatch.setattr(AdditiveTimeChange, "blocks", clock)
    text = EXPORT_CONF.format(out=tmp_path / "o")
    conf = _write(tmp_path, text.replace("spec.kind = stable_line\nspec.alpha = 1.5\n", SUBORDINATED_SPEC))
    for threads in ("1", "2"):
        calls = []
        out = tmp_path / f"t{threads}"
        with pytest.raises(ContractViolation, match="path 10 is decreasing"):
            main(["export", conf, "--out", str(out), "--threads", threads])
        assert calls[:2] == [7, 7]
        assert list(out.iterdir()) == []


def test_export_unknown_format_exit_two(tmp_path, capsys):
    text = EXPORT_CONF.replace("export.formats = csv bin", "export.formats = parquet")
    conf = _write(tmp_path, text.format(out=tmp_path / "o"))
    assert main(["export", conf]) == 2
    assert "unknown format 'parquet'" in capsys.readouterr().err


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


INCONSISTENT_REPORT = json.dumps({"report": {
    "name": "x", "statistic": 0.5, "threshold": 0.1, "pass": True, "n_samples": 10, "seed": 1,
    "details": {"convention": "distance"},
}})


@pytest.mark.parametrize(
    "text", ["{not json", '{"config": {}}', '{"report": {"name": "x"}}', INCONSISTENT_REPORT]
)
def test_report_malformed_file_exit_two(tmp_path, capsys, text):
    # the last one passes although its statistic exceeds its threshold
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


def _assert_subcommand_usage_error(err: str, command: str, message: str) -> None:
    """``err`` is the subcommand's usage, then one ``idtlab <command>: error:`` line."""
    assert err.startswith(f"usage: idtlab {command} [-h] ")
    assert err.endswith(f"\nidtlab {command}: error: {message}\n")


def test_default_threads_count_usable_cpus(monkeypatch):
    """The default is the CPUs in the affinity mask, else the CPU count."""
    import os

    from idtlab.cli import build_parser

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for command in ("run", "calibrate", "export"):
        assert build_parser().parse_args([command, "exp.conf"]).threads == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    for command in ("run", "calibrate", "export"):
        assert build_parser().parse_args([command, "exp.conf"]).threads == 64


def test_zero_padded_config_integer_is_base_ten(tmp_path):
    """``seed = 010`` is seed 10, as ``--seed 010`` is."""
    padded, plain = tmp_path / "padded", tmp_path / "plain"
    conf = EXPORT_CONF.replace("seed = 21", "seed = 010")
    assert main(["export", _write(tmp_path, conf.format(out=padded), "padded.conf"), "--threads", "1"]) == 0
    conf = _write(tmp_path, EXPORT_CONF.format(out=plain), "plain.conf")
    assert main(["export", conf, "--seed", "10", "--threads", "1"]) == 0
    for name in ("paths.csv", "paths.bin"):
        assert (padded / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("seed", ["0x10", "0o10", "0b10"])
def test_prefixed_config_integer_exit_two(tmp_path, capsys, seed):
    out = tmp_path / "out"
    conf = _write(tmp_path, EXPORT_CONF.replace("seed = 21", f"seed = {seed}").format(out=out))
    assert main(["export", conf, "--threads", "1"]) == 2
    assert capsys.readouterr().err == f"config error: field 'seed': expected an integer, got {seed!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("run", RUN_OK + "export_csv = ture\n", "'export_csv'"),
        ("export", EXPORT_CONF + "export_csv = ture\n", "'export_csv'"),
        ("export", EXPORT_CONF + "quantile = high\n", "'quantile'"),
        ("calibrate", CALIBRATE_CONF.replace("n_reps = 25", "n_reps = 2.5"), "'n_reps'"),
        ("calibrate", CALIBRATE_CONF.replace("quantile = 0.96", "quantile = high"), "'quantile'"),
    ],
    ids=["run_export_csv", "export_export_csv", "export_quantile",
         "calibrate_n_reps", "calibrate_quantile"],
)
def test_malformed_top_level_key_exit_two_before_any_work(tmp_path, capsys, monkeypatch, command, text, field):
    """A key that the command reads late, or not at all, is still checked first."""
    import idtlab.cli
    import idtlab.statlab

    work = []
    monkeypatch.setattr(idtlab.statlab, "idt_test", lambda *args, **kwargs: work.append("test"))
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: work.append("replay") or 0.0)
    monkeypatch.setattr(idtlab.cli, "sample_blocks", lambda *args, **kwargs: work.append("export"))
    monkeypatch.setattr(idtlab.cli, "generate", lambda *args, **kwargs: work.append("export"))
    out = tmp_path / "out"
    conf = _write(tmp_path, text.format(out=out))
    assert main([command, conf, "--out", str(out), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: field {field}: ")
    assert err.count("\n") == 1
    assert work == []
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf"]


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", RUN_OK + "seed = 8\n", "line 13: key 'seed' already set on line 2"),
        ("calibrate", CALIBRATE_CONF + "quantile = 0.5\n", "line 18: key 'quantile' already set on line 5"),
        ("export", EXPORT_CONF + "n_paths = 5\n", "line 10: key 'n_paths' already set on line 3"),
        ("calibrate", CALIBRATE_CONF + "entry.two.n = 4\n", "line 18: key 'entry.two.n' already set on line 10"),
    ],
    ids=["run", "calibrate", "export", "calibrate_section_key"],
)
def test_repeated_key_exit_two_before_any_work(tmp_path, capsys, monkeypatch, command, text, message):
    """A key set twice is an error, not a silent choice of its last value."""
    import idtlab.cli
    import idtlab.statlab

    work = []
    monkeypatch.setattr(idtlab.statlab, "idt_test", lambda *args, **kwargs: work.append("test"))
    monkeypatch.setattr(idtlab.cli, "calibrate", lambda *args, **kwargs: work.append("replay") or 0.0)
    monkeypatch.setattr(idtlab.cli, "sample_blocks", lambda *args, **kwargs: work.append("export"))
    out = tmp_path / "out"
    conf = _write(tmp_path, text.format(out=out))
    assert main([command, conf, "--out", str(out), "--threads", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert work == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf"]


STABLE_RUN = "seed = 1\nn_paths = 500\ngrid = 0.5 1 2\nspec.kind = stable_line\nspec.alpha = 1.5\n"
IDT_AT = "test.x.kind = idt\ntest.x.n = 2\ntest.x.alpha = 0.7\n"
ASSOCIATION_AT = "test.y.kind = association\ntest.y.alpha = 1.5\ntest.y.family.kind = stable_motion\ntest.y.family.index = 1.5\n"


@pytest.mark.parametrize(
    "test_lines, message",
    [
        (IDT_AT + "test.x.threshold = inf\n", "field 'test.x.threshold': expected a finite number, got 'inf'"),
        (IDT_AT + "test.x.threshold = -inf\n", "field 'test.x.threshold': expected a finite number, got '-inf'"),
        (IDT_AT + "test.x.threshold = nan\n", "field 'test.x.threshold': expected a finite number, got 'nan'"),
        (ASSOCIATION_AT + "test.y.level = 0\n", "field 'test.y.level': level must be inside (0, 1), got 0.0"),
        (ASSOCIATION_AT + "test.y.level = 1\n", "field 'test.y.level': level must be inside (0, 1), got 1.0"),
        (ASSOCIATION_AT + "test.y.level = nan\n", "field 'test.y.level': level must be inside (0, 1), got nan"),
    ],
    ids=["threshold_inf", "threshold_minus_inf", "threshold_nan", "level_zero", "level_one", "level_nan"],
)
def test_non_finite_threshold_or_level_outside_unit_exit_two_before_any_work(
    tmp_path, capsys, monkeypatch, test_lines, message
):
    """An infinite threshold would pass any statistic, a level of 0 any p-value."""
    import idtlab.statlab

    work = []
    monkeypatch.setattr(idtlab.statlab, "idt_test", lambda *args, **kwargs: work.append("test"))
    monkeypatch.setattr(idtlab.statlab, "association_test", lambda *args, **kwargs: work.append("test"))
    out = tmp_path / "out"
    conf = _write(tmp_path, STABLE_RUN + test_lines)
    assert main(["run", conf, "--out", str(out), "--threads", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert work == []
    assert not out.exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_nan_p_value_is_written_as_null_and_read_back(tmp_path, capsys, monkeypatch):
    """A NaN p-value makes strict JSON, and ``idtlab report`` reads it, and an old bare ``NaN``, as NaN."""
    import idtlab.statlab

    monkeypatch.setattr(idtlab.statlab, "ks_two_sample", lambda a, b: (float("nan"), float("nan")))
    out = tmp_path / "out"
    conf = _write(tmp_path, STABLE_RUN + ASSOCIATION_AT)
    assert main(["run", conf, "--out", str(out), "--threads", "1"]) == 1
    text = (out / "report_y.json").read_text()
    report = _strict_json(text)["report"]
    assert report["statistic"] is None and report["details"]["p_values"] == [None, None, None]
    assert report["pass"] is False
    assert _strict_json((out / "summary.json").read_text())["reports"]["y"] == report
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out.startswith("not ok 1 - association[stable_line(alpha=1.5)] statistic=nan ")
    (out / "report_y.json").write_text(text.replace('"statistic": null', '"statistic": NaN'))
    assert main(["report", str(out)]) == 0
    assert "not ok 1 - association" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-3", "abc", "2.5"])
@pytest.mark.parametrize("command", ["run", "calibrate", "export"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, command, threads):
    text = {"run": RUN_OK, "calibrate": CALIBRATE_CONF, "export": EXPORT_CONF}[command]
    out = tmp_path / "out"
    conf = _write(tmp_path, text.format(out=out))
    with pytest.raises(SystemExit) as exc:
        main([command, conf, "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    problem = f"must be at least 1, got {threads}" if threads in ("0", "-3") else f"invalid int value: {threads!r}"
    _assert_subcommand_usage_error(capsys.readouterr().err, command, f"argument --threads: {problem}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf"]


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["run", "calibrate", "export"])
def test_seed_out_of_range_exit_two_before_any_work(tmp_path, capsys, command, seed, source):
    import re

    text = {"run": RUN_OK, "calibrate": CALIBRATE_CONF, "export": EXPORT_CONF}[command]
    out = tmp_path / "out"
    if source == "config":
        conf, flags = _write(tmp_path, re.sub(r"(?m)^seed = \d+$", f"seed = {seed}", text.format(out=out))), []
    else:
        conf, flags = _write(tmp_path, text.format(out=out)), ["--seed", str(seed)]
    assert main([command, conf, "--out", str(out), "--threads", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'seed': ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf"]


@pytest.mark.parametrize("command", ["run", "calibrate", "export"])
def test_config_that_is_not_utf8_exit_two_before_any_work(tmp_path, capsys, command):
    conf, out = tmp_path / "exp.conf", tmp_path / "out"
    conf.write_bytes(b"seed = 1\n\xff\n")
    assert main([command, str(conf), "--out", str(out), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {conf}: 'utf-8' codec can't decode byte 0xff ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.conf"]


def test_report_on_a_directory_without_reports(tmp_path, capsys):
    (tmp_path / "summary.json").write_text("{}")
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"# no report files in {tmp_path}\n"


def test_readme_lists_each_command_key_as_declared():
    """README's key table shows each row's type and default and the commands that declare it."""
    import pathlib

    from idtlab.cli import _COMMAND_FIELDS

    def shown(default):
        if default is None:
            return "required"
        if default == {}:
            return "none"
        if isinstance(default, list):
            return " ".join(default)
        return str(default).lower() if isinstance(default, bool) else str(default)

    declared = {}
    for command, (keys, sections) in _COMMAND_FIELDS.items():
        for name, parse, default in keys + sections:
            row = declared.setdefault(name, (parse, shown(default), []))
            assert row[:2] == (parse, shown(default)), name  # one row per key
            row[2].append(command)
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| key | type | default | commands |\n|---|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines():
        key, parse, default, commands = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        listed[key] = (parse, default, sorted(commands.split(", ")))
    assert listed == {name: (parse, default, sorted(commands)) for name, (parse, default, commands) in declared.items()}

"""Batch experiment runner.

Subcommands::

    idtlab run <config>        generate ensembles, run the configured tests,
                               write one report JSON per test plus a summary;
                               exit 0 iff everything passed, 1 on failure,
                               2 on a usage or config error
    idtlab calibrate <config>  build a threshold table from true-null replays
    idtlab export <config>     write ensemble CSV / binary files
    idtlab report <dir>        pretty-print report files written by `run`

Configs are flat ``key = value`` text with dotted sections; see the
``demos`` directory for worked examples.  Each key is one ``(name, type,
default)`` row, and every key is checked before any work; integers are
read in base 10, as ``--seed`` is, so ``010`` is 10.  ``export``
streams the ensemble: each row block is written to every requested file
and its buffer reused for the next, so the whole ensemble is never held.
``--threads`` alone sets the worker count for ``calibrate``'s null
replays, by default the CPUs in the process's affinity mask; a count
below 1 or not an integer is a usage error of the subcommand.  Above 1,
an exported subordinated ensemble (``export``, and ``run`` with
``export_csv``) also draws the clock of its next row block on one helper
thread, holding one more 256 KiB block (an export of 200,000 paths on 64
times peaks at about 39 MB of RSS).  ``run`` replays no null: a test's
threshold is its ``threshold`` key, or an entry of the shipped table or
of a ``calibrate`` table at ``threshold_table = <path>``.  Its tests run
in config order on the calling thread at any count: a pool overlapped
little of their work at the shipped 20,000 paths, and held a second ECF
block and a second test's ensembles (peak RSS 45.2 MB against 41.3 MB).
Results are bit-identical for any thread count because every test and
replay, and each of the clock and family streams, draws from its own
substream in a fixed order.

These workers do all the parallel work, so ``import idtlab`` loads
numpy's OpenBLAS with one thread, whose calls here are small; a second
thread would only busy-wait.  ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, when set, or a numpy
imported before idtlab, keeps OpenBLAS's own choice; other BLAS builds
(MKL, Accelerate) keep their defaults.  Results never depend on the BLAS
thread count.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys

from . import io as ensio
from .processes import FAMILY_KINDS, SPEC_KINDS, TimeGrid, generate, sample_blocks
from .randkit import RngState
from .report import TestReport
from .statlab import TEST_KINDS, TestKind, _check_replays, calibrate
from .thresholds import ThresholdTable

_STREAM_TESTS = 1000
_STREAM_EXPORT = 1
_STREAM_CALIBRATE = 2000


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config parsing: flat `key = value` lines with dotted sections
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    tree: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: {key!r} conflicts with a scalar key")
        if isinstance(node.get(parts[-1]), dict):
            raise ConfigError(f"line {lineno}: {key!r} conflicts with a section")
        node[parts[-1]] = value
    return tree


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _flatten(tree: dict, prefix: str = "", sections=()) -> dict:
    """``tree`` as dotted keys; a key in ``sections`` keeps its whole section."""
    out = {}
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict) and dotted not in sections:
            out.update(_flatten(value, dotted + "."))
        else:
            out[dotted] = value
    return out


def _required(node: dict, name: str, prefix: str):
    """``node[name]``; a missing one is named ``prefix + name``."""
    if name not in node:
        raise ConfigError(f"missing required config field {prefix + name!r}")
    return node[name]


def _as_float(raw, field: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r}: expected a number, got {raw!r}") from None


def _as_int(raw, field: str) -> int:
    try:
        return int(str(raw))
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r}: expected an integer, got {raw!r}") from None


def _as_seed(raw, field: str) -> int:
    return _checked([field], RngState, _as_int(raw, field)).seed


def _as_floats(raw, field: str) -> list:
    if isinstance(raw, (list, tuple)):
        return [float(v) for v in raw]
    text = str(raw).replace(",", " ")
    out = []
    for token in text.split():
        out.append(_as_float(token, field))
    if not out:
        raise ConfigError(f"field {field!r}: expected a list of numbers")
    return out


def _as_grid(raw, field: str) -> list:
    times = _as_floats(raw, field)
    _checked([field], TimeGrid, times)
    return times


def _as_bool(raw, field: str) -> bool:
    text = str(raw).strip().lower()
    if text in ("true", "yes", "1", "on"):
        return True
    if text in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"field {field!r}: expected a boolean, got {raw!r}")


def _as_formats(raw, field: str) -> list:
    formats = str(raw).replace(",", " ").split()
    for fmt in formats:
        if fmt not in ("csv", "bin"):
            raise ConfigError(f"field {field!r}: unknown format {fmt!r}")
    return formats


def _as_sections(raw, field: str) -> dict:
    """A section of named subsections, such as ``test.*``."""
    if not isinstance(raw, dict) or not all(isinstance(node, dict) for node in raw.values()):
        raise ConfigError(f"section {field!r} must hold named subsections")
    return raw


# ---------------------------------------------------------------------------
# Fields of specs, families and tests, read from their kind tables
# ---------------------------------------------------------------------------


def _checked(fields, rule, *args, **kwargs):
    """``rule(*args, **kwargs)``, with a ``ValueError`` turned into a config error naming ``fields``."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        label = "field" if len(fields) == 1 else "fields"
        raise ConfigError(f"{label} {', '.join(repr(f) for f in fields)}: {exc}") from None


def _value_fields(node: dict, path: str) -> list:
    """The fields a spec or family constructor's rejection is named by."""
    fields = [f"{path}.{key}" for key, value in sorted(node.items()) if key != "kind" and not isinstance(value, dict)]
    return fields or [path]


def _parse_fields(fields, node: dict, path: str, keys=("kind",)) -> dict:
    """The declared ``(name, type, default)`` fields of ``node``, the
    section at ``path`` ("" for the top level), parsed; a missing optional
    field is left out.  A key that neither ``fields`` nor ``keys``
    declares is a config error; with ``keys=None`` the caller checks."""
    prefix = f"{path}." if path else ""
    if keys is not None:
        accepted = tuple(keys) + tuple(name for name, _, _ in fields)
        for key in node:
            if key not in accepted:
                raise ConfigError(f"unknown config field {prefix + key!r}; {path} takes {', '.join(accepted)}")
    params = {}
    for name, parse, default in fields:
        if name in node or default is None:
            params[name] = _PARSERS[parse](_required(node, name, prefix), prefix + name)
    return params


def _field_values(fields, node: dict, path: str, keys=("kind",)) -> dict:
    """``_parse_fields``, with each missing optional field at its default."""
    return {**{name: default for name, _, default in fields}, **_parse_fields(fields, node, path, keys)}


def _build(kinds: dict, what: str, node, path: str):
    """The spec or family that the section ``node`` at ``path`` declares, by its ``kind`` in ``kinds``."""
    if not isinstance(node, dict):
        raise ConfigError(f"section {path!r} must hold {what} fields")
    kind = _required(node, "kind", f"{path}.")
    if str(kind) not in kinds:
        raise ConfigError(f"field {path}.kind: unknown {what} kind {kind!r}; expected one of {tuple(kinds)}")
    make, fields = kinds[str(kind)]
    return _checked(_value_fields(node, path), make, **_field_values(fields, node, path))


def build_family(node: dict, path: str):
    return _build(FAMILY_KINDS, "family", node, path)


def build_spec(node: dict, path: str):
    return _build(SPEC_KINDS, "spec", node, path)


def _test_kind(raw, field: str) -> TestKind:
    kind = TEST_KINDS.get(str(raw))
    if kind is None:
        raise ConfigError(f"field {field}: unknown test kind {str(raw)!r}; expected one of {tuple(TEST_KINDS)}")
    return kind


_PARSERS = {
    "int": _as_int,
    "seed": _as_seed,
    "float": _as_float,
    "str": lambda raw, field: str(raw),
    "floats": _as_floats,
    "grid": _as_grid,
    "bool": _as_bool,
    "formats": _as_formats,
    "family": build_family,
    "spec": build_spec,
    "test": _test_kind,
    "sections": _as_sections,
}


# ---------------------------------------------------------------------------
# The keys each command reads outside its test and entry subsections
# ---------------------------------------------------------------------------

# One (name, type, default) row per key, as in the kind tables; a default of
# None marks a required key.  export also takes run's keys, so one config
# serves both; a calibrate entry takes only its test, spec and test fields.
_SEED, _N_PATHS, _GRID = ("seed", "seed", None), ("n_paths", "int", None), ("grid", "grid", None)
_QUANTILE, _N_REPS = ("quantile", "float", 0.99), ("n_reps", "int", 200)
_RUN_FIELDS = (
    _SEED, _N_PATHS, _GRID, ("output_dir", "str", "out"), _QUANTILE, ("threshold_table", "str", "default"),
    ("export_csv", "bool", False),
)
_SPEC_AND_TESTS = (("spec", "spec", None), ("test", "sections", {}))
_COMMAND_FIELDS = {
    "run": (_RUN_FIELDS, _SPEC_AND_TESTS),
    "calibrate": (
        (_SEED, _N_PATHS, _GRID, _QUANTILE, _N_REPS, ("output", "str", "thresholds.json")),
        (("entry", "sections", None),),
    ),
    "export": (_RUN_FIELDS + (("export.formats", "formats", ["csv"]),), _SPEC_AND_TESTS),
}


def _command_config(args, command: str):
    """The config of ``args.config`` with the command-line overrides, and
    every key of ``command``'s rows parsed, before any work is done; a key
    that the rows do not declare is a config error."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.paths is not None:
        cfg["n_paths"] = str(args.paths)
    if command != "calibrate" and args.out is not None:
        cfg["output_dir"] = args.out
    keys, sections = _COMMAND_FIELDS[command]
    top = _flatten(cfg, sections=[name for name, _, _ in sections])
    names = [name for name, _, _ in keys + sections]
    for key in top:
        if key not in names:
            raise ConfigError(f"unknown key {key!r}; idtlab {command} takes {', '.join(names)}")
    values = _field_values(keys + sections, top, "", keys=None)
    _at_least(values["n_paths"], 1 if command == "calibrate" else 100, "n_paths")
    return cfg, values


def _at_least(count: int, minimum: int, field: str) -> None:
    if count < minimum:
        raise ConfigError(f"field {field!r}: must be at least {minimum}, got {count}")


# ---------------------------------------------------------------------------
# Test fields, read from each kind's ``TestKind`` entry, and threshold tables
# ---------------------------------------------------------------------------


def _test_params(kind: TestKind, node: dict, prefix: str, spec, grid_list, keys) -> dict:
    """The test's fields under ``prefix``, parsed, defaulted and checked;
    ``keys`` are the section's other keys."""
    params = _parse_fields(kind.fields, node, prefix, keys + ("times",) * kind.uses_times)
    if kind.uses_times:
        params["grid"] = grid_list
        params["times"] = _as_floats(node.get("times", grid_list), f"{prefix}.times")
    params = kind.fill(params, spec)
    for fields, rule in kind.checks:
        _checked([f"{prefix}.{f}" for f in fields], rule, params)
    return params


def _load_table(raw: str, config_dir: str):
    if raw == "default":
        return ThresholdTable.default()
    path = raw if os.path.isabs(raw) else os.path.join(config_dir, raw)
    try:
        return ThresholdTable.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read threshold table {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _resolve_threshold(kind, node, prefix, spec, params, values, table):
    """The test's threshold: ``None`` for a p-value test, else a number from
    its section or from the table that ``table()`` returns."""
    if not kind.calibrated:
        return None
    if "threshold" in node:
        field = f"{prefix}.threshold"
        threshold = _as_float(node["threshold"], field)
        if not math.isfinite(threshold):  # as a table entry must be
            raise ConfigError(f"field {field!r}: expected a finite number, got {node['threshold']!r}")
        return threshold
    key = kind.key(spec, values["n_paths"], values["quantile"], params)
    thresholds = table()  # outside the try: a malformed table is not a missing key
    try:
        return thresholds.lookup(key)
    except KeyError:
        raise ConfigError(
            f"{prefix}: threshold table {values['threshold_table']!r} has no key {key}; "
            f"set {prefix}.threshold or calibrate this configuration"
        ) from None


def _make_dir(path) -> None:
    """Create an output directory and its parents once the config is checked, before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def _write_json(path, doc) -> None:
    payload = json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
    ensio.atomic_write_bytes(path, [payload.encode("utf-8")])


def cmd_run(args) -> int:
    cfg, values = _command_config(args, "run")
    config_dir = os.path.dirname(os.path.abspath(args.config))
    spec, n_paths, grid_list, out_dir = values["spec"], values["n_paths"], values["grid"], values["output_dir"]
    root = RngState(values["seed"])
    resolved = _flatten(cfg)
    # read at the first test that looks a threshold up, then kept
    table = functools.cache(lambda: _load_table(values["threshold_table"], config_dir))
    # every test section is parsed and checked before any directory or test
    jobs = []
    for name, node in sorted(values["test"].items()):
        prefix = f"test.{name}"
        kind = _test_kind(_required(node, "kind", f"{prefix}."), f"{prefix}.kind")
        # an uncalibrated test reports a p-value and takes no threshold
        params = _test_params(kind, node, prefix, spec, grid_list, ("kind",) + ("threshold",) * kind.calibrated)
        jobs.append((name, kind, params, _resolve_threshold(kind, node, prefix, spec, params, values, table)))
    _make_dir(out_dir)

    # in config order on this thread: a pool overlapped little of the tests' work and held a
    # second ECF block and ensemble
    reports = {}
    for index, (name, kind, params, threshold) in enumerate(jobs):
        reports[name] = kind.run(spec, params, n_paths, root.split(_STREAM_TESTS + index), threshold)

    for number, (name, report) in enumerate(reports.items(), start=1):
        print(report.to_tap(number))
        _write_json(
            os.path.join(out_dir, f"report_{name}.json"),
            {
                "report": report.to_dict(),
                "config": resolved,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            },
        )

    if values["export_csv"]:
        ensemble = generate(spec, TimeGrid(grid_list), n_paths, root.split(_STREAM_EXPORT), threads=args.threads)
        ensio.write_csv(ensemble, os.path.join(out_dir, "paths.csv"))

    all_pass = all(r.passed for r in reports.values())
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "all_pass": all_pass,
            "config": resolved,
            "reports": {k: v.to_dict() for k, v in reports.items()},
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )
    print(f"# {sum(r.passed for r in reports.values())}/{len(reports)} tests passed")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    _, values = _command_config(args, "calibrate")
    name = os.path.basename(values["output"])
    if name in ("", ".", ".."):
        raise ConfigError(f"field 'output': expected a file name, got {values['output']!r}")
    # --out names the directory itself; otherwise output is relative to the config
    if args.out is not None:
        out_path = os.path.join(args.out, name)
    else:
        out_path = os.path.join(os.path.dirname(os.path.abspath(args.config)), values["output"])

    n_paths, quantile, n_reps = values["n_paths"], values["quantile"], values["n_reps"]
    _checked(["n_reps", "quantile"], _check_replays, n_reps, quantile)

    # an entry names its test and spec; every entry is parsed and checked before any directory or replay
    entries = {}  # threshold key -> the entry's name, test kind, spec and fields, in name order
    for name, node in sorted(values["entry"].items()):
        prefix = f"entry.{name}"
        kind = _test_kind(_required(node, "test", f"{prefix}."), f"{prefix}.test")
        spec = build_spec(_required(node, "spec", f"{prefix}."), f"{prefix}.spec")
        if not kind.calibrated:
            raise ConfigError(f"{prefix}: {kind.name} uses p-values, not calibrated thresholds")
        # the entry's other keys are checked with its test's fields
        params = _test_params(kind, node, prefix, spec, values["grid"], ("test", "spec"))
        key = kind.key(spec, n_paths, quantile, params)
        # the key leaves the hypothesis exponents out, so two entries can share it
        if key in entries:
            raise ConfigError(f"entries 'entry.{entries[key][0]}' and {prefix!r} have the same threshold key {key}")
        entries[key] = (name, kind, spec, params)
    _make_dir(os.path.dirname(out_path))

    root = RngState(values["seed"])
    meta = {"seed": values["seed"], "n_reps": n_reps, "quantile": quantile, "tool": "idtlab calibrate"}
    table = ThresholdTable({}, meta=meta)
    for index, (key, (name, kind, spec, params)) in enumerate(entries.items()):
        rng = root.split(_STREAM_CALIBRATE + index)
        threshold = calibrate(spec, kind.name, n_reps, quantile, rng, n_paths, args.threads, **params)
        table.set(key, threshold)
        print(f"# calibrated {name}: {threshold:.6g}")

    table.save(out_path)
    print(f"# wrote {out_path} ({len(table.entries)} entries)")
    return 0


# ---------------------------------------------------------------------------
# export / report
# ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    _, values = _command_config(args, "export")
    spec, n_paths, out_dir = values["spec"], values["n_paths"], values["output_dir"]
    _make_dir(out_dir)
    grid, rng = TimeGrid(values["grid"]), RngState(values["seed"]).split(_STREAM_EXPORT)
    targets = [(fmt, os.path.join(out_dir, f"paths.{fmt}")) for fmt in ("csv", "bin") if fmt in values["export.formats"]]
    # one pass: each row block goes to every file, then its buffer is reused
    meta, blocks = sample_blocks(spec, grid, n_paths, rng, args.threads)
    ensio.write_blocks(targets, blocks, grid, n_paths, spec, rng.seed, rng.stream, meta)
    for _, path in targets:
        print(f"# wrote {path}")
    return 0


def cmd_report(args) -> int:
    directory = args.dir
    if not os.path.isdir(directory):
        raise ConfigError(f"{directory} is not a directory")
    names = sorted(
        f for f in os.listdir(directory) if f.startswith("report_") and f.endswith(".json")
    )
    if not names:
        print(f"# no report files in {directory}")
        return 0
    n_pass = 0
    for number, fname in enumerate(names, start=1):
        path = os.path.join(directory, fname)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = TestReport.from_dict(json.load(fh)["report"])
            line = report.to_tap(number)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: not a report file ({exc!r})") from None
        n_pass += report.passed
        print(line)
    print(f"# {n_pass}/{len(names)} tests passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _thread_count(text: str) -> int:
    """``--threads``: a base-10 integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idtlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--threads",
            type=_thread_count,
            # the CPUs this process may run on, where the OS keeps an affinity mask
            default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
            help=(
                "worker threads for calibrate's null replays, at least 1 (default: the CPUs in this process's "
                "affinity mask, here %(default)s); an exported subordinated spec also draws its clock on a "
                "helper thread, one more 256 KiB block (never affects results)"
            ),
        )

    p_run = sub.add_parser("run", help="run the experiment config")
    p_run.add_argument("config")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cal = sub.add_parser("calibrate", help="build a threshold table")
    p_cal.add_argument("config")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_exp = sub.add_parser("export", help="write ensemble CSV/binary files")
    p_exp.add_argument("config")
    common(p_exp)
    p_exp.set_defaults(func=cmd_export)

    p_rep = sub.add_parser("report", help="pretty-print reports in a directory")
    p_rep.add_argument("dir")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

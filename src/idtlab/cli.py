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
``demos`` directory for worked examples.  ``export`` streams the
ensemble: each row block is written to every requested file and its
buffer reused for the next, so the whole ensemble is never held.
``--threads`` (or the IDTLAB_THREADS environment variable) sets the
worker count for tests and replays; above 1, an exported subordinated
ensemble (``export``, and ``run`` with ``export_csv``) also draws the
clock of its next row block on one helper thread, holding one more
256 KiB block (an export of 200,000 paths on 64 times peaks at about
39 MB of RSS).  Results are
bit-identical for any thread count because every unit of work, and each
of the clock and family streams, draws from its own substream in a fixed
order.

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
import os
import sys

from . import io as ensio
from .processes import FAMILY_KINDS, SPEC_KINDS, TimeGrid, generate, sample_blocks
from .randkit import RngState
from .report import TestReport
from .statlab import TEST_KINDS, TestKind, _check_replays, calibrate
from .thresholds import ThresholdTable, entry_key

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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# the keys each command reads outside its spec, test and entry sections;
# export also takes run's keys, so one experiment config serves both
_RUN_KEYS = ("seed", "n_paths", "grid", "output_dir", "quantile", "threshold_table", "calibration.n_reps", "export_csv")
_COMMAND_KEYS = {
    "run": (("spec", "test"), _RUN_KEYS),
    "calibrate": (("entry",), ("seed", "n_paths", "grid", "quantile", "n_reps", "output")),
    "export": (("spec", "test"), _RUN_KEYS + ("export.formats",)),
}


def _command_config(args, command: str) -> dict:
    """The config of ``args.config`` with the command-line overrides; a key
    that ``command`` does not declare is a config error."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.paths is not None:
        cfg["n_paths"] = str(args.paths)
    if command != "calibrate" and args.out is not None:
        cfg["output_dir"] = args.out
    sections, keys = _COMMAND_KEYS[command]
    for key in _flatten({k: v for k, v in cfg.items() if k not in sections}):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}; idtlab {command} takes {', '.join(keys + sections)}")
    return cfg


def _flatten(tree: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, dotted + "."))
        else:
            out[dotted] = value
    return out


def _get(tree: dict, dotted: str, default=None, required: bool = False, prefix: str = ""):
    """The value at ``dotted``; a missing required one is named ``prefix + dotted``."""
    node = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required config field {prefix + dotted!r}")
            return default
        node = node[part]
    return node


def _as_float(raw, field: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r}: expected a number, got {raw!r}") from None


def _as_int(raw, field: str) -> int:
    try:
        return int(str(raw), 0)
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r}: expected an integer, got {raw!r}") from None


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


def _parse_fields(fields, node: dict, prefix: str, keys=("kind",)) -> dict:
    """The declared ``(name, type, default)`` fields of the section ``node``
    at ``prefix``, parsed; a missing optional field is left out.  A key that
    neither ``fields`` nor ``keys`` declares is a config error."""
    accepted = tuple(keys) + tuple(name for name, _, _ in fields)
    for key in node:
        if key not in accepted:
            raise ConfigError(f"unknown config field {f'{prefix}.{key}'!r}; {prefix} takes {', '.join(accepted)}")
    params = {}
    for name, parse, default in fields:
        raw = _get(node, name, required=default is None, prefix=f"{prefix}.")
        if raw is not None:
            params[name] = _PARSERS[parse](raw, f"{prefix}.{name}")
    return params


def _build(kinds: dict, what: str, node, path: str):
    """The spec or family that the section ``node`` at ``path`` declares, by its ``kind`` in ``kinds``."""
    if not isinstance(node, dict):
        raise ConfigError(f"section {path!r} must hold {what} fields")
    kind = _get(node, "kind", required=True, prefix=f"{path}.")
    if str(kind) not in kinds:
        raise ConfigError(f"field {path}.kind: unknown {what} kind {kind!r}; expected one of {tuple(kinds)}")
    make, fields = kinds[str(kind)]
    values = {name: default for name, _, default in fields}
    values.update(_parse_fields(fields, node, path))
    return _checked(_value_fields(node, path), make, **values)


def build_family(node: dict, path: str):
    return _build(FAMILY_KINDS, "family", node, path)


def build_spec(node: dict, path: str):
    return _build(SPEC_KINDS, "spec", node, path)


_PARSERS = {
    "int": _as_int,
    "float": _as_float,
    "str": lambda raw, field: str(raw),
    "floats": _as_floats,
    "family": build_family,
    "spec": build_spec,
}


# ---------------------------------------------------------------------------
# Test fields and threshold keys, read from each kind's ``TestKind`` entry
# ---------------------------------------------------------------------------


def _test_kind(raw, field: str) -> TestKind:
    kind = TEST_KINDS.get(str(raw))
    if kind is None:
        raise ConfigError(f"field {field}: unknown test kind {str(raw)!r}; expected one of {tuple(TEST_KINDS)}")
    return kind


def _test_params(kind: TestKind, node: dict, prefix: str, spec, grid_list, keys) -> dict:
    """The test's fields under ``prefix``, parsed, defaulted and checked;
    ``keys`` are the section's other keys."""
    params = _parse_fields(kind.fields, node, prefix, keys + ("times",) * kind.uses_times)
    if kind.uses_times:
        params["grid"] = grid_list
        params["times"] = _as_floats(_get(node, "times", grid_list), f"{prefix}.times")
    params = kind.fill(params, spec)
    for fields, rule in kind.checks:
        _checked([f"{prefix}.{f}" for f in fields], rule, params)
    return params


def threshold_key_for(kind, spec, n_paths, quantile, grid, times, params) -> str:
    """Canonical table key.

    Hypothesis exponents (the idt/temporal alpha, the selfsimilarity h,
    the stability beta) are deliberately excluded: under the null they do
    not shape the statistic's distribution, and excluding them lets a
    negative control share the threshold of its positive twin.
    """
    test = TEST_KINDS.get(kind)
    if test is None or not test.calibrated:
        raise ConfigError(f"test kind {kind!r} does not use calibrated thresholds")
    params = test.fill(params, spec)
    extra = {name: params[name] for name in test.key_fields}
    if test.uses_times:
        extra.update(grid=grid, times=times)
    return entry_key(kind, spec, n_paths, quantile, **extra)


def _null_threshold(kind, spec, params, n_reps, quantile, rng, n_paths, threads) -> float:
    # replay under the true null: the spec's own exponent, never a probe value
    replay = {k: v for k, v in params.items() if k != "alpha"}
    return calibrate(spec, kind.name, n_reps, quantile, rng, n_paths, threads=threads, **replay)


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


def _resolve_threshold(kind, node, prefix, spec, n_paths, quantile, params, cfg, table):
    """The test's threshold: ``None`` for a p-value test, a number from its
    section or from the table that ``table()`` returns, or with
    ``threshold_table = calibrate`` a checked null replay still to run as
    ``replay(rng, n_paths, threads)``."""
    if not kind.calibrated:
        return None
    explicit = _get(node, "threshold")
    if explicit is not None:
        return _as_float(explicit, f"{prefix}.threshold")
    source = str(_get(cfg, "threshold_table", "default"))
    if source == "calibrate":
        n_reps = _as_int(_get(cfg, "calibration.n_reps", 200), "calibration.n_reps")
        _checked(["calibration.n_reps", "quantile"], _check_replays, n_reps, quantile)
        return functools.partial(_null_threshold, kind, spec, params, n_reps, quantile)
    key = threshold_key_for(kind.name, spec, n_paths, quantile, params.get("grid"), params.get("times"), params)
    try:
        return table().lookup(key)
    except KeyError:
        raise ConfigError(
            f"{prefix}: threshold table {source!r} has no key {key}; "
            f"set {prefix}.threshold or calibrate this configuration"
        ) from None


def _require_run_basics(cfg):
    seed = _as_int(_get(cfg, "seed", required=True), "seed")
    n_paths = _as_int(_get(cfg, "n_paths", required=True), "n_paths")
    if n_paths < 100:
        raise ConfigError(f"field 'n_paths': must be at least 100, got {n_paths}")
    grid_list = _as_grid(_get(cfg, "grid", required=True), "grid")
    spec = build_spec(_get(cfg, "spec", required=True), "spec")
    return seed, n_paths, grid_list, spec


def _make_dir(path) -> None:
    """Create an output directory and its parents before any work is done."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def _write_json(path, doc) -> None:
    payload = json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
    ensio.atomic_write_bytes(path, [payload.encode("utf-8")])


def cmd_run(args) -> int:
    cfg = _command_config(args, "run")
    config_dir = os.path.dirname(os.path.abspath(args.config))

    seed, n_paths, grid_list, spec = _require_run_basics(cfg)
    out_dir = str(_get(cfg, "output_dir", "out"))
    quantile = _as_float(_get(cfg, "quantile", 0.99), "quantile")
    grid = TimeGrid(grid_list)
    tests_node = _get(cfg, "test", {})
    if not isinstance(tests_node, dict):
        raise ConfigError("section 'test' must hold named test subsections")

    _make_dir(out_dir)
    root = RngState(seed)
    resolved = _flatten(cfg)
    reports = {}
    # read at the first test that looks a threshold up, then kept
    table = functools.cache(lambda: _load_table(str(_get(cfg, "threshold_table", "default")), config_dir))
    # every test section is parsed and checked before any null replay runs
    jobs = []
    for index, name in enumerate(sorted(tests_node)):
        node = tests_node[name]
        if not isinstance(node, dict):
            raise ConfigError(f"section test.{name} must hold test fields")
        prefix = f"test.{name}"
        kind = _test_kind(_get(node, "kind", required=True, prefix=f"{prefix}."), f"{prefix}.kind")
        # an uncalibrated test reports a p-value and takes no threshold
        params = _test_params(kind, node, prefix, spec, grid_list, ("kind",) + ("threshold",) * kind.calibrated)
        threshold = _resolve_threshold(kind, node, prefix, spec, n_paths, quantile, params, cfg, table)
        jobs.append((name, kind, params, root.split(_STREAM_TESTS + index), threshold))
    for index, (name, kind, params, rng, threshold) in enumerate(jobs):
        if callable(threshold):
            threshold = threshold(root.split(_STREAM_CALIBRATE + index), n_paths, args.threads)
            jobs[index] = (name, kind, params, rng, threshold)

    def run_one(job):
        name, kind, params, rng, threshold = job
        return name, kind.run(spec, params, n_paths, rng, threshold)

    if args.threads and args.threads > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]

    for number, (name, report) in enumerate(results, start=1):
        reports[name] = report
        print(report.to_tap(number))
        _write_json(
            os.path.join(out_dir, f"report_{name}.json"),
            {
                "report": report.to_dict(),
                "config": resolved,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            },
        )

    if _as_bool(_get(cfg, "export_csv", "false"), "export_csv"):
        ensemble = generate(spec, grid, n_paths, root.split(_STREAM_EXPORT), threads=args.threads)
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


_ENTRY_KEYS = ("test", "spec", "n_paths", "quantile", "n_reps", "grid")


def cmd_calibrate(args) -> int:
    cfg = _command_config(args, "calibrate")
    config_dir = os.path.dirname(os.path.abspath(args.config))

    seed = _as_int(_get(cfg, "seed", required=True), "seed")
    n_paths_default = _as_int(_get(cfg, "n_paths", required=True), "n_paths")
    grid_default = _as_grid(_get(cfg, "grid", required=True), "grid")
    quantile_default = _as_float(_get(cfg, "quantile", 0.99), "quantile")
    n_reps_default = _as_int(_get(cfg, "n_reps", 200), "n_reps")
    out_name = str(_get(cfg, "output", "thresholds.json"))
    # --out names the directory itself; otherwise output is relative to the config
    if args.out is not None:
        out_path = os.path.join(args.out, os.path.basename(out_name))
    else:
        out_path = os.path.join(config_dir, out_name)

    entries_node = _get(cfg, "entry", required=True)
    if not isinstance(entries_node, dict):
        raise ConfigError("section 'entry' must hold named calibration subsections")
    _make_dir(os.path.dirname(out_path))

    root = RngState(seed)
    table = ThresholdTable(
        {},
        meta={
            "seed": seed,
            "n_reps": n_reps_default,
            "quantile": quantile_default,
            "tool": "idtlab calibrate",
        },
    )
    # every entry is parsed and checked before the first replay runs
    entries = []
    for index, name in enumerate(sorted(entries_node)):
        node = entries_node[name]
        prefix = f"entry.{name}"
        kind = _test_kind(_get(node, "test", required=True, prefix=f"{prefix}."), f"{prefix}.test")
        if not kind.calibrated:
            raise ConfigError(f"{prefix}: {kind.name} uses p-values, not calibrated thresholds")
        spec = build_spec(_get(node, "spec", required=True, prefix=f"{prefix}."), f"{prefix}.spec")
        n_paths = _as_int(_get(node, "n_paths", n_paths_default), f"{prefix}.n_paths")
        quantile = _as_float(_get(node, "quantile", quantile_default), f"{prefix}.quantile")
        n_reps = _as_int(_get(node, "n_reps", n_reps_default), f"{prefix}.n_reps")
        grid_list = _as_grid(_get(node, "grid", grid_default), f"{prefix}.grid")
        params = _test_params(kind, node, prefix, spec, grid_list, _ENTRY_KEYS)
        _checked([f"{prefix}.n_reps", f"{prefix}.quantile"], _check_replays, n_reps, quantile)
        key = threshold_key_for(kind.name, spec, n_paths, quantile, grid_list, params.get("times"), params)
        entries.append((name, key, functools.partial(_null_threshold, kind, spec, params, n_reps, quantile, n_paths=n_paths)))
    for index, (name, key, replay) in enumerate(entries):
        threshold = replay(root.split(_STREAM_CALIBRATE + index), threads=args.threads)
        table.set(key, threshold)
        print(f"# calibrated {name}: {threshold:.6g}")

    table.save(out_path)
    print(f"# wrote {out_path} ({len(table.entries)} entries)")
    return 0


# ---------------------------------------------------------------------------
# export / report
# ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    cfg = _command_config(args, "export")
    seed, n_paths, grid_list, spec = _require_run_basics(cfg)
    out_dir = str(_get(cfg, "output_dir", "out"))
    formats_raw = str(_get(cfg, "export.formats", "csv"))
    formats = formats_raw.replace(",", " ").split()
    for fmt in formats:
        if fmt not in ("csv", "bin"):
            raise ConfigError(f"field 'export.formats': unknown format {fmt!r}")
    _make_dir(out_dir)
    grid, rng = TimeGrid(grid_list), RngState(seed).split(_STREAM_EXPORT)
    targets = [(fmt, os.path.join(out_dir, f"paths.{fmt}")) for fmt in ("csv", "bin") if fmt in formats]
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
        n_pass += bool(report.passed)
        print(line)
    print(f"# {n_pass}/{len(names)} tests passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _default_threads() -> int:
    env = os.environ.get("IDTLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idtlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        if with_out:
            p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=_default_threads(),
            help=(
                "worker threads; export also draws a subordinated clock on a helper thread, "
                "one more 256 KiB block (never affects results)"
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

"""Ensemble serialization: CSV for plotters, compact binary for round trips.

CSV: first row is a header with one ``t=<value>`` entry per column, then
one row of values per path.  All floats are written in shortest
round-trip form, so read-back is bit-exact.

Binary: magic ``IDT1``, an 8-byte little-endian header length, a JSON
metadata header, then the value matrix as row-major little-endian
64-bit floats.

Both readers reject a malformed file with a ``ValueError`` that names the
CSV line or the binary header field at fault; a binary payload must be
exactly ``n_paths * n_times * 8`` bytes long.

Memory: the CSV writer formats and writes ``_CSV_BLOCK_VALUES`` values at
a time, the binary writer sends the value buffer itself, and the binary
reader reads the payload straight into the value array, so none of them
holds a second copy of the values.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .processes import PathEnsemble, TimeGrid, spec_label

MAGIC = b"IDT1"
_CSV_BLOCK_VALUES = 1 << 13  # values formatted per written CSV chunk


def _format_float(x: float) -> str:
    # shortest representation that parses back to the same double
    return np.format_float_positional(x, trim="-")


def atomic_write_bytes(path, chunks) -> None:
    """Write an iterable of chunks (bytes or buffers) in order via a temp file
    and rename, so readers never see partial files.  Each chunk is written
    before the next is taken, so a generator's chunks are never all held."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".idtlab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_chunks(ensemble: PathEnsemble):
    """The header line, then the rows ``_CSV_BLOCK_VALUES`` values at a time."""
    header = ",".join(f"t={_format_float(t)}" for t in ensemble.grid.times)
    yield (header + "\n").encode("ascii")
    values = ensemble.values
    step = max(1, _CSV_BLOCK_VALUES // values.shape[1])
    for first in range(0, values.shape[0], step):
        rows = values[first : first + step].tolist()
        yield "".join([",".join(map(repr, row)) + "\n" for row in rows]).encode("ascii")


def write_csv(ensemble: PathEnsemble, path) -> None:
    atomic_write_bytes(path, _csv_chunks(ensemble))


def read_csv(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        lines = fh.read().decode("ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    fields = lines[0].split(",")
    if any(not f.startswith("t=") for f in fields):
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    times = np.array([float(f[2:]) for f in fields])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(fields):
            raise ValueError(
                f"{path}: line {lineno} has {len(cells)} values, expected {len(fields)}"
            )
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    values = np.array(rows)
    grid = TimeGrid(times, allow_negative=bool(times[0] < 0))
    return PathEnsemble(grid, values, None, 0, 0, meta={"source": str(path)})


def write_binary(ensemble: PathEnsemble, path) -> None:
    header = {
        "format": "idtlab-ensemble",
        "version": 1,
        "n_paths": ensemble.n_paths,
        "n_times": ensemble.n_times,
        "times": [float(t) for t in ensemble.grid.times],
        "seed": ensemble.seed,
        "stream": ensemble.stream,
        "spec": spec_label(ensemble.spec) if ensemble.spec is not None else None,
        "meta": ensemble.meta,
        "dtype": "<f8",
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # the values go out from their own buffer (copied only on a big-endian host)
    values = np.ascontiguousarray(ensemble.values, dtype="<f8")
    atomic_write_bytes(path, (MAGIC, len(blob).to_bytes(8, "little"), blob, values))


def read_binary(path) -> PathEnsemble:
    """Read a binary ensemble; the payload is read once, into the value array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
        hlen = int.from_bytes(head[4:12], "little")
        # a header length past the end of the file reads what is there
        blob = fh.read(min(hlen, max(0, size - 12)))
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable header: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        for field in ("n_paths", "n_times"):
            value = header.get(field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{path}: header field {field!r} must be a positive integer, got {value!r}"
                )
        n, m = header["n_paths"], header["n_times"]
        times = header.get("times")
        if not isinstance(times, list) or len(times) != m:
            raise ValueError(f"{path}: header field 'times' must list {m} times")
        payload = max(0, size - 12 - hlen)
        if payload != n * m * 8:
            raise ValueError(
                f"{path}: payload is {payload} bytes, expected n_paths*n_times*8 = {n * m * 8}"
            )
        values = np.empty((n, m), dtype="<f8")
        got = fh.readinto(values)
    if got != values.nbytes:
        raise ValueError(f"{path}: payload is {got} bytes, expected n_paths*n_times*8 = {values.nbytes}")
    times = np.asarray(times, dtype=np.float64)
    grid = TimeGrid(times, allow_negative=bool(times[0] < 0))
    meta = dict(header.get("meta", {}))
    if header.get("spec"):
        meta["spec"] = header["spec"]
    return PathEnsemble(grid, values, None, header.get("seed", 0), header.get("stream", 0), meta)

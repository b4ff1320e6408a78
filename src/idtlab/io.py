"""Ensemble serialization: CSV for plotters, compact binary for round trips.

CSV: first row is a header with one ``t=<value>`` entry per column, then
one row of values per path.  All floats are written in shortest
round-trip form, so read-back is bit-exact.

Binary: magic ``IDT1``, an 8-byte little-endian header length, a JSON
metadata header, then the value matrix as row-major little-endian
64-bit floats.

Both readers reject a malformed file with a ``ValueError`` that starts
with its path and names the CSV line, binary header field or grid rule at
fault; a binary payload must be exactly ``n_paths * n_times * 8`` bytes.

Memory: ``write_blocks`` takes an ensemble as consecutive row blocks and
writes each block to every requested file before it takes the next, so
an export streamed from ``processes.sample_blocks`` holds one block of
values, never the ensemble; a failure mid-stream leaves no file.  The
CSV writer formats ``_CSV_BLOCK_VALUES`` values at a time, the binary
writer sends each block's own buffer, and the binary reader reads the
payload straight into the value array.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack, contextmanager

import numpy as np

from .processes import PathEnsemble, TimeGrid, spec_label

MAGIC = b"IDT1"
_CSV_BLOCK_VALUES = 1 << 13  # values formatted per written CSV chunk


def _format_float(x: float) -> str:
    # shortest representation that parses back to the same double
    return np.format_float_positional(x, trim="-")


@contextmanager
def _atomic_file(path):
    """A binary file at a unique temp name beside ``path``, renamed onto
    ``path`` when the block ends and removed if it raises.  It is created
    with mode 0o666, so the process umask sets its permissions."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".idtlab-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, chunks) -> None:
    """Write an iterable of chunks (bytes or buffers) in order via a temp file
    and rename, so readers never see partial files.  Each chunk is written
    before the next is taken, so a generator's chunks are never all held."""
    with _atomic_file(path) as fh:
        fh.writelines(chunks)


def _csv_header(grid, n_paths, spec, seed, stream, meta) -> bytes:
    return (",".join(f"t={_format_float(t)}" for t in grid.times) + "\n").encode("ascii")


def _csv_chunks(block):
    """A block's rows, ``_CSV_BLOCK_VALUES`` values at a time; ``%r`` is ``repr``."""
    step = max(1, _CSV_BLOCK_VALUES // block.shape[1])
    row = ",".join(["%r"] * block.shape[1]) + "\n"
    for first in range(0, block.shape[0], step):
        rows = block[first : first + step]
        yield (row * len(rows) % tuple(rows.ravel().tolist())).encode("ascii")


def _binary_header(grid, n_paths, spec, seed, stream, meta) -> bytes:
    header = {
        "format": "idtlab-ensemble",
        "version": 1,
        "n_paths": n_paths,
        "n_times": len(grid),
        "times": [float(t) for t in grid.times],
        "seed": seed,
        "stream": stream,
        "spec": spec_label(spec) if spec is not None else None,
        "meta": dict(meta or {}),
        "dtype": "<f8",
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + len(blob).to_bytes(8, "little") + blob


# a binary block goes out from its own buffer (copied only on a big-endian host)
_FORMATS = {
    "csv": (_csv_header, _csv_chunks),
    "bin": (_binary_header, lambda block: [np.ascontiguousarray(block, dtype="<f8")]),
}


def write_blocks(targets, blocks, grid, n_paths, spec=None, seed=0, stream=0, meta=None) -> None:
    """Write ``n_paths`` rows, given as consecutive row blocks, to every
    ``(format, path)`` target (``"csv"`` or ``"bin"``) in one pass: each
    block goes to every file before the next is taken, so its buffer may be
    reused.  The files are renamed into place after the last block, or
    removed if a block or a write raises."""
    with ExitStack() as stack:
        files = []
        for fmt, path in targets:
            header, chunks = _FORMATS[fmt]
            fh = stack.enter_context(_atomic_file(path))
            fh.write(header(grid, n_paths, spec, seed, stream, meta))
            files.append((fh, chunks))
        for block in blocks:
            for fh, chunks in files:
                fh.writelines(chunks(block))


def write_csv(ensemble: PathEnsemble, path) -> None:
    write_blocks([("csv", path)], [ensemble.values], ensemble.grid, ensemble.n_paths)


def _ensemble(path, times, values, seed, stream, meta) -> PathEnsemble:
    """The ensemble read from ``path``; a rule its times or values break (a time that is not a number is
    numpy's ``TypeError``) raises a ``ValueError`` that starts with the path."""
    try:
        return PathEnsemble(TimeGrid(times), values, None, seed, stream, meta)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_csv(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        lines = fh.read().decode("ascii", "replace").splitlines()  # a non-ASCII byte fails its line's parse
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    fields = lines[0].split(",")
    if any(not f.startswith("t=") for f in fields):
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
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
    return _ensemble(path, [f[2:] for f in fields], rows, 0, 0, {"source": str(path)})


def write_binary(ensemble: PathEnsemble, path) -> None:
    e = ensemble
    write_blocks([("bin", path)], [e.values], e.grid, e.n_paths, e.spec, e.seed, e.stream, e.meta)


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
    meta = dict(header.get("meta", {}))
    if header.get("spec"):
        meta["spec"] = header["spec"]
    return _ensemble(path, times, values, header.get("seed", 0), header.get("stream", 0), meta)

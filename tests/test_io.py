import json

import numpy as np
import pytest

from idtlab.io import MAGIC, read_binary, read_csv, write_binary, write_csv
from idtlab.processes import GaussianKernel, StableLine, TimeGrid, generate
from idtlab.kernels import FBmKernel
from idtlab.randkit import RngState
from idtlab.transforms import lamperti_apply


def _ensemble(n=20):
    return generate(StableLine(1.5), TimeGrid([0.5, 1.0, 2.0]), n, RngState(123))


def test_csv_header_contract(tmp_path):
    path = tmp_path / "paths.csv"
    write_csv(_ensemble(), path)
    header = path.read_text().splitlines()[0]
    assert header == "t=0.5,t=1,t=2"


def test_csv_round_trip_bit_exact(tmp_path):
    e = _ensemble()
    path = tmp_path / "paths.csv"
    write_csv(e, path)
    back = read_csv(path)
    assert np.array_equal(back.values, e.values)
    assert np.array_equal(back.grid.times, e.grid.times)


def test_csv_round_trip_negative_log_grid(tmp_path):
    y = np.array([-1.0, 0.0, 1.0])
    e = generate(GaussianKernel(FBmKernel(0.3)), TimeGrid(np.exp(y)), 10, RngState(5))
    lam = lamperti_apply(e, 0.6, y)
    path = tmp_path / "lam.csv"
    write_csv(lam, path)
    back = read_csv(path)
    assert np.array_equal(back.values, lam.values)
    assert np.array_equal(back.grid.times, y)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_binary_magic_and_round_trip(tmp_path):
    e = _ensemble()
    path = tmp_path / "paths.bin"
    write_binary(e, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"IDT1"
    back = read_binary(path)
    assert np.array_equal(back.values, e.values)
    assert np.array_equal(back.grid.times, e.grid.times)
    assert back.seed == e.seed
    assert back.meta["spec"] == "stable_line(alpha=1.5)"


def test_csv_rejects_ragged_rows_naming_the_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t=1,t=2\n1,2\n3,4\n5\n7,8\n")
    with pytest.raises(ValueError, match="line 4 has 1 values, expected 2"):
        read_csv(path)


def test_csv_rejects_non_numeric_value_naming_the_line(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("t=1,t=2\n1,2\n3,four\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(path)


def _edited_binary(tmp_path, edit):
    """Write a valid binary file, pass its header and payload through ``edit``, write them back."""
    path = tmp_path / "paths.bin"
    write_binary(_ensemble(), path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[4:12], "little")
    header, payload = edit(json.loads(raw[12 : 12 + hlen]), raw[12 + hlen :])
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)
    return path


@pytest.mark.parametrize("delta", [1, 8, 160, -1, -8])
def test_binary_rejects_payload_of_the_wrong_length(tmp_path, delta):
    def edit(header, payload):
        return header, payload + b"\0" * delta if delta > 0 else payload[:delta]

    with pytest.raises(ValueError, match="payload is"):
        read_binary(_edited_binary(tmp_path, edit))


@pytest.mark.parametrize(
    "field, value",
    [("n_paths", None), ("n_times", None), ("n_paths", 2.5), ("n_times", "3"),
     ("n_paths", True), ("n_paths", 0), ("n_times", -3)],
)
def test_binary_rejects_bad_size_fields(tmp_path, field, value):
    def edit(header, payload):
        if value is None:
            del header[field]
        else:
            header[field] = value
        return header, payload

    with pytest.raises(ValueError, match=f"header field '{field}'"):
        read_binary(_edited_binary(tmp_path, edit))


def test_binary_rejects_times_of_the_wrong_length(tmp_path):
    def edit(header, payload):
        return {**header, "times": [0.5, 1.0]}, payload

    with pytest.raises(ValueError, match="'times'"):
        read_binary(_edited_binary(tmp_path, edit))


@pytest.mark.parametrize(
    "text, message",
    [
        (b"t=2,t=1\n1,2\n", "grid times must be strictly increasing"),
        (b"t=abc,t=1\n1,2\n", "could not convert string to float: 'abc'"),
        (b"t=1,t=2\n", "values must be a 2-d matrix (paths x times)"),
        (b"t=1,t=2\n1,\xff\n", "line 2: could not convert string to float: '\ufffd'"),
    ],
    ids=["unordered", "non_numeric", "no_rows", "non_ascii"],
)
def test_csv_grid_and_ensemble_rejections_start_with_the_path(tmp_path, text, message):
    path = tmp_path / "paths.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError) as exc:
        read_csv(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "times, message",
    [
        ([2.0, 1.0, 3.0], "grid times must be strictly increasing"),
        (["x", 1.0, 2.0], "could not convert string to float: 'x'"),
        ([{}, 1.0, 2.0], "float() argument must be a string or a real number, not 'dict'"),
    ],
    ids=["unordered", "non_numeric", "object"],
)
def test_binary_grid_rejections_start_with_the_path(tmp_path, times, message):
    path = _edited_binary(tmp_path, lambda header, payload: ({**header, "times": times}, payload))
    with pytest.raises(ValueError) as exc:
        read_binary(path)
    assert str(exc.value) == f"{path}: {message}"


def test_binary_reads_negative_times(tmp_path):
    """A Lamperti ensemble's log times are negative below t = 1, and its file reads back."""
    path = _edited_binary(tmp_path, lambda header, payload: ({**header, "times": [-1.0, 0.0, 1.0]}, payload))
    assert read_binary(path).grid.times.tolist() == [-1.0, 0.0, 1.0]


def test_binary_rejects_unreadable_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC + (5).to_bytes(8, "little") + b"{nope" + b"\0" * 8)
    with pytest.raises(ValueError, match="header"):
        read_binary(path)


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_binary(path)


def test_writes_are_atomic_no_leftover_temp(tmp_path):
    e = _ensemble()
    write_csv(e, tmp_path / "a.csv")
    write_binary(e, tmp_path / "a.bin")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["a.bin", "a.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    import os

    from idtlab.io import atomic_write_bytes

    def failing():
        yield b"partial"
        raise RuntimeError("mid-write")

    old = os.umask(umask)
    try:
        write_csv(_ensemble(), tmp_path / "a.csv")
        write_binary(_ensemble(), tmp_path / "a.bin")
        with pytest.raises(RuntimeError):
            atomic_write_bytes(tmp_path / "b.json", failing())
    finally:
        os.umask(old)
    for name in ("a.csv", "a.bin"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "a.csv"]


@pytest.mark.parametrize("columns", [1, 3, 64])
def test_csv_chunks_match_the_row_formatter(columns):
    """One ``%`` per chunk gives the bytes of ``repr`` joined row by row."""
    from idtlab.io import _CSV_BLOCK_VALUES, _csv_chunks

    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, np.finfo(float).tiny / 3, 1e300, -1e300]
    rows = 2 * _CSV_BLOCK_VALUES // columns + 7  # two full chunks and a short one
    values = np.random.default_rng(5).standard_normal(rows * columns)
    values[: len(special)] = special
    values[-len(special) :] = special
    block = values.reshape(rows, columns)
    for view in (block, block[::-1, ::-1]):
        expected = "".join(",".join(map(repr, row)) + "\n" for row in view.tolist()).encode("ascii")
        assert b"".join(_csv_chunks(view)) == expected

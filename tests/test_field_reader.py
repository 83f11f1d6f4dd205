"""The V1FD field reader on damaged files: a seeded sweep of truncations and
header byte flips, and targeted headers.  Every case reads a lattice field or
raises DataFormatError, and `animate --field` exits 4 with one line on it."""

import numpy as np
import pytest

from patchflow.cli import EXIT_FORMAT, main
from patchflow.core import DisplacementField, Encoder, ParametricMotion, lattice_axes
from patchflow.errors import DataFormatError
from patchflow.evalviz import write_pgm
from patchflow.inference import read_field, write_field
from patchflow.training import save_checkpoint

HEADER = 32  # magic, then version, nx, ny, row0, col0, row_step, col_step as uint32
SIZE_FIELDS = 16  # the bytes that fix the file's size: magic, version, nx, ny


def field_bytes(tmp_path):
    rr, cc = np.meshgrid([8, 16, 24], [8, 16, 24, 32], indexing="ij")
    vectors = np.random.default_rng(3).uniform(-2, 2, (12, 2)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.v1fd"
    write_field(path, DisplacementField(np.stack([rr.ravel(), cc.ravel()], axis=1), vectors))
    return path, path.read_bytes(), vectors


def header(*values):
    return b"V1FD" + np.asarray(values, dtype="<u4").tobytes()


def flips(raw, lo, hi, count, seed):
    """``count`` copies of ``raw``, each with one byte in [lo, hi) XORed by a nonzero value."""
    rng = np.random.default_rng(seed)
    for pos, mask in zip(rng.integers(lo, hi, count), rng.integers(1, 256, count)):
        damaged = bytearray(raw)
        damaged[pos] ^= int(mask)
        yield bytes(damaged)


# headers that once passed the size check: a 65,536 x 65,536 lattice, whose
# uint32 body size wraps to 0, and an empty lattice; and zero lattice steps,
# which repeat positions
TARGETED = {
    "size_wraps": header(1, 65536, 65536, 8, 8, 8, 8),
    "empty": header(1, 0, 0, 8, 8, 8, 8),
    "no_columns": header(1, 0, 3, 8, 8, 8, 8),
    "zero_row_step": header(1, 4, 3, 8, 8, 0, 8) + bytes(4 * 2 * 12),
    "zero_col_step": header(1, 4, 3, 8, 8, 8, 0) + bytes(4 * 2 * 12),
}


class TestReader:
    def test_round_trip(self, tmp_path):
        path, _, vectors = field_bytes(tmp_path)
        assert np.array_equal(read_field(path).vectors, vectors)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        path, raw, _ = field_bytes(tmp_path)
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(DataFormatError):
                read_field(path)

    def test_size_field_flips_are_format_errors(self, tmp_path):
        path, raw, _ = field_bytes(tmp_path)
        for damaged in flips(raw, 0, SIZE_FIELDS, 300, seed=1):
            path.write_bytes(damaged)
            with pytest.raises(DataFormatError):
                read_field(path)

    def test_lattice_field_flips_read_a_lattice_or_fail(self, tmp_path):
        # a new origin or step is a lattice elsewhere; a zero step is an error
        path, raw, vectors = field_bytes(tmp_path)
        read = 0
        for damaged in flips(raw, SIZE_FIELDS, HEADER, 300, seed=2):
            path.write_bytes(damaged)
            try:
                field = read_field(path)
            except DataFormatError:
                continue
            rows, cols = lattice_axes(field.positions)
            assert (len(rows), len(cols)) == (3, 4) and np.array_equal(field.vectors, vectors)
            read += 1
        assert read

    @pytest.mark.parametrize("case", sorted(TARGETED))
    def test_targeted_headers_are_format_errors(self, tmp_path, case):
        path = tmp_path / "f.v1fd"
        path.write_bytes(TARGETED[case])
        with pytest.raises(DataFormatError):
            read_field(path)


def animate_exit(tmp_path, capsys, field_raw):
    """Exit code and stderr lines of `animate --field` on a file holding ``field_raw``."""
    ckpt, start, field = tmp_path / "m.ckpt", tmp_path / "a.pgm", tmp_path / "bad.v1fd"
    if not ckpt.exists():
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=2), ParametricMotion.zeros(2, 2))
        write_pgm(start, np.random.default_rng(3).random((32, 32)))
    field.write_bytes(field_raw)
    capsys.readouterr()
    code = main(["animate", "--checkpoint", str(ckpt), "--start", str(start), "--field", str(field), "--out", str(tmp_path / "x")])
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_animate_exits_with_one_format_error_line_on_targeted_headers(tmp_path, capsys, case):
    code, err = animate_exit(tmp_path, capsys, TARGETED[case])
    assert code == EXIT_FORMAT and len(err) == 1 and err[0].startswith("format error:")


def test_animate_exits_with_one_format_error_line_on_damaged_files(tmp_path, capsys):
    _, raw, _ = field_bytes(tmp_path)
    damaged = [raw[:n] for n in range(0, HEADER + 1, 4)] + [raw[:-1], raw + b"\0"]  # each header field boundary
    damaged += list(flips(raw, 0, SIZE_FIELDS, 12, seed=3))
    for case in damaged:
        code, err = animate_exit(tmp_path, capsys, case)
        assert code == EXIT_FORMAT and len(err) == 1 and err[0].startswith("format error:"), case[:HEADER]

"""The PGM and PPM reader on damaged files: a seeded sweep of truncations and
early byte flips, and targeted headers.  Every case reads an image or raises
DataFormatError, and `train-unsup --frames`, `animate --start` and
`interpolate --end` exit 4 with one line on it."""

import numpy as np
import pytest

from patchflow.cli import EXIT_FORMAT, main
from patchflow.core import DisplacementField, Encoder, ParametricMotion
from patchflow.errors import DataFormatError
from patchflow.evalviz import read_pgm, read_ppm, write_pgm, write_ppm
from patchflow.inference import write_field
from patchflow.training import save_checkpoint

KINDS = {"pgm": (read_pgm, write_pgm, ()), "ppm": (read_ppm, write_ppm, (3,))}
HEADER = 20  # the flipped bytes: the 13-byte header of a 12x10 image, then pixels


def image_bytes(tmp_path, kind):
    read, write, channels = KINDS[kind]
    image = np.random.default_rng(4).integers(0, 256, (10, 12) + channels).astype(np.uint8)
    path = tmp_path / f"a.{kind}"
    write(path, image)
    return path, path.read_bytes(), image


def flips(raw, lo, hi, count, seed):
    """``count`` copies of ``raw``, each with one byte in [lo, hi) XORed by a nonzero value."""
    rng = np.random.default_rng(seed)
    for pos, mask in zip(rng.integers(lo, hi, count), rng.integers(1, 256, count)):
        damaged = bytearray(raw)
        damaged[pos] ^= int(mask)
        yield bytes(damaged)


def targeted(kind):
    """Headers of a negative size, whose pixel count is positive, and of a zero size."""
    magic, channels = (b"P5", 1) if kind == "pgm" else (b"P6", 3)
    return {
        "negative": magic + b"\n-2 -3\n255\n" + bytes(6 * channels),
        "negative_width": magic + b"\n-2 3\n255\n" + bytes(6 * channels),
        "zero_width": magic + b"\n0 3\n255\n",
        "zero_height": magic + b"\n3 0\n255\n",
        "empty": magic + b"\n0 0\n255\n",
    }


CASES = sorted(targeted("pgm"))


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestReader:
    def test_round_trip(self, tmp_path, kind):
        path, _, image = image_bytes(tmp_path, kind)
        assert np.array_equal(KINDS[kind][0](path), image)

    def test_every_truncation_is_a_format_error(self, tmp_path, kind):
        path, raw, _ = image_bytes(tmp_path, kind)
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(DataFormatError):
                KINDS[kind][0](path)

    def test_early_flips_read_an_image_or_fail(self, tmp_path, kind):
        # a size that needs no more pixels than the file holds reads a smaller image
        path, raw, image = image_bytes(tmp_path, kind)
        read = 0
        for damaged in flips(raw, 0, HEADER, 300, seed=5):
            path.write_bytes(damaged)
            try:
                got = KINDS[kind][0](path)
            except DataFormatError:
                continue
            assert got.dtype == np.uint8 and got.shape[2:] == image.shape[2:] and min(got.shape[:2]) >= 1
            read += 1
        assert read

    @pytest.mark.parametrize("case", CASES)
    def test_targeted_headers_are_format_errors(self, tmp_path, kind, case):
        path = tmp_path / f"a.{kind}"
        path.write_bytes(targeted(kind)[case])
        with pytest.raises(DataFormatError):
            KINDS[kind][0](path)


def cli_exit(tmp_path, capsys, command, kind, raw):
    """Exit code and stderr lines of ``command`` reading a damaged image holding ``raw``."""
    ckpt, good, field = tmp_path / "m.ckpt", tmp_path / "good.pgm", tmp_path / "f.v1fd"
    if not ckpt.exists():
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=2), ParametricMotion.zeros(2, 2))
        write_pgm(good, np.random.default_rng(3).random((32, 32)))
        write_field(field, DisplacementField(np.array([[8, 8], [8, 16]]), np.zeros((2, 2))))
    frames = tmp_path / "frames"
    frames.mkdir(exist_ok=True)
    bad = frames / f"b.{kind}"
    bad.write_bytes(raw)
    out = ["--out", str(tmp_path / "x")]
    if command == "train-unsup":
        (frames / "a.pgm").write_bytes(good.read_bytes())
        argv = ["train-unsup", "--frames", str(frames)] + out
    elif command == "animate":
        argv = ["animate", "--checkpoint", str(ckpt), "--start", str(bad), "--field", str(field)] + out
    else:
        argv = ["interpolate", "--checkpoint", str(ckpt), "--start", str(good), "--end", str(bad)] + out
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err.strip().splitlines()


COMMANDS = ["train-unsup", "animate", "interpolate"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("case", CASES)
def test_commands_exit_with_one_format_error_line_on_targeted_headers(tmp_path, capsys, command, kind, case):
    code, err = cli_exit(tmp_path, capsys, command, kind, targeted(kind)[case])
    assert code == EXIT_FORMAT and len(err) == 1 and err[0].startswith("format error:")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_commands_exit_with_one_format_error_line_on_damaged_files(tmp_path, capsys, command, kind):
    _, raw, _ = image_bytes(tmp_path, kind)
    damaged = [raw[:n] for n in (0, 1, 2, 3, 5, 8, 12, 13)] + [raw[:-1]]  # each header token boundary
    damaged += list(flips(raw, 0, 13, 12, seed=6))
    for case in damaged:
        code, err = cli_exit(tmp_path, capsys, command, kind, case)
        assert code == EXIT_FORMAT and len(err) == 1 and err[0].startswith("format error:"), case[:13]

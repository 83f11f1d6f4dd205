"""The V1DS dataset reader on damaged files: a seeded sweep of sample
truncations and byte flips, and damaged manifests.  Every case reads a
dataset or raises DataFormatError, and `eval` exits 4 with one line on it."""

import json

import numpy as np
import pytest

from patchflow.cli import EXIT_FORMAT, main
from patchflow.datagen import SamplePair, dataset_read, dataset_write
from patchflow.errors import DataFormatError

HEADER = 16  # magic, then version, width, height as uint32


def dataset(tmp_path, mode="binary"):
    """A two-pair 12x10 dataset; returns its directory, sample 0's path and bytes, and the pairs."""
    rng = np.random.default_rng(7)
    pairs = [
        SamplePair(rng.random((12, 10)), rng.random((12, 10)), rng.uniform(-2, 2, (12, 10, 2)))
        for _ in range(2)
    ]
    path = tmp_path / "ds"
    dataset_write(pairs, path, mode=mode)
    sample = path / "sample_00000.v1ds"
    return path, sample, sample.read_bytes(), pairs


def flips(raw, lo, hi, count, seed):
    """``count`` copies of ``raw``, each with one byte in [lo, hi) XORed by a nonzero value."""
    rng = np.random.default_rng(seed)
    for pos, mask in zip(rng.integers(lo, hi, count), rng.integers(1, 256, count)):
        damaged = bytearray(raw)
        damaged[pos] ^= int(mask)
        yield bytes(damaged)


def f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


# manifests that once ended in a traceback, and others the reader must refuse
MANIFESTS = {
    "list": [],
    "no_count": {"version": 1, "mode": "binary"},
    "count_string": {"version": 1, "mode": "binary", "count": "2"},
    "count_float": {"version": 1, "mode": "binary", "count": 2.0},
    "count_negative": {"version": 1, "mode": "binary", "count": -1},
    "count_bool": {"version": 1, "mode": "binary", "count": True},
    "unknown_mode": {"version": 1, "mode": "tiff", "count": 2},
    "no_version": {"mode": "binary", "count": 2},
}


class TestReader:
    @pytest.mark.parametrize("mode", ["binary", "pgm"])
    def test_round_trip(self, tmp_path, mode):
        path, _, _, pairs = dataset(tmp_path, mode)
        for got, want in zip(dataset_read(path), pairs):
            assert np.array_equal(got.field, f32(want.field))
            if mode == "binary":
                assert np.array_equal(got.image_t, f32(want.image_t))

    @pytest.mark.parametrize("mode", ["binary", "pgm"])
    def test_every_truncation_is_a_format_error(self, tmp_path, mode):
        path, sample, raw, _ = dataset(tmp_path, mode)
        for n in range(len(raw)):
            sample.write_bytes(raw[:n])
            with pytest.raises(DataFormatError):
                dataset_read(path)

    def test_header_flips_are_format_errors(self, tmp_path):
        # a new magic, version, width or height: every one changes the sample's size or is refused
        path, sample, raw, _ = dataset(tmp_path)
        for damaged in flips(raw, 0, HEADER, 300, seed=1):
            sample.write_bytes(damaged)
            with pytest.raises(DataFormatError):
                dataset_read(path)

    def test_body_flips_read_a_sample_or_fail(self, tmp_path):
        # a flipped value reads as another value; one that is no longer finite is an error
        path, sample, raw, pairs = dataset(tmp_path)
        read = 0
        for damaged in flips(raw, HEADER, len(raw), 400, seed=2):
            sample.write_bytes(damaged)
            try:
                got = dataset_read(path)
            except DataFormatError:
                continue
            planes = np.stack([got[0].image_t, got[0].image_t1, got[0].field[..., 0], got[0].field[..., 1]])
            want = np.stack([pairs[0].image_t, pairs[0].image_t1, pairs[0].field[..., 0], pairs[0].field[..., 1]])
            assert np.isfinite(planes).all() and np.sum(planes != f32(want)) <= 1
            assert np.array_equal(got[1].field, f32(pairs[1].field))
            read += 1
        assert read

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_format_errors(self, tmp_path, value):
        path, sample, raw, _ = dataset(tmp_path)
        for plane in range(4):  # both frames and both field planes
            damaged = bytearray(raw)
            at = HEADER + plane * 4 * 12 * 10 + 4 * 17
            damaged[at : at + 4] = np.float32(value).tobytes()
            sample.write_bytes(bytes(damaged))
            with pytest.raises(DataFormatError):
                dataset_read(path)

    def test_pgm_frames_of_another_size_are_format_errors(self, tmp_path):
        from patchflow.evalviz import write_pgm

        path, _, _, _ = dataset(tmp_path, "pgm")
        write_pgm(path / "sample_00001_t1.pgm", np.zeros((10, 12)))
        with pytest.raises(DataFormatError):
            dataset_read(path)

    @pytest.mark.parametrize("case", sorted(MANIFESTS))
    def test_damaged_manifests_are_format_errors(self, tmp_path, case):
        path, _, _, _ = dataset(tmp_path)
        (path / "manifest.json").write_text(json.dumps(MANIFESTS[case]))
        with pytest.raises(DataFormatError):
            dataset_read(path)


def eval_exit(tmp_path, capsys):
    """Exit code and stderr lines of `eval --zero-predictor` on the dataset under ``tmp_path``."""
    capsys.readouterr()
    code = main(["eval", "--data", str(tmp_path / "ds"), "--zero-predictor", "--out", str(tmp_path / "ev")])
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("case", sorted(MANIFESTS))
def test_eval_exits_with_one_format_error_line_on_damaged_manifests(tmp_path, capsys, case):
    path, _, _, _ = dataset(tmp_path)
    (path / "manifest.json").write_text(json.dumps(MANIFESTS[case]))
    code, err = eval_exit(tmp_path, capsys)
    assert code == EXIT_FORMAT and len(err) == 1 and err[0].startswith("format error:"), err


def test_eval_exits_with_one_format_error_line_on_damaged_samples(tmp_path, capsys):
    _, sample, raw, _ = dataset(tmp_path)
    damaged = [raw[:n] for n in range(0, HEADER + 1, 4)] + [raw[:-1], raw + b"\0"]  # each header field boundary
    damaged += list(flips(raw, 0, HEADER, 12, seed=3))
    nan = bytearray(raw)
    nan[HEADER : HEADER + 4] = np.float32(np.nan).tobytes()
    damaged.append(bytes(nan))
    for case in damaged:
        sample.write_bytes(case)
        code, err = eval_exit(tmp_path, capsys)
        assert code == EXIT_FORMAT and len(err) == 1 and err[0].startswith("format error:"), case[:HEADER]

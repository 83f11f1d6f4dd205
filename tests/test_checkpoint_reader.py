"""The checkpoint reader on damaged files: a seeded sweep of truncations and byte
flips, and targeted header faults.  Every case loads or raises DataFormatError."""

import io
import json

import numpy as np
import pytest

from patchflow import training
from patchflow.cli import EXIT_FORMAT, main
from patchflow.core import DisplacementGrid, Encoder, MixedMotion, ParametricMotion, support_offsets
from patchflow.errors import DataFormatError
from patchflow.training import TrainConfig, load_checkpoint, save_checkpoint

from matrix_form import ZeroSupportTable

VARIANTS = ("nonparametric", "mixed", "parametric")


def small_model(variant):
    grid = DisplacementGrid(-1, 1, 1.0)
    rng = np.random.default_rng(7)
    if variant == "nonparametric":
        return ZeroSupportTable(grid, rng.standard_normal((9, 2, 2, 2)))
    if variant == "mixed":
        return MixedMotion(grid, support_offsets(2, 2), rng.standard_normal((9, 9, 2, 2, 2)))
    return ParametricMotion(rng.standard_normal((5, 2, 2, 2)))


def checkpoint_bytes(tmp_path, variant, patch_size=4):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Encoder.random(2, 2, patch_size, 2, rng=8), small_model(variant), extra={"seed": 1})
    return path, path.read_bytes()


def loads(path) -> bool:
    """True when ``path`` loads and False on DataFormatError; any other error propagates."""
    try:
        load_checkpoint(path)
    except DataFormatError:
        return False
    return True


def flips(raw, lo, hi, count, seed):
    """``count`` copies of ``raw``, each with one byte in [lo, hi) XORed by a nonzero value."""
    rng = np.random.default_rng(seed)
    for pos, mask in zip(rng.integers(lo, hi, count), rng.integers(1, 256, count)):
        damaged = bytearray(raw)
        damaged[pos] ^= int(mask)
        yield bytes(damaged)


@pytest.mark.parametrize("variant", VARIANTS)
class TestCorruptionSweep:
    def test_every_truncation_is_a_format_error(self, tmp_path, variant):
        path, raw = checkpoint_bytes(tmp_path, variant)
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            assert not loads(path), n

    def test_header_byte_flips(self, tmp_path, variant):
        path, raw = checkpoint_bytes(tmp_path, variant)
        outcomes = []
        for damaged in flips(raw, 0, raw.find(b"\n"), 600, seed=VARIANTS.index(variant)):
            path.write_bytes(damaged)
            outcomes.append(loads(path))
        assert not all(outcomes)

    def test_body_byte_flips(self, tmp_path, variant):
        path, raw = checkpoint_bytes(tmp_path, variant)
        for damaged in flips(raw, raw.find(b"\n") + 1, len(raw), 300, seed=10 + VARIANTS.index(variant)):
            path.write_bytes(damaged)
            loads(path)


def edit_header(raw, edit):
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    return json.dumps(header).encode() + raw[nl:]


def set_shape(shape):
    def edit(header):
        header["blocks"][0]["shape"] = shape

    return edit


def set_entry(section, key, value):
    def edit(header):
        meta = header["motion"] if section == "motion" else header[section]
        meta = meta["grid"] if key in ("lo", "hi", "step") else meta
        meta[key] = value

    return edit


# header faults that once ended in a traceback: a block shape the reader could not
# take, a grid it could not build, and entries that disagree with the blocks
TARGETED = {
    "shape_negative": set_shape([-1, 2, 256]),
    "shape_string": set_shape(["a"]),
    "shape_null": set_shape(None),
    "shape_float": set_shape(256.5),
    "shape_float_entries": set_shape([2.0, 2.0, 256.0]),
    "grid_step_zero": set_entry("motion", "step", 0),
    "grid_step_string": set_entry("motion", "step", "1"),
    "grid_too_fine": set_entry("motion", "hi", 1e308),
    "grid_too_wide": lambda h: h["motion"]["grid"].update(lo=-1e308, hi=1e308),
    "offsets_count": lambda h: h["motion"]["offsets"].pop(),
    "offsets_not_pairs": set_entry("motion", "offsets", [[0, 0, 0]]),
    "offsets_without_zero": lambda h: h["motion"].update(offsets=[[o[0] + 9, o[1]] for o in h["motion"]["offsets"]]),
    "patch_size": set_entry("encoder", "patch_size", 15),
    "num_blocks": set_entry("encoder", "num_blocks", 3),
    "stride_zero": set_entry("encoder", "stride", 0),
    "stride_over_patch": set_entry("encoder", "stride", 17),
    "block_not_object": lambda h: h["blocks"].__setitem__(1, [5]),
}


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_header_faults_exit_with_one_format_error_line(tmp_path, capsys, case):
    path, raw = checkpoint_bytes(tmp_path, "mixed", patch_size=16)
    path.write_bytes(edit_header(raw, TARGETED[case]))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
    ds = tmp_path / "ds"
    main(["gen-data", "--out", str(ds), "--pairs", "1", "--size", "32", "--seed", "1"])
    capsys.readouterr()
    code = main(["infer", "--checkpoint", str(path), "--data", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("format error:")


@pytest.mark.parametrize("block", [0, 1])
def test_non_finite_parameters_are_format_errors(tmp_path, block):
    path, raw = checkpoint_bytes(tmp_path, "mixed")
    start = raw.find(b"\n") + 1 + (0 if block == 0 else 8 * 2 * 2 * 16)
    path.write_bytes(raw[:start] + np.array([np.nan]).astype("<f8").tobytes() + raw[start + 8 :])
    with pytest.raises(DataFormatError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("variant", VARIANTS)
def test_sound_headers_load(tmp_path, variant):
    path, raw = checkpoint_bytes(tmp_path, variant)
    assert loads(path)
    # grid bounds may be integers or floats, as JSON writes them
    path.write_bytes(edit_header(raw, lambda h: h["motion"].update(grid={"lo": -1.0, "hi": 1, "step": 1})))
    assert loads(path)


def test_zero_offset_table_saves_as_nonparametric_and_loads_back(tmp_path):
    path, raw = checkpoint_bytes(tmp_path, "nonparametric")
    model = small_model("nonparametric")
    header = json.loads(raw[: raw.find(b"\n")])
    assert header["motion"]["variant"] == "nonparametric" and "offsets" not in header["motion"]
    assert header["blocks"][1]["shape"] == [9, 2, 2, 2]
    assert raw.endswith(model.matrices.astype("<f8").tobytes())
    _, loaded, _ = load_checkpoint(path)
    assert loaded.grid == model.grid and loaded.offsets.tolist() == [[0, 0]]
    assert np.array_equal(loaded.matrices, model.matrices)


def test_mixed_checkpoint_on_the_zero_offset_loads(tmp_path):
    """A zero-offset table under the ``mixed`` header, as writers before the two table
    classes merged saved it, loads as that table and saves back as ``nonparametric``."""
    path, raw = checkpoint_bytes(tmp_path, "nonparametric")

    def as_mixed(header):
        header["motion"]["variant"] = "mixed"
        header["motion"]["offsets"] = [[0, 0]]
        header["blocks"][1]["shape"] = [9, 1, 2, 2, 2]

    path.write_bytes(edit_header(raw, as_mixed))
    encoder, loaded, _ = load_checkpoint(path)
    assert loaded.offsets.tolist() == [[0, 0]]
    assert np.array_equal(loaded.matrices, small_model("nonparametric").matrices)
    save_checkpoint(tmp_path / "again.ckpt", encoder, loaded, extra={"seed": 1})
    assert (tmp_path / "again.ckpt").read_bytes() == raw


# ---------------------------------------------------------------------------
# a mixed table read into its block rows through a buffer of READ_BUFFER_BYTES


def desk_mixed_checkpoint(tmp_path):
    """A desk mixed checkpoint with random matrices, where its motion block starts in
    the file, and the candidates that one read buffer holds."""
    config = TrainConfig(motion_variant="mixed", num_blocks=10, block_dim=2)
    encoder, model = training.init_model(config, np.random.default_rng(0))
    model.matrices[...] = np.random.default_rng(1).standard_normal(model.matrices.shape)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, encoder, model)
    raw = path.read_bytes()
    start = raw.find(b"\n") + 1 + encoder.weights.nbytes
    per_buffer = training.READ_BUFFER_BYTES // model.matrices[0].nbytes
    assert 1 < per_buffer and 2 * per_buffer < len(model.matrices) and len(model.matrices) % per_buffer
    return path, raw, start, model, per_buffer


def buffer_cuts(model, per_buffer):
    """Bytes into the motion block: inside the first buffer, on the boundary after it,
    and inside the last buffer."""
    candidate = model.matrices[0].nbytes
    last = len(model.matrices) // per_buffer * per_buffer
    return {"first": candidate // 2 + 8, "boundary": per_buffer * candidate, "last": (last + 1) * candidate + 8}


@pytest.mark.parametrize("where", ["first", "boundary", "last"])
def test_mixed_block_cut_inside_a_read_buffer_exits_4(tmp_path, capsys, where):
    path, raw, start, model, per_buffer = desk_mixed_checkpoint(tmp_path)
    path.write_bytes(raw[: start + buffer_cuts(model, per_buffer)[where]])
    code = main(["filters", "--checkpoint", str(path), "--delta-path", "0,0", "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "truncated parameter block motion.params" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["first", "boundary", "last"])
def test_buffered_read_refuses_a_short_stream(tmp_path, where):
    # the buffer's own short-read check, on a stream whose size the reader cannot see
    _, raw, start, model, per_buffer = desk_mixed_checkpoint(tmp_path)
    body = raw[start : start + buffer_cuts(model, per_buffer)[where]]
    rows = np.empty_like(model.rows)
    view = np.moveaxis(rows.reshape(rows.shape[:3] + (len(model.offsets), -1)), 3, 1)
    with pytest.raises(DataFormatError, match="truncated parameter block motion.params"):
        training._read_block(io.BytesIO(body), view, "motion.params", "m.ckpt")


def test_buffered_read_fills_the_rows(tmp_path):
    path, raw, start, model, per_buffer = desk_mixed_checkpoint(tmp_path)
    _, loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.rows, model.rows) and loaded.rows.flags.c_contiguous


def test_non_finite_entry_in_the_last_read_buffer_is_refused(tmp_path):
    path, raw, start, model, per_buffer = desk_mixed_checkpoint(tmp_path)
    at = start + buffer_cuts(model, per_buffer)["last"]
    path.write_bytes(raw[:at] + np.array([np.inf]).astype("<f8").tobytes() + raw[at + 8 :])
    with pytest.raises(DataFormatError, match="motion.params has non-finite entries"):
        load_checkpoint(path)

"""Endpoint error, flow colorization, and netpbm I/O tests."""

import numpy as np
import pytest

from patchflow.core import DisplacementField
from patchflow.errors import DataFormatError, PatchflowError
from patchflow.evalviz import (
    color_wheel,
    epe,
    flow_to_color,
    load_image,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)

# unit vectors at full magnitude -> wheel colors, frozen from the reference
# wheel construction (segment counts 15/6/4/11/13/6)
COMPASS_COLORS = {
    (-1, 0): (88, 0, 255),
    (-1, 1): (221, 0, 255),
    (0, 1): (255, 0, 0),
    (1, 1): (255, 115, 0),
    (1, 0): (255, 230, 0),
    (1, -1): (32, 255, 0),
    (0, -1): (0, 209, 255),
    (-1, -1): (0, 52, 255),
}


def grid_field(vectors, start=8, step=8):
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    pos = np.stack([np.full(n, start), start + step * np.arange(n)], axis=1)
    return DisplacementField(pos, vectors)


def dense_field(field, shape):
    """A zero (H, W, 2) field holding ``field``'s vectors at its positions."""
    dense = np.zeros(tuple(shape) + (2,))
    dense[field.positions[:, 0], field.positions[:, 1]] = field.vectors
    return dense


class TestEpe:
    def test_identical_fields(self):
        pred = grid_field([[1.0, -2.0], [0.5, 0.25]])
        rep = epe(pred, dense_field(pred, (32, 32)), margin=0)
        assert rep.mean_epe == 0.0
        assert rep.count == 2

    def test_three_four_five(self):
        pred = DisplacementField(np.array([[10, 10]]), np.array([[3.0, 4.0]]))
        rep = epe(pred, np.zeros((32, 32, 2)), margin=8)
        assert rep.mean_epe == 5.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        h = w = 40
        pos = np.stack(np.meshgrid(np.arange(8, 33, 8), np.arange(8, 33, 8), indexing="ij"), -1).reshape(-1, 2)
        pred = DisplacementField(pos, rng.uniform(-3, 3, (len(pos), 2)))
        dense = rng.uniform(-3, 3, (h, w, 2))
        rep = epe(pred, dense, margin=8)
        acc, cnt = 0.0, 0
        for i, (r, c) in enumerate(pos):
            if r < 8 or c < 8 or r > h - 9 or c > w - 9:
                continue
            d = pred.vectors[i] - dense[r, c]
            acc += np.sqrt(d[0] ** 2 + d[1] ** 2)
            cnt += 1
        assert rep.count == cnt
        assert rep.mean_epe == pytest.approx(acc / cnt, rel=1e-12)

    def test_margin_discards_border(self):
        pos = np.array([[4, 16], [16, 16]])
        pred = DisplacementField(pos, np.zeros((2, 2)))
        dense = np.zeros((32, 32, 2))
        rep = epe(pred, dense, margin=8)
        assert rep.count == 1

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        a = grid_field(rng.uniform(-2, 2, (4, 2)), start=10)
        b = grid_field(rng.uniform(-2, 2, (4, 2)), start=10)
        c = grid_field(rng.uniform(-2, 2, (4, 2)), start=10)
        dense = {name: dense_field(f, (64, 64)) for name, f in (("a", a), ("b", b), ("c", c))}
        ab = epe(a, dense["b"], margin=0)
        ba = epe(b, dense["a"], margin=0)
        assert ab.mean_epe == ba.mean_epe
        ac = epe(a, dense["c"], margin=0)
        cb = epe(c, dense["b"], margin=0)
        assert np.all(ab.errors <= ac.errors + cb.errors + 1e-12)

    def test_empty_interior_raises(self):
        pred = DisplacementField(np.array([[2, 2]]), np.zeros((1, 2)))
        with pytest.raises(PatchflowError):
            epe(pred, np.zeros((16, 16, 2)), margin=8)


class TestFlowColor:
    def test_zero_field_is_white(self):
        rgb = flow_to_color(np.zeros((4, 4, 2)))
        assert np.all(rgb == 255)

    def test_wheel_size(self):
        assert color_wheel().shape == (55, 3)

    def test_compass_directions(self):
        for vec, want in COMPASS_COLORS.items():
            v = np.asarray(vec, dtype=float)
            v /= np.linalg.norm(v)
            rgb = flow_to_color(v.reshape(1, 1, 2), max_mag=1.0)
            assert tuple(int(x) for x in rgb[0, 0]) == want

    def test_halving_magnitude_halves_saturation(self):
        rng = np.random.default_rng(7)
        fld = rng.uniform(-2, 2, (6, 6, 2))
        full = flow_to_color(fld, max_mag=4.0).astype(int)
        half = flow_to_color(fld / 2.0, max_mag=4.0).astype(int)
        np.testing.assert_allclose(255 - half, (255 - full) / 2.0, atol=1.0)

    def test_rotation_preserves_saturation(self):
        rng = np.random.default_rng(9)
        fld = rng.uniform(-2, 2, (5, 5, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        fld_rot = fld @ rot.T
        a = flow_to_color(fld, max_mag=4.0).astype(int)
        b = flow_to_color(fld_rot, max_mag=4.0).astype(int)
        # min channel encodes 1 - magnitude/max exactly, up to rounding
        np.testing.assert_allclose(a.min(axis=2), b.min(axis=2), atol=1.0)

    def test_grid_field_input(self):
        # a lattice field laid out as its (rows, cols) grid, as infer --color passes it
        fld = grid_field([[1.0, 0.0], [0.0, 1.0]])
        rgb = flow_to_color(fld.vectors.reshape(1, 2, 2))
        assert rgb.shape == (1, 2, 3)
        assert tuple(rgb[0, 0]) != tuple(rgb[0, 1])


class TestNetpbm:
    def test_pgm_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", img)
        assert np.array_equal(read_pgm(tmp_path / "a.pgm"), img)

    def test_ppm_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        assert np.array_equal(read_ppm(tmp_path / "a.ppm"), img)

    def test_single_pixel(self, tmp_path):
        write_pgm(tmp_path / "p.pgm", np.array([[0.5]]))
        assert read_pgm(tmp_path / "p.pgm").shape == (1, 1)

    def test_golden_bytes(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.5, 0.25]])
        write_pgm(tmp_path / "g.pgm", img)
        want = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        assert (tmp_path / "g.pgm").read_bytes() == want

    def test_float_quantization(self, tmp_path):
        img = np.array([[-0.5, 2.0]])  # clamps to 0 and 255
        write_pgm(tmp_path / "c.pgm", img)
        assert list(read_pgm(tmp_path / "c.pgm")[0]) == [0, 255]

    def test_comment_header(self, tmp_path):
        raw = b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9])
        (tmp_path / "c.pgm").write_bytes(raw)
        assert list(read_pgm(tmp_path / "c.pgm")[0]) == [7, 9]

    def test_malformed_header(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\nxx yy\n255\n")
        with pytest.raises(DataFormatError):
            read_pgm(tmp_path / "bad.pgm")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(DataFormatError):
            read_pgm(tmp_path / "bad.pgm")

    def test_load_image_luminance(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[..., 0] = 255
        write_ppm(tmp_path / "r.ppm", img)
        lum = load_image(tmp_path / "r.ppm")
        assert lum[0, 0] == pytest.approx(0.299)

"""Generator tests: spline fields, warping, scene synthesis, container I/O."""

import re

import numpy as np
import pytest

from patchflow import datagen
from patchflow.core import DisplacementGrid, GridSpec
from patchflow.datagen import (
    AffineSceneSpec,
    DeformSpec,
    SamplePair,
    _affine,
    _affine_flow,
    bandpass,
    dataset_read,
    dataset_write,
    gen_v1deform,
    interpolate_field,
    scene_sample,
    synthetic_textures,
    warp,
)
from patchflow.errors import DataFormatError, PatchflowError


def reflect_index(i, n):
    # mirror-without-edge indexing, same as np.pad mode="reflect"
    period = 2 * n - 2
    i = i % period
    return period - i if i > n - 1 else i


def naive_bandpass(image, sigma1, sigma2, size):
    h, w = image.shape
    offs = np.arange(size) - size // 2
    out = np.zeros((h, w))
    for sigma, sign in ((sigma1, 1.0), (sigma2, -1.0)):
        k1 = np.exp(-offs.astype(float) ** 2 / (2 * sigma * sigma))
        k1 /= k1.sum()
        k2d = np.outer(k1, k1)
        for r in range(h):
            for c in range(w):
                acc = 0.0
                for i in range(size):
                    for j in range(size):
                        rr = reflect_index(r + offs[i], h)
                        cc = reflect_index(c + offs[j], w)
                        acc += k2d[i, j] * image[rr, cc]
                out[r, c] += sign * acc
    return out


class TestInterpolateField:
    def test_constant_controls(self):
        ctrl = np.full((4, 4, 2), 2.5)
        fld = interpolate_field(ctrl, (32, 48))
        np.testing.assert_allclose(fld, 2.5, atol=1e-12)

    def test_zero_controls(self):
        fld = interpolate_field(np.zeros((3, 3, 2)), (20, 20))
        assert np.all(fld == 0)

    def test_node_property(self):
        # 64 pixels with m=4 puts control points exactly at rows 0, 21, 42, 63
        rng = np.random.default_rng(5)
        ctrl = rng.uniform(-3, 3, (4, 4, 2))
        fld = interpolate_field(ctrl, (64, 64))
        nodes = [0, 21, 42, 63]
        for i, r in enumerate(nodes):
            for j, c in enumerate(nodes):
                np.testing.assert_allclose(fld[r, c], ctrl[i, j], atol=1e-9)

    def test_linear_in_controls(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (4, 4, 2))
        b = rng.uniform(-1, 1, (4, 4, 2))
        lhs = interpolate_field(2.0 * a - 0.5 * b, (40, 40))
        rhs = 2.0 * interpolate_field(a, (40, 40)) - 0.5 * interpolate_field(b, (40, 40))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_clamped_to_range(self):
        ctrl = np.full((4, 4, 2), 100.0)
        fld = interpolate_field(ctrl, (16, 16), lo=-6, hi=6)
        assert fld.max() <= 6.0

    @pytest.mark.parametrize("shape, m", [((64, 64), 4), ((20, 33), 3), ((1, 17), 2), ((48, 40), 5)])
    def test_cached_plan_keeps_the_bits(self, shape, m):
        # the axis matrices and contraction order, cached per size, give the field of
        # freshly built matrices and the contraction order einsum searches for
        ctrl = np.random.default_rng(m).uniform(-6, 6, (m, m, 2))
        for _ in range(2):  # the first call fills the cache, the second reads it
            got = interpolate_field(ctrl, shape)
            rows, cols = (datagen._axis_matrix.__wrapped__(n, m) for n in shape)
            want = np.clip(np.einsum("ri,cj,ijd->rcd", rows, cols, ctrl, optimize=True), -6.0, 6.0)
            assert got.tobytes() == want.tobytes()
        assert not datagen._axis_matrix(shape[0], m).flags.writeable


class TestWarp:
    def test_zero_field_identity(self):
        rng = np.random.default_rng(11)
        img = rng.random((24, 24))
        out = warp(img, np.zeros((24, 24, 2)))
        assert np.array_equal(out, img)

    def test_integer_shift_exact_interior(self):
        rng = np.random.default_rng(13)
        img = rng.random((16, 16))
        fld = np.zeros((16, 16, 2))
        fld[..., 0] = 2.0  # rows shift down by 2
        out = warp(img, fld)
        np.testing.assert_allclose(out[2:, :], img[:-2, :], atol=1e-12)

    def test_half_pixel_manual_bilinear(self):
        img = np.arange(16.0).reshape(4, 4)
        fld = np.zeros((4, 4, 2))
        fld[..., 1] = 0.5  # sample at column c - 0.5
        out = warp(img, fld)
        for r in range(4):
            assert out[r, 0] == img[r, 0]  # clamped to border
            for c in range(1, 4):
                assert out[r, c] == pytest.approx(0.5 * (img[r, c - 1] + img[r, c]))

    def test_border_clamps(self):
        img = np.arange(9.0).reshape(3, 3)
        fld = np.full((3, 3, 2), 10.0)
        out = warp(img, fld)
        assert np.all(np.isfinite(out))
        assert out[2, 2] == img[0, 0]


class TestGenV1Deform:
    def test_zero_range(self):
        src = synthetic_textures(2, (32, 32), seed=1)
        pairs = gen_v1deform(src, 3, DeformSpec(grid_m=4, lo=0.0, hi=0.0, seed=9))
        for p in pairs:
            assert np.array_equal(p.image_t, p.image_t1)
            assert np.all(p.field == 0)

    def test_fields_within_range(self):
        src = synthetic_textures(2, (48, 48), seed=2)
        pairs = gen_v1deform(src, 6, DeformSpec(seed=3))
        for p in pairs:
            assert p.field.max() <= 6.0 and p.field.min() >= -6.0

    def test_seeded_determinism(self):
        src = synthetic_textures(2, (32, 32), seed=4)
        a = gen_v1deform(src, 4, DeformSpec(seed=5))
        b = gen_v1deform(src, 4, DeformSpec(seed=5))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.image_t1, pb.image_t1)
            assert np.array_equal(pa.field, pb.field)

    def test_empty_sources(self):
        with pytest.raises(PatchflowError):
            gen_v1deform([], 1, DeformSpec())

    def test_composition_sanity(self):
        src = synthetic_textures(1, (48, 48), seed=6)
        (pair,) = gen_v1deform(src, 1, DeformSpec(seed=7))
        assert np.array_equal(warp(pair.image_t, pair.field), pair.image_t1)

    def test_fields_round_onto_candidate_grid(self):
        src = synthetic_textures(1, (64, 64), seed=8)
        pairs = gen_v1deform(src, 3, DeformSpec(seed=9))
        grid = DisplacementGrid(-6, 6, 0.5)
        pos = GridSpec(16, 8).positions(64, 64)
        for p in pairs:
            sampled = p.field[pos[:, 0], pos[:, 1]]
            grid.round_indices(sampled)  # must not raise


class TestAffineScenes:
    def test_identity_affines(self):
        bgs = synthetic_textures(1, (48, 48), seed=10)
        fgs = synthetic_textures(1, (24, 24), seed=11)
        mask = [np.ones((24, 24))]
        spec = AffineSceneSpec(
            bg_translation=0, bg_rotation=0, bg_scale=0,
            fg_translation=0, fg_rotation=0, fg_scale=0, seed=12,
        )
        pairs = [scene_sample(bgs, fgs, mask, spec, i) for i in range(2)]
        for p in pairs:
            assert np.all(p.field == 0)
            assert np.array_equal(p.image_t, p.image_t1)

    def test_translation_flow_constant(self):
        fld = _affine_flow(*_affine((3.0, 0.0), 0.0, 1.0, (15.5, 15.5)), (32, 32))
        np.testing.assert_allclose(fld[..., 0], 3.0, atol=1e-12)
        np.testing.assert_allclose(fld[..., 1], 0.0, atol=1e-12)

    def test_rotation_flow_matches_pixel_oracle(self):
        theta = 0.1
        h = w = 20
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        fld = _affine_flow(*_affine((0.0, 0.0), theta, 1.0, (cy, cx)), (h, w))
        ct, st = np.cos(theta), np.sin(theta)
        for r in range(0, h, 3):
            for c in range(0, w, 3):
                # source position: rotate (x - c) by -theta about the center
                dr, dc = r - cy, c - cx
                src_r = cy + ct * dr + st * dc
                src_c = cx - st * dr + ct * dc
                np.testing.assert_allclose(fld[r, c], [r - src_r, c - src_c], atol=1e-10)

    def test_scene_fields_in_bounds_and_deterministic(self):
        bgs = synthetic_textures(2, (48, 48), seed=13)
        fgs = synthetic_textures(2, (24, 24), seed=14)
        masks = [np.ones((24, 24)), np.ones((24, 24))]
        spec = AffineSceneSpec(seed=15)
        a = [scene_sample(bgs, fgs, masks, spec, i) for i in range(4)]
        b = [scene_sample(bgs, fgs, masks, spec, i) for i in range(4)]
        for pa, pb in zip(a, b):
            assert pa.field.max() <= 6.0 and pa.field.min() >= -6.0
            assert np.array_equal(pa.field, pb.field)
            assert np.array_equal(pa.image_t1, pb.image_t1)

    def test_background_only(self):
        bgs = synthetic_textures(1, (32, 32), seed=16)
        spec = AffineSceneSpec(bg_rotation=0, bg_scale=0, seed=17)
        pair = scene_sample(bgs, [], [], spec, 0)
        # translation-only background: constant field
        assert np.ptp(pair.field[..., 0]) < 1e-9
        assert np.ptp(pair.field[..., 1]) < 1e-9


class TestBandpass:
    def test_constant_image(self):
        out = bandpass(np.full((16, 16), 0.7))
        assert np.max(np.abs(out)) < 1e-10

    def test_impulse_gives_dog_kernel(self):
        img = np.zeros((24, 24))
        img[12, 12] = 1.0
        out = bandpass(img, 1.0, 4.0, 8)
        offs = np.arange(8) - 4
        dogs = []
        for sigma in (1.0, 4.0):
            k = np.exp(-offs.astype(float) ** 2 / (2 * sigma * sigma))
            dogs.append(np.outer(k / k.sum(), k / k.sum()))
        dog = dogs[0] - dogs[1]
        # correlation places kernel value dog[i, j] at row R + size//2 - i
        for i in range(8):
            for j in range(8):
                assert out[12 + 4 - i, 12 + 4 - j] == pytest.approx(dog[i, j], abs=1e-12)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(19)
        img = rng.random((12, 12))
        got = bandpass(img, 1.0, 2.5, 6)
        want = naive_bandpass(img, 1.0, 2.5, 6)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_kernel_must_fit(self):
        with pytest.raises(PatchflowError):
            bandpass(np.zeros((4, 4)), kernel_size=8)


class TestDatasetIO:
    def make_pairs(self, n=3, shape=(16, 16)):
        src = synthetic_textures(2, shape, seed=20)
        return gen_v1deform(src, n, DeformSpec(lo=-2, hi=2, seed=21))

    def test_roundtrip_bit_identical(self, tmp_path):
        pairs = self.make_pairs()
        dataset_write(pairs, tmp_path / "ds")
        back = dataset_read(tmp_path / "ds")
        dataset_write(back, tmp_path / "ds2")
        for i in range(len(pairs)):
            a = (tmp_path / "ds" / f"sample_{i:05d}.v1ds").read_bytes()
            b = (tmp_path / "ds2" / f"sample_{i:05d}.v1ds").read_bytes()
            assert a == b

    def test_empty_dataset(self, tmp_path):
        # the writer refuses no samples before it makes the directory
        with pytest.raises(DataFormatError, match="a dataset holds at least one sample, got none"):
            dataset_write([], tmp_path / "empty")
        assert not (tmp_path / "empty").exists()
        # and the reader refuses a manifest count of 0, naming the manifest
        dataset_write(self.make_pairs(1), tmp_path / "empty")
        manifest = tmp_path / "empty" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"count": 1', '"count": 0'))
        with pytest.raises(DataFormatError, match=re.escape(f"{manifest}: manifest count must be a positive integer, got 0")):
            dataset_read(tmp_path / "empty")

    def test_corrupted_magic(self, tmp_path):
        pairs = self.make_pairs(1)
        dataset_write(pairs, tmp_path / "ds")
        f = tmp_path / "ds" / "sample_00000.v1ds"
        raw = bytearray(f.read_bytes())
        raw[:4] = b"XXXX"
        f.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            dataset_read(tmp_path / "ds")

    def test_truncated_sample(self, tmp_path):
        pairs = self.make_pairs(1)
        dataset_write(pairs, tmp_path / "ds")
        f = tmp_path / "ds" / "sample_00000.v1ds"
        f.write_bytes(f.read_bytes()[:-8])
        with pytest.raises(DataFormatError):
            dataset_read(tmp_path / "ds")

    def test_pgm_mode_roundtrip(self, tmp_path):
        pairs = self.make_pairs(2)
        dataset_write(pairs, tmp_path / "ds", mode="pgm")
        back = dataset_read(tmp_path / "ds")
        for orig, rt in zip(pairs, back):
            # images pass through 8-bit quantization; fields stay float32-exact
            assert np.max(np.abs(orig.image_t - rt.image_t)) <= 0.5 / 255 + 1e-12
            np.testing.assert_array_equal(
                rt.field.astype(np.float32), orig.field.astype(np.float32)
            )

"""Forward-model tests: patch extraction, encoding, decoding, motion, losses."""

import numpy as np
import pytest

from patchflow.core import (
    DisplacementField,
    DisplacementGrid,
    Encoder,
    GridSpec,
    MixedMotion,
    ParametricMotion,
    VectorField,
    decode,
    encode,
    extract_patches,
    lattice_axes,
    overlap_add,
    support_offsets,
)
from patchflow.errors import BoundsError, GridLookupError, ShapeError

from matrix_form import ZeroSupportTable, block_layout, predicted_vectors, rotation_loss


def naive_patch(image, pos, p):
    # independent double-loop oracle
    out = []
    r0, c0 = pos[0] - p // 2, pos[1] - p // 2
    for i in range(p):
        for j in range(p):
            out.append(image[r0 + i, c0 + j])
    return np.array(out)


def orthonormal_encoder(p, stride, rng):
    # square W via QR: K*d = p*p, d = 2
    q, _ = np.linalg.qr(rng.standard_normal((p * p, p * p)))
    return Encoder(q.T.reshape(p * p // 2, 2, p * p), p, stride)


class TestExtractPatch:
    def test_zero_image(self):
        img = np.zeros((32, 32))
        assert extract_patches(img, [(16, 16)], 16).shape == (1, 256)
        assert np.all(extract_patches(img, [(16, 16)], 16) == 0)

    def test_single_pixel(self):
        img = np.arange(16.0).reshape(4, 4)
        assert extract_patches(img, [(2, 3)], 1) == np.array([[img[2, 3]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.random((8, 8))
        got = extract_patches(img, [(4, 4)], 4)[0]
        assert np.array_equal(got, naive_patch(img, (4, 4), 4))

    def test_out_of_bounds(self):
        img = np.zeros((16, 16))
        with pytest.raises(BoundsError):
            extract_patches(img, [(3, 8)], 16)
        with pytest.raises(BoundsError):
            extract_patches(img, [(8, 9)], 16)

    def test_window_convention(self):
        # 16x16 patch at x spans offsets -8..+7
        img = np.zeros((32, 32))
        img[8, 8] = 1.0  # top-left of window for center (16, 16)
        img[23, 23] = 2.0  # bottom-right
        patch = extract_patches(img, [(16, 16)], 16)[0]
        assert patch[0] == 1.0 and patch[-1] == 2.0


class TestGridSpec:
    def test_positions_fit(self):
        g = GridSpec(16, 8)
        pos = g.positions(64, 64)
        assert pos.shape == (49, 2)
        assert pos[:, 0].min() == 8 and pos[:, 0].max() == 56
        # every position admits a full patch
        extract_patches(np.zeros((64, 64)), pos, 16)

    def test_full_cover_at_stride_eq_patch(self):
        g = GridSpec(16, 16)
        pos = g.positions(64, 64)
        cover = np.zeros((64, 64), dtype=int)
        for r, c in pos:
            cover[r - 8 : r + 8, c - 8 : c + 8] += 1
        assert np.all(cover == 1)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GridSpec(0, 1)
        with pytest.raises(ValueError):
            GridSpec(8, 9)


class TestLatticeAxes:
    def test_axes_of_grid_positions(self):
        rows, cols = lattice_axes(GridSpec(8, 4).positions(24, 20))
        assert rows.tolist() == [4, 8, 12, 16, 20]
        assert cols.tolist() == [4, 8, 12, 16]

    def test_rejects_non_rectangular_and_permuted_positions(self):
        pos = GridSpec(8, 4).positions(24, 20)
        for bad in (pos[:-1], pos[::-1], pos[np.lexsort((pos[:, 0], pos[:, 1]))]):
            with pytest.raises(ShapeError):
                lattice_axes(bad)


class TestEncodeDecode:
    def test_one_hot_rows_select_entries(self):
        p = 4
        w = np.zeros((2, 2, p * p))
        w[0, 0, 5] = 1.0
        w[0, 1, 6] = 1.0
        w[1, 0, 0] = 1.0
        w[1, 1, 15] = 1.0
        enc = Encoder(w, p, p)
        rng = np.random.default_rng(0)
        img = rng.random((8, 8))
        vf = encode(enc, img, np.array([[4, 4]]))
        patch = extract_patches(img, [(4, 4)], p)[0]
        assert vf.vectors[0, 0, 0] == patch[5]
        assert vf.vectors[0, 0, 1] == patch[6]
        assert vf.vectors[0, 1, 0] == patch[0]
        assert vf.vectors[0, 1, 1] == patch[15]

    def test_zero_image_zero_field(self):
        enc = Encoder.random(5, 2, 8, 4, rng=1)
        vf = encode(enc, np.zeros((32, 32)))
        assert np.all(vf.vectors == 0)

    def test_encode_matches_naive_matmul(self):
        rng = np.random.default_rng(3)
        enc = Encoder.random(6, 2, 8, 4, rng=rng)
        img = rng.random((24, 24))
        vf = encode(enc, img)
        for n, pos in enumerate(vf.positions):
            patch = naive_patch(img, pos, 8)
            for k in range(6):
                want = enc.weights[k] @ patch
                np.testing.assert_allclose(vf.vectors[n, k], want, rtol=1e-12)

    def test_encode_accepts_arbitrary_positions(self):
        enc = Encoder.random(3, 2, 8, 4, rng=5)
        img = np.random.default_rng(5).random((32, 32))
        pos = np.array([[5, 9], [11, 17]])
        vf = encode(enc, img, pos)
        assert np.array_equal(vf.positions, pos)

    def test_decode_zero_field(self):
        enc = Encoder.random(4, 2, 8, 4, rng=2)
        pos = enc.grid.positions(24, 24)
        vf = VectorField(pos, np.zeros((len(pos), 4, 2)))
        assert np.all(decode(enc, vf, (24, 24)) == 0)

    def test_orthonormal_tiling_roundtrip(self):
        rng = np.random.default_rng(11)
        enc = orthonormal_encoder(8, 8, rng)
        img = rng.random((32, 32))
        rec = decode(enc, encode(enc, img), img.shape)
        np.testing.assert_allclose(rec, img, atol=1e-10)

    def test_decode_matches_accumulation_oracle(self):
        rng = np.random.default_rng(13)
        enc = Encoder.random(5, 3, 8, 4, rng=rng)  # overlapping s = p/2
        img = rng.random((24, 24))
        vf = encode(enc, img)
        got = decode(enc, vf, img.shape)
        want = np.zeros((24, 24))
        for n, (r, c) in enumerate(vf.positions):
            patch = np.zeros(64)
            for k in range(5):
                patch += enc.weights[k].T @ vf.vectors[n, k]
            want[r - 4 : r + 4, c - 4 : c + 4] += patch.reshape(8, 8)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("p, stride, shape", [(7, 3, (23, 20)), (8, 4, (24, 24)), (16, 8, (64, 48))])
    def test_decode_adds_patches_in_order(self, p, stride, shape):
        # bit for bit the sequential scatter np.add.at makes
        rng = np.random.default_rng(p)
        enc = Encoder.random(3, 2, p, stride, rng=rng)
        pos = enc.grid.positions(*shape)
        vf = VectorField(pos, rng.standard_normal((len(pos), 3, 2)))
        patches = vf.vectors.reshape(-1, 6) @ enc.matrix()
        top = pos - p // 2
        span = np.arange(p)
        idx = (top[:, 0, None, None] + span[:, None]) * shape[1] + top[:, 1, None, None] + span
        want = np.zeros(shape[0] * shape[1])
        np.add.at(want, idx.ravel(), patches.ravel())
        assert np.array_equal(decode(enc, vf, shape), want.reshape(shape))

    def test_overlap_add_of_a_stack_equals_decode_per_canvas(self):
        rng = np.random.default_rng(29)
        enc = Encoder.random(3, 2, 7, 3, rng=rng)
        shape = (23, 20)
        pos = enc.grid.positions(*shape)
        vec = rng.standard_normal((2, 3, len(pos), 3, 2))
        patches = np.stack([[v.reshape(-1, 6) @ enc.matrix() for v in row] for row in vec])
        got = overlap_add(patches, pos, shape, 7)
        assert got.shape == (2, 3) + shape
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], decode(enc, VectorField(pos, vec[i, j]), shape))

    def test_decode_is_linear(self):
        rng = np.random.default_rng(17)
        enc = Encoder.random(4, 2, 8, 4, rng=rng)
        pos = enc.grid.positions(24, 24)
        v1 = rng.standard_normal((len(pos), 4, 2))
        v2 = rng.standard_normal((len(pos), 4, 2))
        a, b = 0.7, -1.3
        lhs = decode(enc, VectorField(pos, a * v1 + b * v2), (24, 24))
        rhs = a * decode(enc, VectorField(pos, v1), (24, 24)) + b * decode(
            enc, VectorField(pos, v2), (24, 24)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_isometry_with_orthonormal_frame(self):
        # constructive tight-frame check: <WI, WJ> = <I, J>
        rng = np.random.default_rng(19)
        enc = orthonormal_encoder(8, 8, rng)
        img_a = rng.random((16, 16))
        img_b = rng.random((16, 16))
        va = encode(enc, img_a).vectors.ravel()
        vb = encode(enc, img_b).vectors.ravel()
        want = float(np.sum(img_a * img_b))
        assert abs(np.dot(va, vb) - want) <= 1e-8 * abs(want)

    def test_shape_mismatch(self):
        enc = Encoder.random(4, 2, 8, 4, rng=2)
        pos = enc.grid.positions(24, 24)
        bad = VectorField(pos, np.zeros((len(pos), 4, 3)))
        with pytest.raises(ShapeError):
            decode(enc, bad, (24, 24))

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        enc = Encoder.random(4, 2, 8, 4, rng=rng)
        img = rng.random((24, 24))
        a = decode(enc, encode(enc, img), img.shape)
        b = decode(enc, encode(enc, img), img.shape)
        assert np.array_equal(a, b)


class TestDisplacementGrid:
    def test_candidate_count(self):
        g = DisplacementGrid(-6, 6, 0.5)
        assert g.num_candidates == 25 * 25

    def test_exact_lookup(self):
        g = DisplacementGrid(-2, 2, 0.5)
        i = g.index_of((1.0, -0.5))
        np.testing.assert_array_equal(g.candidates()[i], [1.0, -0.5])

    def test_off_grid_rejected(self):
        g = DisplacementGrid(-2, 2, 0.5)
        with pytest.raises(GridLookupError):
            g.index_of((0.3, 0.0))
        with pytest.raises(GridLookupError):
            g.index_of((2.5, 0.0))

    def test_round_indices(self):
        g = DisplacementGrid(-2, 2, 0.5)
        idx = g.round_indices(np.array([[0.25, -0.2], [1.9, 1.4]]))
        got = g.candidates()[idx]
        np.testing.assert_array_equal(got, [[0.5, 0.0], [2.0, 1.5]])


def predict_one(model, enc, img, pos, delta):
    """`predicted_vectors` at one position, (K, d)."""
    return predicted_vectors(enc, model, img, np.asarray([pos]), np.asarray([delta], dtype=np.float64))[0]


class TestMotion:
    def test_parametric_zero_delta_identity(self):
        rng = np.random.default_rng(29)
        m = ParametricMotion(rng.standard_normal((5, 4, 2, 2)))
        np.testing.assert_array_equal(m.support_matrices(np.zeros((1, 2)))[0, 2], np.eye(2))

    def test_parametric_all_zero_coeffs(self):
        m = ParametricMotion.zeros(3, 2)
        np.testing.assert_array_equal(m.support_matrices(np.array([[1.7, -2.3]]))[0, 1], np.eye(2))

    def test_parametric_direct_substitution(self):
        c = np.zeros((5, 1, 2, 2))
        c[0, 0] = [[0.0, -1.0], [1.0, 0.0]]  # B1 only
        m = ParametricMotion(c)
        np.testing.assert_allclose(
            m.support_matrices(np.array([[0.5, 0.0]]))[0, 0], [[1.0, -0.5], [0.5, 1.0]]
        )

    def test_table_lookup_lays_each_offset_out_as_d_columns(self):
        rng = np.random.default_rng(30)
        grid, offsets = DisplacementGrid(-1, 1, 0.5), support_offsets(2, 2)
        m = MixedMotion(grid, offsets, rng.standard_normal((grid.num_candidates, len(offsets), 3, 2, 2)))
        deltas = grid.candidates()[rng.integers(0, grid.num_candidates, (4, 5))]
        got = m.support_matrices(deltas)
        assert got.shape == (4, 5, 3, 2, len(offsets) * 2) and got.flags.c_contiguous
        idx = grid.round_indices(deltas)
        for b, n, j in np.ndindex(4, 5, len(offsets)):
            assert np.array_equal(got[b, n, :, :, 2 * j : 2 * j + 2], m.matrices[idx[b, n], j])

    def test_identity_model_keeps_vector(self):
        rng = np.random.default_rng(0)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        img = rng.random((24, 24))
        m = ZeroSupportTable.identity(DisplacementGrid(-1, 1, 0.5), 3, 2)
        v = encode(enc, img, np.array([(12, 8)])).vectors[0]
        np.testing.assert_array_equal(predict_one(m, enc, img, (12, 8), (0.5, -1.0)), v)

    def test_zero_vector(self):
        g = DisplacementGrid(-1, 1, 1.0)
        m = ZeroSupportTable(g, np.random.default_rng(1).standard_normal((9, 3, 2, 2)))
        enc = Encoder.random(3, 2, 8, 4, rng=1)
        assert np.all(predict_one(m, enc, np.zeros((24, 24)), (12, 12), (1.0, 0.0)) == 0)

    def test_apply_matches_per_block_oracle(self):
        rng = np.random.default_rng(31)
        g = DisplacementGrid(-1, 1, 1.0)
        m = ZeroSupportTable(g, rng.standard_normal((9, 4, 3, 3)))
        enc = Encoder.random(4, 3, 8, 4, rng=rng)
        img = rng.random((24, 24))
        got = predict_one(m, enc, img, (8, 16), (-1.0, 1.0))
        v = encode(enc, img, np.array([(8, 16)])).vectors[0]
        i = g.index_of((-1.0, 1.0))
        for k in range(4):
            np.testing.assert_allclose(got[k], m.matrices[i, 0, k] @ v[k], rtol=1e-14)


class TestMixedMotion:
    def setup_method(self):
        self.rng = np.random.default_rng(37)
        self.enc = Encoder.random(3, 2, 8, 4, rng=self.rng)
        self.img = self.rng.random((32, 32))
        self.grid = DisplacementGrid(-1, 1, 0.5)

    def test_singleton_support_reduces_to_plain(self):
        off = np.array([[0, 0]])
        mats = self.rng.standard_normal((self.grid.num_candidates, 1, 3, 2, 2))
        mixed = MixedMotion(self.grid, off, mats)
        pos = (16, 16)
        delta = (0.5, -1.0)
        v = encode(self.enc, self.img, np.array([pos])).vectors[0]
        np.testing.assert_allclose(
            predict_one(mixed, self.enc, self.img, pos, delta),
            np.einsum("kde,ke->kd", mats[self.grid.index_of(delta), 0], v),
            rtol=1e-12,
        )

    def test_zero_matrices_zero_output(self):
        off = support_offsets(2, 2)
        mixed = MixedMotion(self.grid, off, np.zeros((self.grid.num_candidates, len(off), 3, 2, 2)))
        out = predict_one(mixed, self.enc, self.img, (16, 16), (0.0, 0.0))
        assert np.all(out == 0)

    def test_matches_triple_loop_oracle(self):
        off = support_offsets(2, 2)
        mats = self.rng.standard_normal((self.grid.num_candidates, len(off), 3, 2, 2))
        mixed = MixedMotion(self.grid, off, mats)
        pos, delta = (16, 12), (1.0, -0.5)
        got = predict_one(mixed, self.enc, self.img, pos, delta)
        ci = self.grid.index_of(delta)
        want = np.zeros((3, 2))
        for m, (dr, dc) in enumerate(off):
            patch = naive_patch(self.img, (pos[0] + dr, pos[1] + dc), 8)
            for k in range(3):
                want[k] += mats[ci, m, k] @ (self.enc.weights[k] @ patch)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_boundary_support_raises(self):
        off = support_offsets(4, 2)
        mixed = MixedMotion.identity(self.grid, off, 3, 2)
        with pytest.raises(BoundsError):
            predict_one(mixed, self.enc, self.img, (4, 16), (0.0, 0.0))


class TestLosses:
    def test_rotation_loss_zero_for_exact_model(self):
        # build I_{t+1} encodings equal to the transformed ones via identity + same image
        rng = np.random.default_rng(41)
        enc = Encoder.random(4, 2, 8, 4, rng=rng)
        img = rng.random((24, 24))
        g = DisplacementGrid(-1, 1, 0.5)
        model = ZeroSupportTable.identity(g, 4, 2)
        pos = enc.grid.positions(24, 24)
        fld = DisplacementField(pos, np.zeros((len(pos), 2)))
        assert rotation_loss(enc, model, img, img, fld) == 0.0

    def test_rotation_loss_matches_summation_oracle(self):
        rng = np.random.default_rng(43)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        img_t = rng.random((16, 16))
        img_t1 = rng.random((16, 16))
        g = DisplacementGrid(-1, 1, 1.0)
        model = ZeroSupportTable(g, rng.standard_normal((9, 3, 2, 2)))
        pos = enc.grid.positions(16, 16)
        deltas = g.candidates()[rng.integers(0, 9, len(pos))]
        fld = DisplacementField(pos, deltas)
        got = rotation_loss(enc, model, img_t, img_t1, fld)
        want = 0.0
        for n, x in enumerate(pos):
            a = naive_patch(img_t, x, 8)
            b = naive_patch(img_t1, x, 8)
            i = g.index_of(deltas[n])
            for k in range(3):
                r = enc.weights[k] @ b - model.matrices[i, 0, k] @ (enc.weights[k] @ a)
                want += float(r @ r)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_rotation_loss_nonnegative_random(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            enc = Encoder.random(2, 2, 8, 8, rng=rng)
            img_t = rng.random((16, 16))
            img_t1 = rng.random((16, 16))
            model = ParametricMotion(0.1 * rng.standard_normal((5, 2, 2, 2)))
            pos = enc.grid.positions(16, 16)
            fld = DisplacementField(pos, rng.uniform(-1, 1, (len(pos), 2)))
            assert rotation_loss(enc, model, img_t, img_t1, fld) >= 0.0

    def test_reconstruction_matches_naive(self):
        rng = np.random.default_rng(59)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        for img in (rng.random((16, 16)), rng.random((16, 16))):
            got = decode(enc, encode(enc, img), img.shape)
            want = np.zeros_like(img)
            for x in enc.grid.positions(16, 16):
                patch = naive_patch(img, x, 8)
                out = np.zeros(64)
                for k in range(3):
                    out += enc.weights[k].T @ (enc.weights[k] @ patch)
                want[x[0] - 4 : x[0] + 4, x[1] - 4 : x[1] + 4] += out.reshape(8, 8)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_mixed_rotation_loss_dispatch(self):
        rng = np.random.default_rng(61)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        img = rng.random((32, 32))
        g = DisplacementGrid(-1, 1, 0.5)
        mixed = MixedMotion.identity(g, np.array([[0, 0]]), 3, 2)
        pos = enc.grid.positions(32, 32)
        fld = DisplacementField(pos, np.zeros((len(pos), 2)))
        assert rotation_loss(enc, mixed, img, img, fld) < 1e-22


class TestChecksAndAdjoint:
    def test_index_of_names_plain_numbers(self):
        g = DisplacementGrid(-2, 2, 0.5)
        for delta, words in (((0.25, 0.0), "not on the 0.5-step grid"), ((2.5, -1.0), "outside grid")):
            with pytest.raises(GridLookupError) as exc:
                g.index_of(np.asarray(delta))
            assert str(exc.value).startswith(f"displacement {delta} {words}")

    @pytest.mark.parametrize("patch, stride, radius", [(16, 8, 4), (8, 4, 2), (8, 8, 0), (9, 3, 4)])
    def test_eval_positions_names_the_smallest_image(self, patch, stride, radius):
        from patchflow.core import eval_positions
        from patchflow.errors import DataFormatError

        enc = Encoder.random(1, 2, patch, stride, rng=0)
        grid = DisplacementGrid(-1, 1, 1.0)
        model = MixedMotion.identity(grid, support_offsets(radius, 2) if radius else [[0, 0]], 1, 2)
        side = next(n for n in range(1, 100) if len(GridSpec(patch, stride)._axis(n, radius)))
        assert len(eval_positions(enc, model, (side, side + 5))) > 0
        with pytest.raises(DataFormatError, match=f"at least {side}x{side}"):
            eval_positions(enc, model, (side + 5, side - 1))

    def test_predict_adjoint_is_the_transpose(self):
        from patchflow.core import predict, predict_adjoint

        rng = np.random.default_rng(11)
        mats = rng.standard_normal((6, 3, 5, 2, 2))  # per position, a set over m offsets of K blocks
        vectors = rng.standard_normal((6, 5, 3 * 2))  # per position and block, its m support vectors
        grads = rng.standard_normal((6, 5, 2))  # like predict's result, (N, K, d)
        blocks = block_layout(mats[:, None])  # (N, K, d, m*d)
        lhs = np.sum(predict(blocks, vectors) * grads)
        rhs = np.sum(predict_adjoint(blocks, grads) * vectors)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_predict_is_each_positions_sum_over_its_support(self):
        from patchflow.core import predict

        rng = np.random.default_rng(12)
        mats = rng.standard_normal((4, 6, 3, 5, 2, 2))  # (B, N, m, K, d, d)
        vectors = rng.standard_normal((4, 6, 3, 5, 2))  # (B, N, m, K, d)
        want = np.zeros((4, 6, 5, 2))
        for i in np.ndindex(4, 6):
            for j in range(3):
                for kk in range(5):
                    want[i + (kk,)] += mats[i + (j, kk)] @ vectors[i + (j, kk)]
        right = np.moveaxis(vectors, 2, 3).reshape(4, 6, 5, -1)
        np.testing.assert_allclose(predict(block_layout(mats[:, :, None]), right), want, rtol=1e-12, atol=1e-14)


def axis0_support_centers(encoder, shape, positions, offsets, clamp=False):
    """`support_centers` through `np.unique(axis=0)` on the (row, col) pairs."""
    centers = np.asarray(positions, dtype=np.int64)[:, None, :] + np.asarray(offsets, dtype=np.int64)
    if clamp:
        for axis, length in enumerate(shape):
            centers[..., axis] = np.clip(centers[..., axis], *encoder.grid.center_range(length))
    uniq, inverse = np.unique(centers.reshape(-1, 2), axis=0, return_inverse=True)
    return uniq, inverse.reshape(centers.shape[:2])


class TestSupportCenters:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_matches_axis0_unique(self, clamp):
        from patchflow.core import support_centers

        enc = Encoder.random(2, 2, 8, 4, rng=12)
        rng = np.random.default_rng(13)
        for _ in range(100):
            shape = tuple(rng.integers(8, 60, 2))
            positions = rng.integers(-10, 70, (rng.integers(1, 30), 2))
            offsets = rng.integers(-6, 7, (rng.integers(1, 10), 2))
            want = axis0_support_centers(enc, shape, positions, offsets, clamp)
            got = support_centers(enc, shape, positions, offsets, clamp)
            assert got[0].dtype == want[0].dtype and got[1].shape == want[1].shape
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_desk_lattice_and_support(self):
        from patchflow.core import eval_positions, support_centers

        enc = Encoder.random(2, 2, 16, 8, rng=14)
        model = MixedMotion.identity(DisplacementGrid(), support_offsets(4, 2), 2, 2)
        for clamp, pos in ((False, eval_positions(enc, model, (64, 64))), (True, enc.grid.positions(64, 64))):
            want = axis0_support_centers(enc, (64, 64), pos, model.offsets, clamp)
            got = support_centers(enc, (64, 64), pos, model.offsets, clamp)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestOffsetEncodings:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_stack_encodes_each_frame_as_alone(self, clamp):
        # one product of the whole stack rounds some rows differently from a frame's own
        from patchflow.core import eval_positions, offset_encodings

        enc = Encoder.random(3, 2, 8, 4, rng=15)
        model = MixedMotion.identity(DisplacementGrid(-1, 1, 0.5), support_offsets(2, 2), 3, 2)
        frames = np.random.default_rng(16).random((2, 3, 28, 28))
        pos = enc.grid.positions(28, 28) if clamp else eval_positions(enc, model, (28, 28))
        vectors = offset_encodings(enc, frames, pos, model.offsets, clamp)
        assert vectors.shape == (2, 3, len(pos), 3, len(model.offsets) * 2)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(vectors[i, j], offset_encodings(enc, frames[i, j], pos, model.offsets, clamp))

    @pytest.mark.parametrize("clamp", [False, True])
    def test_each_position_holds_its_centers_codes_offset_major(self, clamp):
        from patchflow.core import apply_encoder, eval_positions, offset_encodings, support_centers

        enc = Encoder.random(3, 2, 8, 4, rng=17)
        offsets = support_offsets(2, 2)
        model = MixedMotion.identity(DisplacementGrid(-1, 1, 0.5), offsets, 3, 2)
        img = np.random.default_rng(18).random((28, 28))
        pos = enc.grid.positions(28, 28) if clamp else eval_positions(enc, model, (28, 28))
        got = offset_encodings(enc, img, pos, offsets, clamp)
        assert got.shape == (len(pos), 3, len(offsets) * 2) and got.flags.c_contiguous
        uniq, inverse = support_centers(enc, img.shape, pos, offsets, clamp)
        codes = apply_encoder(enc.weights, extract_patches(img, uniq, 8))  # (U, K, d)
        for n, j in np.ndindex(inverse.shape):
            assert np.array_equal(got[n, :, 2 * j : 2 * j + 2], codes[inverse[n, j]])

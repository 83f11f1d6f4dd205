"""A table in training's storage: candidate-major block rows, the row-sum motion
gradient, and Adam in blocks, each against the layout and arithmetic it replaced."""

import numpy as np
import pytest

from patchflow import core, training
from patchflow.core import MixedMotion, block_layout, rows_table, support_matrices, table_rows
from patchflow.datagen import DeformSpec, gen_v1deform, synthetic_textures
from patchflow.training import AdamState, TrainConfig, adam_step, grad_total, train_supervised

from matrix_form import total_loss


def mixed_config(**kw):
    base = dict(
        motion_variant="mixed", num_blocks=3, block_dim=2, patch_size=8, stride=4,
        delta_lo=-2.0, delta_hi=2.0, delta_step=0.5, support_radius=2, support_step=2,
        batch_size=4, learning_rate=0.01,
    )
    base.update(kw)
    return TrainConfig(**base)


def storage_problem(seed=0):
    """A mixed model in training's storage with random matrices, and a batch on its grid."""
    config = mixed_config()
    rng = np.random.default_rng(seed)
    enc, model = training.init_model(config, rng)
    model.matrices[...] = 0.2 * rng.standard_normal(model.matrices.shape)  # writes the rows
    grid = config.displacement_grid
    pos = training.eval_positions(enc, model, (24, 24))
    batch = [
        (rng.random((24, 24)), rng.random((24, 24)), grid.candidates()[rng.integers(0, grid.num_candidates, len(pos))])
        for _ in range(3)
    ]
    return enc, model, batch, config


def textbook_adam(params, grads_seq, config):
    """The whole-array textbook update, step by step."""
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.eps
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros(v.shape) for k, v in params.items()}
    v_ = {k: np.zeros(v.shape) for k, v in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v_[k] = b2 * v_[k] + (1 - b2) * g * g
            p[k] = p[k] - lr * (m[k] / (1 - b1 ** t)) / (np.sqrt(v_[k] / (1 - b2 ** t)) + eps)
    return p, m, v_


class TestStorage:
    def test_identity_matrices_view_block_rows(self):
        _, model = training.init_model(mixed_config(), np.random.default_rng(0))
        rows = table_rows(model.table)
        assert rows.flags.c_contiguous and np.shares_memory(rows, model.matrices)
        assert rows.shape == (model.grid.num_candidates, 3, 2, len(model.offsets) * 2)
        assert np.array_equal(rows_table(rows, len(model.offsets)), model.matrices)

    def test_rows_gather_as_the_lookup_lays_out(self):
        enc, model, batch, _ = storage_problem()
        deltas = np.stack([d for *_, d in batch])
        old = block_layout(support_matrices(model, deltas)[:, :, None])
        for m in (model, MixedMotion(model.grid, model.offsets, np.ascontiguousarray(model.matrices))):
            got = np.take(table_rows(m.table), m.grid.round_indices(deltas), axis=0)
            assert np.array_equal(got, old)


class TestAdamBlocks:
    @pytest.mark.parametrize("layout", ["storage", "contiguous", "mixed_layouts"])
    def test_blocked_steps_match_textbook_bit_for_bit(self, monkeypatch, layout):
        # 9 candidates x 9 offsets x 3 blocks x 2 x 2 = 972 entries: blocks of 200 leave a short last one
        monkeypatch.setattr(training, "ADAM_BLOCK", 200)
        config = mixed_config(delta_lo=-1.0, delta_hi=1.0, delta_step=1.0)
        _, model = training.init_model(config, np.random.default_rng(1))
        table = np.copy(model.matrices)  # keeps training's storage order
        if layout != "storage":
            table = np.ascontiguousarray(table)
        rng = np.random.default_rng(2)
        table[...] = rng.standard_normal(table.shape)
        params = {"motion": table, "w": rng.standard_normal((3, 2, 7))}
        start = {k: v.copy() for k, v in params.items()}
        state = AdamState.init(params)
        grads_seq = []
        for _ in range(4):
            grads = {}
            for k, p in params.items():
                g = np.copy(model.matrices) if (k == "motion" and layout == "mixed_layouts") else np.empty_like(p)
                g[...] = rng.standard_normal(p.shape) * (rng.random(p.shape) < 0.5)
                grads[k] = g
            grads_seq.append(grads)
            adam_step(params, grads, state, config)
        want, m, v = textbook_adam(start, grads_seq, config)
        for k in params:
            assert np.array_equal(params[k], want[k])
            assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])
        assert np.shares_memory(params["motion"], table)

    def test_training_keeps_the_table_in_storage_order(self, monkeypatch):
        seen = []
        real = training.adam_step

        def spy(params, grads, state, config):
            seen.append(all(training._flat_views(params[k], grads[k], state.m[k], state.v[k]) for k in params))
            return real(params, grads, state, config)

        monkeypatch.setattr(training, "adam_step", spy)
        pairs = gen_v1deform(synthetic_textures(2, (24, 24), seed=3), 4, DeformSpec(grid_m=3, lo=-1.5, hi=1.5, seed=4))
        _, model, _ = train_supervised(pairs, mixed_config(num_steps=2, batch_size=2))
        assert seen == [True, True]
        assert model.matrices.shape == (model.grid.num_candidates, len(model.offsets), 3, 2, 2)


class TestGradientLayouts:
    def test_checkpoint_layout_gradient_equals_storage_gradient(self):
        enc, model, batch, config = storage_problem()
        flat = MixedMotion(model.grid, model.offsets, np.ascontiguousarray(model.matrices))
        assert not np.shares_memory(table_rows(flat.table), flat.matrices)
        got, loss = grad_total(enc, model, batch, config)
        want, want_loss = grad_total(enc, flat, batch, config)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want.d_weights)
        assert np.array_equal(got.d_motion, want.d_motion)
        assert got.d_motion.shape == model.matrices.shape

    @pytest.mark.parametrize("layout", ["storage", "checkpoint"])
    def test_matrices_changed_in_place_are_read(self, layout):
        # finite-difference probes write model.matrices in place: nothing may cache the rows
        enc, model, batch, config = storage_problem(seed=1)
        if layout == "checkpoint":
            model = MixedMotion(model.grid, model.offsets, np.ascontiguousarray(model.matrices))
        bundle, before = grad_total(enc, model, batch, config)
        hit = model.grid.round_indices(batch[0][2][0])
        idx = (hit, 0, 1, 0, 1)
        assert bundle.d_motion[idx] != 0
        model.matrices[idx] += 1e-3
        after = total_loss(enc, model, batch, config)
        fresh = MixedMotion(model.grid, model.offsets, np.array(model.matrices))
        assert after != before and after == total_loss(enc, fresh, batch, config)

    def test_motion_gradient_buffer_is_reused_and_zeroed(self):
        enc, model, batch, config = storage_problem(seed=2)
        workspace = training.Workspace()
        first, _ = grad_total(enc, model, batch, config, workspace)
        kept = first.d_motion.copy()
        second, _ = grad_total(enc, model, batch, config, workspace)
        assert np.shares_memory(first.d_motion, second.d_motion)
        assert np.array_equal(second.d_motion, kept)


# ---------------------------------------------------------------------------
# training against the per-chunk lookup and scatter that the block rows replaced


def reference_scatter_rows(shape, rows, values, cols):
    """Sum ``values`` into a zeroed array of ``shape``, each at row ``rows`` and flat place
    ``cols`` in the row (both broadcast); each bin adds in array order."""
    width = int(np.prod(shape[1:]))
    flat_idx = np.broadcast_to(rows * width + cols, values.shape).ravel()
    return np.bincount(flat_idx, weights=values.ravel(), minlength=shape[0] * width).reshape(shape)


def lookup_scatter_group_gradient(encoder, model, imgs_t, imgs_t1, deltas, counts, config, d_weights, d_motion, workspace):
    """`_group_gradient` as it was before the block rows: the matrices gathered per position
    and laid out per chunk, the motion gradient summed by `np.bincount` through a permuted
    flat index into table order.  ``d_motion`` is written through its (C, m, K, d, d) view.
    Each frame's residuals are weighted by its count in ``counts``."""
    w = encoder.weights
    k, d, q = w.shape
    kd = k * d
    w2 = w.reshape(kd, q)
    p = encoder.patch_size
    shape = imgs_t.shape[1:]
    lam_rot, lam_rec, lam_ns = config.weight_rotation, config.weight_reconstruction, config.weight_norm_stability
    rotation = lam_rot > 0 or lam_ns > 0
    loss, frames = 0.0, len(imgs_t)
    dw2 = d_weights.reshape(kd, q)

    pos_rec = encoder.grid.positions(*shape)
    n_rec = len(pos_rec)
    centers_t = centers_t1 = pos_rec
    rows_rec_t = rows_rec_t1 = None
    if rotation:
        pos = training.eval_positions(encoder, model, shape)
        uniq, inverse = core.support_centers(encoder, shape, pos, model.offsets)
        n, n_u = len(pos), len(uniq)
        frames = max(1, training.CHUNK_BYTES // (8 * q * n_u))
        place = (inverse[:, None, :, None] * k + np.arange(k)[:, None, None]) * d + np.arange(d)
        cols = block_layout(np.arange(d_motion[0].size).reshape(1, -1, k, d, d)).ravel()
        centers_t, (_, rows_x, rows_rec_t) = training._union_rows(shape[1], uniq, pos, pos_rec)
        centers_t1, (rows_rec_t1, rows_1) = training._union_rows(shape[1], pos_rec, pos)
    n_t, n_t1 = len(centers_t), len(centers_t1)

    for c in range(0, len(imgs_t), frames):
        ch_t, ch_t1, ch_d = imgs_t[c : c + frames], imgs_t1[c : c + frames], deltas[c : c + frames]
        ch_c = counts[c : c + frames]
        b = len(ch_t)
        a_t = core.extract_patches(ch_t, centers_t, p)
        a_t1 = core.extract_patches(ch_t1, centers_t1, p)
        v_t = (a_t.reshape(b * n_t, q) @ w2.T).reshape(b, n_t, kd)
        v_t1 = (a_t1.reshape(b * n_t1, q) @ w2.T).reshape(b, n_t1, kd)
        if rotation:
            a1 = training._rows(a_t1, rows_1)
            v1 = training._rows(v_t1, rows_1).reshape(b, n, k, d)
            right = np.take(v_t.reshape(b, -1), place, axis=1)
            blocks = block_layout(support_matrices(model, ch_d)[:, :, None])
            pred = core.predict(blocks, np.moveaxis(right, 3, 2)[:, :, None])[..., 0, :, 0]
            r = v1 - pred
            r_w = r * ch_c[:, None, None, None]
            loss += lam_rot * float(np.sum(r_w * r))
            d_pred = -2.0 * lam_rot * r_w
            if lam_ns > 0:
                a_x = training._rows(a_t, rows_x)
                v_x = training._rows(v_t, rows_x).reshape(b, n, k, d)
                ns = np.sum(pred * pred, axis=3) - np.sum(v_x * v_x, axis=3)
                ns_w = ns * ch_c[:, None, None]
                loss += lam_ns * float(np.sum(ns_w * ns))
                d_pred = d_pred + 4.0 * lam_ns * ns_w[..., None] * pred
                dw2 += (-4.0 * lam_ns * ns_w[..., None] * v_x).reshape(b * n, kd).T @ a_x
            dw2 += (2.0 * lam_rot * r_w).reshape(b * n, kd).T @ a1
            mt_g = core.predict_adjoint(blocks, d_pred[..., None, :, None])[..., 0]
            s = reference_scatter_rows((b * n_t, kd), np.arange(b)[:, None, None, None, None] * n_t, mt_g, place)
            dw2 += s.T @ a_t.reshape(b * n_t, q)
            g_m = (d_pred[..., None] * right.reshape(b, n, k, 1, -1)).reshape(b * n, -1)
            hit, cidx = np.unique(model.grid.round_indices(ch_d).ravel(), return_inverse=True)
            sums = reference_scatter_rows((len(hit), cols.size), cidx[:, None], g_m, cols)
            d_motion[hit] += sums.reshape((len(hit),) + d_motion.shape[1:])
        if lam_rec > 0:
            for imgs, a_s, v_s, rows in ((ch_t, a_t, v_t, rows_rec_t), (ch_t1, a_t1, v_t1, rows_rec_t1)):
                a_rec, v_rec = training._rows(a_s, rows), training._rows(v_s, rows)
                decoded = v_rec @ w2
                e = imgs - core.overlap_add(decoded.reshape(b, n_rec, q), pos_rec, shape, p)
                e_w = e * ch_c[:, None, None]
                loss += lam_rec * float(np.sum(e_w * e))
                e_flat = core.extract_patches(e_w, pos_rec, p).reshape(b * n_rec, q)
                v_e = e_flat @ w2.T
                dw2 += -2.0 * lam_rec * (v_rec.T @ e_flat + v_e.T @ a_rec)
    return loss


class TestTrainingAgainstLookupAndScatter:
    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    def test_train_supervised_same_parameters(self, monkeypatch, norm_stability):
        pairs = gen_v1deform(synthetic_textures(3, (32, 32), seed=5), 6, DeformSpec(grid_m=3, lo=-2, hi=2, seed=6))
        config = mixed_config(num_steps=4, weight_norm_stability=norm_stability)
        # chunks of 2 frames: the motion gradient of a step is summed over two chunks
        enc0, model0 = training.init_model(config, np.random.default_rng(0))
        pos = training.eval_positions(enc0, model0, (32, 32))
        uniq, _ = core.support_centers(enc0, (32, 32), pos, model0.offsets)
        monkeypatch.setattr(training, "CHUNK_BYTES", 2 * 8 * 64 * len(uniq))
        enc, model, history = train_supervised(pairs, config)
        with monkeypatch.context() as patch:
            patch.setattr(training, "_group_gradient", lookup_scatter_group_gradient)
            want_enc, want_model, want_history = train_supervised(pairs, config)
        assert history == want_history
        assert np.array_equal(enc.weights, want_enc.weights)
        assert np.array_equal(model.matrices, want_model.matrices)

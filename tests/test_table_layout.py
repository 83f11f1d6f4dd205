"""A table held once, as candidate-major block rows: the constructor, the loader and
`init_model` keep it there, the lookup and the row-sum motion gradient read and
write it, and Adam updates it in blocks, each against the layout and arithmetic it
replaced."""

import numpy as np
import pytest

from patchflow import core, training
from patchflow.core import MixedMotion
from patchflow.datagen import DeformSpec, gen_v1deform, synthetic_textures
from patchflow.errors import ShapeError
from patchflow.training import AdamState, TrainConfig, adam_step, grad_total, load_checkpoint, save_checkpoint, train_supervised

from matrix_form import block_layout, table_view, total_loss


def mixed_config(**kw):
    base = dict(
        motion_variant="mixed", num_blocks=3, block_dim=2, patch_size=8, stride=4,
        delta_lo=-2.0, delta_hi=2.0, delta_step=0.5, support_radius=2, support_step=2,
        batch_size=4, learning_rate=0.01,
    )
    base.update(kw)
    return TrainConfig(**base)


def storage_problem(seed=0):
    """A mixed model with random matrices, and a batch on its grid."""
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


def assert_held_as_rows(model):
    """``rows`` is the model's C-ordered table, and ``matrices`` a view of it."""
    c, m, k, d, _ = model.matrices.shape
    assert model.rows.shape == (c, k, d, m * d) and model.rows.flags.c_contiguous
    assert model.params is model.rows
    assert np.shares_memory(model.rows, model.matrices)
    assert np.array_equal(table_view(model.rows, m), model.matrices)


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
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_identity_matrices_view_block_rows(self, variant):
        _, model = training.init_model(mixed_config(motion_variant=variant), np.random.default_rng(0))
        assert_held_as_rows(model)
        assert model.rows.shape == (model.grid.num_candidates, 3, 2, len(model.offsets) * 2)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_loaded_matrices_view_block_rows(self, tmp_path, variant):
        enc, model, _, _ = storage_problem()
        if variant == "nonparametric":
            model = MixedMotion(model.grid, model.offsets[[len(model.offsets) // 2]], model.matrices[:, [len(model.offsets) // 2]])
        save_checkpoint(tmp_path / "m.ckpt", enc, model)
        _, loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert_held_as_rows(loaded)
        assert np.array_equal(loaded.rows, model.rows)

    def test_constructor_copies_matrices_that_are_not_a_view_of_rows(self):
        _, model, _, _ = storage_problem()
        given = np.ascontiguousarray(model.matrices)
        copied = MixedMotion(model.grid, model.offsets, given)
        assert_held_as_rows(copied)
        assert not np.shares_memory(copied.rows, given) and np.array_equal(copied.rows, model.rows)
        # matrices that are a view of C-ordered rows are kept, not copied
        assert np.shares_memory(MixedMotion(model.grid, model.offsets, model.matrices).rows, model.rows)

    def test_rows_gather_as_the_lookup_lays_out(self):
        enc, model, batch, _ = storage_problem()
        deltas = np.stack([d for *_, d in batch])
        idx = model.grid.round_indices(deltas)
        want = block_layout(model.matrices[idx][:, :, None])  # each position's set, (B, N, K, d, m*d)
        for m in (model, MixedMotion(model.grid, model.offsets, np.ascontiguousarray(model.matrices))):
            assert np.array_equal(m.support_matrices(deltas), want)
            out = np.empty_like(want)
            assert m.support_matrices(deltas, out) is out and np.array_equal(out, want)


class TestAdamBlocks:
    @pytest.mark.parametrize("layout", ["storage", "contiguous", "mixed_layouts"])
    def test_blocked_steps_match_textbook_bit_for_bit(self, monkeypatch, layout):
        # 9 candidates x 9 offsets x 3 blocks x 2 x 2 = 972 entries: blocks of 200 leave a short last one
        monkeypatch.setattr(training, "ADAM_BLOCK", 200)
        config = mixed_config(delta_lo=-1.0, delta_hi=1.0, delta_step=1.0)
        _, model = training.init_model(config, np.random.default_rng(1))
        # the block rows that training updates, or a C-ordered table in the checkpoint's order
        table = np.copy(model.rows) if layout != "contiguous" else np.ascontiguousarray(model.matrices)
        rng = np.random.default_rng(2)
        table[...] = rng.standard_normal(table.shape)
        params = {"motion": table, "w": rng.standard_normal((3, 2, 7))}
        start = {k: v.copy() for k, v in params.items()}
        state = AdamState.init(params)
        grads_seq = []
        for _ in range(4):
            grads = {}
            for k, p in params.items():
                # a gradient in another memory order than its parameter's is read, not written
                other = k == "motion" and layout == "mixed_layouts"
                g = np.empty(p.shape[::-1]).T if other else np.empty_like(p)
                g[...] = rng.standard_normal(p.shape) * (rng.random(p.shape) < 0.5)
                grads[k] = g
            grads_seq.append(grads)
            adam_step(params, grads, state, config)
        want, m, v = textbook_adam(start, grads_seq, config)
        for k in params:
            assert np.array_equal(params[k], want[k])
            assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])
        assert np.shares_memory(params["motion"], table)

    @pytest.mark.parametrize("which", ["parameter", "moment"])
    def test_arrays_that_are_not_c_ordered_raise(self, which):
        config = mixed_config()
        _, model = training.init_model(config, np.random.default_rng(1))
        # the (C, m, K, d, d) view of the rows, or the rows with a moment in another order
        params = {"motion": model.matrices if which == "parameter" else model.rows}
        state = AdamState.init(params)
        if which == "moment":
            state.m["motion"] = np.zeros(model.rows.shape[::-1]).T
        before = model.rows.copy()
        grads = {"motion": np.ones(params["motion"].shape)}
        with pytest.raises(ShapeError, match="C-ordered"):
            adam_step(params, grads, state, config)
        assert np.array_equal(model.rows, before)

    def test_training_keeps_the_table_in_storage_order(self, monkeypatch):
        seen = []
        real = training.adam_step

        def spy(params, grads, state, config):
            arrays = [a for k in params for a in (params[k], grads[k], state.m[k], state.v[k])]
            seen.append(all(a.flags.c_contiguous for a in arrays) and params["motion"].shape == grads["motion"].shape)
            return real(params, grads, state, config)

        monkeypatch.setattr(training, "adam_step", spy)
        pairs = gen_v1deform(synthetic_textures(2, (24, 24), seed=3), 4, DeformSpec(grid_m=3, lo=-1.5, hi=1.5, seed=4))
        _, model, _ = train_supervised(pairs, mixed_config(num_steps=2, batch_size=2))
        assert seen == [True, True]
        assert model.matrices.shape == (model.grid.num_candidates, len(model.offsets), 3, 2, 2)
        assert_held_as_rows(model)


class TestGradientLayouts:
    def test_checkpoint_layout_gradient_equals_storage_gradient(self):
        enc, model, batch, config = storage_problem()
        flat = MixedMotion(model.grid, model.offsets, np.ascontiguousarray(model.matrices))
        assert not np.shares_memory(flat.rows, model.rows)
        got, loss = grad_total(enc, model, batch, config)
        want, want_loss = grad_total(enc, flat, batch, config)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want.d_weights)
        assert np.array_equal(got.d_motion, want.d_motion)
        assert got.d_motion.shape == model.rows.shape and got.d_motion.flags.c_contiguous

    @pytest.mark.parametrize("layout", ["storage", "checkpoint"])
    def test_matrices_changed_in_place_are_read(self, layout):
        # finite-difference probes write model.matrices in place: nothing may cache the rows
        enc, model, batch, config = storage_problem(seed=1)
        if layout == "checkpoint":
            model = MixedMotion(model.grid, model.offsets, np.ascontiguousarray(model.matrices))
        bundle, before = grad_total(enc, model, batch, config)
        hit = model.grid.round_indices(batch[0][2][0])
        idx = (hit, 0, 1, 0, 1)
        assert table_view(bundle.d_motion, len(model.offsets))[idx] != 0
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
    Each chunk is one patch stack, laid out and encoded as `_group_gradient` lays it out and
    encodes it; the reconstruction term is the shared `_reconstruction`'s on its lattices, and
    the terms' code gradients add in `_group_gradient`'s order.  Each frame's residuals are
    weighted by its count in ``counts``."""
    imgs_t, imgs_t1, deltas = map(np.stack, (imgs_t, imgs_t1, deltas))  # the group's frames and fields
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

    lattice = encoder.grid.positions(*shape)
    n_lat = len(lattice)
    rec = training._reconstruction(encoder, shape, lam_rec, core._patch_indices(shape, lattice, p))
    off = lattice[:0]
    if rotation:
        pos = training.eval_positions(encoder, model, shape)
        uniq, inverse = core.support_centers(encoder, shape, pos, model.offsets)
        n, m = len(pos), inverse.shape[1]
        frames = max(1, training.CHUNK_BYTES // (8 * q * len(uniq)))
        table = table_view(d_motion, m)
        cols = block_layout(np.arange(table[0].size).reshape(1, -1, k, d, d)).ravel()
        lat_of = {c: i for i, c in enumerate(map(tuple, lattice.tolist()))}
        on = np.array([c in lat_of for c in map(tuple, uniq.tolist())])
        off = uniq[~on]
        row = np.where(on, [lat_of.get(c, 0) for c in map(tuple, uniq.tolist())], np.cumsum(~on) - 1)
        rows_x = np.array([lat_of[c] for c in map(tuple, pos.tolist())])

    for c in range(0, len(imgs_t), frames):
        ch_t, ch_t1, ch_d = imgs_t[c : c + frames], imgs_t1[c : c + frames], deltas[c : c + frames]
        ch_c = counts[c : c + frames]
        b = len(ch_t)
        lat = 2 * b * n_lat
        frames2 = np.concatenate([ch_t, ch_t1])
        a = np.concatenate([core.extract_patches(frames2, lattice, p).reshape(lat, q), core.extract_patches(ch_t, off, p).reshape(-1, q)])
        v = a @ w2.T
        g = np.zeros_like(v)
        if lam_rec > 0:
            loss += rec.stack(frames2, v[:lat], np.concatenate([ch_c, ch_c]), g[:lat], dw2, workspace)
        if rotation:
            # each support vector's row in the stack: on frame t's lattice, or among its centers off it
            frame = np.arange(b)[:, None, None]
            stack_rows = np.where(on[inverse], frame * n_lat + row[inverse], lat + frame * len(off) + row[inverse])  # (B, N, m)
            g_t, g_t1 = g[: lat // 2].reshape(b, n_lat, kd), g[lat // 2 : lat].reshape(b, n_lat, kd)
            v1 = v[lat // 2 : lat].reshape(b, n_lat, kd)[:, rows_x].reshape(b, n, k, d)
            right = np.moveaxis(v[stack_rows].reshape(b, n, m, k, d), 2, 3)  # (B, N, K, m, d)
            blocks = model.support_matrices(ch_d)
            pred = core.predict(blocks, right.reshape(b, n, k, -1))
            r = v1 - pred
            r_w = r * ch_c[:, None, None, None]
            loss += lam_rot * float(np.sum(r_w * r))
            d_pred = -2.0 * lam_rot * r_w
            if lam_ns > 0:
                v_x = v[: lat // 2].reshape(b, n_lat, kd)[:, rows_x].reshape(b, n, k, d)
                ns = np.sum(pred * pred, axis=3) - np.sum(v_x * v_x, axis=3)
                ns_w = ns * ch_c[:, None, None]
                loss += lam_ns * float(np.sum(ns_w * ns))
                d_pred = d_pred + 4.0 * lam_ns * ns_w[..., None] * pred
            mt_g = core.predict_adjoint(blocks, d_pred).reshape(b, n, k, m, d)
            place = (stack_rows[:, :, None, :, None] * k + np.arange(k)[:, None, None]) * d + np.arange(d)
            g += reference_scatter_rows((len(g), kd), 0, mt_g, place)
            g_t1[:, rows_x] += (2.0 * lam_rot * r_w).reshape(b, n, kd)
            if lam_ns > 0:
                g_t[:, rows_x] += (-4.0 * lam_ns * ns_w[..., None] * v_x).reshape(b, n, kd)
            g_m = (d_pred[..., None] * right.reshape(b, n, k, 1, -1)).reshape(b * n, -1)
            hit, cidx = np.unique(model.grid.round_indices(ch_d).ravel(), return_inverse=True)
            sums = reference_scatter_rows((len(hit), cols.size), cidx[:, None], g_m, cols)
            table[hit] += sums.reshape((len(hit),) + table.shape[1:])
        dw2 += g.T @ a
    if lam_rec > 0:
        rec.finish(dw2)
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

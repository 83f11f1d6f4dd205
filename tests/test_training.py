"""Gradient correctness (finite differences), Adam, training loops, checkpoints."""

from dataclasses import replace

import numpy as np
import pytest

from patchflow import cli, core, inference, training
from patchflow.core import (
    DisplacementField,
    DisplacementGrid,
    Encoder,
    MixedMotion,
    ParametricMotion,
    encode,
    support_offsets,
)
from patchflow.datagen import DeformSpec, SamplePair, gen_v1deform, synthetic_textures
from patchflow.errors import DataFormatError, ShapeError
from patchflow.inference import InferConfig, interpolate_frames
from patchflow.training import (
    AdamState,
    TrainConfig,
    UnsupervisedConfig,
    adam_step,
    batch_loss,
    eval_positions,
    grad_total,
    load_checkpoint,
    save_checkpoint,
    train_supervised,
    train_unsupervised,
)

from matrix_form import (
    ZeroSupportTable,
    block_layout,
    grid_alone,
    predicted_vectors,
    reconstruction_terms,
    rotation_loss,
    stack_scores,
    table_view,
    total_loss,
)

FD_STEP = 1e-5


def fd_gradient(loss_fn, array, coords):
    out = []
    for idx in coords:
        orig = array[idx]
        array[idx] = orig + FD_STEP
        plus = loss_fn()
        array[idx] = orig - FD_STEP
        minus = loss_fn()
        array[idx] = orig
        out.append((plus - minus) / (2 * FD_STEP))
    return np.array(out)


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


def small_problem(variant, seed=0, norm_stability=0.0):
    rng = np.random.default_rng(seed)
    config = TrainConfig(
        motion_variant=variant,
        num_blocks=3,
        block_dim=2,
        patch_size=8,
        stride=4,
        delta_lo=-2.0,
        delta_hi=2.0,
        delta_step=0.5,
        support_radius=2,
        support_step=2,
        weight_norm_stability=norm_stability,
        batch_size=2,
    )
    enc = Encoder.random(3, 2, 8, 4, rng=rng, scale=0.25)
    grid = config.displacement_grid
    if variant == "nonparametric":
        model = ZeroSupportTable(grid, np.eye(2) + 0.1 * rng.standard_normal((grid.num_candidates, 3, 2, 2)))
    elif variant == "mixed":
        off = support_offsets(2, 2)
        model = MixedMotion(grid, off, 0.2 * rng.standard_normal((grid.num_candidates, len(off), 3, 2, 2)))
    else:
        model = ParametricMotion(0.1 * rng.standard_normal((5, 3, 2, 2)))
    batch = []
    pos = eval_positions(enc, model, (24, 24))
    for _ in range(2):
        img_t = rng.random((24, 24))
        img_t1 = rng.random((24, 24))
        if variant == "parametric":
            deltas = rng.uniform(-2, 2, (len(pos), 2))
        else:
            deltas = grid.candidates()[rng.integers(0, grid.num_candidates, len(pos))]
        batch.append((img_t, img_t1, deltas))
    return enc, model, batch, config


class TestGradients:
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_weights_match_finite_differences(self, variant):
        enc, model, batch, config = small_problem(variant)
        bundle, _ = grad_total(enc, model, batch, config)
        rng = np.random.default_rng(1)
        coords = [tuple(rng.integers(0, s) for s in enc.weights.shape) for _ in range(10)]
        loss_fn = lambda: total_loss(enc, model, batch, config)
        fd = fd_gradient(loss_fn, enc.weights, coords)
        analytic = np.array([bundle.d_weights[c] for c in coords])
        assert np.all(rel_err(analytic, fd) < 1e-4)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_motion_matches_finite_differences(self, variant):
        enc, model, batch, config = small_problem(variant)
        bundle, _ = grad_total(enc, model, batch, config)
        params = model.coeffs if variant == "parametric" else model.matrices
        rng = np.random.default_rng(2)
        if variant == "parametric":
            coords = [tuple(rng.integers(0, s) for s in params.shape) for _ in range(10)]
        else:
            # probe candidates that actually occur in the batch
            grid = config.displacement_grid
            used = np.unique(
                np.concatenate([grid.round_indices(b[2]) for b in batch])
            )
            coords = []
            for _ in range(10):
                c = int(used[rng.integers(0, len(used))])
                coords.append((c,) + tuple(rng.integers(0, s) for s in params.shape[1:]))
        loss_fn = lambda: total_loss(enc, model, batch, config)
        fd = fd_gradient(loss_fn, params, coords)
        d_motion = bundle.d_motion if variant == "parametric" else table_view(bundle.d_motion, len(model.offsets))
        analytic = np.array([d_motion[c] for c in coords])
        assert np.all(rel_err(analytic, fd) < 1e-4)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_norm_stability_gradient(self, variant):
        enc, model, batch, config = small_problem(variant, norm_stability=0.05)
        bundle, _ = grad_total(enc, model, batch, config)
        rng = np.random.default_rng(3)
        coords = [tuple(rng.integers(0, s) for s in enc.weights.shape) for _ in range(5)]
        loss_fn = lambda: total_loss(enc, model, batch, config)
        fd = fd_gradient(loss_fn, enc.weights, coords)
        analytic = np.array([bundle.d_weights[c] for c in coords])
        assert np.all(rel_err(analytic, fd) < 1e-4)

    def test_zero_everything_zero_gradient(self):
        config = TrainConfig(
            motion_variant="parametric", num_blocks=2, block_dim=2, patch_size=8, stride=8
        )
        enc = Encoder(np.zeros((2, 2, 64)), 8, 8)
        model = ParametricMotion.zeros(2, 2)
        pos = eval_positions(enc, model, (16, 16))
        batch = [(np.zeros((16, 16)), np.zeros((16, 16)), np.zeros((len(pos), 2)))]
        bundle, loss = grad_total(enc, model, batch, config)
        assert loss == 0.0
        assert np.all(bundle.d_weights == 0)
        assert np.all(bundle.d_motion == 0)

    def test_no_rotation_weight_zero_motion_gradient(self):
        enc, model, batch, config = small_problem("nonparametric")
        config = TrainConfig(**{**config.__dict__, "weight_rotation": 0.0})
        bundle, _ = grad_total(enc, model, batch, config)
        assert np.all(bundle.d_motion == 0)

    def test_untouched_candidates_zero_gradient(self):
        enc, model, batch, config = small_problem("nonparametric")
        bundle, _ = grad_total(enc, model, batch, config)
        grid = config.displacement_grid
        used = set(np.concatenate([grid.round_indices(b[2]) for b in batch]).tolist())
        unused = [i for i in range(grid.num_candidates) if i not in used]
        assert unused
        assert np.all(bundle.d_motion[unused] == 0)


class TestConsumersAgree:
    """Training, the rotation loss and grid scoring read one forward model."""

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_total_loss_equals_rotation_loss(self, variant):
        enc, model, batch, config = small_problem(variant)
        config = TrainConfig(**{**config.__dict__, "weight_reconstruction": 0.0})
        grid = config.displacement_grid
        img_t, img_t1, deltas = batch[0]
        deltas = grid.candidates()[grid.round_indices(deltas)]  # on-grid for every variant
        pos = eval_positions(enc, model, img_t.shape)
        want = rotation_loss(enc, model, img_t, img_t1, DisplacementField(pos, deltas))
        got = total_loss(enc, model, [(img_t, img_t1, deltas)], config)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_grid_scores_equal_prediction_residuals(self, variant):
        enc, model, batch, _ = small_problem(variant)
        img_t, img_t1, deltas = batch[0]
        pos = eval_positions(enc, model, img_t.shape)
        v1 = encode(enc, img_t1, pos).vectors
        scores = stack_scores(enc, model, img_t[None], v1[None], pos)[0]
        given = scores[np.arange(len(pos)), model.grid.round_indices(deltas)]
        resid = v1 - predicted_vectors(enc, model, img_t, pos, deltas)
        np.testing.assert_allclose(given, np.sum(resid * resid, axis=(1, 2)), rtol=1e-10)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_every_grid_column_is_a_prediction_residual(self, variant, clamp):
        enc, model, batch, _ = small_problem(variant)
        img_t, img_t1, _ = batch[0]
        # clamped, as interpolation scores it: the full lattice, supports clipped at the border
        pos = enc.grid.positions(*img_t.shape) if clamp else eval_positions(enc, model, img_t.shape)
        v1 = encode(enc, img_t1, pos).vectors
        scores = stack_scores(enc, model, img_t[None], v1[None], pos, clamp)[0]
        assert scores.shape == (len(pos), model.grid.num_candidates)
        for c, delta in enumerate(model.grid.candidates()):
            resid = v1 - predicted_vectors(enc, model, img_t, pos, np.tile(delta, (len(pos), 1)), clamp)
            np.testing.assert_allclose(scores[:, c], np.sum(resid * resid, axis=(1, 2)), rtol=1e-10)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_replaced_table_scores_with_its_own_matrices(self, variant):
        enc, model, batch, _ = small_problem(variant)
        img_t, img_t1, _ = batch[0]
        pos = eval_positions(enc, model, img_t.shape)
        v1 = encode(enc, img_t1, pos).vectors
        before = stack_scores(enc, model, img_t[None], v1[None], pos)
        other = np.random.default_rng(9).standard_normal(model.matrices.shape)
        fresh = MixedMotion(model.grid, model.offsets, other)
        got = stack_scores(enc, replace(model, matrices=other), img_t[None], v1[None], pos)
        want = stack_scores(enc, fresh, img_t[None], v1[None], pos)
        assert np.array_equal(got, want)
        assert not np.allclose(got, before)

    def test_table_laid_out_once_per_call(self, monkeypatch):
        enc, model, batch, _ = small_problem("mixed")
        seen = []
        real = inference._score_pairs
        monkeypatch.setattr(inference, "_score_pairs", lambda blocks, *args: seen.append(blocks) or real(blocks, *args))
        pairs = [(img_t, img_t1) for img_t, img_t1, _ in batch]
        inference.infer_pairs(enc, model, pairs, InferConfig(margin=0), threads=2)
        stacks, seen[:] = list(seen), []
        interpolate_frames(enc, model, *pairs[0], max_steps=2, stop_thresh=0.0)
        # every stack of the call, and every step, scores on the one layout of the rows that the call made
        for calls, count in ((stacks, 2), (seen, 2)):
            assert len(calls) == count and all(blocks is calls[0] for blocks in calls)
            assert np.array_equal(calls[0], block_layout(model.matrices))

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_table_written_in_place_scores_with_its_new_matrices(self, variant):
        enc, model, batch, _ = small_problem(variant)
        img_t, img_t1, _ = batch[0]
        cfg = InferConfig(margin=0)
        before = grid_alone(enc, model, img_t, img_t1, cfg).vectors
        model.matrices[...] = np.random.default_rng(9).standard_normal(model.matrices.shape)
        got = grid_alone(enc, model, img_t, img_t1, cfg).vectors
        want = grid_alone(enc, MixedMotion(model.grid, model.offsets, model.matrices.copy()), img_t, img_t1, cfg).vectors
        assert np.array_equal(got, want) and not np.array_equal(got, before)


class TestAdam:
    def make(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.init(params)
        config = TrainConfig(learning_rate=0.01)
        return params, state, config

    def test_zero_gradient_no_change(self):
        params, state, config = self.make()
        before = params["w"].copy()
        adam_step(params, {"w": np.zeros(3)}, state, config)
        assert np.array_equal(params["w"], before)

    def test_first_step_closed_form(self):
        params, state, config = self.make()
        g = np.array([0.5, -0.25, 1e-12])
        before = params["w"].copy()
        adam_step(params, {"w": g}, state, config)
        want = before - config.learning_rate * g / (np.abs(g) + config.eps)
        np.testing.assert_allclose(params["w"], want, rtol=1e-12)

    def test_two_identical_steps_match_recursion(self):
        params, state, config = self.make()
        g = np.array([0.5, -0.25, 2.0])
        adam_step(params, {"w": g}, state, config)
        adam_step(params, {"w": g}, state, config)
        # hand recursion
        b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.eps
        w = np.array([1.0, -2.0, 3.0])
        m = v = 0.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
        np.testing.assert_allclose(params["w"], w, rtol=1e-12)

    def test_steps_match_textbook_bit_for_bit(self):
        rng = np.random.default_rng(3)
        params = {"w": rng.standard_normal((7, 3, 2, 2)), "u": rng.standard_normal(5)}
        state = AdamState.init(params)
        config = TrainConfig(learning_rate=0.01)
        b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.eps
        want = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 6):
            # sparse gradients, as a table gets them
            grads = {k: rng.standard_normal(p.shape) * (rng.random(p.shape) < 0.5) for k, p in params.items()}
            adam_step(params, grads, state, config)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                want[k] = want[k] - lr * (m[k] / (1 - b1 ** t)) / (np.sqrt(v[k] / (1 - b2 ** t)) + eps)
                assert np.array_equal(params[k], want[k])
                assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])


def desk_dataset(n_pairs, shape=(64, 64), lo=-3.0, hi=3.0, seed=0, grid_m=4):
    sources = synthetic_textures(4, shape, seed=seed)
    return gen_v1deform(sources, n_pairs, DeformSpec(grid_m=grid_m, lo=lo, hi=hi, seed=seed + 1))


class TestTrainSupervised:
    def test_static_pair_keeps_parametric_motion_zero(self):
        img = synthetic_textures(1, (32, 32), seed=4)[0]
        pair = SamplePair(img, img, np.zeros((32, 32, 2)))
        config = TrainConfig(
            motion_variant="parametric",
            num_blocks=3,
            block_dim=2,
            patch_size=8,
            stride=4,
            delta_lo=-3,
            delta_hi=3,
            num_steps=20,
            batch_size=1,
            rng_seed=5,
        )
        enc, model, history = train_supervised([pair], config)
        assert np.all(model.coeffs == 0)

    def test_loss_decreases_on_small_batch(self):
        pairs = desk_dataset(8, seed=6)
        config = TrainConfig(
            motion_variant="nonparametric",
            num_blocks=6,
            block_dim=2,
            delta_lo=-6,
            delta_hi=6,
            num_steps=200,
            batch_size=8,
            rng_seed=7,
            learning_rate=0.002,
        )
        enc, model, history = train_supervised(pairs, config)
        from patchflow.training import prepare_dataset, init_model

        rng = np.random.default_rng(config.rng_seed)
        enc0, model0 = init_model(config, rng)
        prepared = prepare_dataset(pairs, enc0, model0)
        loss0 = total_loss(enc0, model0, prepared, config)
        loss1 = total_loss(enc, model, prepared, config)
        assert loss1 < loss0

    def test_seeded_rerun_bit_identical(self):
        pairs = desk_dataset(4, shape=(32, 32), seed=8)
        config = TrainConfig(
            motion_variant="parametric",
            num_blocks=3,
            block_dim=2,
            patch_size=8,
            stride=8,
            num_steps=30,
            batch_size=2,
            rng_seed=9,
        )
        enc_a, model_a, hist_a = train_supervised(pairs, config)
        enc_b, model_b, hist_b = train_supervised(pairs, config)
        assert hist_a == hist_b
        assert np.array_equal(enc_a.weights, enc_b.weights)
        assert np.array_equal(model_a.coeffs, model_b.coeffs)

    def test_untouched_candidates_keep_initialization(self):
        # constant integer fields touch few candidates
        src = synthetic_textures(2, (32, 32), seed=10)
        pairs = []
        from patchflow.datagen import warp

        for i, shift in enumerate([(1.0, 0.0), (0.0, -1.0)]):
            fld = np.zeros((32, 32, 2))
            fld[..., 0], fld[..., 1] = shift
            pairs.append(SamplePair(src[i], warp(src[i], fld), fld))
        config = TrainConfig(
            motion_variant="nonparametric",
            num_blocks=3,
            block_dim=2,
            patch_size=8,
            stride=8,
            delta_lo=-2,
            delta_hi=2,
            delta_step=1.0,
            num_steps=25,
            batch_size=2,
            rng_seed=11,
        )
        enc, model, _ = train_supervised(pairs, config)
        grid = config.displacement_grid
        touched = {grid.index_of((1.0, 0.0)), grid.index_of((0.0, -1.0))}
        eye = np.eye(2)
        for c in range(grid.num_candidates):
            is_identity = np.array_equal(model.matrices[c, 0], np.broadcast_to(eye, (3, 2, 2)))
            assert is_identity == (c not in touched)

    def test_identity_init_rotation_loss_equals_difference_energy(self):
        rng = np.random.default_rng(12)
        img_t = rng.random((32, 32))
        img_t1 = rng.random((32, 32))
        config = TrainConfig(
            motion_variant="nonparametric",
            num_blocks=4,
            block_dim=2,
            patch_size=8,
            stride=8,
            weight_reconstruction=0.0,
        )
        enc = Encoder.random(4, 2, 8, 8, rng=13)
        model = ZeroSupportTable.identity(config.displacement_grid, 4, 2)
        pos = eval_positions(enc, model, (32, 32))
        deltas = np.zeros((len(pos), 2))
        loss = total_loss(enc, model, [(img_t, img_t1, deltas)], config)
        want = 0.0
        for r0, c0 in pos - 4:  # the 8x8 window of each position
            diff = (img_t1[r0 : r0 + 8, c0 : c0 + 8] - img_t[r0 : r0 + 8, c0 : c0 + 8]).ravel()
            for k in range(4):
                r = enc.weights[k] @ diff
                want += float(r @ r)
        assert loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises_with_history(self):
        from patchflow.errors import TrainingDiverged

        pairs = desk_dataset(2, shape=(32, 32), seed=14)
        config = TrainConfig(
            motion_variant="nonparametric",
            num_blocks=3,
            block_dim=2,
            patch_size=8,
            stride=8,
            num_steps=10,
            batch_size=2,
            learning_rate=1e80,  # overflows the quadratic losses immediately
            rng_seed=15,
        )
        with pytest.raises(TrainingDiverged) as err:
            train_supervised(pairs, config)
        assert len(err.value.history) > 0


class TestUnsupervised:
    def test_static_sequence_fields_near_zero(self):
        frame = synthetic_textures(1, (48, 48), seed=16)[0]
        seq = [frame] * 4
        tcfg = TrainConfig(
            motion_variant="parametric",
            num_blocks=4,
            block_dim=2,
            patch_size=8,
            stride=8,
            delta_lo=-3,
            delta_hi=3,
            batch_size=8,
            rng_seed=17,
            learning_rate=0.002,
        )
        cfg = UnsupervisedConfig(
            train=tcfg,
            init_pairs=16,
            init_steps=60,
            steps_per_round=20,
            rounds=2,
            deform_lo=-1.5,
            deform_hi=1.5,
        )
        enc, model, diag = train_unsupervised([seq], cfg)
        mags = [np.linalg.norm(f, axis=1).mean() for f in diag["fields"]]
        assert float(np.mean(mags)) < 0.1
        assert diag["objectives"][-1] <= diag["objectives"][0] * 1.01

    def test_refinement_is_truncated_gradient_descent(self):
        """Stages 2 and 3 equal a backtracking gradient loop on the matrix form:
        their step rule and truncation are what scene EPE depends on."""
        from patchflow.datagen import warp
        from matrix_form import taylor_terms as _taylor_terms
        from patchflow.core import _smoothness_value_grad
        from patchflow.inference import infer_positions

        frames = synthetic_textures(2, (40, 40), seed=30)
        seqs = [[f, warp(f, np.full(f.shape + (2,), shift))] for f, shift in zip(frames, (0.7, -1.1))]
        tcfg = TrainConfig(
            motion_variant="parametric", num_blocks=3, block_dim=2, patch_size=8, stride=8,
            delta_lo=-3, delta_hi=3, batch_size=4, rng_seed=31, learning_rate=0.002,
        )
        cfg = UnsupervisedConfig(
            train=tcfg, init_pairs=8, init_steps=15, steps_per_round=5, rounds=0,
            infer_iters=25, field_tol=0.0,
        )

        def reference(enc, model, img_t, img_t1, init):
            pos = infer_positions(enc, model, img_t.shape, margin=0)
            grid_shape = (len(np.unique(pos[:, 0])), len(np.unique(pos[:, 1])))
            v0 = encode(enc, img_t, pos).vectors
            v1 = encode(enc, img_t1, pos).vectors

            def objective_grad(d):
                m, dm1, dm2 = _taylor_terms(model, d)
                r = v1 - np.einsum("nkde,nke->nkd", m, v0)
                p1 = np.einsum("nkde,nke->nkd", dm1, v0)
                p2 = np.einsum("nkde,nke->nkd", dm2, v0)
                grad = -2.0 * np.stack([np.sum(r * p1, axis=(1, 2)), np.sum(r * p2, axis=(1, 2))], axis=1)
                sval, sgrad = _smoothness_value_grad(d, grid_shape)
                lam = cfg.smoothness_weight
                return float(np.sum(r * r)) + lam * sval, grad + lam * sgrad

            deltas = init
            value, grad = objective_grad(deltas)
            for _ in range(cfg.infer_iters):
                step = cfg.infer_step
                for _ in range(40):
                    trial = deltas - step * grad
                    if objective_grad(trial)[0] < value:
                        break
                    step *= 0.5
                else:
                    break
                mean_update = float(np.mean(np.linalg.norm(step * grad, axis=1)))
                deltas = trial
                value, grad = objective_grad(deltas)
                if mean_update < InferConfig().tol:
                    break
            return deltas

        # stage 2 alone: zero starts with the stage-1 model
        enc0, model0, diag0 = train_unsupervised(seqs, cfg)
        stage2 = diag0["fields"]
        for (a, b), got in zip(seqs, stage2):
            want = reference(enc0, model0, a, b, np.zeros_like(got))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # one round of stage 3: warm starts from the stage-2 fields
        enc1, model1, diag1 = train_unsupervised(seqs, replace(cfg, rounds=1))
        for (a, b), start, got in zip(seqs, stage2, diag1["fields"]):
            want = reference(enc1, model1, a, b, start)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert max(np.abs(f).max() for f in diag1["fields"]) > 0.05  # the fields moved

    def test_rejects_non_parametric(self):
        tcfg = TrainConfig(motion_variant="nonparametric")
        with pytest.raises(ValueError):
            UnsupervisedConfig(train=tcfg)


class TestCheckpoint:
    def roundtrip(self, tmp_path, model, encoder):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, encoder, model, extra={"note": "test"})
        enc2, model2, header = load_checkpoint(path)
        assert np.array_equal(enc2.weights, encoder.weights)
        assert header["extra"]["note"] == "test"
        return model2

    def test_roundtrip_nonparametric(self, tmp_path):
        enc = Encoder.random(3, 2, 8, 4, rng=18)
        grid = DisplacementGrid(-2, 2, 1.0)
        model = ZeroSupportTable(grid, np.random.default_rng(19).standard_normal((25, 3, 2, 2)))
        model2 = self.roundtrip(tmp_path, model, enc)
        assert np.array_equal(model2.matrices, model.matrices)
        assert model2.grid == grid

    def test_roundtrip_mixed(self, tmp_path):
        enc = Encoder.random(2, 2, 8, 4, rng=20)
        grid = DisplacementGrid(-1, 1, 1.0)
        off = support_offsets(2, 2)
        model = MixedMotion(grid, off, np.random.default_rng(21).standard_normal((9, len(off), 2, 2, 2)))
        model2 = self.roundtrip(tmp_path, model, enc)
        assert np.array_equal(model2.matrices, model.matrices)
        assert np.array_equal(model2.offsets, off)

    def test_roundtrip_parametric(self, tmp_path):
        enc = Encoder.random(2, 2, 8, 4, rng=22)
        model = ParametricMotion(np.random.default_rng(23).standard_normal((5, 2, 2, 2)))
        model2 = self.roundtrip(tmp_path, model, enc)
        assert np.array_equal(model2.coeffs, model.coeffs)

    def test_save_is_deterministic(self, tmp_path):
        enc = Encoder.random(2, 2, 8, 4, rng=24)
        model = ParametricMotion.zeros(2, 2)
        save_checkpoint(tmp_path / "a.ckpt", enc, model)
        save_checkpoint(tmp_path / "b.ckpt", enc, model)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_corrupt_header(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"not json\n\x00\x01")
        with pytest.raises(DataFormatError):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_version_mismatch(self, tmp_path):
        enc = Encoder.random(2, 2, 8, 4, rng=25)
        model = ParametricMotion.zeros(2, 2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, enc, model)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        import json

        header = json.loads(raw[:nl])
        header["version"] = 99
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_truncated_block(self, tmp_path):
        enc = Encoder.random(2, 2, 8, 4, rng=26)
        model = ParametricMotion.zeros(2, 2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, enc, model)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# chunked gradient against the unchunked reference


def reference_scatter_rows(n_rows, rows, values):
    """`_scatter_rows` before chunking: whole rows of ``values`` into ``n_rows`` bins."""
    block = int(np.prod(values.shape[1:], dtype=np.int64))
    flat_idx = (rows.astype(np.int64)[:, None] * block + np.arange(block)).ravel()
    out = np.bincount(flat_idx, weights=values.reshape(-1), minlength=n_rows * block)
    return out.reshape((n_rows,) + values.shape[1:])


def reference_group_gradient(encoder, model, imgs_t, imgs_t1, deltas, counts, config, d_weights, d_motion, workspace=None):
    """`_group_gradient` before chunking: the whole group as one patch stack (the lattice of
    frames t, of frames t+1, then frame t's support centers off the lattice, each found by a
    dictionary lookup) encoded by one product, the matrices laid out a second time for the
    adjoint, the motion gradient as a 6-D outer product, the support gradient summed by
    `np.bincount` into the stack's rows, every array made afresh (``workspace`` unused), and
    the reconstruction term of the shared `_reconstruction` on the two lattices.  The terms'
    code gradients add into one array in `_group_gradient`'s order, and the weight gradient
    gains that array's product with the stack.  Each frame's residuals are weighted by its
    count in ``counts``."""
    imgs_t, imgs_t1, deltas = map(np.stack, (imgs_t, imgs_t1, deltas))  # the group's frames and fields
    w = encoder.weights
    k, d, q = w.shape
    kd = k * d
    w2 = w.reshape(kd, q)
    p = encoder.patch_size
    shape = imgs_t.shape[1:]
    b = imgs_t.shape[0]
    lam_rot = config.weight_rotation
    lam_rec = config.weight_reconstruction
    lam_ns = config.weight_norm_stability
    loss = 0.0
    dw2 = d_weights.reshape(kd, q)

    lattice = encoder.grid.positions(*shape)
    lat = 2 * b * len(lattice)
    row_of = {c: i for i, c in enumerate(map(tuple, lattice.tolist()))}  # a frame's lattice rows
    frames = np.concatenate([imgs_t, imgs_t1])
    stacks = [core.extract_patches(frames, lattice, p).reshape(lat, q)]
    if lam_rot > 0 or lam_ns > 0:
        pos = eval_positions(encoder, model, shape)
        n = len(pos)
        uniq, inverse = core.support_centers(encoder, shape, pos, model.offsets)
        off = [c for c in map(tuple, uniq.tolist()) if c not in row_of]
        off_row = {c: i for i, c in enumerate(off)}
        if off:
            stacks.append(core.extract_patches(imgs_t, np.array(off), p).reshape(-1, q))
        # each frame's support centers' rows in the stack
        center_rows = np.array([
            [f * len(lattice) + row_of[c] if c in row_of else lat + f * len(off) + off_row[c] for c in map(tuple, uniq.tolist())]
            for f in range(b)
        ])
        pos_rows = [row_of[c] for c in map(tuple, pos.tolist())]
    a = np.concatenate(stacks)
    v = a @ w2.T
    g = np.zeros_like(v)

    if lam_rec > 0:
        rec = training._reconstruction(encoder, shape, lam_rec, core._patch_indices(shape, lattice, p))
        loss += rec.stack(frames, v[:lat], np.concatenate([counts, counts]), g[:lat], dw2, training.Workspace())

    if lam_rot > 0 or lam_ns > 0:
        v_t, v_t1 = v[: lat // 2].reshape(b, -1, kd), v[lat // 2 : lat].reshape(b, -1, kd)
        v1 = v_t1[:, pos_rows].reshape(b, n, k, d)
        voff = v[center_rows][:, inverse].reshape(b, n, -1, k, d)  # (B, N, m, K, d)
        m_off = voff.shape[2]
        blocks = model.support_matrices(deltas)  # (B, N, K, d, m*d)
        right = np.ascontiguousarray(np.moveaxis(voff, 2, 3)).reshape(b, n, k, -1)
        pred = core.predict(blocks, right)

        r = v1 - pred
        r_w = r * counts[:, None, None, None]
        loss += lam_rot * float(np.sum(r_w * r))
        d_pred = -2.0 * lam_rot * r_w
        if lam_ns > 0:
            v_x = v_t[:, pos_rows].reshape(b, n, k, d)
            ns = np.sum(pred * pred, axis=3) - np.sum(v_x * v_x, axis=3)  # (B, N, K)
            ns_w = ns * counts[:, None, None]
            loss += lam_ns * float(np.sum(ns_w * ns))
            d_pred = d_pred + 4.0 * lam_ns * ns_w[..., None] * pred

        # each offset's M^T as d rows of one (m*d, d) block: (B, N, K, m*d, d)
        blocks_t = np.moveaxis(blocks.reshape(b, n, k, d, m_off, d), 3, 5).reshape(b, n, k, -1, d)
        mt_g = core.predict(blocks_t, d_pred)
        mt_g = np.swapaxes(mt_g.reshape(b, n, k, m_off, d), 2, 3)  # (B, N, m, K, d)
        g += reference_scatter_rows(len(g), center_rows[:, inverse].ravel(), mt_g.reshape(-1, kd))
        g[lat // 2 : lat].reshape(b, -1, kd)[:, pos_rows] += (2.0 * lam_rot * r_w).reshape(b, n, kd)
        if lam_ns > 0:
            g[: lat // 2].reshape(b, -1, kd)[:, pos_rows] += (-4.0 * lam_ns * ns_w[..., None] * v_x).reshape(b, n, kd)
        g_m = (d_pred[:, :, None, :, :, None] * voff[:, :, :, :, None, :]).reshape(b * n, -1)
        if isinstance(model, ParametricMotion):
            basis = core.delta_basis(deltas).reshape(b * n, 5)
            d_motion += (basis.T @ g_m).reshape(d_motion.shape)
        else:
            cidx = model.grid.round_indices(deltas).ravel()
            table = table_view(d_motion, m_off)
            table += reference_scatter_rows(len(d_motion), cidx, g_m).reshape(table.shape)

    dw2 += g.T @ a
    if lam_rec > 0:
        rec.finish(dw2)
    return loss


def reference_grad_total(monkeypatch, enc, model, batch, config, counts=None):
    with monkeypatch.context() as patch:
        patch.setattr(training, "_group_gradient", reference_group_gradient)
        return grad_total(enc, model, batch, config, counts=counts)


def support_stack_bytes(enc, model, shape):
    """Bytes of one frame's support patch stack, the unit of the chunk budget."""
    pos = eval_positions(enc, model, shape)
    uniq, _ = core.support_centers(enc, shape, pos, model.offsets)
    return 8 * enc.patch_size ** 2 * len(uniq)


# frames per image size and frames per chunk of each batch layout
CHUNK_CASES = {
    "one_chunk": ([(24, 24)] * 3, None),
    "two_chunks": ([(24, 24)] * 4, 2),
    "uneven_chunks": ([(24, 24)] * 5, 2),
    "two_sizes": ([(24, 24), (32, 32), (24, 24), (32, 32), (24, 24)], 2),
}


def chunk_problem(variant, shapes, norm_stability, seed=0):
    enc, model, _, config = small_problem(variant, seed, norm_stability)
    rng = np.random.default_rng(seed + 100)
    batch = []
    for shape in shapes:
        pos = eval_positions(enc, model, shape)
        if variant == "parametric":
            deltas = rng.uniform(-2, 2, (len(pos), 2))
        else:
            grid = config.displacement_grid
            deltas = grid.candidates()[rng.integers(0, grid.num_candidates, len(pos))]
        batch.append((rng.random(shape), rng.random(shape), deltas))
    return enc, model, batch, config


class TestChunkedGradient:
    """`_group_gradient` runs a group in chunks on one block layout of its matrices."""

    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_matches_reference(self, monkeypatch, variant, norm_stability, case):
        shapes, per_chunk = CHUNK_CASES[case]
        enc, model, batch, config = chunk_problem(variant, shapes, norm_stability)
        if per_chunk is not None:
            budget = per_chunk * support_stack_bytes(enc, model, shapes[0])
            monkeypatch.setattr(training, "CHUNK_BYTES", budget)
        want, want_loss = reference_grad_total(monkeypatch, enc, model, batch, config)
        got, loss = grad_total(enc, model, batch, config)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for a, b in ((got.d_weights, want.d_weights), (got.d_motion, want.d_motion)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    def test_chunks_split_the_group(self, monkeypatch):
        enc, model, batch, config = chunk_problem("mixed", [(24, 24)] * 5, 0.0)
        monkeypatch.setattr(training, "CHUNK_BYTES", 2 * support_stack_bytes(enc, model, (24, 24)))
        sizes, stacks = [], []
        real = training.gather_at
        monkeypatch.setattr(training, "gather_at", lambda imgs, idx, **kw: sizes.append(len(imgs)) or real(imgs, idx, **kw))
        stack = training._CodeReconstruction.stack
        monkeypatch.setattr(training._CodeReconstruction, "stack", lambda rec, imgs, *args: stacks.append(len(imgs)) or stack(rec, imgs, *args))
        grad_total(enc, model, batch, config)
        # chunks of 2, 2 and 1 frame pairs, two gathers each: both frames' lattices, then frame
        # t's support centers off the lattice (the code-space reconstruction term gathers no
        # error patches); and one reconstruction call each, on both frames' lattice codes
        assert training._code_space(3, 2, 8, 4)
        assert sizes == [4, 2, 4, 2, 2, 1]
        assert stacks == [4, 4, 2]

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_reused_buffers_hold_no_stale_rows(self, monkeypatch, variant):
        # one workspace through a 24x24 batch, a 32x32 one, then a 24x24 one whose
        # last chunk is short; each call must equal a call on fresh buffers
        enc, model, batch, config = chunk_problem(variant, [(24, 24)] * 5, 0.05)
        _, _, batch32, _ = chunk_problem(variant, [(32, 32)] * 3, 0.05)
        monkeypatch.setattr(training, "CHUNK_BYTES", 2 * support_stack_bytes(enc, model, (24, 24)))
        workspace = training.Workspace()
        for part in (batch[:4], batch32, [(b, a, d) for a, b, d in batch]):
            got, loss = grad_total(enc, model, part, config, workspace)
            want, want_loss = grad_total(enc, model, part, config)
            assert loss == want_loss
            assert np.array_equal(got.d_weights, want.d_weights)
            assert np.array_equal(got.d_motion, want.d_motion)

    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "parametric"])
    def test_single_chunk_bit_for_bit(self, monkeypatch, variant, norm_stability):
        enc, model, batch, config = chunk_problem(variant, [(24, 24), (32, 32), (24, 24)], norm_stability)
        want, want_loss = reference_grad_total(monkeypatch, enc, model, batch, config)
        got, loss = grad_total(enc, model, batch, config)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want.d_weights)
        assert np.array_equal(got.d_motion, want.d_motion)

    @pytest.mark.parametrize("variant", ["nonparametric", "parametric"])
    def test_desk_batch_is_one_chunk_bit_for_bit(self, monkeypatch, variant):
        config = TrainConfig(motion_variant=variant, num_blocks=10, block_dim=2, batch_size=32)
        enc, model = training.init_model(config, np.random.default_rng(0))
        assert 32 * support_stack_bytes(enc, model, (64, 64)) <= training.CHUNK_BYTES
        pairs = desk_dataset(32, seed=5)
        prepared = training.prepare_dataset(pairs, enc, model)
        want, want_loss = reference_grad_total(monkeypatch, enc, model, prepared, config)
        got, loss = grad_total(enc, model, prepared, config)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want.d_weights)
        assert np.array_equal(got.d_motion, want.d_motion)

    def test_desk_mixed_step_memory_bounded(self):
        # a desk mixed batch of 32 frames gathers a 29 MB support patch stack at
        # once unchunked, and peaked at 74.5 MB traced in one grad_total
        import tracemalloc

        config = TrainConfig(motion_variant="mixed", num_blocks=10, block_dim=2, batch_size=32)
        enc, model = training.init_model(config, np.random.default_rng(0))
        pairs = desk_dataset(32, seed=6)
        prepared = training.prepare_dataset(pairs, enc, model)
        tracemalloc.start()
        try:
            grad_total(enc, model, prepared, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestOneCodeGradient:
    """Every term puts its gradient in the codes into one buffer per chunk: the terms together
    give the sum of each term alone."""

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_all_terms_are_the_sum_of_each_alone(self, monkeypatch, variant):
        # chunks of two frames, two frame sizes and repeated draws; the rotation target sits at
        # frame t+1's evaluation positions, norm stability at frame t's, the reconstruction
        # term at both lattices and the adjoint at the support vectors
        shapes, per_chunk = CHUNK_CASES["two_sizes"]
        enc, model, batch, config = chunk_problem(variant, shapes, 0.05)
        monkeypatch.setattr(training, "CHUNK_BYTES", per_chunk * support_stack_bytes(enc, model, shapes[0]))
        counts = REPEAT_COUNTS[: len(batch)]
        got, loss = grad_total(enc, model, batch, config, counts=counts)
        alone = [
            grad_total(enc, model, batch, replace(config, weight_rotation=rot, weight_reconstruction=rec, weight_norm_stability=ns), counts=counts)
            for rot, rec, ns in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.05))
        ]
        want_loss = sum(part_loss for _, part_loss in alone)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for name in ("d_weights", "d_motion"):
            want = sum(getattr(part, name) for part, _ in alone)
            np.testing.assert_allclose(getattr(got, name), want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# the reconstruction term: code space against the canvases


# (patch size, stride, frame shape): stride = p, p = 2·stride, and p % stride != 0;
# each shape leaves pixels on its right or bottom border outside every patch, and
# "one_row" has a lattice one patch high, so shifts along the rows find no partner
RECONSTRUCTION_GEOMETRIES = {
    "stride_p": (8, 8, (26, 27)),
    "half_overlap": (8, 4, (27, 25)),
    "uneven": (8, 3, (24, 27)),
    "one_row": (8, 3, (9, 30)),
}


def force_form(monkeypatch, code_space: bool):
    monkeypatch.setattr(training, "_code_space", lambda *shape: code_space)


def reconstruction_problem(variant, geometry, seed=0):
    """A batch of three frame pairs of one size, weighted 2, 1 and 3, and a config whose
    loss is the reconstruction term alone (so no field is read, and none is given)."""
    p, stride, shape = RECONSTRUCTION_GEOMETRIES[geometry]
    config = TrainConfig(
        motion_variant=variant, num_blocks=3, block_dim=2, patch_size=p, stride=stride, weight_rotation=0.0
    )
    rng = np.random.default_rng(seed)
    enc, model = training.init_model(config, rng)
    lattice = enc.grid.positions(*shape)
    assert np.any(core.overlap_add(np.ones((len(lattice), p * p)), lattice, shape, p) == 0)  # uncovered pixels
    batch = [(rng.random(shape), rng.random(shape), None) for _ in range(3)]
    return enc, model, batch, config, np.array([2.0, 1.0, 3.0])


def direct_gradient(enc, batch, counts):
    """`grad_total`'s (d_weights, loss) of a reconstruction-only batch of one size in one chunk,
    from the canvas formula on the chunk's stack of frames (its frames t, then its frames t+1),
    summed and scaled as `grad_total` sums and scales them."""
    frames = np.stack([triplet[j] for j in (0, 1) for triplet in batch])
    loss, d = reconstruction_terms(enc, frames, np.concatenate([counts, counts]))
    scale = 1.0 / float(counts.sum())
    d_weights = np.zeros_like(enc.weights)
    d_weights += d
    d_weights *= scale
    return d_weights, (0.0 + loss) * scale


class TestReconstructionForms:
    """`_reconstruction` in code space equals the canvas formula to rounding; its canvas
    form is that formula op for op."""

    @pytest.mark.parametrize("geometry", sorted(RECONSTRUCTION_GEOMETRIES))
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_code_space_matches_direct_formula(self, monkeypatch, variant, geometry):
        enc, model, batch, config, counts = reconstruction_problem(variant, geometry)
        force_form(monkeypatch, True)
        want, want_loss = direct_gradient(enc, batch, counts)
        got, loss = grad_total(enc, model, batch, config, counts=counts)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        np.testing.assert_allclose(got.d_weights, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        assert batch_loss(enc, model, batch, config, counts=counts) == loss

    @pytest.mark.parametrize("geometry", sorted(RECONSTRUCTION_GEOMETRIES))
    def test_canvas_form_is_direct_formula_bit_for_bit(self, monkeypatch, geometry):
        enc, model, batch, config, counts = reconstruction_problem("parametric", geometry)
        force_form(monkeypatch, False)
        want, want_loss = direct_gradient(enc, batch, counts)
        got, loss = grad_total(enc, model, batch, config, counts=counts)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want)

    def test_default_model_takes_canvas_form_bit_for_bit(self):
        # the K=40 default keeps the canvas form, and with it the bits of the formula
        config = TrainConfig(motion_variant="parametric", weight_rotation=0.0)
        rng = np.random.default_rng(3)
        enc, model = training.init_model(config, rng)
        batch = [(rng.random((40, 44)), rng.random((40, 44)), None) for _ in range(3)]
        counts = np.array([2.0, 1.0, 3.0])
        want, want_loss = direct_gradient(enc, batch, counts)
        got, loss = grad_total(enc, model, batch, config, counts=counts)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want)

    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_forms_agree_in_a_chunked_step(self, monkeypatch, variant, norm_stability):
        # every loss term, chunks of two frames, two frame sizes and repeated draws
        shapes, per_chunk = CHUNK_CASES["two_sizes"]
        enc, model, batch, config = chunk_problem(variant, shapes, norm_stability)
        monkeypatch.setattr(training, "CHUNK_BYTES", per_chunk * support_stack_bytes(enc, model, shapes[0]))
        counts = REPEAT_COUNTS[: len(batch)]
        force_form(monkeypatch, False)
        want, want_loss = grad_total(enc, model, batch, config, counts=counts)
        force_form(monkeypatch, True)
        got, loss = grad_total(enc, model, batch, config, counts=counts)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        np.testing.assert_allclose(got.d_weights, want.d_weights, rtol=1e-12, atol=1e-12 * np.max(np.abs(want.d_weights)))
        assert np.array_equal(got.d_motion, want.d_motion)

    def test_form_follows_the_multiply_counts(self):
        # per lattice position, besides the shared patch-side product: (9 + 5)·20² = 5,600
        # against 3·20·256 = 15,360 at the desk preset, and (9 + 5)·80² = 89,600 against
        # 61,440 at the default
        desk = TrainConfig(**cli.DESK_SCALE["train"])
        default = TrainConfig()
        assert training._code_space(desk.num_blocks, desk.block_dim, desk.patch_size, desk.stride)
        assert not training._code_space(default.num_blocks, default.block_dim, default.patch_size, default.stride)
        assert [len(training._overlap_shifts(p, s)) for p, s in ((16, 16), (16, 8), (8, 3))] == [1, 9, 25]


# ---------------------------------------------------------------------------
# a step's repeated draws: each distinct triplet once, weighted by its count


REPEAT_COUNTS = [3, 1, 2, 1, 4]


def expanded(batch, counts, seed=7):
    """``batch`` with each triplet repeated by its count, in a shuffled draw order."""
    draws = np.repeat(np.arange(len(batch)), counts)
    return [batch[i] for i in np.random.default_rng(seed).permutation(draws)]


class TestRepeatedDraws:
    @pytest.mark.parametrize("case", ["one_chunk", "two_chunks", "two_sizes"])
    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_counts_match_expanded_batch(self, monkeypatch, variant, norm_stability, case):
        shapes, per_chunk = CHUNK_CASES[case]
        enc, model, batch, config = chunk_problem(variant, shapes, norm_stability)
        counts = REPEAT_COUNTS[: len(batch)]
        if per_chunk is not None:
            budget = per_chunk * support_stack_bytes(enc, model, shapes[0])
            monkeypatch.setattr(training, "CHUNK_BYTES", budget)
        want, want_loss = grad_total(enc, model, expanded(batch, counts), config)
        got, loss = grad_total(enc, model, batch, config, counts=counts)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for a, b in ((got.d_weights, want.d_weights), (got.d_motion, want.d_motion)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_counts_of_one_are_bit_identical(self, monkeypatch, variant, norm_stability):
        # weighting by a count of 1 changes no bit against the unweighted terms
        shapes, per_chunk = CHUNK_CASES["two_sizes"]
        enc, model, batch, config = chunk_problem(variant, shapes, norm_stability)
        monkeypatch.setattr(training, "CHUNK_BYTES", per_chunk * support_stack_bytes(enc, model, shapes[0]))
        got, loss = grad_total(enc, model, batch, config, counts=np.ones(len(batch), dtype=np.int64))
        with monkeypatch.context() as patch:
            patch.setattr(training, "_weighted", lambda x, counts: x)
            want, want_loss = grad_total(enc, model, batch, config)
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want.d_weights)
        assert np.array_equal(got.d_motion, want.d_motion)

    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "parametric"])
    def test_reference_weights_counts_bit_for_bit(self, monkeypatch, variant, norm_stability):
        # one chunk: the reference, which weights each frame's residuals with the same
        # products, gives the same bits
        enc, model, batch, config = chunk_problem(variant, [(24, 24), (32, 32), (24, 24)], norm_stability)
        want, want_loss = reference_grad_total(monkeypatch, enc, model, batch, config, counts=[2, 5, 1])
        got, loss = grad_total(enc, model, batch, config, counts=[2, 5, 1])
        assert loss == want_loss
        assert np.array_equal(got.d_weights, want.d_weights)
        assert np.array_equal(got.d_motion, want.d_motion)

    def test_run_steps_passes_each_distinct_draw_once_with_its_count(self, monkeypatch):
        config = TrainConfig(motion_variant="parametric", num_blocks=3, block_dim=2, patch_size=8, stride=4, batch_size=8)
        enc, model = training.init_model(config, np.random.default_rng(0))
        prepared = training.prepare_dataset(desk_dataset(6, shape=(24, 24), seed=3), enc, model)
        calls = []
        real = training.grad_total

        def spy(encoder, model, batch, config, workspace=None, counts=None):
            calls.append(([next(i for i, t in enumerate(prepared) if t is item) for item in batch], list(counts)))
            return real(encoder, model, batch, config, workspace, counts)

        monkeypatch.setattr(training, "grad_total", spy)
        params = {"weights": enc.weights.copy(), "motion": model.coeffs.copy()}
        rng = np.random.default_rng(11)
        training._run_steps(params, AdamState.init(params), prepared, enc, model, config, rng, 5, [], training.Workspace())

        replica = np.random.default_rng(11)
        want = []
        for _ in range(5):
            take = replica.integers(0, len(prepared), size=config.batch_size).tolist()
            distinct = list(dict.fromkeys(take))  # first-draw order
            want.append((distinct, [take.count(i) for i in distinct]))
        assert calls == want
        assert any(max(counts) > 1 for _, counts in calls)
        assert rng.bit_generator.state == replica.bit_generator.state


# ---------------------------------------------------------------------------
# the loss alone, and the index plans a workspace keeps


def assert_same_gradient(got, want):
    (got_bundle, got_loss), (want_bundle, want_loss) = got, want
    assert got_loss == want_loss
    assert np.array_equal(got_bundle.d_weights, want_bundle.d_weights)
    assert np.array_equal(got_bundle.d_motion, want_bundle.d_motion)


class TestBatchLoss:
    """`batch_loss` is the loss of `grad_total`, bit for bit, without its gradient work."""

    @pytest.mark.parametrize("repeats", [False, True])
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    @pytest.mark.parametrize("norm_stability", [0.0, 0.05])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_equals_grad_total_loss(self, monkeypatch, variant, norm_stability, case, repeats):
        shapes, per_chunk = CHUNK_CASES[case]
        enc, model, batch, config = chunk_problem(variant, shapes, norm_stability)
        if per_chunk is not None:
            monkeypatch.setattr(training, "CHUNK_BYTES", per_chunk * support_stack_bytes(enc, model, shapes[0]))
        counts = REPEAT_COUNTS[: len(batch)] if repeats else None
        want = grad_total(enc, model, batch, config, counts=counts)[1]
        assert batch_loss(enc, model, batch, config, counts=counts) == want
        assert batch_loss(enc, model, batch, config, training.Workspace(), counts) == want

    @pytest.mark.parametrize("weights", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.05)])
    @pytest.mark.parametrize("variant", ["mixed", "parametric"])
    def test_equals_grad_total_loss_for_each_term(self, variant, weights):
        enc, model, batch, config = chunk_problem(variant, [(24, 24), (32, 32)], 0.0)
        rot, rec, ns = weights
        config = replace(config, weight_rotation=rot, weight_reconstruction=rec, weight_norm_stability=ns)
        assert batch_loss(enc, model, batch, config) == grad_total(enc, model, batch, config)[1]

    @pytest.mark.parametrize("variant", ["mixed", "parametric"])
    def test_runs_no_gradient_product(self, monkeypatch, variant):
        enc, model, batch, config = chunk_problem(variant, [(24, 24)] * 5, 0.05)
        monkeypatch.setattr(training, "CHUNK_BYTES", 2 * support_stack_bytes(enc, model, (24, 24)))
        want = grad_total(enc, model, batch, config)[1]

        def refuse(*args, **kwargs):
            raise AssertionError("a gradient product ran")

        for name in ("_motion_gradient", "predict_adjoint"):
            monkeypatch.setattr(training, name, refuse)
        monkeypatch.setattr(type(model), "add_gradient", refuse)  # the model's parameter gradient
        sizes = []
        real = training.gather_at
        monkeypatch.setattr(training, "gather_at", lambda imgs, idx, **kw: sizes.append(len(imgs)) or real(imgs, idx, **kw))
        assert batch_loss(enc, model, batch, config) == want
        # chunks of 2, 2 and 1 frame pairs: one gather of both frames' lattices each, one of
        # frame t's support centers off the lattice for the mixed model, and no error gathers
        assert sizes == ([4, 2, 4, 2, 2, 1] if variant == "mixed" else [4, 4, 2])

    def test_empty_batch_and_wrong_counts_raise(self):
        enc, model, batch, config = chunk_problem("parametric", [(24, 24)] * 2, 0.0)
        with pytest.raises(ShapeError):
            batch_loss(enc, model, [], config)
        with pytest.raises(ShapeError):
            batch_loss(enc, model, batch, config, counts=[1, 2, 3])

    def test_train_unsupervised_reads_losses_without_gradients(self, monkeypatch):
        frames = synthetic_textures(3, (40, 40), seed=40)
        seqs = [[f, np.roll(f, 1, axis=1)] for f in frames]
        tcfg = TrainConfig(
            motion_variant="parametric", num_blocks=3, block_dim=2, patch_size=8, stride=8,
            delta_lo=-3, delta_hi=3, batch_size=4, rng_seed=41, learning_rate=0.002,
        )
        cfg = UnsupervisedConfig(
            train=tcfg, init_pairs=6, init_steps=4, steps_per_round=3, rounds=2, infer_iters=5, field_tol=0.0,
        )
        calls = {"grad_total": 0, "batch_loss": 0}

        def counting(name):
            real = getattr(training, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(training, name, counting(name))
            enc, model, diag = train_unsupervised(seqs, cfg)
        rounds_run = len(diag["field_changes"])
        assert rounds_run == 2
        assert calls["grad_total"] == len(diag["history"]) == 4 + rounds_run * 3  # one per step
        assert calls["batch_loss"] == rounds_run + 1  # the objective before the rounds and after each
        # the objectives are the ones the gradient's loss gives
        with monkeypatch.context() as patch:
            patch.setattr(training, "batch_loss", lambda *args: grad_total(*args)[1])
            want_enc, want_model, want = train_unsupervised(seqs, cfg)
        assert diag["objectives"] == want["objectives"]
        assert np.array_equal(enc.weights, want_enc.weights)
        assert np.array_equal(model.coeffs, want_model.coeffs)


class TestIndexPlan:
    """A workspace computes the index arrays of a frame size once and reuses them."""

    def test_one_workspace_across_sizes_and_models(self, monkeypatch):
        # each call on a workspace that has met other frame sizes, models and loss terms
        # must give the bits of a call on a fresh one
        problems = {
            (variant, shape): chunk_problem(variant, [shape] * 3, 0.05)
            for variant in ("nonparametric", "mixed", "parametric")
            for shape in ((24, 24), (32, 32))
        }
        enc, model = problems["mixed", (24, 24)][:2]
        monkeypatch.setattr(training, "CHUNK_BYTES", 2 * support_stack_bytes(enc, model, (24, 24)))
        workspace = training.Workspace()
        order = [
            ("mixed", (24, 24)), ("parametric", (24, 24)), ("mixed", (32, 32)), ("parametric", (32, 32)),
            ("nonparametric", (24, 24)), ("mixed", (24, 24)), ("parametric", (24, 24)),
        ]
        for variant, shape in order:
            enc, model, batch, config = problems[variant, shape]
            for cfg in (config, replace(config, weight_rotation=0.0, weight_norm_stability=0.0)):
                assert_same_gradient(grad_total(enc, model, batch, cfg, workspace), grad_total(enc, model, batch, cfg))
                assert batch_loss(enc, model, batch, cfg, workspace) == grad_total(enc, model, batch, cfg)[1]

    def test_plan_built_once_per_frame_size(self, monkeypatch):
        enc, model, batch, config = chunk_problem("mixed", [(24, 24), (32, 32), (24, 24)], 0.0)
        built = []
        real = training._index_plan
        monkeypatch.setattr(
            training, "_index_plan", lambda enc, model, shape, rot: built.append(shape) or real(enc, model, shape, rot)
        )
        workspace = training.Workspace()
        for _ in range(3):
            grad_total(enc, model, batch, config, workspace)
            batch_loss(enc, model, batch, config, workspace)
        assert built == [(24, 24), (32, 32)]

"""Gradient correctness (finite differences), Adam, training loops, checkpoints."""

from dataclasses import replace

import numpy as np
import pytest

from patchflow import core
from patchflow.core import (
    DisplacementField,
    DisplacementGrid,
    Encoder,
    MixedMotion,
    NonParametricMotion,
    ParametricMotion,
    block_layout,
    encode,
    predicted_vectors,
    rotation_loss,
    support_offsets,
)
from patchflow.datagen import DeformSpec, gen_v1deform, synthetic_textures
from patchflow.errors import DataFormatError, ShapeError
from patchflow.inference import InferConfig, _candidate_scores, infer_grid, interpolate_frames
from patchflow.training import (
    AdamState,
    TrainConfig,
    UnsupervisedConfig,
    adam_step,
    eval_positions,
    grad_total,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train_supervised,
    train_unsupervised,
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
        model = NonParametricMotion(grid, np.eye(2) + 0.1 * rng.standard_normal((grid.num_candidates, 3, 2, 2)))
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
        analytic = np.array([bundle.d_motion[c] for c in coords])
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
        scores, _ = _candidate_scores(enc, model, img_t, v1, pos)
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
        scores, pred = _candidate_scores(enc, model, img_t, v1, pos, clamp)
        assert scores.shape == (len(pos), model.grid.num_candidates)
        for c, delta in enumerate(model.grid.candidates()):
            want = predicted_vectors(enc, model, img_t, pos, np.tile(delta, (len(pos), 1)), clamp)
            np.testing.assert_allclose(np.moveaxis(pred[:, c], -1, 0), want, rtol=1e-10, atol=1e-14)
            resid = v1 - want
            np.testing.assert_allclose(scores[:, c], np.sum(resid * resid, axis=(1, 2)), rtol=1e-10)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_replaced_table_scores_with_its_own_matrices(self, variant):
        enc, model, batch, _ = small_problem(variant)
        img_t, img_t1, _ = batch[0]
        pos = eval_positions(enc, model, img_t.shape)
        v1 = encode(enc, img_t1, pos).vectors
        before, _ = _candidate_scores(enc, model, img_t, v1, pos)
        other = np.random.default_rng(9).standard_normal(model.matrices.shape)
        if variant == "mixed":
            fresh = MixedMotion(model.grid, model.offsets, other)
        else:
            fresh = NonParametricMotion(model.grid, other)
        got, _ = _candidate_scores(enc, replace(model, matrices=other), img_t, v1, pos)
        want, _ = _candidate_scores(enc, fresh, img_t, v1, pos)
        assert np.array_equal(got, want)
        assert not np.allclose(got, before)

    def test_table_laid_out_once_per_model(self, monkeypatch):
        enc, model, batch, _ = small_problem("mixed")
        calls = []

        def counted(mats):
            calls.append(mats.shape)
            return block_layout(mats)

        monkeypatch.setattr(core, "block_layout", counted)
        for img_t, img_t1, _ in batch:
            infer_grid(enc, model, img_t, img_t1, InferConfig(margin=0))
        interpolate_frames(enc, model, *batch[0][:2], max_steps=2, stop_thresh=0.0)
        assert calls == [model.table.shape]


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
        field = np.zeros((32, 32, 2))
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
        enc, model, history = train_supervised([(img, img, field)], config)
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
        prepared = prepare_dataset(pairs, enc0, model0, True)
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
            pairs.append((src[i], warp(src[i], fld), fld))
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
            is_identity = np.array_equal(model.matrices[c], np.broadcast_to(eye, (3, 2, 2)))
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
        model = NonParametricMotion.identity(config.displacement_grid, 4, 2)
        pos = eval_positions(enc, model, (32, 32))
        deltas = np.zeros((len(pos), 2))
        loss = total_loss(enc, model, [(img_t, img_t1, deltas)], config)
        want = 0.0
        from patchflow.core import extract_patch

        for x in pos:
            diff = extract_patch(img_t1, x, 8) - extract_patch(img_t, x, 8)
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
        model = NonParametricMotion(grid, np.random.default_rng(19).standard_normal((25, 3, 2, 2)))
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

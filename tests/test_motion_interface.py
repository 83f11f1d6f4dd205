"""Every call site reaches a motion model through its interface members alone.

A wrapper that forwards only those members, and is neither model class nor a
subclass of one, takes each model kind through training steps, checkpoints,
grid and Newton inference, animation, interpolation and filter rendering, with
results byte-identical to the wrapped model's: a model of another kind that has
the members needs no branch at any of those call sites."""

import numpy as np
import pytest

from patchflow import gabor, inference, training
from patchflow.core import DisplacementField, MixedMotion, ParametricMotion
from patchflow.datagen import DeformSpec, gen_v1deform, synthetic_textures
from patchflow.errors import ShapeError
from patchflow.inference import InferConfig
from patchflow.training import AdamState, TrainConfig

# the members that the call sites read; `table_blocks` is a grid-scored model's
INTERFACE = frozenset(
    ("grid", "offsets", "max_offset", "params", "support_matrices", "add_gradient", "objective",
     "checkpoint_entry", "table_blocks")
)


class Forwarding:
    """A motion model seen through its interface members alone."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name not in INTERFACE:
            raise AttributeError(f"{name!r} is not a member of the motion model interface")
        return getattr(self._model, name)


def config_of(kind):
    return TrainConfig(
        motion_variant=kind, num_blocks=3, block_dim=2, patch_size=8, stride=4, delta_lo=-2.0, delta_hi=2.0,
        delta_step=0.5, support_radius=2, support_step=2, batch_size=4, learning_rate=0.01,
        weight_norm_stability=0.05,
    )


def make(kind):
    """A model of ``kind`` in training's storage, its parameters moved off the identity."""
    config = config_of(kind)
    rng = np.random.default_rng(7)
    encoder, model = training.init_model(config, rng)
    model.params[...] += 0.05 * rng.standard_normal(model.params.shape)
    return encoder, model


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def pairs():
    return gen_v1deform(synthetic_textures(3, (24, 24), seed=11), 6, DeformSpec(grid_m=3, lo=-1.5, hi=1.5, seed=12))


KINDS = ["nonparametric", "mixed", "parametric"]


def test_the_wrapper_is_no_model():
    for kind in KINDS:
        wrapped = Forwarding(make(kind)[1])
        assert not isinstance(wrapped, (MixedMotion, ParametricMotion))
        with pytest.raises(AttributeError):
            getattr(wrapped, "coeffs" if kind == "parametric" else "matrices")


@pytest.mark.parametrize("kind", KINDS)
def test_training_steps_and_checkpoint_through_the_interface(tmp_path, pairs, kind):
    config = config_of(kind)
    runs = []
    for wrap in (False, True):
        encoder, model = make(kind)
        seen = Forwarding(model) if wrap else model
        batch = training.prepare_dataset(pairs, encoder, seen)
        params = {"weights": encoder.weights, "motion": seen.params}
        state, workspace, steps = AdamState.init(params), training.Workspace(), []
        for counts in ([1, 2, 1, 1, 3, 1], [2, 1, 1, 1, 1, 1]):
            bundle, loss = training.grad_total(encoder, seen, batch, config, workspace, counts)
            steps.append((loss, bundle.d_weights.copy(), bundle.d_motion.copy()))
            training.adam_step(params, {"weights": bundle.d_weights, "motion": bundle.d_motion}, state, config)
        path = tmp_path / f"{wrap}.ckpt"
        training.save_checkpoint(path, encoder, seen, extra={"seed": 7})
        runs.append((batch, steps, encoder.weights.copy(), model.params.copy(), path.read_bytes()))
    (batch_a, steps_a, w_a, m_a, ckpt_a), (batch_b, steps_b, w_b, m_b, ckpt_b) = runs
    assert all(same(x[2], y[2]) for x, y in zip(batch_a, batch_b))
    for (loss_a, dw_a, dm_a), (loss_b, dw_b, dm_b) in zip(steps_a, steps_b):
        assert loss_a == loss_b and same(dw_a, dw_b) and same(dm_a, dm_b)
    assert np.any(m_a != make(kind)[1].params)  # the steps moved the motion parameters
    assert same(w_a, w_b) and same(m_a, m_b) and ckpt_a == ckpt_b


@pytest.mark.parametrize("kind", KINDS)
def test_inference_and_sequences_through_the_interface(pairs, kind):
    encoder, model = make(kind)
    wrapped = Forwarding(model)
    frames = [(p.image_t, p.image_t1) for p in pairs[:4]]
    icfg = InferConfig(margin=0, init="zeros", smoothness_weight=0.05, max_iters=20)
    newtons = (True, False) if kind == "parametric" else (True,)
    for newton in newtons:  # Newton steps and gradient steps for a descending model
        got = inference.infer_pairs(encoder, wrapped, frames, icfg, newton=newton)
        want = inference.infer_pairs(encoder, model, frames, icfg, newton=newton)
        assert all(same(a, b) for a, b in zip(got[0] + got[1], want[0] + want[1]))
        assert got[2] == want[2] and bool(got[2]) == (kind == "parametric")
    fields = [DisplacementField(pos, vec) for pos, vec in zip(*want[:2])][:2]
    start, end = frames[0]
    assert all(map(same, inference.animate(encoder, wrapped, start, fields), inference.animate(encoder, model, start, fields)))
    deltas = [(0.0, 0.0), (1.0, 0.0), (0.5, -1.5)]
    got, want = gabor.animate_filters(encoder, wrapped, 1, deltas), gabor.animate_filters(encoder, model, 1, deltas)
    assert all(map(same, got, want))
    if kind == "parametric":  # not grid-scored until a parametric model can be tabulated
        for seen in (wrapped, model):
            with pytest.raises(ShapeError, match="interpolation scans a candidate grid; needs a table model"):
                inference.interpolate_frames(encoder, seen, start, end)
            with pytest.raises(ShapeError, match="grid scoring needs a table model"):
                inference.infer_grid_stack(encoder, seen, start[None], end[None])
        return
    with pytest.raises(ShapeError, match="descent needs a parametric motion model"):
        inference.infer_parametric_stack(encoder, wrapped, start[None], end[None])
    got = inference.interpolate_frames(encoder, wrapped, start, end, max_steps=3, stop_thresh=0.0)
    want = inference.interpolate_frames(encoder, model, start, end, max_steps=3, stop_thresh=0.0)
    assert len(got[0]) == len(want[0]) == 4 and got[1] == want[1]
    assert all(map(same, got[0], want[0]))

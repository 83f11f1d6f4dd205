"""Memory contracts: the arrays that loading, reading and training hold, measured
with tracemalloc, to which numpy reports its data allocations."""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from patchflow import training
from patchflow.datagen import DeformSpec, dataset_read, dataset_write, gen_v1deform, synthetic_textures
from patchflow.training import TrainConfig, grad_total, load_checkpoint, save_checkpoint, train_supervised


def traced_peak(fn, *args):
    """(fn(*args), the peak of the bytes it held at once, as tracemalloc counts them)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def small_pairs(n_pairs, shape=(24, 24)):
    return gen_v1deform(synthetic_textures(2, shape, seed=3), n_pairs, DeformSpec(grid_m=3, lo=-2, hi=2, seed=4))


@pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
def test_load_checkpoint_holds_the_body_once(tmp_path, variant):
    # a table of about 5 MB (a desk mixed one, or a nonparametric one on a finer grid):
    # a block in the file's order is read into its array, and a mixed table into its
    # block rows through a buffer of about 1 MB, so loading holds the body once, its
    # finiteness mask (an eighth of it) and that buffer, not a bytes copy too
    sizes = {"mixed": dict(num_blocks=10), "nonparametric": dict(num_blocks=45, delta_step=0.2)}
    config = TrainConfig(motion_variant=variant, block_dim=2, **sizes[variant])
    encoder, model = training.init_model(config, np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, encoder, model)
    body = path.stat().st_size - len(path.read_bytes().split(b"\n", 1)[0]) - 1
    assert body > 5_000_000
    (enc, loaded, _), peak = traced_peak(load_checkpoint, path)
    assert peak < 1.5 * body
    assert np.array_equal(loaded.matrices, model.matrices) and np.array_equal(enc.weights, encoder.weights)


def test_mixed_training_holds_four_tables():
    # a 6 MB table against a batch of two 24x24 pairs: the parameters (the initial
    # table, updated in place), Adam's two moments and the gradient in the workspace
    config = TrainConfig(
        motion_variant="mixed", num_blocks=2, block_dim=2, patch_size=8, stride=4, delta_step=0.2,
        batch_size=2, num_steps=2,
    )
    pairs = small_pairs(2)
    encoder, model = training.init_model(config, np.random.default_rng(config.rng_seed))
    table = model.matrices.nbytes
    # one gradient call on fresh buffers: the gradient table, the other buffers and the temporaries;
    # a first call, on a workspace of its own, takes the imports and caches that are not the step's
    prepared = training.prepare_dataset(pairs, encoder, model)
    grad_total(encoder, model, prepared, config, training.Workspace())
    _, grad_peak = traced_peak(grad_total, encoder, model, prepared, config)
    workspace = grad_peak - table + 2 * 8 * training.ADAM_BLOCK  # and Adam's two scratch blocks
    assert workspace < 0.5 * table
    del encoder, model, prepared
    (_, trained, history), peak = traced_peak(train_supervised, pairs, config)
    assert len(history) == 2 and trained.matrices.nbytes == table
    assert peak < 4.5 * table + workspace


# `test_desk_gradient_peak`'s calls peaked at 15.67 and 15.04 MB before each chunk became
# one patch stack, when frames t and t+1 had a patch stack and codes each, the
# reconstruction term held its nine shifted code products at once and the support scatter
# had its own array; 14.33 and 14.44 MB after.  The bounds are the earlier peaks, rounded down.  All four
# figures are from numpy 2.4.6, and the peaks include numpy's temporaries (einsum, take,
# bincount), so a failure after a numpy update may be numpy's allocations, not patchflow's
DESK_GRADIENT_PEAKS = {"parametric": 15.6e6, "mixed": 15.0e6}


@pytest.mark.parametrize("variant", ["parametric", "mixed"])
def test_desk_gradient_peak(variant):
    # one desk gradient call (K=10, d=2, p=16) on 32 pairs of 64x64 frames, drawn with repeats,
    # on fresh buffers: one chunk of 32 parametric frames, or eight of 4 mixed ones, whose
    # peak holds the 5 MB gradient table too; the shared patch stack and code-gradient
    # buffers may hold no more than the arrays they replaced
    config = TrainConfig(motion_variant=variant, num_blocks=10, block_dim=2, batch_size=32)
    encoder, model = training.init_model(config, np.random.default_rng(0))
    pairs = gen_v1deform(synthetic_textures(2, (64, 64), seed=3), 32, DeformSpec(grid_m=4, lo=-3, hi=3, seed=4))
    prepared = training.prepare_dataset(pairs, encoder, model)
    counts = np.tile([2.0, 1.0, 1.0, 3.0], 8)
    grad_total(encoder, model, prepared, config, None, counts)  # a first call's imports and caches are not the step's
    (_, loss), peak = traced_peak(grad_total, encoder, model, prepared, config, None, counts)
    assert np.isfinite(loss)
    assert peak <= DESK_GRADIENT_PEAKS[variant]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a caller's stack holds a call's arguments until it returns")
def test_train_supervised_frees_pairs_passed_as_the_only_reference(monkeypatch):
    refs = []

    def pairs():
        made = small_pairs(3)
        refs.extend(weakref.ref(pair) for pair in made)
        return made

    alive = []
    run_steps = training._run_steps
    monkeypatch.setattr(training, "_run_steps", lambda *args: alive.append(sum(r() is not None for r in refs)) or run_steps(*args))
    train_supervised(pairs(), TrainConfig(motion_variant="mixed", num_blocks=2, patch_size=8, stride=4, num_steps=1))
    assert alive == [0]


@pytest.mark.parametrize("mode", ["binary", "pgm"])
def test_dataset_read_samples_own_their_arrays(tmp_path, mode):
    # one float64 array per frame and one (H, W, 2) field per sample, none a view of a wider array
    dataset_write(small_pairs(3, shape=(20, 28)), tmp_path / "ds", mode=mode)
    for pair in dataset_read(tmp_path / "ds"):
        for array, shape in ((pair.image_t, (20, 28)), (pair.image_t1, (20, 28)), (pair.field, (20, 28, 2))):
            assert array.base is None and array.shape == shape and array.flags.c_contiguous

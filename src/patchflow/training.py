"""Closed-form gradients of the weighted loss, Adam, and the training loops.

No autodiff anywhere: the gradients of the rotation and reconstruction
losses are derived analytically and verified against finite differences in
the test-suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    DisplacementGrid,
    Encoder,
    MixedMotion,
    NonParametricMotion,
    ParametricMotion,
    delta_basis,
    eval_positions,
    extract_patches,
    lattice_axes,
    overlap_add,
    polynomial_matrices,
    predict,
    predict_adjoint,
    rows_table,
    support_centers,
    support_offsets,
    table_rows,
)
from .datagen import DeformSpec, SamplePair, gen_v1deform
from .errors import DataFormatError, GridLookupError, NumericError, ShapeError, TrainingDiverged

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Optimizer, loss-weight, and model-structure settings."""

    learning_rate: float = 0.0008
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_rotation: float = 1.0
    weight_reconstruction: float = 1.0
    weight_norm_stability: float = 0.0
    batch_size: int = 32
    num_steps: int = 500
    rng_seed: int = 0
    motion_variant: str = "nonparametric"  # "nonparametric" | "mixed" | "parametric"
    num_blocks: int = 40
    block_dim: int = 2
    patch_size: int = 16
    stride: int = 8
    delta_lo: float = -6.0
    delta_hi: float = 6.0
    delta_step: float = 0.5
    support_radius: int = 4
    support_step: int = 2

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.weight_rotation, self.weight_reconstruction, self.weight_norm_stability) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.num_steps < 0:
            raise ValueError(f"num_steps must be at least 0, got {self.num_steps}")
        if min(self.num_blocks, self.block_dim) < 1:
            raise ValueError(f"num_blocks and block_dim must be at least 1, got {self.num_blocks} and {self.block_dim}")
        if self.motion_variant not in ("nonparametric", "mixed", "parametric"):
            raise ValueError(f"unknown motion variant {self.motion_variant!r}")
        if self.motion_variant == "mixed":  # the support must hold the zero offset
            if self.support_step < 1:
                raise ValueError(f"support_step must be at least 1, got {self.support_step}")
            if self.support_radius < 0:
                raise ValueError(f"support_radius must be non-negative, got {self.support_radius}")
            if self.support_radius % self.support_step:
                raise ValueError(
                    f"support_radius {self.support_radius} must be a multiple of support_step "
                    f"{self.support_step}, or the support lacks the zero offset"
                )

    @property
    def displacement_grid(self) -> DisplacementGrid:
        return DisplacementGrid(self.delta_lo, self.delta_hi, self.delta_step)


@dataclass
class GradientBundle:
    d_weights: np.ndarray  # (K, d, p*p)
    d_motion: np.ndarray  # matches the motion parameter tensor


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


# entries of a parameter that Adam updates at a time: the update makes a dozen
# passes over a block of each of six arrays (parameter, gradient, moments, two
# scratch buffers), 3 MB at this size; on a 2 MB-L2 machine it ran faster than
# whole-table passes over a desk mixed table and than blocks of 16k or 32k
ADAM_BLOCK = 65_536


def _flat_views(*arrays):
    """1-D views of same-shaped arrays that hold their elements in one memory order,
    or None when their layouts differ."""
    order = np.argsort([-s for s in arrays[0].strides], kind="stable")
    views = [a.transpose(order) for a in arrays]
    if not all(v.flags.c_contiguous for v in views):
        return None
    return [v.reshape(-1) for v in views]


def _adam_update(p, g, m, v, a, b, t, config) -> None:
    """The textbook update of one block, through the scratch blocks ``a`` and ``b``."""
    b1, b2 = config.beta1, config.beta2
    m *= b1  # m = b1*m + (1-b1)*g
    m += np.multiply(g, 1 - b1, out=a)
    v *= b2  # v = b2*v + ((1-b2)*g)*g
    np.multiply(g, 1 - b2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, 1 - b1 ** t, out=a)  # p -= (lr*m_hat) / (sqrt(v_hat) + eps)
    a *= config.learning_rate
    np.divide(v, 1 - b2 ** t, out=b)
    np.sqrt(b, out=b)
    b += config.eps
    p -= np.divide(a, b, out=a)


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig) -> None:
    """Bias-corrected Adam update of parameters and moments, in place.

    A parameter larger than ADAM_BLOCK whose gradient and moments share its
    memory layout (a mixed table in training is a view of block rows, and its
    moments and gradient follow it) is updated in blocks of ADAM_BLOCK entries
    in memory order; any other in one block.  Two block-sized scratch buffers
    replace the temporaries of the textbook expressions; every product and sum
    is the textbook one, taken in the same order, so the results are bit for
    bit the same.
    """
    state.step += 1
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key}")
        arrays = (p, g, state.m[key], state.v[key])
        flat = _flat_views(*arrays) if p.size > ADAM_BLOCK else None
        if flat is None:  # one block: a small parameter, or layouts that differ
            _adam_update(*arrays, np.empty_like(p), np.empty_like(p), state.step, config)
            continue
        a, b = np.empty((2, ADAM_BLOCK))
        for lo in range(0, p.size, ADAM_BLOCK):
            block = [x[lo : lo + ADAM_BLOCK] for x in flat]
            n = len(block[0])
            _adam_update(*block, a[:n], b[:n], state.step, config)


# ---------------------------------------------------------------------------
# model construction


def init_model(config: TrainConfig, rng) -> tuple[Encoder, object]:
    """Gaussian 1/p encoder and a no-motion initial model."""
    encoder = Encoder.random(
        config.num_blocks, config.block_dim, config.patch_size, config.stride, rng=rng
    )
    grid = config.displacement_grid
    if config.motion_variant == "nonparametric":
        model = NonParametricMotion.identity(grid, config.num_blocks, config.block_dim)
    elif config.motion_variant == "mixed":
        offsets = support_offsets(config.support_radius, config.support_step)
        model = MixedMotion.identity(grid, offsets, config.num_blocks, config.block_dim)
    else:
        model = ParametricMotion.zeros(config.num_blocks, config.block_dim)
    return encoder, model


def _motion_field(model) -> str:
    """Name of the model's trained parameter tensor."""
    return "coeffs" if isinstance(model, ParametricMotion) else "matrices"


def _motion_params(model) -> np.ndarray:
    return getattr(model, _motion_field(model))


def _rebuild(encoder: Encoder, model, weights: np.ndarray, motion: np.ndarray):
    enc = Encoder(weights, encoder.patch_size, encoder.stride)
    return enc, replace(model, **{_motion_field(model): motion})


# ---------------------------------------------------------------------------
# analytic gradient of the weighted loss


# bytes of a chunk's support patch stack: 4 desk mixed frames, 39 table ones
CHUNK_BYTES = 4_000_000


class Workspace:
    """Buffers that the gradient calls of one training run share: the patch
    stacks, the per-position block matrices and the motion gradient.

    An array of a few MB allocated afresh on every step goes back to the OS
    when it is freed and is faulted in again on the next step; a buffer kept
    for the run, grown to the largest array asked of it, is not.  Each request
    returns a view of exactly the requested shape, which the caller writes in
    full before reading it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = int(np.prod(shape))
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _motion_gradient(model, workspace: Workspace) -> np.ndarray:
    """A zeroed motion gradient in ``workspace``, shaped as the model's motion parameters:
    a view of candidate-major block rows (`rows_table`; for a parametric model its five
    coefficient tensors are the rows), the layout `_group_gradient` adds into."""
    params = _motion_params(model)
    m, k, d = len(model.offsets), model.num_blocks, model.block_dim
    rows = workspace.array("d_motion", (len(params), k, d, m * d))
    rows.fill(0.0)
    return rows_table(rows, m).reshape(params.shape)


def _add_rows(table: np.ndarray, cand: np.ndarray, values: np.ndarray) -> None:
    """Add the rows of ``values`` (R, W) to rows ``cand`` of ``table`` (C, W), one sum per row
    hit: each hit's rows summed in array order, then added to the table row.  The sums build
    in place in ``values``.  They start from a hit's first row, not from zero: 0 + x and x
    differ only in the sign of a zero, and a table that starts at +0 never holds -0 (a sum is
    -0 only when both terms are), so adding either sum gives the same bits."""
    order = np.argsort(cand, kind="stable")
    grouped = cand[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(order)]):
        total = values[order[lo]]
        for r in order[lo + 1 : hi].tolist():
            total += values[r]
        table[grouped[lo]] += total


def _union_rows(width: int, *position_sets):
    """The union of position sets in the order of first appearance, and each set's
    rows in it: None for a set whose rows are the whole union in order."""
    every = np.concatenate(position_sets)
    _, first, inverse = np.unique(every[:, 0] * width + every[:, 1], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rows = np.split(np.argsort(order)[inverse.ravel()], np.cumsum([len(s) for s in position_sets])[:-1])
    whole = np.arange(len(order))
    return every[first[order]], [None if np.array_equal(r, whole) else r for r in rows]


def _rows(stack: np.ndarray, rows) -> np.ndarray:
    """``stack`` (B, U, ...) at rows ``rows`` of each frame, flattened to (B*len(rows), ...)."""
    part = stack if rows is None else stack[:, rows]
    return part.reshape((-1,) + stack.shape[2:])


def _weighted(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``x`` (B, ...) with each frame's entries times its count."""
    return x * counts.reshape((-1,) + (1,) * (x.ndim - 1))


def _group_gradient(encoder, model, imgs_t, imgs_t1, deltas, counts, config, d_weights, d_motion, workspace):
    """Accumulate loss and gradients for a batch group sharing one image size.

    ``counts`` (one float per frame) weights each frame's rotation
    residual, norm-stability term and reconstruction error before they enter
    the loss and the products, so that a frame counts as that many copies of
    itself; a count of 1 multiplies by 1.0, which changes no bit.

    It runs in chunks of frames whose support patch stack fits in CHUNK_BYTES.
    Each chunk gathers and encodes each frame once, into ``workspace``'s
    buffers: frame t at the support centers and the reconstruction lattice,
    frame t+1 on the lattice, which holds the evaluation positions.  Each term
    reads its rows of those stacks; for table and parametric models, whose
    support centers are the lattice, those are the whole stacks.  Every model
    runs the same forward pass over its support (the zero offset alone for
    table and parametric models), on one set of per-position block matrices
    per chunk for `predict`, its adjoint and the motion gradient.  A table's
    are a gather of its candidate-major block rows (`table_rows`: a view of
    a table in training's storage, a copy per call of any other), and its
    gradient, ``d_motion`` as `_motion_gradient` lays it out, gains rows in
    that same layout; a parametric model's are its polynomial M(delta).
    """
    w = encoder.weights
    k, d, q = w.shape
    kd = k * d
    w2 = w.reshape(kd, q)
    p = encoder.patch_size
    shape = imgs_t.shape[1:]
    lam_rot = config.weight_rotation
    lam_rec = config.weight_reconstruction
    lam_ns = config.weight_norm_stability
    rotation = lam_rot > 0 or lam_ns > 0
    loss, frames = 0.0, len(imgs_t)
    dw2 = d_weights.reshape(kd, q)

    pos_rec = encoder.grid.positions(*shape)
    n_rec = len(pos_rec)
    centers_t = centers_t1 = pos_rec
    rows_rec_t = rows_rec_t1 = None
    if rotation:
        pos = eval_positions(encoder, model, shape)
        if deltas.shape[1] != len(pos):
            raise ShapeError(
                f"fields have {deltas.shape[1]} positions, evaluation grid has {len(pos)}"
            )
        uniq, inverse = support_centers(encoder, shape, pos, model.offsets)
        n, n_u = len(pos), len(uniq)
        frames = max(1, CHUNK_BYTES // (8 * q * n_u))
        # flat places of block-layout support vectors among encodings
        place = (inverse[:, None, :, None] * k + np.arange(k)[:, None, None]) * d + np.arange(d)
        # the support centers lead frame t's stack, where ``place`` finds them
        centers_t, (_, rows_x, rows_rec_t) = _union_rows(shape[1], uniq, pos, pos_rec)
        centers_t1, (rows_rec_t1, rows_1) = _union_rows(shape[1], pos_rec, pos)
        # flat places of the support vectors' adjoint among a chunk's frame-t encodings
        scatter = np.arange(frames)[:, None] * (len(centers_t) * kd) + place.ravel()
        if isinstance(model, ParametricMotion):
            table = None
        else:
            table = table_rows(model.table)
            # a view: `_motion_gradient` lays the gradient out as these rows
            d_table = table_rows(d_motion.reshape(model.table.shape)).reshape(len(table), -1)
    n_t, n_t1 = len(centers_t), len(centers_t1)

    for c in range(0, len(imgs_t), frames):
        ch_t, ch_t1, ch_d = imgs_t[c : c + frames], imgs_t1[c : c + frames], deltas[c : c + frames]
        b = len(ch_t)
        a_t = extract_patches(ch_t, centers_t, p, out=workspace.array("frame_t", (b, n_t, q)))
        a_t1 = extract_patches(ch_t1, centers_t1, p, out=workspace.array("frame_t1", (b, n_t1, q)))
        v_t = (a_t.reshape(b * n_t, q) @ w2.T).reshape(b, n_t, kd)
        v_t1 = (a_t1.reshape(b * n_t1, q) @ w2.T).reshape(b, n_t1, kd)
        if rotation:
            a1 = _rows(a_t1, rows_1)
            v1 = _rows(v_t1, rows_1).reshape(b, n, k, d)
            right = np.take(v_t.reshape(b, -1), place, axis=1)  # (B, N, K, m, d)
            if table is None:  # a single offset: M(delta) is its own block layout
                blocks = polynomial_matrices(model.coeffs, ch_d)
            else:
                cand = model.grid.round_indices(ch_d)
                out = workspace.array("blocks", cand.shape + table.shape[1:])
                blocks = np.take(table, cand, axis=0, out=out, mode="clip")  # (B, N, K, d, m*d)
            pred = predict(blocks, np.moveaxis(right, 3, 2)[:, :, None])[..., 0, :, 0]

            r = v1 - pred
            r_w = _weighted(r, counts[c : c + b])
            loss += lam_rot * float(np.sum(r_w * r))
            d_pred = -2.0 * lam_rot * r_w
            if lam_ns > 0:
                a_x = _rows(a_t, rows_x)
                v_x = _rows(v_t, rows_x).reshape(b, n, k, d)
                ns = np.sum(pred * pred, axis=3) - np.sum(v_x * v_x, axis=3)  # (B, N, K)
                ns_w = _weighted(ns, counts[c : c + b])
                loss += lam_ns * float(np.sum(ns_w * ns))
                d_pred = d_pred + 4.0 * lam_ns * ns_w[..., None] * pred
                gv = (-4.0 * lam_ns * ns_w[..., None] * v_x).reshape(b * n, kd)
                dw2 += gv.T @ a_x
            dw2 += (2.0 * lam_rot * r_w).reshape(b * n, kd).T @ a1

            # back through the prediction: M^T d_pred per offset, scattered onto the
            # unique support centers, and the outer product d_pred v^T per offset
            mt_g = predict_adjoint(blocks, d_pred[..., None, :, None])[..., 0]  # (B, N, K, m, d)
            s = np.bincount(scatter[:b].ravel(), weights=mt_g.ravel(), minlength=b * n_t * kd)
            dw2 += s.reshape(b * n_t, kd).T @ a_t.reshape(b * n_t, q)
            # per position, a table row's gradient in its block layout, over the spent blocks
            g_m = np.multiply(d_pred[..., None], right.reshape(b, n, k, 1, -1), out=blocks).reshape(b * n, -1)
            if table is None:
                basis = delta_basis(ch_d).reshape(b * n, 5)
                d_motion += (basis.T @ g_m).reshape(d_motion.shape)
            else:  # only the candidates hit gain
                _add_rows(d_table, cand.ravel(), g_m)

        if lam_rec > 0:
            decoded = workspace.array("decoded", (b * n_rec, q))
            e_p = workspace.array("errors", (b, n_rec, q))
            # one overlap-add per frame
            for imgs, a_s, v_s, rows in ((ch_t, a_t, v_t, rows_rec_t), (ch_t1, a_t1, v_t1, rows_rec_t1)):
                a_rec, v_rec = _rows(a_s, rows), _rows(v_s, rows)
                np.matmul(v_rec, w2, out=decoded)
                e = imgs - overlap_add(decoded.reshape(b, n_rec, q), pos_rec, shape, p)
                e_w = _weighted(e, counts[c : c + b])
                loss += lam_rec * float(np.sum(e_w * e))
                extract_patches(e_w, pos_rec, p, out=e_p)
                e_flat = e_p.reshape(b * n_rec, q)
                v_e = e_flat @ w2.T
                dw2 += -2.0 * lam_rec * (v_rec.T @ e_flat + v_e.T @ a_rec)
    return loss


def size_groups(images) -> list[list[int]]:
    """Indices of ``images`` grouped by image size, in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, img in enumerate(images):
        groups.setdefault(np.shape(img), []).append(i)
    return list(groups.values())


def grad_total(encoder, model, batch, config: TrainConfig, workspace: Workspace | None = None, counts=None):
    """Gradient of the batch-mean weighted loss.

    ``batch`` holds (image_t, image_t1, deltas) triplets whose ``deltas``
    align with ``eval_positions`` for that image size.  ``counts``, one
    positive integer per triplet (ones by default), makes each triplet stand
    for that many copies of itself: the result is that of the expanded batch,
    to rounding, and a count of 1 multiplies by 1.0, which changes no bit.
    The patch stacks and the motion gradient go into ``workspace``'s buffers
    (a fresh workspace's by default), so the bundle's ``d_motion`` holds until
    the next call with that workspace.  Returns the bundle and the loss value.
    """
    if not batch:
        raise ShapeError("empty batch")
    if workspace is None:
        workspace = Workspace()
    counts = np.ones(len(batch)) if counts is None else np.asarray(counts, dtype=np.float64)
    if counts.shape != (len(batch),):
        raise ShapeError(f"{counts.shape} counts for a batch of {len(batch)}")
    d_weights = np.zeros_like(encoder.weights)
    d_motion = _motion_gradient(model, workspace)
    loss = 0.0
    for members in size_groups([img_t for img_t, _, _ in batch]):
        imgs_t = np.stack([np.asarray(batch[i][0], dtype=np.float64) for i in members])
        imgs_t1 = np.stack([np.asarray(batch[i][1], dtype=np.float64) for i in members])
        deltas = np.stack([np.asarray(batch[i][2], dtype=np.float64) for i in members])
        loss += _group_gradient(
            encoder, model, imgs_t, imgs_t1, deltas, counts[members], config, d_weights, d_motion, workspace
        )
    scale = 1.0 / float(counts.sum())
    loss *= scale
    d_weights *= scale
    d_motion *= scale
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r} (check inputs and learning rate)")
    return GradientBundle(d_weights, d_motion), loss


# ---------------------------------------------------------------------------
# supervised training


def _as_triplet(sample):
    if isinstance(sample, SamplePair):
        return sample.image_t, sample.image_t1, sample.field
    img_t, img_t1, field = sample
    return np.asarray(img_t), np.asarray(img_t1), np.asarray(field)


def prepare_dataset(dataset, encoder, model, snap_to_grid: bool) -> list:
    """Sample dense fields on the evaluation lattice, snapping for table models.

    Snapping needs every sampled component to round onto the candidate grid;
    data that reaches past it raises DataFormatError naming both ranges.
    """
    prepared = []
    cache: dict[tuple[int, int], np.ndarray] = {}
    for sample in dataset:
        img_t, img_t1, field = _as_triplet(sample)
        pos = cache.get(img_t.shape)
        if pos is None:
            pos = eval_positions(encoder, model, img_t.shape)
            cache[img_t.shape] = pos
        if field.ndim == 3:
            vec = field[pos[:, 0], pos[:, 1]]
        else:
            vec = np.asarray(field, dtype=np.float64)
            if vec.shape != (len(pos), 2):
                raise ShapeError("pre-sampled field does not match the evaluation grid")
        prepared.append((np.asarray(img_t, dtype=np.float64), np.asarray(img_t1, dtype=np.float64), vec))
    if snap_to_grid and prepared:
        grid = model.grid
        lo = min(float(vec.min()) for *_, vec in prepared)
        hi = max(float(vec.max()) for *_, vec in prepared)
        try:
            grid.round_indices(np.array([[lo, lo], [hi, hi]]))
        except GridLookupError:
            raise DataFormatError(
                f"field components span [{lo:g}, {hi:g}] px, outside the "
                f"candidate grid [{grid.lo:g}, {grid.hi:g}]"
            ) from None
        cand = grid.candidates()
        prepared = [(img_t, img_t1, cand[grid.round_indices(vec)]) for img_t, img_t1, vec in prepared]
    return prepared


def _run_steps(params, state, prepared, encoder0, model0, config, rng, num_steps, history, workspace):
    for _ in range(num_steps):
        take = rng.integers(0, len(prepared), size=config.batch_size)
        # a triplet drawn more than once is evaluated once, weighted by its count
        distinct, first, counts = np.unique(take, return_index=True, return_counts=True)
        order = np.argsort(first)
        enc, model = _rebuild(encoder0, model0, params["weights"], params["motion"])
        batch = [prepared[i] for i in distinct[order]]
        try:
            bundle, loss = grad_total(enc, model, batch, config, workspace, counts[order])
        except NumericError as exc:
            raise TrainingDiverged(str(exc), history) from exc
        history.append(loss)
        adam_step(params, {"weights": bundle.d_weights, "motion": bundle.d_motion}, state, config)


def train_supervised(dataset, config: TrainConfig):
    """Train encoder and motion model on (frame, field, frame) triplets.

    Returns (encoder, model, per-step loss history).  Identical config and
    seed give an identical history and identical parameters.
    """
    rng = np.random.default_rng(config.rng_seed)
    encoder0, model0 = init_model(config, rng)
    snap = config.motion_variant in ("nonparametric", "mixed")
    prepared = prepare_dataset(dataset, encoder0, model0, snap)
    if not prepared:
        raise ShapeError("empty dataset")
    # np.copy keeps the layout: a mixed table stays a view of block rows, as do its moments
    params = {"weights": encoder0.weights.copy(), "motion": np.copy(_motion_params(model0))}
    state = AdamState.init(params)
    history: list[float] = []
    _run_steps(params, state, prepared, encoder0, model0, config, rng, config.num_steps, history, Workspace())
    enc, model = _rebuild(encoder0, model0, params["weights"].copy(), params["motion"].copy())
    return enc, model, history


# ---------------------------------------------------------------------------
# unsupervised training (three stages)


@dataclass
class UnsupervisedConfig:
    """Alternation loop settings on top of a parametric TrainConfig."""

    train: TrainConfig
    init_pairs: int = 64
    init_steps: int = 300
    steps_per_round: int = 100
    rounds: int = 5
    field_tol: float = 0.05  # mean field change (px) that stops alternation
    smoothness_weight: float = 0.05
    infer_step: float = 0.2
    infer_iters: int = 60
    deform_grid_m: int = 4
    deform_lo: float = -3.0
    deform_hi: float = 3.0

    def __post_init__(self):
        if self.train.motion_variant != "parametric":
            raise ValueError("unsupervised training uses the parametric motion model")
        if self.init_pairs < 1:
            raise ValueError(f"init_pairs must be at least 1, got {self.init_pairs}")
        # the stage-1 TrainConfig and the InferConfig of stages 2 and 3 are built mid-run
        for name in ("init_steps", "steps_per_round", "rounds", "infer_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")


def _unsup_objective(encoder, model, triplets, lam_s, config, grid_shapes, workspace):
    """Mean over the pairs of the weighted loss and the fields' smoothness: one batched loss call."""
    from .inference import _smoothness_value_grad

    obj = grad_total(encoder, model, triplets, config, workspace)[1]
    if lam_s > 0:
        smooth = [_smoothness_value_grad(fld, shape, gradient=False)[0] for (*_, fld), shape in zip(triplets, grid_shapes)]
        obj += lam_s * float(np.sum(smooth)) / len(triplets)
    return obj


def _descend_pairs(encoder, model, pairs, icfg, starts=None):
    """Fields of every pair by gradient-step descent, all pairs of one frame size as
    one stack, from ``icfg``'s start or, when given, from the fields ``starts``.

    Returns (fields, positions, (iterations, stop reason) of each pair)."""
    from .inference import infer_parametric_stack

    fields, positions, stops = [None] * len(pairs), [None] * len(pairs), [None] * len(pairs)
    for members in size_groups([img_t for img_t, _ in pairs]):
        cfg = icfg if starts is None else replace(icfg, init_field=np.stack([starts[i] for i in members]))
        pos, found, iters, reasons = infer_parametric_stack(
            encoder,
            model,
            np.stack([pairs[i][0] for i in members]),
            np.stack([pairs[i][1] for i in members]),
            cfg,
        )
        for j, i in enumerate(members):
            fields[i], positions[i], stops[i] = found[j], pos, (int(iters[j]), reasons[j])
    return fields, positions, stops


def train_unsupervised(sequences, config: UnsupervisedConfig):
    """Three stages: self-deformed init, inference, then alternation.

    Returns (encoder, model, diagnostics) with per-round objective values,
    mean field changes, and the (iterations, stop reason) of each pair's
    descent in stage 2 and in each round of stage 3, in the diagnostics dict.
    """
    from .inference import InferConfig

    frames = [np.asarray(f, dtype=np.float64) for seq in sequences for f in seq]
    if any(len(seq) < 2 for seq in sequences) or not sequences:
        raise ShapeError("need sequences of at least two frames")
    tcfg = config.train

    # stage 1: supervised init on self-deformed single frames
    deform = DeformSpec(
        grid_m=config.deform_grid_m,
        lo=config.deform_lo,
        hi=config.deform_hi,
        seed=tcfg.rng_seed,
    )
    init_pairs = gen_v1deform(frames, config.init_pairs, deform)
    stage1_cfg = replace(tcfg, num_steps=config.init_steps)
    encoder, model, history = train_supervised(init_pairs, stage1_cfg)

    pairs = [
        (np.asarray(seq[i], dtype=np.float64), np.asarray(seq[i + 1], dtype=np.float64))
        for seq in sequences
        for i in range(len(seq) - 1)
    ]
    # margin 0: inferred fields must cover the full training lattice
    icfg = InferConfig(
        margin=0,
        smoothness_weight=config.smoothness_weight,
        step_size=config.infer_step,
        max_iters=config.infer_iters,
        init="zeros",
    )

    # stage 2: infer fields with the initialized model.  Stages 2 and 3 take
    # at most infer_iters gradient steps on purpose: fields descended to
    # convergence sit at the model's objective minimum, which at desk scale
    # lies far from the true motion, and training on them raised scene EPE.
    fields, positions, stops = _descend_pairs(encoder, model, pairs, icfg)
    descents = [stops]
    grid_shapes = [tuple(map(len, lattice_axes(pos))) for pos in positions]

    # stage 3: alternate parameter updates and re-inference (warm-started)
    params = {"weights": encoder.weights.copy(), "motion": model.coeffs.copy()}
    state = AdamState.init(params)
    workspace = Workspace()
    rng = np.random.default_rng([tcfg.rng_seed, 3])

    triplets = [(img_t, img_t1, fld) for (img_t, img_t1), fld in zip(pairs, fields)]
    lam_s = config.smoothness_weight
    objectives = [_unsup_objective(encoder, model, triplets, lam_s, tcfg, grid_shapes, workspace)]
    field_changes = []
    for _ in range(config.rounds):
        _run_steps(
            params, state, triplets, encoder, model, tcfg, rng, config.steps_per_round, history, workspace
        )
        encoder, model = _rebuild(encoder, model, params["weights"], params["motion"])
        new_fields, _, stops = _descend_pairs(encoder, model, pairs, icfg, starts=fields)
        descents.append(stops)
        change = float(
            np.mean([np.mean(np.linalg.norm(nf - of, axis=1)) for nf, of in zip(new_fields, fields)])
        )
        fields = new_fields
        triplets = [(img_t, img_t1, fld) for (img_t, img_t1), fld in zip(pairs, fields)]
        field_changes.append(change)
        objectives.append(_unsup_objective(encoder, model, triplets, lam_s, tcfg, grid_shapes, workspace))
        if change < config.field_tol:
            break
    encoder, model = _rebuild(encoder, model, params["weights"].copy(), params["motion"].copy())
    diagnostics = {
        "objectives": objectives,
        "field_changes": field_changes,
        "history": history,
        "fields": fields,
        "positions": positions,
        "descents": descents,
    }
    return encoder, model, diagnostics


# ---------------------------------------------------------------------------
# checkpoints: one-line JSON header, then float64 little-endian blocks


def save_checkpoint(path, encoder: Encoder, model, extra: dict | None = None) -> None:
    if isinstance(model, NonParametricMotion):
        motion_meta = {
            "variant": "nonparametric",
            "grid": {"lo": model.grid.lo, "hi": model.grid.hi, "step": model.grid.step},
        }
    elif isinstance(model, MixedMotion):
        motion_meta = {
            "variant": "mixed",
            "grid": {"lo": model.grid.lo, "hi": model.grid.hi, "step": model.grid.step},
            "offsets": model.offsets.tolist(),
        }
    elif isinstance(model, ParametricMotion):
        motion_meta = {"variant": "parametric"}
    else:
        raise ShapeError(f"unknown motion model {type(model).__name__}")
    motion = _motion_params(model)
    header = {
        "format": "patchflow-checkpoint",
        "version": CHECKPOINT_VERSION,
        "encoder": {
            "num_blocks": encoder.num_blocks,
            "block_dim": encoder.block_dim,
            "patch_size": encoder.patch_size,
            "stride": encoder.stride,
        },
        "motion": motion_meta,
        "blocks": [
            {"name": "encoder.weights", "shape": list(encoder.weights.shape)},
            {"name": "motion.params", "shape": list(motion.shape)},
        ],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(encoder.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(motion, dtype="<f8").tobytes())


def _header_entry(meta, key: str, path):
    """``meta[key]`` of a checkpoint header; DataFormatError when it is missing."""
    if not isinstance(meta, dict) or key not in meta:
        raise DataFormatError(f"{path}: checkpoint header lacks {key!r}")
    return meta[key]


def _is_int(value, lo=-(2**31)) -> bool:
    """Whether a JSON value is an integer in [lo, 2**31) (a JSON true is not)."""
    return type(value) is int and lo <= value < 2**31


def _header_int(meta, key: str, path, lo: int = 1) -> int:
    """``meta[key]``, an integer of at least ``lo``."""
    value = _header_entry(meta, key, path)
    if not _is_int(value, lo):
        raise DataFormatError(f"{path}: checkpoint header {key!r} must be an integer >= {lo}, got {value!r}")
    return value


def _header_grid(mmeta, path) -> DisplacementGrid:
    """The displacement grid of a table model's motion entry."""
    gmeta = _header_entry(mmeta, "grid", path)
    bounds = [_header_entry(gmeta, key, path) for key in ("lo", "hi", "step")]
    if not all(type(v) in (int, float) and math.isfinite(v) for v in bounds):
        raise DataFormatError(f"{path}: checkpoint grid bounds must be finite numbers, got {bounds}")
    try:
        return DisplacementGrid(*bounds)
    except (ValueError, OverflowError) as exc:  # OverflowError: a span too wide to count its steps
        raise DataFormatError(f"{path}: bad checkpoint grid {bounds}: {exc}") from None


def _header_offsets(mmeta, path) -> np.ndarray:
    """The mixing support of a mixed model's motion entry, which holds the zero offset."""
    offsets = _header_entry(mmeta, "offsets", path)
    pairs = isinstance(offsets, list) and offsets and all(isinstance(o, list) and len(o) == 2 for o in offsets)
    if not pairs or not all(_is_int(v) for o in offsets for v in o):
        raise DataFormatError(f"{path}: checkpoint offsets must be a non-empty list of integer pairs")
    if [0, 0] not in offsets:
        raise DataFormatError(f"{path}: checkpoint offsets lack the zero offset")
    return np.asarray(offsets, dtype=np.int64)


def load_checkpoint(path):
    """Returns (encoder, model, header).

    Every header entry the model needs is checked before the parameter
    blocks are read, and the blocks' shapes against the encoder and motion
    entries; a header that is not a checkpoint's, a body of another length
    or non-finite parameters raise DataFormatError."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(raw[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint header") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format") != "patchflow-checkpoint":
        raise DataFormatError(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"{path}: checkpoint version {header.get('version')} != {CHECKPOINT_VERSION}"
        )
    blocks = _header_entry(header, "blocks", path)
    emeta = _header_entry(header, "encoder", path)
    mmeta = _header_entry(header, "motion", path)
    variant = _header_entry(mmeta, "variant", path)
    if variant not in ("nonparametric", "mixed", "parametric"):
        raise DataFormatError(f"{path}: unknown motion variant {variant!r}")
    k, d = _header_int(emeta, "num_blocks", path), _header_int(emeta, "block_dim", path)
    p, stride = _header_int(emeta, "patch_size", path), _header_int(emeta, "stride", path)
    if stride > p:
        raise DataFormatError(f"{path}: checkpoint stride {stride} exceeds patch_size {p}")
    if variant == "parametric":
        motion_shape = [5, k, d, d]
    else:
        grid = _header_grid(mmeta, path)
        motion_shape = [grid.num_candidates, k, d, d]
    if variant == "mixed":
        offsets = _header_offsets(mmeta, path)
        motion_shape.insert(1, len(offsets))
    if not isinstance(blocks, list) or len(blocks) != 2:
        raise DataFormatError(f"{path}: checkpoint header needs two parameter blocks")
    body = raw[nl + 1 :]
    arrays = []
    offset = 0
    for block, shape in zip(blocks, ([k, d, p * p], motion_shape)):
        stated = _header_entry(block, "shape", path)
        if not (isinstance(stated, list) and all(type(n) is int for n in stated) and stated == shape):
            raise DataFormatError(
                f"{path}: parameter block {block.get('name')!r} has shape {stated!r}; the header's "
                f"encoder and motion entries give {shape}"
            )
        end = offset + 8 * math.prod(shape)
        if end > len(body):
            raise DataFormatError(f"{path}: truncated parameter block {block.get('name')}")
        array = np.frombuffer(body[offset:end], dtype="<f8").reshape(shape).copy()
        if not np.all(np.isfinite(array)):
            raise DataFormatError(f"{path}: parameter block {block.get('name')} has non-finite entries")
        arrays.append(array)
        offset = end
    if offset != len(body):
        raise DataFormatError(f"{path}: trailing bytes after parameter blocks")
    weights, motion = arrays
    encoder = Encoder(weights, p, stride)
    if variant == "nonparametric":
        model = NonParametricMotion(grid, motion)
    elif variant == "mixed":
        model = MixedMotion(grid, offsets, motion)
    else:
        model = ParametricMotion(motion)
    return encoder, model, header

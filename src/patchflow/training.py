"""Closed-form gradients of the weighted loss, Adam, and the training loops.

No autodiff anywhere: the gradients of the rotation and reconstruction
losses are derived analytically and verified against finite differences in
the test-suite.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DisplacementGrid,
    Encoder,
    GridSpec,
    MixedMotion,
    ParametricMotion,
    _patch_indices,
    _smoothness_value_grad,
    eval_positions,
    gather_at,
    lattice_axes,
    overlap_add_at,
    predict,
    predict_adjoint,
    support_centers,
    support_offsets,
)
from .datagen import DeformSpec, gen_v1deform
from .errors import DataFormatError, GridLookupError, NumericError, ShapeError, TrainingDiverged
from .inference import InferConfig, infer_pairs

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
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("weight_rotation", "weight_reconstruction", "weight_norm_stability"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.num_steps < 0:
            raise ValueError(f"num_steps must be at least 0, got {self.num_steps}")
        GridSpec(self.patch_size, self.stride)  # checks the patch size and stride
        DisplacementGrid(self.delta_lo, self.delta_hi, self.delta_step)  # checks the candidate grid
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

    Each parameter is updated in blocks of ADAM_BLOCK entries, through two
    block-sized scratch buffers that replace the textbook temporaries; every
    product and sum is the textbook one, in the same order, so the bits are the
    same.  A parameter or moment that is not C-ordered raises ShapeError: its
    flat view would be a copy, and the update would be lost.
    """
    state.step += 1
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key}")
        if not all(x.flags.c_contiguous for x in (p, state.m[key], state.v[key])):
            raise ShapeError(f"Adam updates C-ordered arrays in place; {key} or its moments are not C-ordered")
        flat = [x.reshape(-1) for x in (p, g, state.m[key], state.v[key])]
        a, b = np.empty((2, min(p.size, ADAM_BLOCK)))
        for lo in range(0, p.size, ADAM_BLOCK):
            n = min(ADAM_BLOCK, p.size - lo)
            _adam_update(*(x[lo : lo + n] for x in flat), a[:n], b[:n], state.step, config)


# ---------------------------------------------------------------------------
# model construction


def init_model(config: TrainConfig, rng) -> tuple[Encoder, object]:
    """Gaussian 1/p encoder and a no-motion initial model."""
    encoder = Encoder.random(
        config.num_blocks, config.block_dim, config.patch_size, config.stride, rng=rng
    )
    if config.motion_variant == "parametric":
        return encoder, ParametricMotion.zeros(config.num_blocks, config.block_dim)
    # the nonparametric table is the mixed one on the zero offset alone
    if config.motion_variant == "mixed":
        offsets = support_offsets(config.support_radius, config.support_step)
    else:
        offsets = support_offsets(0, 1)
    return encoder, MixedMotion.identity(config.displacement_grid, offsets, config.num_blocks, config.block_dim)


# ---------------------------------------------------------------------------
# analytic gradient of the weighted loss


# bytes of a chunk's support patch stack: 4 desk mixed frames, 39 table ones
CHUNK_BYTES = 4_000_000


class Workspace:
    """Buffers that the gradient calls of one training run share: a chunk's
    frames, its patch stack, their codes and the codes' gradient, the
    per-position block matrices and the motion gradient, and the index plan
    of each frame size (`_IndexPlan`).

    An array of a few MB allocated afresh on every step goes back to the OS
    when it is freed and is faulted in again on the next step; a buffer kept
    for the run, grown to the largest array asked of it, is not.  Each request
    returns a view of exactly the requested shape, which the caller writes in
    full before reading it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self.plans: dict[tuple, _IndexPlan] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = int(np.prod(shape))
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _motion_gradient(model, workspace: Workspace) -> np.ndarray:
    """A zeroed motion gradient in ``workspace``, shaped as the model's ``params``."""
    grad = workspace.array("d_motion", model.params.shape)
    grad.fill(0.0)
    return grad


def _weighted(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``x`` (B, ...) with each frame's entries times its count."""
    return x * counts.reshape((-1,) + (1,) * (x.ndim - 1))


@dataclass(frozen=True)
class _IndexPlan:
    """The index arrays of `_group_gradient` for one frame size.  A chunk of b frame pairs
    gathers one patch stack: the lattice of its b frames t, then the lattice of its b frames
    t+1, then the support centers of its frames t that are off the lattice, frame by frame
    (none for a table or parametric model, whose support is the lattice).  Without the
    rotation terms the stack is the two lattices alone and the other entries are unset."""

    idx_lattice: np.ndarray  # patch-pixel indices of the lattice: the gather of both frames, the canvas form
    idx_off: np.ndarray  # and of frame t's support centers off the lattice, (U, p*p)
    n: int = 0  # evaluation positions
    frames: int | None = None  # frames per chunk; None: the whole group in one
    rows: np.ndarray | None = None  # the evaluation positions' rows in a frame's lattice
    # where support vector (position i, offset j) of frame f of a chunk of b frames sits in
    # the chunk's stack: row base + f*step + b*jump, each (N, m)
    support: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    places: np.ndarray | None = None  # `_support_places` of a chunk of ``frames`` frames


def _support_places(support, b: int, k: int, d: int) -> np.ndarray:
    """Flat places (b, N, K, m, d) of the support vectors of a chunk of b frames among its
    codes (rows, K*d), from `_IndexPlan.support`."""
    base, step, jump = support
    rows = base + b * jump + np.arange(b)[:, None, None] * step
    return rows[:, :, None, :, None] * (k * d) + (np.arange(k)[:, None, None] * d + np.arange(d))


def _index_plan(encoder, model, shape, rotation: bool) -> _IndexPlan:
    """The `_IndexPlan` of frames of ``shape``: a function of the frame shape, the
    patch size and stride, the block sizes, the model's support, whether the rotation
    terms run and CHUNK_BYTES, and of no parameter or pixel."""
    k, d, q = encoder.weights.shape
    p = encoder.patch_size
    lattice = encoder.grid.positions(*shape)
    idx_lattice = _patch_indices(shape, lattice, p)
    if not rotation:
        return _IndexPlan(idx_lattice, idx_lattice[:0])
    pos = eval_positions(encoder, model, shape)
    uniq, inverse = support_centers(encoder, shape, pos, model.offsets)
    frames = max(1, CHUNK_BYTES // (8 * q * len(uniq)))
    # the lattice is row-major, so its flat pixel indices are sorted
    flat = lattice[:, 0] * shape[1] + lattice[:, 1]
    keys = uniq[:, 0] * shape[1] + uniq[:, 1]
    at = np.searchsorted(flat, keys).clip(max=len(flat) - 1)
    off = flat[at] != keys  # the centers off the lattice
    n_lat, n_off = len(lattice), int(np.count_nonzero(off))
    base = np.where(off, np.cumsum(off) - 1, at)[inverse]  # a center's row in its frame's lattice or off it
    rows = np.searchsorted(flat, pos[:, 0] * shape[1] + pos[:, 1])
    off_at = off[inverse]
    support = (base, np.where(off_at, n_off, n_lat), np.where(off_at, 2 * n_lat, 0))
    idx_off = _patch_indices(shape, uniq[off], p)
    return _IndexPlan(idx_lattice, idx_off, len(pos), frames, rows, support, _support_places(support, frames, k, d))


def _overlap_shifts(patch_size: int, stride: int) -> list[tuple[int, int]]:
    """The lattice shifts (dy, dx) at which two patches overlap, |dy| and |dx| times the
    stride below the patch size: the zero shift, the half of the others that leads with
    dy > 0 or dx > 0, then their negatives in the same order."""
    m = (patch_size - 1) // stride
    half = [(dy, dx) for dy in range(m + 1) for dx in range(-m, m + 1) if dy > 0 or dx > 0]
    return [(0, 0)] + half + [(-dy, -dx) for dy, dx in half]


def _code_space(num_blocks: int, block_dim: int, patch_size: int, stride: int) -> bool:
    """Whether `_reconstruction` takes the code-space form, from the model's shape alone.
    The rule counts multiplies per lattice position besides the patch-side product Kd·p²,
    which the caller takes for every term at once: code space takes (n + (n+1)/2)·(Kd)² for
    the n overlap shifts, the canvases 3·Kd·p² (the decode, the error re-encode and the
    synthesis product), and at p = 16, stride 8, d = 2 code space takes fewer up to K=27.
    Timed on one stack of 64 64×64 frames, both frames of 32 pairs (p = 16, stride 8, one
    BLAS thread, a 2-core shared VM, fastest of 200 calls, two processes a form), the term
    took 3.3–3.4 ms in code space against 8.1–8.2 ms on canvases at the desk preset, K=10;
    9.9–10.0 against 9.9–10.0 at K=24; 13.6–13.9 against 11.5–12.3 at K=27; 12.4–13.2
    against 10.6–11.3 at K=28; and 20.9–22.4 against 12.8 at the K=40 default.  So the
    timings cross a little below the rule's line, between K=24 and K=27."""
    n = len(_overlap_shifts(patch_size, stride))
    kd, q = num_blocks * block_dim, patch_size * patch_size
    return (n + (n + 1) // 2) * kd * kd < 3 * kd * q


def _shift_slices(shift: int, length: int) -> tuple[slice, slice]:
    """Along an axis of ``length``: the slice of the places i with i + ``shift`` on the
    axis, and the slice of those i + ``shift`` (both empty when none is)."""
    lo = max(-shift, 0)
    hi = max(length - max(shift, 0), lo)
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _reconstruction(encoder, shape, lam: float, idx: np.ndarray):
    """The reconstruction term λ Σ_f c_f ‖x_f − Σ_x Wᵀv_f(x)‖² of one `_group_gradient` call,
    over stacks of frames x_f of ``shape`` weighted by their counts c_f, in the form that
    `_code_space` picks; ``idx`` holds the lattice's patch-pixel indices.  Either form's
    ``stack`` takes one stack's term, sets its gradient in the stack's lattice codes (the
    patch side, whose product with the patches is the caller's) and adds what it can of the
    synthesis side to the weight gradient; ``finish`` adds the rest once the call's stacks
    are in."""
    k, d, _ = encoder.weights.shape
    form = _CodeReconstruction if _code_space(k, d, encoder.patch_size, encoder.stride) else _CanvasReconstruction
    return form(encoder, shape, lam, idx)


class _CanvasReconstruction:
    """The reconstruction term on canvases: decode the lattice codes, overlap-add them, and
    gather and re-encode the weighted error's patches."""

    def __init__(self, encoder, shape, lam: float, idx: np.ndarray):
        k, d, q = encoder.weights.shape
        self.w2, self.lam, self.shape, self.idx = encoder.weights.reshape(k * d, q), lam, shape, idx

    def stack(self, imgs, v, counts, g, dw2, workspace) -> float:
        """The term of frames ``imgs`` (B, H, W) whose lattice codes are ``v`` (B·N, Kd), each
        frame weighted by its count.  Unless ``g`` is None, sets ``g`` (B·N, Kd) to the
        gradient in ``v`` through the patches, −2λ W e(x) of the weighted error's patches
        e(x), and adds the synthesis side −2λ Σ_x v(x) e(x)ᵀ to ``dw2`` (Kd, p·p)."""
        b, q = len(imgs), self.w2.shape[1]
        # one buffer holds the decoded patches, then the error's
        patches = np.matmul(v, self.w2, out=workspace.array("rec_patches", (len(v), q)))
        e = imgs - overlap_add_at(patches.reshape(b, -1, q), self.idx, self.shape)
        e_w = _weighted(e, counts)
        loss = self.lam * float(np.sum(e_w * e))
        if g is not None:
            e_flat = gather_at(e_w, self.idx, out=patches.reshape(b, len(self.idx), q)).reshape(len(v), q)
            dw2 += -2.0 * self.lam * (v.T @ e_flat)
            np.matmul(e_flat, self.w2.T, out=g)
            g *= -2.0 * self.lam
        return loss

    def finish(self, dw2) -> None:
        """Nothing: each stack's synthesis side is whole."""


class _CodeReconstruction:
    """The reconstruction term in code space, never forming an image (the frame-operator
    identity).  With T_δ the overlap selection of two patches δ lattice steps apart (δ over
    `_overlap_shifts`), Z_δ = W T_δᵀ, W shifted by δ·stride within the patch, and
    S_δ = W T_δ Wᵀ = W Z_δᵀ, a frame's term is ‖x‖² − 2Σ_x‖v(x)‖² + Σ_x v(x)·u(x),
    u(x) = Σ_δ S_δ v(x+δ) (codes off the lattice are zero).  The last sum is Σ_δ ⟨S_δ, Q_δ⟩
    with Q_δ = Σ_x c v(x) v(x+δ)ᵀ and Q_−δ = Q_δᵀ, so the loss takes the products of the
    zero shift and half the others.  The gradient in the codes is 2λc(U − 2V), and in W the
    synthesis side 2λ Σ_δ Q_δ Z_δ over the whole call, which `finish` adds.  Its sums
    cancel: their rounding is about 1e-16·‖x‖², not relative to the error."""

    def __init__(self, encoder, shape, lam: float, idx: np.ndarray):
        k, d, q = encoder.weights.shape
        kd, p, s = k * d, encoder.patch_size, encoder.stride
        self.w2, self.lam = encoder.weights.reshape(kd, q), lam
        self.lattice = ny, nx = tuple(map(len, lattice_axes(encoder.grid.positions(*shape))))
        self.shifts = _overlap_shifts(p, s)
        n, self.half = len(self.shifts), (len(self.shifts) + 1) // 2
        # per shift, the lattice places x with x + δ on the lattice, and those x + δ
        self.slices = [(*_shift_slices(dy, ny), *_shift_slices(dx, nx)) for dy, dx in self.shifts]
        w3 = self.w2.reshape(kd, p, p)
        z = np.zeros((n, kd, p, p))
        for j, (dy, dx) in enumerate(self.shifts):  # Z_δ[:, y, x] = W[:, y - dy·s, x - dx·s]
            (yt, ys), (xt, xs) = _shift_slices(-dy * s, p), _shift_slices(-dx * s, p)
            z[j, :, yt, xt] = w3[:, ys, xs]
        self.synthesis = z.reshape(n * kd, q)  # Z_δ stacked in shift order
        self.gram = (self.synthesis @ self.w2.T).reshape(n, kd, kd)  # S_δᵀ = Z_δ Wᵀ: v @ S_δᵀ = S_δ v
        # the loss's ⟨S_δ, Q_δ⟩, twice for a δ that stands for -δ too; -2Σ‖v‖² is -2 tr Q_0
        self.loss_gram = 2.0 * self.gram[: self.half].transpose(0, 2, 1)
        self.loss_gram[0] = self.gram[0].T - 2.0 * np.eye(kd)
        self.pairs = np.zeros((self.half, kd, kd))  # Q_δ of the zero shift and the leading half

    def stack(self, imgs, v, counts, g, dw2, workspace) -> float:
        """As `_CanvasReconstruction.stack`, ``g`` set to 2λc(U − 2V) and the synthesis side
        left to `finish`."""
        b, lam = len(imgs), self.lam
        kd = v.shape[1]
        grid = v.reshape((b,) + self.lattice + (kd,))
        c_grid = _weighted(grid, counts)
        pairs = np.empty_like(self.pairs)
        for j, (yi, yj, xi, xj) in enumerate(self.slices[: self.half]):  # dy >= 0
            np.matmul(c_grid[:, yi, xi].reshape(-1, kd).T, grid[:, yj, xj].reshape(-1, kd), out=pairs[j])
        energy = np.einsum("bij,bij->b", imgs, imgs)
        loss = lam * (float(counts @ energy) + float(np.vdot(self.loss_gram, pairs)))
        if g is None:
            return loss
        self.pairs += pairs
        u = np.multiply(grid, -2.0, out=g.reshape(grid.shape))  # U - 2V
        each = workspace.array("shifted_codes", v.shape)  # one shift's S_δ v at a time
        for gram, (yi, yj, xi, xj) in zip(self.gram, self.slices):
            np.matmul(v, gram, out=each)
            u[:, yi, xi] += each.reshape(grid.shape)[:, yj, xj]
        u *= (2.0 * lam * counts)[:, None, None, None]
        return loss

    def finish(self, dw2) -> None:
        """Add the synthesis side of the gradient, 2λ Σ_δ Q_δ Z_δ over the stacks, to ``dw2``."""
        kd = len(self.w2)
        every = np.concatenate([self.pairs, self.pairs[1:].transpose(0, 2, 1)])  # Q_δ in shift order
        dw2 += 2.0 * self.lam * (every.transpose(1, 0, 2).reshape(kd, -1) @ self.synthesis)


def _group_gradient(encoder, model, imgs_t, imgs_t1, deltas, counts, config, d_weights, d_motion, workspace):
    """Accumulate loss and gradients for a batch group sharing one image size;
    with ``d_weights`` and ``d_motion`` None, the loss alone.  ``imgs_t``,
    ``imgs_t1`` and ``deltas`` are sequences of the group's frames and fields.

    ``counts`` (one float per frame) weights each frame's rotation
    residual, norm-stability term and reconstruction error before they enter
    the loss and the products, so that a frame counts as that many copies of
    itself; a count of 1 multiplies by 1.0, which changes no bit.

    It runs in chunks of frames whose support patch stack fits in CHUNK_BYTES.
    Each chunk gathers one patch stack A, laid out as ``workspace``'s
    `_IndexPlan` of the frame size says (built on the first call that meets
    it): the lattice of its frames t and t+1, then frame t's support centers
    off the lattice, of which table and parametric models have none.  One
    product encodes it, V = A Wᵀ, into ``workspace``'s buffers.  Every term
    puts its gradient in the codes into one buffer G aligned with V: the
    reconstruction term (`_reconstruction`'s, built once per call) sets both
    lattices' rows, then the prediction's adjoint adds at the support vectors,
    the rotation target at frame t+1's evaluation positions and norm stability
    at frame t's.  The weight gradient gains one product Gᵀ A per chunk, and
    the reconstruction term's synthesis side.

    Every model runs the same forward pass over its support (the zero offset
    alone for table and parametric models), on one set of per-position block
    matrices per chunk for `predict`, its adjoint and the motion gradient: the
    model's lookup (`support_matrices`) into ``workspace``'s buffer.  The
    per-position matrix gradients g_m overwrite that buffer, and the model's
    `add_gradient` takes them into ``d_motion``, shaped as its ``params``.  The
    loss alone takes the same forward pass and sums, without G, the adjoint and
    motion products or the reconstruction's gradient work.
    """
    w = encoder.weights
    k, d, q = w.shape
    kd = k * d
    w2 = w.reshape(kd, q)
    shape = np.shape(imgs_t[0])
    lam_rot = config.weight_rotation
    lam_rec = config.weight_reconstruction
    lam_ns = config.weight_norm_stability
    rotation = lam_rot > 0 or lam_ns > 0
    gradient = d_weights is not None
    key = (shape, encoder.patch_size, encoder.stride, k, d, model.offsets.tobytes(), rotation, CHUNK_BYTES)
    plan = workspace.plans.get(key)
    if plan is None:
        plan = workspace.plans[key] = _index_plan(encoder, model, shape, rotation)
    loss, frames = 0.0, plan.frames or len(imgs_t)
    n, n_lat, n_off = plan.n, len(plan.idx_lattice), len(plan.idx_off)
    dw2 = d_weights.reshape(kd, q) if gradient else None
    rec = _reconstruction(encoder, shape, lam_rec, plan.idx_lattice) if lam_rec > 0 else None
    if rotation:
        for vec in deltas:
            if np.shape(vec) != (n, 2):
                raise ShapeError(f"a field has shape {np.shape(vec)}, evaluation grid has {n} positions")

    for c in range(0, len(imgs_t), frames):
        b = min(frames, len(imgs_t) - c)
        lat = 2 * b * n_lat  # the rows of both frames' lattices
        imgs = np.stack([*imgs_t[c : c + b], *imgs_t1[c : c + b]], out=workspace.array("imgs", (2 * b,) + shape))
        ch_c = counts[c : c + b]
        a = workspace.array("patches", (lat + b * n_off, q))
        gather_at(imgs, plan.idx_lattice, out=a[:lat].reshape(2 * b, n_lat, q))
        if n_off:
            gather_at(imgs[:b], plan.idx_off, out=a[lat:].reshape(b, n_off, q))
        v = np.matmul(a, w2.T, out=workspace.array("codes", (len(a), kd)))
        # the codes' gradient; the rows off the lattice are the prediction adjoint's alone
        g = workspace.array("code_gradient", v.shape) if gradient else None
        if rec is not None:
            loss += rec.stack(imgs, v[:lat], np.concatenate([ch_c, ch_c]), None if g is None else g[:lat], dw2, workspace)
        elif gradient:
            g[:lat].fill(0.0)

        if rotation:
            v_t, v_t1 = v[: b * n_lat].reshape(b, n_lat, kd), v[b * n_lat : lat].reshape(b, n_lat, kd)
            ch_d = np.stack(deltas[c : c + b], out=workspace.array("deltas", (b, n, 2)))
            places = plan.places if b == frames else _support_places(plan.support, b, k, d)
            right = np.take(v, places)  # (B, N, K, m, d)
            out = workspace.array("blocks", (b, n, k, d, len(model.offsets) * d))
            blocks = model.support_matrices(ch_d, out)  # (B, N, K, d, m*d)
            pred = predict(blocks, right.reshape(b, n, k, -1))  # (B, N, K, d)

            r = v_t1[:, plan.rows].reshape(b, n, k, d) - pred
            r_w = _weighted(r, ch_c)
            loss += lam_rot * float(np.sum(r_w * r))
            if lam_ns > 0:
                v_x = v_t[:, plan.rows].reshape(b, n, k, d)
                ns = np.sum(pred * pred, axis=3) - np.sum(v_x * v_x, axis=3)  # (B, N, K)
                ns_w = _weighted(ns, ch_c)
                loss += lam_ns * float(np.sum(ns_w * ns))
            if gradient:
                d_pred = -2.0 * lam_rot * r_w
                if lam_ns > 0:
                    d_pred = d_pred + 4.0 * lam_ns * ns_w[..., None] * pred
                # back through the prediction: M^T d_pred per offset, added at the support vectors
                mt_g = predict_adjoint(blocks, d_pred)  # (B, N, K, m*d)
                s = np.bincount(places.ravel(), weights=mt_g.ravel(), minlength=g.size).reshape(g.shape)
                g[:lat] += s[:lat]
                g[lat:] = s[lat:]
                g_t, g_t1 = g[: b * n_lat].reshape(b, n_lat, kd), g[b * n_lat : lat].reshape(b, n_lat, kd)
                g_t1[:, plan.rows] += (2.0 * lam_rot * r_w).reshape(b, n, kd)  # the rows are distinct
                if lam_ns > 0:
                    g_t[:, plan.rows] += (-4.0 * lam_ns * ns_w[..., None] * v_x).reshape(b, n, kd)
                # per position, the matrix set's gradient in the lookup's layout, over the spent
                # blocks: the outer product d_pred vᵀ per block, as an einsum, which on 2x2 blocks
                # runs about three times faster than a broadcast multiply
                g_m = np.einsum("...i,...j->...ij", d_pred, right.reshape(b, n, k, -1), out=blocks).reshape(b * n, -1)
                model.add_gradient(d_motion, ch_d, g_m)
        if gradient:
            dw2 += g.T @ a
    if rec is not None and gradient:
        rec.finish(dw2)
    return loss


def size_groups(images) -> list[list[int]]:
    """Indices of ``images`` grouped by image size, in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, img in enumerate(images):
        groups.setdefault(np.shape(img), []).append(i)
    return list(groups.values())


def _batch_sums(encoder, model, batch, config, workspace, counts, gradient: bool):
    """(loss, d_weights, d_motion) of `grad_total`, or (loss, None, None) when not ``gradient``."""
    if not batch:
        raise ShapeError("empty batch")
    if workspace is None:
        workspace = Workspace()
    counts = np.ones(len(batch)) if counts is None else np.asarray(counts, dtype=np.float64)
    if counts.shape != (len(batch),):
        raise ShapeError(f"{counts.shape} counts for a batch of {len(batch)}")
    d_weights = np.zeros_like(encoder.weights) if gradient else None
    d_motion = _motion_gradient(model, workspace) if gradient else None
    loss = 0.0
    for members in size_groups([img_t for img_t, _, _ in batch]):
        imgs_t, imgs_t1, deltas = ([batch[i][j] for i in members] for j in range(3))
        loss += _group_gradient(
            encoder, model, imgs_t, imgs_t1, deltas, counts[members], config, d_weights, d_motion, workspace
        )
    scale = 1.0 / float(counts.sum())
    loss *= scale
    if gradient:
        d_weights *= scale
        d_motion *= scale
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r} (check inputs and learning rate)")
    return loss, d_weights, d_motion


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
    loss, d_weights, d_motion = _batch_sums(encoder, model, batch, config, workspace, counts, gradient=True)
    return GradientBundle(d_weights, d_motion), loss


def batch_loss(encoder, model, batch, config: TrainConfig, workspace: Workspace | None = None, counts=None) -> float:
    """The loss that `grad_total` returns for the same arguments, bit for bit,
    without computing the gradient."""
    return _batch_sums(encoder, model, batch, config, workspace, counts, gradient=False)[0]


# ---------------------------------------------------------------------------
# supervised training


def prepare_dataset(dataset, encoder, model) -> list:
    """(image_t, image_t1, deltas) triplets of `SamplePair`s: each dense field
    sampled on the evaluation lattice, snapped to the model's candidates if it has a grid.

    Snapping needs every sampled component to round onto the candidate grid;
    data that reaches past it raises DataFormatError naming both ranges.
    """
    prepared = []
    cache: dict[tuple[int, int], np.ndarray] = {}
    for sample in dataset:
        img_t = np.asarray(sample.image_t, dtype=np.float64)
        pos = cache.get(img_t.shape)
        if pos is None:
            pos = eval_positions(encoder, model, img_t.shape)
            cache[img_t.shape] = pos
        vec = sample.field[pos[:, 0], pos[:, 1]]
        prepared.append((img_t, np.asarray(sample.image_t1, dtype=np.float64), vec))
    grid = model.grid
    if grid is not None and prepared:
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


def _run_steps(params, state, prepared, encoder, model, config, rng, num_steps, history, workspace):
    """Adam steps on ``params``, the arrays of ``encoder`` and ``model``, updated in place."""
    for _ in range(num_steps):
        take = rng.integers(0, len(prepared), size=config.batch_size)
        # a triplet drawn more than once is evaluated once, weighted by its count
        distinct, first, counts = np.unique(take, return_index=True, return_counts=True)
        order = np.argsort(first)
        batch = [prepared[i] for i in distinct[order]]
        try:
            bundle, loss = grad_total(encoder, model, batch, config, workspace, counts[order])
        except NumericError as exc:
            raise TrainingDiverged(str(exc), history) from exc
        history.append(loss)
        adam_step(params, {"weights": bundle.d_weights, "motion": bundle.d_motion}, state, config)


def train_supervised(dataset, config: TrainConfig):
    """Train encoder and motion model on `SamplePair`s.

    Returns (encoder, model, per-step loss history).  Identical config and
    seed give an identical history and identical parameters.
    """
    rng = np.random.default_rng(config.rng_seed)
    encoder, model = init_model(config, rng)
    prepared = prepare_dataset(dataset, encoder, model)
    del dataset  # the triplets hold the frames; a caller that passed its only reference frees the fields
    if not prepared:
        raise ShapeError("empty dataset")
    # Adam updates the initial model's arrays in place
    params = {"weights": encoder.weights, "motion": model.params}
    state = AdamState.init(params)
    history: list[float] = []
    _run_steps(params, state, prepared, encoder, model, config, rng, config.num_steps, history, Workspace())
    return encoder, model, history


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
        if self.smoothness_weight < 0:
            raise ValueError(f"smoothness_weight must be at least 0, got {self.smoothness_weight}")
        # the stage-1 TrainConfig and the InferConfig of stages 2 and 3 are built mid-run
        for name in ("init_steps", "steps_per_round", "rounds", "infer_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")


def _unsup_objective(encoder, model, triplets, lam_s, config, grid_shapes, workspace):
    """Mean over the pairs of the weighted loss and the fields' smoothness: one batched loss call,
    without the gradient."""
    obj = batch_loss(encoder, model, triplets, config, workspace)
    if lam_s > 0:
        smooth = [_smoothness_value_grad(fld, shape, gradient=False)[0] for (*_, fld), shape in zip(triplets, grid_shapes)]
        obj += lam_s * float(np.sum(smooth)) / len(triplets)
    return obj


def train_unsupervised(sequences, config: UnsupervisedConfig):
    """Three stages: self-deformed init, inference, then alternation.

    Returns (encoder, model, diagnostics) with per-round objective values,
    mean field changes, and the (iterations, stop reason) of each pair's
    descent in stage 2 and in each round of stage 3, in the diagnostics dict.
    """
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
    stage1_cfg = replace(tcfg, num_steps=config.init_steps)
    # passed as the only reference, so the pairs go once their fields are sampled
    encoder, model, history = train_supervised(gen_v1deform(frames, config.init_pairs, deform), stage1_cfg)

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
    positions, fields, stops = infer_pairs(encoder, model, pairs, icfg, newton=False)
    descents = [stops]
    grid_shapes = [tuple(map(len, lattice_axes(pos))) for pos in positions]

    # stage 3: alternate parameter updates and re-inference (warm-started); Adam
    # updates stage 1's arrays in place, after the first objective has read them
    params = {"weights": encoder.weights, "motion": model.params}
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
        _, new_fields, stops = infer_pairs(encoder, model, pairs, icfg, newton=False, starts=fields)
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
    """The model's motion entry and block are its `checkpoint_entry`."""
    motion_meta, motion = model.checkpoint_entry()
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
        for array in (encoder.weights, motion):  # a mixed table's view copied once, no bytes copy
            fh.write(np.ascontiguousarray(array, dtype="<f8").data)


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


# bytes of the buffer through which `_read_block` reads a parameter block
READ_BUFFER_BYTES = 1 << 20


def _read_block(fh, array, name, path) -> None:
    """Fill ``array`` (a mixed table's is the (C, m, K, d, d) view of its rows) with the next
    float64 little-endian entries of ``fh``, in the C order of its shape, through a buffer of
    about READ_BUFFER_BYTES.  A short read or a non-finite entry raises DataFormatError."""
    step = max(1, READ_BUFFER_BYTES // array[0].nbytes)
    buf = np.empty((min(step, len(array)),) + array.shape[1:], dtype="<f8")
    for lo in range(0, len(array), step):
        part = buf[: len(array) - lo]
        if fh.readinto(memoryview(part).cast("B")) != part.nbytes:
            raise DataFormatError(f"{path}: truncated parameter block {name}")
        if not np.all(np.isfinite(part)):
            raise DataFormatError(f"{path}: parameter block {name} has non-finite entries")
        array[lo : lo + step] = part


def load_checkpoint(path):
    """Returns (encoder, model, header).

    Every header entry the model needs is checked before the parameter
    blocks are read, and the blocks' shapes against the encoder and motion
    entries; a header that is not a checkpoint's, a body of another length
    or non-finite parameters raise DataFormatError.  Each block is read from
    the file into its array through a buffer of about READ_BUFFER_BYTES, so
    loading holds the body once."""
    with open(path, "rb") as fh:
        return _read_checkpoint(fh, path)


def _read_checkpoint(fh, path):
    """`load_checkpoint` of the checkpoint open as ``fh``."""
    line = fh.readline()
    body_size = os.fstat(fh.fileno()).st_size - len(line)
    if not line.endswith(b"\n"):
        raise DataFormatError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(line[:-1].decode())
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
        # a nonparametric table is the mixed one on the zero offset alone
        offsets = _header_offsets(mmeta, path) if variant == "mixed" else support_offsets(0, 1)
        motion_shape = [grid.num_candidates, k, d, d]
        if variant == "mixed":
            motion_shape.insert(1, len(offsets))
    if not isinstance(blocks, list) or len(blocks) != 2:
        raise DataFormatError(f"{path}: checkpoint header needs two parameter blocks")
    offset = 0
    for block, shape in zip(blocks, ([k, d, p * p], motion_shape)):
        stated = _header_entry(block, "shape", path)
        if not (isinstance(stated, list) and all(type(n) is int for n in stated) and stated == shape):
            raise DataFormatError(
                f"{path}: parameter block {block.get('name')!r} has shape {stated!r}; the header's "
                f"encoder and motion entries give {shape}"
            )
        offset += 8 * math.prod(shape)
        if offset > body_size:  # allocate only what the file can fill
            raise DataFormatError(f"{path}: truncated parameter block {block.get('name')}")
    if offset != body_size:
        raise DataFormatError(f"{path}: trailing bytes after parameter blocks")
    weights = np.empty((k, d, p * p))
    if variant == "parametric":
        model = ParametricMotion(np.empty(motion_shape))
    else:  # a new table, read into its rows through the block that its checkpoint entry views
        model = MixedMotion(grid, offsets, np.moveaxis(np.empty((grid.num_candidates, k, d, len(offsets), d)), 3, 1))
    for block, array in zip(blocks, (weights, model.checkpoint_entry()[1])):
        _read_block(fh, array, block.get("name"), path)
    return Encoder(weights, p, stride), model, header

"""References that tests compare the program's paths against: the descent
objective's matrix form, which the polynomial residual must equal, and the
einsum that built its products u_j = B_j v0, which the set-up must equal bit
for bit; grid scoring as one whole prediction reduced in its layout, which the
block-wise scores must equal bit for bit, and the program's block-wise scores
of a stack of frames; the one-frame prediction from `core`'s gather, lookup
and product; the per-delta matrix lookup and the
recurrent multi-frame alignment of the paper built on it; the rotation loss on
one frame pair and the batch loss of a training step, which training's
gradient is probed and checked against; the reconstruction term straight from
the canvases, which both of training's forms of it must equal; and one pair's
inference, the stack of one of each stacked path, which every stack of pairs
must equal pair by pair.  `ZeroSupportTable` builds the nonparametric model,
the table motion model on the zero offset alone; `block_layout` lays matrix
sets out as `predict` reads them, and `table_view` shows a table's block rows,
or its gradient, in the checkpoint's (C, m, K, d, d) order."""

import numpy as np

from patchflow.core import (
    DisplacementField,
    MixedMotion,
    ParametricMotion,
    encode,
    extract_patches,
    offset_encodings,
    overlap_add,
    polynomial_matrices,
    predict,
    support_offsets,
)
from patchflow.inference import _score_pairs, infer_grid_stack, infer_parametric_stack
from patchflow.training import grad_total


class ZeroSupportTable:
    """The nonparametric model: a `MixedMotion` whose support is the zero offset
    alone, built from one (C, K, d, d) matrix per candidate, or as the identity."""

    def __new__(cls, grid, matrices):
        return MixedMotion(grid, support_offsets(0, 1), np.asarray(matrices, dtype=np.float64)[:, None])

    @staticmethod
    def identity(grid, num_blocks, block_dim):
        return MixedMotion.identity(grid, support_offsets(0, 1), num_blocks, block_dim)


def block_layout(mats: np.ndarray) -> np.ndarray:
    """R matrix sets (..., R, m, K, d, e) over a support of m offsets, laid out
    as one (R*d, m*e) block per sub-vector, shape (..., K, R*d, m*e): with R = 1
    a set in the layout of `support_matrices`, with a whole table as R the blocks
    of grid scoring."""
    r, m, k, d, e = mats.shape[-5:]
    left = np.moveaxis(mats, [-3, -5, -2, -4], [-5, -4, -3, -2])  # (..., K, R, d, m, e)
    return left.reshape(left.shape[:-5] + (k, r * d, m * e))


def table_view(rows: np.ndarray, m: int) -> np.ndarray:
    """The (C, m, K, d, d) view of a table's block rows (C, K, d, m*d), or of its gradient."""
    c, k, d, md = rows.shape
    return np.moveaxis(rows.reshape(c, k, d, m, md // m), 3, 1)


def taylor_terms(model: ParametricMotion, deltas: np.ndarray):
    """M(delta) plus its two partial derivatives, each (N, K, d, d)."""
    b1, b2, b11, b22, b12 = model.coeffs
    m = polynomial_matrices(model.coeffs, deltas)
    d1 = deltas[:, 0][:, None, None, None]
    d2 = deltas[:, 1][:, None, None, None]
    dm1 = b1[None] + 2.0 * d1 * b11[None] + d2 * b12[None]
    dm2 = b2[None] + 2.0 * d2 * b22[None] + d1 * b12[None]
    return m, dm1, dm2


def coeff_products(coeffs, v0) -> np.ndarray:
    """u_j = B_j v0 of (5, K, d, d) coefficients and vectors (..., N, K, d), shape
    (5, ..., N, K*d): the one einsum that the descent set-up took before it was
    built from broadcast products."""
    lead, n = v0.shape[:-3], v0.shape[-3]
    return np.einsum("jkde,...nke->j...nkd", coeffs, v0).reshape((5,) + lead + (n, -1))


def grid_scores(encoder, model, image_t, target_vectors, positions, clamp=False):
    """Squared residual (N, C) against ``target_vectors`` (N, K, d) for every grid
    candidate: the prediction (K, C, d, N) of the whole candidate table against
    every position, reduced in that layout over d and then over K."""
    support = offset_encodings(encoder, image_t, positions, model.offsets, clamp)  # (N, K, m*d)
    right = np.ascontiguousarray(np.moveaxis(support, 0, -1))  # (K, m*d, N)
    k, _, n = right.shape
    pred = (model.table_blocks @ right).reshape(k, -1, target_vectors.shape[-1], n)  # one (C*d, m*d) x (m*d, N) product per block
    diff = pred - np.moveaxis(target_vectors, 0, -1)[:, None]
    diff *= diff
    return diff.sum(axis=2).sum(axis=0).T


def stack_scores(encoder, model, images_t, target_vectors, positions, clamp=False):
    """The program's grid scores (P, N, C) of a stack of frames (P, H, W) against
    the codes ``target_vectors`` (P, N, K, d): the support gather of
    `offset_encodings` and the block-wise products of `inference._score_pairs`."""
    support = offset_encodings(encoder, images_t, positions, model.offsets, clamp)
    scores = _score_pairs(model.table_blocks, support, np.asarray(target_vectors))
    return np.stack([s.T.copy() for s in scores])


def predicted_vectors(encoder, model, image_t, positions, deltas, clamp=False):
    """Next-frame vector prediction (N, K, d) at each position of one frame for
    given displacements: `core`'s support gather, matrix lookup and prediction."""
    support = offset_encodings(encoder, image_t, positions, model.offsets, clamp)
    return predict(model.support_matrices(deltas), support)


def motion_matrices(model, deltas) -> np.ndarray:
    """Per-position block matrices M^(k)(delta), shape (N, K, d, d): the polynomial of a
    parametric model, or the exact lookup of a nonparametric table, every delta one of its
    candidates."""
    deltas = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    if isinstance(model, ParametricMotion):
        return polynomial_matrices(model.coeffs, deltas)
    return model.matrices[[model.grid.index_of(d) for d in deltas], 0]


def align_recurrent(encoder, model, frames, position, delta):
    """Accumulate u_i = v_i + M(delta) u_{i-1} over the clip; returns (u, |u|^2)."""
    mats = motion_matrices(model, np.asarray([delta]))[0]
    u = np.zeros((encoder.num_blocks, encoder.block_dim))
    for frame in frames:
        v = encode(encoder, np.asarray(frame, dtype=np.float64), np.asarray([position])).vectors[0]
        u = v + np.einsum("kde,ke->kd", mats, u)
    return u, float(np.sum(u * u))


def estimate_velocity(encoder, model, frames, position):
    """The non-parametric candidate with the highest alignment score; ties break
    toward the smallest |delta|, then by (d_row, d_col)."""
    candidates = model.grid.candidates()
    mats = motion_matrices(model, candidates)  # (C, K, d, d)
    u = np.zeros((len(candidates), encoder.num_blocks, encoder.block_dim))
    for frame in frames:
        v = encode(encoder, np.asarray(frame, dtype=np.float64), np.asarray([position])).vectors[0]
        u = v[None] + np.einsum("ckde,cke->ckd", mats, u)
    scores = np.einsum("ckd,ckd->c", u, u)
    order = np.lexsort((candidates[:, 1], candidates[:, 0], np.sum(candidates * candidates, axis=1)))
    return candidates[order[np.argmax(scores[order])]]


def rotation_loss(encoder, model, image_t, image_t1, field: DisplacementField) -> float:
    """Squared residual between next-frame encodings and motion-transformed ones."""
    v1 = encode(encoder, image_t1, field.positions).vectors
    pred = predicted_vectors(encoder, model, image_t, field.positions, field.vectors)
    return float(np.sum((v1 - pred) ** 2))


def reconstruction_terms(encoder, images, counts):
    """Σ_f c_f ‖x_f − overlap_add(decode(encode(x_f)))‖² of a stack of frames (B, H, W) weighted
    by ``counts``, and its gradient in the weights, −2Σ_x (v(x) e(x)ᵀ + W e(x) a(x)ᵀ) over the
    lattice patches a(x), their codes v(x) and the weighted error's patches e(x): (loss, (K, d, p*p)).
    Its products and sums are those of training's canvas form on one stack, in the same order:
    the synthesis side, then the code gradient −2 W e(x) times the patches."""
    images = np.asarray(images, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    w = encoder.weights
    w2 = w.reshape(-1, w.shape[2])
    p, shape = encoder.patch_size, images.shape[1:]
    pos = encoder.grid.positions(*shape)
    a = extract_patches(images, pos, p).reshape(-1, w2.shape[1])
    v = a @ w2.T
    e = images - overlap_add((v @ w2).reshape(len(images), len(pos), -1), pos, shape, p)
    e_w = e * counts[:, None, None]
    e_p = extract_patches(e_w, pos, p).reshape(len(v), -1)
    synthesis = -2.0 * (v.T @ e_p)
    return float(np.sum(e_w * e)), (synthesis + (-2.0 * (e_p @ w2.T)).T @ a).reshape(w.shape)


def total_loss(encoder, model, batch, config) -> float:
    """Batch-mean weighted loss: the loss of `grad_total` (finite-difference probes)."""
    return grad_total(encoder, model, batch, config)[1]


def grid_alone(encoder, model, image_t, image_t1, config=None) -> DisplacementField:
    """One pair's grid field: the stack of one of `infer_grid_stack`."""
    pos, fields = infer_grid_stack(encoder, model, np.asarray(image_t)[None], np.asarray(image_t1)[None], config)
    return DisplacementField(pos, fields[0])


def descent_alone(encoder, model, image_t, image_t1, config=None, newton=True, start=None):
    """One pair's descent, from the field ``start`` when given: the stack of one
    of `infer_parametric_stack`.  Returns (field, (iterations, stop reason))."""
    starts = None if start is None else np.asarray(start)[None]
    pos, fields, iters, reasons = infer_parametric_stack(
        encoder, model, np.asarray(image_t)[None], np.asarray(image_t1)[None], config, newton, starts
    )
    return DisplacementField(pos, fields[0]), (int(iters[0]), reasons[0])

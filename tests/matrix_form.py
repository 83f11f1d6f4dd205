"""References that tests compare the program's paths against: the descent
objective's matrix form, which the polynomial residual must equal; grid
scoring as one whole prediction reduced in its layout, which the block-wise
scores must equal bit for bit; the per-delta matrix lookup and the recurrent
multi-frame alignment of the paper built on it; and the rotation loss on one
frame pair and the batch loss of a training step, which training's gradient
is probed and checked against."""

import numpy as np

from patchflow.core import (
    DisplacementField,
    ParametricMotion,
    encode,
    offset_encodings,
    polynomial_matrices,
    predict,
    predicted_vectors,
)
from patchflow.training import grad_total


def taylor_terms(model: ParametricMotion, deltas: np.ndarray):
    """M(delta) plus its two partial derivatives, each (N, K, d, d)."""
    b1, b2, b11, b22, b12 = model.coeffs
    m = polynomial_matrices(model.coeffs, deltas)
    d1 = deltas[:, 0][:, None, None, None]
    d2 = deltas[:, 1][:, None, None, None]
    dm1 = b1[None] + 2.0 * d1 * b11[None] + d2 * b12[None]
    dm2 = b2[None] + 2.0 * d2 * b22[None] + d1 * b12[None]
    return m, dm1, dm2


def grid_scores(encoder, model, image_t, target_vectors, positions, clamp=False):
    """Squared residual against ``target_vectors`` (N, K, d) for every grid
    candidate: (scores (N, C), prediction (K, C, d, N)), the prediction of the
    whole candidate table against every position, reduced in that layout over
    d and then over K."""
    _, vectors, inverse = offset_encodings(encoder, image_t, positions, model.offsets, clamp)
    pred = predict(model.table_blocks, vectors[inverse])
    diff = pred - np.moveaxis(target_vectors, 0, -1)[:, None]
    diff *= diff
    return diff.sum(axis=2).sum(axis=0).T, pred


def motion_matrices(model, deltas) -> np.ndarray:
    """Per-position block matrices M^(k)(delta), shape (N, K, d, d): the polynomial of a
    parametric model, or the exact lookup of a nonparametric table, every delta one of its
    candidates."""
    deltas = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    if isinstance(model, ParametricMotion):
        return polynomial_matrices(model.coeffs, deltas)
    return model.matrices[[model.grid.index_of(d) for d in deltas]]


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


def total_loss(encoder, model, batch, config) -> float:
    """Batch-mean weighted loss: the loss of `grad_total` (finite-difference probes)."""
    return grad_total(encoder, model, batch, config)[1]

"""Displacement-field inference and the sequence tasks built on top of it:
multi-step animation with re-encoding, frame interpolation, and recurrent
multi-frame alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DisplacementField,
    NonParametricMotion,
    ParametricMotion,
    VectorField,
    border_filter,
    decode,
    encode,
    eval_positions,
    motion_matrices,
    offset_encodings,
    polynomial_matrices,
    predict,
    predicted_vectors,
)
from .errors import PatchflowError, ShapeError


@dataclass
class InferConfig:
    """Settings shared by grid and gradient-descent inference."""

    margin: int = 8
    smoothness_weight: float = 0.0
    step_size: float = 0.25
    max_iters: int = 200
    tol: float = 1e-4  # mean update (px) that counts as converged
    init: str = "random"  # "random" | "zeros"; or pass init_field
    init_field: np.ndarray | None = None
    rng_seed: int = 0


def infer_positions(encoder, model, shape, margin: int = 8) -> np.ndarray:
    """Evaluation lattice: patch (and mixing support) in bounds, border left out."""
    pos = eval_positions(encoder, model, shape)
    keep = border_filter(pos, shape, margin)
    if not np.any(keep):
        raise PatchflowError("no evaluation positions left after margins")
    return pos[keep]


def _candidate_order(grid) -> np.ndarray:
    """Candidate indices sorted by (|delta|^2, d_row, d_col) for tie-breaking."""
    cand = grid.candidates()
    mag = np.sum(cand * cand, axis=1)
    return np.lexsort((cand[:, 1], cand[:, 0], mag))


def _candidate_scores(encoder, model, image_t, target_vectors, positions, clamp=False):
    """Squared residual against ``target_vectors`` for every grid candidate.

    Returns (scores (N, C), predictions (K, C, d, N)): the shared prediction
    with the whole candidate table against every position, left in the
    layout `predict` gives it; the residual is reduced in that layout, over
    d and then over K."""
    if isinstance(model, ParametricMotion):
        raise ShapeError("grid scoring needs a non-parametric or mixed model")
    _, vectors, inverse = offset_encodings(encoder, image_t, positions, model.offsets, clamp)
    pred = predict(model.table_blocks, vectors[inverse])
    diff = pred - np.moveaxis(target_vectors, 0, -1)[:, None]
    diff *= diff
    return diff.sum(axis=2).sum(axis=0).T, pred


def _argmin_tiebreak(scores: np.ndarray, order: np.ndarray) -> np.ndarray:
    # scan candidates in tie-break order; argmin returns the first minimum
    return order[np.argmin(scores[:, order], axis=1)]


def infer_grid(encoder, model, image_t, image_t1, config: InferConfig | None = None) -> DisplacementField:
    """Exhaustive per-position argmin of the rotation residual over candidates.

    Ties break toward the smallest displacement norm, then lexicographically.
    """
    config = config or InferConfig()
    image_t = np.asarray(image_t, dtype=np.float64)
    image_t1 = np.asarray(image_t1, dtype=np.float64)
    if image_t.shape != image_t1.shape:
        raise ShapeError("frame pair dimensions differ")
    pos = infer_positions(encoder, model, image_t.shape, config.margin)
    v1 = encode(encoder, image_t1, pos).vectors
    scores, _ = _candidate_scores(encoder, model, image_t, v1, pos)
    ci = _argmin_tiebreak(scores, _candidate_order(model.grid))
    return DisplacementField(pos, model.grid.candidates()[ci])


# ---------------------------------------------------------------------------
# parametric inference by gradient descent


def _smoothness_value_grad(deltas: np.ndarray, grid_shape: tuple[int, int]):
    """Forward-difference smoothness energy and its gradient (free boundary)."""
    ny, nx = grid_shape
    f = deltas.reshape(ny, nx, 2)
    g = np.zeros_like(f)
    dr = f[1:, :] - f[:-1, :]
    dc = f[:, 1:] - f[:, :-1]
    value = float(np.sum(dr * dr) + np.sum(dc * dc))
    g[1:, :] += 2 * dr
    g[:-1, :] -= 2 * dr
    g[:, 1:] += 2 * dc
    g[:, :-1] -= 2 * dc
    return value, g.reshape(-1, 2)


def _taylor_terms(model: ParametricMotion, deltas: np.ndarray):
    """M(delta) plus its two partial derivatives, each (N, K, d, d)."""
    b1, b2, b11, b22, b12 = model.coeffs
    m = polynomial_matrices(model.coeffs, deltas)
    d1 = deltas[:, 0][:, None, None, None]
    d2 = deltas[:, 1][:, None, None, None]
    dm1 = b1[None] + 2.0 * d1 * b11[None] + d2 * b12[None]
    dm2 = b2[None] + 2.0 * d2 * b22[None] + d1 * b12[None]
    return m, dm1, dm2


def infer_parametric(encoder, model: ParametricMotion, image_t, image_t1, config: InferConfig | None = None) -> DisplacementField:
    """Gradient descent on the rotation residual plus a smoothness penalty.

    Backtracking halves the step until the objective decreases, so accepted
    iterations are monotone; stops at the iteration cap or once the mean
    update drops below ``config.tol`` pixels.
    """
    config = config or InferConfig()
    if not isinstance(model, ParametricMotion):
        raise ShapeError("infer_parametric needs a parametric motion model")
    image_t = np.asarray(image_t, dtype=np.float64)
    image_t1 = np.asarray(image_t1, dtype=np.float64)
    pos = infer_positions(encoder, model, image_t.shape, config.margin)
    rows = np.unique(pos[:, 0])
    cols = np.unique(pos[:, 1])
    grid_shape = (len(rows), len(cols))
    v0 = encode(encoder, image_t, pos).vectors
    v1 = encode(encoder, image_t1, pos).vectors
    lam = config.smoothness_weight

    if config.init_field is not None:
        deltas = np.array(config.init_field, dtype=np.float64).reshape(len(pos), 2)
    elif config.init == "zeros":
        deltas = np.zeros((len(pos), 2))
    else:
        rng = np.random.default_rng(config.rng_seed)
        deltas = rng.uniform(-0.5, 0.5, (len(pos), 2))

    def objective_grad(d, with_grad=True):
        m, dm1, dm2 = _taylor_terms(model, d)
        r = v1 - np.einsum("nkde,nke->nkd", m, v0)
        value = float(np.sum(r * r))
        grad = None
        if with_grad:
            p1 = np.einsum("nkde,nke->nkd", dm1, v0)
            p2 = np.einsum("nkde,nke->nkd", dm2, v0)
            grad = -2.0 * np.stack(
                [
                    np.einsum("nkd,nkd->n", r, p1),
                    np.einsum("nkd,nkd->n", r, p2),
                ],
                axis=1,
            )
        if lam > 0:
            sval, sgrad = _smoothness_value_grad(d, grid_shape)
            value += lam * sval
            if with_grad:
                grad += lam * sgrad
        return value, grad

    value, grad = objective_grad(deltas)
    for _ in range(config.max_iters):
        step = config.step_size
        accepted = False
        for _ in range(40):
            trial = deltas - step * grad
            trial_value, _ = objective_grad(trial, with_grad=False)
            if trial_value < value:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        mean_update = float(np.mean(np.linalg.norm(step * grad, axis=1)))
        deltas = trial
        value, grad = objective_grad(deltas)
        if mean_update < config.tol:
            break
    return DisplacementField(pos, deltas)


# ---------------------------------------------------------------------------
# animation, interpolation, alignment


def _field_on_positions(field, positions) -> np.ndarray:
    if isinstance(field, DisplacementField):
        if np.array_equal(field.positions, positions):
            return field.vectors
        # margin-trimmed field on a sub-lattice: nearest-position fill
        d2 = ((positions[:, None, :] - field.positions[None, :, :]) ** 2).sum(axis=2)
        return field.vectors[np.argmin(d2, axis=1)]
    dense = np.asarray(field, dtype=np.float64)
    if dense.ndim == 3 and dense.shape[2] == 2:
        return dense[positions[:, 0], positions[:, 1]]
    raise ShapeError("field must be a DisplacementField on the lattice or dense (H, W, 2)")


def animate(encoder, model, image0, fields) -> list[np.ndarray]:
    """Roll the model forward: transform encodings, decode, re-encode, repeat.

    Every lattice position is predicted; mixed supports that stick out of
    the image fall back to clamped patch centers so the reconstruction
    canvas stays fully covered.
    """
    cur = np.asarray(image0, dtype=np.float64)
    positions = encoder.grid.positions(*cur.shape)
    frames = []
    for fld in fields:
        deltas = _field_on_positions(fld, positions)
        pred = predicted_vectors(encoder, model, cur, positions, deltas, clamp=True)
        cur = decode(encoder, VectorField(positions, pred), cur.shape)
        frames.append(cur)
    return frames


def interpolate_frames(
    encoder,
    model,
    image0,
    image_target,
    max_steps: int = 10,
    stop_thresh: float = 10.0 / 255.0,
    margin: int = 8,
):
    """Walk from ``image0`` toward ``image_target`` by repeatedly picking, per
    position, the candidate whose transformed vector best matches the target
    encoding.  Returns (frames including the start, success flag).

    The stop rule compares mean absolute intensity inside the usual border
    margin: overlap-add reconstruction under-covers the outer pixels, so the
    border is left out of the metric like everywhere else in the artifact.
    """
    if isinstance(model, ParametricMotion):
        raise ShapeError("interpolation scans a candidate grid; needs a nonparametric or mixed model")
    cur = np.asarray(image0, dtype=np.float64)
    target = np.asarray(image_target, dtype=np.float64)
    if cur.shape != target.shape:
        raise ShapeError("frame pair dimensions differ")
    h, w = cur.shape
    m = min(margin, (h - 1) // 2, (w - 1) // 2)
    win = (slice(m, h - m), slice(m, w - m))

    def close(frame):
        return float(np.mean(np.abs(frame[win] - target[win]))) < stop_thresh

    positions = encoder.grid.positions(*cur.shape)
    v_target = encode(encoder, target, positions).vectors
    order = _candidate_order(model.grid)
    frames = [cur]
    if close(cur):
        return frames, True
    for _ in range(max_steps):
        scores, pred = _candidate_scores(encoder, model, cur, v_target, positions, clamp=True)
        ci = _argmin_tiebreak(scores, order)
        chosen = pred[:, ci, :, np.arange(len(positions))]  # (N, K, d)
        cur = decode(encoder, VectorField(positions, chosen), cur.shape)
        frames.append(cur)
        if close(cur):
            return frames, True
    return frames, False


def align_recurrent(encoder, model, frames, position, delta):
    """Accumulate u_i = v_i + M(delta) u_{i-1} over the clip; returns (u, |u|^2)."""
    mats = motion_matrices(model, np.asarray([delta]))[0]
    u = np.zeros((encoder.num_blocks, encoder.block_dim))
    for frame in frames:
        v = encode(encoder, np.asarray(frame, dtype=np.float64), np.asarray([position])).vectors[0]
        u = v + np.einsum("kde,ke->kd", mats, u)
    return u, float(np.sum(u * u))


# ---------------------------------------------------------------------------
# field files: V1FD header, then the two float32 planes of the container

FIELD_MAGIC = b"V1FD"
FIELD_VERSION = 1


def write_field(path, field: DisplacementField) -> None:
    """Serialize a lattice field: grid geometry header + (d_row, d_col) planes."""
    rows = np.unique(field.positions[:, 0])
    cols = np.unique(field.positions[:, 1])
    ny, nx = len(rows), len(cols)
    if ny * nx != len(field.positions):
        raise ShapeError("field positions do not form a rectangular lattice")
    row_step = int(rows[1] - rows[0]) if ny > 1 else 0
    col_step = int(cols[1] - cols[0]) if nx > 1 else 0
    head = FIELD_MAGIC + np.asarray(
        [FIELD_VERSION, nx, ny, int(rows[0]), int(cols[0]), row_step, col_step], dtype="<u4"
    ).tobytes()
    planes = field.vectors.reshape(ny, nx, 2)
    body = b"".join(np.ascontiguousarray(planes[..., j], dtype="<f4").tobytes() for j in (0, 1))
    with open(path, "wb") as fh:
        fh.write(head + body)


def read_field(path) -> DisplacementField:
    from pathlib import Path

    from .errors import DataFormatError

    raw = Path(path).read_bytes()
    if raw[:4] != FIELD_MAGIC:
        raise DataFormatError(f"{path}: bad field magic {raw[:4]!r}")
    version, nx, ny, row0, col0, row_step, col_step = np.frombuffer(raw[4:32], dtype="<u4")
    if version != FIELD_VERSION:
        raise DataFormatError(f"{path}: unsupported field version {version}")
    expected = 32 + 4 * 2 * nx * ny
    if len(raw) != expected:
        raise DataFormatError(f"{path}: truncated field file")
    planes = np.frombuffer(raw[32:], dtype="<f4").reshape(2, ny, nx).astype(np.float64)
    rr = row0 + row_step * np.arange(ny, dtype=np.int64)
    cc = col0 + col_step * np.arange(nx, dtype=np.int64)
    grid_r, grid_c = np.meshgrid(rr, cc, indexing="ij")
    positions = np.stack([grid_r.ravel(), grid_c.ravel()], axis=1)
    vectors = np.stack([planes[0].ravel(), planes[1].ravel()], axis=1)
    return DisplacementField(positions, vectors)


def write_field_text(path, field: DisplacementField) -> None:
    """Plain-text dump: one "row col d_row d_col" line per position."""
    with open(path, "w") as fh:
        for (r, c), (d1, d2) in zip(field.positions, field.vectors):
            fh.write(f"{r} {c} {d1:.9g} {d2:.9g}\n")


def estimate_velocity(encoder, model, frames, position):
    """Candidate with the highest alignment score; ties break as in infer_grid."""
    if not isinstance(model, NonParametricMotion):
        raise ShapeError("velocity estimation scans a non-parametric candidate grid")
    candidates = model.grid.candidates()
    mats = motion_matrices(model, candidates)  # (C, K, d, d)
    u = np.zeros((len(candidates), encoder.num_blocks, encoder.block_dim))
    for frame in frames:
        v = encode(encoder, np.asarray(frame, dtype=np.float64), np.asarray([position])).vectors[0]
        u = v[None] + np.einsum("ckde,cke->ckd", mats, u)
    scores = np.einsum("ckd,ckd->c", u, u)
    order = _candidate_order(model.grid)
    best = order[np.argmax(scores[order])]
    return candidates[best]

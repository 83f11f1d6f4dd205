"""Displacement-field inference and the sequence tasks built on top of it:
multi-step animation with re-encoding and frame interpolation."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    DisplacementField,
    ParametricMotion,
    VectorField,
    apply_encoder,
    border_filter,
    decode,
    delta_basis,
    encode,
    eval_positions,
    extract_patches,
    lattice_axes,
    predicted_vectors,
    support_centers,
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
    init_field: np.ndarray | None = None  # (N, 2), or (P, N, 2) for a stack of pairs
    rng_seed: int = 0

    def __post_init__(self):
        if self.init not in ("random", "zeros"):
            raise ValueError(f"init must be 'random' or 'zeros', got {self.init!r}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")


def infer_positions(encoder, model, shape, margin: int = 8) -> np.ndarray:
    """Evaluation lattice: patch (and mixing support) in bounds, border left out."""
    pos = eval_positions(encoder, model, shape)
    keep = border_filter(pos, shape, margin)
    if not np.any(keep):
        raise PatchflowError("no evaluation positions left after margins")
    return pos[keep]


@functools.cache
def _candidate_order(grid) -> np.ndarray:
    """Candidate indices sorted by (|delta|^2, d_row, d_col) for tie-breaking,
    computed once per grid."""
    cand = grid.candidates()
    mag = np.sum(cand * cand, axis=1)
    order = np.lexsort((cand[:, 1], cand[:, 0], mag))
    order.flags.writeable = False
    return order


def _encode_frames(encoder, images, positions) -> np.ndarray:
    """Encodings (P, N, K, d) of a stack of frames (P, H, W) at ``positions``:
    one patch gather for the stack and one product per frame, the product
    that `encode` takes of each frame alone (one product of the stack rounds
    some rows differently)."""
    patches = extract_patches(images, positions, encoder.patch_size)
    return np.stack([apply_encoder(encoder.weights, frame) for frame in patches])


def _support_columns(encoder, model, images, positions, clamp=False) -> np.ndarray:
    """The support vectors of each frame of a stack (P, H, W) at ``positions``,
    in the layout `predict` multiplies, (P, K, m*d, N): the support gather of
    `offset_encodings`, with one `support_centers` call for the stack, and
    one encode per frame."""
    if isinstance(model, ParametricMotion):
        raise ShapeError("grid scoring needs a non-parametric or mixed model")
    uniq, inverse = support_centers(encoder, images.shape[-2:], positions, model.offsets, clamp)
    vectors = _encode_frames(encoder, images, uniq)[:, inverse]  # (P, N, m, K, d)
    p, n, m, k, d = vectors.shape
    return vectors.transpose(0, 3, 2, 4, 1).reshape(p, k, m * d, n)


def _score_pairs(blocks, right, targets, pred=None):
    """The grid scores of each pair of a stack: yields, pair by pair, the
    squared residuals (C, N) of every candidate against the targets
    ``targets`` (P, K, d, N), from a table's ``blocks`` (K, C*d, m*d) and the
    support vectors ``right`` (P, K, m*d, N); each pair's scores overwrite
    the last pair's.

    For each sub-vector k in turn, one (C*d, m*d) @ (m*d, N) product lands in
    a buffer that stays in cache (in ``pred`` (P, K, C*d, N), when given,
    where it is kept); the target is subtracted there, the difference
    squared, its d rows summed and the sum added to the scores.  These are
    the products of `predict` on the pair's own columns, and the sums of its
    whole prediction reduced over d and then over K, in that order."""
    k, cd, _ = blocks.shape
    d, n = targets.shape[-2:]
    scores, part, diff = np.empty((cd // d, n)), np.empty((cd // d, n)), np.empty((cd, n))
    sq = diff.reshape(-1, d, n)
    for p in range(len(right)):
        for j in range(k):
            prod = diff if pred is None else pred[p, j]
            np.matmul(blocks[j], right[p, j], out=prod)
            np.subtract(prod.reshape(sq.shape), targets[p, j], out=sq)
            sq *= sq
            # the d rows summed in order, as numpy's sum over d does, without its slow middle-axis loop
            rows = part if j else scores
            if d == 1:
                np.copyto(rows, sq[:, 0])
            else:
                np.add(sq[:, 0], sq[:, 1], out=rows)
            for e in range(2, d):
                rows += sq[:, e]
            if j:
                scores += part
        yield scores


def _candidate_scores(encoder, model, image_t, target_vectors, positions, clamp=False):
    """Squared residual against ``target_vectors`` (N, K, d) for every grid
    candidate, from one frame.

    Returns (scores (N, C), predictions (K, C, d, N)): the prediction of the
    whole candidate table against every position, in the layout `predict`
    gives it, whose products `_score_pairs` reduces."""
    right = _support_columns(encoder, model, np.asarray(image_t, dtype=np.float64)[None], positions, clamp)
    blocks = model.table_blocks
    targets = np.asarray(target_vectors, dtype=np.float64).transpose(1, 2, 0)[None]
    pred = np.empty((1,) + blocks.shape[:2] + (len(positions),))
    scores = next(_score_pairs(blocks, right, targets, pred))
    return scores.T, pred[0].reshape(blocks.shape[0], -1, model.block_dim, len(positions))


def _argmin_tiebreak(scores: np.ndarray, order: np.ndarray) -> np.ndarray:
    # scan candidates in tie-break order; argmin returns the first minimum
    return order[np.argmin(scores[:, order], axis=1)]


def infer_grid_stack(encoder, model, images_t, images_t1, config: InferConfig | None = None):
    """Grid inference for a stack of pairs of one frame size, (P, H, W) each,
    with the field that `infer_grid` gives each pair alone: one
    `support_centers` call, one support gather and one frame-t+1 gather for
    the stack, one encode per frame, and each pair scored on its own columns
    by `_score_pairs`.

    Returns (positions (N, 2), fields (P, N, 2)).
    """
    config = config or InferConfig()
    images_t = np.asarray(images_t, dtype=np.float64)
    images_t1 = np.asarray(images_t1, dtype=np.float64)
    if images_t.shape != images_t1.shape:
        raise ShapeError("frame pair dimensions differ")
    pos = infer_positions(encoder, model, images_t.shape[-2:], config.margin)
    right = _support_columns(encoder, model, images_t, pos)
    targets = _encode_frames(encoder, images_t1, pos).transpose(0, 2, 3, 1)  # (P, K, d, N)
    order = _candidate_order(model.grid)
    chosen = [_argmin_tiebreak(scores.T, order) for scores in _score_pairs(model.table_blocks, right, targets)]
    return pos, model.grid.candidates()[np.stack(chosen)]


def infer_grid(encoder, model, image_t, image_t1, config: InferConfig | None = None) -> DisplacementField:
    """Exhaustive per-position argmin of the rotation residual over candidates.

    Ties break toward the smallest displacement norm, then lexicographically.
    The stack of one of `infer_grid_stack`.
    """
    pos, fields = infer_grid_stack(encoder, model, np.asarray(image_t)[None], np.asarray(image_t1)[None], config)
    return DisplacementField(pos, fields[0])


# ---------------------------------------------------------------------------
# parametric inference: descent on the residual's polynomial form

STOP_REASONS = ("tol", "cap", "no_descent")
_BACKTRACKS = 40  # step halvings before a gradient step counts as failed
_DAMPINGS = 12  # damped solves before a Newton step counts as failed (9 at most seen)


def _smoothness_value_grad(deltas: np.ndarray, grid_shape: tuple[int, int], value=True, gradient=True):
    """Forward-difference smoothness energy of fields (..., N, 2), shape (...), and
    its gradient (..., N, 2) (free boundary); None for either one not asked for."""
    f = deltas.reshape(deltas.shape[:-2] + tuple(grid_shape) + (2,))
    dr = f[..., 1:, :, :] - f[..., :-1, :, :]
    dc = f[..., :, 1:, :] - f[..., :, :-1, :]
    energy = np.sum(dr * dr, axis=(-3, -2, -1)) + np.sum(dc * dc, axis=(-3, -2, -1)) if value else None
    if not gradient:
        return energy, None
    g = np.zeros_like(f)
    g[..., 1:, :, :] += 2 * dr
    g[..., :-1, :, :] -= 2 * dr
    g[..., :, 1:, :] += 2 * dc
    g[..., :, :-1, :] -= 2 * dc
    return energy, g.reshape(deltas.shape)


_ROW_DOT = "...nm,...nm->...n"  # per-position dot products of (..., N, M) arrays


class _PolynomialObjective:
    """Rotation residual plus smoothness, on the residual's polynomial form.

    M(delta) = I + sum_j basis_j(delta) B_j, so with u_j = B_j v0 and
    c = v1 - v0, both built once per pair, each position's residual is the
    quadratic r(delta) = c - sum_j basis_j(delta) u_j, shape (N, K*d).  The
    value, the gradient and the exact 2x2 Hessian of each position take a few
    (N, K*d) array operations; no matrices are built per evaluation.

    Leading axes of ``v0`` and ``v1`` (..., N, K, d) stack pairs of one
    lattice; every result then carries them, and each pair's numbers are the
    ones it has alone.
    """

    def __init__(self, coeffs, v0, v1, smoothness_weight, grid_shape):
        lead, n = v0.shape[:-3], v0.shape[-3]
        self.u = np.einsum("jkde,...nke->j...nkd", coeffs, v0).reshape((5,) + lead + (n, -1))
        self.c = (v1 - v0).reshape(lead + (n, -1))
        self.lam = smoothness_weight
        self.grid_shape = grid_shape

    def take(self, pairs):
        """The objective of the pairs ``pairs`` of a stack."""
        sub = copy.copy(self)
        sub.u, sub.c = self.u[:, pairs], self.c[pairs]
        return sub

    def value(self, deltas, pairs=None):
        """(objective, residual) at ``deltas``, of the stack's pairs ``pairs`` when given."""
        u, c = (self.u, self.c) if pairs is None else (self.u[:, pairs], self.c[pairs])
        r = c - np.einsum("...nj,j...nm->...nm", delta_basis(deltas), u)
        value = np.sum(r * r, axis=(-2, -1))
        if self.lam > 0:
            value = value + self.lam * _smoothness_value_grad(deltas, self.grid_shape, gradient=False)[0]
        return value, r

    def derivatives(self, deltas, r, hessian=True):
        """Gradient (..., N, 2) and, when ``hessian``, per-position residual
        Hessians (..., N, 2, 2) at ``deltas``, given the residual there (else
        None); the Hessians leave out the smoothness term, whose Hessian is
        constant."""
        u1, u2, u11, u22, u12 = self.u
        d1, d2 = deltas[..., :1], deltas[..., 1:]
        p1 = u1 + 2.0 * d1 * u11 + d2 * u12  # -dr/d(delta_1)
        p2 = u2 + 2.0 * d2 * u22 + d1 * u12  # -dr/d(delta_2)
        grad = -2.0 * np.stack([np.einsum(_ROW_DOT, r, p1), np.einsum(_ROW_DOT, r, p2)], axis=-1)
        if self.lam > 0:
            grad += self.lam * _smoothness_value_grad(deltas, self.grid_shape, value=False)[1]
        if not hessian:
            return grad, None
        hess = np.empty(deltas.shape + (2,))
        hess[..., 0, 0] = 2.0 * (np.einsum(_ROW_DOT, p1, p1) - 2.0 * np.einsum(_ROW_DOT, r, u11))
        hess[..., 1, 1] = 2.0 * (np.einsum(_ROW_DOT, p2, p2) - 2.0 * np.einsum(_ROW_DOT, r, u22))
        hess[..., 0, 1] = hess[..., 1, 0] = 2.0 * (np.einsum(_ROW_DOT, p1, p2) - np.einsum(_ROW_DOT, r, u12))
        return grad, hess


class _NewtonSystem:
    """The Newton matrices blockdiag(hess) + 2 lam L (x) I_2 of one iteration,
    one per pair of a stack, L the graph Laplacian of the 4-neighbour lattice
    (the Hessian of the smoothness term), solved with each pair's damping mu I
    added.

    Without smoothness the positions decouple into N 2x2 systems, solved in
    closed form.  With it each matrix is block tridiagonal over the lattice
    rows, with -2 lam I between neighbouring rows: block elimination over the
    rows takes O(N nx^2) time and O(N nx) memory per pair for nx positions per
    row, with one batched Cholesky test and one batched inverse of the pivot
    blocks per row; the Cholesky tests tell whether a pair's matrix is
    positive definite."""

    def __init__(self, hess, lam, grid_shape):
        """``hess`` holds the per-position residual Hessians (P, N, 2, 2) of a stack of pairs."""
        self.w = 2.0 * lam  # the coupling between neighbours is -w I
        if lam == 0:
            self.hess = hess
            diag = np.abs(hess[..., [0, 1], [0, 1]])
        else:
            ny, nx = grid_shape
            rows, cols = np.indices(grid_shape)
            degree = (rows > 0).astype(float) + (rows < ny - 1) + (cols > 0) + (cols < nx - 1)
            m = 2 * nx  # unknowns per lattice row, position-major
            blocks = np.zeros((len(hess), ny, m, m))
            j = np.arange(nx)
            blocks.reshape(-1, ny, nx, 2, nx, 2)[:, :, j, :, j, :] = np.moveaxis(hess.reshape(-1, ny, nx, 2, 2), 2, 0)
            k = np.arange(m)
            blocks[..., k, k] += self.w * np.repeat(degree, 2, axis=1)
            blocks[..., k[:-2], k[2:]] = blocks[..., k[2:], k[:-2]] = -self.w  # row neighbours
            self.blocks = blocks
            diag = np.abs(blocks[..., k, k])
        # each pair's mean on its own: one mean over the stack's axes rounds differently
        self.diag_mean = np.array([np.mean(d) for d in diag])

    def solve(self, mu, grad, pairs):
        """The steps s with (matrix + mu I) s = -grad of the stack's pairs
        ``pairs``, given their dampings mu (S,) and gradients (S, N, 2).

        Returns (solved (S,) bool, steps (solved pairs, N, 2)): a pair is solved
        when its matrix + mu I is positive definite."""
        if self.w == 0:
            h = self.hess[pairs]
            a = h[..., 0, 0] + mu[:, None]
            b = h[..., 0, 1]
            c = h[..., 1, 1] + mu[:, None]
            det = a * c - b * b
            solved = np.all(a > 0, axis=1) & np.all(det > 0, axis=1)
            a, b, c, det, g1, g2 = (x[solved] for x in (a, b, c, det, grad[..., 0], grad[..., 1]))
            return solved, np.stack([b * g2 - c * g1, b * g1 - a * g2], axis=-1) / det[..., None]
        ny, m = self.blocks.shape[1:3]
        eye = np.eye(m)
        live = np.arange(len(pairs))  # the pairs positive definite so far, whose rows y and inv hold
        y = -grad.reshape(len(pairs), ny, m)
        inv = []  # inverses of the pivot blocks, one (live, m, m) array per lattice row
        for i in range(ny):
            pivot = self.blocks[pairs[live], i]
            pivot += mu[live, None, None] * eye
            if i:
                pivot -= self.w * self.w * inv[i - 1]
                y[:, i] += self.w * _matvec(inv[i - 1], y[:, i - 1])
            definite = _positive_definite(pivot)
            if not definite.all():
                live, pivot, y = live[definite], pivot[definite], y[definite]
                inv = [a[definite] for a in inv]
            inv.append(np.linalg.inv(pivot))
        s = np.empty_like(y)
        s[:, -1] = _matvec(inv[-1], y[:, -1])
        for i in range(ny - 2, -1, -1):
            s[:, i] = _matvec(inv[i], y[:, i] + self.w * s[:, i + 1])
        solved = np.zeros(len(pairs), dtype=bool)
        solved[live] = True
        return solved, s.reshape((len(live),) + grad.shape[1:])


def _matvec(a, x):
    """a @ x of a stack of matrices (S, m, m) and of vectors (S, m), each product
    the matrix-vector product that one pair alone takes."""
    return (a @ x[..., None])[..., 0]


def _positive_definite(matrices, failing=False) -> np.ndarray:
    """Which of a stack of symmetric matrices (S, m, m) are positive definite:
    one Cholesky test of the stack and, when it fails, of its halves in turn,
    down to the single matrices that fail; a stack known to be ``failing``
    is not tested, nor the second half of a failing stack whose first half
    passed.  Each matrix gets the verdict of its own test: a stacked test
    factors each matrix on its own."""
    if not failing:
        try:
            np.linalg.cholesky(matrices)
            return np.ones(len(matrices), dtype=bool)
        except np.linalg.LinAlgError:
            pass
    if len(matrices) == 1:
        return np.zeros(1, dtype=bool)
    half = len(matrices) // 2
    first = _positive_definite(matrices[:half])
    return np.concatenate([first, _positive_definite(matrices[half:], failing=first.all())])


def _gradient_steps(objective, deltas, value, grad, step_size):
    """Backtracking for a stack of pairs: halve each pair's step along its -grad
    until its objective drops.

    Returns (descended (P,) bool, step, value, residual), the last three at each
    pair's accepted point; the rows of pairs that did not descend are meaningless."""
    step = np.full(len(deltas), step_size)
    s = -step[:, None, None] * grad
    new_value, new_r = objective.value(deltas + s)
    descended = new_value < value
    search = np.flatnonzero(~descended & grad.any(axis=(1, 2)))  # no step leaves a stationary point
    for _ in range(_BACKTRACKS - 1):
        if not search.size:
            break
        step[search] *= 0.5
        trial = -step[search, None, None] * grad[search]
        trial_value, trial_r = objective.value(deltas[search] + trial, search)
        hit = trial_value < value[search]
        found = search[hit]
        s[found], new_value[found], new_r[found] = trial[hit], trial_value[hit], trial_r[hit]
        descended[found] = True
        search = search[~hit]
    return descended, s, new_value, new_r


def _newton_steps(objective, deltas, value, r, grad, hess, mu, tol):
    """Damped Newton for a stack of pairs: solve each pair's
    (blockdiag(hess) + 2 lam L (x) I_2 + mu I) s = -grad with its own mu.

    A pair's mu rises until its matrix is positive definite and its step
    lowers its objective, and falls after an accepted step; the pairs still
    searching shrink as they find their steps, as in `_gradient_steps`.  A step
    shorter than ``tol`` that does not lower the objective means descent has
    converged to rounding (raising mu only shortens the step): the pair takes
    the null step, which stops on tol.  ``mu`` (P,) is updated in place.

    Returns (stepped (P,) bool, step, value, residual), the last three at each
    stepped pair's accepted point.  A pair at a stationary point, or with no
    descending step in `_DAMPINGS` solves, is not stepped; its rows are
    meaningless."""
    system = _NewtonSystem(hess, objective.lam, objective.grid_shape)
    mu_floor = 1e-3 * system.diag_mean
    stepped = np.zeros(len(deltas), dtype=bool)
    s, new_value, new_r = np.zeros_like(deltas), value.copy(), np.empty_like(r)
    search = np.flatnonzero(grad.any(axis=(1, 2)))  # no step leaves a stationary point
    for _ in range(_DAMPINGS):
        if not search.size:
            break
        solved, steps = system.solve(mu[search], grad[search], search)
        tried = search[solved]
        if tried.size:
            whole = tried.size == len(deltas)
            trial_value, trial_r = objective.value(deltas[tried] + steps, None if whole else tried)
            hit = trial_value < value[tried]
            short = ~hit & (np.mean(np.linalg.norm(steps, axis=-1), axis=-1) < tol)
            found, null = tried[hit], tried[short]
            s[found], new_value[found], new_r[found] = steps[hit], trial_value[hit], trial_r[hit]
            new_r[null] = r[null]
            mu[found] /= 3.0
            stepped[found] = stepped[null] = True
            search = search[~stepped[search]]
        mu[search] = np.maximum(4.0 * mu[search], mu_floor[search])
    return stepped, s, new_value, new_r


def _descend(objective, deltas, config: InferConfig, newton: bool):
    """Monotone descent of a stack of pairs from ``deltas`` (P, N, 2): damped
    Newton steps when ``newton``, else backtracking gradient steps, which are
    also the step of each pair whose Newton step fails.  Each pair keeps its
    own damping and step sizes and stops on its own, after the iterations it
    takes alone.  Returns (deltas, iterations (P,), stop reasons (P,))."""
    out = np.empty_like(deltas)
    iters = np.full(len(deltas), config.max_iters)
    stops = np.full(len(deltas), "cap", dtype=object)
    live = np.arange(len(deltas))  # the pairs still descending, whose rows the arrays hold
    mu = np.zeros(len(deltas))  # each pair's Newton damping

    def finish(rows, fields, it, reason):
        out[rows], iters[rows], stops[rows] = fields, it, reason

    value, r = objective.value(deltas)
    grad, hess = objective.derivatives(deltas, r, newton)
    for it in range(config.max_iters):
        step = _newton_steps(objective, deltas, value, r, grad, hess, mu, config.tol) if newton else None
        fall = np.arange(len(deltas)) if step is None else np.flatnonzero(~step[0])
        if fall.size == len(deltas):
            step = _gradient_steps(objective, deltas, value, grad, config.step_size)
        elif fall.size:
            fallback = _gradient_steps(objective.take(fall), deltas[fall], value[fall], grad[fall], config.step_size)
            for whole, part in zip(step, fallback):
                whole[fall] = part
        descended, s, value, r = step
        stopped = ~descended | (np.mean(np.linalg.norm(s, axis=-1), axis=-1) < config.tol)
        moved = deltas + s
        if stopped.any():
            finish(live[~descended], deltas[~descended], it, "no_descent")
            converged = stopped & descended
            finish(live[converged], moved[converged], it + 1, "tol")
            if stopped.all():
                break
            keep = ~stopped
            live, moved, value, r, mu = (a[keep] for a in (live, moved, value, r, mu))
            objective = objective.take(keep)
        deltas = moved
        grad, hess = objective.derivatives(deltas, r, newton)
    else:
        out[live] = deltas
    return out, iters, stops


def infer_parametric_stack(encoder, model: ParametricMotion, images_t, images_t1, config=None, newton=False):
    """Descent for a stack of pairs of one frame size, (P, H, W) each, with
    the iterates, iteration counts and stop reasons that `infer_parametric`
    gives each pair alone.  A ``config.init_field`` holds (P, N, 2) starts; a
    random start is the one draw that each pair takes alone.

    Returns (positions (N, 2), fields (P, N, 2), iterations (P,), stop reasons (P,)).
    """
    config = config or InferConfig()
    if not isinstance(model, ParametricMotion):
        raise ShapeError("infer_parametric needs a parametric motion model")
    images_t = np.asarray(images_t, dtype=np.float64)
    images_t1 = np.asarray(images_t1, dtype=np.float64)
    if images_t.shape != images_t1.shape:
        raise ShapeError("frame pair dimensions differ")
    pos = infer_positions(encoder, model, images_t.shape[-2:], config.margin)
    grid_shape = tuple(map(len, lattice_axes(pos)))
    v0 = _encode_frames(encoder, images_t, pos)
    v1 = _encode_frames(encoder, images_t1, pos)
    shape = (len(images_t), len(pos), 2)
    if config.init_field is not None:
        deltas = np.array(config.init_field, dtype=np.float64).reshape(shape)
    elif config.init == "zeros":
        deltas = np.zeros(shape)
    else:
        start = np.random.default_rng(config.rng_seed).uniform(-0.5, 0.5, shape[1:])
        deltas = np.broadcast_to(start, shape).copy()
    objective = _PolynomialObjective(model.coeffs, v0, v1, config.smoothness_weight, grid_shape)
    return (pos,) + _descend(objective, deltas, config, newton)


def infer_parametric(
    encoder,
    model: ParametricMotion,
    image_t,
    image_t1,
    config: InferConfig | None = None,
    newton: bool = True,
    stops: list | None = None,
) -> DisplacementField:
    """Descent on the rotation residual plus a smoothness penalty.

    Damped Newton steps solve the coupled system over all 2N unknowns by
    elimination over the lattice rows, in O(N nx^2) time and O(N nx) memory
    for nx positions per row; with ``newton=False`` (and whenever no damped
    step descends) a step is a backtracking gradient step of at most
    ``config.step_size``.  Accepted iterations are monotone either way.  Stops
    at the iteration cap, once the mean update drops below ``config.tol``
    pixels, or when no step descends; ``stops``, when given, receives
    (iterations, stop reason) of the call.
    """
    pos, fields, iters, reasons = infer_parametric_stack(
        encoder, model, np.asarray(image_t)[None], np.asarray(image_t1)[None], config, newton=newton
    )
    if stops is not None:
        stops.append((int(iters[0]), reasons[0]))
    return DisplacementField(pos, fields[0])


def descent_summary(stops) -> dict:
    """Counts of each stop reason and the median and largest iteration count of
    (iterations, stop reason) pairs, as run summaries report them."""
    iters = [it for it, _ in stops]
    return {
        "stops": {reason: sum(r == reason for _, r in stops) for reason in STOP_REASONS},
        "iters_median": float(np.median(iters)),
        "iters_max": max(iters),
    }


# ---------------------------------------------------------------------------
# animation, interpolation

# border (px) that interpolation's stop rule leaves out: overlap-add
# reconstruction under-covers the outer pixels
INTERP_MARGIN = 8


def _field_on_positions(field: DisplacementField, positions) -> np.ndarray:
    """The vector of the nearest field position (a margin-trimmed field has fewer),
    found row and column apart, at each of ``positions``."""
    rows, cols = lattice_axes(field.positions)
    i = np.argmin(np.abs(positions[:, :1] - rows), axis=1)
    j = np.argmin(np.abs(positions[:, 1:] - cols), axis=1)
    return field.vectors[i * len(cols) + j]


def animate(encoder, model, image0, fields) -> list[np.ndarray]:
    """Roll the model forward: transform encodings, decode, re-encode, repeat.

    ``fields`` are DisplacementFields on a lattice.  Every lattice position is
    predicted; mixed supports that stick out of the image fall back to
    clamped patch centers so the reconstruction canvas stays fully covered.
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
):
    """Walk from ``image0`` toward ``image_target`` by repeatedly picking, per
    position, the candidate whose transformed vector best matches the target
    encoding.  Returns (frames including the start, success flag).

    The stop rule compares mean absolute intensity at least INTERP_MARGIN
    pixels from the border.
    """
    if isinstance(model, ParametricMotion):
        raise ShapeError("interpolation scans a candidate grid; needs a nonparametric or mixed model")
    cur = np.asarray(image0, dtype=np.float64)
    target = np.asarray(image_target, dtype=np.float64)
    if cur.shape != target.shape:
        raise ShapeError("frame pair dimensions differ")
    h, w = cur.shape
    m = min(INTERP_MARGIN, (h - 1) // 2, (w - 1) // 2)
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


# ---------------------------------------------------------------------------
# field files: V1FD header, then the two float32 planes of the container

FIELD_MAGIC = b"V1FD"
FIELD_VERSION = 1


def write_field(path, field: DisplacementField) -> None:
    """Serialize a lattice field: grid geometry header + (d_row, d_col) planes."""
    rows, cols = lattice_axes(field.positions)
    ny, nx = len(rows), len(cols)
    row_step = int(rows[1] - rows[0]) if ny > 1 else 0
    col_step = int(cols[1] - cols[0]) if nx > 1 else 0
    if np.any(np.diff(rows) != row_step) or np.any(np.diff(cols) != col_step):
        raise ShapeError("field lattice is not evenly spaced")
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
    if len(raw) < 32:
        raise DataFormatError(f"{path}: {len(raw)}-byte field file is shorter than its 32-byte header")
    # Python ints: the body size of a large header must not wrap
    version, nx, ny, row0, col0, row_step, col_step = map(int, np.frombuffer(raw[4:32], dtype="<u4"))
    if version != FIELD_VERSION:
        raise DataFormatError(f"{path}: unsupported field version {version}")
    if nx == 0 or ny == 0:
        raise DataFormatError(f"{path}: empty {ny}x{nx} field lattice")
    if (ny > 1 and row_step == 0) or (nx > 1 and col_step == 0):
        raise DataFormatError(f"{path}: zero step on a {ny}x{nx} field lattice")
    if len(raw) != 32 + 4 * 2 * nx * ny:
        raise DataFormatError(f"{path}: {len(raw)}-byte file does not hold a {ny}x{nx} field")
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

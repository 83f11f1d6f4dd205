"""Displacement-field inference and the sequence tasks built on top of it:
multi-step animation with re-encoding and frame interpolation."""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CHUNK_BYTES,
    ZERO_SUPPORT,
    DisplacementField,
    VectorField,
    border_filter,
    decode,
    eval_positions,
    lattice_axes,
    offset_encodings,
    predict,
    size_groups,
    support_centers,
)
from .errors import ConfigError, DataFormatError, ShapeError


@dataclass
class InferConfig:
    """Settings shared by grid and gradient-descent inference."""

    margin: int = 8
    smoothness_weight: float = 0.0
    step_size: float = 0.25
    max_iters: int = 200
    tol: float = 1e-4  # mean update (px) that counts as converged
    init: str = "random"  # "random" | "zeros"; descent takes other starts as an argument
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("margin", "smoothness_weight", "max_iters", "tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.init not in ("random", "zeros"):
            raise ValueError(f"init must be 'random' or 'zeros', got {self.init!r}")


def infer_positions(encoder, model, shape, margin: int = 8) -> np.ndarray:
    """Evaluation lattice: patch (and mixing support) in bounds, border left out."""
    pos = eval_positions(encoder, model, shape)
    keep = border_filter(pos, shape, margin)
    if not np.any(keep):
        raise ConfigError(f"margin {margin} leaves no evaluation position in a {shape[0]}x{shape[1]} frame")
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


def _score_pairs(blocks, support, targets):
    """The grid scores of each pair of a stack: yields, pair by pair, the
    squared residuals (C, N) of every candidate against the target codes
    ``targets`` (P, N, K, d), from a table's ``blocks`` (K, C*d, m*d) and the
    support vectors ``support`` (P, N, K, m*d) of `offset_encodings`; each
    pair's scores overwrite the last pair's.

    Each pair's support is laid out once as (K, m*d, N).  For each sub-vector
    k in turn, one (C*d, m*d) @ (m*d, N) product lands in a buffer that stays
    in cache; the target is subtracted there, the difference squared, its d
    rows summed and the sum added to the scores.
    These are table-wide products, the whole table against all of a pair's
    positions per block, where training and `_step` contract each position's
    own matrices with `predict`; the sums are those of the whole prediction
    reduced over d and then over K, in that order."""
    k, cd, _ = blocks.shape
    n, d = targets.shape[1], targets.shape[-1]
    scores, part, diff = np.empty((cd // d, n)), np.empty((cd // d, n)), np.empty((cd, n))
    sq = diff.reshape(-1, d, n)
    for p in range(len(support)):
        right = np.ascontiguousarray(np.moveaxis(support[p], 0, -1))  # (K, m*d, N)
        target = np.moveaxis(targets[p], 0, -1)  # (K, d, N)
        for j in range(k):
            np.matmul(blocks[j], right[j], out=diff)
            np.subtract(sq, target[j], out=sq)
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


def _grid_argmin(grid, blocks, support, targets) -> np.ndarray:
    """Per position of each pair of a stack, the candidate (P, N, 2) of ``grid``
    of least rotation residual, ties broken toward the smallest norm, then
    lexicographically: from a table's ``blocks`` (`table_blocks`), the support
    vectors (P, N, K, m*d) and the target codes (P, N, K, d) of
    `offset_encodings`, each pair scored on its own columns by `_score_pairs`."""
    order = _candidate_order(grid)
    scores = _score_pairs(blocks, support, targets)
    # candidates scanned in tie-break order: argmin returns the first minimum
    return grid.candidates()[np.stack([order[np.argmin(s[order], axis=0)] for s in scores])]


# ---------------------------------------------------------------------------
# descent on a model's objective

STOP_REASONS = ("tol", "cap", "no_descent")
_BACKTRACKS = 40  # step halvings before a gradient step counts as failed
_DAMPINGS = 12  # damped solves before a Newton step counts as failed (9 at most seen)


class _NewtonSystem:
    """The Newton matrices blockdiag(hess) + 2 lam L (x) I_2 of one iteration,
    one per pair of a stack, L the graph Laplacian of the 4-neighbour lattice
    (the Hessian of the smoothness term), solved with each pair's damping mu I
    added.

    Without smoothness the positions decouple into N 2x2 systems, solved in
    closed form.  With it each matrix is block tridiagonal over the lattice
    rows, with -2 lam I between neighbouring rows: block elimination over the
    rows takes O(N nx^2) time and O(N nx) memory per pair for nx positions per
    row, with one batched Cholesky test and one batched inversion of the
    pivot blocks per row; the Cholesky tests tell whether a pair's matrix is
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
        inv = []  # the pivot blocks inverted, one (live, m, m) array per lattice row
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


def _infer_stack(encoder, model, images_t, images_t1, pos, grid_shape, config, blocks, newton, starts):
    """The fields (P, N, 2) of a stack of pairs of one frame size, (P, H, W)
    each, at the positions ``pos`` (N, 2) of their ``grid_shape`` lattice,
    from two `offset_encodings` gathers: frames t over the model's support, and
    frames t+1 on the zero offset (their lattice codes).  A table takes the
    `_grid_argmin` of its ``blocks``; a model with an ``objective`` takes
    `_descend` on it, with ``newton``, from the fields ``starts`` (P, N, 2) when
    given, else from ``config.init`` (a random start is the one draw that each
    pair takes alone).  Returns (fields,), or for descent (fields, iterations
    (P,), stop reasons (P,))."""
    support = offset_encodings(encoder, images_t, pos, model.offsets)
    targets = offset_encodings(encoder, images_t1, pos, ZERO_SUPPORT)
    if model.objective is None:
        return (_grid_argmin(model.grid, blocks, support, targets),)
    shape = (len(images_t), len(pos), 2)
    if starts is not None:
        deltas = np.array(starts, dtype=np.float64).reshape(shape)
    elif config.init == "zeros":
        deltas = np.zeros(shape)
    else:
        start = np.random.default_rng(config.rng_seed).uniform(-0.5, 0.5, shape[1:])
        deltas = np.broadcast_to(start, shape).copy()
    objective = model.objective(support, targets, config.smoothness_weight, grid_shape)
    return _descend(objective, deltas, config, newton)


# ---------------------------------------------------------------------------
# the driver: pairs of any frame sizes, as memory-bounded stacks

# the Newton blocks of one descent stack, ny (2 nx)^2 float64 per pair; they
# take as much again inverted
NEWTON_STACK_BYTES = 4 * 2**20


def parallel_map(fn, items, threads: int):
    """Order-preserving map; results are independent of the thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _stacks(members: list[int], pair_bytes: int, budget: int, threads: int) -> list[list[int]]:
    """One frame size's pairs ``members`` cut into contiguous stacks: at least
    ``threads`` of them, and each holding at most as many pairs of
    ``pair_bytes`` as fit in ``budget`` (a pair larger than that is a stack
    alone)."""
    per_stack = max(1, budget // pair_bytes)
    count = max(min(threads, len(members)), -(-len(members) // per_stack))
    return [part.tolist() for part in np.array_split(members, count)]


def infer_pairs(encoder, model, pairs, config: InferConfig | None = None, newton=True, starts=None, threads=1):
    """The fields of frame pairs ``pairs``, (image_t, image_t1) each, of any
    sizes: the one path from pairs to fields.  Every size's positions and
    lattice are found once, first, so a frame too small or a margin that
    leaves no position raises before any work.  Each size's pairs are cut into
    contiguous stacks of `_infer_stack`, at least ``threads`` of them, run in
    that many threads, each within a byte bound: NEWTON_STACK_BYTES for the
    Newton blocks (ny (2 nx)^2 float64 a pair) of a model that descends (from
    each pair's field of ``starts`` when given), CHUNK_BYTES for the support
    patches (p^2 float64 a center and pair) of a table, which every stack
    scores on the blocks that one ``table_blocks()`` call lays out.  Each pair
    gets the result of its stack of one.

    Returns (positions, fields, stops): each pair's positions (N, 2) and field
    (N, 2), and each descent's (iterations, stop reason), empty without descent.
    """
    config = config or InferConfig()
    if any(np.shape(a) != np.shape(b) for a, b in pairs):
        raise ShapeError("frame pair dimensions differ")
    descends = model.objective is not None
    stacks = []  # (pairs, positions, lattice shape) of each stack
    for members in size_groups([a for a, _ in pairs]):
        shape = np.shape(pairs[members[0]][0])
        pos = infer_positions(encoder, model, shape, config.margin)
        ny, nx = grid_shape = tuple(map(len, lattice_axes(pos)))
        if descends:
            cut = _stacks(members, 8 * ny * (2 * nx) ** 2, NEWTON_STACK_BYTES, threads)
        else:
            centers, _ = support_centers(encoder, shape, pos, model.offsets)
            cut = _stacks(members, 8 * encoder.patch_size**2 * len(centers), CHUNK_BYTES, threads)
        stacks += [(part, pos, grid_shape) for part in cut]
    blocks = None if descends else model.table_blocks()

    def infer(stack):
        members, pos, grid_shape = stack
        images_t = np.stack([pairs[i][0] for i in members])
        images_t1 = np.stack([pairs[i][1] for i in members])
        begin = None if starts is None else np.stack([starts[i] for i in members])
        return _infer_stack(encoder, model, images_t, images_t1, pos, grid_shape, config, blocks, newton, begin)

    positions, fields, stops = [None] * len(pairs), [None] * len(pairs), [None] * len(pairs)
    for (members, pos, _), (found, *descent) in zip(stacks, parallel_map(infer, stacks, threads)):
        for j, i in enumerate(members):
            positions[i], fields[i] = pos, found[j]
            if descends:
                stops[i] = (int(descent[0][j]), descent[1][j])
    return positions, fields, stops if descends else []


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


def _step(encoder, model, cur, positions, field) -> np.ndarray:
    """The frame that follows ``cur``: the support vectors (N, K, m*d) of the full
    lattice ``positions``, gathered once with centers clamped into the frame so
    that the canvas stays covered, predicted along the field ``field(support)``
    (N, 2) and decoded."""
    support = offset_encodings(encoder, cur, positions, model.offsets, clamp=True)
    pred = predict(model.support_matrices(field(support)), support)
    return decode(encoder, VectorField(positions, pred), cur.shape)


def animate(encoder, model, image0, fields) -> list[np.ndarray]:
    """Roll the model forward: transform encodings, decode, re-encode, repeat.

    ``fields`` are DisplacementFields on a lattice, each read at every lattice
    position by `_field_on_positions`, one `_step` per field.
    """
    cur = np.asarray(image0, dtype=np.float64)
    positions = encoder.grid.positions(*cur.shape)
    frames = []
    for fld in fields:
        deltas = _field_on_positions(fld, positions)
        cur = _step(encoder, model, cur, positions, lambda _: deltas)
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
    """Walk from ``image0`` toward ``image_target``: each step is animate's `_step`
    along the grid argmin of its own support against the target's codes.
    Returns (frames including the start, success flag).

    The stop rule compares mean absolute intensity at least INTERP_MARGIN
    pixels from the border.
    """
    if model.grid is None:
        raise ShapeError("interpolation scans a candidate grid; needs a table model")
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
    targets = offset_encodings(encoder, target, positions, ZERO_SUPPORT)[None]
    blocks = model.table_blocks()

    def argmin(support):
        return _grid_argmin(model.grid, blocks, support[None], targets)[0]

    frames = [cur]
    while not close(cur) and len(frames) <= max_steps:
        cur = _step(encoder, model, cur, positions, argmin)
        frames.append(cur)
    return frames, close(cur)


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

"""Patch encoders, motion matrices, vector fields, and the forward model.

Conventions used throughout the package:

* Images are 2-D float arrays indexed ``image[row, col]`` with grayscale
  values nominally in [0, 1].
* A position ``x`` is an integer ``(row, col)`` pair.  The p x p patch at
  ``x`` covers rows ``[row - p//2, row + p - p//2)`` and the same for
  columns, so a 16 x 16 patch spans offsets -8..+7 around its center.
* Displacements are ``(d_row, d_col)`` pairs in pixels.  A pair of frames
  related by a displacement field satisfies
  ``frame2[x] = frame1[x - delta(x)]`` (backward warping).
* Patches are flattened row-major; the rows of an encoder block are
  filters of length ``p*p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundsError, DataFormatError, GridLookupError, ShapeError


def as_image(a) -> np.ndarray:
    """Validate and convert an array to a float64 grayscale image."""
    img = np.asarray(a, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 3:
        # luminance conversion for color input
        img = 0.299 * img[:, :, 0] + 0.587 * img[:, :, 1] + 0.114 * img[:, :, 2]
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ShapeError(f"expected a 2-D image, got shape {np.shape(a)}")
    if not np.all(np.isfinite(img)):
        raise ShapeError("image contains non-finite samples")
    return np.ascontiguousarray(img)


# ---------------------------------------------------------------------------
# sampling grids


@dataclass(frozen=True)
class GridSpec:
    """Patch size and stride defining the sub-sampled evaluation lattice."""

    patch_size: int = 16
    stride: int = 8

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError("patch_size must be positive")
        if not 0 < self.stride <= self.patch_size:
            raise ValueError("stride must be in (0, patch_size]")

    def center_range(self, length: int) -> tuple[int, int]:
        """Inclusive range of valid patch centers along one axis."""
        p = self.patch_size
        return p // 2, length - (p - p // 2)

    def positions(self, height: int, width: int, inset: int = 0) -> np.ndarray:
        """All lattice positions whose patch (plus ``inset``) fits, as (N, 2) ints."""
        rows = self._axis(height, inset)
        cols = self._axis(width, inset)
        if rows.size == 0 or cols.size == 0:
            raise BoundsError(
                f"no valid patch centers for image {height}x{width} "
                f"(patch {self.patch_size}, inset {inset})"
            )
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        return np.stack([rr.ravel(), cc.ravel()], axis=1)

    def _axis(self, length: int, inset: int) -> np.ndarray:
        lo, hi = self.center_range(length)
        pts = np.arange(lo, hi + 1, self.stride)
        return pts[(pts >= lo + inset) & (pts <= hi - inset)]


def lattice_axes(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted row and column coordinates of a lattice of (N, 2) positions; ShapeError
    unless the positions are exactly the row-major product of the two."""
    rows, cols = np.unique(positions[:, 0]), np.unique(positions[:, 1])
    ny, nx = len(rows), len(cols)
    grid = positions.reshape(ny, nx, 2) if len(positions) == ny * nx else None
    if grid is None or np.any(grid[..., 0] != rows[:, None]) or np.any(grid[..., 1] != cols):
        raise ShapeError("positions do not form a row-major rectangular lattice")
    return rows, cols


def border_filter(positions: np.ndarray, shape: tuple[int, int], margin: int) -> np.ndarray:
    """Boolean mask of positions at least ``margin`` pixels from every border."""
    r, c = positions[:, 0], positions[:, 1]
    h, w = shape
    return (r >= margin) & (c >= margin) & (r <= h - 1 - margin) & (c <= w - 1 - margin)


# ---------------------------------------------------------------------------
# patch extraction and the linear encoder


def _patch_indices(shape: tuple[int, int], positions: np.ndarray, p: int) -> np.ndarray:
    """Flat image indices of every patch pixel, shape (N, p*p)."""
    h, w = shape
    corner = np.asarray(positions, dtype=np.int64).reshape(-1, 2) - p // 2
    if np.any(corner < 0) or np.any(corner + p > (h, w)):
        raise BoundsError(f"patch of size {p} out of bounds for image {h}x{w}")
    span = np.arange(p)
    # each patch's top-left pixel plus the row-major offsets of a patch
    return (corner[:, :1] * w + corner[:, 1:]) + (span[:, None] * w + span).ravel()


def extract_patches(images: np.ndarray, positions: np.ndarray, patch_size: int, out=None) -> np.ndarray:
    """Flattened patches of an image (H, W) or a stack (..., H, W), shape (..., N, p*p),
    written into ``out`` when given."""
    images = np.asarray(images, dtype=np.float64)
    idx = _patch_indices(images.shape[-2:], positions, patch_size)
    # take() keeps the result C-ordered; images[..., idx] would lay the stack axis last.
    # The indices are checked above: mode "clip" spares take() the temporary copy
    # that mode "raise" makes of ``out``.
    return np.take(images.reshape(images.shape[:-2] + (-1,)), idx, axis=-1, out=out, mode="clip")


@dataclass(frozen=True)
class Encoder:
    """Linear patch encoder split into K blocks of d filters each.

    ``weights`` has shape (K, d, p*p); stacking the blocks gives the full
    (K*d) x p*p encoding matrix.  The transposed blocks double as the
    synthesis basis for decoding.
    """

    weights: np.ndarray
    patch_size: int = 16
    stride: int = 8

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 3:
            raise ShapeError(f"encoder weights must be (K, d, p*p), got {w.shape}")
        if w.shape[2] != self.patch_size * self.patch_size:
            raise ShapeError(
                f"filter length {w.shape[2]} != patch_size^2 = {self.patch_size ** 2}"
            )
        if not np.all(np.isfinite(w)):
            raise ShapeError("encoder weights contain non-finite entries")
        object.__setattr__(self, "weights", w)

    @property
    def num_blocks(self) -> int:
        return self.weights.shape[0]

    @property
    def block_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.patch_size, self.stride)

    def matrix(self) -> np.ndarray:
        """The stacked (K*d) x p*p encoding matrix."""
        k, d, q = self.weights.shape
        return self.weights.reshape(k * d, q)

    @classmethod
    def random(cls, num_blocks, block_dim, patch_size=16, stride=8, rng=None, scale=None):
        """Gaussian init; scale defaults to 1/patch_size."""
        rng = np.random.default_rng(rng)
        if scale is None:
            scale = 1.0 / patch_size
        w = scale * rng.standard_normal((num_blocks, block_dim, patch_size * patch_size))
        return cls(w, patch_size, stride)


@dataclass(frozen=True)
class VectorField:
    """Encoded vectors, one (K, d) block stack per position."""

    positions: np.ndarray  # (N, 2) int
    vectors: np.ndarray  # (N, K, d) float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        vec = np.asarray(self.vectors, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ShapeError(f"positions must be (N, 2), got {pos.shape}")
        if vec.ndim != 3 or vec.shape[0] != pos.shape[0]:
            raise ShapeError(f"vectors must be (N, K, d) matching positions, got {vec.shape}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "vectors", vec)


def apply_encoder(weights: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """Encode flattened patches (..., p*p) into (..., K, d) block vectors."""
    k, d, q = weights.shape
    flat = patches.reshape(-1, q) @ weights.reshape(k * d, q).T
    return flat.reshape(patches.shape[:-1] + (k, d))


def encode(encoder: Encoder, image: np.ndarray, positions: np.ndarray | None = None) -> VectorField:
    """v^(k)(x) = W^(k) patch(x) at each position (default: the full lattice)."""
    image = np.asarray(image, dtype=np.float64)
    if positions is None:
        positions = encoder.grid.positions(*image.shape)
    patches = extract_patches(image, positions, encoder.patch_size)
    return VectorField(positions, apply_encoder(encoder.weights, patches))


def decode(encoder: Encoder, field: VectorField, shape: tuple[int, int]) -> np.ndarray:
    """Overlap-add of W^(k)T v^(k)(x) patches; uncovered pixels stay zero."""
    k, d, q = encoder.weights.shape
    if field.vectors.shape[1:] != (k, d):
        raise ShapeError(
            f"field blocks {field.vectors.shape[1:]} do not match encoder ({k}, {d})"
        )
    patches = field.vectors.reshape(-1, k * d) @ encoder.weights.reshape(k * d, q)
    return overlap_add(patches, field.positions, shape, encoder.patch_size)


def overlap_add(patches: np.ndarray, positions: np.ndarray, shape, patch_size: int) -> np.ndarray:
    """Sum flattened patches (..., N, p*p) into zeroed canvases (..., H, W) at
    their positions; each canvas adds its patches in order."""
    idx = _patch_indices(shape, positions, patch_size).ravel()
    npix = shape[0] * shape[1]
    stack = patches.reshape(int(np.prod(patches.shape[:-2])), -1)
    canvas = np.empty((len(stack), npix))
    for c, weights in enumerate(stack):  # one canvas at a time: no stack-sized index array
        canvas[c] = np.bincount(idx, weights=weights, minlength=npix)
    return canvas.reshape(patches.shape[:-2] + tuple(shape))


# ---------------------------------------------------------------------------
# displacement candidates and fields


@dataclass(frozen=True)
class DisplacementGrid:
    """Square grid of displacement candidates on [lo, hi]^2 with fixed step."""

    lo: float = -6.0
    hi: float = 6.0
    step: float = 0.5

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.step <= 0:
            raise ValueError("step must be positive")
        n = (self.hi - self.lo) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValueError("step must evenly divide hi - lo")

    @property
    def side(self) -> int:
        return int(round((self.hi - self.lo) / self.step)) + 1

    @property
    def values(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.side)

    @property
    def num_candidates(self) -> int:
        return self.side * self.side

    def candidates(self) -> np.ndarray:
        """All (d_row, d_col) candidates, d_row-major, shape (n, 2)."""
        v = self.values
        a, b = np.meshgrid(v, v, indexing="ij")
        return np.stack([a.ravel(), b.ravel()], axis=1)

    def index_of(self, delta) -> int:
        """Exact lookup; raises if ``delta`` is not on the grid."""
        d = np.asarray(delta, dtype=np.float64)
        i = np.round((d - self.lo) / self.step).astype(np.int64)
        if np.any(i < 0) or np.any(i >= self.side):
            raise GridLookupError(f"displacement {tuple(d.tolist())} outside grid [{self.lo}, {self.hi}]")
        if np.max(np.abs(self.lo + i * self.step - d)) > 1e-9:
            raise GridLookupError(f"displacement {tuple(d.tolist())} not on the {self.step}-step grid")
        return int(i[0] * self.side + i[1])

    def round_indices(self, deltas: np.ndarray) -> np.ndarray:
        """Nearest-candidate index per row of ``deltas``; raises if out of range.

        Ties round half-up so rounding is independent of candidate parity.
        """
        d = np.asarray(deltas, dtype=np.float64)
        i = np.floor((d - self.lo) / self.step + 0.5).astype(np.int64)
        if np.any(i < 0) or np.any(i >= self.side):
            raise GridLookupError("displacement outside candidate range")
        return i[..., 0] * self.side + i[..., 1]


@dataclass(frozen=True)
class DisplacementField:
    """Displacement vectors attached to a set of positions."""

    positions: np.ndarray  # (N, 2) int
    vectors: np.ndarray  # (N, 2) float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        vec = np.asarray(self.vectors, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or vec.shape != pos.shape:
            raise ShapeError(f"positions {pos.shape} / vectors {vec.shape} mismatch")
        if not np.all(np.isfinite(vec)):
            raise ShapeError("displacement field contains non-finite components")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "vectors", vec)


# ---------------------------------------------------------------------------
# motion models


def support_offsets(radius: int = 4, step: int = 2) -> np.ndarray:
    """Integer offsets of the local mixing support, shape (m, 2)."""
    v = np.arange(-radius, radius + 1, step)
    a, b = np.meshgrid(v, v, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


# the support of a model without mixing: the patch at x alone
_ZERO_SUPPORT = np.zeros((1, 2), dtype=np.int64)
_ZERO_SUPPORT.flags.writeable = False


@dataclass(frozen=True)
class NonParametricMotion:
    """One learned d x d matrix per block per displacement candidate.

    Its support is the zero offset alone, so it reads as a mixed model whose
    table has a single offset.
    """

    grid: DisplacementGrid
    matrices: np.ndarray  # (n_candidates, K, d, d)

    offsets = _ZERO_SUPPORT
    max_offset = 0

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=np.float64)
        if m.ndim != 4 or m.shape[0] != self.grid.num_candidates or m.shape[2] != m.shape[3]:
            raise ShapeError(f"matrices must be (n_cand, K, d, d), got {m.shape}")
        object.__setattr__(self, "matrices", m)

    @property
    def num_blocks(self):
        return self.matrices.shape[1]

    @property
    def block_dim(self):
        return self.matrices.shape[2]

    @property
    def table(self) -> np.ndarray:
        """The matrices as a single-offset mixed table, (n_candidates, 1, K, d, d)."""
        return self.matrices[:, None]

    @cached_property
    def table_blocks(self) -> np.ndarray:
        """The table in the block layout of `predict`, built on first use."""
        return block_layout(self.table)

    @classmethod
    def identity(cls, grid, num_blocks, block_dim):
        m = np.zeros((grid.num_candidates, num_blocks, block_dim, block_dim))
        m[...] = np.eye(block_dim)
        return cls(grid, m)


@dataclass(frozen=True)
class MixedMotion:
    """Candidate matrices additionally indexed by mixing offset dx."""

    grid: DisplacementGrid
    offsets: np.ndarray  # (m, 2) int
    matrices: np.ndarray  # (n_candidates, m, K, d, d)

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.int64)
        m = np.asarray(self.matrices, dtype=np.float64)
        if off.ndim != 2 or off.shape[1] != 2:
            raise ShapeError(f"offsets must be (m, 2), got {off.shape}")
        if m.ndim != 5 or m.shape[0] != self.grid.num_candidates or m.shape[1] != len(off):
            raise ShapeError(f"matrices must be (n_cand, m, K, d, d), got {m.shape}")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "matrices", m)

    @property
    def num_blocks(self):
        return self.matrices.shape[2]

    @property
    def block_dim(self):
        return self.matrices.shape[3]

    @property
    def max_offset(self) -> int:
        return int(np.max(np.abs(self.offsets))) if len(self.offsets) else 0

    @property
    def table(self) -> np.ndarray:
        return self.matrices

    @cached_property
    def table_blocks(self) -> np.ndarray:
        """The table in the block layout of `predict`, built on first use."""
        return block_layout(self.table)

    @classmethod
    def identity(cls, grid, offsets, num_blocks, block_dim):
        """Identity at dx = 0, zero elsewhere: the no-motion model, its matrices a view
        of candidate-major block rows (`rows_table`), the layout training reads."""
        offsets = np.asarray(offsets, dtype=np.int64)
        rows = np.zeros((grid.num_candidates, num_blocks, block_dim, len(offsets) * block_dim))
        m = rows_table(rows, len(offsets))
        center = np.nonzero((offsets == 0).all(axis=1))[0]
        if len(center) == 0:
            raise ValueError("mixing support must contain the zero offset")
        m[:, center[0]] = np.eye(block_dim)
        return cls(grid, offsets, m)


# order of the parametric coefficient matrices along axis 0
PARAM_TERMS = ("b1", "b2", "b11", "b22", "b12")


@dataclass(frozen=True)
class ParametricMotion:
    """Second-order polynomial motion: M(delta) = I + B1 d1 + B2 d2 + ...

    ``coeffs`` stacks the five coefficient tensors (B1, B2, B11, B22, B12),
    each (K, d, d), so M(0) is exactly the identity by construction.
    """

    coeffs: np.ndarray  # (5, K, d, d)

    offsets = _ZERO_SUPPORT
    max_offset = 0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 4 or c.shape[0] != 5 or c.shape[2] != c.shape[3]:
            raise ShapeError(f"coeffs must be (5, K, d, d), got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def num_blocks(self):
        return self.coeffs.shape[1]

    @property
    def block_dim(self):
        return self.coeffs.shape[2]

    @classmethod
    def zeros(cls, num_blocks, block_dim):
        return cls(np.zeros((5, num_blocks, block_dim, block_dim)))


MotionModel = NonParametricMotion | MixedMotion | ParametricMotion


def delta_basis(deltas: np.ndarray) -> np.ndarray:
    """Polynomial features (d1, d2, d1^2, d2^2, d1*d2), shape (..., 5)."""
    d = np.asarray(deltas, dtype=np.float64)
    d1, d2 = d[..., 0], d[..., 1]
    return np.stack([d1, d2, d1 * d1, d2 * d2, d1 * d2], axis=-1)


def polynomial_matrices(coeffs: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """M(delta) = I + sum_j basis_j(delta) B_j for (5, K, d, d) coefficients, shape (..., K, d, d)."""
    basis = delta_basis(deltas)
    _, k, d, _ = coeffs.shape
    m = (basis.reshape(-1, 5) @ coeffs.reshape(5, -1)).reshape(basis.shape[:-1] + (k, d, d))
    m += np.eye(d)
    return m


# ---------------------------------------------------------------------------
# the forward model: support gather, delta -> M lookup, prediction


def eval_positions(encoder, model, shape) -> np.ndarray:
    """Lattice positions whose patch, over the model's whole support, fits in ``shape``.

    An image without one raises DataFormatError naming the smallest side that
    has one: the patch plus the support on both sides, where the support's
    inner side rounds up to the lattice stride.
    """
    inset, stride = model.max_offset, encoder.stride
    side = encoder.patch_size + inset + stride * -(-inset // stride)
    if min(shape) < side:
        raise DataFormatError(
            f"image {shape[0]}x{shape[1]} is too small for the model: it needs at least "
            f"{side}x{side} (patch {encoder.patch_size}, support radius {inset}, stride {stride})"
        )
    return encoder.grid.positions(*shape, inset=inset)


def support_centers(encoder, shape, positions, offsets, clamp=False):
    """Unique centers (U, 2) of every position + offset and the one each lands on (N, m);
    ``clamp`` clips them into the patch range of ``shape`` (full-canvas decoding)."""
    centers = np.asarray(positions, dtype=np.int64)[:, None, :] + np.asarray(offsets, dtype=np.int64)
    if clamp:
        for axis, length in enumerate(shape):
            centers[..., axis] = np.clip(centers[..., axis], *encoder.grid.center_range(length))
    # one integer per center, ordered as its (row, col): a 1-D unique sorts as axis 0 would
    lo = centers.min(axis=(0, 1), initial=0)
    span = int(centers[..., 1].max(initial=0)) - int(lo[1]) + 1
    keys, inverse = np.unique((centers[..., 0] - lo[0]) * span + (centers[..., 1] - lo[1]), return_inverse=True)
    uniq = np.stack([keys // span + lo[0], keys % span + lo[1]], axis=1)
    return uniq, inverse.reshape(centers.shape[:2])


def offset_encodings(encoder, images, positions, offsets, clamp=False):
    """Encode an image (H, W) or a stack (..., H, W) at every position + offset.

    Returns (patches (..., U, p*p), vectors (..., U, K, d), inverse (N, m))
    at the unique centers of `support_centers`, so ``vectors[..., inverse,
    :, :]`` is (..., N, m, K, d).  Without ``clamp`` an out-of-bounds center
    raises BoundsError.
    """
    images = np.asarray(images, dtype=np.float64)
    uniq, inverse = support_centers(encoder, images.shape[-2:], positions, offsets, clamp)
    patches = extract_patches(images, uniq, encoder.patch_size)
    return patches, apply_encoder(encoder.weights, patches), inverse


def support_matrices(model, deltas: np.ndarray) -> np.ndarray:
    """M^(k)(delta, dx) for each offset dx of the model's support, shape (..., m, K, d, d).

    Tables snap each delta to its nearest candidate; a parametric model has
    the zero offset alone.
    """
    if isinstance(model, ParametricMotion):
        return polynomial_matrices(model.coeffs, deltas)[..., None, :, :, :]
    return model.table[model.grid.round_indices(deltas)]


def block_layout(mats: np.ndarray) -> np.ndarray:
    """R matrix sets (..., R, m, K, d, e) over a support of m offsets, laid out
    for `predict` as one (R*d, m*e) block per sub-vector, shape (..., K, R*d, m*e)."""
    r, m, k, d, e = mats.shape[-5:]
    left = np.moveaxis(mats, [-3, -5, -2, -4], [-5, -4, -3, -2])  # (..., K, R, d, m, e)
    return left.reshape(left.shape[:-5] + (k, r * d, m * e))


def table_rows(table: np.ndarray) -> np.ndarray:
    """A (C, m, K, d, d) table as candidate-major block rows (C, K, d, m*d): row c is
    candidate c's matrix set in the layout of `block_layout`, so per-position blocks
    are a gather of rows.  A view of a table that `rows_table` made, a copy of any other."""
    return block_layout(table[:, None])


def rows_table(rows: np.ndarray, m: int) -> np.ndarray:
    """The (C, m, K, d, d) table that candidate-major block rows (C, K, d, m*d) hold, as a view."""
    c, k, d, md = rows.shape
    return np.moveaxis(rows.reshape(c, k, d, m, md // m), 3, 1)


def predict(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_dx M^(k)(delta, dx) v^(k)(x + dx) for R matrix sets against n vector sets.

    ``blocks`` holds the matrix sets in the layout of `block_layout`,
    (..., K, R*d, m*d), and ``vectors`` is (..., n, m, K, d) over the same m
    offsets; leading axes broadcast and the result is (..., K, R, d, n).
    It runs as one (R*d, m*d) x (m*d, n) matrix product per block.
    Per-position callers pass R = n = 1.  Grid scoring (`inference._score_pairs`)
    runs the same products block by block, with the whole candidate table as
    R, laid out once per model (``table_blocks``), and a pair's positions as
    n, and reduces each product while it is in cache.
    """
    n, m, k, d = vectors.shape[-4:]
    right = np.moveaxis(vectors, [-2, -3, -1, -4], [-4, -3, -2, -1])  # (..., K, m, d, n)
    out = blocks @ right.reshape(right.shape[:-4] + (k, m * d, n))
    return out.reshape(out.shape[:-2] + (-1, d, n))


def predict_adjoint(blocks: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Adjoint of `predict` in its vectors, from the same ``blocks``: sum_R M^(k)(delta, dx)^T g
    per offset for ``grads`` laid out like `predict`'s result; shape (..., K, m, d, n)."""
    out = np.swapaxes(blocks, -1, -2) @ grads.reshape(grads.shape[:-3] + (-1, grads.shape[-1]))
    return out.reshape(out.shape[:-2] + (-1,) + grads.shape[-2:])


def predicted_vectors(encoder, model, image_t, positions, deltas, clamp=False):
    """Next-frame vector prediction at each position for given displacements, (N, K, d)."""
    _, vectors, inverse = offset_encodings(encoder, image_t, positions, model.offsets, clamp)
    mats = support_matrices(model, deltas)
    return predict(block_layout(mats[:, None]), vectors[inverse][:, None])[:, :, 0, :, 0]

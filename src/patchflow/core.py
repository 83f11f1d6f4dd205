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

There are two motion models: `MixedMotion`, a table of matrices over the
displacement candidates and a support of offsets (the nonparametric model
is the table on the zero offset alone), and `ParametricMotion`, whose
matrices are a polynomial in the displacement.  Callers use the same members
of both and never ask for the class: ``grid`` (None without candidates);
``offsets`` and ``max_offset``, the support; ``params``, the array that
training updates in place; the lookup ``support_matrices(deltas,
out=None)``, each position's matrix set (..., K, d, m*d) in `predict`'s layout;
``add_gradient(grad, deltas, g_m)``, which adds to ``grad`` (shaped as
``params``) the gradient of per-position matrix-set gradients ``g_m`` at
``deltas``; the descent objective ``objective(v0, v1, smoothness_weight,
grid_shape)`` of two frames' lattice codes, None for a table, which is
grid-scored on its ``table_blocks``; and ``checkpoint_entry()``, the
checkpoint header's motion entry and the block it describes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
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
            raise ValueError(f"patch_size must be positive, got {self.patch_size}")
        if not 0 < self.stride <= self.patch_size:
            raise ValueError(f"stride must be in (0, patch_size {self.patch_size}], got {self.stride}")

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


def gather_at(images: np.ndarray, idx: np.ndarray, out=None) -> np.ndarray:
    """Flattened patches (..., N, p*p) of an image (H, W) or a stack (..., H, W) at the
    checked patch-pixel indices ``idx`` (N, p*p) of `_patch_indices`, written into
    ``out`` when given."""
    images = np.asarray(images, dtype=np.float64)
    # take() keeps the result C-ordered; images[..., idx] would lay the stack axis last.
    # The indices are checked: mode "clip" spares take() the temporary copy that mode
    # "raise" makes of ``out``.
    return np.take(images.reshape(images.shape[:-2] + (-1,)), idx, axis=-1, out=out, mode="clip")


def overlap_add_at(patches: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Sum flattened patches (..., N, p*p) into zeroed canvases (..., H, W) at the checked
    patch-pixel indices ``idx`` (N, p*p) of `_patch_indices`; each canvas adds its
    patches in order."""
    idx = idx.ravel()
    npix = shape[0] * shape[1]
    stack = patches.reshape(int(np.prod(patches.shape[:-2])), -1)
    canvas = np.empty((len(stack), npix))
    for c, weights in enumerate(stack):  # one canvas at a time: no stack-sized index array
        canvas[c] = np.bincount(idx, weights=weights, minlength=npix)
    return canvas.reshape(patches.shape[:-2] + tuple(shape))


def extract_patches(images: np.ndarray, positions: np.ndarray, patch_size: int, out=None) -> np.ndarray:
    """Flattened patches of an image (H, W) or a stack (..., H, W), shape (..., N, p*p),
    written into ``out`` when given."""
    return gather_at(images, _patch_indices(np.shape(images)[-2:], positions, patch_size), out)


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
    return overlap_add_at(patches, _patch_indices(shape, positions, patch_size), shape)


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
            raise ValueError(f"candidate grid needs lo < hi, got lo {self.lo} and hi {self.hi}")
        if self.step <= 0:
            raise ValueError(f"candidate grid step must be positive, got {self.step}")
        n = (self.hi - self.lo) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"candidate grid step {self.step} must evenly divide hi - lo = {self.hi - self.lo}")

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
ZERO_SUPPORT = np.zeros((1, 2), dtype=np.int64)
ZERO_SUPPORT.flags.writeable = False


@dataclass(frozen=True)
class MixedMotion:
    """The table motion model: one learned d x d matrix per block, displacement
    candidate delta and support offset dx, so the prediction at x is
    sum_dx M(delta, dx) v(x + dx).

    The paper's nonparametric model is the table whose support is the zero
    offset alone (``support_offsets(0, 1)``); its mixed model has a wider
    support.  Checkpoints save the first under the ``nonparametric`` header.

    The table is held once, as C-ordered block rows ``rows``, row c candidate c's
    set in `predict`'s layout; ``matrices``, in the checkpoint's order, views them.
    """

    grid: DisplacementGrid
    offsets: np.ndarray  # (m, 2) int
    matrices: np.ndarray  # (n_candidates, m, K, d, d), a view of rows
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # (n_candidates, K, d, m*d)

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.int64)
        m = np.asarray(self.matrices, dtype=np.float64)
        if off.ndim != 2 or off.shape[1] != 2:
            raise ShapeError(f"offsets must be (m, 2), got {off.shape}")
        if m.ndim != 5 or m.shape[0] != self.grid.num_candidates or m.shape[1] != len(off):
            raise ShapeError(f"matrices must be (n_cand, m, K, d, d), got {m.shape}")
        rows = np.ascontiguousarray(np.moveaxis(m, 1, 3))  # (C, K, d, m, d): a copy unless m views C-ordered rows
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "matrices", np.moveaxis(rows, 3, 1))
        object.__setattr__(self, "rows", rows.reshape(rows.shape[:3] + (-1,)))

    @property
    def max_offset(self) -> int:
        return int(np.max(np.abs(self.offsets))) if len(self.offsets) else 0

    objective = None  # a table is grid-scored, not descended

    @property
    def params(self) -> np.ndarray:
        return self.rows

    @cached_property
    def table_blocks(self) -> np.ndarray:
        """Grid scoring's blocks (K, C*d, m*d), built on first use: block k stacks the rows of sub-vector k."""
        c, k, d, md = self.rows.shape
        return self.rows.transpose(1, 0, 2, 3).reshape(k, c * d, md)

    def support_matrices(self, deltas: np.ndarray, out=None) -> np.ndarray:
        """Each delta snapped to its nearest candidate, whose row is gathered, into ``out`` when given."""
        return np.take(self.rows, self.grid.round_indices(deltas), axis=0, out=out, mode="clip")

    def add_gradient(self, grad: np.ndarray, deltas: np.ndarray, g_m: np.ndarray) -> None:
        """Each candidate hit gains the sum of its positions' matrix-set gradients (`_add_rows`)."""
        _add_rows(grad, self.grid.round_indices(deltas).ravel(), g_m.reshape((len(g_m),) + grad.shape[1:]))

    def checkpoint_entry(self) -> tuple[dict, np.ndarray]:
        """A table on the zero offset alone saves as ``nonparametric``, its block (C, K, d, d)."""
        grid = {"lo": self.grid.lo, "hi": self.grid.hi, "step": self.grid.step}
        if self.offsets.tolist() == [[0, 0]]:
            return {"variant": "nonparametric", "grid": grid}, self.matrices[:, 0]
        return {"variant": "mixed", "grid": grid, "offsets": self.offsets.tolist()}, self.matrices

    @classmethod
    def identity(cls, grid, offsets, num_blocks, block_dim):
        """Identity at dx = 0, zero elsewhere: the no-motion model, written into its rows."""
        offsets = np.asarray(offsets, dtype=np.int64)
        center = np.nonzero((offsets == 0).all(axis=1))[0]
        if len(center) == 0:
            raise ValueError("mixing support must contain the zero offset")
        rows = np.zeros((grid.num_candidates, num_blocks, block_dim, len(offsets), block_dim))
        rows[:, :, :, center[0]] = np.eye(block_dim)
        return cls(grid, offsets, np.moveaxis(rows, 3, 1))


@dataclass(frozen=True)
class ParametricMotion:
    """Second-order polynomial motion: M(delta) = I + B1 d1 + B2 d2 + ...

    ``coeffs`` stacks the five coefficient tensors (B1, B2, B11, B22, B12),
    each (K, d, d), so M(0) is exactly the identity by construction.
    """

    coeffs: np.ndarray  # (5, K, d, d)

    offsets = ZERO_SUPPORT
    max_offset = 0
    grid = None  # no candidate grid: descended, not grid-scored

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 4 or c.shape[0] != 5 or c.shape[2] != c.shape[3]:
            raise ShapeError(f"coeffs must be (5, K, d, d), got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, num_blocks, block_dim):
        return cls(np.zeros((5, num_blocks, block_dim, block_dim)))

    @property
    def params(self) -> np.ndarray:
        return self.coeffs

    def support_matrices(self, deltas: np.ndarray, out=None) -> np.ndarray:
        """M(delta) on the zero offset alone, which is the layout `predict` reads."""
        return polynomial_matrices(self.coeffs, deltas, out)

    def add_gradient(self, grad: np.ndarray, deltas: np.ndarray, g_m: np.ndarray) -> None:
        """The per-position gradients contracted with their deltas' polynomial features."""
        grad += (delta_basis(deltas).reshape(-1, 5).T @ g_m).reshape(grad.shape)

    def objective(self, v0: np.ndarray, v1: np.ndarray, smoothness_weight: float, grid_shape):
        return _PolynomialObjective(self.coeffs, v0, v1, smoothness_weight, grid_shape)

    def checkpoint_entry(self) -> tuple[dict, np.ndarray]:
        return {"variant": "parametric"}, self.coeffs


def delta_basis(deltas: np.ndarray) -> np.ndarray:
    """Polynomial features (d1, d2, d1^2, d2^2, d1*d2), shape (..., 5)."""
    d = np.asarray(deltas, dtype=np.float64)
    d1, d2 = d[..., 0], d[..., 1]
    return np.stack([d1, d2, d1 * d1, d2 * d2, d1 * d2], axis=-1)


def polynomial_matrices(coeffs: np.ndarray, deltas: np.ndarray, out=None) -> np.ndarray:
    """M(delta) = I + sum_j basis_j(delta) B_j for (5, K, d, d) coefficients, shape (..., K, d, d),
    written into ``out`` when given."""
    basis = delta_basis(deltas)
    _, k, d, _ = coeffs.shape
    flat = None if out is None else out.reshape(-1, k * d * d)
    m = np.matmul(basis.reshape(-1, 5), coeffs.reshape(5, -1), out=flat).reshape(basis.shape[:-1] + (k, d, d))
    m += np.eye(d)
    return m


def _add_rows(table: np.ndarray, cand: np.ndarray, values: np.ndarray) -> None:
    """Add the rows of ``values`` (R, ...) to rows ``cand`` of ``table`` (C, ...), one sum per row
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


# ---------------------------------------------------------------------------
# the parametric model's descent objective


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

# block sizes up to which `_apply_coeffs` sums in the order of the einsum it replaces
_LANE_SUM_MAX_D = 7


def _apply_coeffs(coeffs, v0) -> np.ndarray:
    """u_j = B_j v0 for (5, K, d, e) coefficients and vectors (R, K, e), shape (5, R, K, d),
    C-ordered: the bits of ``einsum("jkde,rke->jrkd")``.

    On C-ordered inputs, as the descent's are, that einsum runs each sum over e
    in numpy's SIMD loop, on two float64 lanes that start from zero: the even e
    add in one, the odd e in the other, then the two add (up to e = 7; wider sums
    go through an unrolled loop, and are left to the einsum).  Here each term is
    one broadcast multiply-add over rows of a (K, e, R) layout, and the two lanes
    add into the C-ordered result.  The layout of u matters as well as its bits:
    `value`'s einsum sums in another order over a strided u."""
    _, k, d, e = coeffs.shape
    if e > _LANE_SUM_MAX_D:
        return np.einsum("jkde,rke->jrkd", coeffs, v0)
    rows = v0.transpose(1, 2, 0).copy()  # (K, e, R)
    lanes = np.zeros((2, 5, k, d, len(v0)))
    for i in range(e):
        lanes[i % 2] += coeffs[..., i, None] * rows[:, i, None]
    u = np.empty((5, len(v0), k, d))
    np.add(lanes[0], lanes[1], out=np.moveaxis(u, 1, -1))
    return u


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
        lead, (n, k, d) = v0.shape[:-3], v0.shape[-3:]
        self.u = _apply_coeffs(coeffs, v0.reshape(-1, k, d)).reshape((5,) + lead + (n, k * d))
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
    """Encode an image (H, W) or a stack (..., H, W) at every position + offset:
    the support gather of grid scoring, descent, animation and interpolation.

    Returns each position's support vectors in the layout `predict` reads,
    (..., N, K, m*d) offset-major; with the zero offset alone, the lattice
    codes (..., N, K, d).  Each unique center of `support_centers` is gathered
    and encoded once: one patch gather serves the stack, and each frame is
    encoded with its own product, so each frame gets the bits of its stack of
    one (one product of the stack rounds some rows differently).  Without
    ``clamp`` an out-of-bounds center raises BoundsError.
    """
    images = np.asarray(images, dtype=np.float64)
    uniq, inverse = support_centers(encoder, images.shape[-2:], positions, offsets, clamp)
    patches = extract_patches(images, uniq, encoder.patch_size)
    frames = patches.reshape((-1,) + patches.shape[-2:])
    k, d = encoder.num_blocks, encoder.block_dim
    codes = np.stack([apply_encoder(encoder.weights, frame).reshape(-1, d) for frame in frames])
    # block k of center u is row u*K + k; each position takes its K blocks of its m centers
    rows = np.take(codes, inverse[:, None, :] * k + np.arange(k)[:, None], axis=1)  # (F, N, K, m, d)
    return rows.reshape(images.shape[:-2] + rows.shape[1:3] + (-1,))


def predict(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_dx M^(k)(delta, dx) v^(k)(x + dx) at each position, shape (..., K, d).

    ``blocks`` (..., K, d, m*d) holds each position's matrix set, as
    `support_matrices` returns it, and ``vectors`` (..., K, m*d) its support
    vectors in the same offset-major order, as `offset_encodings` returns them;
    leading axes broadcast.  It runs as one einsum contraction over every
    position and block, about three times faster at desk sizes than a BLAS
    call per position and block.  Grid scoring (`inference._score_pairs`)
    takes the table-wide products instead, one (C*d, m*d) x (m*d, N) product
    per block of a pair.
    """
    return np.einsum("...ij,...j->...i", blocks, vectors)


def predict_adjoint(blocks: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Adjoint of `predict` in its vectors, from the same ``blocks``: sum_i M^(k)(delta)[i, j] g[i]
    for ``grads`` laid out like `predict`'s result, shape (..., K, m*d)."""
    return np.einsum("...ij,...i->...j", blocks, grads)

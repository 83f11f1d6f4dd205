"""Synthetic training pairs: smooth deformations, layered affine scenes,
band-pass preprocessing, and the dataset container format.

Ground truth follows the backward-warp convention of :mod:`patchflow.core`:
``image_t1[x] = image_t[x - delta(x)]`` with clamp-to-edge sampling, and the
generators build the second frame with exactly that warp, so a stored field
reproduces its pair bit for bit.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import as_image
from .errors import DataFormatError, PatchflowError

DATASET_MAGIC = b"V1DS"
DATASET_VERSION = 1


# ---------------------------------------------------------------------------
# deformation fields


@dataclass(frozen=True)
class DeformSpec:
    """Random smooth-deformation generator settings."""

    grid_m: int = 4
    lo: float = -6.0
    hi: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.grid_m < 2:
            raise ValueError("control grid needs at least 2 points per side")
        if not self.lo < self.hi and not (self.lo == self.hi == 0.0):
            raise ValueError("need lo < hi (or the degenerate zero range)")


def _catmull_rom_weights(t: np.ndarray, n_ctrl: int):
    """Sample weights of each output coordinate over the control points.

    ``t`` holds positions in control-point units.  Returns (idx (L, 4),
    w (L, 4)) with edge control points replicated.
    """
    i = np.clip(np.floor(t).astype(np.int64), 0, n_ctrl - 2)
    u = t - i
    u2, u3 = u * u, u * u * u
    w = np.stack(
        [
            0.5 * (-u3 + 2 * u2 - u),
            0.5 * (3 * u3 - 5 * u2 + 2),
            0.5 * (-3 * u3 + 4 * u2 + u),
            0.5 * (u3 - u2),
        ],
        axis=1,
    )
    idx = np.clip(i[:, None] + np.arange(-1, 3)[None, :], 0, n_ctrl - 1)
    return idx, w


@functools.lru_cache(maxsize=64)
def _axis_matrix(length: int, n_ctrl: int) -> np.ndarray:
    """Dense (length, n_ctrl) Catmull-Rom sampling matrix, corner aligned; built
    once per (length, n_ctrl) and read-only."""
    t = np.arange(length) * (n_ctrl - 1) / (length - 1) if length > 1 else np.zeros(1)
    idx, w = _catmull_rom_weights(t, n_ctrl)
    mat = np.zeros((length, n_ctrl))
    np.add.at(mat, (np.repeat(np.arange(length), 4), idx.ravel()), w.ravel())
    mat.flags.writeable = False
    return mat


_FIELD_SUBSCRIPTS = "ri,cj,ijd->rcd"


@functools.lru_cache(maxsize=64)
def _field_path(h: int, w: int, m: int) -> tuple:
    """The contraction order that ``np.einsum(..., optimize=True)`` finds for
    `interpolate_field`'s operands, searched once per (h, w, m)."""
    path, _ = np.einsum_path(_FIELD_SUBSCRIPTS, _axis_matrix(h, m), _axis_matrix(w, m), np.empty((m, m, 2)), optimize=True)
    return tuple(path)


def interpolate_field(control: np.ndarray, shape: tuple[int, int], lo=-6.0, hi=6.0) -> np.ndarray:
    """Per-pixel field from m x m control displacements via Catmull-Rom splines.

    Control points sit on a corner-aligned uniform grid; each component is
    interpolated independently and the result clamped to [lo, hi].
    """
    control = np.asarray(control, dtype=np.float64)
    if control.ndim != 3 or control.shape[0] != control.shape[1] or control.shape[2] != 2:
        raise PatchflowError(f"control values must be (m, m, 2), got {control.shape}")
    m = control.shape[0]
    h, w = shape
    rows = _axis_matrix(h, m)
    cols = _axis_matrix(w, m)
    dense = np.einsum(_FIELD_SUBSCRIPTS, rows, cols, control, optimize=_field_path(h, w, m))
    return np.clip(dense, lo, hi)


# ---------------------------------------------------------------------------
# warping


def bilinear_sample(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bilinear lookup at float coordinates with clamp-to-edge borders."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    r = np.clip(rows, 0.0, h - 1.0)
    c = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = r - r0
    fc = c - c0
    top = image[r0, c0] * (1 - fc) + image[r0, c1] * fc
    bot = image[r1, c0] * (1 - fc) + image[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def warp(image: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Backward warp: out[x] = image[x - field(x)] with bilinear sampling."""
    image = np.asarray(image, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64)
    if field.shape != image.shape + (2,):
        raise PatchflowError(f"field shape {field.shape} does not match image {image.shape}")
    h, w = image.shape
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return bilinear_sample(image, rr - field[..., 0], cc - field[..., 1])


# ---------------------------------------------------------------------------
# sample pairs and generators


@dataclass
class SamplePair:
    """A frame pair with its per-pixel ground-truth displacement field."""

    image_t: np.ndarray
    image_t1: np.ndarray
    field: np.ndarray  # (H, W, 2)

    def __post_init__(self):
        self.image_t = np.asarray(self.image_t, dtype=np.float64)
        self.image_t1 = np.asarray(self.image_t1, dtype=np.float64)
        self.field = np.asarray(self.field, dtype=np.float64)
        if self.image_t.shape != self.image_t1.shape:
            raise PatchflowError("frame pair dimensions differ")
        if self.field.shape != self.image_t.shape + (2,):
            raise PatchflowError("field dimensions do not match the frames")


def _pair_rng(seed: int, index: int) -> np.random.Generator:
    # independent per-sample stream so parallel generation is order-free
    return np.random.default_rng([seed, index])


def deform_sample(sources, spec: DeformSpec, index: int) -> SamplePair:
    """Sample pair ``index`` of a deformation dataset (independent RNG stream)."""
    rng = _pair_rng(spec.seed, index)
    src = sources[int(rng.integers(len(sources)))]
    control = rng.uniform(spec.lo, spec.hi, (spec.grid_m, spec.grid_m, 2))
    field = interpolate_field(control, src.shape, spec.lo, spec.hi)
    return SamplePair(src, warp(src, field), field)


def gen_v1deform(sources, n_pairs: int, spec: DeformSpec) -> list[SamplePair]:
    """Random smooth-deformation pairs from a pool of source images."""
    sources = [as_image(s) for s in sources]
    if not sources:
        raise PatchflowError("need at least one source image")
    return [deform_sample(sources, spec, i) for i in range(n_pairs)]


@dataclass(frozen=True)
class AffineSceneSpec:
    """Layered-scene generator: affine background motion plus a foreground
    object moving relative to it.  Parameter ranges are rejection-sampled so
    every field component stays within [lo, hi]."""

    lo: float = -6.0
    hi: float = 6.0
    bg_translation: float = 3.0
    bg_rotation: float = 0.03  # radians
    bg_scale: float = 0.02
    fg_translation: float = 2.5
    fg_rotation: float = 0.05
    fg_scale: float = 0.03
    fg_size: tuple[float, float] = (0.3, 0.5)  # fraction of frame
    max_retries: int = 100
    seed: int = 0


def _affine(translation, rotation, scale, center):
    """2x2 linear part and offset of x -> center + scale*R*(x - center) + t."""
    cr, sr = np.cos(rotation), np.sin(rotation)
    lin = scale * np.array([[cr, -sr], [sr, cr]])
    center = np.asarray(center, dtype=np.float64)
    offset = center + np.asarray(translation, dtype=np.float64) - lin @ center
    return lin, offset


def _affine_flow(lin, offset, shape) -> np.ndarray:
    """Backward-warp field of the map: delta(x) = x - A^{-1}(x)."""
    h, w = shape
    inv = np.linalg.inv(lin)
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    x = np.stack([rr, cc], axis=-1)
    src = (x - offset) @ inv.T
    return x - src


def _resize_bilinear(image: np.ndarray, out_shape) -> np.ndarray:
    h, w = image.shape
    oh, ow = out_shape
    r = np.linspace(0, h - 1, oh)
    c = np.linspace(0, w - 1, ow)
    rr, cc = np.meshgrid(r, c, indexing="ij")
    return bilinear_sample(image, rr, cc)


def _compose_affine(lin_a, off_a, lin_b, off_b):
    # A then B: x -> B(A(x))
    return lin_b @ lin_a, lin_b @ off_a + off_b


def scene_sample(backgrounds, foregrounds, masks, spec: AffineSceneSpec, index: int) -> SamplePair:
    """Sample pair ``index`` of a layered affine-scene dataset."""
    rng = _pair_rng(spec.seed, index)
    bg = backgrounds[int(rng.integers(len(backgrounds)))]
    h, w = bg.shape
    center = ((h - 1) / 2.0, (w - 1) / 2.0)

    fg_layer = np.zeros_like(bg)
    mask_layer = np.zeros_like(bg)
    if foregrounds:
        # place the scaled foreground fully inside the frame
        j = int(rng.integers(len(foregrounds)))
        fg, mask = foregrounds[j], masks[j]
        frac = rng.uniform(*spec.fg_size)
        fh = max(2, int(round(frac * h)))
        fw = max(2, int(round(frac * w)))
        fg_small = _resize_bilinear(fg, (fh, fw))
        mask_small = (_resize_bilinear(mask, (fh, fw)) > 0.5).astype(np.float64)
        top = int(rng.integers(0, h - fh + 1))
        left = int(rng.integers(0, w - fw + 1))
        fg_layer[top : top + fh, left : left + fw] = fg_small
        mask_layer[top : top + fh, left : left + fw] = mask_small

    image_t = bg * (1 - mask_layer) + fg_layer * mask_layer

    field = None
    for _ in range(spec.max_retries):
        bg_lin, bg_off = _affine(
            rng.uniform(-spec.bg_translation, spec.bg_translation, 2),
            rng.uniform(-spec.bg_rotation, spec.bg_rotation),
            1.0 + rng.uniform(-spec.bg_scale, spec.bg_scale),
            center,
        )
        fg_lin, fg_off = _affine(
            rng.uniform(-spec.fg_translation, spec.fg_translation, 2),
            rng.uniform(-spec.fg_rotation, spec.fg_rotation),
            1.0 + rng.uniform(-spec.fg_scale, spec.fg_scale),
            center,
        )
        tot_lin, tot_off = _compose_affine(fg_lin, fg_off, bg_lin, bg_off)
        bg_flow = _affine_flow(bg_lin, bg_off, bg.shape)
        fg_flow = _affine_flow(tot_lin, tot_off, bg.shape)
        candidate = bg_flow.copy()
        visible = warp(mask_layer, fg_flow) > 0.5
        candidate[visible] = fg_flow[visible]
        if candidate.max() <= spec.hi and candidate.min() >= spec.lo:
            field = candidate
            break
    if field is None:
        raise PatchflowError(
            f"could not sample affine parameters within [{spec.lo}, {spec.hi}] "
            f"after {spec.max_retries} tries"
        )
    return SamplePair(image_t, warp(image_t, field), field)


# ---------------------------------------------------------------------------
# band-pass preprocessing


def _gaussian_kernel(sigma: float, size: int) -> np.ndarray:
    # window [-size//2, size - size//2), matching the patch anchoring
    offsets = np.arange(size) - size // 2
    k = np.exp(-(offsets.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    return k / k.sum()


def _correlate2d_separable(image: np.ndarray, k1d: np.ndarray) -> np.ndarray:
    """Separable correlation with reflective (mirror) borders."""
    size = len(k1d)
    before, after = size // 2, size - size // 2 - 1
    out = np.pad(image, ((before, after), (0, 0)), mode="reflect")
    rows = sum(k1d[i] * out[i : i + image.shape[0], :] for i in range(size))
    out = np.pad(rows, ((0, 0), (before, after)), mode="reflect")
    return sum(k1d[i] * out[:, i : i + image.shape[1]] for i in range(size))


def bandpass(image: np.ndarray, sigma1: float = 1.0, sigma2: float = 4.0, kernel_size: int = 8) -> np.ndarray:
    """Difference of two unit-sum Gaussian smoothings (band-pass filter)."""
    image = np.asarray(image, dtype=np.float64)
    if kernel_size > min(image.shape):
        raise PatchflowError("kernel does not fit inside the image")
    k1 = _gaussian_kernel(sigma1, kernel_size)
    k2 = _gaussian_kernel(sigma2, kernel_size)
    return _correlate2d_separable(image, k1) - _correlate2d_separable(image, k2)


# ---------------------------------------------------------------------------
# dataset container


def _sample_bytes(pair: SamplePair, with_images: bool = True) -> bytes:
    h, w = pair.image_t.shape
    head = DATASET_MAGIC + np.asarray([DATASET_VERSION, w, h], dtype="<u4").tobytes()
    planes = (pair.image_t, pair.image_t1) if with_images else ()
    planes += (pair.field[..., 0], pair.field[..., 1])
    return head + b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in planes)


def _parse_sample(raw: bytes, with_images: bool = True) -> tuple[int, int, list[np.ndarray], np.ndarray]:
    """(h, w, frames, field) of a sample: each frame a float64 (H, W) array of its own,
    none for a fields-only sample, and the field one float64 (H, W, 2) array."""
    if raw[:4] != DATASET_MAGIC:
        raise DataFormatError(f"bad magic {raw[:4]!r}, expected {DATASET_MAGIC!r}")
    if len(raw) < 16:
        raise DataFormatError(f"{len(raw)}-byte sample is shorter than its 16-byte header")
    # Python ints: the body size of a large header must not wrap
    version, w, h = map(int, np.frombuffer(raw[4:16], dtype="<u4"))
    if version != DATASET_VERSION:
        raise DataFormatError(f"unsupported sample version {version}")
    if w == 0 or h == 0:
        raise DataFormatError(f"empty {h}x{w} sample")
    n_planes = 4 if with_images else 2
    expected = 16 + 4 * h * w * n_planes
    if len(raw) != expected:
        raise DataFormatError(f"truncated sample: {len(raw)} bytes, expected {expected}")
    planes = np.frombuffer(raw, dtype="<f4", offset=16).reshape(n_planes, h, w)  # a view of ``raw``
    if not np.isfinite(planes.sum(dtype=np.float64)):  # float32 values cannot overflow a float64 sum
        raise DataFormatError("sample holds non-finite values")
    frames = [plane.astype(np.float64) for plane in planes[:-2]]
    return h, w, frames, planes[-2:].transpose(1, 2, 0).astype(np.float64, order="C")


def dataset_write(pairs: list[SamplePair], path, mode: str = "binary", spec_echo: dict | None = None) -> None:
    """Write a dataset directory: manifest.json plus one file per sample."""
    if mode not in ("binary", "pgm"):
        raise DataFormatError(f"unknown dataset mode {mode!r}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    dims = sorted({p.image_t.shape for p in pairs})
    manifest = {
        "format": "patchflow-dataset",
        "version": DATASET_VERSION,
        "mode": mode,
        "count": len(pairs),
        "dims": [list(d) for d in dims],
        "endianness": "little",
        "spec": spec_echo or {},
    }
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, pair in enumerate(pairs):
        stem = f"sample_{i:05d}"
        if mode == "binary":
            (path / f"{stem}.v1ds").write_bytes(_sample_bytes(pair))
        else:
            from .evalviz import write_pgm

            write_pgm(path / f"{stem}_t0.pgm", pair.image_t)
            write_pgm(path / f"{stem}_t1.pgm", pair.image_t1)
            (path / f"{stem}.v1ds").write_bytes(_sample_bytes(pair, with_images=False))


def dataset_read(path) -> list[SamplePair]:
    """The samples of a dataset directory, each frame and field an array of its own."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise DataFormatError(f"no manifest.json under {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("version") != DATASET_VERSION:
        raise DataFormatError(f"unsupported dataset version {manifest.get('version')}")
    mode, count = manifest.get("mode", "binary"), manifest.get("count")
    if mode not in ("binary", "pgm"):
        raise DataFormatError(f"{manifest_path}: unknown dataset mode {json.dumps(mode)}")
    if type(count) is not int or count < 1:
        raise DataFormatError(f"{manifest_path}: manifest count must be a positive integer, got {json.dumps(count)}")
    pairs = []
    for i in range(count):
        stem = f"sample_{i:05d}"
        raw = (path / f"{stem}.v1ds").read_bytes()
        try:
            h, w, frames, field = _parse_sample(raw, with_images=mode == "binary")
        except DataFormatError as exc:
            raise DataFormatError(f"{path / stem}.v1ds: {exc}") from None
        if mode == "binary":
            img_t, img_t1 = frames
        else:
            from .evalviz import read_pgm

            img_t = read_pgm(path / f"{stem}_t0.pgm") / 255.0
            img_t1 = read_pgm(path / f"{stem}_t1.pgm") / 255.0
            if img_t.shape != (h, w) or img_t1.shape != (h, w):
                raise DataFormatError(f"{path / stem}: frames {img_t.shape} and {img_t1.shape} do not match the {h}x{w} field")
        pairs.append(SamplePair(img_t, img_t1, field))
    return pairs


# ---------------------------------------------------------------------------
# procedural source textures (no bundled image corpus)


def synthetic_textures(n: int, shape=(64, 64), seed: int = 0, contrast: float = 0.9) -> list[np.ndarray]:
    """Band-limited cloud textures used as stand-in natural images.

    Sums a few octaves of smoothed noise, then normalizes each image to mean
    0.5 with the requested contrast, clipped to [0, 1].
    """
    h, w = shape
    out = []
    for i in range(n):
        rng = _pair_rng(seed, i)
        img = np.zeros((h, w))
        for sigma, weight in ((1.5, 1.0), (3.0, 1.4), (6.0, 1.8)):
            size = int(4 * sigma) | 1
            k = _gaussian_kernel(sigma, size)
            img += weight * _correlate2d_separable(rng.standard_normal((h, w)), k)
        img -= img.mean()
        peak = np.max(np.abs(img)) + 1e-12
        out.append(np.clip(0.5 + 0.5 * contrast * img / peak, 0.0, 1.0))
    return out

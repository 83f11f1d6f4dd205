"""Endpoint-error evaluation, flow colorization, and PGM/PPM image I/O."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DisplacementField, as_image, border_filter
from .errors import ConfigError, DataFormatError, PatchflowError


# ---------------------------------------------------------------------------
# endpoint error


@dataclass(frozen=True)
class EpeReport:
    mean_epe: float
    errors: np.ndarray  # per evaluated position
    count: int


def epe(pred: DisplacementField, truth: np.ndarray, margin: int = 8) -> EpeReport:
    """Mean endpoint error over positions at least ``margin`` pixels from the border,
    against a dense (H, W, 2) ``truth`` sampled at the prediction positions."""
    truth = np.asarray(truth)
    if truth.ndim != 3 or truth.shape[2] != 2:
        raise PatchflowError(f"dense truth must be (H, W, 2), got {truth.shape}")
    shape = truth.shape[:2]
    lo, hi = pred.positions.min(axis=0), pred.positions.max(axis=0)
    if lo.min() < 0 or hi[0] >= shape[0] or hi[1] >= shape[1]:
        raise DataFormatError(
            f"field positions span rows {lo[0]}..{hi[0]} and columns {lo[1]}..{hi[1]}, "
            f"outside the {shape[0]}x{shape[1]} frames"
        )
    keep = border_filter(pred.positions, shape, margin)
    if not np.any(keep):
        raise ConfigError(f"margin {margin} leaves no evaluation position in a {shape[0]}x{shape[1]} frame")
    diff = pred.vectors[keep] - truth[pred.positions[keep, 0], pred.positions[keep, 1]]
    errors = np.sqrt(np.sum(diff * diff, axis=1))
    return EpeReport(mean_epe=float(errors.mean()), errors=errors, count=int(keep.sum()))


# ---------------------------------------------------------------------------
# flow colorization (perceptual color wheel, 55 hues)

_SEGMENTS = (("RY", 15), ("YG", 6), ("GC", 4), ("CB", 11), ("BM", 13), ("MR", 6))


def color_wheel() -> np.ndarray:
    """The 55-hue wheel: piecewise-linear ramps between the six primaries."""
    total = sum(n for _, n in _SEGMENTS)
    wheel = np.zeros((total, 3))
    col = 0
    ry, yg, gc, cb, bm, mr = (n for _, n in _SEGMENTS)
    wheel[col : col + ry, 0] = 1.0
    wheel[col : col + ry, 1] = np.arange(ry) / ry
    col += ry
    wheel[col : col + yg, 0] = 1.0 - np.arange(yg) / yg
    wheel[col : col + yg, 1] = 1.0
    col += yg
    wheel[col : col + gc, 1] = 1.0
    wheel[col : col + gc, 2] = np.arange(gc) / gc
    col += gc
    wheel[col : col + cb, 1] = 1.0 - np.arange(cb) / cb
    wheel[col : col + cb, 2] = 1.0
    col += cb
    wheel[col : col + bm, 2] = 1.0
    wheel[col : col + bm, 0] = np.arange(bm) / bm
    col += bm
    wheel[col : col + mr, 2] = 1.0 - np.arange(mr) / mr
    wheel[col : col + mr, 0] = 1.0
    return wheel


def flow_to_color(field: np.ndarray, max_mag: float | None = None) -> np.ndarray:
    """Color-code a dense (H, W, 2) displacement field; returns a uint8 (H, W, 3) image.

    Hue encodes direction, saturation encodes magnitude relative to
    ``max_mag`` (by default the field's own maximum, so the largest vector is
    fully saturated).  Zero displacement maps to white.
    """
    arr = np.asarray(field, dtype=np.float64)
    vec = arr.reshape(-1, 2)
    if not np.all(np.isfinite(vec)):
        raise PatchflowError("flow field contains non-finite values")
    v, u = vec[:, 0], vec[:, 1]  # vertical = rows, horizontal = cols
    mag = np.hypot(u, v)
    if max_mag is None:
        max_mag = float(mag.max())
    scale = max(max_mag, 1e-12)
    wheel = color_wheel()
    n = len(wheel)
    angle = np.arctan2(-v, -u) / np.pi  # (-1, 1]
    fk = (angle + 1.0) / 2.0 * (n - 1)
    k0 = np.floor(fk).astype(np.int64) % n
    k1 = (k0 + 1) % n
    f = fk - np.floor(fk)
    col = (1.0 - f)[:, None] * wheel[k0] + f[:, None] * wheel[k1]
    rad = np.clip(mag / scale, 0.0, None)
    inside = rad <= 1.0
    col[inside] = 1.0 - rad[inside, None] * (1.0 - col[inside])
    col[~inside] *= 0.75  # out-of-range marker
    rgb = np.floor(255.0 * col + 0.5).astype(np.uint8)
    return rgb.reshape(arr.shape[:-1] + (3,))


# ---------------------------------------------------------------------------
# PGM / PPM (binary 8-bit)


def _quantize(img: np.ndarray) -> np.ndarray:
    if img.dtype == np.uint8:
        return img
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_pgm(path, image) -> None:
    img = _quantize(np.asarray(image))
    if img.ndim != 2:
        raise PatchflowError("PGM requires a grayscale image")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(img).tobytes())


def write_ppm(path, image) -> None:
    img = _quantize(np.asarray(image))
    if img.ndim != 3 or img.shape[2] != 3:
        raise PatchflowError("PPM requires an (H, W, 3) image")
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(img).tobytes())


def _read_netpbm(path, magic: bytes):
    raw = Path(path).read_bytes()
    if not raw.startswith(magic):
        raise DataFormatError(f"{path}: expected {magic.decode()} header")
    # header tokens: magic, width, height, maxval; comments start with '#'
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if i < len(raw) and raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(raw) and not raw[i : i + 1].isspace():
            i += 1
        if start == i:
            raise DataFormatError(f"{path}: truncated header")
        tokens.append(raw[start:i])
    i += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed header") from exc
    if w < 1 or h < 1:
        raise DataFormatError(f"{path}: image size {w}x{h}, expected at least 1x1")
    if maxval != 255:
        raise DataFormatError(f"{path}: only 8-bit images supported (maxval {maxval})")
    channels = 3 if magic == b"P6" else 1
    data = raw[i : i + w * h * channels]
    if len(data) != w * h * channels:
        raise DataFormatError(f"{path}: truncated pixel data")
    img = np.frombuffer(data, dtype=np.uint8)
    return img.reshape(h, w) if channels == 1 else img.reshape(h, w, 3)


def read_pgm(path) -> np.ndarray:
    """8-bit grayscale; returns a uint8 (H, W) array."""
    return _read_netpbm(path, b"P5")


def read_ppm(path) -> np.ndarray:
    """8-bit color; returns a uint8 (H, W, 3) array."""
    return _read_netpbm(path, b"P6")


def load_image(path) -> np.ndarray:
    """Read a PGM/PPM file as a [0, 1] grayscale float image."""
    path = Path(path)
    raw = path.read_bytes()[:2]
    if raw == b"P5":
        return read_pgm(path) / 255.0
    if raw == b"P6":
        return as_image(read_ppm(path) / 255.0)
    raise DataFormatError(f"{path}: not a binary PGM/PPM file")

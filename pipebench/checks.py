"""Output checks computed apart from the program.

Everything here is written from the file formats and conventions in the
patchflow README and module docstrings, not by calling patchflow: own readers
for datasets (V1DS), fields (V1FD), checkpoints and PGM images, an own
clamp-to-edge bilinear warp, an own forward model (encode, motion apply,
overlap-add decode) and an own Gabor evaluation.  Each check raises
``CheckFailed`` with a one-line reason, or returns a short summary dict.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# frames and fields are stored as float32: frame values in [0, 1] round by at
# most 2**-24, field components in [-8, 8) by at most 2**-22, and bilinear
# sampling has slope at most 1 per pixel, so a re-warp differs from the stored
# second frame by less than 2 * 2**-24 + 2 * 2**-22 < 1e-6
FLOAT32_WARP_TOL = 1e-6
PGM_WARP_TOL = 1.0 / 255.0 + FLOAT32_WARP_TOL
EPE_MATCH_TOL = 1e-9
GRID_REL_TOL = 1e-9
R2_TOL = 1e-6


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


# ---------------------------------------------------------------------------
# readers and writers


def read_pgm(path) -> np.ndarray:
    """Binary 8-bit P5 image as uint8 (H, W)."""
    raw = Path(path).read_bytes()
    tokens, i = [], 0
    while len(tokens) < 4:
        while raw[i : i + 1].isspace():
            i += 1
        if raw[i : i + 1] == b"#":
            i = raw.index(b"\n", i)
            continue
        j = i
        while not raw[j : j + 1].isspace():
            j += 1
        tokens.append(raw[i:j])
        i = j
    if tokens[0] != b"P5" or int(tokens[3]) != 255:
        raise CheckFailed(f"{path}: not an 8-bit P5 image")
    w, h = int(tokens[1]), int(tokens[2])
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=i + 1)
    return pixels.reshape(h, w)


def write_pgm(path, image: np.ndarray) -> None:
    """[0, 1] float image to an 8-bit P5 file (round half up)."""
    q = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    h, w = q.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + q.tobytes())


def read_dataset(path) -> tuple[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """(mode, [(frame1, frame2, field (H, W, 2))]) with float64 arrays."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    mode = manifest["mode"]
    pairs = []
    for i in range(manifest["count"]):
        raw = (path / f"sample_{i:05d}.v1ds").read_bytes()
        if raw[:4] != b"V1DS":
            raise CheckFailed(f"sample {i}: bad magic")
        _, w, h = np.frombuffer(raw, dtype="<u4", count=3, offset=4)
        planes = np.frombuffer(raw, dtype="<f4", offset=16).astype(np.float64)
        planes = planes.reshape(-1, h, w)
        if mode == "binary":
            frame1, frame2, d_row, d_col = planes
        else:
            d_row, d_col = planes
            frame1 = read_pgm(path / f"sample_{i:05d}_t0.pgm") / 255.0
            frame2 = read_pgm(path / f"sample_{i:05d}_t1.pgm") / 255.0
        pairs.append((frame1, frame2, np.stack([d_row, d_col], axis=-1)))
    return mode, pairs


def read_field(path) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """(positions (N, 2), vectors (N, 2), (ny, nx)) of a V1FD field file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"V1FD":
        raise CheckFailed(f"{path}: bad field magic")
    _, nx, ny, row0, col0, row_step, col_step = (
        int(v) for v in np.frombuffer(raw, dtype="<u4", count=7, offset=4)
    )
    planes = np.frombuffer(raw, dtype="<f4", offset=32).astype(np.float64).reshape(2, ny, nx)
    rows = row0 + row_step * np.arange(ny)
    cols = col0 + col_step * np.arange(nx)
    positions = np.array([(r, c) for r in rows for c in cols], dtype=np.int64)
    vectors = np.stack([planes[0].ravel(), planes[1].ravel()], axis=1)
    return positions, vectors, (ny, nx)


def read_checkpoint(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, encoder weights (K, d, p*p), motion parameters)."""
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    arrays, offset = [], nl + 1
    for block in header["blocks"]:
        count = math.prod(block["shape"])
        arrays.append(
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(block["shape"])
        )
        offset += 8 * count
    if offset != len(raw):
        raise CheckFailed(f"{path}: {len(raw) - offset} unexpected trailing bytes")
    return header, arrays[0], arrays[1]


def summary_metrics(out_dir) -> dict:
    return json.loads((Path(out_dir) / "run_summary.json").read_text())["metrics"]


# ---------------------------------------------------------------------------
# own forward model


def bilinear_warp(image: np.ndarray, field: np.ndarray) -> np.ndarray:
    """out[x] = image[x - field(x)], bilinear with clamp-to-edge coordinates."""
    h, w = image.shape
    rows = np.clip(np.arange(h)[:, None] - field[..., 0], 0.0, h - 1.0)
    cols = np.clip(np.arange(w)[None, :] - field[..., 1], 0.0, w - 1.0)
    r0 = np.minimum(rows.astype(np.int64), h - 1)
    c0 = np.minimum(cols.astype(np.int64), w - 1)
    r1, c1 = np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1)
    fr, fc = rows - r0, cols - c0
    top = (1.0 - fc) * image[r0, c0] + fc * image[r0, c1]
    bottom = (1.0 - fc) * image[r1, c0] + fc * image[r1, c1]
    return (1.0 - fr) * top + fr * bottom


class Model:
    """Encoder and motion model read from a checkpoint file."""

    def __init__(self, path):
        header, self.weights, self.motion = read_checkpoint(path)
        self.p = header["encoder"]["patch_size"]
        self.stride = header["encoder"]["stride"]
        self.variant = header["motion"]["variant"]
        self.d = self.weights.shape[1]
        if self.variant == "mixed":
            g = header["motion"]["grid"]
            self.lo, self.step = g["lo"], g["step"]
            self.side = int(round((g["hi"] - g["lo"]) / g["step"])) + 1
            self.offsets = np.asarray(header["motion"]["offsets"], dtype=np.int64)
            values = self.lo + self.step * np.arange(self.side)
            self.candidates = np.array([(a, b) for a in values for b in values])
        elif self.variant != "parametric":
            raise CheckFailed(f"no independent model for variant {self.variant!r}")

    def lattice(self, length: int) -> np.ndarray:
        """Patch centres on one axis: patches cover [x - p//2, x + p - p//2)."""
        return np.arange(self.p // 2, length - (self.p - self.p // 2) + 1, self.stride)

    def encode(self, image: np.ndarray, centres: np.ndarray) -> np.ndarray:
        """(..., 2) centres -> (..., K, d) block vectors."""
        windows = sliding_window_view(image, (self.p, self.p))
        top = centres[..., 0] - self.p // 2
        left = centres[..., 1] - self.p // 2
        if top.min() < 0 or left.min() < 0 or top.max() >= windows.shape[0] or left.max() >= windows.shape[1]:
            raise CheckFailed(f"a patch centre lies outside the {image.shape} image")
        patches = windows[top, left].reshape(centres.shape[:-1] + (self.p * self.p,))
        return np.einsum("...q,kdq->...kd", patches, self.weights)

    def parametric_matrices(self, deltas: np.ndarray) -> np.ndarray:
        """M(delta) = I + B1 d1 + B2 d2 + B11 d1^2 + B22 d2^2 + B12 d1 d2, (N, K, d, d)."""
        d1, d2 = deltas[:, 0], deltas[:, 1]
        basis = np.stack([d1, d2, d1 * d1, d2 * d2, d1 * d2], axis=1)
        return np.eye(self.d) + np.einsum("nj,jkab->nkab", basis, self.motion)

    def mixed_candidates(self, image: np.ndarray, positions: np.ndarray, clamp: bool) -> np.ndarray:
        """Predictions for every candidate, (N, C, K, d)."""
        centres = positions[:, None, :] + self.offsets[None, :, :]
        if clamp:
            h, w = image.shape
            centres = np.stack(
                [
                    np.clip(centres[..., 0], self.p // 2, h - (self.p - self.p // 2)),
                    np.clip(centres[..., 1], self.p // 2, w - (self.p - self.p // 2)),
                ],
                axis=-1,
            )
        v_off = self.encode(image, centres)  # (N, m, K, d)
        return np.einsum("cmkab,nmkb->ncka", self.motion, v_off, optimize=True)

    def candidate_index(self, deltas: np.ndarray) -> np.ndarray:
        i = np.floor((deltas - self.lo) / self.step + 0.5).astype(np.int64)
        return i[:, 0] * self.side + i[:, 1]

    def predict(self, image: np.ndarray, positions: np.ndarray, deltas: np.ndarray, clamp: bool) -> np.ndarray:
        """Next-frame vectors at ``positions`` for displacements ``deltas``, (N, K, d)."""
        if self.variant == "parametric":
            v = self.encode(image, positions)
            return np.einsum("nkab,nkb->nka", self.parametric_matrices(deltas), v)
        preds = self.mixed_candidates(image, positions, clamp)
        return preds[np.arange(len(positions)), self.candidate_index(deltas)]

    def decode(self, vectors: np.ndarray, positions: np.ndarray, shape) -> np.ndarray:
        """Overlap-add of the synthesis patches W^T v; uncovered pixels stay 0."""
        canvas = np.zeros(shape)
        patches = np.einsum("nkd,kdq->nq", vectors, self.weights)
        h0 = self.p // 2
        for (r, c), patch in zip(positions, patches):
            canvas[r - h0 : r - h0 + self.p, c - h0 : c - h0 + self.p] += patch.reshape(self.p, self.p)
        return canvas

    def full_lattice(self, shape) -> np.ndarray:
        rows, cols = self.lattice(shape[0]), self.lattice(shape[1])
        return np.array([(r, c) for r in rows for c in cols], dtype=np.int64)


def smoothness(vectors: np.ndarray, grid_shape) -> float:
    f = vectors.reshape(grid_shape[0], grid_shape[1], 2)
    return float(np.sum((f[1:] - f[:-1]) ** 2) + np.sum((f[:, 1:] - f[:, :-1]) ** 2))


def gabor(params, p: int) -> np.ndarray:
    """A exp(-x'^2/2sx^2 - y'^2/2sy^2) cos(2 pi f x' + phi); x = column, y = row."""
    a, x0, y0, theta, sx, sy, f, phi = params
    y, x = np.mgrid[0:p, 0:p].astype(np.float64)
    xr = (x - x0) * math.cos(theta) + (y - y0) * math.sin(theta)
    yr = -(x - x0) * math.sin(theta) + (y - y0) * math.cos(theta)
    return a * np.exp(-(xr**2) / (2 * sx**2) - (yr**2) / (2 * sy**2)) * np.cos(2 * math.pi * f * xr + phi)


# ---------------------------------------------------------------------------
# checks


def check_pairs_warp(dataset_dir) -> dict:
    """Every stored pair satisfies frame2 = warp(frame1, field)."""
    mode, pairs = read_dataset(dataset_dir)
    tol = FLOAT32_WARP_TOL if mode == "binary" else PGM_WARP_TOL
    worst = 0.0
    for i, (frame1, frame2, field) in enumerate(pairs):
        err = float(np.max(np.abs(bilinear_warp(frame1, field) - frame2)))
        worst = max(worst, err)
        if err > tol:
            raise CheckFailed(f"{dataset_dir}: pair {i} re-warp differs by {err:.3g} > {tol:.3g}")
    return {"pairs": len(pairs), "max_abs_err": worst, "tol": tol}


def check_epe(dataset_dir, pred_dir, eval_dir, margin: int) -> dict:
    """Recompute pooled EPE and the zero-field EPE; EPE must match ``eval``."""
    _, pairs = read_dataset(dataset_dir)
    files = sorted(Path(pred_dir).glob("field_*.v1fd"))
    if len(files) != len(pairs):
        raise CheckFailed(f"{len(files)} field files for {len(pairs)} pairs")
    errors, zero = [], []
    for path, (frame1, _, truth) in zip(files, pairs):
        pos, vec, _ = read_field(path)
        h, w = frame1.shape
        r, c = pos[:, 0], pos[:, 1]
        keep = (r >= margin) & (c >= margin) & (r < h - margin) & (c < w - margin)
        gt = truth[r[keep], c[keep]]
        errors.append(np.hypot(*(vec[keep] - gt).T))
        zero.append(np.hypot(*gt.T))
    epe = float(np.concatenate(errors).mean())
    reported = summary_metrics(eval_dir)["epe_pooled"]
    if abs(epe - reported) > EPE_MATCH_TOL:
        raise CheckFailed(f"eval epe_pooled {reported!r} != recomputed {epe!r}")
    return {"epe_px": epe, "zero_field_epe_px": float(np.concatenate(zero).mean())}


def check_grid_argmin(dataset_dir, pred_dir, checkpoint) -> dict:
    """Every grid-inferred vector is a candidate whose residual is (near) the minimum."""
    model = Model(checkpoint)
    _, pairs = read_dataset(dataset_dir)
    files = sorted(Path(pred_dir).glob("field_*.v1fd"))
    checked = 0
    for path, (frame1, frame2, _) in zip(files, pairs):
        pos, vec, _ = read_field(path)
        index = np.round((vec - model.lo) / model.step)
        if np.any(np.abs(model.lo + model.step * index - vec) > 1e-6):
            raise CheckFailed(f"{path.name}: vector off the candidate grid")
        chosen = model.candidate_index(vec)
        target = model.encode(frame2, pos)  # (N, K, d)
        resid = np.sum((model.mixed_candidates(frame1, pos, clamp=False) - target[:, None]) ** 2, axis=(2, 3))
        best = resid.min(axis=1)
        picked = resid[np.arange(len(pos)), chosen]
        bad = picked > best * (1.0 + GRID_REL_TOL)
        if np.any(bad):
            n = int(np.argmax(bad))
            raise CheckFailed(
                f"{path.name}: position {tuple(pos[n])} residual {float(picked[n])!r} > minimum {float(best[n])!r}"
            )
        checked += len(pos)
    return {"vectors": checked}


def check_descent(dataset_dir, pred_dir, checkpoint, smoothness_weight: float) -> dict:
    """The descent objective is lower at the returned field than at the zero start."""
    model = Model(checkpoint)
    _, pairs = read_dataset(dataset_dir)
    files = sorted(Path(pred_dir).glob("field_*.v1fd"))
    ratios = []
    for path, (frame1, frame2, _) in zip(files, pairs):
        pos, vec, grid_shape = read_field(path)
        v1 = model.encode(frame2, pos)

        def objective(deltas):
            r = v1 - model.predict(frame1, pos, deltas, clamp=False)
            return float(np.sum(r * r)) + smoothness_weight * smoothness(deltas, grid_shape)

        start, end = objective(np.zeros_like(vec)), objective(vec)
        if not end < start:
            raise CheckFailed(f"{path.name}: objective {end!r} not below start {start!r}")
        ratios.append(end / start)
    return {"fields": len(ratios), "mean_end_over_start": float(np.mean(ratios))}


def check_gabor_r2(analyze_dir, checkpoint) -> dict:
    """units.csv r^2 recomputed from its Gabor parameters; stats.json r2_mean is their mean."""
    _, weights, _ = read_checkpoint(checkpoint)
    p = int(round(math.sqrt(weights.shape[2])))
    filters = weights.reshape(-1, p, p)
    names = ("amplitude", "x0", "y0", "theta", "sigma_x", "sigma_y", "frequency", "phase")
    with open(Path(analyze_dir) / "units.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(filters):
        raise CheckFailed(f"units.csv has {len(rows)} rows for {len(filters)} filters")
    r2s = []
    for row, target in zip(rows, filters):
        fit = gabor([float(row[n]) for n in names], p)
        r2 = 1.0 - np.sum((target - fit) ** 2) / np.sum((target - target.mean()) ** 2)
        if abs(r2 - float(row["r2"])) > R2_TOL:
            raise CheckFailed(f"unit {row['unit']}: r2 {row['r2']} != recomputed {float(r2)!r}")
        r2s.append(float(row["r2"]))
    stats = json.loads((Path(analyze_dir) / "stats.json").read_text())
    if abs(stats["r2_mean"] - float(np.mean(r2s))) > 1e-9:
        raise CheckFailed(f"stats.json r2_mean {stats['r2_mean']!r} != mean {float(np.mean(r2s))!r}")
    return {"units": len(r2s), "r2_mean": stats["r2_mean"]}


def _nearest_fill(lattice: np.ndarray, pos: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Field vectors at every lattice position from the nearest field position."""
    d2 = ((lattice[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    return vec[np.argmin(d2, axis=1)]


def _same_as_pgm(frame: np.ndarray, pgm: np.ndarray, what: str) -> None:
    levels = np.abs(np.clip(frame, 0.0, 1.0) * 255.0 - pgm)
    if float(levels.max()) > 0.5 + 1e-6:
        raise CheckFailed(f"{what}: differs from own decode by {levels.max():.3f} grey levels")


def check_animate(start_pgm, field_file, frame_pgm, checkpoint) -> dict:
    """The first animate frame equals own transform-then-decode, within 8-bit rounding."""
    model = Model(checkpoint)
    start = read_pgm(start_pgm) / 255.0
    lattice = model.full_lattice(start.shape)
    pos, vec, _ = read_field(field_file)
    deltas = _nearest_fill(lattice, pos, vec)
    frame = model.decode(model.predict(start, lattice, deltas, clamp=True), lattice, start.shape)
    _same_as_pgm(frame, read_pgm(frame_pgm), "animate frame 0")
    return {"pixels": int(frame.size)}


def check_interpolate(start_pgm, end_pgm, interp_dir, checkpoint, max_steps: int, stop_thresh: float, margin: int) -> dict:
    """Re-run the interpolation walk; frames, frame count and success flag must agree.

    Each step picks, per lattice position, the candidate whose (clamped)
    prediction best matches the end frame's encoding, ties toward the smallest
    |delta| then lexicographically, and decodes; the walk stops once the mean
    absolute difference inside ``margin`` is below ``stop_thresh``.
    """
    model = Model(checkpoint)
    cur = read_pgm(start_pgm) / 255.0
    target = read_pgm(end_pgm) / 255.0
    h, w = cur.shape
    m = min(margin, (h - 1) // 2, (w - 1) // 2)

    def close(frame):
        return float(np.mean(np.abs(frame[m : h - m, m : w - m] - target[m : h - m, m : w - m]))) < stop_thresh

    lattice = model.full_lattice(cur.shape)
    v_target = model.encode(target, lattice)
    cand = model.candidates
    order = np.lexsort((cand[:, 1], cand[:, 0], np.sum(cand * cand, axis=1)))
    frames, ok = [cur], close(cur)
    while not ok and len(frames) <= max_steps:
        preds = model.mixed_candidates(cur, lattice, clamp=True)
        scores = np.sum((preds - v_target[:, None]) ** 2, axis=(2, 3))
        chosen = order[np.argmin(scores[:, order], axis=1)]
        cur = model.decode(preds[np.arange(len(lattice)), chosen], lattice, cur.shape)
        frames.append(cur)
        ok = close(cur)
    written = sorted(Path(interp_dir).glob("frame_*.pgm"))
    if len(written) != len(frames):
        raise CheckFailed(f"interpolate wrote {len(written)} frames, stop rule gives {len(frames)}")
    for i, (frame, path) in enumerate(zip(frames, written)):
        _same_as_pgm(frame, read_pgm(path), f"interpolate frame {i}")
    reported = summary_metrics(interp_dir)["success"]
    if reported != ok:
        raise CheckFailed(f"interpolate success {reported} but the stop rule gives {ok}")
    return {"frames": len(frames), "success": ok}

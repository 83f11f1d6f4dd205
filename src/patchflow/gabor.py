"""Gabor fits of learned filters and the population statistics built on them.

A filter row is fitted by h(x', y') = A exp(-(x'/sqrt(2) sx)^2 -
(y'/sqrt(2) sy)^2) cos(2 pi f x' + phi) where (x', y') is the pixel grid
translated to (x0, y0) and rotated by theta (x = column, y = row).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Encoder
from .errors import GridLookupError, PatchflowError

PARAM_NAMES = ("amplitude", "x0", "y0", "theta", "sigma_x", "sigma_y", "frequency", "phase")
HALF_MAG = math.sqrt(2.0 * math.log(2.0))
LM_MAX_ITERS = 200  # Levenberg-Marquardt iterations per phase start
QUADRATURE_R2 = 0.5  # fit quality below which a unit's within-block pairs are skipped


@dataclass(frozen=True)
class GaborFit:
    amplitude: float
    x0: float
    y0: float
    theta: float
    sigma_x: float
    sigma_y: float
    frequency: float
    phase: float
    r2: float
    low_quality: bool = False

    def params(self) -> np.ndarray:
        return np.array(
            [
                self.amplitude,
                self.x0,
                self.y0,
                self.theta,
                self.sigma_x,
                self.sigma_y,
                self.frequency,
                self.phase,
            ]
        )


def _pixel_grid(p: int):
    y, x = np.meshgrid(np.arange(p, dtype=np.float64), np.arange(p, dtype=np.float64), indexing="ij")
    return x.ravel(), y.ravel()


def _gabor_values(params, x, y):
    a, x0, y0, theta, sx, sy, f, phi = params
    ct, st = math.cos(theta), math.sin(theta)
    xr = (x - x0) * ct + (y - y0) * st
    yr = -(x - x0) * st + (y - y0) * ct
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        env = np.exp(-(xr * xr) / (2.0 * sx * sx) - (yr * yr) / (2.0 * sy * sy))
    g = 2.0 * math.pi * f * xr + phi
    return a * env * np.cos(g), env, np.cos(g), np.sin(g), xr, yr


def gabor_eval(params, p: int) -> np.ndarray:
    """Evaluate the Gabor on the p x p integer pixel grid."""
    params = params.params() if isinstance(params, GaborFit) else np.asarray(params, dtype=np.float64)
    x, y = _pixel_grid(p)
    h, *_ = _gabor_values(params, x, y)
    return h.reshape(p, p)


def _jacobian(params, x, y):
    a, x0, y0, theta, sx, sy, f, phi = params
    h, env, cg, sg, xr, yr = _gabor_values(params, x, y)
    ct, st = math.cos(theta), math.sin(theta)
    two_pi_f = 2.0 * math.pi * f
    dh_dxr = a * env * (-(xr / (sx * sx)) * cg - two_pi_f * sg)
    dh_dyr = a * env * cg * (-(yr / (sy * sy)))
    jac = np.empty((x.size, 8))
    jac[:, 0] = env * cg
    jac[:, 1] = dh_dxr * (-ct) + dh_dyr * st
    jac[:, 2] = dh_dxr * (-st) + dh_dyr * (-ct)
    jac[:, 3] = dh_dxr * yr + dh_dyr * (-xr)
    jac[:, 4] = a * env * cg * (xr * xr) / (sx ** 3)
    jac[:, 5] = a * env * cg * (yr * yr) / (sy ** 3)
    jac[:, 6] = -a * env * sg * 2.0 * math.pi * xr
    jac[:, 7] = -a * env * sg
    return h, jac


def _levenberg_marquardt(target, params, x, y, tol=1e-8):
    """Plain LM with multiplicative damping (x3 / /3) on the 8 parameters."""
    params = params.copy()
    h, jac = _jacobian(params, x, y)
    resid = target - h
    sse = float(resid @ resid)
    lam = 1e-3
    for _ in range(LM_MAX_ITERS):
        jtj = jac.T @ jac
        g = jac.T @ resid
        step = None
        for _ in range(50):
            damped = jtj + lam * np.diag(np.diag(jtj).clip(min=1e-12))
            try:
                step = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= 3.0
                continue
            trial = params + step
            h_t, jac_t = _jacobian(trial, x, y)
            resid_t = target - h_t
            sse_t = float(resid_t @ resid_t)
            if np.isfinite(sse_t) and sse_t < sse:
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 3.0
            step = None
        if step is None:
            break
        rel = np.max(np.abs(step) / (np.abs(params) + 1e-8))
        params, h, jac, resid, sse = trial, h_t, jac_t, resid_t, sse_t
        if rel < tol:
            break
    return params, sse


def _fft_init(unit: np.ndarray):
    """Frequency and orientation of the dominant non-DC Fourier component."""
    p = unit.shape[0]
    spec = np.fft.fft2(unit)
    mag = np.abs(spec)
    mag[0, 0] = 0.0
    ky, kx = np.unravel_index(np.argmax(mag), mag.shape)
    freqs = np.fft.fftfreq(p)
    fy, fx = freqs[ky], freqs[kx]
    f0 = math.hypot(fx, fy)
    if f0 == 0.0:
        return 1.0 / p, 0.0
    return f0, math.atan2(fy, fx)


def fit_gabor(unit: np.ndarray) -> GaborFit:
    """Nonlinear least-squares fit over all 8 parameters of a square (p, p) unit.

    Multi-start: frequency and orientation are seeded from the Fourier peak,
    the center from the energy centroid, and four phase starts are tried;
    the best r^2 wins.  A fit that never improves any start is returned with
    ``low_quality`` set.
    """
    unit = np.asarray(unit, dtype=np.float64)
    p = unit.shape[0]
    if unit.shape != (p, p):
        raise PatchflowError(f"unit must be square, got {unit.shape}")
    if np.ptp(unit) == 0.0:
        raise PatchflowError("cannot fit a constant unit")

    target = unit.ravel()
    x, y = _pixel_grid(p)
    energy = target * target
    wsum = energy.sum()
    cx = float((energy * x).sum() / wsum)
    cy = float((energy * y).sum() / wsum)
    f0, theta0 = _fft_init(unit)
    ct, st = math.cos(theta0), math.sin(theta0)
    xr = (x - cx) * ct + (y - cy) * st
    yr = -(x - cx) * st + (y - cy) * ct
    sx0 = float(np.sqrt((energy * xr * xr).sum() / wsum).clip(0.75, p))
    sy0 = float(np.sqrt((energy * yr * yr).sum() / wsum).clip(0.75, p))

    sst = float(((target - target.mean()) ** 2).sum())
    best = None
    for phi0 in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        probe = np.array([1.0, cx, cy, theta0, sx0, sy0, f0, phi0])
        basis, *_ = _gabor_values(probe, x, y)
        denom = float(basis @ basis)
        a0 = float(target @ basis) / denom if denom > 1e-12 else float(np.max(np.abs(target)))
        if abs(a0) < 1e-6:
            a0 = float(np.max(np.abs(target)))
        start = np.array([a0, cx, cy, theta0, sx0, sy0, f0, phi0])
        params, sse = _levenberg_marquardt(target, start, x, y)
        if best is None or sse < best[1]:
            best = (params, sse)
    params, sse = best
    r2 = 1.0 - sse / sst
    fit = GaborFit(*params, r2=r2, low_quality=not np.isfinite(r2) or r2 <= 0.0)
    return canonicalize_gabor(fit)


def canonicalize_gabor(fit: GaborFit) -> GaborFit:
    """Fix the sign/orientation ambiguities: A > 0, f >= 0, theta in [0, pi)."""
    a, x0, y0, theta, sx, sy, f, phi = fit.params()
    sx, sy = abs(sx), abs(sy)
    if a < 0:
        a, phi = -a, phi + math.pi
    if f < 0:
        f, phi = -f, -phi
    k = math.floor(theta / math.pi)
    theta -= k * math.pi
    if k % 2:  # odd number of pi-rotations flips the carrier axis
        phi = -phi
    phi = math.remainder(phi, 2.0 * math.pi)  # (-pi, pi]
    return replace(
        fit,
        amplitude=float(a),
        theta=float(theta),
        sigma_x=float(sx),
        sigma_y=float(sy),
        frequency=float(f),
        phase=float(phi),
    )


# ---------------------------------------------------------------------------
# derived unit statistics


def bandwidth_octaves(fit: GaborFit) -> float:
    """Half-magnitude spatial-frequency bandwidth of the spectral envelope.

    Infinite (sentinel) when the filter passes DC at half magnitude,
    i.e. when 2 pi sigma_x f <= sqrt(2 ln 2).
    """
    xprod = 2.0 * math.pi * fit.sigma_x * fit.frequency
    if xprod <= HALF_MAG:
        return math.inf
    return math.log2((xprod + HALF_MAG) / (xprod - HALF_MAG))


def fold_phase(phi: float) -> float:
    """Map any phase into [0, pi/2] (sign and half-period symmetries)."""
    psi = phi % math.pi
    return min(psi, math.pi - psi)


def envelope_shape(fit: GaborFit) -> tuple[float, float]:
    """(n_x, n_y): envelope widths measured in carrier periods."""
    return fit.sigma_x * fit.frequency, fit.sigma_y * fit.frequency


@dataclass
class PopulationStats:
    """Aggregate statistics of the fitted units of one encoder."""

    r2_mean: float
    r2_std: float
    bandwidths: np.ndarray  # per unit, inf sentinel for broad units
    folded_phase_hist: tuple[np.ndarray, np.ndarray]
    pair_dphi_hist: tuple[np.ndarray, np.ndarray]
    pairs_skipped: int


def fit_all_units(encoder: Encoder) -> list[GaborFit]:
    """Fit every filter row, block-major (unit i = block i // d, slot i % d)."""
    p = encoder.patch_size
    return [fit_gabor(row.reshape(p, p)) for row in encoder.matrix()]


def quadrature_stats(encoder: Encoder, fits: list[GaborFit]):
    """Folded phase differences of the within-block pairs, and the count of pairs
    skipped because a fit is below QUADRATURE_R2.
    """
    d = encoder.block_dim
    pair_dphi = []
    skipped = 0
    for k in range(encoder.num_blocks):
        block = fits[k * d : (k + 1) * d]
        for i in range(d):
            for j in range(i + 1, d):
                fa, fb = block[i], block[j]
                if fa.r2 < QUADRATURE_R2 or fb.r2 < QUADRATURE_R2:
                    skipped += 1
                    continue
                phi_b = fb.phase
                if abs(fa.theta - fb.theta) > math.pi / 2:
                    phi_b = -phi_b  # align the two carrier frames
                pair_dphi.append(fold_phase(fa.phase - phi_b))
    return np.array(pair_dphi), skipped


def population_stats(encoder: Encoder, fits: list[GaborFit]) -> PopulationStats:
    r2 = np.array([f.r2 for f in fits])
    bw = np.array([bandwidth_octaves(f) for f in fits])
    folded = np.array([fold_phase(f.phase) for f in fits])
    pair_dphi, skipped = quadrature_stats(encoder, fits)
    ph_hist = np.histogram(folded, bins=np.linspace(0.0, math.pi / 2, 5))
    dphi_hist = np.histogram(pair_dphi, bins=np.linspace(0.0, math.pi / 2, 4))
    return PopulationStats(
        r2_mean=float(r2.mean()),
        r2_std=float(r2.std()),
        bandwidths=bw,
        folded_phase_hist=ph_hist,
        pair_dphi_hist=dphi_hist,
        pairs_skipped=skipped,
    )


def write_unit_csv(path, encoder: Encoder, fits: list[GaborFit]) -> None:
    """One row per unit: fitted parameters plus the derived statistics."""
    d = encoder.block_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["unit", "block", "slot", *PARAM_NAMES, "r2", "bandwidth_octaves", "nx", "ny", "folded_phase", "low_quality"]
        )
        for i, fit in enumerate(fits):
            nx, ny = envelope_shape(fit)
            writer.writerow(
                [
                    i,
                    i // d,
                    i % d,
                    *(format(v, ".10g") for v in fit.params()),
                    format(fit.r2, ".10g"),
                    format(bandwidth_octaves(fit), ".10g"),
                    format(nx, ".10g"),
                    format(ny, ".10g"),
                    format(fold_phase(fit.phase), ".10g"),
                    int(fit.low_quality),
                ]
            )


# ---------------------------------------------------------------------------
# filter rendering


def animate_filters(encoder: Encoder, model, k: int, deltas) -> list[np.ndarray]:
    """Rows of M^(k)(delta) W^(k) as (d, p, p) images, one entry per delta.

    A table snaps each delta to its nearest candidate, and a mixed model
    shows its zero-offset matrices M^(k)(delta, 0).
    """
    p, d = encoder.patch_size, encoder.block_dim
    zero = np.flatnonzero(~model.offsets.any(axis=1))
    if len(zero) == 0:
        raise GridLookupError("the mixing support has no zero offset")
    cols = slice(zero[0] * d, (zero[0] + 1) * d)  # the zero offset's d columns of block k
    frames = []
    for delta in deltas:
        m = model.support_matrices(np.asarray([delta], dtype=np.float64))[0, k, :, cols]
        moved = np.ascontiguousarray(m) @ encoder.weights[k]
        frames.append(moved.reshape(d, p, p))
    return frames


def filter_montage(filters: np.ndarray, cols: int | None = None, pad: int = 1) -> np.ndarray:
    """Tile filters (N, p, p) into one [0, 1] image, each normalized separately."""
    filters = np.asarray(filters, dtype=np.float64)
    if filters.ndim == 2:
        filters = filters[None]
    n, p, _ = filters.shape
    if cols is None:
        cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    canvas = np.full((rows * (p + pad) + pad, cols * (p + pad) + pad), 0.5)
    for i, f in enumerate(filters):
        lo, hi = f.min(), f.max()
        tile = (f - lo) / (hi - lo) if hi > lo else np.full_like(f, 0.5)
        r, c = divmod(i, cols)
        top, left = pad + r * (p + pad), pad + c * (p + pad)
        canvas[top : top + p, left : left + p] = tile
    return canvas

"""Closed-form gradients of the weighted loss, Adam, and the training loops.

No autodiff anywhere: the gradients of the rotation and reconstruction
losses are derived analytically and verified against finite differences in
the test-suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np

from .core import (
    DisplacementGrid,
    Encoder,
    MixedMotion,
    NonParametricMotion,
    ParametricMotion,
    _patch_indices,
    block_layout,
    delta_basis,
    eval_positions,
    extract_patches,
    offset_encodings,
    predict,
    support_matrices,
    support_offsets,
)
from .datagen import DeformSpec, SamplePair, gen_v1deform
from .errors import DataFormatError, GridLookupError, NumericError, ShapeError, TrainingDiverged

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Optimizer, loss-weight, and model-structure settings."""

    learning_rate: float = 0.0008
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_rotation: float = 1.0
    weight_reconstruction: float = 1.0
    weight_norm_stability: float = 0.0
    batch_size: int = 32
    num_steps: int = 500
    rng_seed: int = 0
    motion_variant: str = "nonparametric"  # "nonparametric" | "mixed" | "parametric"
    num_blocks: int = 40
    block_dim: int = 2
    patch_size: int = 16
    stride: int = 8
    delta_lo: float = -6.0
    delta_hi: float = 6.0
    delta_step: float = 0.5
    support_radius: int = 4
    support_step: int = 2

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.weight_rotation, self.weight_reconstruction, self.weight_norm_stability) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.motion_variant not in ("nonparametric", "mixed", "parametric"):
            raise ValueError(f"unknown motion variant {self.motion_variant!r}")

    @property
    def displacement_grid(self) -> DisplacementGrid:
        return DisplacementGrid(self.delta_lo, self.delta_hi, self.delta_step)


@dataclass
class GradientBundle:
    d_weights: np.ndarray  # (K, d, p*p)
    d_motion: np.ndarray  # matches the motion parameter tensor


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig) -> None:
    """Bias-corrected Adam update of parameters and moments, in place.

    Two scratch buffers the size of a parameter replace the temporaries of
    the textbook expressions; every product and sum is the textbook one,
    taken in the same order, so the results are bit for bit the same.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key}")
        m, v = state.m[key], state.v[key]
        a, b = np.empty_like(p), np.empty_like(p)
        m *= b1  # m = b1*m + (1-b1)*g
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2  # v = b2*v + ((1-b2)*g)*g
        np.multiply(g, 1 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1 - b1 ** t, out=a)  # p -= (lr*m_hat) / (sqrt(v_hat) + eps)
        a *= config.learning_rate
        np.divide(v, 1 - b2 ** t, out=b)
        np.sqrt(b, out=b)
        b += config.eps
        p -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# model construction


def init_model(config: TrainConfig, rng) -> tuple[Encoder, object]:
    """Gaussian 1/p encoder and a no-motion initial model."""
    encoder = Encoder.random(
        config.num_blocks, config.block_dim, config.patch_size, config.stride, rng=rng
    )
    grid = config.displacement_grid
    if config.motion_variant == "nonparametric":
        model = NonParametricMotion.identity(grid, config.num_blocks, config.block_dim)
    elif config.motion_variant == "mixed":
        offsets = support_offsets(config.support_radius, config.support_step)
        model = MixedMotion.identity(grid, offsets, config.num_blocks, config.block_dim)
    else:
        model = ParametricMotion.zeros(config.num_blocks, config.block_dim)
    return encoder, model


def _motion_field(model) -> str:
    """Name of the model's trained parameter tensor."""
    return "coeffs" if isinstance(model, ParametricMotion) else "matrices"


def _motion_params(model) -> np.ndarray:
    return getattr(model, _motion_field(model))


def _rebuild(encoder: Encoder, model, weights: np.ndarray, motion: np.ndarray):
    enc = Encoder(weights, encoder.patch_size, encoder.stride)
    return enc, replace(model, **{_motion_field(model): motion})


# ---------------------------------------------------------------------------
# analytic gradient of the weighted loss


def _scatter_rows(n_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum ``values`` into ``n_rows`` bins along axis 0 (deterministic)."""
    block = int(np.prod(values.shape[1:], dtype=np.int64))
    flat_idx = (rows.astype(np.int64)[:, None] * block + np.arange(block)).ravel()
    out = np.bincount(flat_idx, weights=values.reshape(-1), minlength=n_rows * block)
    return out.reshape((n_rows,) + values.shape[1:])


def _group_gradient(encoder, model, imgs_t, imgs_t1, deltas, config, d_weights, d_motion):
    """Accumulate loss and gradients for a batch group sharing one image size.

    Every model runs the same forward pass over its support (the zero offset
    alone for table and parametric models); only where the motion gradient
    lands depends on the model type.  The heavy contractions run as plain
    matrix products on (batch*positions, features) views.
    """
    w = encoder.weights
    k, d, q = w.shape
    kd = k * d
    w2 = w.reshape(kd, q)
    p = encoder.patch_size
    shape = imgs_t.shape[1:]
    b = imgs_t.shape[0]
    lam_rot = config.weight_rotation
    lam_rec = config.weight_reconstruction
    lam_ns = config.weight_norm_stability
    loss = 0.0
    dw2 = d_weights.reshape(kd, q)

    if lam_rot > 0 or lam_ns > 0:
        pos = eval_positions(encoder, model, shape)
        if deltas.shape[1] != len(pos):
            raise ShapeError(
                f"fields have {deltas.shape[1]} positions, evaluation grid has {len(pos)}"
            )
        n = len(pos)
        a1 = extract_patches(imgs_t1, pos, p).reshape(b * n, q)
        v1 = (a1 @ w2.T).reshape(b, n, k, d)
        a_u, v_u, inverse = offset_encodings(encoder, imgs_t, pos, model.offsets)
        n_u, m_off = a_u.shape[1], inverse.shape[1]
        voff = v_u[:, inverse]  # (B, N, m, K, d)
        mats = support_matrices(model, deltas)  # (B, N, m, K, d, d)
        pred = predict(block_layout(mats[:, :, None]), voff[:, :, None])[..., 0, :, 0]

        r = v1 - pred
        loss += lam_rot * float(np.sum(r * r))
        d_pred = -2.0 * lam_rot * r
        if lam_ns > 0:
            a_x = extract_patches(imgs_t, pos, p).reshape(b * n, q)
            v_x = (a_x @ w2.T).reshape(b, n, k, d)
            ns = np.sum(pred * pred, axis=3) - np.sum(v_x * v_x, axis=3)  # (B, N, K)
            loss += lam_ns * float(np.sum(ns * ns))
            d_pred = d_pred + 4.0 * lam_ns * ns[..., None] * pred
            gv = (-4.0 * lam_ns * ns[..., None] * v_x).reshape(b * n, kd)
            dw2 += gv.T @ a_x
        dw2 += (2.0 * lam_rot * r).reshape(b * n, kd).T @ a1

        # back through the prediction: M^T d_pred per offset, scattered onto the
        # unique support centers, and the outer product d_pred v^T per offset
        mt_g = predict(block_layout(np.swapaxes(mats, -1, -2)[:, :, :, None]), d_pred[:, :, None, None])
        mt_g = np.swapaxes(mt_g[..., 0], 2, 3)  # (B, N, m, K, d)
        rows = (np.arange(b)[:, None] * n_u + inverse.ravel()[None, :]).ravel()
        s = _scatter_rows(b * n_u, rows, mt_g.reshape(b * n * m_off, kd))
        dw2 += s.T @ a_u.reshape(b * n_u, q)
        g_m = (d_pred[:, :, None, :, :, None] * voff[:, :, :, :, None, :]).reshape(b * n, -1)
        if isinstance(model, ParametricMotion):
            basis = delta_basis(deltas).reshape(b * n, 5)
            d_motion += (basis.T @ g_m).reshape(d_motion.shape)
        else:
            cidx = model.grid.round_indices(deltas).ravel()
            d_motion += _scatter_rows(len(d_motion), cidx, g_m).reshape(d_motion.shape)

    if lam_rec > 0:
        pos_rec = encoder.grid.positions(*shape)
        idx_rec = _patch_indices(shape, pos_rec, p)
        n_rec = len(pos_rec)
        npix = shape[0] * shape[1]
        rows = (np.arange(b)[:, None, None] * npix + idx_rec[None, :, :]).ravel()
        for flat in (imgs_t.reshape(b, -1), imgs_t1.reshape(b, -1)):
            a_rec = np.take(flat, idx_rec, axis=1).reshape(b * n_rec, q)
            v_rec = a_rec @ w2.T  # (B*N, kd)
            rec = v_rec @ w2  # (B*N, q)
            canvas = np.bincount(rows, weights=rec.ravel(), minlength=b * npix)
            e = flat - canvas.reshape(b, npix)
            loss += lam_rec * float(np.sum(e * e))
            e_p = np.take(e, idx_rec, axis=1).reshape(b * n_rec, q)
            v_e = e_p @ w2.T
            dw2 += -2.0 * lam_rec * (v_rec.T @ e_p + v_e.T @ a_rec)
    return loss


def grad_total(encoder, model, batch, config: TrainConfig):
    """Gradient of the batch-mean weighted loss.

    ``batch`` holds (image_t, image_t1, deltas) triplets whose ``deltas``
    align with ``eval_positions`` for that image size.  Returns the bundle
    and the loss value.
    """
    if not batch:
        raise ShapeError("empty batch")
    d_weights = np.zeros_like(encoder.weights)
    d_motion = np.zeros_like(_motion_params(model))
    loss = 0.0
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (img_t, _, _) in enumerate(batch):
        groups.setdefault(np.asarray(img_t).shape, []).append(i)
    for shape, members in groups.items():
        imgs_t = np.stack([np.asarray(batch[i][0], dtype=np.float64) for i in members])
        imgs_t1 = np.stack([np.asarray(batch[i][1], dtype=np.float64) for i in members])
        deltas = np.stack([np.asarray(batch[i][2], dtype=np.float64) for i in members])
        loss += _group_gradient(
            encoder, model, imgs_t, imgs_t1, deltas, config, d_weights, d_motion
        )
    scale = 1.0 / len(batch)
    loss *= scale
    d_weights *= scale
    d_motion *= scale
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r} (check inputs and learning rate)")
    return GradientBundle(d_weights, d_motion), loss


def total_loss(encoder, model, batch, config: TrainConfig) -> float:
    """Batch-mean weighted loss without gradients (finite-difference probes)."""
    d_w = np.zeros_like(encoder.weights)
    d_m = np.zeros_like(_motion_params(model))
    loss = 0.0
    for img_t, img_t1, deltas in batch:
        loss += _group_gradient(
            encoder,
            model,
            np.asarray(img_t, dtype=np.float64)[None],
            np.asarray(img_t1, dtype=np.float64)[None],
            np.asarray(deltas, dtype=np.float64)[None],
            config,
            d_w,
            d_m,
        )
    return loss / len(batch)


# ---------------------------------------------------------------------------
# supervised training


def _as_triplet(sample):
    if isinstance(sample, SamplePair):
        return sample.image_t, sample.image_t1, sample.field
    img_t, img_t1, field = sample
    return np.asarray(img_t), np.asarray(img_t1), np.asarray(field)


def prepare_dataset(dataset, encoder, model, snap_to_grid: bool) -> list:
    """Sample dense fields on the evaluation lattice, snapping for table models.

    Snapping needs every sampled component to round onto the candidate grid;
    data that reaches past it raises DataFormatError naming both ranges.
    """
    prepared = []
    cache: dict[tuple[int, int], np.ndarray] = {}
    for sample in dataset:
        img_t, img_t1, field = _as_triplet(sample)
        pos = cache.get(img_t.shape)
        if pos is None:
            pos = eval_positions(encoder, model, img_t.shape)
            cache[img_t.shape] = pos
        if field.ndim == 3:
            vec = field[pos[:, 0], pos[:, 1]]
        else:
            vec = np.asarray(field, dtype=np.float64)
            if vec.shape != (len(pos), 2):
                raise ShapeError("pre-sampled field does not match the evaluation grid")
        prepared.append((np.asarray(img_t, dtype=np.float64), np.asarray(img_t1, dtype=np.float64), vec))
    if snap_to_grid and prepared:
        grid = model.grid
        lo = min(float(vec.min()) for *_, vec in prepared)
        hi = max(float(vec.max()) for *_, vec in prepared)
        try:
            grid.round_indices(np.array([[lo, lo], [hi, hi]]))
        except GridLookupError:
            raise DataFormatError(
                f"field components span [{lo:g}, {hi:g}] px, outside the "
                f"candidate grid [{grid.lo:g}, {grid.hi:g}]"
            ) from None
        cand = grid.candidates()
        prepared = [(img_t, img_t1, cand[grid.round_indices(vec)]) for img_t, img_t1, vec in prepared]
    return prepared


def _run_steps(params, state, prepared, encoder0, model0, config, rng, num_steps, history):
    for _ in range(num_steps):
        take = rng.integers(0, len(prepared), size=config.batch_size)
        enc, model = _rebuild(encoder0, model0, params["weights"], params["motion"])
        batch = [prepared[i] for i in take]
        try:
            bundle, loss = grad_total(enc, model, batch, config)
        except NumericError as exc:
            raise TrainingDiverged(str(exc), history) from exc
        history.append(loss)
        adam_step(params, {"weights": bundle.d_weights, "motion": bundle.d_motion}, state, config)


def train_supervised(dataset, config: TrainConfig):
    """Train encoder and motion model on (frame, field, frame) triplets.

    Returns (encoder, model, per-step loss history).  Identical config and
    seed give an identical history and identical parameters.
    """
    rng = np.random.default_rng(config.rng_seed)
    encoder0, model0 = init_model(config, rng)
    snap = config.motion_variant in ("nonparametric", "mixed")
    prepared = prepare_dataset(dataset, encoder0, model0, snap)
    if not prepared:
        raise ShapeError("empty dataset")
    params = {"weights": encoder0.weights.copy(), "motion": _motion_params(model0).copy()}
    state = AdamState.init(params)
    history: list[float] = []
    _run_steps(params, state, prepared, encoder0, model0, config, rng, config.num_steps, history)
    enc, model = _rebuild(encoder0, model0, params["weights"].copy(), params["motion"].copy())
    return enc, model, history


# ---------------------------------------------------------------------------
# unsupervised training (three stages)


@dataclass
class UnsupervisedConfig:
    """Alternation loop settings on top of a parametric TrainConfig."""

    train: TrainConfig
    init_pairs: int = 64
    init_steps: int = 300
    steps_per_round: int = 100
    rounds: int = 5
    field_tol: float = 0.05  # mean field change (px) that stops alternation
    smoothness_weight: float = 0.05
    infer_step: float = 0.2
    infer_iters: int = 60
    deform_grid_m: int = 4
    deform_lo: float = -3.0
    deform_hi: float = 3.0

    def __post_init__(self):
        if self.train.motion_variant != "parametric":
            raise ValueError("unsupervised training uses the parametric motion model")


def _unsup_objective(encoder, model, prepared, fields, lam_s, config, grid_shape):
    from .inference import _smoothness_value_grad

    obj = 0.0
    for (img_t, img_t1, _), fld in zip(prepared, fields):
        batch = [(img_t, img_t1, fld)]
        obj += total_loss(encoder, model, batch, config)
        if lam_s > 0:
            sval, _ = _smoothness_value_grad(fld, grid_shape)
            obj += lam_s * sval
    return obj / len(prepared)


def train_unsupervised(sequences, config: UnsupervisedConfig):
    """Three stages: self-deformed init, inference, then alternation.

    Returns (encoder, model, diagnostics) with per-round objective values and
    mean field changes in the diagnostics dict.
    """
    from .inference import InferConfig, infer_parametric

    frames = [np.asarray(f, dtype=np.float64) for seq in sequences for f in seq]
    if any(len(seq) < 2 for seq in sequences) or not sequences:
        raise ShapeError("need sequences of at least two frames")
    tcfg = config.train

    # stage 1: supervised init on self-deformed single frames
    deform = DeformSpec(
        grid_m=config.deform_grid_m,
        lo=config.deform_lo,
        hi=config.deform_hi,
        seed=tcfg.rng_seed,
    )
    init_pairs = gen_v1deform(frames, config.init_pairs, deform)
    stage1_cfg = replace(tcfg, num_steps=config.init_steps)
    encoder, model, history = train_supervised(init_pairs, stage1_cfg)

    pairs = [
        (seq[i], seq[i + 1]) for seq in sequences for i in range(len(seq) - 1)
    ]
    prepared = [
        (np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), None)
        for a, b in pairs
    ]
    # margin 0: inferred fields must cover the full training lattice
    icfg = InferConfig(
        margin=0,
        smoothness_weight=config.smoothness_weight,
        step_size=config.infer_step,
        max_iters=config.infer_iters,
        init="zeros",
    )
    shape = prepared[0][0].shape
    pos = encoder.grid.positions(*shape)
    rows, cols = np.unique(pos[:, 0]), np.unique(pos[:, 1])
    grid_shape = (len(rows), len(cols))

    # stage 2: infer fields with the initialized model
    fields = [
        infer_parametric(encoder, model, a, b, icfg).vectors for a, b, _ in prepared
    ]

    # stage 3: alternate parameter updates and re-inference (warm-started)
    params = {"weights": encoder.weights.copy(), "motion": model.coeffs.copy()}
    state = AdamState.init(params)
    rng = np.random.default_rng([tcfg.rng_seed, 3])
    objectives = [
        _unsup_objective(encoder, model, prepared, fields, config.smoothness_weight, tcfg, grid_shape)
    ]
    field_changes = []
    for _ in range(config.rounds):
        triplets = [
            (img_t, img_t1, fld) for (img_t, img_t1, _), fld in zip(prepared, fields)
        ]
        _run_steps(params, state, triplets, encoder, model, tcfg, rng, config.steps_per_round, history)
        encoder, model = _rebuild(encoder, model, params["weights"], params["motion"])
        new_fields = []
        for (img_t, img_t1, _), fld in zip(prepared, fields):
            warm = replace(icfg, init_field=fld)
            new_fields.append(infer_parametric(encoder, model, img_t, img_t1, warm).vectors)
        change = float(
            np.mean([np.mean(np.linalg.norm(nf - of, axis=1)) for nf, of in zip(new_fields, fields)])
        )
        fields = new_fields
        field_changes.append(change)
        objectives.append(
            _unsup_objective(encoder, model, prepared, fields, config.smoothness_weight, tcfg, grid_shape)
        )
        if change < config.field_tol:
            break
    encoder, model = _rebuild(encoder, model, params["weights"].copy(), params["motion"].copy())
    diagnostics = {
        "objectives": objectives,
        "field_changes": field_changes,
        "history": history,
        "fields": fields,
        "positions": pos,
    }
    return encoder, model, diagnostics


# ---------------------------------------------------------------------------
# checkpoints: one-line JSON header, then float64 little-endian blocks


def save_checkpoint(path, encoder: Encoder, model, extra: dict | None = None) -> None:
    if isinstance(model, NonParametricMotion):
        motion_meta = {
            "variant": "nonparametric",
            "grid": {"lo": model.grid.lo, "hi": model.grid.hi, "step": model.grid.step},
        }
    elif isinstance(model, MixedMotion):
        motion_meta = {
            "variant": "mixed",
            "grid": {"lo": model.grid.lo, "hi": model.grid.hi, "step": model.grid.step},
            "offsets": model.offsets.tolist(),
        }
    elif isinstance(model, ParametricMotion):
        motion_meta = {"variant": "parametric"}
    else:
        raise ShapeError(f"unknown motion model {type(model).__name__}")
    motion = _motion_params(model)
    header = {
        "format": "patchflow-checkpoint",
        "version": CHECKPOINT_VERSION,
        "encoder": {
            "num_blocks": encoder.num_blocks,
            "block_dim": encoder.block_dim,
            "patch_size": encoder.patch_size,
            "stride": encoder.stride,
        },
        "motion": motion_meta,
        "blocks": [
            {"name": "encoder.weights", "shape": list(encoder.weights.shape)},
            {"name": "motion.params", "shape": list(motion.shape)},
        ],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(encoder.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(motion, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (encoder, model, header)."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(raw[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint header") from exc
    if header.get("format") != "patchflow-checkpoint":
        raise DataFormatError(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"{path}: checkpoint version {header.get('version')} != {CHECKPOINT_VERSION}"
        )
    body = raw[nl + 1 :]
    arrays = []
    offset = 0
    for block in header["blocks"]:
        count = int(np.prod(block["shape"], dtype=np.int64))
        end = offset + 8 * count
        if end > len(body):
            raise DataFormatError(f"{path}: truncated parameter block {block['name']}")
        arrays.append(np.frombuffer(body[offset:end], dtype="<f8").reshape(block["shape"]).copy())
        offset = end
    if offset != len(body):
        raise DataFormatError(f"{path}: trailing bytes after parameter blocks")
    weights, motion = arrays
    emeta = header["encoder"]
    encoder = Encoder(weights, emeta["patch_size"], emeta["stride"])
    mmeta = header["motion"]
    if mmeta["variant"] == "nonparametric":
        grid = DisplacementGrid(mmeta["grid"]["lo"], mmeta["grid"]["hi"], mmeta["grid"]["step"])
        model = NonParametricMotion(grid, motion)
    elif mmeta["variant"] == "mixed":
        grid = DisplacementGrid(mmeta["grid"]["lo"], mmeta["grid"]["hi"], mmeta["grid"]["step"])
        model = MixedMotion(grid, np.asarray(mmeta["offsets"], dtype=np.int64), motion)
    elif mmeta["variant"] == "parametric":
        model = ParametricMotion(motion)
    else:
        raise DataFormatError(f"{path}: unknown motion variant {mmeta['variant']!r}")
    return encoder, model, header

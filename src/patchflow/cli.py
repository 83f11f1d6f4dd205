"""Command-line surface: data generation, training, inference, animation,
interpolation, analysis, and evaluation.

Every command reads an optional JSON config (flags override config keys),
emits its artifacts under --out, and writes a run_summary.json with the
config hash, metrics, and timings.  Exit codes: 0 ok, 2 config error,
3 missing input, 4 format/version error, 5 numeric failure, 1 unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import datagen, evalviz, gabor, inference, training
from .core import DisplacementField, eval_positions, lattice_axes, support_centers
from .errors import (
    ConfigError,
    DataFormatError,
    GridLookupError,
    NumericError,
    PatchflowError,
    ShapeError,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

SCHEMA_VERSION = 1

# the Newton blocks of one descent stack, ny (2 nx)^2 float64 per pair; their
# inverses take as much again
NEWTON_STACK_BYTES = 4 * 2**20


def _defaults(cls, *leave_out) -> dict:
    """Field defaults of a config dataclass, as the JSON values of a config file."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(cls)
        if f.name not in leave_out
    }


def default_config() -> dict:
    return {
        "seed": 0,
        "threads": 1,
        "train": dataclasses.asdict(training.TrainConfig()),
        "deform": _defaults(datagen.DeformSpec, "seed"),
        "scene": _defaults(datagen.AffineSceneSpec, "seed"),
        "infer": _defaults(inference.InferConfig, "rng_seed", "init_field"),
        "unsupervised": _defaults(training.UnsupervisedConfig, "train"),
        "datagen": {"pairs": 200, "image_size": 64, "synthetic_sources": 8, "mode": "binary"},
    }


DESK_SCALE = {
    "train": {"num_blocks": 10, "block_dim": 2, "patch_size": 16, "stride": 8, "num_steps": 2000},
    "datagen": {"pairs": 2000, "image_size": 64},
}


def _merge_config(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            _merge_config(base[key], value, where)
        else:
            base[key] = value


def _same_kind(default, value) -> bool:
    """Whether ``value`` has the JSON type of ``default``; an int may stand for a float."""
    if isinstance(value, bool):  # JSON true/false, though Python counts it an int
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return (
            isinstance(value, list)
            and len(value) == len(default)
            and all(map(_same_kind, default, value))
        )
    return isinstance(value, type(default))


def _check_types(defaults: dict, config: dict, path: str = "") -> None:
    """Raise ConfigError for a merged value whose type is not its default's."""
    for key, value in config.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            _check_types(defaults[key], value, where)
        elif not _same_kind(defaults[key], value):
            raise ConfigError(
                f"config key {where!r} must have type {type(defaults[key]).__name__} "
                f"(like {json.dumps(defaults[key])}), got {json.dumps(value)}"
            )


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_summary(out_dir: Path, command: str, config: dict, metrics: dict, timings: dict, artifacts: list[str]) -> None:
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
        "metrics": metrics,
        "timings": timings,
        "artifacts": sorted(artifacts),
    }
    with open(out_dir / "run_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parallel_map(fn, items, threads: int):
    """Order-preserving map; results are independent of the thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _build_settings(config: dict) -> dict:
    """The settings objects of a merged config, one per section.

    Building them checks every value before any work; a value whose type
    is not its default's, or that a settings class rejects, raises
    ConfigError.
    """
    _check_types(default_config(), config)
    seed = config["seed"]
    try:
        if config["datagen"]["pairs"] < 1:
            raise ValueError("datagen.pairs must be at least 1")
        train = training.TrainConfig(**{**config["train"], "rng_seed": seed})
        unsup_train = dataclasses.replace(train, motion_variant="parametric")
        scene = {**config["scene"], "fg_size": tuple(config["scene"]["fg_size"])}
        return {
            "train": train,
            "unsupervised": training.UnsupervisedConfig(train=unsup_train, **config["unsupervised"]),
            "infer": inference.InferConfig(**config["infer"], rng_seed=seed),
            "deform": datagen.DeformSpec(**config["deform"], seed=seed),
            "scene": datagen.AffineSceneSpec(**scene, seed=seed),
        }
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_sources(args, config) -> list[np.ndarray]:
    if args.sources is not None:
        src_dir = Path(args.sources)
        if not src_dir.is_dir():
            raise FileNotFoundError(f"source directory {src_dir} not found")
        files = sorted(src_dir.glob("*.pgm")) + sorted(src_dir.glob("*.ppm"))
        if not files:
            raise FileNotFoundError(f"no PGM/PPM images under {src_dir}")
        return [evalviz.load_image(f) for f in files]
    n = config["datagen"]["synthetic_sources"]
    size = config["datagen"]["image_size"]
    return datagen.synthetic_textures(n, (size, size), seed=config["seed"])


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args, config, settings) -> dict:
    sources = _load_sources(args, config)
    spec = settings["deform"]
    n = config["datagen"]["pairs"]
    pairs = parallel_map(
        lambda i: datagen.deform_sample(sources, spec, i), range(n), config["threads"]
    )
    datagen.dataset_write(pairs, args.out, mode=config["datagen"]["mode"], spec_echo=dataclasses.asdict(spec))
    mags = [float(np.linalg.norm(p.field, axis=2).mean()) for p in pairs]
    return {"pairs": n, "mean_field_magnitude": float(np.mean(mags)) if mags else 0.0}


def _disk_mask(size: int) -> np.ndarray:
    r = size / 2.0 - 0.5
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return ((yy - r) ** 2 + (xx - r) ** 2 <= (0.45 * size) ** 2).astype(np.float64)


def cmd_gen_objects(args, config, settings) -> dict:
    backgrounds = _load_sources(args, config)
    size = config["datagen"]["image_size"]
    fg_size = max(8, size // 2)
    n_fg = max(2, config["datagen"]["synthetic_sources"] // 2)
    foregrounds = datagen.synthetic_textures(n_fg, (fg_size, fg_size), seed=config["seed"] + 1)
    masks = [_disk_mask(fg_size)] * n_fg
    spec = settings["scene"]
    n = config["datagen"]["pairs"]
    pairs = parallel_map(
        lambda i: datagen.scene_sample(backgrounds, foregrounds, masks, spec, i),
        range(n),
        config["threads"],
    )
    datagen.dataset_write(pairs, args.out, mode=config["datagen"]["mode"])
    return {"pairs": n}


def cmd_train(args, config, settings) -> dict:
    dataset = datagen.dataset_read(args.data)
    encoder, model, history = training.train_supervised(dataset, settings["train"])
    out = Path(args.out)
    training.save_checkpoint(out / "model.ckpt", encoder, model, extra={"train": config["train"], "seed": config["seed"]})
    with open(out / "loss_history.csv", "w") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(history):
            fh.write(f"{i},{loss:.12g}\n")
    return {
        "steps": len(history),
        "initial_loss": history[0] if history else None,
        "final_loss": history[-1] if history else None,
    }


def _read_sequences(frames_dir: Path) -> list[list[np.ndarray]]:
    seq_dirs = sorted(d for d in frames_dir.iterdir() if d.is_dir())
    if seq_dirs:
        seqs = []
        for d in seq_dirs:
            files = sorted(d.glob("*.pgm")) + sorted(d.glob("*.ppm"))
            if len(files) >= 2:
                seqs.append([evalviz.load_image(f) for f in files])
        if not seqs:
            raise FileNotFoundError(f"no frame sequences with >= 2 images under {frames_dir}")
        return seqs
    files = sorted(frames_dir.glob("*.pgm")) + sorted(frames_dir.glob("*.ppm"))
    if len(files) < 2:
        raise FileNotFoundError(f"need at least two frames under {frames_dir}")
    return [[evalviz.load_image(f) for f in files]]


def cmd_train_unsup(args, config, settings) -> dict:
    frames_dir = Path(args.frames)
    if not frames_dir.is_dir():
        raise FileNotFoundError(f"frames directory {frames_dir} not found")
    sequences = _read_sequences(frames_dir)
    encoder, model, diag = training.train_unsupervised(sequences, settings["unsupervised"])
    out = Path(args.out)
    training.save_checkpoint(out / "model.ckpt", encoder, model, extra={"seed": config["seed"]})
    for i, (pos, vec) in enumerate(zip(diag["positions"], diag["fields"])):
        inference.write_field(out / f"field_{i:05d}.v1fd", DisplacementField(pos, vec))
    stage2, *rounds = map(inference.descent_summary, diag["descents"])
    return {
        "sequences": len(sequences),
        "rounds_run": len(diag["field_changes"]),
        "objectives": diag["objectives"],
        "field_changes": diag["field_changes"],
        "descent": {"stage2": stage2, "rounds": rounds},
    }


def _stacks(members: list[int], pair_bytes: int, budget: int, threads: int) -> list[list[int]]:
    """One frame size's pairs ``members`` cut into contiguous stacks: at least
    ``threads`` of them, and each holding at most as many pairs of
    ``pair_bytes`` as fit in ``budget`` (a pair larger than that is a stack
    alone)."""
    per_stack = max(1, budget // pair_bytes)
    count = max(min(threads, len(members)), -(-len(members) // per_stack))
    return [part.tolist() for part in np.array_split(members, count)]


def _descent_stacks(members: list[int], grid_shape, threads: int) -> list[list[int]]:
    """`_stacks` of descents, whose Newton blocks, ny (2 nx)^2 float64 per
    pair, fit in NEWTON_STACK_BYTES."""
    ny, nx = grid_shape
    return _stacks(members, 8 * ny * (2 * nx) ** 2, NEWTON_STACK_BYTES, threads)


def _infer_stacks(encoder, model, pairs, icfg, threads: int):
    """The fields of ``pairs``, each frame size's pairs inferred as stacks:
    damped-Newton descent under a parametric model, grid scoring under a
    table model, whose stacks' support patches, p^2 float64 per support
    center and pair, fit in `training.CHUNK_BYTES`.  Returns (fields,
    (iterations, stop reason) of each descent)."""
    parametric = isinstance(model, training.ParametricMotion)
    stacks = []
    for members in training.size_groups([pair.image_t for pair in pairs]):
        shape = pairs[members[0]].image_t.shape
        pos = inference.infer_positions(encoder, model, shape, icfg.margin)
        if parametric:
            stacks += _descent_stacks(members, tuple(map(len, lattice_axes(pos))), threads)
        else:
            centers, _ = support_centers(encoder, shape, pos, model.offsets)
            stacks += _stacks(members, 8 * encoder.patch_size**2 * len(centers), training.CHUNK_BYTES, threads)

    def infer(members):
        images_t = np.stack([pairs[i].image_t for i in members])
        images_t1 = np.stack([pairs[i].image_t1 for i in members])
        if parametric:
            return inference.infer_parametric_stack(encoder, model, images_t, images_t1, icfg, newton=True)
        return inference.infer_grid_stack(encoder, model, images_t, images_t1, icfg)

    fields, stops = [None] * len(pairs), [None] * len(pairs)
    for members, (pos, found, *descent) in zip(stacks, parallel_map(infer, stacks, threads)):
        for j, i in enumerate(members):
            fields[i] = DisplacementField(pos, found[j])
            if parametric:
                stops[i] = (int(descent[0][j]), descent[1][j])
    return fields, stops if parametric else []


def cmd_infer(args, config, settings) -> dict:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be at least 1, got {args.limit}")
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    icfg = settings["infer"]
    out = Path(args.out)
    if args.pair:
        img_a = evalviz.load_image(args.pair[0])
        img_b = evalviz.load_image(args.pair[1])
        pairs = [datagen.SamplePair(img_a, img_b, np.zeros(img_a.shape + (2,)))]
    else:
        if args.data is None:
            raise ConfigError("infer needs --data or --pair")
        pairs = datagen.dataset_read(args.data)
        if args.limit is not None:
            pairs = pairs[: args.limit]
    if any(pair.image_t.shape != pair.image_t1.shape for pair in pairs):
        raise ShapeError("frame pair dimensions differ")
    for shape in {pair.image_t.shape for pair in pairs}:  # every size fits before any pair
        eval_positions(encoder, model, shape)
    fields, stops = _infer_stacks(encoder, model, pairs, icfg, config["threads"])
    for i, fld in enumerate(fields):
        inference.write_field(out / f"field_{i:05d}.v1fd", fld)
        if args.text:
            inference.write_field_text(out / f"field_{i:05d}.txt", fld)
        if args.color:
            ny, nx = map(len, lattice_axes(fld.positions))
            rgb = evalviz.flow_to_color(fld.vectors.reshape(ny, nx, 2))
            evalviz.write_ppm(out / f"field_{i:05d}.ppm", rgb)
    metrics = {"pairs": len(pairs)}
    if stops:
        metrics["descent"] = inference.descent_summary(stops)
    return metrics


def cmd_animate(args, config, settings) -> dict:
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    start = evalviz.load_image(args.start)
    fields = [inference.read_field(f) for f in args.field]
    frames = inference.animate(encoder, model, start, fields)
    out = Path(args.out)
    for i, frame in enumerate(frames):
        evalviz.write_pgm(out / f"frame_{i:05d}.pgm", frame)
    return {"frames": len(frames)}


def cmd_interpolate(args, config, settings) -> dict:
    if args.max_steps < 0:
        raise ConfigError(f"--max-steps must be at least 0, got {args.max_steps}")
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    img_a = evalviz.load_image(args.start)
    img_b = evalviz.load_image(args.end)
    frames, ok = inference.interpolate_frames(
        encoder, model, img_a, img_b, max_steps=args.max_steps, stop_thresh=args.stop_thresh
    )
    out = Path(args.out)
    for i, frame in enumerate(frames):
        evalviz.write_pgm(out / f"frame_{i:05d}.pgm", frame)
    return {"frames": len(frames), "success": bool(ok)}


def cmd_analyze(args, config, settings) -> dict:
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    fits = gabor.fit_all_units(encoder)
    out = Path(args.out)
    gabor.write_unit_csv(out / "units.csv", encoder, fits)
    stats = gabor.population_stats(encoder, fits)
    p = encoder.patch_size
    raw = encoder.matrix().reshape(-1, p, p)
    fitted = np.stack([gabor.gabor_eval(f, p) for f in fits])
    evalviz.write_pgm(out / "filters_raw.pgm", gabor.filter_montage(raw, cols=encoder.block_dim * 4))
    evalviz.write_pgm(out / "filters_fit.pgm", gabor.filter_montage(fitted, cols=encoder.block_dim * 4))
    finite_bw = stats.bandwidths[np.isfinite(stats.bandwidths)]
    metrics = {
        "units": len(fits),
        "r2_mean": stats.r2_mean,
        "r2_std": stats.r2_std,
        "bandwidth_mean_octaves": float(finite_bw.mean()) if len(finite_bw) else None,
        "pairs_skipped": stats.pairs_skipped,
        "pair_dphi_hist": stats.pair_dphi_hist[0].tolist(),
        "folded_phase_hist": stats.folded_phase_hist[0].tolist(),
    }
    with open(out / "stats.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


def cmd_eval(args, config, settings) -> dict:
    pairs = datagen.dataset_read(args.data)
    margin = config["infer"]["margin"]
    if args.zero_predictor:
        # baseline: the all-zero field on the default lattice
        from .core import GridSpec

        grid = GridSpec(config["train"]["patch_size"], config["train"]["stride"])
        fields = []
        for p in pairs:
            pos = grid.positions(*p.image_t.shape)
            fields.append(DisplacementField(pos, np.zeros((len(pos), 2))))
    else:
        if args.pred is None:
            raise ConfigError("eval needs --pred or --zero-predictor")
        pred_dir = Path(args.pred)
        files = sorted(pred_dir.glob("field_*.v1fd"))
        if not files:
            raise FileNotFoundError(f"no field files under {pred_dir}")
        fields = [inference.read_field(f) for f in files]
        if len(fields) > len(pairs):
            raise DataFormatError("more predicted fields than ground-truth pairs")
        pairs = pairs[: len(fields)]
    reports = [
        evalviz.epe(fld, pair.field, margin=margin) for fld, pair in zip(fields, pairs)
    ]
    all_errors = np.concatenate([r.errors for r in reports])
    pooled = float(all_errors.mean())
    per_image = [r.mean_epe for r in reports]
    out = Path(args.out)
    with open(out / "epe.csv", "w") as fh:
        fh.write("pair,count,mean_epe\n")
        for i, r in enumerate(reports):
            fh.write(f"{i},{r.count},{r.mean_epe:.9g}\n")
        fh.write(f"pooled,{len(all_errors)},{pooled:.9g}\n")
        fh.write(f"mean_of_means,{len(reports)},{float(np.mean(per_image)):.9g}\n")
    return {
        "pairs": len(reports),
        "epe_pooled": pooled,
        "epe_mean_of_means": float(np.mean(per_image)),
    }


def cmd_filters(args, config, settings) -> dict:
    try:
        deltas = np.array([t.split(",") for t in args.delta_path.split(";")], dtype=np.float64)
    except ValueError:  # a value that is not a number, or a ragged path
        deltas = np.empty((0, 0))
    if deltas.shape[1:] != (2,) or not np.all(np.isfinite(deltas)):
        raise ConfigError(f"--delta-path {args.delta_path!r} is not finite 'd_row,d_col' pairs joined by ';'")
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    if not 0 <= args.block < encoder.num_blocks:
        raise ConfigError(f"--block must be in [0, {encoder.num_blocks}), got {args.block}")
    for delta in deltas if hasattr(model, "grid") else ():  # a table's candidates only
        try:
            model.grid.index_of(delta)
        except GridLookupError as exc:
            raise ConfigError(f"--delta-path: {exc}") from None
    frames = gabor.animate_filters(encoder, model, args.block, deltas)
    out = Path(args.out)
    for i, frame in enumerate(frames):
        evalviz.write_pgm(out / f"filters_{i:05d}.pgm", gabor.filter_montage(frame))
    return {"frames": len(frames), "block": args.block}


# ---------------------------------------------------------------------------
# argument parsing

_KEY = "key:"  # dest prefix of a flag that sets a config key


def _key_flag(parser, flag: str, key: str, **kwargs) -> None:
    """Add ``flag``, whose dest names the config key it sets; help shows its own metavar."""
    if "choices" not in kwargs:
        kwargs["metavar"] = flag[2:].upper().replace("-", "_")
    parser.add_argument(flag, dest=_KEY + key, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchflow",
        description="Train and run the coupled patch-encoding / motion-matrix model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="JSON run configuration")
        _key_flag(p, "--seed", "seed", type=int, help="override the config seed")
        _key_flag(p, "--threads", "threads", type=int, help="worker thread cap (default 1)")
        p.add_argument("--desk-scale", action="store_true", help="small-model preset")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate a smooth-deformation dataset")
    common(p)
    p.add_argument("--sources", help="directory of PGM/PPM source images")
    _key_flag(p, "--pairs", "datagen.pairs", type=int, help="number of pairs")
    _key_flag(p, "--size", "datagen.image_size", type=int, help="synthetic source image size")
    p.add_argument("--range", type=float, help="displacement range [-r, +r]")

    p = sub.add_parser("gen-objects", help="generate a layered affine-scene dataset")
    common(p)
    p.add_argument("--sources", help="directory of PGM/PPM background images")
    _key_flag(p, "--pairs", "datagen.pairs", type=int)
    _key_flag(p, "--size", "datagen.image_size", type=int)

    p = sub.add_parser("train", help="supervised training on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    _key_flag(p, "--variant", "train.motion_variant", choices=["nonparametric", "mixed", "parametric"])
    _key_flag(p, "--steps", "train.num_steps", type=int)
    _key_flag(p, "--lr", "train.learning_rate", type=float)
    _key_flag(p, "--batch-size", "train.batch_size", type=int)
    _key_flag(p, "--blocks", "train.num_blocks", type=int, help="number of sub-vectors K")

    p = sub.add_parser("train-unsup", help="three-stage unsupervised training")
    common(p)
    p.add_argument("--frames", required=True, help="directory of frame sequences")
    _key_flag(p, "--steps", "unsupervised.init_steps", type=int, help="stage-1 initialization steps")

    p = sub.add_parser("infer", help="infer displacement fields")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory to infer over")
    p.add_argument("--pair", nargs=2, metavar=("T0", "T1"), help="one explicit image pair")
    p.add_argument("--limit", type=int, help="only infer the first N pairs")
    p.add_argument("--text", action="store_true", help="also write text dumps")
    p.add_argument("--color", action="store_true", help="also write color-coded PPMs")
    _key_flag(p, "--margin", "infer.margin", type=int)

    p = sub.add_parser("animate", help="animate frames from a start image and fields")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--start", required=True, help="start frame (PGM/PPM)")
    p.add_argument("--field", action="append", required=True, help="field file (repeatable)")

    p = sub.add_parser("interpolate", help="interpolate between two frames")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--max-steps", type=int, default=10)
    p.add_argument("--stop-thresh", type=float, default=10.0 / 255.0)

    p = sub.add_parser("analyze", help="fit Gabors and emit unit statistics")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("eval", help="endpoint error of predicted fields")
    common(p)
    p.add_argument("--data", required=True, help="ground-truth dataset directory")
    p.add_argument("--pred", help="directory of predicted field files")
    p.add_argument("--zero-predictor", action="store_true", help="score the zero-field baseline")
    _key_flag(p, "--margin", "infer.margin", type=int)

    p = sub.add_parser("filters", help="render filters moved by a displacement path")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--delta-path", default="0,0;1,0;2,0", help='e.g. "0,0;0.5,0;1,0"')

    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "gen-objects": cmd_gen_objects,
    "train": cmd_train,
    "train-unsup": cmd_train_unsup,
    "infer": cmd_infer,
    "animate": cmd_animate,
    "interpolate": cmd_interpolate,
    "analyze": cmd_analyze,
    "eval": cmd_eval,
    "filters": cmd_filters,
}


def _collect_overrides(args) -> dict:
    """The config keys set by the flags given; ``--range`` sets two."""
    over: dict = {}
    for dest, value in vars(args).items():
        if dest.startswith(_KEY) and value is not None:
            section, _, key = dest[len(_KEY) :].rpartition(".")
            (over.setdefault(section, {}) if section else over)[key] = value
    if getattr(args, "range", None) is not None:
        over["deform"] = {"lo": -args.range, "hi": args.range}
    return over


def run(args) -> int:
    config = default_config()
    if args.desk_scale:
        _merge_config(config, DESK_SCALE)
    if args.config is not None:
        p = Path(args.config)
        if not p.exists():
            raise FileNotFoundError(f"config file {p} not found")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _merge_config(config, user)
    _merge_config(config, _collect_overrides(args))
    settings = _build_settings(config)

    # validate inputs before any work
    for attr in ("data", "checkpoint", "start", "end", "frames"):
        value = getattr(args, attr, None)
        if value is not None and not Path(value).exists():
            raise FileNotFoundError(f"--{attr} path {value} not found")
    if getattr(args, "pair", None):
        for f in args.pair:
            if not Path(f).exists():
                raise FileNotFoundError(f"pair image {f} not found")
    if getattr(args, "field", None):
        for f in args.field:
            if not Path(f).exists():
                raise FileNotFoundError(f"field file {f} not found")

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {out} is not a directory: it or a parent is an existing file") from None
    started = time.time()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    metrics = COMMANDS[args.command](args, config, settings)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    timings = {
        "wall_seconds": round(time.time() - started, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # the process's peak so far
        "minor_faults": usage.ru_minflt - faults,  # this command's own
    }
    write_summary(out, args.command, config, metrics, timings, [p.name for p in out.iterdir()])
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except DataFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PatchflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())

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
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen, evalviz, gabor, inference, training
from .core import DisplacementField, GridSpec, lattice_axes
from .errors import (
    ConfigError,
    DataFormatError,
    GridLookupError,
    NumericError,
    PatchflowError,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

SCHEMA_VERSION = 1


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
        "train": _defaults(training.TrainConfig, "rng_seed"),
        "deform": _defaults(datagen.DeformSpec, "seed"),
        "scene": _defaults(datagen.AffineSceneSpec, "seed"),
        "infer": _defaults(inference.InferConfig, "rng_seed"),
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
    """Raise ConfigError for a merged value whose type is not its default's, or for a
    float that is not finite (JSON's NaN and Infinity, or a literal like 1e400)."""
    for key, value in config.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            _check_types(defaults[key], value, where)
            continue
        if not _same_kind(defaults[key], value):
            raise ConfigError(
                f"config key {where!r} must have type {type(defaults[key]).__name__} "
                f"(like {json.dumps(defaults[key])}), got {json.dumps(value)}"
            )
        floats = [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, float)]
        if not all(map(math.isfinite, floats)):
            raise ConfigError(f"config key {where!r} must be finite, got {json.dumps(value)}")


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


def _build_settings(config: dict) -> dict:
    """The settings objects of a merged config, one per section.

    Building them checks every value before any work; a value whose type
    is not its default's, or that a settings class rejects, raises
    ConfigError naming its section.
    """
    _check_types(default_config(), config)
    seed = config["seed"]

    def build(section, cls, **fixed):
        try:
            return cls(**{**config[section], **fixed})
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    if config["threads"] < 1:
        raise ConfigError(f"threads must be at least 1, got {config['threads']}")
    for key in ("pairs", "synthetic_sources", "image_size"):
        if config["datagen"][key] < 1:
            raise ConfigError(f"datagen.{key} must be at least 1, got {config['datagen'][key]}")
    train = build("train", training.TrainConfig, rng_seed=seed)
    unsup_train = dataclasses.replace(train, motion_variant="parametric")
    return {
        "train": train,
        "unsupervised": build("unsupervised", training.UnsupervisedConfig, train=unsup_train),
        "infer": build("infer", inference.InferConfig, rng_seed=seed),
        "deform": build("deform", datagen.DeformSpec, seed=seed),
        "scene": build("scene", datagen.AffineSceneSpec, fg_size=tuple(config["scene"]["fg_size"]), seed=seed),
    }


def _load_sources(args, config, min_side: int = 1) -> list[np.ndarray]:
    """The ``--sources`` images, or the config's synthetic textures; a source image
    smaller than ``min_side`` pixels on a side raises DataFormatError."""
    if args.sources is not None:
        src_dir = Path(args.sources)
        if not src_dir.is_dir():
            raise FileNotFoundError(f"source directory {src_dir} not found")
        files = sorted(src_dir.glob("*.pgm")) + sorted(src_dir.glob("*.ppm"))
        if not files:
            raise FileNotFoundError(f"no PGM/PPM images under {src_dir}")
        images = [evalviz.load_image(f) for f in files]
        for f, img in zip(files, images):
            if min(img.shape) < min_side:
                h, w = img.shape
                raise DataFormatError(f"{f}: {w}x{h} source image, smaller than {min_side} pixels on a side")
        return images
    n = config["datagen"]["synthetic_sources"]
    size = config["datagen"]["image_size"]
    return datagen.synthetic_textures(n, (size, size), seed=config["seed"])


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args, config, settings) -> dict:
    sources = _load_sources(args, config)
    spec = settings["deform"]
    n = config["datagen"]["pairs"]
    pairs = inference.parallel_map(
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
    # a scene's foreground is at least 2 pixels on a side, and must fit in the background
    backgrounds = _load_sources(args, config, min_side=2)
    size = config["datagen"]["image_size"]
    fg_size = max(8, size // 2)
    n_fg = max(2, config["datagen"]["synthetic_sources"] // 2)
    foregrounds = datagen.synthetic_textures(n_fg, (fg_size, fg_size), seed=config["seed"] + 1)
    masks = [_disk_mask(fg_size)] * n_fg
    spec = settings["scene"]
    n = config["datagen"]["pairs"]
    pairs = inference.parallel_map(
        lambda i: datagen.scene_sample(backgrounds, foregrounds, masks, spec, i),
        range(n),
        config["threads"],
    )
    datagen.dataset_write(pairs, args.out, mode=config["datagen"]["mode"])
    return {"pairs": n}


def cmd_train(args, config, settings) -> dict:
    # the dataset's only reference goes to training, which frees the samples once their fields are sampled
    encoder, model, history = training.train_supervised(datagen.dataset_read(args.data), settings["train"])
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


def _same_size(path_a, img_a, path_b, img_b) -> None:
    """DataFormatError naming both files unless the frames ``img_a`` and ``img_b`` have one size."""
    if img_a.shape != img_b.shape:
        (ha, wa), (hb, wb) = img_a.shape, img_b.shape
        raise DataFormatError(f"frame pair dimensions differ: {path_a} is {wa}x{ha}, {path_b} is {wb}x{hb}")


def _read_sequence(files) -> list[np.ndarray]:
    """The frames of ``files``, one sequence: frames of different sizes raise DataFormatError."""
    frames = [evalviz.load_image(f) for f in files]
    for path, frame in zip(files[1:], frames[1:]):
        _same_size(files[0], frames[0], path, frame)
    return frames


def _read_sequences(frames_dir: Path) -> list[list[np.ndarray]]:
    seq_dirs = sorted(d for d in frames_dir.iterdir() if d.is_dir())
    if seq_dirs:
        seqs = []
        for d in seq_dirs:
            files = sorted(d.glob("*.pgm")) + sorted(d.glob("*.ppm"))
            if len(files) >= 2:
                seqs.append(_read_sequence(files))
        if not seqs:
            raise FileNotFoundError(f"no frame sequences with >= 2 images under {frames_dir}")
        return seqs
    files = sorted(frames_dir.glob("*.pgm")) + sorted(frames_dir.glob("*.ppm"))
    if len(files) < 2:
        raise FileNotFoundError(f"need at least two frames under {frames_dir}")
    return [_read_sequence(files)]


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


def _load_pair(path_a, path_b) -> tuple[np.ndarray, np.ndarray]:
    """The frames at ``path_a`` and ``path_b``; frames of different sizes raise DataFormatError."""
    img_a, img_b = evalviz.load_image(path_a), evalviz.load_image(path_b)
    _same_size(path_a, img_a, path_b, img_b)
    return img_a, img_b


def cmd_infer(args, config, settings) -> dict:
    icfg = settings["infer"]
    out = Path(args.out)
    pairs = [_load_pair(*args.pair)] if args.pair else None  # before the checkpoint is read
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    if pairs is None:
        # the samples, ground-truth fields included, stay held to the end: freed here, they
        # left later allocations to fault pages in again (about 2,000 more minor faults a call)
        samples = datagen.dataset_read(args.data)[: args.limit]
        pairs = [(sample.image_t, sample.image_t1) for sample in samples]
    positions, fields, stops = inference.infer_pairs(encoder, model, pairs, icfg, threads=config["threads"])
    for i, (pos, vec) in enumerate(zip(positions, fields)):
        fld = DisplacementField(pos, vec)
        inference.write_field(out / f"field_{i:05d}.v1fd", fld)
        if args.text:
            inference.write_field_text(out / f"field_{i:05d}.txt", fld)
        if args.color:
            ny, nx = map(len, lattice_axes(pos))
            rgb = evalviz.flow_to_color(vec.reshape(ny, nx, 2))
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
    img_a, img_b = _load_pair(args.start, args.end)
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
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
        grid = GridSpec(config["train"]["patch_size"], config["train"]["stride"])
        index = list(range(len(pairs)))
        fields = []
        for p in pairs:
            pos = grid.positions(*p.image_t.shape)
            fields.append(DisplacementField(pos, np.zeros((len(pos), 2))))
    else:
        pred_dir = Path(args.pred)
        files = {}  # each field file scores against the sample that its name field_NNNNN.v1fd indexes
        for f in pred_dir.glob("field_*.v1fd"):
            stem = f.name[len("field_") : -len(".v1fd")]
            i = int(stem) if stem.isascii() and stem.isdigit() else -1
            if f.name != f"field_{i:05d}.v1fd" or i >= len(pairs):
                raise DataFormatError(f"{f}: not field_NNNNN.v1fd of a sample NNNNN of {args.data}, which holds {len(pairs)}")
            files[i] = f
        if not files:
            raise FileNotFoundError(f"no field files under {pred_dir}")
        index = sorted(files)
        fields = [inference.read_field(files[i]) for i in index]
        pairs = [pairs[i] for i in index]
    reports = [
        evalviz.epe(fld, pair.field, margin=margin) for fld, pair in zip(fields, pairs)
    ]
    all_errors = np.concatenate([r.errors for r in reports])
    pooled = float(all_errors.mean())
    per_image = [r.mean_epe for r in reports]
    out = Path(args.out)
    with open(out / "epe.csv", "w") as fh:
        fh.write("pair,count,mean_epe\n")
        for i, r in zip(index, reports):
            fh.write(f"{i},{r.count},{r.mean_epe:.9g}\n")
        fh.write(f"pooled,{len(all_errors)},{pooled:.9g}\n")
        fh.write(f"mean_of_means,{len(reports)},{float(np.mean(per_image)):.9g}\n")
    return {
        "pairs": len(reports),
        "epe_pooled": pooled,
        "epe_mean_of_means": float(np.mean(per_image)),
    }


def _delta_path(text: str) -> np.ndarray:
    """The (n, 2) displacements of a ``--delta-path`` value."""
    try:
        deltas = np.array([t.split(",") for t in text.split(";")], dtype=np.float64)
    except ValueError:  # a value that is not a number, or a ragged path
        deltas = np.empty((0, 0))
    if deltas.shape[1:] != (2,) or not np.all(np.isfinite(deltas)):
        raise ConfigError(f"--delta-path {text!r} is not finite 'd_row,d_col' pairs joined by ';'")
    return deltas


def cmd_filters(args, config, settings) -> dict:
    deltas = _delta_path(args.delta_path)
    encoder, model, _ = training.load_checkpoint(args.checkpoint)
    if not 0 <= args.block < encoder.num_blocks:
        raise ConfigError(f"--block must be in [0, {encoder.num_blocks}), got {args.block}")
    for delta in deltas if model.grid is not None else ():  # a table's candidates only
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


def _check_flags(args, config) -> None:
    """Refuse flag values that a command cannot run with, before any work."""
    if args.command == "gen-objects" and config["datagen"]["image_size"] < 2:
        # a scene's foreground is at least 2 pixels on a side, and must fit in the frame
        raise ConfigError(f"gen-objects needs datagen.image_size of at least 2, got {config['datagen']['image_size']}")
    if getattr(args, "limit", None) is not None and args.limit < 1:
        raise ConfigError(f"--limit must be at least 1, got {args.limit}")
    if getattr(args, "max_steps", 0) < 0:
        raise ConfigError(f"--max-steps must be at least 0, got {args.max_steps}")
    stop_thresh = getattr(args, "stop_thresh", 0.0)
    if not (np.isfinite(stop_thresh) and stop_thresh >= 0):
        raise ConfigError(f"--stop-thresh must be finite and at least 0, got {args.stop_thresh}")
    if args.command == "filters":
        _delta_path(args.delta_path)
    if args.command == "infer" and args.pair is None and args.data is None:
        raise ConfigError("infer needs --data or --pair")
    if args.command == "eval" and args.pred is None and not args.zero_predictor:
        raise ConfigError("eval needs --pred or --zero-predictor")


def _remove_empty(dirs) -> None:
    """Remove the directories ``dirs``, deepest first, up to the first that is not empty: a
    failed command leaves no empty --out that it made."""
    for d in dirs:
        try:
            d.rmdir()
        except OSError:  # not empty, or gone
            return


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
    _check_flags(args, config)

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
    made = list(itertools.takewhile(lambda d: not d.exists(), [out, *out.parents]))  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {out} is not a directory: it or a parent is an existing file") from None
    started = time.time()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        metrics = COMMANDS[args.command](args, config, settings)
    except BaseException:
        _remove_empty(made)
        raise
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

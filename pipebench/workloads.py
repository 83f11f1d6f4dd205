"""The benchmark workloads: inputs, timed pipeline stages, checks.

A workload is built from the benchmark seed and a scale.  Its inputs come
from the seed and the round index only: round ``r`` of seed ``n`` draws fresh
inputs from ``base = ROUND_SEEDS * n + r``, with generator seed ``4*base`` for
the training-side data and ``4*base + 2`` for the held-out data (a scene
generator also uses seed + 1 for its foregrounds).  Each run therefore
averages the data-dependent work (descent iterations) over as many input
draws as it has rounds.  The program's own seed (weight init, batch sampling)
is held at ``MODEL_SEED`` for every command, so that seeds vary the data and
not the model's starting point.  Every command runs with
``--threads 1`` and the desk-scale preset (K=10, d=2, p=16, stride 8,
64x64, batch 32).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import checks

MODEL_SEED = 0
ROUND_SEEDS = 1000  # input draws per benchmark seed; a run has far fewer rounds
EVAL_MARGIN = 8  # the program's default infer.margin, used by eval
INTERP_MAX_STEPS = 10
INTERP_STOP = 10.0 / 255.0

# sizes per workload; "smoke" runs every stage and check in a few seconds
SIZES = {
    "desk": {
        "common": {"image": 64, "blocks": 10},
        "deform-mixed": {"train_pairs": 64, "held_pairs": 32, "steps": 8},
        "scenes-unsup": {
            "scene_pairs": 32,
            "held_pairs": 12,
            "init_pairs": 32,
            "init_steps": 20,
            "steps_per_round": 5,
            "rounds": 2,
            "infer_iters": 20,
        },
    },
    "smoke": {
        "common": {"image": 48, "blocks": 2},
        "deform-mixed": {"train_pairs": 4, "held_pairs": 2, "steps": 2},
        "scenes-unsup": {
            "scene_pairs": 2,
            "held_pairs": 2,
            "init_pairs": 4,
            "init_steps": 2,
            "steps_per_round": 1,
            "rounds": 1,
            "infer_iters": 5,
        },
    },
}


@dataclass(frozen=True)
class Stage:
    name: str
    argv: list


class Workload:
    """Base: directories, the shared config file and the common flags."""

    name = ""
    train_stage = "train"
    smoothness_weight = 0.0

    def __init__(self, seed: int, scale: str, work: Path):
        self.seed = seed
        self.round = 0  # selects the round's input draw; set before each round
        self.sizes = {**SIZES[scale]["common"], **SIZES[scale][self.name]}
        self.work = work
        self.cfg = work / "config.json"
        self.train_data = work / "train_data"
        self.held_data = work / "held_data"
        self.model_dir = work / "model"
        self.ckpt = self.model_dir / "model.ckpt"
        self.pred = work / "pred"
        self.eval_dir = work / "eval"
        self.anim = work / "animate"
        self.analyze_dir = work / "analyze"

    def flags(self, command: str, *argv) -> list[str]:
        """``patchflow`` argv: the command, its arguments, then the pinned flags."""
        out = [command, *map(str, argv), "--desk-scale", "--threads", "1", "--config", str(self.cfg)]
        if command.startswith("gen-"):
            out += ["--size", str(self.sizes["image"])]
        return out

    def data_seeds(self) -> tuple[int, int]:
        """Generator seeds of this round's training-side and held-out data."""
        base = ROUND_SEEDS * self.seed + self.round
        return 4 * base, 4 * base + 2

    def config(self) -> dict:
        return {
            "train": {"num_blocks": self.sizes["blocks"]},
            "infer": {"init": "zeros", "smoothness_weight": self.smoothness_weight},
        }

    def write_config(self) -> None:
        self.cfg.write_text(json.dumps(self.config(), indent=1, sort_keys=True))

    def animate_stage(self, start) -> Stage:
        """Roll ``start`` forward through every inferred field, one frame each."""
        fields = []
        for i in range(self.sizes["held_pairs"]):
            fields += ["--field", self.pred / f"field_{i:05d}.v1fd"]
        return Stage(
            "animate",
            self.flags("animate", "--checkpoint", self.ckpt, "--start", start, *fields, "--out", self.anim),
        )

    def analyze_command(self) -> list:
        """``analyze`` of the last round's checkpoint; run once, after timing."""
        return self.flags("analyze", "--checkpoint", self.ckpt, "--out", self.analyze_dir)

    # -- per-round metrics -------------------------------------------------

    def round_metrics(self, times: dict) -> dict:
        """End-to-end metrics of one round from its stage times and outputs."""
        return {
            "pipeline_s": sum(times.values()),
            "train_steps_per_s": self.train_steps() / times[self.train_stage],
            "infer_pairs_per_s": self.sizes["held_pairs"] / times["infer"],
            "epe_px": checks.summary_metrics(self.eval_dir)["epe_pooled"],
        }


class DeformMixed(Workload):
    """Smooth-deformation train and held-out sets, mixed table model: patch
    gather/encode over the 25-offset support, table scatter and Adam, grid
    scoring and overlap-add decode; no descent."""

    name = "deform-mixed"

    def setup_commands(self) -> list:
        s = self.sizes
        train_seed, held_seed = self.data_seeds()
        return [
            self.flags("gen-data", "--out", self.train_data, "--pairs", s["train_pairs"], "--seed", train_seed),
            self.flags("gen-data", "--out", self.held_data, "--pairs", s["held_pairs"], "--seed", held_seed),
        ]

    def prepare(self) -> None:
        """Write the first held-out pair as PGM frames for animate/interpolate."""
        _, pairs = checks.read_dataset(self.held_data)
        checks.write_pgm(self.work / "start.pgm", pairs[0][0])
        checks.write_pgm(self.work / "end.pgm", pairs[0][1])

    def train_steps(self) -> int:
        return self.sizes["steps"]

    def stages(self) -> list:
        start, end = self.work / "start.pgm", self.work / "end.pgm"
        return [
            Stage(
                "train",
                self.flags(
                    "train", "--data", self.train_data, "--out", self.model_dir, "--variant", "mixed",
                    "--steps", self.sizes["steps"], "--seed", MODEL_SEED,
                ),
            ),
            Stage(
                "infer",
                self.flags(
                    "infer", "--checkpoint", self.ckpt, "--data", self.held_data, "--out", self.pred,
                    "--seed", MODEL_SEED, "--color",
                ),
            ),
            Stage("eval", self.flags("eval", "--data", self.held_data, "--pred", self.pred, "--out", self.eval_dir)),
            self.animate_stage(start),
            Stage(
                "interpolate",
                self.flags(
                    "interpolate", "--checkpoint", self.ckpt, "--start", start, "--end", end,
                    "--max-steps", INTERP_MAX_STEPS, "--stop-thresh", repr(INTERP_STOP),
                    "--out", self.work / "interpolate",
                ),
            ),
        ]

    def final_loss(self) -> float:
        lines = (self.model_dir / "loss_history.csv").read_text().split()
        return float(lines[-1].split(",")[1])

    def checks(self) -> list:
        start, end = self.work / "start.pgm", self.work / "end.pgm"
        return [
            ("train_pairs_warp", lambda: checks.check_pairs_warp(self.train_data)),
            ("held_pairs_warp", lambda: checks.check_pairs_warp(self.held_data)),
            ("epe", lambda: checks.check_epe(self.held_data, self.pred, self.eval_dir, EVAL_MARGIN)),
            ("grid_argmin", lambda: checks.check_grid_argmin(self.held_data, self.pred, self.ckpt)),
            (
                "animate_first_frame",
                lambda: checks.check_animate(start, self.pred / "field_00000.v1fd", self.anim / "frame_00000.pgm", self.ckpt),
            ),
            (
                "interpolate_stop_rule",
                lambda: checks.check_interpolate(
                    start, end, self.work / "interpolate", self.ckpt, INTERP_MAX_STEPS, INTERP_STOP, EVAL_MARGIN
                ),
            ),
            ("gabor_r2", lambda: checks.check_gabor_r2(self.analyze_dir, self.ckpt)),
        ]


class ScenesUnsup(Workload):
    """Layered affine scenes as two-frame PGM sequences, three-stage
    unsupervised training (supervised parametric init, then descent with zero
    and warm starts, smoothness and margin 0), then cold-start descent on
    held-out scenes; no table."""

    name = "scenes-unsup"
    train_stage = "train-unsup"
    smoothness_weight = 0.05

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.frames = work / "frames"

    def config(self) -> dict:
        s = self.sizes
        cfg = super().config()
        cfg["datagen"] = {"mode": "pgm"}
        cfg["unsupervised"] = {
            "init_pairs": s["init_pairs"],
            "init_steps": s["init_steps"],
            "steps_per_round": s["steps_per_round"],
            "rounds": s["rounds"],
            "infer_iters": s["infer_iters"],
            # 0 runs every round, so the work per run does not depend on the data
            "field_tol": 0.0,
            "smoothness_weight": self.smoothness_weight,
        }
        return cfg

    def setup_commands(self) -> list:
        s = self.sizes
        train_seed, held_seed = self.data_seeds()
        return [
            self.flags("gen-objects", "--out", self.train_data, "--pairs", s["scene_pairs"], "--seed", train_seed),
            self.flags("gen-objects", "--out", self.held_data, "--pairs", s["held_pairs"], "--seed", held_seed),
        ]

    def prepare(self) -> None:
        """One directory of two PGM frames per scene pair, in pair order."""
        for i in range(self.sizes["scene_pairs"]):
            seq = self.frames / f"seq_{i:05d}"
            seq.mkdir(parents=True)
            for t in (0, 1):
                shutil.copyfile(self.train_data / f"sample_{i:05d}_t{t}.pgm", seq / f"frame_{t}.pgm")

    def train_steps(self) -> int:
        s = self.sizes
        return s["init_steps"] + s["rounds"] * s["steps_per_round"]

    def stages(self) -> list:
        start = self.held_data / "sample_00000_t0.pgm"
        return [
            Stage(
                "train-unsup",
                self.flags("train-unsup", "--frames", self.frames, "--out", self.model_dir, "--seed", MODEL_SEED),
            ),
            Stage("eval", self.flags("eval", "--data", self.train_data, "--pred", self.model_dir, "--out", self.eval_dir)),
            Stage(
                "infer",
                self.flags(
                    "infer", "--checkpoint", self.ckpt, "--data", self.held_data, "--out", self.pred,
                    "--seed", MODEL_SEED,
                ),
            ),
            self.animate_stage(start),
        ]

    def final_loss(self) -> float:
        return float(checks.summary_metrics(self.model_dir)["objectives"][-1])

    def checks(self) -> list:
        start = self.held_data / "sample_00000_t0.pgm"
        return [
            ("scene_pairs_warp", lambda: checks.check_pairs_warp(self.train_data)),
            ("held_pairs_warp", lambda: checks.check_pairs_warp(self.held_data)),
            ("unsup_rounds", self.check_rounds),
            ("epe", lambda: checks.check_epe(self.train_data, self.model_dir, self.eval_dir, EVAL_MARGIN)),
            (
                "descent_objective",
                lambda: checks.check_descent(self.held_data, self.pred, self.ckpt, self.smoothness_weight),
            ),
            (
                "animate_first_frame",
                lambda: checks.check_animate(start, self.pred / "field_00000.v1fd", self.anim / "frame_00000.pgm", self.ckpt),
            ),
            ("gabor_r2", lambda: checks.check_gabor_r2(self.analyze_dir, self.ckpt)),
        ]

    def check_rounds(self) -> dict:
        """Every alternation round ran, so train_steps() is the step count."""
        ran = checks.summary_metrics(self.model_dir)["rounds_run"]
        if ran != self.sizes["rounds"]:
            raise checks.CheckFailed(f"train-unsup ran {ran} rounds, configured {self.sizes['rounds']}")
        return {"rounds_run": ran}


WORKLOADS = {w.name: w for w in (DeformMixed, ScenesUnsup)}

"""Metric names and units, and the per-layer metrics of a traced run.

The per-layer metrics are layer times (see ``spans``) and call counts at the
public functions of each patchflow module.  A layer a workload never calls
reports 0: for example ``inference.descent_ms_per_pair`` on deform-mixed.
"""

from __future__ import annotations

import statistics

# name -> (unit, how a run combines its rounds); every workload reports all.
# "mean" is the mean over rounds; "rate" is total work over total stage time
# across the rounds, i.e. the harmonic mean of the per-round rates; "median"
# is the median over rounds; "run" is measured once per run.  Timings pool
# every round: the host runs the same stage on the same inputs up to 1.8
# times slower from one round to the next, and neither the fastest round nor
# the median round was steadier than the pooled figure in every set of runs
# (README).
END_TO_END = {
    "setup_s": ("s", "run"),
    "pipeline_s": ("s", "mean"),
    "train_steps_per_s": ("steps/s", "rate"),
    "infer_pairs_per_s": ("pairs/s", "rate"),
    "epe_px": ("px", "median"),
    "gabor_r2_mean": ("1", "run"),
    "peak_rss_mb": ("MB", "run"),
}


def combine_rounds(rounds: list) -> dict:
    """End-to-end values of a run from its per-round metrics."""
    out = {}
    for name, (_, how) in END_TO_END.items():
        if how == "run":
            continue
        values = [r["metrics"][name] for r in rounds]
        if how == "rate":
            out[name] = len(values) / sum(1.0 / v for v in values)
        else:
            out[name] = {"mean": statistics.mean, "median": statistics.median}[how](values)
    return out


NETPBM = ("evalviz.load_image", "evalviz.read_pgm", "evalviz.read_ppm", "evalviz.write_pgm", "evalviz.write_ppm")

# name -> (unit, how, functions).  how: "per_call" and "per_unit" give layer
# milliseconds per call or per work unit (pair, frame), "per_round" layer
# milliseconds per round, "calls" calls per round.
PER_LAYER = {
    "datagen.sample_ms_per_pair": ("ms", "per_call", ("datagen.deform_sample", "datagen.scene_sample")),
    "datagen.write_ms_per_pair": ("ms", "per_unit", ("datagen.dataset_write",)),
    "datagen.read_ms_per_pair": ("ms", "per_unit", ("datagen.dataset_read",)),
    "core.encode_ms_per_call": ("ms", "per_call", ("core.encode",)),
    "core.encode_calls": ("count", "calls", ("core.encode",)),
    "core.offset_encodings_ms_per_call": ("ms", "per_call", ("core.offset_encodings",)),
    "core.decode_ms_per_call": ("ms", "per_call", ("core.decode",)),
    "core.decode_calls": ("count", "calls", ("core.decode",)),
    "training.grad_ms_per_step": ("ms", "per_call", ("training.grad_total",)),
    "training.adam_ms_per_step": ("ms", "per_call", ("training.adam_step",)),
    "training.prepare_ms": ("ms", "per_call", ("training.prepare_dataset",)),
    "training.checkpoint_ms": ("ms", "per_round", ("training.save_checkpoint", "training.load_checkpoint")),
    "training.steps": ("count", "calls", ("training.adam_step",)),
    "training.final_loss": ("1", "output", ()),
    "inference.grid_ms_per_pair": ("ms", "per_call", ("inference.infer_grid",)),
    "inference.descent_ms_per_pair": ("ms", "per_call", ("inference.infer_parametric",)),
    "inference.descent_calls": ("count", "calls", ("inference.infer_parametric",)),
    "inference.animate_ms_per_frame": ("ms", "per_unit", ("inference.animate",)),
    "inference.interpolate_ms_per_frame": ("ms", "per_unit", ("inference.interpolate_frames",)),
    "inference.field_io_ms_per_field": (
        "ms",
        "per_call",
        ("inference.write_field", "inference.read_field", "inference.write_field_text"),
    ),
    "gabor.fit_ms_per_unit": ("ms", "per_call", ("gabor.fit_gabor",)),
    "gabor.stats_ms": ("ms", "per_call", ("gabor.population_stats",)),
    "evalviz.epe_ms_per_pair": ("ms", "per_call", ("evalviz.epe",)),
    "evalviz.color_ms_per_field": ("ms", "per_call", ("evalviz.flow_to_color",)),
    "evalviz.netpbm_ms_per_image": ("ms", "per_call", NETPBM),
    "cli.overhead_ms_per_command": ("ms", "per_call", ("cli.main",)),
}


def per_layer(recorder, rounds: int, final_loss: float) -> dict:
    """Per-layer metric values of a traced run of ``rounds`` rounds."""
    out = {}
    for name, (_, how, functions) in PER_LAYER.items():
        if how == "output":
            out[name] = final_loss
            continue
        seconds, calls, units = recorder.aggregate(functions)
        if how == "calls":
            out[name] = calls / rounds
        elif how == "per_round":
            out[name] = 1e3 * seconds / rounds
        else:
            n = calls if how == "per_call" else units
            out[name] = 1e3 * seconds / n if n else 0.0
    return out

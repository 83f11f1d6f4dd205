"""Command-line pipeline tests: composition, determinism, exit codes."""

import json

import numpy as np
import pytest

from patchflow.cli import (
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_UNEXPECTED,
    main,
)
from patchflow.core import (
    DisplacementGrid,
    Encoder,
    GridSpec,
    MixedMotion,
    ParametricMotion,
    support_offsets,
)
from patchflow.datagen import synthetic_textures, warp
from patchflow.evalviz import write_pgm
from patchflow.inference import read_field
from patchflow.training import save_checkpoint

from matrix_form import ZeroSupportTable, descent_alone, grid_alone


def run_cli(*argv):
    return main([str(a) for a in argv])


def dataset_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.suffix == ".v1ds"}


class TestPipelines:
    def test_zero_range_gen_then_zero_predictor_eval(self, tmp_path):
        ds = tmp_path / "ds"
        code = run_cli("gen-data", "--out", ds, "--pairs", 3, "--size", 48, "--range", 0, "--seed", 1)
        assert code == EXIT_OK
        ev = tmp_path / "ev"
        code = run_cli("eval", "--data", ds, "--zero-predictor", "--out", ev)
        assert code == EXIT_OK
        metrics = json.loads((ev / "run_summary.json").read_text())["metrics"]
        assert metrics["epe_pooled"] == 0.0

    def test_train_twice_byte_identical_checkpoints(self, tmp_path):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 4, "--size", 48, "--seed", 2)
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = run_cli(
                "train", "--data", ds, "--out", out, "--variant", "parametric",
                "--steps", 8, "--blocks", 3, "--batch-size", 2, "--seed", 7,
            )
            assert code == EXIT_OK
            outs.append((out / "model.ckpt").read_bytes())
        assert outs[0] == outs[1]
        extra = json.loads(outs[0].split(b"\n", 1)[0])["extra"]
        assert extra["seed"] == 7 and "rng_seed" not in extra["train"]  # the seed the run used, once

    def test_infer_eval_roundtrip(self, tmp_path):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 3, "--size", 48, "--range", 2, "--seed", 3)
        run_dir = tmp_path / "run"
        run_cli(
            "train", "--data", ds, "--out", run_dir, "--variant", "nonparametric",
            "--steps", 10, "--blocks", 3, "--batch-size", 3, "--seed", 3,
        )
        pred = tmp_path / "pred"
        code = run_cli(
            "infer", "--checkpoint", run_dir / "model.ckpt", "--data", ds,
            "--out", pred, "--text",
        )
        assert code == EXIT_OK
        assert (pred / "field_00002.v1fd").exists()
        assert (pred / "field_00000.txt").exists()
        ev = tmp_path / "ev"
        code = run_cli("eval", "--data", ds, "--pred", pred, "--out", ev)
        assert code == EXIT_OK
        lines = (ev / "epe.csv").read_text().strip().splitlines()
        assert lines[0] == "pair,count,mean_epe"
        assert any(l.startswith("pooled,") for l in lines)
        assert any(l.startswith("mean_of_means,") for l in lines)

    def test_threads_do_not_change_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--out", a, "--pairs", 6, "--size", 32, "--seed", 5, "--threads", 1)
        run_cli("gen-data", "--out", b, "--pairs", 6, "--size", 32, "--seed", 5, "--threads", 4)
        assert dataset_bytes(a) == dataset_bytes(b)

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "datagen": {"pairs": 2, "image_size": 32}}))
        ds = tmp_path / "ds"
        code = run_cli("gen-data", "--config", cfg, "--out", ds, "--pairs", 3)
        assert code == EXIT_OK
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["count"] == 3  # flag wins over config
        summary = json.loads((ds / "run_summary.json").read_text())
        assert summary["seed"] == 9
        assert "config_hash" in summary

    def test_summary_schema(self, tmp_path):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 32, "--seed", 0)
        summary = json.loads((ds / "run_summary.json").read_text())
        for key in ("schema_version", "command", "config", "config_hash", "metrics", "timings", "artifacts"):
            assert key in summary
        assert summary["command"] == "gen-data"

    def test_train_unsup_on_two_frame_sizes(self, tmp_path):
        frames = tmp_path / "frames"
        for name, size, shift in (("seq0", 64, 0.8), ("seq1", 48, -0.6)):
            img = synthetic_textures(1, (size, size), seed=size)[0]
            (frames / name).mkdir(parents=True)
            write_pgm(frames / name / "f0.pgm", img)
            write_pgm(frames / name / "f1.pgm", warp(img, np.full((size, size, 2), shift)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train": {"num_blocks": 2, "batch_size": 4},
            "unsupervised": {"init_pairs": 6, "steps_per_round": 2, "rounds": 1, "infer_iters": 3},
        }))
        out = tmp_path / "run"
        code = run_cli("train-unsup", "--frames", frames, "--out", out, "--steps", 2, "--config", cfg)
        assert code == EXIT_OK
        for i, size in enumerate((64, 48)):
            field = read_field(out / f"field_{i:05d}.v1fd")
            assert np.array_equal(field.positions, GridSpec(16, 8).positions(size, size))

    def test_infer_summary_reports_descent_stops(self, tmp_path):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 3, "--size", 48, "--range", 2, "--seed", 4)
        run_dir = tmp_path / "run"
        run_cli(
            "train", "--data", ds, "--out", run_dir, "--variant", "parametric",
            "--steps", 4, "--blocks", 3, "--batch-size", 2, "--seed", 4,
        )
        pred = tmp_path / "pred"
        code = run_cli("infer", "--checkpoint", run_dir / "model.ckpt", "--data", ds, "--out", pred)
        assert code == EXIT_OK
        descent = json.loads((pred / "run_summary.json").read_text())["metrics"]["descent"]
        assert set(descent) == {"stops", "iters_median", "iters_max"}
        assert set(descent["stops"]) == {"tol", "cap", "no_descent"}
        assert sum(descent["stops"].values()) == 3
        assert 0 <= descent["iters_median"] <= descent["iters_max"]


    def test_parametric_infer_is_each_pairs_own_descent_at_any_thread_count(self, tmp_path, monkeypatch):
        from patchflow import inference
        from patchflow.datagen import dataset_read
        from patchflow.inference import InferConfig, descent_summary
        from patchflow.training import load_checkpoint

        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 5, "--size", 48, "--range", 2, "--seed", 6)
        ckpt = tmp_path / "m.ckpt"
        rng = np.random.default_rng(6)
        save_checkpoint(ckpt, Encoder.random(3, 2, 8, 4, rng=rng), ParametricMotion(0.05 * rng.standard_normal((5, 3, 2, 2))))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"infer": {"init": "zeros", "smoothness_weight": 0.05}}))
        runs = {}
        default = inference.NEWTON_STACK_BYTES
        for name, threads, budget in (("one", 1, default), ("three", 3, default), ("alone", 1, 1)):
            monkeypatch.setattr(inference, "NEWTON_STACK_BYTES", budget)  # 1 byte: every pair its own stack
            out = tmp_path / name
            assert run_cli("infer", "--checkpoint", ckpt, "--data", ds, "--out", out, "--text", "--threads", threads, "--config", cfg) == EXIT_OK
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "run_summary.json"}
            runs[name] = files, json.loads((out / "run_summary.json").read_text())["metrics"]["descent"]
        assert runs["one"] == runs["three"] == runs["alone"]
        encoder, model, _ = load_checkpoint(ckpt)
        stops = []
        for i, pair in enumerate(dataset_read(ds)):
            want, stop = descent_alone(encoder, model, pair.image_t, pair.image_t1, InferConfig(init="zeros", smoothness_weight=0.05))
            stops.append(stop)
            got = read_field(tmp_path / "three" / f"field_{i:05d}.v1fd")
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.vectors, want.vectors.astype(np.float32))
        assert runs["three"][1] == descent_summary(stops)
        assert len(runs["one"][0]) == 10 and len({it for it, _ in stops}) > 1

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_grid_infer_is_each_pairs_own_argmin_at_any_thread_count(self, tmp_path, monkeypatch, variant):
        from patchflow import inference, training
        from patchflow.datagen import dataset_read
        from patchflow.training import load_checkpoint

        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 5, "--size", 48, "--range", 2, "--seed", 6)
        ckpt = tmp_path / "m.ckpt"
        rng = np.random.default_rng(7)
        grid = DisplacementGrid(-2, 2, 0.5)
        if variant == "mixed":
            off = support_offsets(2, 2)
            model = MixedMotion(grid, off, 0.3 * rng.standard_normal((grid.num_candidates, len(off), 3, 2, 2)))
        else:
            model = ZeroSupportTable(grid, np.eye(2) + 0.3 * rng.standard_normal((grid.num_candidates, 3, 2, 2)))
        save_checkpoint(ckpt, Encoder.random(3, 2, 8, 4, rng=rng), model)
        stacks = []  # the pairs of each stack
        infer_grid_stack = inference.infer_grid_stack

        def logged(encoder, model, images_t, images_t1, config):
            stacks.append(len(images_t))
            return infer_grid_stack(encoder, model, images_t, images_t1, config)

        monkeypatch.setattr(inference, "infer_grid_stack", logged)
        runs = {}
        for name, threads, budget in (("one", 1, training.CHUNK_BYTES), ("three", 3, training.CHUNK_BYTES), ("alone", 1, 1)):
            monkeypatch.setattr(training, "CHUNK_BYTES", budget)  # 1 byte: every pair its own stack
            out = tmp_path / name
            stacks.clear()
            assert run_cli("infer", "--checkpoint", ckpt, "--data", ds, "--out", out, "--text", "--color", "--threads", threads) == EXIT_OK
            runs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "run_summary.json"}
            assert sorted(stacks) == {"one": [5], "three": [1, 2, 2], "alone": [1] * 5}[name]
            assert "descent" not in json.loads((out / "run_summary.json").read_text())["metrics"]
        assert runs["one"] == runs["three"] == runs["alone"] and len(runs["one"]) == 15
        encoder, model, _ = load_checkpoint(ckpt)
        fields = set()
        for i, pair in enumerate(dataset_read(ds)):
            want = grid_alone(encoder, model, pair.image_t, pair.image_t1)
            got = read_field(tmp_path / "three" / f"field_{i:05d}.v1fd")
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.vectors, want.vectors.astype(np.float32))
            fields.add(want.vectors.tobytes())
        assert len(fields) == 5

    def test_infer_stacks_split_by_threads_and_memory(self):
        from patchflow import inference

        members = list(range(10, 20))
        assert inference._stacks(members, 100, 300, 1) == [members[:3], members[3:6], members[6:8], members[8:]]
        assert inference._stacks(members, 100, 1000, 1) == [members]
        assert inference._stacks(members, 100, 1000, 4) == [members[:3], members[3:6], members[6:8], members[8:]]
        assert inference._stacks(members, 100, 50, 1) == [[i] for i in members]

    def test_descent_stacks_split_by_threads_and_memory(self, monkeypatch):
        from patchflow import inference

        # ten pairs of 64x64 frames on a 7x7 lattice, frame value i for pair i
        pairs = [(np.full((64, 64), float(i)),) * 2 for i in range(10)]
        encoder, model = Encoder.random(2, 2, 16, 8, rng=8), ParametricMotion.zeros(2, 2)
        stacks = []  # the pairs of each descent stack
        descend = inference.infer_parametric_stack

        def logged(encoder, model, images_t, *args):
            stacks.append(images_t[:, 0, 0].astype(int).tolist())
            return descend(encoder, model, images_t, *args)

        monkeypatch.setattr(inference, "infer_parametric_stack", logged)

        def cut(pairs, threads):
            stacks.clear()
            inference.infer_pairs(encoder, model, pairs, inference.InferConfig(margin=0), threads=threads)
            return sorted(stacks)

        members = list(range(10))
        assert cut(pairs, 1) == [members]
        assert cut(pairs, 3) == [members[:4], members[4:7], members[7:]]
        assert cut(pairs[:2], 3) == [members[:1], members[1:2]]
        monkeypatch.setattr(inference, "NEWTON_STACK_BYTES", 3 * 7 * 14**2 * 8)  # the blocks of three pairs
        assert [len(s) for s in cut(pairs, 1)] == [3, 3, 2, 2]
        monkeypatch.setattr(inference, "NEWTON_STACK_BYTES", 100)  # less than one pair's blocks
        assert cut(pairs, 2) == [[i] for i in members]

    def test_train_unsup_summary_reports_descent_stops(self, tmp_path):
        frames = tmp_path / "frames"
        for i, shift in enumerate((0.0, 0.7, -0.5)):
            img = synthetic_textures(1, (40, 40), seed=60 + i)[0]
            (frames / f"seq{i}").mkdir(parents=True)
            write_pgm(frames / f"seq{i}" / "f0.pgm", img)
            write_pgm(frames / f"seq{i}" / "f1.pgm", warp(img, np.full((40, 40, 2), shift)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train": {"num_blocks": 2, "batch_size": 3, "patch_size": 8, "stride": 8},
            "unsupervised": {"init_pairs": 4, "steps_per_round": 1, "rounds": 2, "infer_iters": 30, "field_tol": 0.0},
        }))
        out = tmp_path / "run"
        assert run_cli("train-unsup", "--frames", frames, "--out", out, "--steps", 2, "--config", cfg) == EXIT_OK
        descent = json.loads((out / "run_summary.json").read_text())["metrics"]["descent"]
        assert set(descent) == {"stage2", "rounds"} and len(descent["rounds"]) == 2
        for stage in [descent["stage2"], *descent["rounds"]]:
            assert set(stage) == {"stops", "iters_median", "iters_max"}
            assert set(stage["stops"]) == {"tol", "cap", "no_descent"}
            assert sum(stage["stops"].values()) == 3
            assert 0 <= stage["iters_median"] <= stage["iters_max"] <= 30


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "x") == EXIT_CONFIG

    def test_missing_dataset(self, tmp_path):
        code = run_cli("train", "--data", tmp_path / "nope", "--out", tmp_path / "x")
        assert code == EXIT_MISSING

    def test_corrupt_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage\nmore")
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        code = run_cli("infer", "--checkpoint", bad, "--data", ds, "--out", tmp_path / "x")
        assert code == EXIT_FORMAT

    def test_checkpoint_version_mismatch(self, tmp_path):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 48, "--seed", 1)
        run_dir = tmp_path / "run"
        run_cli(
            "train", "--data", ds, "--out", run_dir, "--variant", "parametric",
            "--steps", 2, "--blocks", 2, "--batch-size", 1, "--seed", 1,
        )
        ckpt = run_dir / "model.ckpt"
        raw = ckpt.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["version"] = 42
        ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[nl:])
        code = run_cli("infer", "--checkpoint", ckpt, "--data", ds, "--out", tmp_path / "x")
        assert code == EXIT_FORMAT

    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in (
            "gen-data", "gen-objects", "train", "train-unsup", "infer",
            "animate", "interpolate", "analyze", "eval", "filters",
        ):
            assert name in text

    def test_negative_learning_rate_is_config_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        capsys.readouterr()
        out = tmp_path / "run"
        code = run_cli("train", "--data", ds, "--out", out, "--lr", -1)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: train: learning_rate must be positive, got -1.0"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("learning_rate", 0, "learning_rate must be positive, got 0"),
            ("weight_rotation", -0.5, "weight_rotation must be non-negative, got -0.5"),
            ("weight_reconstruction", -1, "weight_reconstruction must be non-negative, got -1"),
            ("weight_norm_stability", -0.25, "weight_norm_stability must be non-negative, got -0.25"),
            ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ],
    )
    def test_refused_train_setting_names_key_and_value(self, tmp_path, capsys, key, value, message):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {key: value}}))
        capsys.readouterr()
        out = tmp_path / "run"
        assert run_cli("train", "--data", ds, "--config", cfg, "--out", out) == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: train: {message}"]
        assert not out.exists()

    def test_nonpositive_pair_count_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("gen-data", "--out", out, "--pairs", -3, "--size", 32)
        assert code == EXIT_CONFIG
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_bytes(b"kept")
        out = blocker / "ds" if under else blocker
        code = run_cli("gen-data", "--out", out, "--pairs", 2, "--size", 32)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert blocker.read_bytes() == b"kept" and sorted(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize(
        "command, override",
        [
            ("eval", {"infer": {"margin": "x"}}),
            ("train", {"train": {"batch_size": 2.5}}),
            ("train", {"train": {"num_steps": True}}),
            ("train", {"train": {"num_steps": -3}}),
            ("train", {"train": {"num_blocks": 0}}),
            ("train", {"train": {"block_dim": 0}}),
            ("eval", {"infer": {"init": "zero"}}),
            ("eval", {"infer": {"max_iters": -5}}),
            ("train", {"unsupervised": {"init_pairs": 0}}),
            ("train", {"unsupervised": {"rounds": -2}}),
            ("train", {"unsupervised": {"init_steps": -1}}),
            ("train", {"unsupervised": {"steps_per_round": -1}}),
            ("train", {"unsupervised": {"infer_iters": -1}}),
            ("train", {"train": {"patch_size": 0}}),
            ("train", {"train": {"stride": 0}}),
            ("train", {"train": {"stride": 20}}),  # larger than the 16-pixel patch
            ("train", {"datagen": {"synthetic_sources": 0}}),
            ("train", {"datagen": {"image_size": 0}}),
            # candidate grids that `DisplacementGrid` refuses
            ("train", {"train": {"delta_step": -1}}),
            ("train", {"train": {"delta_lo": 6}}),
            ("train", {"train": {"delta_step": 0.7}}),
            ("eval", {"infer": {"smoothness_weight": -1}}),
            ("train", {"unsupervised": {"smoothness_weight": -0.5}}),
            # floats that are not finite, as the config file's text
            ("train", '{"train": {"learning_rate": NaN}}'),
            ("train", '{"train": {"weight_reconstruction": Infinity}}'),
            ("train", '{"train": {"learning_rate": 1e400}}'),
            ("eval", '{"infer": {"smoothness_weight": NaN}}'),
            ("eval", '{"scene": {"fg_size": [0.3, -Infinity]}}'),
            # values that a settings class refuses; the message names the section
            ("train", {"train": {"learning_rate": -1}}),
            ("train", {"unsupervised": {"smoothness_weight": -1}}),
            # the run's seed is the top-level `seed`: no train key stands beside it
            ("train", {"train": {"rng_seed": 5}}),
        ],
    )
    def test_wrong_config_type_is_config_error(self, tmp_path, capsys, command, override):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(override if isinstance(override, str) else json.dumps(override))
        capsys.readouterr()
        out = tmp_path / "run"
        extra = ["--zero-predictor"] if command == "eval" else []
        code = run_cli(command, "--data", ds, "--config", cfg, "--out", out, *extra)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        section = next(iter(json.loads(override) if isinstance(override, str) else override))
        assert err[0].startswith((f"config error: {section}: ", f"config error: {section}.")) or f"'{section}." in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "support",
        [
            {"support_radius": 3},  # offsets -3, -1, 1, 3 at step 2: no zero offset
            {"support_step": 0},
            {"support_radius": -2},
        ],
    )
    def test_mixed_support_without_zero_offset_is_config_error(self, tmp_path, capsys, support):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": support}))
        capsys.readouterr()
        out = tmp_path / "run"
        code = run_cli("train", "--data", ds, "--config", cfg, "--out", out, "--variant", "mixed", "--steps", 1)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()

    def test_int_config_value_stands_for_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deform": {"lo": -2, "hi": 2}, "train": {"learning_rate": 1}}))
        code = run_cli("gen-data", "--out", tmp_path / "ds", "--pairs", 1, "--size", 32, "--config", cfg)
        assert code == EXIT_OK

    def test_data_outside_candidate_grid_is_format_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 48, "--range", 8, "--seed", 1)
        capsys.readouterr()
        out = tmp_path / "run"
        code = run_cli("train", "--data", ds, "--out", out, "--steps", 2, "--blocks", 2)
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")
        assert "[-6, 6]" in err[0]  # the grid's range next to the data's
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_command_leaves_no_empty_out(self, tmp_path, capsys, existing):
        # the fields reach past the mixed model's candidate grid, which training finds after
        # --out is made: an --out that the command made goes, with the parents it made, and
        # one that was there before stays
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 48, "--range", 8, "--seed", 1)
        out = tmp_path / "runs" / "mixed"
        if existing:
            out.mkdir(parents=True)
        capsys.readouterr()
        code = run_cli("train", "--data", ds, "--variant", "mixed", "--out", out, "--steps", 1, "--blocks", 2)
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "outside the candidate grid" in err[0]
        assert out.is_dir() == existing and (tmp_path / "runs").exists() == existing
        assert not existing or not any(out.iterdir())

    def test_interpolate_parametric_checkpoint(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 48, "--seed", 1)
        run_dir = tmp_path / "run"
        run_cli(
            "train", "--data", ds, "--out", run_dir, "--variant", "parametric",
            "--steps", 2, "--blocks", 2, "--batch-size", 1, "--seed", 1,
        )
        rng = np.random.default_rng(0)
        start, end = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(start, rng.random((48, 48)))
        write_pgm(end, rng.random((48, 48)))
        capsys.readouterr()
        out = tmp_path / "interp"
        code = run_cli(
            "interpolate", "--checkpoint", run_dir / "model.ckpt",
            "--start", start, "--end", end, "--out", out,
        )
        assert code == EXIT_UNEXPECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not list(out.glob("frame_*.pgm"))

    @pytest.mark.parametrize(
        "case",
        ["header_not_object", "no_blocks", "no_encoder", "no_motion", "no_grid", "no_offsets"],
    )
    def test_incomplete_checkpoint_header_is_format_error(self, tmp_path, capsys, case):
        grid = DisplacementGrid(-1, 1, 1.0)
        model = MixedMotion.identity(grid, support_offsets(2, 2), 2, 2)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=1), model)
        raw = ckpt.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        if case == "header_not_object":
            header = [header]
        elif case in ("no_blocks", "no_encoder", "no_motion"):
            del header[case[3:]]
        else:
            del header["motion"][case[3:]]
        ckpt.write_bytes(json.dumps(header).encode() + raw[nl:])
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        capsys.readouterr()
        code = run_cli("infer", "--checkpoint", ckpt, "--data", ds, "--out", tmp_path / "x")
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")

    @pytest.mark.parametrize("size", [4, 10])
    def test_field_shorter_than_header_is_format_error(self, tmp_path, capsys, size):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=2), ParametricMotion.zeros(2, 2))
        start = tmp_path / "a.pgm"
        write_pgm(start, np.random.default_rng(3).random((32, 32)))
        field = tmp_path / "f.v1fd"
        field.write_bytes((b"V1FD" + bytes(range(1, 7)))[:size])  # the magic, then part of the header
        capsys.readouterr()
        code = run_cli(
            "animate", "--checkpoint", ckpt, "--start", start, "--field", field, "--out", tmp_path / "x",
        )
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("infer", ["--limit", 0]),
            ("infer", ["--limit", -1]),
            ("interpolate", ["--max-steps", -3]),
            ("filters", ["--block", 99]),
            ("filters", ["--block", -1]),
            ("filters", ["--delta-path", "abc"]),
            ("filters", ["--delta-path", "0,0;1,2,3"]),
        ],
    )
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, command, flags):
        ckpt = tmp_path / "m.ckpt"
        model = ZeroSupportTable.identity(DisplacementGrid(-1, 1, 1.0), 2, 2)
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=4), model)
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 3, "--size", 32, "--range", 1, "--seed", 1)
        start, end = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(start, np.random.default_rng(5).random((32, 32)))
        write_pgm(end, np.random.default_rng(6).random((32, 32)))
        inputs = {
            "infer": ["--data", ds],
            "interpolate": ["--start", start, "--end", end],
            "filters": [],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli(command, "--checkpoint", ckpt, *inputs, *flags, "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        # refused with the other flags before --out is made, or, since the range of --block is
        # the checkpoint's K, after it, when the failed command removes it
        assert not out.exists()


class TestChecksBeforeWork:
    """Mixed filters render, and bad paths and image sizes stop before any output."""

    def test_filters_renders_mixed_checkpoint(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        grid = DisplacementGrid(-2, 2, 1.0)
        off = support_offsets(2, 2)
        model = MixedMotion(grid, off, rng.standard_normal((grid.num_candidates, len(off), 2, 2, 2)))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=8), model)
        out = tmp_path / "out"
        code = run_cli("filters", "--checkpoint", ckpt, "--block", 1, "--out", out)
        assert code == EXIT_OK
        assert len(list(out.glob("filters_*.pgm"))) == 3  # the default path "0,0;1,0;2,0"

    def test_off_grid_delta_path_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        model = ZeroSupportTable.identity(DisplacementGrid(-1, 1, 0.5), 2, 2)
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=9), model)
        out = tmp_path / "out"
        code = run_cli("filters", "--checkpoint", ckpt, "--delta-path", "0,0;0.25,0", "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "(0.25, 0.0)" in err[0] and "np.float64" not in err[0]
        assert not out.exists()

    def test_eval_of_a_field_outside_the_frames_is_format_error(self, tmp_path, capsys):
        from patchflow.core import DisplacementField
        from patchflow.inference import write_field

        ds, pred = tmp_path / "ds", tmp_path / "pred"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        pred.mkdir()
        rr, cc = np.meshgrid([8, 16, 24], [48, 56, 64], indexing="ij")  # columns past the 32-pixel frames
        write_field(pred / "field_00000.v1fd", DisplacementField(np.stack([rr.ravel(), cc.ravel()], axis=1), np.zeros((9, 2))))
        capsys.readouterr()
        assert run_cli("eval", "--data", ds, "--pred", pred, "--out", tmp_path / "ev") == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:") and "32x32" in err[0]

    def test_eval_pairs_each_field_with_the_sample_its_name_indexes(self, tmp_path):
        from patchflow.core import DisplacementField
        from patchflow.inference import write_field

        ds, pred = tmp_path / "ds", tmp_path / "pred"
        run_cli("gen-data", "--out", ds, "--pairs", 3, "--size", 32, "--seed", 4)
        assert run_cli("eval", "--data", ds, "--zero-predictor", "--out", tmp_path / "zero") == EXIT_OK
        zero = (tmp_path / "zero" / "epe.csv").read_text().splitlines()
        # zero fields on the zero predictor's lattice for samples 0 and 2; field_00001 is missing
        pred.mkdir()
        pos = GridSpec(16, 8).positions(32, 32)
        for i in (0, 2):
            write_field(pred / f"field_{i:05d}.v1fd", DisplacementField(pos, np.zeros((len(pos), 2))))
        assert run_cli("eval", "--data", ds, "--pred", pred, "--out", tmp_path / "ev") == EXIT_OK
        lines = (tmp_path / "ev" / "epe.csv").read_text().splitlines()
        assert lines[1:3] == [zero[1], zero[3]] and zero[2] != zero[3]
        assert lines[1].startswith("0,") and lines[2].startswith("2,")

    @pytest.mark.parametrize("name", ["field_00003.v1fd", "field_1.v1fd", "field_000001.v1fd", "field_x.v1fd"])
    def test_eval_field_that_indexes_no_sample_is_format_error(self, tmp_path, capsys, name):
        from patchflow.core import DisplacementField
        from patchflow.inference import write_field

        ds, pred = tmp_path / "ds", tmp_path / "pred"
        run_cli("gen-data", "--out", ds, "--pairs", 3, "--size", 32, "--seed", 4)
        pred.mkdir()
        pos = GridSpec(16, 8).positions(32, 32)
        for file in ("field_00000.v1fd", name):
            write_field(pred / file, DisplacementField(pos, np.zeros((len(pos), 2))))
        capsys.readouterr()
        out = tmp_path / "ev"
        assert run_cli("eval", "--data", ds, "--pred", pred, "--out", out) == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:") and name in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "infer", "train"])
    def test_empty_dataset_is_format_error(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        manifest = json.loads((ds / "manifest.json").read_text())
        (ds / "manifest.json").write_text(json.dumps({**manifest, "count": 0}))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=9), ZeroSupportTable.identity(DisplacementGrid(-1, 1, 1.0), 2, 2))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "eval": ["eval", "--data", ds, "--zero-predictor"],
            "infer": ["infer", "--checkpoint", ckpt, "--data", ds],
            "train": ["train", "--data", ds, "--blocks", 2, "--steps", 1],
        }[command]
        assert run_cli(*argv, "--out", out) == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:") and str(ds / "manifest.json") in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_image_smaller_than_patch_and_support_is_format_error(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 20, "--range", 1, "--seed", 1)
        ckpt = tmp_path / "m.ckpt"
        model = MixedMotion.identity(DisplacementGrid(-1, 1, 1.0), support_offsets(4, 2), 2, 2)
        save_checkpoint(ckpt, Encoder.random(2, 2, 16, 8, rng=10), model)
        capsys.readouterr()
        out = tmp_path / "out"
        if command == "train":
            code = run_cli("train", "--data", ds, "--variant", "mixed", "--blocks", 2, "--steps", 1, "--out", out)
        else:
            code = run_cli("infer", "--checkpoint", ckpt, "--data", ds, "--out", out)
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")
        assert "20x20" in err[0] and "28x28" in err[0]  # patch 16 + support 4 + the stride-8 row at 16
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("gen-objects", ["--size", 1]),
            ("infer", ["--limit", 0]),
            ("interpolate", ["--max-steps", -1]),
            ("interpolate", ["--stop-thresh", "nan"]),
            ("interpolate", ["--stop-thresh", "inf"]),
            ("interpolate", ["--stop-thresh", -0.5]),
        ],
    )
    def test_bad_flag_exits_before_out_is_made(self, tmp_path, capsys, command, flags):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=11), ZeroSupportTable.identity(DisplacementGrid(-1, 1, 1.0), 2, 2))
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--range", 1, "--seed", 1)
        start = tmp_path / "a.pgm"
        write_pgm(start, np.random.default_rng(12).random((32, 32)))
        inputs = {
            "gen-objects": ["--pairs", 2],
            "infer": ["--checkpoint", ckpt, "--data", ds],
            "interpolate": ["--checkpoint", ckpt, "--start", start, "--end", start],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out" / "nested"
        code = run_cli(command, *inputs, *flags, "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["infer", "eval"])
    @pytest.mark.parametrize("margin", [-3, 100])
    def test_margin_that_leaves_no_position_is_config_error(self, tmp_path, capsys, command, margin):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=13), ParametricMotion.zeros(2, 2))
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 32, "--range", 1, "--seed", 1)
        inputs = {"infer": ["--checkpoint", ckpt], "eval": ["--zero-predictor"]}[command]
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli(command, *inputs, "--data", ds, "--margin", margin, "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "margin" in err[0]
        if margin < 0:  # refused with the other config values, before --out is made
            assert not out.exists()
        else:  # the frame size is known once the data is read
            assert "32x32" in err[0] and not out.exists()  # the failed command removed the --out it made

    @pytest.mark.parametrize("command", ["infer", "interpolate"])
    def test_frames_of_different_sizes_are_format_error(self, tmp_path, capsys, monkeypatch, command):
        from patchflow import training

        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=14), ZeroSupportTable.identity(DisplacementGrid(-1, 1, 1.0), 2, 2))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, np.random.default_rng(15).random((64, 64)))
        write_pgm(b, np.random.default_rng(16).random((48, 64)))
        loads = []
        monkeypatch.setattr(training, "load_checkpoint", lambda path: loads.append(path))
        inputs = {"infer": ["--pair", a, b], "interpolate": ["--start", a, "--end", b]}[command]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(command, "--checkpoint", ckpt, *inputs, "--out", out) == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")
        assert "64x64" in err[0] and "64x48" in err[0]
        assert loads == [] and not out.exists()

    def test_sequence_of_different_frame_sizes_is_format_error(self, tmp_path, capsys, monkeypatch):
        from patchflow import training

        frames = tmp_path / "frames"
        rng = np.random.default_rng(17)
        for name, shapes in (("seq0", [(64, 64), (64, 64)]), ("seq1", [(64, 64), (64, 64), (48, 64)])):
            (frames / name).mkdir(parents=True)
            for i, shape in enumerate(shapes):
                write_pgm(frames / name / f"f{i}.pgm", rng.random(shape))
        trained = []
        monkeypatch.setattr(training, "train_unsupervised", lambda *args: trained.append(args))
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("train-unsup", "--frames", frames, "--out", out, "--steps", 1) == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")
        assert str(frames / "seq1" / "f0.pgm") in err[0] and str(frames / "seq1" / "f2.pgm") in err[0]
        assert "64x64" in err[0] and "64x48" in err[0]
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_command_without_its_inputs_is_config_error(self, tmp_path, capsys, command):
        # infer without --data or --pair, eval without --pred or --zero-predictor
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, Encoder.random(2, 2, 8, 8, rng=18), ParametricMotion.zeros(2, 2))
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        inputs = {"infer": ["--checkpoint", ckpt], "eval": ["--data", ds]}[command]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(command, *inputs, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()

    def test_two_pixel_scenes_are_made(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("gen-objects", "--out", out, "--pairs", 2, "--size", 2, "--desk-scale") == EXIT_OK
        assert len(list(out.glob("*.v1ds"))) == 2

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1)])
    def test_source_under_two_pixels_is_format_error(self, tmp_path, capsys, shape):
        src = tmp_path / "src"
        src.mkdir()
        write_pgm(src / "a.pgm", np.full((2, 2), 0.5))  # the smallest background a scene fits
        write_pgm(src / "b.pgm", np.full(shape, 0.5))
        capsys.readouterr()
        code = run_cli("gen-objects", "--sources", src, "--out", tmp_path / "o", "--pairs", 1, "--desk-scale")
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("format error:")
        assert "b.pgm" in err[0] and f"{shape[1]}x{shape[0]}" in err[0]

    @pytest.mark.parametrize("command", ["gen-data", "eval"])
    def test_summary_reports_peak_rss_and_minor_faults(self, tmp_path, command):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 2, "--size", 32, "--seed", 0)
        out = ds
        if command == "eval":
            out = tmp_path / "ev"
            assert run_cli("eval", "--data", ds, "--zero-predictor", "--out", out) == EXIT_OK
        timings = json.loads((out / "run_summary.json").read_text())["timings"]
        assert set(timings) == {"wall_seconds", "peak_rss_mb", "minor_faults"}
        assert timings["peak_rss_mb"] > 0
        assert isinstance(timings["minor_faults"], int) and timings["minor_faults"] >= 0

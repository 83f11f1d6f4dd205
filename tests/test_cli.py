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
from patchflow.evalviz import write_pgm


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
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    def test_nonpositive_pair_count_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("gen-data", "--out", out, "--pairs", -3, "--size", 32)
        assert code == EXIT_CONFIG
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, override",
        [
            ("eval", {"infer": {"margin": "x"}}),
            ("train", {"train": {"batch_size": 2.5}}),
            ("train", {"train": {"num_steps": True}}),
        ],
    )
    def test_wrong_config_type_is_config_error(self, tmp_path, capsys, command, override):
        ds = tmp_path / "ds"
        run_cli("gen-data", "--out", ds, "--pairs", 1, "--size", 32, "--seed", 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        capsys.readouterr()
        out = tmp_path / "run"
        extra = ["--zero-predictor"] if command == "eval" else []
        code = run_cli(command, "--data", ds, "--config", cfg, "--out", out, *extra)
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

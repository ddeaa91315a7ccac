"""End-to-end tests of the command line interface."""

import json

import numpy as np
import pytest

from protograph.cli import main
from protograph.evaluation import parse_report_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data, graph, and a short training run shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main([
        "synth", "--out", str(data), "--relations", "25", "--dim", "8",
        "--cluster-scale", "10", "--noise-scale", "1", "--per-relation", "12",
        "--splits", "10,5,10", "--seed", "3",
    ]) == 0
    assert main([
        "build-graph", "--embeddings", str(data / "embeddings.tsv"),
        "--knn", "10", "--out", str(root / "edges.tsv"),
    ]) == 0
    assert main([
        "train", "--data", str(data / "instances.tsv"),
        "--registry", str(data / "registry.tsv"),
        "--embeddings", str(data / "embeddings.tsv"),
        "--graph", str(root / "edges.tsv"),
        "--checkpoint", str(root / "model.ckpt"), "--out", str(root / "train.csv"),
        "--episodes", "40", "--eval-every", "20", "--val-episodes", "4", "--seed", "4",
    ]) == 0
    return root, data


def base_args(workspace, cmd):
    root, data = workspace
    return [
        cmd, "--data", str(data / "instances.tsv"),
        "--registry", str(data / "registry.tsv"),
        "--embeddings", str(data / "embeddings.tsv"),
    ]


class TestPipeline:
    def test_outputs_exist(self, workspace):
        root, data = workspace
        for name in ("instances.tsv", "registry.tsv", "embeddings.tsv"):
            assert (data / name).exists()
        assert (root / "edges.tsv").exists()
        assert (root / "model.ckpt").exists()
        assert (root / "train.csv").exists()
        # every run leaves its resolved config next to its outputs
        assert (root / "model.ckpt.config").exists()
        assert (root / "edges.tsv.config").exists()

    def test_eval_runs_with_defaults(self, workspace, capsys):
        # only data paths given: N=5, K=1, L=10, M=5, eps0=0.1, tau=10, knn=10
        assert main(base_args(workspace, "eval")) == 0
        out = capsys.readouterr().out
        assert "5-way 1-shot" in out

    def test_eval_report_and_replay_byte_identical(self, workspace):
        root, _ = workspace
        args = base_args(workspace, "eval") + [
            "--checkpoint", str(root / "model.ckpt"),
            "--out", str(root / "report.csv"), "--episodes", "25", "--seed", "5",
        ]
        assert main(args) == 0
        rows = parse_report_csv(root / "report.csv")
        assert rows[0]["N"] == 5 and rows[0]["episodes"] == 25

        replay = base_args(workspace, "eval") + [
            "--config", str(root / "report.csv.config"),
            "--out", str(root / "report2.csv"),
        ]
        assert main(replay) == 0
        a = (root / "report.csv").read_bytes()
        b = (root / "report2.csv").read_bytes()
        assert a == b

    def test_zero_shot_json(self, workspace):
        root, _ = workspace
        args = base_args(workspace, "zero-shot") + [
            "--out", str(root / "zs.json"), "--format", "json",
            "--episodes", "20", "--seed", "6",
        ]
        assert main(args) == 0
        data = json.loads((root / "zs.json").read_text())
        assert data[0]["K"] == 0 and data[0]["episodes"] == 20

    def test_sweep(self, workspace):
        root, _ = workspace
        args = base_args(workspace, "sweep") + [
            "--checkpoint", str(root / "model.ckpt"), "--axis", "M",
            "--values", "0,5", "--out", str(root / "sweep.csv"),
            "--episodes", "10", "--seed", "7",
        ]
        assert main(args) == 0
        rows = parse_report_csv(root / "sweep.csv")
        assert [r["M"] for r in rows] == [0, 5]
        assert rows[0]["setting"] == "sweep:M=0"

    def test_config_file_flag_override(self, workspace, tmp_path):
        root, data = workspace
        cfg = tmp_path / "run.config"
        cfg.write_text("n-way=4\nepisodes=6\nseed=9\n")
        args = base_args(workspace, "eval") + [
            "--config", str(cfg), "--n-way", "3",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 0
        rows = parse_report_csv(tmp_path / "r.csv")
        assert rows[0]["N"] == 3  # flag beats file
        assert rows[0]["episodes"] == 6  # file beats default
        assert rows[0]["seed"] == 9

    def test_train_with_linear_encoder(self, workspace, tmp_path):
        root, _ = workspace
        # scale-10 features need a gentler rate once the encoder is trainable
        args = base_args(workspace, "train") + [
            "--graph", str(root / "edges.tsv"), "--encoder", "linear",
            "--checkpoint", str(tmp_path / "lin.ckpt"), "--episodes", "10",
            "--eval-every", "0", "--seed", "8", "--lr", "0.005",
        ]
        assert main(args) == 0
        from protograph.trainer import read_checkpoint
        params, _ = read_checkpoint(tmp_path / "lin.ckpt")
        assert params.encoder.mode == "linear"
        assert params.encoder.weight.shape == (8, 8)

    def test_train_log_format(self, workspace):
        root, _ = workspace
        lines = (root / "train.csv").read_text().splitlines()
        assert lines[0] == "episode_index,loss,val_accuracy,wall_ms"
        assert len(lines) == 41
        # eval-every=20: rows 19 and 39 carry a validation accuracy
        assert lines[20].split(",")[2] != ""
        assert lines[1].split(",")[2] == ""

    @pytest.mark.parametrize("cmd", ["eval", "zero-shot", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, workspace, capsys, cmd, threads):
        assert main(base_args(workspace, cmd) + ["--threads", threads]) == 1
        assert capsys.readouterr().err == "error: --threads must be >= 1\n"

    def test_truncated_checkpoint_is_one_line_error(self, workspace, tmp_path, capsys):
        root, _ = workspace
        lines = (root / "model.ckpt").read_text().splitlines(keepends=True)
        for keep in (5, len(lines) // 2, len(lines) - 3):
            cut = tmp_path / "cut.ckpt"
            cut.write_text("".join(lines[:keep]))
            assert main(base_args(workspace, "eval") + ["--checkpoint", str(cut)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {cut}: truncated checkpoint\n"


# (input, line, field, replacement, message): the field of that line (a
# number, or the first line starting with that text) is replaced
MALFORMED = [
    ("instances", 3, 2, "abc", "could not convert string to float: 'abc'"),
    ("instances", 2, 0, "x", "invalid literal for int() with base 10: 'x'"),
    ("instances", 4, 1, "nan", "non-finite feature"),
    ("instances", 7, 3, "-inf", "non-finite feature"),
    ("registry", 2, 0, "two", "invalid literal for int()"),
    ("embeddings", 3, 1, "1.0.0", "could not convert string to float"),
    ("embeddings", 2, 2, "inf", "non-finite embedding"),
    ("edges", 2, 1, "v", "invalid literal for int()"),
    ("checkpoint", "d ", 1, "x", "invalid literal for int()"),
    ("checkpoint", "d_g ", 1, "8.5", "invalid literal for int()"),
    ("checkpoint", "gnn.hops ", 1, "two", "invalid literal for int()"),
    ("checkpoint", "gnn.weight ", 2, "x", "invalid literal for int()"),
    ("checkpoint", "config ", 1, "many", "invalid literal for int()"),
]


@pytest.mark.parametrize("name, line, field, value, message", MALFORMED)
def test_malformed_input_is_one_line_path_line_error(
    workspace, tmp_path, capsys, name, line, field, value, message
):
    root, data = workspace
    sources = {
        "instances": data / "instances.tsv", "registry": data / "registry.tsv",
        "embeddings": data / "embeddings.tsv", "edges": root / "edges.tsv",
        "checkpoint": root / "model.ckpt",
    }
    paths = {key: tmp_path / src.name for key, src in sources.items()}
    for key, src in sources.items():
        paths[key].write_text(src.read_text())
    sep = " " if name == "checkpoint" else "\t"
    lines = paths[name].read_text().splitlines()
    if isinstance(line, str):
        line = next(i for i, text in enumerate(lines, 1) if text.startswith(line))
    fields = lines[line - 1].split(sep)
    fields[field] = value
    lines[line - 1] = sep.join(fields)
    paths[name].write_text("\n".join(lines) + "\n")

    argv = [
        "eval", "--data", str(paths["instances"]), "--registry", str(paths["registry"]),
        "--embeddings", str(paths["embeddings"]), "--graph", str(paths["edges"]),
        "--checkpoint", str(paths["checkpoint"]), "--episodes", "1",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[name]}:{line}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert message in err


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_missing_input_is_exit_one(self, capsys):
        assert main(["eval", "--data", "/nonexistent/x.tsv",
                     "--registry", "/nonexistent/y.tsv",
                     "--embeddings", "/nonexistent/z.tsv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_option_is_exit_one(self, capsys):
        assert main(["eval"]) == 1
        assert "--data" in capsys.readouterr().err


class TestGradCheck:
    def test_passes_and_prints_components(self, capsys):
        assert main(["grad-check", "--seed", "1", "--d", "3"]) == 0
        out = capsys.readouterr().out
        for component in (
            "prior", "init-objective", "support-likelihood-dot",
            "support-likelihood-euclidean", "episode-objective-dot",
            "episode-objective-euclidean",
        ):
            assert component in out
        for line in out.splitlines():
            if "max relative error" in line:
                assert float(line.rsplit(" ", 1)[1]) < 1e-4

"""End-to-end tests of the command line interface."""

import json
from collections import defaultdict

import pytest

from protograph import cli
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

    @pytest.mark.parametrize("line, message", [
        ("n-way=x", "n-way: invalid literal for int() with base 10: 'x'"),
        ("measure=cos", "measure must be one of dot, euclidean"),
    ])
    def test_bad_config_value_is_path_line_error(
        self, workspace, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "run.config"
        cfg.write_text(f"# command: eval\nseed=1\n{line}\n")
        assert main(base_args(workspace, "eval") + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"

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

    def test_config_written_with_unread_keys_replays(self, workspace, tmp_path):
        # an eval .config as written when every subcommand took every flag:
        # it carries lr and threads, which eval does not read
        root, data = workspace
        paths = {
            "data": data / "instances.tsv", "registry": data / "registry.tsv",
            "embeddings": data / "embeddings.tsv", "checkpoint": root / "model.ckpt",
            "out": tmp_path / "report.csv",
        }
        old = tmp_path / "old.config"
        old.write_text(OLD_EVAL_CONFIG.format(**paths))
        args = ["eval"] + [f"--{key}={path}" for key, path in paths.items()]
        assert main(args + ["--episodes", "12", "--seed", "5"]) == 0
        assert main(["eval", "--config", str(old), "--out", str(tmp_path / "replay.csv")]) == 0
        assert (tmp_path / "replay.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()
        # the new echo also leaves out encoder: the checkpoint's encoder is used
        kept = [line for line in old.read_text().splitlines()
                if not line.startswith(("lr=", "threads=", "encoder="))]
        assert (tmp_path / "report.csv.config").read_text().splitlines() == kept

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
    ("checkpoint", "gnn.hops ", 1, "0", "gnn.hops must be >= 1"),
    ("checkpoint", "gnn.activation ", 1, "relu", "unknown gnn.activation 'relu'"),
    ("checkpoint", "encoder.mode ", 1, "bogus", "unknown encoder.mode 'bogus'"),
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


OLD_EVAL_CONFIG = """# command: eval
alpha=1.0
beta=1.0
chains=10
checkpoint={checkpoint}
data={data}
embeddings={embeddings}
encoder=identity
episodes=12
format=csv
k-shot=1
knn=10
lr=0.1
measure=dot
n-way=5
no-graph-prior=false
no-noise=false
out={out}
q-per=5
registry={registry}
seed=5
split=test
step-decay=0.0
step-size=0.1
steps=5
tau=10.0
threads=1
"""

# a flag of another subcommand, one that is gone, or an abbreviated one
UNREAD_FLAGS = [
    ("zero-shot", ["--chains", "3"]),
    ("zero-shot", ["--no-graph-prior"]),
    ("eval", ["--lr", "0.1"]),
    ("train", ["--format", "csv"]),
    ("build-graph", ["--seed", "0"]),
    ("synth", ["--measure", "dot"]),
    ("grad-check", ["--data", "x.tsv"]),
    ("eval", ["--threads", "1"]),
    ("zero-shot", ["--threads", "1"]),
    ("sweep", ["--threads", "1"]),
    ("eval", ["--enc", "linear"]),
    ("eval", ["--kn", "3"]),
    ("eval", ["--no-g"]),
    ("train", ["--val", "3"]),
]


@pytest.mark.parametrize(
    "cmd, flag", UNREAD_FLAGS, ids=[f"{cmd}{flag[0]}" for cmd, flag in UNREAD_FLAGS]
)
def test_flag_the_subcommand_does_not_read_exits_two(capsys, cmd, flag):
    with pytest.raises(SystemExit) as exc:
        main([cmd] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_each_subcommand_declares_exactly_the_options_it_reads(
    workspace, tmp_path, monkeypatch
):
    root, data = workspace
    read = defaultdict(set)
    lookup = cli.Options.__getitem__

    def recording(self, key):
        read[self.command].add(key)
        return lookup(self, key)

    monkeypatch.setattr(cli.Options, "__getitem__", recording)
    graph = ["--graph", str(root / "edges.tsv")]
    checkpoint = ["--checkpoint", str(root / "model.ckpt")]
    runs = [
        ["synth", "--out", str(tmp_path / "synth"), "--splits", "10,5,10"],
        ["build-graph", "--embeddings", str(data / "embeddings.tsv"),
         "--out", str(tmp_path / "edges.tsv")],
        ["grad-check", "--cases", "1"],
    ]
    for with_graph in ([], graph):
        runs.append(base_args(workspace, "train") + with_graph + [
            "--checkpoint", str(tmp_path / "t.ckpt"), "--out", str(tmp_path / "t.csv"),
            "--episodes", "2", "--eval-every", "1", "--val-episodes", "1",
        ])
        for with_checkpoint in ([], checkpoint):
            for cmd in ("eval", "zero-shot", "sweep"):
                runs.append(base_args(workspace, cmd) + with_graph + with_checkpoint + [
                    "--out", str(tmp_path / f"{cmd}.csv"), "--episodes", "1",
                ])
    for argv in runs:
        assert main(argv) == 0, argv
    for name, command in cli.COMMANDS.items():
        assert read[name] == set(command.options), name
    counts = {name: len(command.options) for name, command in cli.COMMANDS.items()}
    assert counts == {
        "synth": 9, "build-graph": 3, "train": 27, "eval": 25, "zero-shot": 16,
        "sweep": 27, "grad-check": 9,
    }


# option values rejected before any work is done: (subcommand, flags, message)
BAD_VALUES = [
    ("train", ["--eval-every", "10", "--val-episodes", "0"],
     "val_episodes must be >= 1 when eval_every > 0"),
    ("train", ["--eval-every", "-1"], "eval_every must be >= 0"),
    ("eval", ["--step-size", "3.9"], "largest step size 3.9 times prior_weight 1 must be < 2"),
    ("eval", ["--step-size", "1", "--step-decay", "-1"],
     "largest step size 5 times prior_weight 1 must be < 2"),
]


@pytest.mark.parametrize(
    "cmd, flags, message", BAD_VALUES, ids=[" ".join([c] + f) for c, f, _ in BAD_VALUES]
)
def test_bad_option_value_is_one_line_error(workspace, tmp_path, capsys, cmd, flags, message):
    checkpoint = tmp_path / "model.ckpt"
    extra = ["--checkpoint", str(checkpoint), "--episodes", "10"] if cmd == "train" else []
    assert main(base_args(workspace, cmd) + extra + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not checkpoint.exists()


def test_echo_leaves_out_options_the_run_did_not_read(workspace, tmp_path):
    # a graph file replaces the k-NN build and a checkpoint brings its encoder
    root, _ = workspace
    out = tmp_path / "report.csv"
    assert main(base_args(workspace, "eval") + [
        "--graph", str(root / "edges.tsv"), "--knn", "3",
        "--checkpoint", str(root / "model.ckpt"), "--encoder", "linear",
        "--episodes", "2", "--out", str(out),
    ]) == 0
    lines = (tmp_path / "report.csv.config").read_text().splitlines()
    keys = {line.split("=")[0] for line in lines}
    assert {"graph", "checkpoint", "seed", "out"} <= keys
    assert not keys & {"knn", "encoder"}
    _, echo = cli.read_checkpoint(root / "model.ckpt")
    assert "graph" in echo and "knn" not in echo


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

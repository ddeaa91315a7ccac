"""End-to-end tests of the command line interface."""

import csv
import json
import random
import shlex
from collections import defaultdict
from pathlib import Path

import pytest

from protograph import cli, evaluation, gradcheck, trainer
from protograph.cli import main


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


def read_report(path):
    """The rows of a CSV report, column -> cell text."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


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
        rows = read_report(root / "report.csv")
        assert rows[0]["N"] == "5" and rows[0]["episodes"] == "25"

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
        rows = read_report(root / "sweep.csv")
        assert [r["M"] for r in rows] == ["0", "5"]
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
        rows = read_report(tmp_path / "r.csv")
        assert rows[0]["N"] == "3"  # flag beats file
        assert rows[0]["episodes"] == "6"  # file beats default
        assert rows[0]["seed"] == "9"

    def test_config_file_with_a_byte_order_mark_applies_its_first_option(
        self, workspace, tmp_path
    ):
        # the mark some editors write first is no part of the first key
        cfg = tmp_path / "run.config"
        cfg.write_bytes(b"\xef\xbb\xbfepisodes=7\nseed=9\n")
        args = base_args(workspace, "eval") + [
            "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 0
        rows = read_report(tmp_path / "r.csv")
        assert (rows[0]["episodes"], rows[0]["seed"]) == ("7", "9")

    @pytest.mark.parametrize("line, message", [
        ("n-way=x", "n-way: invalid literal for int() with base 10: 'x'"),
        ("measure=cos", "measure must be one of dot, euclidean"),
        ("no-noise=maybe", "no-noise must be true or false"),
        ("seed=2", "duplicate option 'seed'"),
        ("episodes=\udcff", "not UTF-8 text"),  # the byte 0xff
        # a value that parses but fails SamplerConfig's own check of it
        ("tau=nan", "tau must be finite, got nan"),
        ("step-size=-inf", "step_size must be finite, got -inf"),
        ("chains=0", "chains must be >= 1"),
        # ... or TrainConfig's; train reads the keys eval does not
        ("lr=nan", "learning_rate must be positive"),
        ("eval-every=-1", "eval_every must be >= 0"),
        ("n-way=0", "n_way must be >= 1, got 0"),
        ("k-shot=0", "k_shot must be >= 1, got 0"),
        ("q-per=0", "q_per must be >= 1, got 0"),
    ])
    def test_bad_config_value_is_path_line_error(
        self, workspace, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "run.config"
        cfg.write_bytes(f"# command: eval\nseed=1\n{line}\n".encode("utf-8", "surrogateescape"))
        args = base_args(workspace, "eval")
        if line.partition("=")[0] not in cli.COMMANDS["eval"].options:
            args = base_args(workspace, "train") + ["--checkpoint", str(tmp_path / "m.ckpt")]
        assert main(args + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.config"]  # nothing written

    @pytest.mark.parametrize("cmd, line, message", [
        ("sweep", "values=1,,2", "values item '' is not an integer"),
        ("synth", "splits=10,x,5", "splits item 'x' is not an integer"),
    ])
    def test_bad_list_item_names_its_config_line(
        self, workspace, tmp_path, capsys, cmd, line, message
    ):
        # the flag names itself (--values item '' ...), the file its line
        cfg = tmp_path / "run.config"
        cfg.write_text(f"# command: {cmd}\nseed=1\n{line}\n")
        args = ["synth", "--out", str(tmp_path / "s")] if cmd == "synth" else base_args(
            workspace, cmd)
        assert main(args + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.config"]  # nothing written

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    @pytest.mark.parametrize("cmd", ["synth", "train", "eval", "zero-shot", "sweep", "grad-check"])
    def test_seed_outside_64_bits_fails_before_any_input_loads(
        self, tmp_path, capsys, cmd, seed
    ):
        missing = [f"--{key}={tmp_path / 'missing'}" for key in ("data", "registry", "embeddings")]
        args = {"synth": ["--out", str(tmp_path / "s")], "grad-check": []}.get(cmd, missing)
        if cmd == "train":
            args += ["--checkpoint", str(tmp_path / "m.ckpt")]
        assert main([cmd, *args, f"--seed={seed}"]) == 1
        assert capsys.readouterr().err == f"error: --seed must be in 0..2**64-1, got {seed}\n"
        cfg = tmp_path / "run.config"
        cfg.write_text(f"# command: {cmd}\nseed={seed}\n")
        assert main([cmd, *args, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: seed must be in 0..2**64-1, got {seed}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.config"]  # nothing written

    def test_largest_seed_runs_and_is_reported(self, workspace, tmp_path):
        out = tmp_path / "r.json"
        args = base_args(workspace, "zero-shot") + [
            "--episodes", "3", "--format", "json", "--out", str(out), "--seed", str(2**64 - 1),
        ]
        assert main(args) == 0
        assert json.loads(out.read_text())[0]["seed"] == 2**64 - 1

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
        # the new echo also leaves out encoder, an option that is gone
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
# number, the first line starting with that text, or None for a line added
# at the end) is replaced, or the whole line when the field is None. A line
# given as (edited, reported) names the line the error is reported at apart
# from the edited one. "\udcff" is written as the byte 0xff.
MALFORMED = [
    ("instances", 3, 2, "abc", "could not convert string to float: 'abc'"),
    ("instances", 2, 0, "x", "invalid literal for int() with base 10: 'x'"),
    ("instances", 4, 1, "nan", "non-finite feature"),
    ("instances", 7, 3, "-inf", "non-finite feature"),
    ("instances", 3, 2, "\udcff", "not UTF-8 text"),
    ("registry", 2, 0, "two", "invalid literal for int()"),
    ("embeddings", 3, 1, "1.0.0", "could not convert string to float"),
    ("embeddings", 2, 2, "inf", "non-finite embedding"),
    ("edges", 2, 1, "v", "invalid literal for int()"),
    ("edges", 2, None, "0\t99", "node 99 not among the 25 embeddings"),
    ("edges", 3, None, "-1\t3", "node -1 not among the 25 embeddings"),
    ("edges", 2, 1, "\udcff", "not UTF-8 text"),
    ("embeddings", 1, None, "0", "embedding has no values"),
    ("registry", 3, None, "0\trelation_0\ttrain", "duplicate relation id 0"),
    ("checkpoint", "d ", 1, "x", "invalid literal for int()"),
    ("checkpoint", "d_g ", 1, "8.5", "invalid literal for int()"),
    ("checkpoint", "gnn.hops ", 1, "two", "unsupported gnn.hops 'two'"),
    ("checkpoint", "gnn.hops ", 1, "0", "unsupported gnn.hops '0'"),
    ("checkpoint", "gnn.hops ", 1, "2", "unsupported gnn.hops '2'"),
    ("checkpoint", "gnn.activation ", 1, "relu", "unsupported gnn.activation 'relu'"),
    ("checkpoint", "gnn.activation ", 1, "tanh", "unsupported gnn.activation 'tanh'"),
    ("checkpoint", "encoder.mode ", 1, "bogus", "unsupported encoder.mode 'bogus'"),
    ("checkpoint", "gnn.weight ", 2, "x", "invalid literal for int()"),
    # each block header is checked against d and d_g where it is read
    ("checkpoint", ("d_g ", "gnn.weight "), 1, "7", "expected gnn.weight 7 8"),
    ("checkpoint", "gnn.weight ", 1, "0", "expected gnn.weight 8 8, found 'gnn.weight 0 8'"),
    ("checkpoint", "gnn.weight ", None, "gnn.weight 8", "expected gnn.weight 8 8"),
    ("checkpoint", 7, 0, "nan", "non-finite gnn.weight value"),  # first gnn.weight row
    ("checkpoint", "d_g ", 1, "\udcff", "not UTF-8 text"),
    ("checkpoint", "config ", 1, "many", "invalid literal for int()"),
    # a bias block of two rows, whose second row was once dropped unread
    ("checkpoint", "gnn.bias ", None, "gnn.bias 2 8\n" + " ".join(["0.0"] * 8),
     "expected gnn.bias 1 8, found 'gnn.bias 2 8'"),
    ("checkpoint", "alpha=", None, "alpha", "expected key=value"),
    ("checkpoint", None, None, "seed=1", "unexpected line after the config block"),
    # the trainable encoder's mode, which earlier versions wrote
    ("checkpoint", "encoder.mode ", 1, "linear", "unsupported encoder.mode 'linear'"),
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

    def locate(at):
        if isinstance(at, str):
            return next(i for i, text in enumerate(lines, 1) if text.startswith(at))
        return len(lines) if at is None else at

    edited, reported = line if isinstance(line, tuple) else (line, line)
    if edited is None:
        lines.append("")
    line, reported = locate(edited), locate(reported)
    if field is None:
        lines[line - 1] = value
    else:
        fields = lines[line - 1].split(sep)
        fields[field] = value
        lines[line - 1] = sep.join(fields)
    paths[name].write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))

    argv = [
        "eval", "--data", str(paths["instances"]), "--registry", str(paths["registry"]),
        "--embeddings", str(paths["embeddings"]), "--graph", str(paths["edges"]),
        "--checkpoint", str(paths["checkpoint"]), "--episodes", "1",
        "--out", str(tmp_path / "report.csv"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[name]}:{reported}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert message in err
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())  # nothing written


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """The README round trip's input files, checkpoint and a --config file, at
    a small shape. The test split has room for the default episode shape, so
    the config file without one of its lines is still a valid one."""
    root = tmp_path_factory.mktemp("small")
    files = {
        "instances": root / "instances.tsv", "registry": root / "registry.tsv",
        "embeddings": root / "embeddings.tsv", "edges": root / "edges.tsv",
        "checkpoint": root / "model.ckpt", "config": root / "run.config",
    }
    assert main([
        "synth", "--out", str(root), "--relations", "10", "--dim", "3", "--per-relation", "7",
        "--splits", "3,2,5", "--seed", "1",
    ]) == 0
    assert main([
        "build-graph", "--embeddings", str(files["embeddings"]), "--knn", "2",
        "--out", str(files["edges"]),
    ]) == 0
    assert main(["train", *input_flags(files), "--checkpoint", str(files["checkpoint"]),
                 "--episodes", "2", "--eval-every", "0", "--n-way", "2", "--chains", "2",
                 "--steps", "1"]) == 0
    files["config"].write_text(
        "n-way=2\nk-shot=1\nq-per=2\nepisodes=2\nchains=2\nsteps=1\nstep-size=0.1\n"
        "tau=10.0\nmeasure=dot\nno-noise=false\nsplit=test\nseed=3\n"
    )
    return files


def input_flags(files):
    """The flags of the four data files of ``files``."""
    return ["--data", str(files["instances"]), "--registry", str(files["registry"]),
            "--embeddings", str(files["embeddings"]), "--graph", str(files["edges"])]


def line_mutations(line: bytes, sep: bytes, ids: tuple[int, ...]):
    """(kind, lines in its place) of each one-line mutation of ``line``, a
    line of ``sep``-separated fields with ids at the positions ``ids``."""
    fields = line.split(sep)
    yield "delete", []
    yield "duplicate", [line, line]
    yield "truncate", [line[: len(line) // 2]]
    yield "drop-field", [sep.join(fields[:-1])]
    yield "add-field", [line + sep + b"1"]
    for kind, value in ("non-number", b"x1"), ("nan", b"nan"), ("inf", b"-inf"):
        yield kind, [sep.join(fields[:-1] + [value])]
    yield "non-utf8", [line[:1] + b"\xff" + line[1:]]
    for i in ids:
        for kind, value in ("negative-id", b"-1"), ("huge-id", b"9" * 20):
            yield kind, [sep.join(fields[:i] + [value] + fields[i + 1:])]


@pytest.mark.filterwarnings("error")  # a numpy warning fails a run as a traceback does
def test_mutated_input_file_exits_0_or_names_the_file(small_world, tmp_path, capsys):
    # one-line mutations of a seeded sample of each input file's lines: every
    # run succeeds or fails in one error line naming the file, never in a
    # traceback.
    files = small_world
    layout = {  # separator, id positions
        "instances": (b"\t", (0,)), "registry": (b"\t", (0,)), "embeddings": (b"\t", (0,)),
        "edges": (b"\t", (0, 1)), "checkpoint": (b" ", ()), "config": (b"=", ()),
    }
    pick = random.Random(26)
    failures, runs = [], 0
    for name, (sep, ids) in layout.items():
        lines = files[name].read_bytes().splitlines()
        cases = [(at, kind, new) for at, line in enumerate(lines)
                 for kind, new in line_mutations(line, sep, ids)]
        for at, kind, new in pick.sample(cases, min(60, len(cases))):
            mutated = tmp_path / files[name].name
            mutated.write_bytes(b"".join(x + b"\n" for x in lines[:at] + new + lines[at + 1:]))
            paths = {**files, name: mutated}
            argv = ["eval", *input_flags(paths), "--checkpoint", str(paths["checkpoint"]),
                    "--config", str(paths["config"])]
            case = f"{name} line {at + 1} {kind}"
            try:
                status = main(argv)
            except Exception as exc:  # the traceback the sweep rules out
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            runs += 1
            err = capsys.readouterr().err
            # a registry without its last line is a valid one of one relation
            # fewer, so the instances of that relation carry unknown ids
            last = name == "registry" and kind == "delete" and at == len(lines) - 1
            named = files["instances"] if last else mutated
            one_line = status == 1 and err.startswith("error: ") and err.count("\n") == 1
            if status != 0 and not (one_line and str(named) in err):
                failures.append(f"{case}: exit {status}, stderr {err!r}")
    assert failures == []
    assert runs == 6 * 60


def test_input_file_with_a_byte_order_mark_reads_as_without_it(small_world, tmp_path, capsys):
    # a UTF-8 byte-order mark opening any one input file of an eval changes
    # neither its report nor its stdout
    files = small_world

    def run(paths, out):
        argv = ["eval", *input_flags(paths), "--checkpoint", str(paths["checkpoint"]),
                "--config", str(paths["config"]), "--out", str(out)]
        assert main(argv) == 0
        return capsys.readouterr(), out.read_bytes()

    expected = run(files, tmp_path / "plain.csv")
    for name, path in files.items():
        marked = tmp_path / path.name
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run({**files, name: marked}, tmp_path / f"{name}.csv") == expected, name


def test_train_checks_the_validation_split_before_training(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main([
        "synth", "--out", str(data), "--relations", "25", "--dim", "4",
        "--per-relation", "12", "--splits", "25,0,0",
    ]) == 0
    before = sorted(tmp_path.rglob("*"))
    episodes = []  # the stream ids of every episode drawn, a chunk per call
    sample = trainer.sample_episode
    monkeypatch.setattr(
        trainer, "sample_episode", lambda *a: episodes.extend(a[-1].ids.tolist()) or sample(*a)
    )
    argv = [
        "train", "--data", str(data / "instances.tsv"), "--registry", str(data / "registry.tsv"),
        "--embeddings", str(data / "embeddings.tsv"), "--checkpoint", str(tmp_path / "m.ckpt"),
        "--out", str(tmp_path / "log.csv"), "--episodes", "300",
    ]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: split 'val' has 0 relations, need 5\n"
    assert episodes == []  # failed before the first training episode
    assert sorted(tmp_path.rglob("*")) == before  # nothing written
    # no validation within the episodes: the split is not needed
    assert main(argv[:-1] + ["99"]) == 0 and len(episodes) == 99


@pytest.mark.parametrize("command, flags", [
    ("eval", ["--k-shot", "5", "--q-per", "5"]),
    ("zero-shot", ["--q-per", "10"]),
    ("sweep", ["--k-shot", "5", "--q-per", "5"]),
], ids=["eval", "zero-shot", "sweep"])
def test_evaluation_checks_instance_counts_before_episode_zero(
    tmp_path, capsys, monkeypatch, command, flags
):
    # every relation holds 8 instances, fewer than the 10 an episode draws
    # from each target: the split fails as a whole, before a batch is drawn
    data = tmp_path / "data"
    assert main([
        "synth", "--out", str(data), "--relations", "25", "--dim", "4",
        "--per-relation", "8", "--splits", "10,5,10",
    ]) == 0
    episodes = []
    monkeypatch.setattr(evaluation, "sample_episode", lambda *a: episodes.append(a))
    argv = [
        command, "--data", str(data / "instances.tsv"), "--registry", str(data / "registry.tsv"),
        "--embeddings", str(data / "embeddings.tsv"), "--out", str(tmp_path / "report.csv"),
    ]
    capsys.readouterr()
    assert main(argv + flags) == 1
    # relation 15 is the test split's first
    assert capsys.readouterr().err == "error: relation 15 has 8 instances, need 10\n"
    assert episodes == [] and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("split, cut", [("train", 3), ("val", 17)])
def test_train_checks_instance_counts_before_training(tmp_path, capsys, monkeypatch, split, cut):
    data = tmp_path / "data"
    assert main([
        "synth", "--out", str(data), "--relations", "25", "--dim", "4",
        "--per-relation", "12", "--splits", "15,5,5",
    ]) == 0
    # leave relation `cut` of the split with 3 instances, fewer than 1 + 5
    instances = data / "instances.tsv"
    lines = instances.read_text().splitlines()
    kept = [ln for ln in lines if ln.split("\t")[0] != str(cut)]
    kept += [ln for ln in lines if ln.split("\t")[0] == str(cut)][:3]
    instances.write_text("\n".join(kept) + "\n")
    before = sorted(tmp_path.rglob("*"))
    episodes = []  # the stream ids of every episode drawn, a chunk per call
    sample = trainer.sample_episode
    monkeypatch.setattr(
        trainer, "sample_episode", lambda *a: episodes.extend(a[-1].ids.tolist()) or sample(*a)
    )
    argv = [
        "train", "--data", str(instances), "--registry", str(data / "registry.tsv"),
        "--embeddings", str(data / "embeddings.tsv"), "--checkpoint", str(tmp_path / "m.ckpt"),
        "--out", str(tmp_path / "log.csv"), "--episodes", "30", "--eval-every", "10",
    ]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: relation {cut} has 3 instances, need 6\n"
    assert episodes == []  # failed before the first training episode
    assert sorted(tmp_path.rglob("*")) == before  # nothing written
    if split == "val":  # no validation within the episodes: the split is not needed
        assert main(argv[:-1] + ["31"]) == 0 and len(episodes) == 30


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
    # the encoder option is gone with the linear encoder
    ("train", ["--encoder", "identity"]),
    ("eval", ["--encoder", "linear"]),
    ("zero-shot", ["--encoder", "identity"]),
    ("sweep", ["--encoder", "linear"]),
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
        "synth": 9, "build-graph": 3, "train": 25, "eval": 24, "zero-shot": 15,
        "sweep": 26, "grad-check": 9,
    }


# option values rejected before any work is done: (subcommand, flags, message)
BAD_VALUES = [
    ("train", ["--eval-every", "10", "--val-episodes", "0"],
     "val_episodes must be >= 1 when eval_every > 0"),
    ("train", ["--eval-every", "-1"], "eval_every must be >= 0"),
    ("eval", ["--step-size", "3.9"], "largest step size 3.9 times prior_weight 1 must be < 2"),
    ("eval", ["--step-size", "1", "--step-decay", "-1"],
     "largest step size 5 times prior_weight 1 must be < 2"),
    ("sweep", ["--values", "1,,2"], "--values item '' is not an integer"),
    ("synth", ["--splits", "10,x,5"], "--splits item 'x' is not an integer"),
    ("synth", ["--splits", "10,5,5,5"], "split_counts (10, 5, 5, 5) must give 3 counts"),
    ("synth", ["--splits", "10,15"], "split_counts (10, 15) must give 3 counts"),
    # a non-finite scale would write features that every later command rejects
    ("synth", ["--noise-scale", "nan"], "noise_scale must be finite, got nan"),
    ("synth", ["--cluster-scale", "inf"], "cluster_scale must be finite, got inf"),
    ("synth", ["--embed-noise", "nan"], "embed_noise must be finite, got nan"),
    # a temperature of inf scales every logit to 0: chance accuracy, exit 0
    ("eval", ["--tau", "inf"], "tau must be finite, got inf"),
    ("zero-shot", ["--tau", "inf"], "tau must be finite, got inf"),
    ("sweep", ["--tau", "inf"], "tau must be finite, got inf"),
    # logits overflow once divided by a subnormal temperature
    ("zero-shot", ["--tau", "1e-320"], "logits / tau must be finite"),
    ("eval", ["--tau", "1e-320"], "logits / tau must be finite"),
    ("eval", ["--step-size", "nan"], "step_size must be finite, got nan"),
    ("eval", ["--step-decay", "nan"], "step_decay must be finite, got nan"),
    ("eval", ["--alpha", "nan"], "alpha must be finite, got nan"),
    ("train", ["--beta", "nan"], "beta must be finite, got nan"),
    ("train", ["--lr", "inf"], "learning_rate must be finite, got inf"),
    # a negative value in exponent or inf form is a value, not a flag
    ("eval", ["--step-decay", "-1e3"], "largest step size inf times prior_weight 1 must be < 2"),
    ("eval", ["--tau", "-inf"], "tau must be finite, got -inf"),
    ("train", ["--beta", "-NaN"], "beta must be finite, got nan"),
    # checked before a batch is sized by the episode shape, in one wording
    ("eval", ["--n-way", "0"], "n_way must be >= 1, got 0"),
    ("zero-shot", ["--n-way", "0"], "n_way must be >= 1, got 0"),
    ("sweep", ["--n-way", "0"], "n_way must be >= 1, got 0"),
    ("zero-shot", ["--q-per", "0"], "q_per must be >= 1, got 0"),
    ("eval", ["--n-way", "0", "--k-shot", "0"], "n_way must be >= 1, got 0"),
    ("train", ["--n-way", "0"], "n_way must be >= 1, got 0"),
    ("train", ["--k-shot", "0"], "k_shot must be >= 1, got 0"),
    ("train", ["--q-per", "0"], "q_per must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "cmd, flags, message", BAD_VALUES, ids=[" ".join([c] + f) for c, f, _ in BAD_VALUES]
)
def test_bad_option_value_is_one_line_error(workspace, tmp_path, capsys, cmd, flags, message):
    if cmd == "synth":
        args = ["synth", "--out", str(tmp_path / "synth")]
    else:
        args = base_args(workspace, cmd)
    if cmd == "train":
        args += ["--checkpoint", str(tmp_path / "model.ckpt"), "--episodes", "10"]
    assert main(args + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())  # nothing written


INT_LISTS = ("splits", "values")  # text options holding comma-separated integers


def malformed_texts(key):
    """Malformed value texts of option ``key``: "x", a choice in the wrong
    case, an empty list item, a negative number in exponent form where an
    integer is read. A switch takes no text and a path any text."""
    opt = cli.OPTIONS[key]
    if opt.kind is bool or (opt.kind is str and not opt.choices and key not in INT_LISTS):
        return []
    texts = ["x"]
    if opt.choices:
        texts.append(opt.choices[0].swapcase())
    if key in INT_LISTS:
        texts.append("1,,2")
    if opt.kind is int or key in INT_LISTS:
        texts.append("-1e3")
    return texts


MALFORMED = [(cmd, key, text) for cmd, command in cli.COMMANDS.items()
             for key in command.options for text in malformed_texts(key)]


@pytest.mark.parametrize(
    "cmd, key, text", MALFORMED, ids=[f"{cmd} {key}={text}" for cmd, key, text in MALFORMED]
)
def test_malformed_value_is_one_line_error_from_a_flag_or_a_config_line(
    tmp_path, capsys, monkeypatch, cmd, key, text
):
    # a flag, in either form, and a config line go through one converter:
    # exit 1 and one line naming the flag, or the file, line and key; never
    # a usage error
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(f"# command: {cmd}\n{key}={text}\n")
    errors = []
    for argv, name in (
        ([f"--{key}", text], f"--{key}"), ([f"--{key}={text}"], f"--{key}"),
        (["--config", "c.cfg"], f"c.cfg:2: {key}"),
    ):
        try:
            assert main([cmd, *argv]) == 1, argv
        except SystemExit as exc:
            pytest.fail(f"{argv}: usage error, exit {exc.code}")
        errors.append(capsys.readouterr().err)
        assert errors[-1].startswith((f"error: {name}:", f"error: {name} ")), errors[-1]
        assert errors[-1].count("\n") == 1, errors[-1]
    assert errors[0] == errors[1]
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]  # nothing written


def test_negative_value_in_exponent_form_is_read_as_its_own_argument(workspace, capsys):
    # argparse alone takes -1e-3 for a flag and prints its usage
    args = base_args(workspace, "eval") + ["--n-way", "2", "--episodes", "2"]
    assert main(args + ["--alpha=-1e-3"]) == 0
    joined = capsys.readouterr()
    assert main(args + ["--alpha", "-1e-3"]) == 0
    assert capsys.readouterr() == joined


def test_eval_without_a_checkpoint_runs_the_model_train_starts_from(tmp_path, monkeypatch):
    # train at 0 episodes checkpoints its initial parameters; eval without a
    # checkpoint draws the same model from the same seed
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "d", "--relations", "12", "--dim", "4", "--cluster-scale",
                 "1", "--per-relation", "6", "--splits", "4,4,4", "--seed", "2"]) == 0
    inputs = ["--data", "d/instances.tsv", "--registry", "d/registry.tsv",
              "--embeddings", "d/embeddings.tsv", "--knn", "3"]
    for seed in "5", "6":
        assert main(["train", *inputs, "--episodes", "0", "--seed", seed,
                     "--checkpoint", f"m{seed}.ckpt"]) == 0
    evaluate = ["eval", *inputs, "--n-way", "3", "--episodes", "4", "--seed", "5"]
    for out, model in (("untrained.csv", []),
                       ("m5.csv", ["--checkpoint", "m5.ckpt"]),
                       ("m6.csv", ["--checkpoint", "m6.ckpt"])):
        assert main([*evaluate, *model, "--out", out]) == 0
    assert Path("untrained.csv").read_bytes() == Path("m5.csv").read_bytes()
    assert Path("m6.csv").read_bytes() != Path("m5.csv").read_bytes()  # the model shows


@pytest.mark.filterwarnings("error")  # numpy's overflow warning would fail the run
@pytest.mark.parametrize("cmd, prefix", [("eval", ""), ("sweep", ""), ("train", "episode 0: ")])
def test_overflowing_warm_start_is_one_line_error(workspace, tmp_path, capsys, cmd, prefix):
    args = base_args(workspace, cmd) + ["--alpha", "1e308"]
    if cmd == "train":
        args += ["--checkpoint", str(tmp_path / "model.ckpt"), "--episodes", "10"]
    assert main(args) == 1
    assert capsys.readouterr() == (
        "", f"error: {prefix}warm start is not finite at alpha 1e+308 and beta 1\n"
    )
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.filterwarnings("error")  # numpy's overflow warning would fail the run
@pytest.mark.parametrize("cmd", ["eval", "sweep", "train"])
def test_overflowing_step_size_schedule_is_one_line_error(workspace, tmp_path, capsys, cmd):
    # t ** 500 overflows from t = 5: the largest step size is inf
    args = base_args(workspace, cmd) + ["--step-decay=-500"]
    if cmd == "train":
        args += ["--checkpoint", str(tmp_path / "model.ckpt"), "--episodes", "10"]
    assert main(args) == 1
    assert capsys.readouterr() == (
        "", "error: largest step size inf times prior_weight 1 must be < 2\n"
    )
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.filterwarnings("error")  # 0 * inf would warn of an invalid value
@pytest.mark.parametrize("cmd", ["eval", "sweep", "train"])
def test_zero_step_size_is_zero_at_an_overflowing_decay(
    workspace, tmp_path, monkeypatch, cmd
):
    written = {}
    for run, decay in (("plain", []), ("decayed", ["--step-decay=-500"])):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        args = base_args(workspace, cmd) + ["--step-size", "0", "--episodes", "3", "--out", "out"]
        if cmd == "train":
            args += ["--checkpoint", "model.ckpt", "--eval-every", "2", "--val-episodes", "2"]
        assert main(args + decay) == 0
        # every file but the echoed decay: a report, or a log and a checkpoint
        written[run] = {
            p.name: [line for line in p.read_text().splitlines()
                     if not line.startswith("step-decay=")]
            for p in (tmp_path / run).iterdir()
        }
    assert written["decayed"] == written["plain"]
    assert len(written["plain"]) == (4 if cmd == "train" else 2)


SAME_FILE = [
    ("train", ["--checkpoint", "m.ckpt", "--out", "m.ckpt"], "m.ckpt", "--out", "--checkpoint"),
    ("train", ["--checkpoint", "instances.tsv"], "instances.tsv", "--checkpoint", "--data"),
    ("eval", ["--checkpoint", "model.ckpt", "--out", "model.ckpt"], "model.ckpt", "--out",
     "--checkpoint"),
    ("eval", ["--out", "registry.tsv"], "registry.tsv", "--out", "--registry"),
    ("zero-shot", ["--out", "{cwd}/embeddings.tsv"], "{cwd}/embeddings.tsv", "--out",
     "--embeddings"),
    ("sweep", ["--graph", "edges.tsv", "--out", "edges.tsv"], "edges.tsv", "--out", "--graph"),
    ("build-graph", ["--out", "embeddings.tsv"], "embeddings.tsv", "--out", "--embeddings"),
    # each output's <path>.config echo is a written file too
    ("train", ["--checkpoint", "m", "--out", "m.config"], "m.config", "--out",
     "--checkpoint's .config echo"),
    ("train", ["--checkpoint", "a.config", "--out", "a"], "a.config", "--out's .config echo",
     "--checkpoint"),
    ("eval", ["--data", "r.config", "--out", "r"], "r.config", "--out's .config echo", "--data"),
    ("build-graph", ["--embeddings", "e.config", "--out", "e"], "e.config",
     "--out's .config echo", "--embeddings"),
]


@pytest.mark.parametrize(
    "cmd, flags, path, key, other", SAME_FILE,
    ids=[" ".join([c] + f) for c, f, *_ in SAME_FILE],
)
def test_output_naming_an_input_or_output_fails_before_any_work(
    workspace, tmp_path, capsys, monkeypatch, cmd, flags, path, key, other
):
    root, data = workspace
    for source in (data / "instances.tsv", data / "registry.tsv", data / "embeddings.tsv",
                   root / "model.ckpt", root / "edges.tsv"):
        (tmp_path / source.name).write_bytes(source.read_bytes())
    # inputs named like the echo of an output
    (tmp_path / "r.config").write_bytes((data / "instances.tsv").read_bytes())
    (tmp_path / "e.config").write_bytes((data / "embeddings.tsv").read_bytes())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    args = [cmd, "--embeddings", "embeddings.tsv"]
    if cmd != "build-graph":
        args += ["--data", "instances.tsv", "--registry", "registry.tsv", "--episodes", "2"]
    if cmd == "train":
        args += ["--eval-every", "0"]
    assert main(args + [f.format(cwd=tmp_path) for f in flags]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path.format(cwd=tmp_path)}: {key} names the same file as {other}\n"
    )
    # nothing written, and every input keeps its bytes
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# (subcommand, output option) of every file a subcommand writes
OUTPUTS = [
    ("train", "checkpoint"), ("train", "out"), ("build-graph", "out"), ("eval", "out"),
    ("zero-shot", "out"), ("sweep", "out"),
]


@pytest.mark.parametrize("cmd, key", OUTPUTS, ids=[f"{c} --{k}" for c, k in OUTPUTS])
def test_echo_naming_a_directory_fails_before_any_input_loads(
    workspace, tmp_path, capsys, monkeypatch, cmd, key
):
    _, data = workspace
    monkeypatch.chdir(tmp_path)

    def loaded(*args):
        raise AssertionError("an input was loaded")

    monkeypatch.setattr(cli, "load_dataset", loaded)
    monkeypatch.setattr(cli, "load_embeddings", loaded)
    (tmp_path / "rr.config").mkdir()
    if cmd == "build-graph":
        args = [cmd, "--embeddings", str(data / "embeddings.tsv")]
    else:
        args = base_args(workspace, cmd)
    if cmd == "train":
        args += ["--checkpoint", "m.ckpt", "--eval-every", "0"]
    assert main(args + [f"--{key}", "rr"]) == 1
    assert capsys.readouterr() == (
        "", f"error: rr.config: --{key}'s .config echo is a directory\n"
    )
    assert [p.name for p in tmp_path.rglob("*")] == ["rr.config"]  # nothing written


NUMPY_MESSAGE = (
    "Unable to allocate 7.45 TiB for an array with shape (20, 100000000, 5, 16)"
    " and data type float64"
)


@pytest.mark.parametrize("message, shown", [
    (NUMPY_MESSAGE, NUMPY_MESSAGE), ("", "an allocation failed"),
], ids=["numpy", "empty"])
def test_out_of_memory_is_one_line_error(workspace, capsys, monkeypatch, message, shown):
    # the callee raises as numpy does; a test never asks for a giant array
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(evaluation, "evaluate_fewshot", allocate)
    assert main(base_args(workspace, "eval") + ["--chains", "100000000"]) == 1
    assert capsys.readouterr() == ("", f"error: out of memory: {shown}\n")


MISSING_DIRS = [
    ("train", ["--checkpoint", "nodir/m.ckpt", "--eval-every", "0", "--episodes", "300"],
     "nodir/m.ckpt"),
    ("train", ["--checkpoint", "m.ckpt", "--out", "nodir/log.csv"], "nodir/log.csv"),
    ("eval", ["--out", "nodir/r.csv"], "nodir/r.csv"),
    ("zero-shot", ["--out", "nodir/r.csv"], "nodir/r.csv"),
    ("sweep", ["--out", "nodir/r.csv"], "nodir/r.csv"),
    ("build-graph", ["--out", "nodir/edges.tsv"], "nodir/edges.tsv"),
]


@pytest.mark.parametrize(
    "cmd, flags, path", MISSING_DIRS, ids=[" ".join([c] + f) for c, f, _ in MISSING_DIRS]
)
def test_missing_output_directory_fails_before_any_input_loads(
    workspace, tmp_path, capsys, monkeypatch, cmd, flags, path
):
    _, data = workspace
    monkeypatch.chdir(tmp_path)

    def loaded(*args):
        raise AssertionError("an input was loaded")

    monkeypatch.setattr(cli, "load_dataset", loaded)
    monkeypatch.setattr(cli, "load_embeddings", loaded)
    if cmd == "build-graph":
        args = [cmd, "--embeddings", str(data / "embeddings.tsv")]
    else:
        args = base_args(workspace, cmd)
    assert main(args + flags) == 1
    assert capsys.readouterr().err == f"error: {path}: directory nodir does not exist\n"
    assert not any(tmp_path.iterdir())  # nothing written
    # an output path that names a directory fails as early
    (tmp_path / "nodir" / Path(path).name).mkdir(parents=True)
    assert main(args + flags) == 1
    assert capsys.readouterr().err == f"error: {path}: is a directory\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["nodir", Path(path).name]


BAD_CONFIGS = [
    ("train", ["--checkpoint", "m.ckpt", "--episodes", "-1"], "episodes_total must be >= 0"),
    ("eval", ["--chains", "0"], "chains must be >= 1"),
    ("sweep", ["--steps", "-1"], "steps must be >= 0"),
    # zero-shot checks its sampler options and every command its episode options
    ("zero-shot", ["--tau", "0"], "tau must be positive"),
    ("zero-shot", ["--measure", "euclidean", "--tau", "nan"], "tau must be finite, got nan"),
    ("eval", ["--episodes", "0"], "episodes must be >= 1, got 0"),
    ("zero-shot", ["--episodes", "0"], "episodes must be >= 1, got 0"),
    ("sweep", ["--q-per", "0"], "q_per must be >= 1, got 0"),
    ("eval", ["--k-shot", "0"], "k_shot must be >= 1, got 0"),
    ("zero-shot", ["--n-way", "0"], "n_way must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "cmd, flags, message", BAD_CONFIGS, ids=[" ".join([c] + f) for c, f, _ in BAD_CONFIGS]
)
def test_invalid_config_fails_before_any_input_loads(
    workspace, tmp_path, capsys, monkeypatch, cmd, flags, message
):
    monkeypatch.chdir(tmp_path)

    def loaded(*args):
        raise AssertionError("an input was loaded")

    monkeypatch.setattr(cli, "load_dataset", loaded)
    monkeypatch.setattr(cli, "load_embeddings", loaded)
    assert main(base_args(workspace, cmd) + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("steps, reason", [
    # the only counts tested: their schedule fails to allocate at once
    ("99999999999999999999", "Maximum allowed size exceeded"),
    ("999999999999", "Unable to allocate 7.28 TiB"),
])
def test_huge_steps_names_the_option_before_any_input_loads(
    workspace, tmp_path, capsys, monkeypatch, steps, reason
):
    monkeypatch.chdir(tmp_path)

    def loaded(*args):
        raise AssertionError("an input was loaded")

    monkeypatch.setattr(cli, "load_dataset", loaded)
    assert main(base_args(workspace, "eval") + ["--steps", steps]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: steps {steps} is too many: {reason}")
    assert err.count("\n") == 1
    (tmp_path / "c.cfg").write_text(f"# command: eval\nsteps={steps}\n")
    assert main(base_args(workspace, "eval") + ["--config", "c.cfg"]) == 1
    assert capsys.readouterr().err == err.replace("error: ", "error: c.cfg:2: ")
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]  # nothing written


def test_config_value_is_checked_apart_from_the_options_it_runs_with(workspace, tmp_path):
    # step-decay=-3 alone would take the default 5 steps to a step size of
    # 12.5; with the file's one step the run is stable, so the file is valid
    cfg = tmp_path / "c.cfg"
    cfg.write_text("steps=1\nstep-decay=-3\n")
    out = tmp_path / "report.csv"
    assert main(base_args(workspace, "eval") + ["--config", str(cfg), "--out", str(out)]) == 0


def test_train_config_value_is_checked_apart_from_the_options_it_runs_with(
    workspace, tmp_path, capsys
):
    # val-episodes=0 is valid alone and fails only beside an eval-every above
    # 0, a rule across options, which names no line
    cfg = tmp_path / "c.cfg"
    cfg.write_text("val-episodes=0\n")
    args = base_args(workspace, "train") + [
        "--checkpoint", str(tmp_path / "m.ckpt"), "--episodes", "2", "--config", str(cfg),
    ]
    assert main(args + ["--eval-every", "0"]) == 0
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == "error: val_episodes must be >= 1 when eval_every > 0\n"


def test_sweep_checks_every_point_before_the_first_episode(
    workspace, tmp_path, capsys, monkeypatch
):
    episodes = []
    monkeypatch.setattr(evaluation, "sample_episode", lambda *a: episodes.append(a))
    out = tmp_path / "report.csv"
    # the error names its point: the user may have set no --chains or --step-size
    for flags, message in [
        (["--values", "1,0"], "sweep L=0: chains must be >= 1"),
        (["--axis", "M", "--values", "1,2", "--steps", "1", "--step-size", "1",
          "--step-decay=-1"],
         "sweep M=2: largest step size 2 times prior_weight 1 must be < 2"),
    ]:
        assert main(base_args(workspace, "sweep") + flags + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert episodes == []  # the points L=1 and M=1 did not run
    assert not any(tmp_path.iterdir())  # no report


@pytest.mark.parametrize("cmd", ["eval", "sweep"])
def test_k_shot_0_fails_before_the_first_episode(
    workspace, tmp_path, capsys, monkeypatch, cmd
):
    # a few-shot chain needs a support set; zero-shot has its own command
    episodes = []
    monkeypatch.setattr(evaluation, "sample_episode", lambda *a: episodes.append(a))
    out = tmp_path / "report.csv"
    assert main(base_args(workspace, cmd) + ["--k-shot", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: k_shot must be >= 1, got 0\n"
    assert episodes == []
    assert not any(tmp_path.iterdir())  # no report


def test_synth_creates_its_output_directory(tmp_path):
    out = tmp_path / "nodir" / "data"
    assert main(["synth", "--out", str(out), "--relations", "6", "--splits", "2,2,2"]) == 0
    assert (out / "instances.tsv").exists()


def test_echo_leaves_out_options_the_run_did_not_read(workspace, tmp_path):
    # a graph file replaces the k-NN build
    root, _ = workspace
    out = tmp_path / "report.csv"
    assert main(base_args(workspace, "eval") + [
        "--graph", str(root / "edges.tsv"), "--knn", "3",
        "--checkpoint", str(root / "model.ckpt"), "--episodes", "2", "--out", str(out),
    ]) == 0
    lines = (tmp_path / "report.csv.config").read_text().splitlines()
    keys = {line.split("=")[0] for line in lines}
    assert {"graph", "checkpoint", "seed", "out"} <= keys
    assert "knn" not in keys
    _, echo = cli.read_checkpoint(root / "model.ckpt")
    assert "graph" in echo and "knn" not in echo


def test_every_written_file_is_declared(tmp_path, monkeypatch):
    # each run changes exactly its Command's outputs and their .config echoes,
    # so a file written behind the output check's back fails here
    monkeypatch.chdir(tmp_path)
    inputs = [
        "--data", "d/instances.tsv", "--registry", "d/registry.tsv",
        "--embeddings", "d/embeddings.tsv", "--episodes", "2",
    ]
    runs = [
        ["synth", "--out", "d", "--relations", "15", "--dim", "4", "--per-relation", "8",
         "--splits", "5,5,5"],
        ["build-graph", "--embeddings", "d/embeddings.tsv", "--out", "edges.tsv"],
        ["train", *inputs, "--graph", "edges.tsv", "--checkpoint", "m.ckpt", "--out", "log.csv",
         "--eval-every", "1", "--val-episodes", "1"],
        ["eval", *inputs, "--checkpoint", "m.ckpt", "--out", "eval.csv"],
        ["zero-shot", *inputs, "--format", "json", "--out", "zero-shot.json"],
        ["sweep", *inputs, "--values", "1,2", "--out", "sweep.csv"],
    ]

    def files():
        return {p.as_posix(): p.read_bytes() for p in Path().rglob("*") if p.is_file()}

    for argv in runs:
        before = files()
        assert main(argv) == 0, argv
        after = files()
        assert before.keys() <= after.keys(), argv
        changed = {path for path, data in after.items() if before.get(path) != data}
        args = cli.build_parser().parse_args(argv)
        declared = {getattr(args, key) for key in cli.COMMANDS[argv[0]].outputs}
        if argv[0] == "synth":  # --out is a directory it fills and echoes into
            assert declared == set()
            declared = {"d/instances.tsv", "d/registry.tsv", "d/embeddings.tsv"}
            assert changed == declared | {"d/synth.config"}
        else:
            assert declared and changed == declared | {f"{path}.config" for path in declared}


def test_in_place_replay_rewrites_the_same_bytes(workspace, tmp_path, monkeypatch):
    # --config is read before anything is written, so it is no output: a run
    # replayed onto its own report and echo rewrites both with their bytes
    root, _ = workspace
    monkeypatch.chdir(tmp_path)
    assert main(base_args(workspace, "eval") + [
        "--checkpoint", str(root / "model.ckpt"), "--episodes", "3", "--out", "report.csv",
    ]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before.keys() == {"report.csv", "report.csv.config"}
    assert main(["eval", "--config", "report.csv.config", "--out", "report.csv"]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("value", ["d ", " d", "d\t", "d\n", "a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_string_option_that_would_not_replay_fails_before_any_work(
    tmp_path, capsys, monkeypatch, value
):
    # the echo's key=value line reads back stripped and split at line breaks
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", value, "--relations", "6", "--splits", "2,2,2"]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {value!r} would not read back from a .config echo: "
        "it has surrounding whitespace or a line break\n"
    )
    assert not any(tmp_path.iterdir())  # nothing written


def test_string_option_that_is_not_utf8_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # a command-line byte that is not UTF-8 reaches Python as a lone surrogate
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "d\udcff", "--relations", "6", "--splits", "2,2,2"]) == 1
    assert capsys.readouterr().err == "error: --out 'd\\udcff' is not UTF-8 text\n"
    assert not any(tmp_path.iterdir())  # nothing written


def test_string_option_with_inner_spaces_replays(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "my  data", "--relations", "6", "--splits", "2,2,2"]) == 0
    before = {p.name: p.read_bytes() for p in Path("my  data").iterdir()}
    assert b"out=my  data\n" in before["synth.config"]
    assert main(["synth", "--config", "my  data/synth.config"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["my  data"]
    assert {p.name: p.read_bytes() for p in Path("my  data").iterdir()} == before


def drop_lines(path, rid):
    """Rewrite a tab-separated file without the lines of relation ``rid``."""
    lines = path.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in lines if line.split("\t")[0] != str(rid)))


@pytest.mark.parametrize("dropped, named, message", [
    (("registry", "instances"), "registry", "relation ids must be contiguous from 0"),
    (("instances",), "registry", "relation 3 has no instances"),
    (("embeddings",), "embeddings", "5 embeddings for 6 relations"),
    # a registry that loses an id the instances use is reported at the registry
    (("registry",), "registry", "relation ids must be contiguous from 0"),
])
def test_inconsistent_input_files_name_their_file(tmp_path, capsys, dropped, named, message):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--relations", "6", "--splits", "2,2,2"]) == 0
    rid = 5 if dropped == ("embeddings",) else 3  # the last embedding keeps its ids contiguous
    for name in dropped:
        drop_lines(data / f"{name}.tsv", rid)
    capsys.readouterr()
    assert main([
        "eval", "--data", str(data / "instances.tsv"), "--registry", str(data / "registry.tsv"),
        "--embeddings", str(data / "embeddings.tsv"), "--n-way", "2", "--episodes", "1",
    ]) == 1
    assert capsys.readouterr().err == f"error: {data / named}.tsv: {message}\n"


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
        components = [line.split(":")[0] for line in out.splitlines()[:-1]]
        assert components == [
            "support-likelihood-dot", "support-likelihood-euclidean",
            "episode-objective-dot", "episode-objective-euclidean",
        ]
        for line in out.splitlines():
            if "max relative error" in line:
                assert float(line.rsplit(" ", 1)[1]) < 1e-4
        assert out.splitlines()[-1] == "OK: all components within 1e-04"

    @pytest.mark.parametrize("flag, value, message", [
        ("--cases", "0", "cases must be >= 1, got 0"),
        ("--d", "0", "d must be >= 1, got 0"),
        ("--n-way", "1", "n_way must be >= 2, got 1"),
        ("--k-shot", "0", "k_shot must be >= 1, got 0"),
        ("--q-per", "0", "q_per must be >= 1, got 0"),
    ])
    def test_rejects_a_shape_that_checks_nothing(self, capsys, monkeypatch, flag, value, message):
        # before any check runs: with no case, a loss identically 0, or no
        # feature, a check would crash or pass vacuously
        def unreachable(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(gradcheck, "check_support_likelihood", unreachable)
        monkeypatch.setattr(gradcheck, "check_episode_objective", unreachable)
        assert main(["grad-check", flag, value]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_nan_gradient_fails(self, capsys, monkeypatch):
        objective = trainer.episode_objective_and_grads

        def nan_bias(*args):
            loss, grads = objective(*args)
            grads["gnn.bias"][0] = float("nan")
            return loss, grads

        monkeypatch.setattr(gradcheck, "episode_objective_and_grads", nan_bias)
        assert main(["grad-check", "--seed", "1", "--d", "3"]) == 1
        out = capsys.readouterr().out
        assert "episode-objective-dot: max relative error inf" in out
        assert out.splitlines()[-1] == "FAIL: worst error inf >= 1e-04"


@pytest.mark.parametrize("command", ["eval", "zero-shot", "sweep"])
@pytest.mark.parametrize("mismatch, message", [
    ("instances", "checkpoint takes d=8 features, instances have d=6"),
    ("embeddings", "checkpoint has d_g=8, embeddings have 6"),
])
def test_checkpoint_dimensions_checked_before_episode_zero(
    workspace, tmp_path, capsys, monkeypatch, command, mismatch, message
):
    root, data = workspace
    small = tmp_path / "d6"
    assert main([
        "synth", "--out", str(small), "--relations", "25", "--dim", "6",
        "--per-relation", "12", "--splits", "10,5,10",
    ]) == 0
    inputs = {name: data / f"{name}.tsv" for name in ("instances", "registry", "embeddings")}
    inputs[mismatch] = small / f"{mismatch}.tsv"
    if mismatch == "instances":
        inputs["registry"] = small / "registry.tsv"
    episodes = []
    monkeypatch.setattr(evaluation, "sample_episode", lambda *a: episodes.append(a))
    checkpoint = root / "model.ckpt"
    argv = [
        command, "--data", str(inputs["instances"]), "--registry", str(inputs["registry"]),
        "--embeddings", str(inputs["embeddings"]), "--checkpoint", str(checkpoint),
        "--out", str(tmp_path / "report.csv"),
    ]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {checkpoint}: {message}\n"
    assert episodes == [] and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("cmd", ["eval", "train", "sweep", "zero-shot"])
def test_old_echo_with_the_encoder_option_replays(workspace, tmp_path, capsys, cmd):
    # echoes written while the encoder was an option hold encoder=identity
    # (a run without a checkpoint read it, and so did train); the key is
    # no longer read, so such an echo replays to the same bytes
    outputs = {"eval": ["--out", str(tmp_path / "r.csv")],
               "train": ["--checkpoint", str(tmp_path / "m.ckpt"),
                         "--out", str(tmp_path / "log.csv"), "--eval-every", "2"],
               "sweep": ["--out", str(tmp_path / "s.csv"), "--values", "1,3"],
               "zero-shot": ["--out", str(tmp_path / "z.csv")]}[cmd]
    assert main(base_args(workspace, cmd) + outputs + ["--episodes", "4", "--seed", "5"]) == 0
    written = {path: path.read_bytes() for path in tmp_path.iterdir()}
    echo = Path(outputs[1] + ".config").read_text().splitlines()
    old = tmp_path / "old.cfg"
    old.write_text("\n".join(echo[:1] + sorted(echo[1:] + ["encoder=identity"])) + "\n")
    capsys.readouterr()
    assert main([cmd, "--config", str(old)]) == 0
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path != old} == written


@pytest.mark.filterwarnings("error")  # numpy's warnings on the way would fail the run
@pytest.mark.parametrize("episodes", ["9", "250"])
def test_non_finite_gradient_fails_at_its_episode(tmp_path, capsys, monkeypatch, episodes):
    # episode 8's loss is finite but its gradient is not: the step that would
    # write NaN into the weights fails, and no checkpoint is written; a longer
    # run stops there too, before a later warm start fails on the NaN weights
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--relations", "25", "--dim", "16", "--per-relation", "20",
                 "--splits", "10,5,10", "--seed", "104", "--out", "d"]) == 0
    capsys.readouterr()
    assert main(["train", "--data", "d/instances.tsv", "--registry", "d/registry.tsv",
                 "--embeddings", "d/embeddings.tsv", "--episodes", episodes, "--eval-every", "0",
                 "--seed", "6", "--checkpoint", "m.ckpt"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: episode 8: non-finite gradient (replay stream seed=6 id=")
    assert not Path("m.ckpt").exists()


@pytest.mark.parametrize("cmd, flags", [
    ("eval", ["--chains", "100000000"]),
    ("train", ["--chains", "100000000", "--checkpoint", "m.ckpt"]),
    ("sweep", ["--values", "1,100000000"]),
    ("sweep", ["--axis", "M", "--values", "1,2", "--chains", "100000000"]),
])
def test_too_many_chains_fail_before_the_first_episode(
    tmp_path, capsys, monkeypatch, cmd, flags
):
    # one episode's chain step would hold 1e8 * 2 * 4 floats, more than the
    # cap: the run fails before any episode, and so allocates none of them;
    # a sweep over the steps fails at its first point, whose chains are too many
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--relations", "12", "--dim", "4", "--per-relation", "6",
                 "--splits", "4,4,4", "--seed", "2", "--out", "d"]) == 0
    capsys.readouterr()

    def unreachable(*args):
        raise AssertionError("an episode was drawn")

    monkeypatch.setattr(evaluation, "sample_episode", unreachable)
    monkeypatch.setattr(trainer, "sample_episode", unreachable)
    inputs = ["--data", "d/instances.tsv", "--registry", "d/registry.tsv",
              "--embeddings", "d/embeddings.tsv", "--knn", "3"]
    assert main([cmd, *inputs, "--n-way", "2", "--episodes", "2", *flags]) == 1
    prefix = ""
    if cmd == "sweep":
        prefix = "sweep M=1: " if "--axis" in flags else "sweep L=100000000: "
    assert capsys.readouterr() == ("", (
        f"error: {prefix}chains 100000000 is too many: one episode's chain step would hold "
        "800000000 floats, more than 134217728\n"
    ))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]  # nothing written


def test_too_many_recorded_steps_fail_before_the_first_episode(tmp_path, capsys, monkeypatch):
    # one training episode would record its trajectory, noise and support
    # probabilities, 1000 * 2 * (40001 * 4 + 20000 * 2) floats, more than the
    # cap, while its chain step holds 8000: training fails before any episode
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--relations", "12", "--dim", "4", "--per-relation", "6",
                 "--splits", "4,4,4", "--seed", "2", "--out", "d"]) == 0
    capsys.readouterr()

    def unreachable(*args):
        raise AssertionError("an episode was drawn")

    monkeypatch.setattr(trainer, "sample_episode", unreachable)
    assert main(["train", "--data", "d/instances.tsv", "--registry", "d/registry.tsv",
                 "--embeddings", "d/embeddings.tsv", "--knn", "3", "--n-way", "2",
                 "--episodes", "2", "--chains", "1000", "--steps", "20000",
                 "--checkpoint", "m.ckpt"]) == 1
    assert capsys.readouterr() == ("", (
        "error: steps 20000 is too many at chains 1000: one training episode would record "
        "400008000 floats, more than 134217728\n"
    ))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]  # nothing written


def readme_round_trip() -> tuple[list[list[str]], list[str]]:
    """README's round-trip commands as argument lists, and the lines it says they print."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A full round trip")[1].split("```bash")[1].split("```")[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.startswith("#"):
            program, *argv = shlex.split(line)
            assert program == "protograph"
            commands.append(argv)
    printed = readme.split("These commands print")[1].split("```")[1].splitlines()
    return commands, [line for line in printed if line]


def test_grad_check_prints_the_lines_readme_quotes(capsys, tmp_path, monkeypatch):
    # the whole round trip, in process from an empty directory: the train,
    # eval, zero-shot and sweep numbers move with any bit of a training step,
    # and the grad-check errors with any bit of the gradients
    commands, quoted = readme_round_trip()
    assert [argv[0] for argv in commands] == [
        "synth", "build-graph", "train", "eval", "zero-shot", "sweep", "grad-check",
    ]
    assert len(quoted) == 14
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.splitlines() == quoted

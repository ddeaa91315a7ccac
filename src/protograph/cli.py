"""Single entry-point command line for the whole pipeline.

Subcommands: synth | build-graph | train | eval | zero-shot | sweep |
grad-check. Every option can also come from a flat key=value config file
(--config); explicit flags override file values, file values override the
built-in defaults. Each run writes its fully resolved configuration next to
its outputs so the exact run can be replayed from that file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation, trainer
from .data import generate_synthetic, load_dataset, save_dataset
from .graph import build_knn_graph, load_embeddings, load_graph, save_edges, save_embeddings
from .numerics import RngStream
from .sampler import SamplerConfig
from .trainer import ModelParams, TrainConfig, init_params, read_checkpoint

_GRADCHECK_TOLERANCE = 1e-4


def _parse_config_file(path: str) -> dict[str, str]:
    out = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(raw: str, default):
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


class Options:
    """Resolved option set: defaults < config file < explicit flags."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        file_cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}
        self._values = {}
        for key, default in defaults.items():
            flag_val = getattr(args, key.replace("-", "_"), None)
            if isinstance(default, bool):
                explicit = bool(flag_val)
            else:
                explicit = flag_val is not None
            if explicit:
                value = flag_val
            elif key in file_cfg:
                value = _coerce(file_cfg[key], default if default is not None else "")
            else:
                value = default
            self._values[key] = value

    def __getitem__(self, key: str):
        return self._values[key]

    def require(self, key: str):
        value = self._values.get(key)
        if value is None:
            raise ValueError(f"missing required option --{key}")
        return value

    def echo_lines(self, command: str) -> str:
        lines = [f"# command: {command}"]
        for key in sorted(self._values):
            value = self._values[key]
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"

    def echo_dict(self) -> dict:
        return {
            k: ("true" if v is True else "false" if v is False else v)
            for k, v in self._values.items()
            if v is not None
        }


def _write_echo(opts: Options, command: str, anchor_path) -> None:
    Path(str(anchor_path) + ".config").write_text(
        opts.echo_lines(command), encoding="utf-8"
    )


_PROTOCOL_DEFAULTS = {
    "seed": 0,
    "n-way": 5,
    "k-shot": 1,
    "q-per": 5,
    "chains": 10,
    "steps": 5,
    "step-size": 0.1,
    "step-decay": 0.0,
    "alpha": 1.0,
    "beta": 1.0,
    "tau": 10.0,
    "measure": "dot",
    "knn": 10,
    "no-noise": False,
    "no-graph-prior": False,
    "threads": 1,
}

_PATH_DEFAULTS = {
    "data": None,
    "registry": None,
    "embeddings": None,
    "graph": None,
    "checkpoint": None,
    "out": None,
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--data", help="instance file (tab-separated)")
    p.add_argument("--registry", help="relation registry file")
    p.add_argument("--embeddings", help="relation embedding file")
    p.add_argument("--graph", help="edge-list file (else a k-NN graph is built)")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--out", help="output path")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-way", type=int)
    p.add_argument("--k-shot", type=int)
    p.add_argument("--q-per", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--chains", type=int, help="posterior samples L")
    p.add_argument("--steps", type=int, help="update steps M")
    p.add_argument("--step-size", type=float, help="initial step size")
    p.add_argument("--step-decay", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--measure", choices=["dot", "euclidean"])
    p.add_argument("--knn", type=int, help="neighbors per node when building the graph")
    p.add_argument("--lr", type=float)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--no-graph-prior", action="store_true")
    p.add_argument("--threads", type=int)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--split", choices=["train", "val", "test"])
    p.add_argument("--encoder", choices=["identity", "linear"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protograph",
        description="Graph-regularized Bayesian meta-learning for few-shot classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset + embeddings")
    _add_common_flags(p)
    p.add_argument("--relations", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--cluster-scale", type=float)
    p.add_argument("--noise-scale", type=float)
    p.add_argument("--per-relation", type=int)
    p.add_argument("--embed-noise", type=float)
    p.add_argument("--splits", help="train,val,test relation counts, e.g. 10,5,10")

    p = sub.add_parser("build-graph", help="build the k-NN relation graph")
    _add_common_flags(p)

    p = sub.add_parser("train", help="episodic training")
    _add_common_flags(p)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--val-episodes", type=int)
    p.add_argument("--timing", action="store_true", help="record wall_ms in the log")

    p = sub.add_parser("eval", help="few-shot evaluation")
    _add_common_flags(p)

    p = sub.add_parser("zero-shot", help="prior-mean classification, no support set")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="sensitivity sweep over L or M")
    _add_common_flags(p)
    p.add_argument("--axis", choices=["L", "M"])
    p.add_argument("--values", help="comma-separated sweep values, e.g. 1,2,5,10")

    p = sub.add_parser("grad-check", help="finite-difference gradient suites")
    _add_common_flags(p)
    p.add_argument("--d", type=int, help="feature dimension of the check instances")
    p.add_argument("--cases", type=int, help="random instances per component")

    return parser


def _load_graph_and_data(opts: Options):
    dataset = load_dataset(opts.require("data"), opts.require("registry"))
    embeddings = load_embeddings(opts.require("embeddings"))
    if embeddings.shape[0] != dataset.num_relations:
        raise ValueError(
            f"{embeddings.shape[0]} embeddings for {dataset.num_relations} relations"
        )
    if opts["graph"]:
        g = load_graph(embeddings, opts["graph"])
    else:
        g = build_knn_graph(embeddings, opts["knn"])
    return dataset, g


def _sampler_config(opts: Options) -> SamplerConfig:
    return SamplerConfig(
        chains=opts["chains"],
        steps=opts["steps"],
        step_size=opts["step-size"],
        step_decay=opts["step-decay"],
        alpha=opts["alpha"],
        beta=opts["beta"],
        tau=opts["tau"],
        measure=opts["measure"],
        noise_enabled=not opts["no-noise"],
        graph_prior=not opts["no-graph-prior"],
    )


def _threads(opts: Options) -> int:
    if opts["threads"] < 1:
        raise ValueError("--threads must be >= 1")
    return opts["threads"]


def _params_for_eval(opts: Options, dataset, g) -> ModelParams:
    if opts["checkpoint"]:
        params, _ = read_checkpoint(opts["checkpoint"])
        return params
    return init_params(
        graph_dim=g.feature_dim,
        output_dim=dataset.d,
        rng=RngStream(opts["seed"]).child(0),
        encoder_mode=opts["encoder"] or "identity",
        encoder_input_dim=dataset.d,
    )


def _cmd_synth(args) -> int:
    opts = Options(args, {
        **_PATH_DEFAULTS, "seed": 0, "relations": 25, "dim": 8,
        "cluster-scale": 10.0, "noise-scale": 1.0, "per-relation": 20,
        "embed-noise": 0.01, "splits": None,
    })
    out_dir = Path(opts.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    split_counts = None
    if opts["splits"]:
        split_counts = tuple(int(v) for v in str(opts["splits"]).split(","))
    dataset, embeddings = generate_synthetic(
        opts["relations"], opts["dim"], opts["cluster-scale"], opts["noise-scale"],
        opts["per-relation"], RngStream(opts["seed"]),
        embed_noise=opts["embed-noise"], split_counts=split_counts,
    )
    save_dataset(dataset, out_dir / "instances.tsv", out_dir / "registry.tsv")
    save_embeddings(embeddings, out_dir / "embeddings.tsv")
    _write_echo(opts, "synth", out_dir / "synth")
    print(f"wrote {dataset.num_relations} relations to {out_dir}")
    return 0


def _cmd_build_graph(args) -> int:
    opts = Options(args, {**_PATH_DEFAULTS, "knn": 10, "seed": 0})
    embeddings = load_embeddings(opts.require("embeddings"))
    g = build_knn_graph(embeddings, opts["knn"])
    out = opts.require("out")
    save_edges(g, out)
    _write_echo(opts, "build-graph", out)
    print(f"wrote {len(g.edges)} edges to {out}")
    return 0


def _cmd_train(args) -> int:
    opts = Options(args, {
        **_PATH_DEFAULTS, **_PROTOCOL_DEFAULTS,
        "episodes": 500, "lr": 0.1, "eval-every": 100, "val-episodes": 20,
        "encoder": "identity", "timing": False, "format": "csv", "split": "train",
    })
    dataset, g = _load_graph_and_data(opts)
    checkpoint = opts.require("checkpoint")
    config = TrainConfig(
        episodes_total=opts["episodes"],
        n_way=opts["n-way"],
        k_shot=opts["k-shot"],
        q_per=opts["q-per"],
        learning_rate=opts["lr"],
        sampler=_sampler_config(opts),
        eval_every=opts["eval-every"],
        val_episodes=opts["val-episodes"],
        checkpoint_path=checkpoint,
        log_path=opts["out"],
        seed=opts["seed"],
        encoder_mode=opts["encoder"],
        record_timing=opts["timing"],
    )
    _, rows = trainer.train(dataset, g, config, config_echo=opts.echo_dict())
    _write_echo(opts, "train", checkpoint)
    if opts["out"]:
        _write_echo(opts, "train", opts["out"])
    last = rows[-1].loss if rows else float("nan")
    print(f"trained {len(rows)} episodes, final loss {last:.6f}, checkpoint {checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    opts = Options(args, {
        **_PATH_DEFAULTS, **_PROTOCOL_DEFAULTS,
        "episodes": 100, "lr": 0.1, "format": "csv", "split": "test",
        "encoder": "identity",
    })
    threads = _threads(opts)
    dataset, g = _load_graph_and_data(opts)
    params = _params_for_eval(opts, dataset, g)
    report = evaluation.evaluate_fewshot(
        dataset, opts["split"], g, params,
        opts["n-way"], opts["k-shot"], opts["q-per"], opts["episodes"],
        _sampler_config(opts), RngStream(opts["seed"]), threads=threads,
    )
    out = opts["out"]
    if out:
        evaluation.emit_report([report], out, opts["format"])
        _write_echo(opts, "eval", out)
    print(
        f"{opts['n-way']}-way {opts['k-shot']}-shot [{opts['split']}] "
        f"accuracy {report.accuracy:.4f} +- {report.ci95:.4f} over {report.episodes} episodes"
    )
    return 0


def _cmd_zero_shot(args) -> int:
    opts = Options(args, {
        **_PATH_DEFAULTS, **_PROTOCOL_DEFAULTS,
        "episodes": 100, "format": "csv", "split": "test", "encoder": "identity",
    })
    threads = _threads(opts)
    dataset, g = _load_graph_and_data(opts)
    params = _params_for_eval(opts, dataset, g)
    report = evaluation.evaluate_zeroshot(
        dataset, opts["split"], g, params,
        opts["n-way"], opts["q-per"], opts["episodes"],
        RngStream(opts["seed"]), measure=opts["measure"], tau=opts["tau"],
        threads=threads,
    )
    out = opts["out"]
    if out:
        evaluation.emit_report([report], out, opts["format"])
        _write_echo(opts, "zero-shot", out)
    print(
        f"{opts['n-way']}-way zero-shot [{opts['split']}] "
        f"accuracy {report.accuracy:.4f} +- {report.ci95:.4f} over {report.episodes} episodes"
    )
    return 0


def _cmd_sweep(args) -> int:
    opts = Options(args, {
        **_PATH_DEFAULTS, **_PROTOCOL_DEFAULTS,
        "episodes": 100, "format": "csv", "split": "test", "encoder": "identity",
        "axis": "L", "values": "1,2,5,10",
    })
    threads = _threads(opts)
    dataset, g = _load_graph_and_data(opts)
    params = _params_for_eval(opts, dataset, g)
    values = [int(v) for v in str(opts["values"]).split(",")]
    reports = evaluation.sensitivity_sweep(
        opts["axis"], values, dataset, opts["split"], g, params,
        opts["n-way"], opts["k-shot"], opts["q-per"], opts["episodes"],
        _sampler_config(opts), RngStream(opts["seed"]), threads=threads,
    )
    out = opts["out"]
    if out:
        evaluation.emit_report(reports, out, opts["format"])
        _write_echo(opts, "sweep", out)
    for rep in reports:
        print(f"{rep.setting}: accuracy {rep.accuracy:.4f} +- {rep.ci95:.4f}")
    return 0


def _cmd_grad_check(args) -> int:
    opts = Options(args, {
        **_PROTOCOL_DEFAULTS, "d": 3, "cases": 5, "chains": 2, "steps": 2,
        "k-shot": 1, "n-way": 2, "q-per": 2,
    })
    from .gradcheck import run_gradient_checks

    results = run_gradient_checks(
        seed=opts["seed"], d=opts["d"], cases=opts["cases"],
        n_way=opts["n-way"], k_shot=opts["k-shot"], q_per=opts["q-per"],
        chains=opts["chains"], steps=opts["steps"], tau=opts["tau"],
    )
    worst = 0.0
    for name, err in results.items():
        print(f"{name}: max relative error {err:.3e}")
        worst = max(worst, err)
    if worst >= _GRADCHECK_TOLERANCE:
        print(f"FAIL: worst error {worst:.3e} >= {_GRADCHECK_TOLERANCE:.0e}")
        return 1
    print(f"OK: all components within {_GRADCHECK_TOLERANCE:.0e}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "build-graph": _cmd_build_graph,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "zero-shot": _cmd_zero_shot,
    "sweep": _cmd_sweep,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

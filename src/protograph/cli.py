"""Single entry-point command line for the whole pipeline.

Subcommands: synth | build-graph | train | eval | zero-shot | sweep |
grad-check. Every option is declared once, in OPTIONS, and each subcommand
accepts exactly the options it reads (COMMANDS). A value comes from a flag or
a flat key=value config file (--config), its text converted in _convert:
flags override file values, file values the defaults, and file keys the
subcommand does not read are ignored. Each subcommand declares the path
options it writes (outputs); main checks them and their <path>.config echoes
before any work, and after the run writes each echo for --config to replay.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import evaluation, trainer
from .data import check_episode_shape, generate_synthetic, load_dataset, read_lines
from .data import save_dataset, write_lines
from .graph import build_knn_graph, load_embeddings, load_graph, save_edges, save_embeddings
from .numerics import RngStream
from .sampler import SamplerConfig
from .trainer import ModelParams, TrainConfig, read_checkpoint

_GRADCHECK_TOLERANCE = 1e-4


class Option(NamedTuple):
    kind: type  # str, int, float, or bool for an on/off switch
    default: object
    help: str
    choices: tuple[str, ...] | None = None


OPTIONS = {
    # inputs and outputs
    "data": Option(str, None, "instance file (tab-separated)"),
    "registry": Option(str, None, "relation registry file"),
    "embeddings": Option(str, None, "relation embedding file"),
    "graph": Option(str, None, "edge-list file (else a k-NN graph is built)"),
    "knn": Option(int, 10, "neighbors per node when building the graph"),
    "checkpoint": Option(str, None, "model checkpoint path"),
    "out": Option(str, None, "output path"),
    "format": Option(str, "csv", "report format", ("csv", "json")),
    "seed": Option(int, TrainConfig.seed, "seed of every random stream"),
    # episodes and model
    "split": Option(str, "test", "split the episodes are drawn from", ("train", "val", "test")),
    "n-way": Option(int, TrainConfig.n_way, "classes per episode N"),
    "k-shot": Option(int, TrainConfig.k_shot, "support instances per class K"),
    "q-per": Option(int, TrainConfig.q_per, "queries per class"),
    "episodes": Option(int, 100, "number of episodes"),
    # sampler
    "chains": Option(int, SamplerConfig.chains, "posterior samples L"),
    "steps": Option(int, SamplerConfig.steps, "update steps M"),
    "step-size": Option(float, SamplerConfig.step_size, "initial step size"),
    "step-decay": Option(float, SamplerConfig.step_decay, "step size decay exponent"),
    "alpha": Option(float, SamplerConfig.alpha, "weight of the relation summary in the warm start"),
    "beta": Option(float, SamplerConfig.beta, "weight of the grand support mean in the warm start"),
    "tau": Option(float, SamplerConfig.tau, "softmax temperature"),
    "no-noise": Option(bool, not SamplerConfig.noise_enabled, "turn the Langevin noise off"),
    "no-graph-prior": Option(bool, not SamplerConfig.graph_prior,
                             "replace the graph summaries with zeros"),
    # training
    "lr": Option(float, TrainConfig.learning_rate, "SGD learning rate"),
    "eval-every": Option(int, TrainConfig.eval_every,
                         "episodes between validations and checkpoints (0: never)"),
    "val-episodes": Option(int, TrainConfig.val_episodes, "episodes per validation"),
    # synth
    "relations": Option(int, 25, "number of relations"),
    "dim": Option(int, 8, "feature dimension"),
    "cluster-scale": Option(float, 10.0, "spread of the relation centers"),
    "noise-scale": Option(float, 1.0, "spread of the instances around their center"),
    "per-relation": Option(int, 20, "instances per relation"),
    "embed-noise": Option(float, 0.01, "noise of the relation embeddings"),
    "splits": Option(str, None, "train,val,test relation counts, e.g. 10,5,10"),
    # sweep
    "axis": Option(str, "L", "swept parameter", ("L", "M")),
    "values": Option(str, "1,2,5,10", "comma-separated sweep values"),
    # grad-check
    "d": Option(int, 3, "feature dimension of the check instances"),
    "cases": Option(int, 5, "random instances per component"),
}

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
# a config's own checks of one field: steps=0 leaves out the step-size bound
# and eval_every=0 the val_episodes rule, the checks across fields
_ALONE = {SamplerConfig: {"steps": 0}, TrainConfig: {"episodes_total": 0, "eval_every": 0}}


def _parse_config_file(path: str) -> dict[str, tuple[str, str]]:
    """key -> (value, "path:line") of a flat key=value file."""
    out = {}
    for lineno, line in read_lines(path):
        if line.lstrip().startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate option {key!r}")
        out[key] = (value, f"{path}:{lineno}")
    return out


def _convert(key: str, raw: str, name: str, where: str):
    """Option ``key``'s value from the text of a flag (``where`` empty) or of a
    config line (``where`` its path:line), checked alone and named ``name``."""
    opt = OPTIONS[key]
    if opt.kind is bool and raw.lower() not in _TRUE + _FALSE:
        raise ValueError(f"{name} must be true or false")
    try:
        value = raw.lower() in _TRUE if opt.kind is bool else opt.kind(raw)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{name} must be one of {', '.join(opt.choices)}")
    field = "learning_rate" if key == "lr" else key.replace("-", "_")
    for config, alone in _ALONE.items():
        if field in config.__dataclass_fields__:
            try:
                config(**{**alone, field: value})
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}" if where else str(exc)) from None
    # a stream key is 64 bits: RngStream would run a wider seed's streams masked
    if key == "seed" and not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in 0..2**64-1, got {value}")
    # a command-line byte that is not UTF-8 arrives as a lone surrogate,
    # which no UTF-8 file, the .config echo included, can hold
    if isinstance(value, str) and value.encode("utf-8", "replace").decode() != value:
        raise ValueError(f"{name} {value!r} is not UTF-8 text")
    # the .config echo writes key=value on one line, which reads back stripped
    if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
        raise ValueError(f"{name} {value!r} would not read back from a .config "
                         "echo: it has surrounding whitespace or a line break")
    return value


class Options:
    """One subcommand's resolved options: defaults < config file < explicit flags."""

    def __init__(self, args: argparse.Namespace, command: Command):
        self.command = args.command
        from_file = _parse_config_file(args.config) if args.config else {}
        self._values = {}
        self.names = {}  # key -> how a message names the value: --key, or path:line: key
        self._read = set()  # the options the run asked for, the ones it echoes
        for key in command.options:
            raw, where = getattr(args, key.replace("-", "_")), ""
            if raw is None:
                raw, where = from_file.get(key, (None, ""))
            self.names[key] = f"{where}: {key}" if where else f"--{key}"
            self._values[key] = (command.defaults.get(key, OPTIONS[key].default) if raw is None
                                 else _convert(key, raw, self.names[key], where))

    def __getitem__(self, key: str):
        self._read.add(key)
        return self._values[key]

    def require(self, key: str):
        value = self[key]
        if value is None:
            raise ValueError(f"missing required option --{key}")
        return value

    def echo_dict(self) -> dict:
        """The options the run has read that are set, switches as true/false."""
        return {
            k: ("true" if v is True else "false" if v is False else v)
            for k, v in self._values.items()
            if v is not None and k in self._read
        }

    def check_output_dirs(self, outputs: tuple[str, ...]) -> None:
        """Fail before any work when a file the run writes, a set option of
        ``outputs`` or its .config echo, is a directory, its directory is
        missing, or it names the same file as an input or an earlier one."""
        named = {}  # resolved path -> the first file naming it, the inputs first
        for key in _PATHS:
            if self._values.get(key) and key not in outputs:
                named.setdefault(Path(self._values[key]).resolve(), f"--{key}")
        for key in filter(self._values.get, outputs):
            path = self._values[key]
            if Path(path).is_dir():
                raise ValueError(f"{path}: is a directory")
            if not Path(path).parent.is_dir():
                raise ValueError(f"{path}: directory {Path(path).parent} does not exist")
            for file, name in (path, f"--{key}"), (f"{path}.config", f"--{key}'s .config echo"):
                if Path(file).is_dir():  # only the echo: the output was checked above
                    raise ValueError(f"{file}: {name} is a directory")
                first = named.setdefault(Path(file).resolve(), name)
                if first != name:
                    raise ValueError(f"{file}: {name} names the same file as {first}")

    def write_echo(self, anchor_path) -> None:
        echo = self.echo_dict()
        lines = [f"# command: {self.command}"] + [f"{k}={echo[k]}" for k in sorted(echo)]
        write_lines(f"{anchor_path}.config", lines)


def _load_graph_and_data(opts: Options):
    dataset = load_dataset(opts.require("data"), opts.require("registry"))
    embeddings = load_embeddings(opts.require("embeddings"))
    if embeddings.shape[0] != dataset.num_relations:
        raise ValueError(
            f"{opts['embeddings']}: {embeddings.shape[0]} embeddings for "
            f"{dataset.num_relations} relations"
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
        noise_enabled=not opts["no-noise"],
        graph_prior=not opts["no-graph-prior"],
    )


def _params_for_eval(opts: Options, dataset, g) -> ModelParams:
    path = opts["checkpoint"]
    if path:
        # checked here, so that a mismatch names the checkpoint before episode 0
        params, _ = read_checkpoint(path)
        d = params.gnn.output_dim
        if d != dataset.d:
            raise ValueError(
                f"{path}: checkpoint takes d={d} features, instances have d={dataset.d}"
            )
        d_g = params.gnn.input_dim
        if d_g != g.feature_dim:
            raise ValueError(f"{path}: checkpoint has d_g={d_g}, embeddings have {g.feature_dim}")
        return params
    return trainer.initial_params(opts["seed"], g.feature_dim, dataset.d)


def _write_report(opts: Options, reports) -> None:
    if opts["out"]:
        evaluation.emit_report(reports, opts["out"], opts["format"])


def _int_list(opts: Options, key: str) -> list[int]:
    """The comma-separated integers of option ``key``."""
    out = []
    for item in opts[key].split(","):
        try:
            out.append(int(item))
        except ValueError:
            raise ValueError(f"{opts.names[key]} item {item!r} is not an integer") from None
    return out


def _cmd_synth(opts: Options) -> int:
    split_counts = tuple(_int_list(opts, "splits")) if opts["splits"] else None
    out_dir = Path(opts.require("out"))
    dataset, embeddings = generate_synthetic(
        opts["relations"], opts["dim"], opts["cluster-scale"], opts["noise-scale"],
        opts["per-relation"], RngStream(opts["seed"]),
        embed_noise=opts["embed-noise"], split_counts=split_counts,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_dir / "instances.tsv", out_dir / "registry.tsv")
    save_embeddings(embeddings, out_dir / "embeddings.tsv")
    opts.write_echo(out_dir / "synth")
    print(f"wrote {dataset.num_relations} relations to {out_dir}")
    return 0


def _cmd_build_graph(opts: Options) -> int:
    g = build_knn_graph(load_embeddings(opts.require("embeddings")), opts["knn"])
    save_edges(g, opts.require("out"))
    print(f"wrote {len(g.edges)} edges to {opts['out']}")
    return 0


def _cmd_train(opts: Options) -> int:
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
    )
    dataset, g = _load_graph_and_data(opts)
    _, rows = trainer.train(dataset, g, config, config_echo=opts.echo_dict())
    last = rows[-1].loss if rows else float("nan")
    print(f"trained {len(rows)} episodes, final loss {last:.6f}, checkpoint {checkpoint}")
    return 0


def _cmd_eval(opts: Options) -> int:
    sampler = _sampler_config(opts)
    check_episode_shape(opts["n-way"], opts["k-shot"], opts["q-per"], support=True,
                        episodes=opts["episodes"])
    dataset, g = _load_graph_and_data(opts)
    params = _params_for_eval(opts, dataset, g)
    report = evaluation.evaluate_fewshot(
        dataset, opts["split"], g, params,
        opts["n-way"], opts["k-shot"], opts["q-per"], opts["episodes"],
        sampler, RngStream(opts["seed"]),
    )
    _write_report(opts, [report])
    print(
        f"{opts['n-way']}-way {opts['k-shot']}-shot [{opts['split']}] "
        f"accuracy {report.accuracy:.4f} +- {report.ci95:.4f} over {report.episodes} episodes"
    )
    return 0


def _cmd_zero_shot(opts: Options) -> int:
    check_episode_shape(opts["n-way"], 0, opts["q-per"], episodes=opts["episodes"])
    dataset, g = _load_graph_and_data(opts)
    params = _params_for_eval(opts, dataset, g)
    report = evaluation.evaluate_zeroshot(
        dataset, opts["split"], g, params,
        opts["n-way"], opts["q-per"], opts["episodes"],
        RngStream(opts["seed"]), tau=opts["tau"],
    )
    _write_report(opts, [report])
    print(
        f"{opts['n-way']}-way zero-shot [{opts['split']}] "
        f"accuracy {report.accuracy:.4f} +- {report.ci95:.4f} over {report.episodes} episodes"
    )
    return 0


def _cmd_sweep(opts: Options) -> int:
    values = _int_list(opts, "values")
    sampler = _sampler_config(opts)
    check_episode_shape(opts["n-way"], opts["k-shot"], opts["q-per"], support=True,
                        episodes=opts["episodes"])
    dataset, g = _load_graph_and_data(opts)
    params = _params_for_eval(opts, dataset, g)
    reports = evaluation.sensitivity_sweep(
        opts["axis"], values, dataset, opts["split"], g, params,
        opts["n-way"], opts["k-shot"], opts["q-per"], opts["episodes"],
        sampler, RngStream(opts["seed"]),
    )
    _write_report(opts, reports)
    for rep in reports:
        print(f"{rep.setting}: accuracy {rep.accuracy:.4f} +- {rep.ci95:.4f}")
    return 0


def _cmd_grad_check(opts: Options) -> int:
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


class Command(NamedTuple):
    run: Callable[[Options], int]
    help: str
    options: tuple[str, ...]  # exactly the options run() reads
    outputs: tuple[str, ...] = ()  # the path options whose files run() writes
    defaults: dict = {}  # where the subcommand's default differs from OPTIONS


_INPUTS = ("data", "registry", "embeddings", "graph", "knn", "checkpoint", "out", "seed")
_PATHS = ("data", "registry", "embeddings", "graph", "checkpoint", "out")
_EPISODE = ("n-way", "k-shot", "q-per", "episodes")
_SAMPLER = (
    "chains", "steps", "step-size", "step-decay", "alpha", "beta", "tau", "no-noise",
    "no-graph-prior",
)
_EVAL = _INPUTS + _EPISODE + _SAMPLER + ("split", "format")

COMMANDS = {
    "synth": Command(
        _cmd_synth, "generate a synthetic dataset + embeddings",
        ("out", "seed", "relations", "dim", "cluster-scale", "noise-scale",
         "per-relation", "embed-noise", "splits"),
    ),
    "build-graph": Command(
        _cmd_build_graph, "build the k-NN relation graph", ("embeddings", "knn", "out"), ("out",),
    ),
    "train": Command(
        _cmd_train, "episodic training",
        _INPUTS + _EPISODE + _SAMPLER + ("lr", "eval-every", "val-episodes"),
        ("checkpoint", "out"), {"episodes": 500},
    ),
    "eval": Command(_cmd_eval, "few-shot evaluation", _EVAL, ("out",)),
    "zero-shot": Command(
        _cmd_zero_shot, "prior-mean classification, no support set",
        _INPUTS + ("n-way", "q-per", "episodes", "tau", "split", "format"),
        ("out",),
    ),
    "sweep": Command(
        _cmd_sweep, "sensitivity sweep over L or M", _EVAL + ("axis", "values"), ("out",),
    ),
    "grad-check": Command(
        _cmd_grad_check, "finite-difference gradient suites",
        ("seed", "d", "cases", "n-way", "k-shot", "q-per", "chains", "steps", "tau"),
        # the small shape N=2, K=1, Q=2, L=2, M=2
        defaults={"n-way": 2, "q-per": 2, "chains": 2, "steps": 2},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protograph",
        description="Graph-regularized Bayesian meta-learning for few-shot classification",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        # argparse reads an argument that starts with - as a flag unless this
        # matches it; its own pattern matches -1 and -.5, not -1e-3 or -inf
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for key in command.options:
            opt = OPTIONS[key]
            if opt.kind is bool:
                p.add_argument(f"--{key}", action="store_const", const="true", help=opt.help)
                continue
            default = command.defaults.get(key, opt.default)
            p.add_argument(
                f"--{key}", metavar=opt.choices and "{" + ",".join(opt.choices) + "}",
                help=opt.help if default is None else f"{opt.help} (default: {default})",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        opts = Options(args, command)
        opts.check_output_dirs(command.outputs)
        status = command.run(opts)
        for path in filter(None, (opts[key] for key in command.outputs)):
            opts.write_echo(path)
        return status
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a shape too big to allocate
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

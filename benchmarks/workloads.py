"""The benchmark's workloads: input generation, set-up, and one unit of work.

A unit is one call of the library entry point that the matching CLI command
makes, with the outputs that command writes: ``train`` (checkpoint and
training log), ``evaluate_fewshot`` or ``evaluate_zeroshot`` followed by
``emit_report`` (report CSV). Each unit runs with its own seed, so no two
units do the same work.

Run as a script, ``python3 benchmarks/workloads.py <workload> <seed> <dir>``
writes the input files of one workload into ``dir``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from protograph import data, evaluation, graph, trainer
from protograph.likelihood import EncoderParams
from protograph.numerics import RngStream
from protograph.prior import GnnParams
from protograph.sampler import SamplerConfig

CLUSTER_SCALE = 10.0
NOISE_SCALE = 1.0
# A fifth of the CLI's default of 0.1. Plain SGD takes the first, largest
# gradients unclipped, and at 0.1 (and, more rarely, 0.05) a training can
# blow up until a query's Monte Carlo probability underflows and the
# training aborts. At 0.02 none of 1,600 trainings aborted, and in the 600
# whose losses were kept no episode loss exceeded the largest loss at
# initialisation (47; one query's probability underflows near 700).
LEARNING_RATE = 0.02


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" | "eval" | "zero-shot", as the CLI subcommand
    relations: int
    dim: int
    per_relation: int
    splits: tuple[int, int, int]
    n_way: int
    k_shot: int
    q_per: int
    unit_episodes: int
    setup_reps: int
    # episodes of the CLI cross-check, whose process gives peak_rss_mb
    cli_episodes: int
    # the kind of calibration slice that matches the workload's work:
    # "small" (interpreter-bound small arrays) or "large" (array products)
    calibration: str = "small"
    chains: int = 10
    steps: int = 5
    knn: int = 10
    eval_every: int = 100
    val_episodes: int = 20

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(chains=self.chains, steps=self.steps)

    def expected_calls(self) -> dict[str, float]:
        """Calls per timed episode that the workload's shape implies."""
        n, q, lm = self.n_way, self.q_per, self.chains * self.steps
        if self.kind == "zero-shot":
            return {
                "data.sample_episode": 1,
                "prior.summary_rows": 1,
                "likelihood.encode_batch": 1,
                "likelihood.class_log_probs": n * q,
                "likelihood.pairwise_logits": n * q,
                "numerics.log_softmax_with_temperature": n * q,
                "numerics.generator": 1,
            }
        # one posterior_predict: sample, summaries, stats, warm start, chain,
        # prediction; encode_batch for support stats, chain and queries
        predict = {
            "data.sample_episode": 1,
            "prior.summary_rows": 1,
            "sampler.posterior_predict": 1,
            "sampler.support_statistics": 1,
            "sampler.init_prototypes": 1,
            "sampler.sgld_chain": 1,
            "sampler.predict_queries": 1,
            "likelihood.encode_batch": 3,
            "likelihood.pairwise_logits": self.chains,
            "numerics.softmax_with_temperature": self.steps + 1,
            "numerics.standard_normal_sample": lm,
            "numerics.generator": lm + 1,
        }
        if self.kind == "eval":
            return predict
        # a training episode runs the same forward inline (summaries computed
        # in the trainer), plus validation episodes at the ratio r
        e = self.unit_episodes
        validations = e // self.eval_every
        r = validations * self.val_episodes / e
        out = {name: calls * r for name, calls in predict.items()}
        train_episode = {
            "data.sample_episode": 1,
            "trainer.episode_objective_and_grads": 1,
            "sampler.init_prototypes": 1,
            "sampler.sgld_chain": 1,
            "likelihood.encode_batch": 3,
            "likelihood.pairwise_logits": self.chains,
            "numerics.softmax_with_temperature": self.steps + 1,
            "numerics.standard_normal_sample": lm,
            "numerics.generator": lm + 1,
        }
        for name, calls in train_episode.items():
            out[name] = out.get(name, 0) + calls
        out["numerics.generator"] += 1 / e  # parameter init at the start of train()
        out["trainer.write_checkpoint"] = (validations + 1) / e
        return out


README = dict(relations=25, dim=16, per_relation=20, splits=(10, 5, 10))

WORKLOADS = {
    "train-5w1s": Workload(
        kind="train", **README, n_way=5, k_shot=1, q_per=5,
        unit_episodes=100, setup_reps=100, cli_episodes=100,
    ),
    "eval-5w1s": Workload(
        kind="eval", **README, n_way=5, k_shot=1, q_per=5,
        unit_episodes=40, setup_reps=100, cli_episodes=300,
    ),
    "eval-20w5s-wide": Workload(
        kind="eval", relations=200, dim=64, per_relation=40, splits=(100, 40, 60),
        n_way=20, k_shot=5, q_per=10, steps=20, unit_episodes=2, setup_reps=20,
        cli_episodes=60, calibration="large",
    ),
    # README generator settings in a 100-relation world: with 25 relations the
    # zero-shot accuracy spreads by about 6% from seed to seed (0.85 to 1.0),
    # with 100 it spreads by 0.3%, so accuracy can carry a tight bound.
    "zeroshot-5w": Workload(
        kind="zero-shot", relations=100, dim=16, per_relation=20, splits=(40, 20, 40),
        n_way=5, k_shot=0, q_per=5, unit_episodes=100, setup_reps=80,
        cli_episodes=300,
    ),
}


def input_files(work: Path) -> dict[str, Path]:
    return {
        "instances": work / "instances.tsv",
        "registry": work / "registry.tsv",
        "embeddings": work / "embeddings.tsv",
        "edges": work / "edges.tsv",
        "checkpoint": work / "model.ckpt",
    }


def output_names(spec: Workload) -> tuple[str, ...]:
    return ("model.ckpt", "train_log.csv") if spec.kind == "train" else ("report.csv",)


def prepare(spec: Workload, seed: int, work: Path) -> None:
    """Write the workload's input files, a pure function of the seed."""
    files = input_files(work)
    dataset, embeddings = data.generate_synthetic(
        spec.relations, spec.dim, CLUSTER_SCALE, NOISE_SCALE, spec.per_relation,
        RngStream(seed), split_counts=spec.splits,
    )
    data.save_dataset(dataset, files["instances"], files["registry"])
    graph.save_embeddings(embeddings, files["embeddings"])
    graph.save_edges(graph.build_knn_graph(embeddings, spec.knn), files["edges"])
    if spec.kind != "train":
        # identity graph layer: the prior means are the propagated relation
        # embeddings, which makes zero-shot prediction meaningful
        params = trainer.ModelParams(
            gnn=GnnParams(weight=np.eye(spec.dim), bias=np.zeros(spec.dim)),
            encoder=EncoderParams(mode="identity"),
        )
        trainer.write_checkpoint(params, files["checkpoint"])


@dataclass
class Inputs:
    dataset: data.Dataset
    graph: graph.RelationGraph
    params: trainer.ModelParams | None


def load_inputs(spec: Workload, files: dict[str, Path]) -> Inputs:
    """Load the inputs the way the CLI does before its loop.

    Every call goes through the module attribute, so a tracer that patched
    it sees the call.
    """
    dataset = data.load_dataset(files["instances"], files["registry"])
    embeddings = graph.load_embeddings(files["embeddings"])
    g = graph.load_graph(embeddings, files["edges"])
    params = None
    if spec.kind != "train":
        params, _ = trainer.read_checkpoint(files["checkpoint"])
    g.propagated(params.gnn.hops if params else 1)
    return Inputs(dataset, g, params)


def run_unit(spec: Workload, inputs: Inputs, seed: int, out: Path, episodes: int,
             config_echo: dict | None = None) -> float:
    """One unit of work writing its outputs into ``out``; returns its accuracy."""
    if spec.kind == "train":
        config = trainer.TrainConfig(
            episodes_total=episodes, n_way=spec.n_way, k_shot=spec.k_shot,
            q_per=spec.q_per, learning_rate=LEARNING_RATE, sampler=spec.sampler(),
            eval_every=spec.eval_every, val_episodes=spec.val_episodes,
            checkpoint_path=out / "model.ckpt", log_path=out / "train_log.csv", seed=seed,
        )
        _, rows = trainer.train(inputs.dataset, inputs.graph, config, config_echo=config_echo)
        return [r.val_accuracy for r in rows if r.val_accuracy is not None][-1]
    if spec.kind == "eval":
        report = evaluation.evaluate_fewshot(
            inputs.dataset, "test", inputs.graph, inputs.params, spec.n_way, spec.k_shot,
            spec.q_per, episodes, spec.sampler(), RngStream(seed),
        )
    else:
        report = evaluation.evaluate_zeroshot(
            inputs.dataset, "test", inputs.graph, inputs.params, spec.n_way, spec.q_per,
            episodes, RngStream(seed),
        )
    evaluation.emit_report([report], out / "report.csv", "csv")
    return report.accuracy


def cli_argv(spec: Workload, files: dict[str, Path], seed: int, episodes: int,
             out: Path) -> list[str]:
    """The CLI command that writes what ``run_unit`` writes, into ``out``."""
    argv = [
        sys.executable, "-m", "protograph.cli", spec.kind,
        "--data", str(files["instances"]), "--registry", str(files["registry"]),
        "--embeddings", str(files["embeddings"]), "--graph", str(files["edges"]),
        "--seed", str(seed), "--n-way", str(spec.n_way), "--q-per", str(spec.q_per),
        "--episodes", str(episodes),
    ]
    if spec.kind == "train":
        return argv + [
            "--k-shot", str(spec.k_shot), "--chains", str(spec.chains),
            "--steps", str(spec.steps), "--lr", str(LEARNING_RATE),
            "--eval-every", str(spec.eval_every), "--val-episodes", str(spec.val_episodes),
            "--checkpoint", str(out / "model.ckpt"), "--out", str(out / "train_log.csv"),
        ]
    argv += ["--checkpoint", str(files["checkpoint"]), "--out", str(out / "report.csv")]
    if spec.kind == "eval":
        argv += ["--k-shot", str(spec.k_shot), "--chains", str(spec.chains),
                 "--steps", str(spec.steps)]
    return argv


if __name__ == "__main__":
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    prepare(WORKLOADS[name], seed, work)

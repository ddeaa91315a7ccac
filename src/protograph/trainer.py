"""End-to-end episodic training.

The per-episode objective is the negative Monte Carlo query log-likelihood,
sum_q -log[(1/L) sum_l p(y_q | x_q, v^(l))], where the v^(l) are the final
states of the SGLD chains. Gradients with respect to the graph-layer
parameters are computed by a hand-written reverse pass:
sampler.episode_forward_vjp takes the loss's cotangent back through the
prediction, the unrolled chain and the warm start to the summaries, and this
module carries it into the graph layer. The reverse pass is validated
everywhere against the central-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Dataset, Episode, check_episode_shape, parse_ints, read_lines, sample_episode, write_lines,
)
from .evaluation import EPISODE_FLOATS_CAP, _batch_size, check_split_in_graph, episode_outcomes
from .graph import RelationGraph
from .likelihood import EncoderParams
from .numerics import RngStream, chain_noise
from .prior import GnnParams, graph_rows
from .sampler import EpisodeForward, EpisodeStage, SamplerConfig, episode_forward
from .sampler import episode_forward_vjp, stage_episode

# Not called here (episode_forward runs the pipeline and validation runs
# evaluation's loop), but bound so that benchmarks/tracer.py, which patches
# this module's call sites by name, finds them.
from .likelihood import encode_batch, pairwise_logits  # noqa: F401
from .numerics import softmax_with_temperature  # noqa: F401
from .prior import summary_rows  # noqa: F401
from .sampler import init_prototypes, posterior_predict, sgld_chain  # noqa: F401

CHECKPOINT_MAGIC = "protograph-checkpoint v1"

# stream namespaces inside train(); keeps episode sampling, chain noise,
# validation, and parameter init statistically independent
_NS_INIT, _NS_EPISODE, _NS_CHAIN, _NS_VAL = 0, 1, 2, 3


@dataclass
class ModelParams:
    """The model: the trainable graph layer and the instance encoder."""

    gnn: GnnParams
    encoder: EncoderParams


@dataclass
class TrainConfig:
    episodes_total: int
    n_way: int = 5
    k_shot: int = 1
    q_per: int = 5
    learning_rate: float = 0.1
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    eval_every: int = 100
    val_episodes: int = 20
    checkpoint_path: str | Path | None = None
    log_path: str | Path | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.episodes_total < 0:
            raise ValueError("episodes_total must be >= 0")
        check_episode_shape(self.n_way, self.k_shot, self.q_per, support=True)
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        if self.eval_every > 0 and self.val_episodes < 1:
            raise ValueError("val_episodes must be >= 1 when eval_every > 0")


def init_params(graph_dim: int, output_dim: int, rng: RngStream) -> ModelParams:
    """Fan-in-scaled uniform init, U(-1/sqrt(fan_in), +1/sqrt(fan_in)), of the
    graph layer, one identity-activated hop."""
    bound = 1.0 / np.sqrt(graph_dim)
    gen = rng.child(0).generator()
    gnn = GnnParams(
        weight=gen.uniform(-bound, bound, size=(graph_dim, output_dim)),
        bias=gen.uniform(-bound, bound, size=output_dim),
    )
    return ModelParams(gnn=gnn, encoder=EncoderParams())


def initial_params(seed: int, graph_dim: int, output_dim: int) -> ModelParams:
    """The untrained model that ``train`` starts from at ``seed``."""
    return init_params(graph_dim, output_dim, RngStream(seed).child(_NS_INIT))


def param_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Name -> live array view of every trainable tensor."""
    return {"gnn.weight": params.gnn.weight, "gnn.bias": params.gnn.bias}


def _episode_forward(
    stage: EpisodeStage,
    rows: np.ndarray,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, EpisodeForward]:
    """The recorded forward of an episode, from its stage and its targets' graph
    rows, and the chain-averaged probability of each query's true class."""
    fwd = episode_forward(
        stage, rows @ params.gnn.weight + params.gnn.bias, config, rng, record=True, noise=noise
    )
    p_true = fwd.probs[np.arange(len(stage.query_y)), stage.query_y]
    if not np.isfinite(p_true).all() or (p_true <= 0.0).any():
        raise RuntimeError(
            f"non-finite episode loss (replay stream seed={rng.seed} id={rng.stream_id})"
        )
    return p_true, fwd


def _query_loss(p_true: np.ndarray) -> float:
    """The negative query log-likelihood from the true-class probabilities."""
    return float(-np.log(p_true).sum() + 0.0)  # + 0.0 folds -0.0 (single-class case)


def episode_objective_and_grads(
    stage: EpisodeStage,
    rows: np.ndarray,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
    noise: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Negative query log-likelihood of one episode and its parameter gradients.

    Takes its :func:`stage_episode` and its targets' :func:`graph_rows`, as
    train makes them a chunk at a time. ``noise`` is the (M, L, N, d) chain
    noise of ``rng`` drawn ahead, or None to draw it step by step, to the same
    bits. Raises when a gradient is not finite, before any step could take
    it; numpy's warnings on the way there are silenced.
    """
    with np.errstate(all="ignore"):
        p_true, fwd = _episode_forward(stage, rows, params, config, rng, noise)
        loss = _query_loss(p_true)
        # the loss's cotangent: -1/p_bar at each query's true class, shared by the chains
        d_mean = np.zeros(fwd.probs.shape)
        d_mean[np.arange(p_true.size), stage.query_y] = -1.0 / p_true / config.chains
        d_summ = episode_forward_vjp(fwd, d_mean, config)
        # graph layer: summaries = propagated rows @ W + b
        grads = {"gnn.weight": rows.T @ d_summ, "gnn.bias": d_summ.sum(axis=0)}
    if not all(np.isfinite(grad).all() for grad in grads.values()):
        raise RuntimeError(
            f"non-finite gradient (replay stream seed={rng.seed} id={rng.stream_id})"
        )
    return loss, grads


def episode_loss(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
) -> float:
    """Forward-only objective; the replayable target for the gradient oracle."""
    rows = graph_rows(graph, params.gnn, episode.targets)
    return _query_loss(_episode_forward(stage_episode(episode), rows, params, config, rng)[0])


@dataclass
class LogRow:
    episode_index: int
    loss: float
    val_accuracy: float | None

    def as_csv(self) -> str:
        # the last column, wall_ms, is always blank
        val = "" if self.val_accuracy is None else repr(self.val_accuracy)
        return f"{self.episode_index},{repr(self.loss)},{val},"


def write_training_log(rows: list[LogRow], path) -> None:
    lines = ["episode_index,loss,val_accuracy,wall_ms"]
    lines.extend(r.as_csv() for r in rows)
    write_lines(path, lines)


def train(
    dataset: Dataset,
    graph: RelationGraph,
    config: TrainConfig,
    config_echo: dict | None = None,
) -> tuple[ModelParams, list[LogRow]]:
    """Alg-style episodic SGD: sample an episode, step on its objective.

    One episode per update, plain SGD at config.learning_rate. Validation
    accuracy is recorded (and a checkpoint written) every eval_every episodes;
    the final parameters are checkpointed at the end when a path is set.

    What reads no parameter is made a chunk of E episodes at a time, E as
    evaluation batches the training shape: the episodes and their chain
    noise, from one batch stream each, their stages and graph rows; each
    episode still gets the draws of its own streams and its own bits.
    """
    # the splits the episodes will sample
    splits = ["train"] if config.episodes_total else []
    if config.eval_every and config.episodes_total >= config.eval_every:
        splits.append("val")
    for split in splits:
        check_split_in_graph(dataset, split, graph, config.n_way, config.k_shot, config.q_per)
    rng = RngStream(config.seed)
    params = initial_params(config.seed, graph.feature_dim, dataset.d)
    arrays = param_arrays(params)
    rows: list[LogRow] = []
    cfg = config.sampler
    support = config.n_way * config.k_shot
    size = _batch_size(cfg.measure, cfg.chains, config.n_way, support, dataset.d)
    # one episode's trajectory, noise and support probabilities, M+1, M and M
    # arrays of L*N*d, L*N*d and L*S*N floats, under the cap; a chunk's noise too
    recorded = cfg.chains * config.n_way * ((2 * cfg.steps + 1) * dataset.d
                                            + cfg.steps * support)
    if recorded > EPISODE_FLOATS_CAP:
        raise ValueError(f"steps {cfg.steps} is too many at chains {cfg.chains}: one training "
                         f"episode would record {recorded} floats, more than {EPISODE_FLOATS_CAP}")
    size = min(size, EPISODE_FLOATS_CAP // recorded)

    for start in range(0, config.episodes_total, size):
        ids = np.arange(start, min(start + size, config.episodes_total))
        batch = sample_episode(
            dataset, "train", config.n_way, config.k_shot, config.q_per,
            rng.child(_NS_EPISODE, ids),
        )
        chain_rngs = rng.child(_NS_CHAIN, ids)
        noise = None
        if cfg.noise_enabled:
            noise = np.empty((len(ids), cfg.steps, cfg.chains, config.n_way, dataset.d))
            blocks = chain_noise(chain_rngs, batch.targets, cfg.chains, dataset.d)
            for t in range(cfg.steps):
                noise[:, t] = next(blocks)
            blocks.close()  # frees its draw buffer before the chunk's passes

        stages, inputs = stage_episode(batch), graph_rows(graph, params.gnn, batch.targets)
        chain_ids = chain_rngs.stream_id.tolist()
        for e, ep in enumerate(ids.tolist()):
            try:
                loss, grads = episode_objective_and_grads(
                    stages[e], inputs[e], params, cfg, RngStream(rng.seed, chain_ids[e]),
                    None if noise is None else noise[e],
                )
            except (RuntimeError, ValueError) as exc:
                raise type(exc)(f"episode {ep}: {exc}") from exc
            for name, grad in grads.items():
                arrays[name] -= config.learning_rate * grad

            val_acc = None
            if config.eval_every and (ep + 1) % config.eval_every == 0:
                try:
                    correct, queries = zip(*episode_outcomes(
                        dataset, "val", graph, params, config.n_way, config.k_shot,
                        config.q_per, config.val_episodes, rng.child(_NS_VAL, ep), cfg,
                    ))
                except (RuntimeError, ValueError) as exc:
                    raise type(exc)(f"episode {ep}: validation: {exc}") from exc
                val_acc = sum(correct) / sum(queries)
                if config.checkpoint_path is not None:
                    write_checkpoint(params, config.checkpoint_path, config_echo)
            rows.append(LogRow(ep, loss, val_acc))

    # a validation of the last episode has written these parameters already
    if config.checkpoint_path is not None and not (rows and rows[-1].val_accuracy is not None):
        write_checkpoint(params, config.checkpoint_path, config_echo)
    if config.log_path is not None:
        write_training_log(rows, config.log_path)
    return params, rows


def _format_matrix(name: str, arr: np.ndarray) -> list[str]:
    mat = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [f"{name} {mat.shape[0]} {mat.shape[1]}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in mat)
    return lines


def write_checkpoint(params: ModelParams, path, config_echo: dict | None = None) -> None:
    """Versioned text checkpoint; decimal reprs round-trip exactly."""
    d = params.gnn.output_dim
    d_g = params.gnn.input_dim
    lines = [
        CHECKPOINT_MAGIC,
        f"d {d}",
        f"d_g {d_g}",
        "gnn.activation identity",
        "gnn.hops 1",
    ]
    lines += _format_matrix("gnn.weight", params.gnn.weight)
    lines += _format_matrix("gnn.bias", params.gnn.bias)
    lines.append(f"encoder.mode {params.encoder.mode}")
    echo = config_echo or {}
    lines.append(f"config {len(echo)}")
    lines.extend(f"{k}={echo[k]}" for k in sorted(echo))
    write_lines(path, lines)


def read_checkpoint(path) -> tuple[ModelParams, dict]:
    lines = read_lines(path)
    if next(lines, (0, None))[1] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC!r} file")

    def take() -> tuple[int, str]:
        for numbered in lines:
            return numbered
        raise ValueError(f"{path}: truncated checkpoint")

    def take_field(name: str, allowed=None) -> tuple[int, str]:
        lineno, line = take()
        key, _, value = line.partition(" ")
        if key != name or not value:
            raise ValueError(f"{path}:{lineno}: expected {name}")
        if allowed is not None and value not in allowed:
            raise ValueError(f"{path}:{lineno}: unsupported {name} {value!r}")
        return lineno, value

    def take_int(name: str, least: int) -> int:
        lineno, value = take_field(name)
        (n,) = parse_ints([value], path, lineno)
        if n < least:
            raise ValueError(f"{path}:{lineno}: {name} must be >= {least}")
        return n

    def take_matrix(name: str, rows: int, cols: int) -> np.ndarray:
        """A ``name rows cols`` header, then its rows."""
        lineno, line = take()
        key, *shape = line.split(" ")
        if key == name and len(shape) == 2:
            shape = parse_ints(shape, path, lineno)
        if shape != [rows, cols]:
            raise ValueError(f"{path}:{lineno}: expected {name} {rows} {cols}, found {line!r}")
        mat = np.empty(shape)
        for row in mat:
            lineno, line = take()
            try:
                values = [float(v) for v in line.split(" ")]
            except ValueError:
                values = []
            if len(values) != cols:
                raise ValueError(f"{path}:{lineno}: bad {name} row")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite {name} value")
            row[:] = values
        return mat

    d = take_int("d", 1)
    d_g = take_int("d_g", 1)
    take_field("gnn.activation", ("identity",))
    take_field("gnn.hops", ("1",))
    gnn = GnnParams(take_matrix("gnn.weight", d_g, d), take_matrix("gnn.bias", 1, d)[0])
    take_field("encoder.mode", ("identity",))

    echo = {}
    for _ in range(take_int("config", 0)):
        lineno, line = take()
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        echo[key] = value
    for lineno, _ in lines:
        raise ValueError(f"{path}:{lineno}: unexpected line after the config block")
    return ModelParams(gnn=gnn, encoder=EncoderParams()), echo

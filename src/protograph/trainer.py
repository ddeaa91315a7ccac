"""End-to-end episodic training.

The per-episode objective is the negative Monte Carlo query log-likelihood,
sum_q -log[(1/L) sum_l p(y_q | x_q, v^(l))], where the v^(l) are the final
states of the SGLD chains. Gradients with respect to the graph-layer and
encoder parameters are computed by a hand-written reverse pass:
sampler.episode_forward_vjp takes the loss's cotangent back through the
prediction, the unrolled chain and the warm start to the summaries and the
encodings, and this module carries it into the graph layer and the encoder.
The reverse pass is validated everywhere against the central-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Dataset, Episode, check_episode_shape, parse_ints, read_lines, sample_episode, write_lines,
)
from .evaluation import _batch_size, episode_outcomes
from .graph import RelationGraph
from .likelihood import ENCODER_MODES, EncoderParams
from .numerics import RngStream, chain_noise
from .prior import GnnParams, summary_rows
from .sampler import EpisodeForward, SamplerConfig, episode_forward, episode_forward_vjp

# Not called here (episode_forward runs the pipeline and validation runs
# evaluation's loop), but bound so that benchmarks/tracer.py, which patches
# this module's call sites by name, finds them.
from .likelihood import encode_batch, pairwise_logits  # noqa: F401
from .numerics import softmax_with_temperature  # noqa: F401
from .sampler import init_prototypes, posterior_predict, sgld_chain  # noqa: F401

CHECKPOINT_MAGIC = "protograph-checkpoint v1"

# stream namespaces inside train(); keeps episode sampling, chain noise,
# validation, and parameter init statistically independent
_NS_INIT, _NS_EPISODE, _NS_CHAIN, _NS_VAL = 0, 1, 2, 3


@dataclass
class ModelParams:
    """All trainable state: the graph layer and the instance encoder."""

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
    encoder_mode: str = "identity"

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
        if self.encoder_mode not in ENCODER_MODES:
            raise ValueError(f"unknown encoder mode {self.encoder_mode!r}")


def init_params(
    graph_dim: int,
    output_dim: int,
    rng: RngStream,
    encoder_mode: str = TrainConfig.encoder_mode,
) -> ModelParams:
    """Fan-in-scaled uniform init, U(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    The graph layer is one identity-activated hop; a linear encoder maps the
    d = output_dim instance features to d. EncoderParams checks the mode.
    """
    bound = 1.0 / np.sqrt(graph_dim)
    gen = rng.child(0).generator()
    gnn = GnnParams(
        weight=gen.uniform(-bound, bound, size=(graph_dim, output_dim)),
        bias=gen.uniform(-bound, bound, size=output_dim),
    )
    weight = bias = None
    if encoder_mode == "linear":
        e_bound = 1.0 / np.sqrt(output_dim)
        egen = rng.child(1).generator()
        weight = egen.uniform(-e_bound, e_bound, size=(output_dim, output_dim))
        bias = egen.uniform(-e_bound, e_bound, size=output_dim)
    return ModelParams(gnn=gnn, encoder=EncoderParams(encoder_mode, weight, bias))


def initial_params(seed: int, graph_dim: int, output_dim: int, encoder_mode: str) -> ModelParams:
    """The untrained model that ``train`` starts from at ``seed``."""
    return init_params(graph_dim, output_dim, RngStream(seed).child(_NS_INIT), encoder_mode)


def param_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Name -> live array view of every trainable tensor."""
    out = {"gnn.weight": params.gnn.weight, "gnn.bias": params.gnn.bias}
    if params.encoder.trainable:
        out["encoder.weight"] = params.encoder.weight
        out["encoder.bias"] = params.encoder.bias
    return out


def _episode_forward(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
    noise: np.ndarray | None = None,
) -> tuple[float, EpisodeForward]:
    """The episode's loss and its recorded forward."""
    fwd = episode_forward(
        episode, summary_rows(graph, params.gnn, episode.targets), config, params.encoder, rng,
        record=True, noise=noise,
    )
    p_true = fwd.probs[np.arange(len(episode.query_y)), episode.query_y]
    if not np.isfinite(p_true).all() or (p_true <= 0.0).any():
        raise RuntimeError(
            f"non-finite episode loss (replay stream seed={rng.seed} id={rng.stream_id})"
        )
    loss = float(-np.log(p_true).sum() + 0.0)  # + 0.0 folds -0.0 (single-class case)
    return loss, fwd


def episode_objective_and_grads(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
    noise: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Negative query log-likelihood of one episode and its parameter gradients.

    ``noise`` is the (M, L, N, d) chain noise of ``rng`` drawn ahead, or None
    to draw it step by step.
    """
    loss, fwd = _episode_forward(episode, graph, params, config, rng, noise)
    # the loss's cotangent: -1/p_bar at each query's true class, shared by the chains
    rows, y_q = np.arange(episode.query_y.size), episode.query_y
    d_mean = np.zeros_like(fwd.probs)
    d_mean[rows, y_q] = -1.0 / fwd.probs[rows, y_q]
    d_summ, d_es, d_eq = episode_forward_vjp(
        fwd, np.broadcast_to(d_mean / config.chains, fwd.chain_probs.shape), config,
        params.encoder.trainable,
    )

    # graph layer: summaries = propagated rows @ W + b
    grads = {
        "gnn.weight": graph.propagated()[episode.targets].T @ d_summ,
        "gnn.bias": d_summ.sum(axis=0),
    }

    if params.encoder.trainable:
        grads["encoder.weight"] = d_es.T @ episode.support_x + d_eq.T @ episode.query_x
        grads["encoder.bias"] = d_es.sum(axis=0) + d_eq.sum(axis=0)
    return loss, grads


def episode_loss(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
) -> float:
    """Forward-only objective; the replayable target for the gradient oracle."""
    return _episode_forward(episode, graph, params, config, rng)[0]


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

    The draws that read no parameter, the episodes and their chain noise,
    are made a chunk of E episodes at a time, E as evaluation batches the
    training shape, from one batch stream each; each episode still gets the
    draws of its own streams.
    """
    # check the splits the episodes will sample before the first episode, so
    # a split too small for them does not fail only when it is first sampled
    splits = ["train"] if config.episodes_total else []
    if config.eval_every and config.episodes_total >= config.eval_every:
        splits.append("val")
    for split in splits:
        dataset.check_split(split, config.n_way, config.k_shot, config.q_per)
    rng = RngStream(config.seed)
    params = initial_params(config.seed, graph.feature_dim, dataset.d, config.encoder_mode)
    arrays = param_arrays(params)
    rows: list[LogRow] = []
    cfg = config.sampler
    size = _batch_size(cfg.measure, cfg.chains, config.n_way, config.n_way * config.k_shot,
                       dataset.d)

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

        chain_ids = chain_rngs.stream_id.tolist()
        for e, ep in enumerate(ids.tolist()):
            episode = Episode(
                batch.targets[e].tolist(), batch.support_x[e], batch.support_y[e],
                batch.query_x[e], batch.query_y[e],
            )
            try:
                loss, grads = episode_objective_and_grads(
                    episode, graph, params, cfg, RngStream(rng.seed, chain_ids[e]),
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
    if params.encoder.trainable:
        lines += _format_matrix("encoder.weight", params.encoder.weight)
        lines += _format_matrix("encoder.bias", params.encoder.bias)
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

    def take_matrix(name: str, rows: int, cols: int | None = None) -> np.ndarray:
        """A ``name rows cols`` header (any cols >= 1 when None), then its rows."""
        lineno, line = take()
        key, *shape = line.split(" ")
        if key == name and len(shape) == 2:
            shape = parse_ints(shape, path, lineno)
            cols = cols or max(shape[1], 1)
        if shape != [rows, cols]:
            want = f"{name} {rows} {cols or '<cols>'}"
            raise ValueError(f"{path}:{lineno}: expected {want}, found {line!r}")
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
    encoder = EncoderParams(mode="identity")
    if take_field("encoder.mode", ENCODER_MODES)[1] == "linear":
        weight = take_matrix("encoder.weight", d)
        encoder = EncoderParams("linear", weight, take_matrix("encoder.bias", 1, d)[0])

    echo = {}
    for _ in range(take_int("config", 0)):
        lineno, line = take()
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        echo[key] = value
    for lineno, _ in lines:
        raise ValueError(f"{path}:{lineno}: unexpected line after the config block")
    return ModelParams(gnn=gnn, encoder=encoder), echo

"""End-to-end episodic training.

The per-episode objective is the negative Monte Carlo query log-likelihood,
sum_q -log[(1/L) sum_l p(y_q | x_q, v^(l))], where the v^(l) are the final
states of the SGLD chains. Gradients with respect to the graph-layer and
encoder parameters are computed by a hand-written reverse pass through the
whole pipeline: prediction, the unrolled chain (noise draws held fixed, so
each step is deterministic and differentiable), the warm start, the support
statistics, and the encodings. The reverse pass is validated everywhere
against the central-difference oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Episode, parse_ints, sample_episode
from .evaluation import episode_outcomes
from .graph import RelationGraph
from .likelihood import (
    ENCODER_MODES, EncoderParams, similarity_softmax_vjp, support_drift_vjp, support_labels,
)
from .numerics import RngStream
from .prior import ACTIVATIONS, GnnParams, summary_rows
from .sampler import EpisodeForward, SamplerConfig, episode_forward

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
    record_timing: bool = False

    def __post_init__(self) -> None:
        if self.episodes_total < 0:
            raise ValueError("episodes_total must be >= 0")
        if min(self.n_way, self.q_per) < 1 or self.k_shot < 1:
            raise ValueError("n_way, k_shot, q_per must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        if self.eval_every > 0 and self.val_episodes < 1:
            raise ValueError("val_episodes must be >= 1 when eval_every > 0")


def init_params(
    graph_dim: int,
    output_dim: int,
    rng: RngStream,
    encoder_mode: str = "identity",
    encoder_input_dim: int | None = None,
    activation: str = "identity",
    hops: int = 1,
) -> ModelParams:
    """Fan-in-scaled uniform init, U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(graph_dim)
    gen = rng.child(0).generator()
    gnn = GnnParams(
        weight=gen.uniform(-bound, bound, size=(graph_dim, output_dim)),
        bias=gen.uniform(-bound, bound, size=output_dim),
        activation=activation,
        hops=hops,
    )
    if encoder_mode == "identity":
        encoder = EncoderParams(mode="identity")
    else:
        d_in = output_dim if encoder_input_dim is None else encoder_input_dim
        e_bound = 1.0 / np.sqrt(d_in)
        egen = rng.child(1).generator()
        encoder = EncoderParams(
            mode="linear",
            weight=egen.uniform(-e_bound, e_bound, size=(output_dim, d_in)),
            bias=egen.uniform(-e_bound, e_bound, size=output_dim),
        )
    return ModelParams(gnn=gnn, encoder=encoder)


def param_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Name -> live array view of every trainable tensor."""
    out = {"gnn.weight": params.gnn.weight, "gnn.bias": params.gnn.bias}
    if params.encoder.trainable:
        out["encoder.weight"] = params.encoder.weight
        out["encoder.bias"] = params.encoder.bias
    return out


def params_to_vector(params: ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in param_arrays(params).values()])


def set_params_from_vector(params: ModelParams, vec: np.ndarray) -> None:
    """Write a flat vector back into the parameter arrays, in place."""
    offset = 0
    for arr in param_arrays(params).values():
        n = arr.size
        arr[...] = np.asarray(vec[offset : offset + n]).reshape(arr.shape)
        offset += n
    if offset != vec.size:
        raise ValueError(f"vector length {vec.size} != parameter count {offset}")


@dataclass
class _ForwardCache:
    loss: float
    episode: Episode
    params: ModelParams
    config: SamplerConfig
    summaries: np.ndarray  # (N, d) raw layer output rows
    prop_rows: np.ndarray  # (N, d_g) propagated node features for the targets
    one_hot_s: np.ndarray  # (S, N)
    k_shot: int
    fwd: EpisodeForward


def _episode_forward(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
) -> _ForwardCache:
    targets = np.asarray(episode.targets, dtype=int)
    if targets.max() >= graph.n_nodes:
        raise ValueError(f"episode target {int(targets.max())} not in the graph")

    summaries = summary_rows(graph, params.gnn, targets)
    fwd = episode_forward(
        episode.support_x,
        episode.support_y,
        episode.targets,
        episode.query_x,
        summaries,
        config,
        params.encoder,
        rng,
        record=True,
    )
    one_hot_s, k_shot = support_labels(episode.support_y, len(targets))

    p_true = fwd.probs[np.arange(len(episode.query_y)), episode.query_y]
    if not np.all(np.isfinite(p_true)) or np.any(p_true <= 0.0):
        raise RuntimeError(
            f"non-finite episode loss (replay stream seed={rng.seed} id={rng.stream_id})"
        )
    loss = float(-np.log(p_true).sum() + 0.0)  # + 0.0 folds -0.0 (single-class case)

    return _ForwardCache(
        loss=loss,
        episode=episode,
        params=params,
        config=config,
        summaries=summaries,
        prop_rows=graph.propagated(params.gnn.hops)[targets],
        one_hot_s=one_hot_s,
        k_shot=k_shot,
        fwd=fwd,
    )


def _episode_backward(cache: _ForwardCache) -> dict[str, np.ndarray]:
    cfg = cache.config
    episode = cache.episode
    fwd = cache.fwd
    chain = fwd.record
    y_q = episode.query_y
    q_count = y_q.size
    v_final = chain.trajectory[-1]

    # loss -> chain-averaged probabilities -> per-chain softmax inputs
    d_mean = np.zeros_like(fwd.probs)
    d_mean[np.arange(q_count), y_q] = -1.0 / fwd.probs[np.arange(q_count), y_q]
    d_probs = np.broadcast_to(d_mean / cfg.chains, fwd.chain_probs.shape)
    d_eq, d_v = similarity_softmax_vjp(
        fwd.chain_probs, d_probs, fwd.query_enc, v_final, cfg.measure, cfg.tau
    )

    # reverse through the unrolled chain; noise draws are constants
    d_es = np.zeros_like(fwd.support_enc)
    lik_scale = cfg.likelihood_weight / (cache.k_shot * cfg.tau)
    d_eff = np.zeros_like(cache.summaries)
    for t in range(len(chain.step_sizes) - 1, -1, -1):
        half = 0.5 * chain.step_sizes[t]
        v_prev = chain.trajectory[t]
        d_eff += half * cfg.prior_weight * d_v.sum(axis=0)
        d_v_next = d_v - half * cfg.prior_weight * d_v
        if chain.support_probs is not None:
            des_lik, dv_lik = support_drift_vjp(
                fwd.support_enc, cache.one_hot_s, v_prev, chain.support_probs[t],
                half * d_v, cfg.measure, cfg.tau, lik_scale,
            )
            d_v_next = d_v_next + dv_lik
            d_es += des_lik
        d_v = d_v_next

    # warm start: v0 = class_means + alpha * eff - beta * grand_mean
    d_v0 = d_v.sum(axis=0)  # chains share the init
    d_eff += cfg.alpha * d_v0
    d_class_means = d_v0
    d_grand = -cfg.beta * d_v0.sum(axis=0)
    s_count = episode.support_y.size
    d_es += (cache.one_hot_s @ d_class_means) / cache.k_shot
    d_es += d_grand[None, :] / s_count

    # graph layer: summaries = act(prop_rows @ W + b)
    d_summ = d_eff if cfg.graph_prior else np.zeros_like(d_eff)
    if cache.params.gnn.activation == "tanh":
        d_pre = d_summ * (1.0 - cache.summaries**2)
    else:
        d_pre = d_summ
    grads = {
        "gnn.weight": cache.prop_rows.T @ d_pre,
        "gnn.bias": d_pre.sum(axis=0),
    }

    if cache.params.encoder.trainable:
        grads["encoder.weight"] = (
            d_es.T @ episode.support_x + d_eq.T @ episode.query_x
        )
        grads["encoder.bias"] = d_es.sum(axis=0) + d_eq.sum(axis=0)
    return grads


def episode_objective_and_grads(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
) -> tuple[float, dict[str, np.ndarray]]:
    """Negative query log-likelihood of one episode and its parameter gradients."""
    cache = _episode_forward(episode, graph, params, config, rng)
    return cache.loss, _episode_backward(cache)


def episode_loss(
    episode: Episode,
    graph: RelationGraph,
    params: ModelParams,
    config: SamplerConfig,
    rng: RngStream,
) -> float:
    """Forward-only objective; the replayable target for the gradient oracle."""
    return _episode_forward(episode, graph, params, config, rng).loss


@dataclass
class LogRow:
    episode_index: int
    loss: float
    val_accuracy: float | None
    wall_ms: float | None

    def as_csv(self) -> str:
        val = "" if self.val_accuracy is None else repr(self.val_accuracy)
        ms = "" if self.wall_ms is None else repr(self.wall_ms)
        return f"{self.episode_index},{repr(self.loss)},{val},{ms}"


def write_training_log(rows: list[LogRow], path) -> None:
    lines = ["episode_index,loss,val_accuracy,wall_ms"]
    lines.extend(r.as_csv() for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def train(
    dataset: Dataset,
    graph: RelationGraph,
    config: TrainConfig,
    params: ModelParams | None = None,
    config_echo: dict | None = None,
) -> tuple[ModelParams, list[LogRow]]:
    """Alg-style episodic SGD: sample an episode, step on its objective.

    One episode per update, plain SGD at config.learning_rate. Validation
    accuracy is recorded (and a checkpoint written) every eval_every episodes;
    the final parameters are checkpointed at the end when a path is set.
    """
    rng = RngStream(config.seed)
    if params is None:
        params = init_params(
            graph_dim=graph.feature_dim,
            output_dim=dataset.d,
            rng=rng.child(_NS_INIT),
            encoder_mode=config.encoder_mode,
            encoder_input_dim=dataset.d,
        )
    arrays = param_arrays(params)
    rows: list[LogRow] = []

    for ep in range(config.episodes_total):
        t0 = time.perf_counter() if config.record_timing else None
        try:
            episode = sample_episode(
                dataset, "train", config.n_way, config.k_shot, config.q_per,
                rng.child(_NS_EPISODE, ep),
            )
            loss, grads = episode_objective_and_grads(
                episode, graph, params, config.sampler, rng.child(_NS_CHAIN, ep)
            )
        except (RuntimeError, ValueError) as exc:
            raise type(exc)(f"episode {ep}: {exc}") from exc
        for name, grad in grads.items():
            arrays[name] -= config.learning_rate * grad

        val_acc = None
        if config.eval_every and (ep + 1) % config.eval_every == 0:
            correct, queries = zip(*episode_outcomes(
                dataset, "val", graph, params, config.n_way, config.k_shot, config.q_per,
                config.val_episodes, rng.child(_NS_VAL, ep), config.sampler,
            ))
            val_acc = sum(correct) / sum(queries)
            if config.checkpoint_path is not None:
                write_checkpoint(params, config.checkpoint_path, config_echo)
        wall = None
        if config.record_timing:
            wall = 1000.0 * (time.perf_counter() - t0)
        rows.append(LogRow(ep, loss, val_acc, wall))

    if config.checkpoint_path is not None:
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
        f"gnn.activation {params.gnn.activation}",
        f"gnn.hops {params.gnn.hops}",
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_checkpoint(path) -> tuple[ModelParams, dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC!r} file")
    pos = 1

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError(f"{path}: truncated checkpoint")
        out = lines[pos]
        pos += 1
        return out

    def take_field(name: str) -> str:
        key, _, value = take().partition(" ")
        if key != name or not value:
            raise ValueError(f"{path}:{pos}: expected {name}")
        return value

    def take_int(name: str, minimum: int = 0) -> int:
        (value,) = parse_ints([take_field(name)], path, pos)
        if value < minimum:
            raise ValueError(f"{path}:{pos}: {name} must be >= {minimum}")
        return value

    def take_choice(name: str, choices) -> str:
        value = take_field(name)
        if value not in choices:
            raise ValueError(f"{path}:{pos}: unknown {name} {value!r}")
        return value

    def take_row(cols: int, expect: str) -> list[float]:
        fields = take().split(" ")
        if len(fields) == cols:
            try:
                return [float(v) for v in fields]
            except ValueError:
                pass
        raise ValueError(f"{path}:{pos}: bad {expect} row")

    def take_matrix(expect: str) -> np.ndarray:
        header = take().split(" ")
        if header[0] != expect or len(header) != 3:
            raise ValueError(f"{path}:{pos}: expected {expect}, found {header[0]}")
        rows, cols = parse_ints(header[1:], path, pos)
        mat = np.array([take_row(cols, expect) for _ in range(rows)], dtype=float)
        if mat.shape != (rows, cols):
            raise ValueError(f"{path}: bad {expect} block")
        return mat

    d = take_int("d")
    d_g = take_int("d_g")
    activation = take_choice("gnn.activation", ACTIVATIONS)
    hops = take_int("gnn.hops", minimum=1)
    weight = take_matrix("gnn.weight")
    bias = take_matrix("gnn.bias")[0]
    if weight.shape != (d_g, d) or bias.shape != (d,):
        raise ValueError(f"{path}: inconsistent dimensions")
    gnn = GnnParams(weight=weight, bias=bias, activation=activation, hops=hops)

    if take_choice("encoder.mode", ENCODER_MODES) == "linear":
        e_weight = take_matrix("encoder.weight")
        e_bias = take_matrix("encoder.bias")[0]
        if e_weight.shape[0] != d or e_bias.shape != (d,):
            raise ValueError(f"{path}: inconsistent dimensions")
        encoder = EncoderParams(mode="linear", weight=e_weight, bias=e_bias)
    else:
        encoder = EncoderParams(mode="identity")

    n_echo = take_int("config")
    echo = {}
    for _ in range(n_echo):
        key, _, value = take().partition("=")
        echo[key] = value
    return ModelParams(gnn=gnn, encoder=encoder), echo

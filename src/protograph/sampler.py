"""Posterior sampling of prototype vectors.

Per episode, L independent chains start from a shared warm-start point
(class mean + relation summary - grand support mean) and take M Langevin
steps on the log-posterior: the K-normalized support log-likelihood plus the
Gaussian prior around the relation summaries. Query predictions average the
per-chain softmax probabilities, a Monte Carlo estimate of the predictive
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import (
    MEASURES, EncoderParams, encode_batch, pairwise_logits, support_labels, support_probs_and_grad,
)
from .numerics import ChildNormals, RngStream, softmax_with_temperature

# Not called here (the chain draws through ChildNormals), but bound so that
# benchmarks/tracer.py, which patches this module's call sites by name,
# finds it.
from .numerics import standard_normal_sample  # noqa: F401


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the per-episode sampler.

    chains (L) and steps (M) control the Monte Carlo budget; step_size is the
    initial Langevin step, decayed as step_size * t^(-step_decay) at step t.
    alpha and beta weight the relation summary and the grand support mean in
    the warm start. prior_weight / likelihood_weight scale the two gradient
    terms inside the chain (used by ablations); graph_prior=False replaces the
    summaries with zeros in both the warm start and the prior.
    """

    chains: int = 10
    steps: int = 5
    step_size: float = 0.1
    step_decay: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 10.0
    measure: str = "dot"
    noise_enabled: bool = True
    graph_prior: bool = True
    prior_weight: float = 1.0
    likelihood_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.step_size < 0:
            raise ValueError("step_size must be non-negative")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        # the prior drift scales v - h by 1 - eps_t * prior_weight / 2 per step;
        # from eps_t * prior_weight = 2 on it overshoots the prior mean
        eps = max(self.step_sizes(), default=0.0)
        if eps * self.prior_weight >= 2:
            raise ValueError(
                f"largest step size {eps:g} times prior_weight {self.prior_weight:g} must be < 2"
            )

    def step_sizes(self) -> np.ndarray:
        t = np.arange(1, self.steps + 1, dtype=float)
        return self.step_size * t ** (-self.step_decay)


@dataclass
class SupportStatistics:
    """Per-class mean encodings m_r and the grand mean m of the support set."""

    class_means: np.ndarray  # (N, d)
    grand_mean: np.ndarray  # (d,)


@dataclass
class PrototypeSamples:
    """L chains of N x d prototype vectors."""

    values: np.ndarray  # (L, N, d)


@dataclass
class ChainRecord:
    """Trajectory of an SGLD run, kept for reverse-mode differentiation."""

    trajectory: np.ndarray  # (M+1, L, N, d), trajectory[0] is the init
    step_sizes: np.ndarray  # (M,)
    # (M, L, S, N) support softmax at the state each step starts from; None
    # when no step evaluated the likelihood term
    support_probs: np.ndarray | None = None


@dataclass
class EpisodeForward:
    """What one episode's forward pass computed, for prediction and training."""

    support_enc: np.ndarray  # (S, d)
    query_enc: np.ndarray  # (Q, d)
    chain_probs: np.ndarray  # (L, Q, N) per-chain query probabilities
    probs: np.ndarray  # (Q, N) chain-averaged query probabilities
    record: ChainRecord | None  # set when the forward ran with record=True


def support_statistics(encodings, support_y, n_way: int) -> SupportStatistics:
    """Exact per-class and grand means of the support encodings of N classes."""
    one_hot, k_shot = support_labels(support_y, n_way)
    e = np.asarray(encodings, dtype=float)
    return SupportStatistics(class_means=(one_hot.T @ e) / k_shot, grand_mean=e.mean(axis=0))


def init_prototypes(
    stats: SupportStatistics, summaries, alpha: float, beta: float, chains: int
) -> PrototypeSamples:
    """Warm start v_r = m_r + alpha h_r - beta m, replicated across chains.

    All chains start at the same point; sample diversity comes entirely from
    the per-chain Langevin noise.
    """
    h = np.asarray(summaries, dtype=float)
    if h.shape != stats.class_means.shape:
        raise ValueError(
            f"summaries {h.shape} do not match class means {stats.class_means.shape}"
        )
    v0 = stats.class_means + alpha * h - beta * stats.grand_mean
    return PrototypeSamples(values=np.broadcast_to(v0, (chains,) + v0.shape).copy())


def init_objective_and_grad(
    prototypes, stats: SupportStatistics, summaries, alpha: float = 1.0, beta: float = 1.0
) -> tuple[float, np.ndarray]:
    """Warm-start objective sum_r -1/2 ||v_r - m_r - alpha h_r + beta m||^2.

    This is the quadratic lower bound of the normalized log-posterior whose
    maximizer is the init point; the gradient vanishes exactly there.
    """
    v = np.asarray(prototypes, dtype=float)
    center = stats.class_means + alpha * np.asarray(summaries, dtype=float) - beta * stats.grand_mean
    if v.shape != center.shape:
        raise ValueError(f"prototypes {v.shape} do not match statistics {center.shape}")
    diff = v - center
    return -0.5 * float(np.sum(diff * diff)), -diff


def sgld_chain(
    support_enc,
    support_y,
    targets,
    summaries,
    samples: PrototypeSamples,
    config: SamplerConfig,
    rng: RngStream,
    record: bool = False,
):
    """Run M Langevin steps on every chain.

    Update at step t (1-based):
        v <- v + (eps_t / 2) * grad log p(v) + sqrt(eps_t) * z,
    with z ~ N(0, I) when noise is enabled and eps_t = step_size * t^-decay.
    The log-density combines the K-normalized support likelihood of the
    support encodings and the Gaussian prior around ``summaries`` (already
    zeroed by the caller when the graph prior is disabled). Returns the final
    samples, plus a ChainRecord of the full trajectory when ``record`` is set.
    """
    values = np.array(samples.values, dtype=float)
    chains, n_way, d = values.shape
    y = np.asarray(support_y, dtype=int)
    h = np.asarray(summaries, dtype=float)
    if h.shape != (n_way, d):
        raise ValueError(f"summaries {h.shape} do not match prototypes {values.shape[1:]}")

    has_lik = config.likelihood_weight != 0.0 and y.size > 0
    if has_lik:
        one_hot, k_shot = support_labels(y, n_way)
        scale = config.likelihood_weight / (k_shot * config.tau)

    rank = np.argsort(np.argsort(np.asarray(targets, dtype=int)))
    eps = config.step_sizes()
    trajectory = [values.copy()] if record else None
    support_probs = [] if record else None
    # (chain l, step t) draws the (N, d) block of rng.child(l, t), the same
    # bytes as standard_normal_sample; its rows are assigned by sorted-target
    # rank so a permutation of the targets permutes the noise consistently
    normals = ChildNormals(rng, chains) if config.noise_enabled else None
    noise = np.empty_like(values)

    for t_idx, eps_t in enumerate(eps):
        grad = config.prior_weight * (h[None, :, :] - values)
        if has_lik:
            probs, drift = support_probs_and_grad(
                support_enc, one_hot, values, config.measure, config.tau
            )
            grad += scale * drift
            if support_probs is not None:
                support_probs.append(probs)
        values = values + 0.5 * eps_t * grad
        if normals is not None:
            for l in range(chains):
                noise[l] = normals.sample((n_way, d), l, t_idx + 1)[rank]
            values = values + np.sqrt(eps_t) * noise
        if not np.all(np.isfinite(values)):
            bad = np.where(~np.isfinite(values).reshape(chains, -1).all(axis=1))[0][0]
            raise RuntimeError(f"sampler diverged at chain {int(bad)} step {t_idx + 1}")
        if record:
            trajectory.append(values.copy())

    out = PrototypeSamples(values=values)
    if record:
        return out, ChainRecord(
            trajectory=np.stack(trajectory),
            step_sizes=eps,
            support_probs=np.stack(support_probs) if support_probs else None,
        )
    return out


def _lowest_key_argmax(probs: np.ndarray, targets) -> np.ndarray:
    """Per row, the position of the maximum; ties go to the lowest target id.

    Without targets the position is its own key. Equal keys go to the lowest
    position, as the stable rank orders them.
    """
    n_way = probs.shape[1]
    order_key = np.arange(n_way) if targets is None else np.asarray(targets, dtype=int)
    rank = np.argsort(np.argsort(order_key, kind="stable"))
    best = probs == probs.max(axis=1, keepdims=True)
    return np.argmin(np.where(best, rank, n_way), axis=1)


def predict_queries(
    query_x,
    samples: PrototypeSamples,
    encoder: EncoderParams,
    measure: str,
    tau: float,
    targets=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo query prediction: average softmax probabilities over chains.

    Returns (probs, predictions) where probs[q] is the chain-averaged class
    distribution and predictions[q] the argmax position, ties resolved toward
    the lowest relation id when ``targets`` is given (lowest position else).
    """
    if samples.values.size == 0:
        raise ValueError("no prototype samples")
    enc = encode_batch(query_x, encoder)
    probs = softmax_with_temperature(pairwise_logits(enc, samples.values, measure), tau).mean(0)
    return probs, _lowest_key_argmax(probs, targets)


def episode_forward(
    support_x,
    support_y,
    targets,
    query_x,
    summaries,
    config: SamplerConfig,
    encoder: EncoderParams,
    rng: RngStream,
    record: bool = False,
) -> EpisodeForward:
    """The one per-episode pipeline shared by evaluation, validation and training.

    Encodes the support set and the queries once each, builds the support
    statistics, warm-starts and runs the chains, and scores the queries
    against every chain's final prototypes. ``record`` keeps the chain's
    trajectory and support probabilities for the reverse pass.
    """
    h = np.asarray(summaries, dtype=float)
    if not config.graph_prior:
        h = np.zeros_like(h)
    support_enc = encode_batch(support_x, encoder)
    query_enc = encode_batch(query_x, encoder)
    stats = support_statistics(support_enc, support_y, len(targets))
    samples = init_prototypes(stats, h, config.alpha, config.beta, config.chains)
    out = sgld_chain(support_enc, support_y, targets, h, samples, config, rng, record)
    samples, chain = out if record else (out, None)
    logits = pairwise_logits(query_enc, samples.values, config.measure)
    chain_probs = softmax_with_temperature(logits, config.tau)
    return EpisodeForward(
        support_enc=support_enc,
        query_enc=query_enc,
        chain_probs=chain_probs,
        probs=chain_probs.mean(axis=0),
        record=chain,
    )


def posterior_predict(
    support_x,
    support_y,
    targets,
    query_x,
    summaries,
    config: SamplerConfig,
    encoder: EncoderParams,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-averaged query probabilities and predictions of one episode."""
    fwd = episode_forward(
        support_x, support_y, targets, query_x, summaries, config, encoder, rng
    )
    return fwd.probs, _lowest_key_argmax(fwd.probs, targets)

"""Posterior sampling of prototype vectors.

Per episode, L independent chains start from a shared warm-start point
(class mean + relation summary - grand support mean) and take M Langevin
steps on the log-posterior: the K-normalized support log-likelihood plus the
Gaussian prior around the relation summaries. Query predictions average the
per-chain softmax probabilities, a Monte Carlo estimate of the predictive
distribution.

Every function here takes one episode, or E episodes of equal shape stacked
on a leading axis: targets (E, N), support and query rows (E, S, d) and
(E, Q, d), summaries (E, N, d), prototypes (E, L, N, d), and a batch
noise stream of E ids (see numerics.RngStream), whose Langevin noise
numerics.chain_noise draws. A batched episode gets the bits it would get
alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import Episode
from .likelihood import (
    MEASURES, encode_batch, pairwise_logits, similarity_softmax_vjp, support_drift_vjp,
    support_labels, support_probs_and_grad,
)
from .numerics import RngStream, chain_noise, row_max, softmax_with_temperature

# Not called here (chain_noise draws through one RekeyedPhilox), but bound
# so that benchmarks/tracer.py, which patches this module's call sites by
# name, finds it.
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
        for name in (
            "step_size", "step_decay", "alpha", "beta", "tau", "prior_weight", "likelihood_weight",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        try:
            eps = max(self.step_sizes(), default=0.0)
        except (ValueError, MemoryError) as exc:  # a schedule too long to allocate
            raise ValueError(f"steps {self.steps} is too many: {exc}") from None
        if eps * self.prior_weight >= 2:
            raise ValueError(
                f"largest step size {eps:g} times prior_weight {self.prior_weight:g} must be < 2"
            )

    def step_sizes(self) -> np.ndarray:
        t = np.arange(1, self.steps + 1, dtype=float)
        if self.step_size == 0:  # 0 at any decay, also where t^(-decay) overflows
            return np.zeros_like(t)
        # a decay that overflows gives an inf step size, which __post_init__ rejects
        with np.errstate(over="ignore"):
            return self.step_size * t ** (-self.step_decay)


@dataclass
class ChainRecord:
    """Trajectory of an SGLD run, kept for reverse-mode differentiation."""

    trajectory: np.ndarray  # (M+1, L, N, d), trajectory[0] is the init
    # (M, L, S, N) support softmax at the state each step starts from; None
    # when no step evaluated the likelihood term
    support_probs: np.ndarray | None = None


@dataclass
class EpisodeForward:
    """What one episode's forward pass computed, for prediction and training."""

    support_enc: np.ndarray  # (S, d)
    query_enc: np.ndarray  # (Q, d)
    one_hot: np.ndarray  # (S, N) support labels
    k_shot: int
    chain_probs: np.ndarray  # (L, Q, N) per-chain query probabilities
    probs: np.ndarray  # (Q, N) chain-averaged query probabilities
    record: ChainRecord | None  # set when the forward ran with record=True


def support_statistics(encodings, one_hot, k_shot: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-class means (N, d) and grand mean (d,) of the support encodings.

    ``one_hot`` and ``k_shot`` are the checked labels of support_labels.
    """
    e = np.asarray(encodings, dtype=float)
    return (np.swapaxes(one_hot, -1, -2) @ e) / k_shot, e.mean(axis=-2)


def init_prototypes(
    class_means, grand_mean, summaries, alpha: float, beta: float, chains: int
) -> np.ndarray:
    """Warm start v_r = m_r + alpha h_r - beta m, replicated across chains.

    Returns (L, N, d), or (E, L, N, d) for E episodes. All chains start at
    the same point; sample diversity comes entirely from the per-chain
    Langevin noise. Raises when the start is not finite, as an alpha or beta
    near the float range makes it.
    """
    h = np.asarray(summaries, dtype=float)
    if h.shape != class_means.shape:
        raise ValueError(f"summaries {h.shape} do not match class means {class_means.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        v0 = class_means + alpha * h - beta * grand_mean[..., None, :]
    if not np.isfinite(v0).all():
        raise ValueError(f"warm start is not finite at alpha {alpha:g} and beta {beta:g}")
    shape = v0.shape[:-2] + (chains,) + v0.shape[-2:]
    return np.broadcast_to(v0[..., None, :, :], shape).copy()


def sgld_chain(
    support_enc,
    one_hot,
    k_shot: int,
    targets,
    summaries,
    values,
    config: SamplerConfig,
    rng: RngStream,
    record: bool = False,
    first_episode: int = 0,
    noise: Iterable[np.ndarray] | None = None,
) -> tuple[np.ndarray, ChainRecord | None]:
    """Run M Langevin steps on every chain of the prototypes ``values``.

    Update at step t (1-based):
        v <- v + (eps_t / 2) * grad log p(v) + sqrt(eps_t) * z,
    with z ~ N(0, I) when noise is enabled and eps_t = step_size * t^-decay.
    The log-density combines the K-normalized support likelihood of the
    support encodings, whose checked labels are ``one_hot`` with ``k_shot``
    per class, and the Gaussian prior around ``summaries`` (already zeroed
    by the caller when the graph prior is disabled). Returns the final
    values and, when ``record`` is set, a ChainRecord of the trajectory
    (else None, and the drift skips its exact softmax: the values keep
    their bits).

    ``rng`` is the noise stream of one episode, or a batch stream of E ids
    for E batched episodes. A batch that diverges names the
    episode as ``first_episode`` plus its position in the batch. ``noise``,
    when given, holds the blocks that :func:`chain_noise` draws from ``rng``,
    drawn ahead: at least M, one per step. Without it each step draws its
    block when it runs.

    The chain updates its own copy of ``values`` and one gradient buffer in
    place; it writes neither the caller's values nor its noise blocks.
    """
    values = np.array(values, dtype=float)
    chains, n_way, d = values.shape[-3:]
    batched = values.ndim == 4
    h = np.asarray(summaries, dtype=float)
    if h.shape != values.shape[:-3] + (n_way, d):
        raise ValueError(f"summaries {h.shape} do not match prototypes {values.shape}")

    has_lik = config.likelihood_weight != 0.0 and np.size(one_hot) > 0
    if has_lik:
        scale = config.likelihood_weight / (k_shot * config.tau)

    eps = config.step_sizes()
    trajectory = [values.copy()] if record else None
    support_probs = [] if record else None
    if config.noise_enabled:
        noise = iter(chain_noise(rng, targets, chains, d) if noise is None else noise)

    grad = np.empty_like(values)
    for t_idx, eps_t in enumerate(eps):
        np.subtract(h[..., None, :, :], values, out=grad)
        grad *= config.prior_weight
        if has_lik:
            probs, drift = support_probs_and_grad(
                support_enc, one_hot, values, config.measure, config.tau, record
            )
            drift *= scale
            grad += drift
            del drift  # not held while the next step's drift is computed
            if record:
                support_probs.append(probs)
        grad *= 0.5 * eps_t
        values += grad
        if config.noise_enabled:
            values += np.multiply(np.sqrt(eps_t), next(noise), out=grad)
        if not np.isfinite(values).all():
            finite = np.isfinite(values).reshape(-1, chains, n_way * d).all(axis=-1)
            e, l = np.argwhere(~finite)[0]
            where = f"episode {first_episode + e} chain {l}" if batched else f"chain {l}"
            raise RuntimeError(f"sampler diverged at {where} step {t_idx + 1}")
        if record:
            trajectory.append(values.copy())

    if not record:
        return values, None
    return values, ChainRecord(
        trajectory=np.stack(trajectory),
        support_probs=np.stack(support_probs) if support_probs else None,
    )


def _lowest_key_argmax(probs: np.ndarray, targets) -> np.ndarray:
    """Per row, the position of the maximum; ties go to the lowest target id.

    Without targets the position is its own key. Equal keys go to the lowest
    position, as the stable rank orders them. Probabilities (E, Q, N) take
    targets (E, N), one tie-break per episode.
    """
    n_way = probs.shape[-1]
    order_key = np.arange(n_way) if targets is None else np.asarray(targets, dtype=int)
    rank = np.argsort(np.argsort(order_key, kind="stable"))
    best = probs == row_max(probs)
    return np.argmin(np.where(best, rank[..., None, :], n_way), axis=-1)


def predict_queries(
    queries, prototypes, measure: str, tau: float, targets=None
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo query prediction: average softmax probabilities over chains.

    ``prototypes`` holds L chains of N prototypes, (L, N, d) or (E, L, N, d).
    Returns (probs, predictions) where probs[q] is the chain-averaged class
    distribution and predictions[q] the argmax position, ties resolved toward
    the lowest relation id when ``targets`` is given (lowest position else).
    """
    if np.size(prototypes) == 0:
        raise ValueError("no prototype samples")
    enc = encode_batch(queries)
    logits = pairwise_logits(enc, prototypes, measure)
    probs = softmax_with_temperature(logits, tau).mean(axis=-3)
    return probs, _lowest_key_argmax(probs, targets)


def episode_forward(
    episode: Episode,
    summaries,
    config: SamplerConfig,
    rng: RngStream,
    record: bool = False,
    first_episode: int = 0,
    noise: Iterable[np.ndarray] | None = None,
) -> EpisodeForward:
    """The one episode pipeline shared by evaluation, validation and training.

    Takes one :class:`Episode`, or E stacked as sample_episode draws a batch,
    and the summaries of its targets. Encodes the support set and the queries
    once each, checks the support labels once, builds the support statistics,
    warm-starts and runs the chains, and scores the queries against every
    chain's final prototypes. ``record`` keeps the chain's trajectory and
    support probabilities for the reverse pass; ``noise`` is the chain's
    noise drawn ahead (see sgld_chain).
    """
    h = np.asarray(summaries, dtype=float)
    if not config.graph_prior:
        h = np.zeros_like(h)
    support_enc = encode_batch(episode.support_x)
    query_enc = encode_batch(episode.query_x)
    one_hot, k_shot = support_labels(episode.support_y, np.shape(episode.targets)[-1])
    class_means, grand_mean = support_statistics(support_enc, one_hot, k_shot)
    values = init_prototypes(class_means, grand_mean, h, config.alpha, config.beta, config.chains)
    values, chain = sgld_chain(
        support_enc, one_hot, k_shot, episode.targets, h, values, config, rng, record,
        first_episode, noise,
    )
    logits = pairwise_logits(query_enc, values, config.measure)
    chain_probs = softmax_with_temperature(logits, config.tau)
    return EpisodeForward(
        support_enc=support_enc,
        query_enc=query_enc,
        one_hot=one_hot,
        k_shot=k_shot,
        chain_probs=chain_probs,
        probs=chain_probs.mean(axis=-3),
        record=chain,
    )


def episode_forward_vjp(fwd: EpisodeForward, d_chain_probs, config: SamplerConfig) -> np.ndarray:
    """VJP of a recorded one-episode :func:`episode_forward`, noise held fixed.

    Takes the cotangent (L, Q, N) of ``fwd.chain_probs``. Returns that of the
    summaries (N, d), zero when the graph prior is off.
    """
    chain = fwd.record
    d_v = similarity_softmax_vjp(
        fwd.chain_probs, d_chain_probs, fwd.query_enc, chain.trajectory[-1],
        config.measure, config.tau,
    )

    # reverse through the unrolled chain
    d_h = np.zeros_like(d_v[0])
    lik_scale = config.likelihood_weight / (fwd.k_shot * config.tau)
    for t, eps_t in reversed(list(enumerate(config.step_sizes()))):
        half = 0.5 * eps_t
        d_h += half * config.prior_weight * d_v.sum(axis=0)
        d_v_next = d_v - half * config.prior_weight * d_v
        if chain.support_probs is not None:
            d_v_next = d_v_next + support_drift_vjp(
                fwd.support_enc, fwd.one_hot, chain.trajectory[t], chain.support_probs[t],
                half * d_v, config.measure, config.tau, lik_scale,
            )
        d_v = d_v_next

    # warm start v0 = class_means + alpha * h - beta * grand_mean, shared by the chains
    d_h += config.alpha * d_v.sum(axis=0)
    return d_h if config.graph_prior else np.zeros_like(d_h)


def posterior_predict(
    episode: Episode, summaries, config: SamplerConfig, rng: RngStream, first_episode: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-averaged query probabilities and predictions of one or E episodes."""
    fwd = episode_forward(episode, summaries, config, rng, first_episode=first_episode)
    return fwd.probs, _lowest_key_argmax(fwd.probs, episode.targets)

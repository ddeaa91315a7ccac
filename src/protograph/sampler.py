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
alone. The one exception is episode_forward_vjp, which takes one episode.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def schedule(self) -> list[float]:
        """step_sizes() as floats, built on first use; equality and hashing skip it."""
        return self.step_sizes().tolist()

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
    # support softmax at each step's starting state, (M, S, L, N) as
    # support_probs_and_grad computes it; None without a likelihood term
    support_probs: np.ndarray | None = None


@dataclass
class EpisodeStage:
    """What an episode's forward computes before it reads a parameter: of one
    episode, or of E stacked, whose ``stage[e]`` is episode e's (views)."""

    targets: np.ndarray  # (N,)
    query_y: np.ndarray  # (Q,)
    support_enc: np.ndarray  # (S, d)
    query_enc: np.ndarray  # (Q, d)
    one_hot: np.ndarray  # (S, N) checked support labels, k_shot per class
    k_shot: int
    class_means: np.ndarray  # (N, d)
    grand_mean: np.ndarray  # (d,)

    def __getitem__(self, e: int) -> EpisodeStage:
        return EpisodeStage(
            self.targets[e], self.query_y[e], self.support_enc[e], self.query_enc[e],
            self.one_hot[e], self.k_shot, self.class_means[e], self.grand_mean[e],
        )


@dataclass
class EpisodeForward:
    """What the forward of one or E stacked episodes computed from its stage;
    shapes are one episode's."""

    stage: EpisodeStage
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
    """Warm start v_r = m_r + alpha h_r - beta m, shared by ``chains`` chains.

    Returns the start once, (1, N, d), or (E, 1, N, d) for E episodes: a
    chain axis of length 1 that sgld_chain broadcasts to its chains when it
    writes its first state, so ``[0]`` of one episode's start is the (N, d)
    point. All chains start there; sample diversity comes entirely from the
    per-chain Langevin noise. Raises when the start is not finite, as an
    alpha or beta near the float range makes it.
    """
    h = np.asarray(summaries, dtype=float)
    if h.shape != class_means.shape:
        raise ValueError(f"summaries {h.shape} do not match class means {class_means.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        v0 = class_means + alpha * h - beta * grand_mean[..., None, :]
    if not np.isfinite(v0).all():
        raise ValueError(f"warm start is not finite at alpha {alpha:g} and beta {beta:g}")
    return v0[..., None, :, :]


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
    """Run M Langevin steps on ``config.chains`` chains from the start ``values``.

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

    ``values`` is (L, N, d), or (E, L, N, d) for E episodes, with L the
    chain count or 1 for a start the chains share (init_prototypes'). ``rng``
    is the noise stream of one episode, or a batch stream of E ids for E
    batched episodes. A batch that diverges names the episode as
    ``first_episode`` plus its position in the batch. ``noise``, when given,
    holds the blocks that :func:`chain_noise` draws from ``rng``, drawn
    ahead: at least M, one per step. Without it each step draws its block
    when it runs.

    The chain writes neither the caller's values nor its noise blocks. It
    writes the start once, into its state or ``trajectory[0]``, each recorded
    step's state into ``trajectory[t + 1]`` and support softmax into
    ``support_probs[t]``, and returns its own array, a copy of the last
    recorded state.
    """
    start = np.asarray(values, dtype=float)
    shape = start.shape[:-3] + (config.chains,) + start.shape[-2:]
    chains, n_way, d = shape[-3:]
    batched = len(shape) == 4
    h = np.asarray(summaries, dtype=float)
    if h.shape != shape[:-3] + (n_way, d):
        raise ValueError(f"summaries {h.shape} do not match prototypes {start.shape}")
    h_chains = h[..., None, :, :]

    has_lik = config.likelihood_weight != 0.0 and np.size(one_hot) > 0
    if has_lik:
        scale = config.likelihood_weight / (k_shot * config.tau)

    eps = config.schedule
    if record:
        trajectory = np.empty((len(eps) + 1,) + shape)
        values = trajectory[0]
        step_probs = shape[:-3] + (np.shape(one_hot)[-2], chains, n_way)  # (..., S, L, N)
        support_probs = np.empty((len(eps),) + step_probs) if has_lik else None
    else:
        values = np.empty(shape)
    values[...] = start
    if config.noise_enabled:
        noise = iter(chain_noise(rng, targets, chains, d) if noise is None else noise)

    grad = np.empty(shape)
    for t, eps_t in enumerate(eps):
        np.subtract(h_chains, values, out=grad)
        if config.prior_weight != 1.0:  # x * 1.0 is x
            grad *= config.prior_weight
        if has_lik:
            _, drift = support_probs_and_grad(
                support_enc, one_hot, values, config.measure, config.tau, record,
                support_probs[t] if record else None,
            )
            drift *= scale
            grad += drift
            del drift  # not held while the next step's drift is computed
        grad *= 0.5 * eps_t
        state = trajectory[t + 1] if record else values
        np.add(values, grad, out=state)
        values = state
        if config.noise_enabled:
            values += np.multiply(math.sqrt(eps_t), next(noise), out=grad)
        if not np.isfinite(values).all():
            finite = np.isfinite(values).reshape(-1, chains, n_way * d).all(axis=-1)
            e, l = np.argwhere(~finite)[0]
            where = f"episode {first_episode + e} chain {l}" if batched else f"chain {l}"
            raise RuntimeError(f"sampler diverged at {where} step {t + 1}")

    if not record:
        return values, None
    return values.copy(), ChainRecord(trajectory, support_probs)


def _lowest_key_argmax(probs: np.ndarray, targets) -> np.ndarray:
    """Per row, the position of the maximum; ties go to the lowest target id.

    Equal ids go to the lowest position, as the stable rank orders them.
    Probabilities (E, Q, N) take targets (E, N), one tie-break per episode.
    """
    n_way = probs.shape[-1]
    rank = np.argsort(np.argsort(np.asarray(targets, dtype=int), kind="stable"))
    best = probs == row_max(probs)
    return np.argmin(np.where(best, rank[..., None, :], n_way), axis=-1)


def predict_queries(
    queries, prototypes, measure: str, tau: float, targets
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo query prediction: average softmax probabilities over chains.

    ``prototypes`` holds L chains of N prototypes, (L, N, d) or (E, L, N, d).
    Returns (probs, predictions) where probs[q] is the chain-averaged class
    distribution and predictions[q] the argmax position, ties resolved toward
    the lowest relation id of ``targets``.
    """
    if np.size(prototypes) == 0:
        raise ValueError("no prototype samples")
    enc = encode_batch(queries)
    logits = pairwise_logits(enc, prototypes, measure)
    probs = softmax_with_temperature(logits, tau).mean(axis=-3)
    return probs, _lowest_key_argmax(probs, targets)


def stage_episode(episode: Episode) -> EpisodeStage:
    """The stage of :func:`episode_forward` that reads no parameter, of one
    :class:`Episode` or E stacked: encodes the support set and the queries,
    checks the support labels and builds the support statistics, once each."""
    support_enc = encode_batch(episode.support_x)
    one_hot, k_shot = support_labels(episode.support_y, np.shape(episode.targets)[-1])
    return EpisodeStage(
        episode.targets, episode.query_y, support_enc, encode_batch(episode.query_x), one_hot,
        k_shot, *support_statistics(support_enc, one_hot, k_shot),
    )


def episode_forward(
    stage: EpisodeStage,
    summaries,
    config: SamplerConfig,
    rng: RngStream,
    record: bool = False,
    first_episode: int = 0,
    noise: Iterable[np.ndarray] | None = None,
) -> EpisodeForward:
    """The one episode pipeline shared by evaluation, validation and training.

    Takes the :func:`stage_episode` of one episode or E stacked, and the
    summaries of its targets. Warm-starts and runs the chains, and scores the
    queries against every chain's final prototypes. ``record`` keeps the
    chain's trajectory and support probabilities for the reverse pass;
    ``noise`` is the chain's noise drawn ahead (see sgld_chain).
    """
    h = np.asarray(summaries, dtype=float)
    if not config.graph_prior:
        h = np.zeros_like(h)
    start = init_prototypes(stage.class_means, stage.grand_mean, h, config.alpha, config.beta,
                            config.chains)
    values, chain = sgld_chain(
        stage.support_enc, stage.one_hot, stage.k_shot, stage.targets, h, start, config, rng,
        record, first_episode, noise,
    )
    logits = pairwise_logits(stage.query_enc, values, config.measure)
    chain_probs = softmax_with_temperature(logits, config.tau, out=logits)
    return EpisodeForward(stage, chain_probs, chain_probs.mean(axis=-3), chain)


def episode_forward_vjp(fwd: EpisodeForward, d_chain_probs, config: SamplerConfig) -> np.ndarray:
    """VJP of a recorded one-episode :func:`episode_forward`, noise held fixed.

    Takes the cotangent of ``fwd.chain_probs``, (L, Q, N) or a (Q, N) one
    that every chain shares. Returns that of the summaries (N, d), zero when
    the graph prior is off. The query kernels take a q-major copy of the
    probabilities and the cotangent as (Q, L, N) or (Q, 1, N).
    """
    chain, stage = fwd.record, fwd.stage
    d_v = similarity_softmax_vjp(
        fwd.chain_probs.swapaxes(0, 1).copy(),
        d_chain_probs.reshape((-1,) + fwd.chain_probs.shape[1:]).swapaxes(0, 1),
        stage.query_enc, chain.trajectory[-1], config.measure, config.tau,
    )

    # reverse through the unrolled chain, updating d_v in place
    d_h = np.zeros(d_v.shape[1:])
    lik_scale = config.likelihood_weight / (stage.k_shot * config.tau)
    eps, prior_weight = config.schedule, config.prior_weight
    for t in range(len(eps) - 1, -1, -1):
        half = 0.5 * eps[t]
        d_h += half * prior_weight * np.add.reduce(d_v, axis=0)
        half_d_v = half * d_v  # the drift's cotangent, and the prior term's at weight 1
        d_v -= half_d_v if prior_weight == 1.0 else half * prior_weight * d_v
        if chain.support_probs is not None:
            d_v += support_drift_vjp(
                stage.support_enc, stage.one_hot, chain.trajectory[t], chain.support_probs[t],
                half_d_v, config.measure, config.tau, lik_scale,
            )

    # warm start v0 = class_means + alpha * h - beta * grand_mean, shared by the chains
    d_h += config.alpha * np.add.reduce(d_v, axis=0)
    return d_h if config.graph_prior else np.zeros_like(d_h)


def posterior_predict(
    episode: Episode, summaries, config: SamplerConfig, rng: RngStream, first_episode: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-averaged query probabilities and predictions of one or E episodes."""
    fwd = episode_forward(stage_episode(episode), summaries, config, rng,
                          first_episode=first_episode)
    return fwd.probs, _lowest_key_argmax(fwd.probs, episode.targets)

"""Finite-difference verification of every analytic gradient in the package.

Each component pairs an analytic gradient with the central-difference oracle
on randomly drawn instances and reports the worst elementwise relative error
(relative to max(1, |analytic|)). The episode objective is checked through
the full pipeline: graph layer, warm start, unrolled chain with fixed noise
(prior and likelihood drift), and the Monte Carlo prediction.
"""

from __future__ import annotations

import numpy as np

from .data import Episode, check_episode_shape
from .graph import RelationGraph, build_knn_graph
from .likelihood import pairwise_logits, support_labels, support_probs_and_grad
from .numerics import (
    RngStream, finite_difference_gradient, log_softmax_with_temperature, max_relative_error,
)
from .prior import graph_rows
from .sampler import SamplerConfig, stage_episode
from .trainer import (
    ModelParams, episode_loss, episode_objective_and_grads, init_params, param_arrays,
)


def random_episode(gen: np.random.Generator, n_way: int, k_shot: int, q_per: int, d: int,
                   n_relations: int) -> Episode:
    """Episode with standard-normal features over randomly chosen targets."""
    targets = [int(r) for r in gen.choice(n_relations, size=n_way, replace=False)]
    support_y = np.repeat(np.arange(n_way), k_shot)
    query_y = np.repeat(np.arange(n_way), q_per)
    return Episode(
        targets=targets,
        support_x=gen.standard_normal((n_way * k_shot, d)),
        support_y=support_y,
        query_x=gen.standard_normal((n_way * q_per, d)),
        query_y=query_y,
    )


def check_support_likelihood(gen, n_way: int, k_shot: int, d: int, tau: float) -> float:
    x = gen.standard_normal((n_way * k_shot, d))
    y = np.repeat(np.arange(n_way), k_shot)
    v = gen.standard_normal((n_way, d))
    one_hot, _ = support_labels(y, n_way)
    _, drift = support_probs_and_grad(x, one_hot, v[None], tau, record=False)

    def log_likelihood(p: np.ndarray) -> float:
        log_p = log_softmax_with_temperature(pairwise_logits(x, p), tau)
        return (1.0 / k_shot) * float(log_p[np.arange(y.size), y].sum())

    fd = finite_difference_gradient(log_likelihood, v)
    return max_relative_error(drift[0] * ((1.0 / k_shot) / tau), fd)


def parameter_gradient_error(episode: Episode, graph: RelationGraph, params: ModelParams,
                             config: SamplerConfig, rng: RngStream) -> float:
    """Worst relative error of the episode objective's parameter gradients against
    central differences, perturbing each named array in place; a raise restores it too."""
    stage, rows = stage_episode(episode), graph_rows(graph, params.gnn, episode.targets)
    _, grads = episode_objective_and_grads(stage, rows, params, config, rng)
    worst = 0.0
    for name, arr in param_arrays(params).items():
        base = arr.copy()

        def loss_at(values: np.ndarray) -> float:
            arr[...] = values
            return episode_loss(episode, graph, params, config, rng)

        try:
            worst = max(worst, max_relative_error(
                grads[name], finite_difference_gradient(loss_at, base)))
        finally:
            arr[...] = base
    return worst


def check_episode_objective(seed: int, case: int, d: int, n_way: int, k_shot: int,
                            q_per: int, chains: int, steps: int, tau: float) -> float:
    gen = RngStream(seed).child(40, case).generator()
    n_relations = n_way + 3
    embeddings = gen.standard_normal((n_relations, d))
    graph = build_knn_graph(embeddings, k=2)
    episode = random_episode(gen, n_way, k_shot, q_per, d, n_relations)
    params = init_params(d, d, RngStream(seed).child(41, case))
    config = SamplerConfig(chains=chains, steps=steps, tau=tau)
    rng = RngStream(seed).child(42, case)
    return parameter_gradient_error(episode, graph, params, config, rng)


def run_gradient_checks(
    seed: int, d: int, cases: int, n_way: int, k_shot: int, q_per: int, chains: int,
    steps: int, tau: float,
) -> dict[str, float]:
    """Worst relative error per component over ``cases`` random instances."""
    # a shape with no case, feature, support point or query, or one class, checks nothing
    least = {"cases": 1, "d": 1, "n_way": 2}
    for name, value in zip(least, (cases, d, n_way)):
        if value < least[name]:
            raise ValueError(f"{name} must be >= {least[name]}, got {value}")
    check_episode_shape(n_way, k_shot, q_per, support=True)
    gen = RngStream(seed).child(30).generator()
    return {
        "support-likelihood-dot": max(
            check_support_likelihood(gen, n_way, max(k_shot, 2), d, tau) for _ in range(cases)
        ),
        "episode-objective-dot": max(
            check_episode_objective(seed, case, d, n_way, k_shot, q_per, chains, steps, tau)
            for case in range(cases)
        ),
    }

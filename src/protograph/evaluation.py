"""Few-shot / zero-shot evaluation, ablations, and machine-readable reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, check_episode_shape, sample_episode, write_lines
from .graph import RelationGraph
from .likelihood import chain_step_floats
from .numerics import RngStream
from .prior import summary_rows
from .sampler import SamplerConfig, posterior_predict, predict_queries

# Not called here (predict_queries scores zero-shot queries), but bound so
# that benchmarks/tracer.py, which patches this module's call sites by name,
# finds them.
from .likelihood import class_log_probs, encode_batch  # noqa: F401

if TYPE_CHECKING:
    from .trainer import ModelParams

# Evaluation runs its episodes in batches of E, E as large as keeps the
# largest array of one batched chain step, E times chain_step_floats, within
# this many floats (256 KiB; E=40 at the README protocol). A batch shares each
# numpy call's overhead among its episodes at flat memory; README gives the
# per-episode cost at E=20, 40 and 80.
BATCH_ELEMENTS = 2**15
# The most floats one episode's chain step may hold (1 GiB): a larger chain
# count fails before the first batch instead of exhausting memory in it.
EPISODE_FLOATS_CAP = 2**27

# The report format: column -> EvalReport attribute, in column order. The
# float columns are written with 6 decimals.
REPORT_COLUMNS = {
    "setting": "setting", "N": "n_way", "K": "k_shot", "L": "chains", "M": "steps",
    "epsilon0": "step_size", "alpha": "alpha", "beta": "beta", "measure": "measure",
    "episodes": "episodes", "accuracy": "accuracy", "ci95": "ci95", "seed": "seed",
}
REPORT_FLOATS = frozenset({"epsilon0", "alpha", "beta", "accuracy", "ci95"})


@dataclass
class EvalReport:
    """Accuracy of one evaluation setting with a normal-approximation CI."""

    setting: str
    n_way: int
    k_shot: int
    chains: int
    steps: int
    step_size: float
    alpha: float
    beta: float
    episodes: int
    accuracy: float
    ci95: float
    seed: int
    per_episode: list[float] = field(default_factory=list)
    measure = "dot"  # the report's column of the one similarity measure

    def row(self) -> dict:
        """Column -> value, in REPORT_COLUMNS order."""
        return {col: getattr(self, attr) for col, attr in REPORT_COLUMNS.items()}


def episode_outcomes(
    dataset: Dataset, split: str, graph: RelationGraph, params: ModelParams,
    n_way: int, k_shot: int, q_per: int, episodes: int, rng: RngStream, config: SamplerConfig,
) -> list[tuple[int, int]]:
    """(correct, queries) of each episode: the one loop of every evaluation.

    Episode i is drawn from rng.child(i, 0) and the relation summaries of its
    targets are computed. Its queries are predicted by posterior_predict with
    the noise stream rng.child(i, 1), or at k_shot 0 (zero-shot) scored
    against the summaries alone, at ``config.tau``.
    Episodes run in batches (see BATCH_ELEMENTS), each batch's streams one
    batch stream ``rng.child(ids, 0)`` and ``rng.child(ids, 1)``;
    every batched operation gives an episode the bits it gets alone, so the
    outcomes do not depend on the batch size.
    """
    check_episode_shape(n_way, k_shot, q_per, episodes=episodes)
    check_split_in_graph(dataset, split, graph, n_way, k_shot, q_per)
    chains, rows = (1, q_per) if k_shot == 0 else (config.chains, k_shot)
    size = _batch_size(chains, n_way, n_way * rows, params.gnn.output_dim)
    outcomes = []
    for start in range(0, episodes, size):
        ids = np.arange(start, min(start + size, episodes))
        batch = sample_episode(dataset, split, n_way, k_shot, q_per, rng.child(ids, 0))
        summaries = summary_rows(graph, params.gnn, batch.targets)
        if k_shot == 0:
            _, preds = predict_queries(batch.query_x, summaries[:, None], config.tau, batch.targets)
        else:
            _, preds = posterior_predict(
                batch, summaries, config, rng.child(ids, 1), first_episode=start
            )
        hits = np.sum(preds == batch.query_y, axis=-1)
        outcomes += [(int(c), batch.query_y.shape[1]) for c in hits]
    return outcomes


def check_split_in_graph(
    dataset: Dataset, split: str, graph: RelationGraph, n_way: int, k_shot: int, q_per: int,
) -> None:
    """Check that every relation of the split, not only those an episode
    draws, holds an episode's instances and is a graph node, so that a run
    fails before its first episode and not when it first draws the fault."""
    dataset.check_split(split, n_way, k_shot, q_per)
    if graph.n_nodes < dataset.num_relations:  # else every relation is a node
        missing = [r for r in dataset.relations_in_split(split) if r >= graph.n_nodes]
        if missing:
            raise ValueError(f"relation {missing[0]} of split {split!r} is not in the graph")


def _batch_size(chains: int, n_way: int, rows: int, dim: int) -> int:
    """Episodes per batch: how many fit BATCH_ELEMENTS, at least one. Raises
    when one episode's chain step exceeds EPISODE_FLOATS_CAP."""
    floats = chain_step_floats(chains, n_way, rows, dim)
    if floats > EPISODE_FLOATS_CAP:
        raise ValueError(f"chains {chains} is too many: one episode's chain step would hold "
                         f"{floats} floats, more than {EPISODE_FLOATS_CAP}")
    return max(1, BATCH_ELEMENTS // floats)


def _report(outcomes: list[tuple[int, int]], seed: int, **setting) -> EvalReport:
    """Mean episode accuracy with a normal-approximation 95% half-width."""
    acc = np.array([correct / queries for correct, queries in outcomes])
    ci95 = 1.96 * float(acc.std(ddof=1)) / float(np.sqrt(acc.size)) if acc.size > 1 else 0.0
    return EvalReport(
        **setting, episodes=acc.size, accuracy=float(acc.mean()), ci95=ci95, seed=seed,
        per_episode=acc.tolist(),
    )


def evaluate_fewshot(
    dataset: Dataset,
    split: str,
    graph: RelationGraph,
    params: ModelParams,
    n_way: int,
    k_shot: int,
    q_per: int,
    episodes: int,
    sampler_config: SamplerConfig,
    rng: RngStream,
    setting: str = "fewshot",
) -> EvalReport:
    """Mean episode accuracy of the posterior-sampling classifier."""
    check_episode_shape(n_way, k_shot, q_per, support=True)  # a chain needs a support set
    cfg = sampler_config
    outcomes = episode_outcomes(
        dataset, split, graph, params, n_way, k_shot, q_per, episodes, rng, cfg
    )
    return _report(
        outcomes, rng.seed, setting=setting, n_way=n_way, k_shot=k_shot,
        chains=cfg.chains, steps=cfg.steps, step_size=cfg.step_size, alpha=cfg.alpha,
        beta=cfg.beta,
    )


def evaluate_zeroshot(
    dataset: Dataset,
    split: str,
    graph: RelationGraph,
    params: ModelParams,
    n_way: int,
    q_per: int,
    episodes: int,
    rng: RngStream,
    tau: float = SamplerConfig.tau,
) -> EvalReport:
    """Classification from the prior means alone: no support set, no chain.

    Prototypes are set directly to the relation summaries h_r of the episode
    targets, so there is no K parameter in this mode: the queries are scored
    by predict_queries against a single "chain" holding those summaries, with
    the temperature that SamplerConfig checks.
    """
    config = SamplerConfig(tau=tau)
    outcomes = episode_outcomes(
        dataset, split, graph, params, n_way, 0, q_per, episodes, rng, config
    )
    return _report(
        outcomes, rng.seed, setting="zeroshot", n_way=n_way, k_shot=0, chains=0, steps=0,
        step_size=0.0, alpha=0.0, beta=0.0,
    )


def sensitivity_sweep(
    axis: str,
    values,
    dataset: Dataset,
    split: str,
    graph: RelationGraph,
    params: ModelParams,
    n_way: int,
    k_shot: int,
    q_per: int,
    episodes: int,
    base_config: SamplerConfig,
    rng: RngStream,
) -> list[EvalReport]:
    """One report per swept value of L (chains) or M (steps), matched seeds.

    The same rng is reused at every point, so accuracy curves differ only
    through the swept parameter. Every point's config is checked before the
    first point runs, and an invalid one is named by its point, as in
    ``sweep L=0: chains must be >= 1``.
    """
    if axis not in ("L", "M"):
        raise ValueError(f"axis must be 'L' or 'M', got {axis!r}")
    swept = "chains" if axis == "L" else "steps"
    check_episode_shape(n_way, k_shot, q_per, support=True)  # before a point sizes its batch
    points = []
    for v in values:
        try:
            cfg = replace(base_config, **{swept: v})
            _batch_size(cfg.chains, n_way, n_way * k_shot, params.gnn.output_dim)
            points.append((v, cfg))
        except ValueError as exc:
            raise ValueError(f"sweep {axis}={v}: {exc}") from None
    if not points:
        raise ValueError("no sweep values given")
    return [
        evaluate_fewshot(
            dataset, split, graph, params, n_way, k_shot, q_per,
            episodes, cfg, rng, setting=f"sweep:{axis}={v}",
        )
        for v, cfg in points
    ]


def emit_report(reports, path, format: str = "csv") -> None:
    """Write reports as CSV or JSON; floats carry 6 decimals, order is stable."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    path = Path(path)
    rows = [rep.row() for rep in reports]
    if format == "csv":
        lines = [",".join(REPORT_COLUMNS)] + [
            ",".join(f"{v:.6f}" if col in REPORT_FLOATS else str(v) for col, v in row.items())
            for row in rows
        ]
    else:
        rows = [{col: round(v, 6) if col in REPORT_FLOATS else v for col, v in row.items()}
                for row in rows]
        lines = [json.dumps(rows, indent=2)]
    try:
        write_lines(path, lines)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


"""Few-shot / zero-shot evaluation, ablations, and machine-readable reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, sample_episode
from .graph import RelationGraph
from .numerics import RngStream
from .prior import summary_rows
from .sampler import PrototypeSamples, SamplerConfig, posterior_predict, predict_queries

# Not called here (predict_queries scores zero-shot queries), but bound so
# that benchmarks/tracer.py, which patches this module's call sites by name,
# finds them.
from .likelihood import class_log_probs, encode_batch  # noqa: F401

if TYPE_CHECKING:
    from .trainer import ModelParams

CSV_COLUMNS = (
    "setting", "N", "K", "L", "M", "epsilon0", "alpha", "beta",
    "measure", "episodes", "accuracy", "ci95", "seed",
)


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
    measure: str
    episodes: int
    accuracy: float
    ci95: float
    seed: int
    per_episode: list[float] = field(default_factory=list)

    def row(self) -> dict:
        return {
            "setting": self.setting,
            "N": self.n_way,
            "K": self.k_shot,
            "L": self.chains,
            "M": self.steps,
            "epsilon0": self.step_size,
            "alpha": self.alpha,
            "beta": self.beta,
            "measure": self.measure,
            "episodes": self.episodes,
            "accuracy": self.accuracy,
            "ci95": self.ci95,
            "seed": self.seed,
        }


def episode_outcomes(
    dataset: Dataset, split: str, graph: RelationGraph, params: ModelParams,
    n_way: int, k_shot: int, q_per: int, episodes: int, rng: RngStream,
    sampler_config: SamplerConfig | None = None, measure: str = "dot", tau: float = 10.0,
) -> list[tuple[int, int]]:
    """(correct, queries) of each episode: the one loop of every evaluation.

    Episode i is drawn from rng.child(i, 0) and the relation summaries of its
    targets are computed. With a sampler config its queries are predicted by
    posterior_predict with rng.child(i, 1); without one (zero-shot) they are
    scored against the summaries alone, with ``measure`` and ``tau``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    outcomes = []
    for i in range(episodes):
        episode = sample_episode(dataset, split, n_way, k_shot, q_per, rng.child(i, 0))
        summaries = summary_rows(graph, params.gnn, episode.targets)
        if sampler_config is None:
            _, preds = predict_queries(
                episode.query_x, PrototypeSamples(summaries[None]), params.encoder,
                measure, tau, episode.targets,
            )
        else:
            _, preds = posterior_predict(
                episode.support_x, episode.support_y, episode.targets, episode.query_x,
                summaries, sampler_config, params.encoder, rng.child(i, 1),
            )
        outcomes.append((int(np.sum(preds == episode.query_y)), len(episode.query_y)))
    return outcomes


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
    cfg = sampler_config
    outcomes = episode_outcomes(
        dataset, split, graph, params, n_way, k_shot, q_per, episodes, rng, cfg
    )
    return _report(
        outcomes, rng.seed, setting=setting, n_way=n_way, k_shot=k_shot,
        chains=cfg.chains, steps=cfg.steps, step_size=cfg.step_size, alpha=cfg.alpha,
        beta=cfg.beta, measure=cfg.measure,
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
    measure: str = "dot",
    tau: float = 10.0,
    setting: str = "zeroshot",
) -> EvalReport:
    """Classification from the prior means alone: no support set, no chain.

    Prototypes are set directly to the relation summaries h_r of the episode
    targets, so there is no K parameter in this mode: the queries are scored
    by predict_queries against a single "chain" holding those summaries.
    """
    outcomes = episode_outcomes(
        dataset, split, graph, params, n_way, 0, q_per, episodes, rng,
        measure=measure, tau=tau,
    )
    return _report(
        outcomes, rng.seed, setting=setting, n_way=n_way, k_shot=0, chains=0, steps=0,
        step_size=0.0, alpha=0.0, beta=0.0, measure=measure,
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
    through the swept parameter.
    """
    if axis not in ("L", "M"):
        raise ValueError(f"axis must be 'L' or 'M', got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("no sweep values given")
    reports = []
    for v in values:
        cfg = replace(base_config, chains=v) if axis == "L" else replace(base_config, steps=v)
        reports.append(
            evaluate_fewshot(
                dataset, split, graph, params, n_way, k_shot, q_per,
                episodes, cfg, rng, setting=f"sweep:{axis}={v}",
            )
        )
    return reports


def emit_report(reports, path, format: str = "csv") -> None:
    """Write reports as CSV or JSON; floats carry 6 decimals, order is stable."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for rep in reports:
            row = rep.row()
            cells = []
            for col in CSV_COLUMNS:
                v = row[col]
                cells.append(f"{v:.6f}" if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        payload = "\n".join(lines) + "\n"
    else:
        rows = []
        for rep in reports:
            row = rep.row()
            rows.append(
                {k: (round(v, 6) if isinstance(v, float) else v) for k, v in row.items()}
            )
        payload = json.dumps(rows, indent=2) + "\n"
    try:
        path.write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def parse_report_csv(path) -> list[dict]:
    """Read back an emitted CSV report (used by round-trip checks and tools)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected header")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        row = dict(zip(CSV_COLUMNS, cells))
        for key in ("N", "K", "L", "M", "episodes", "seed"):
            row[key] = int(row[key])
        for key in ("epsilon0", "alpha", "beta", "accuracy", "ci95"):
            row[key] = float(row[key])
        out.append(row)
    return out

"""Graph-convolutional relation summaries, the mean of the prototype prior.

The summary vector h_r of relation r is one propagation of the normalized
adjacency over the node features followed by a linear map. The prior over a
prototype v_r is N(h_r, I); the sampler's chain follows its gradient
h_r - v_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graph import RelationGraph


@dataclass
class GnnParams:
    """One graph-convolution layer: H = A_hat X W + bias."""

    weight: np.ndarray  # (d_g, d)
    bias: np.ndarray  # (d,)
    hops: ClassVar[int] = 1  # read only by benchmarks/workloads.py:load_inputs

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"weight {self.weight.shape} and bias {self.bias.shape} are inconsistent"
            )

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weight.shape[1]


def graph_rows(graph: RelationGraph, params: GnnParams, targets) -> np.ndarray:
    """The layer's inputs: propagated graph rows (N, d_g) of the given
    relation ids, in target order, after the checks; ids (E, N) give (E, N, d_g)."""
    ax = graph.propagated()
    if ax.shape[1] != params.input_dim:
        raise ValueError(
            f"graph feature dim {ax.shape[1]} != layer input dim {params.input_dim}"
        )
    idx = np.asarray(targets, dtype=int)
    bad = idx[(idx < 0) | (idx >= len(ax))]
    if bad.size:
        raise ValueError(f"episode target {int(bad[0])} not in the graph")
    return ax[idx]


def summary_rows(graph: RelationGraph, params: GnnParams, targets) -> np.ndarray:
    """Summaries restricted to the given relation ids (rows in target order).

    Ids (E, N) of E episodes give (E, N, d), each episode's rows with the
    bits of its own call.
    """
    return graph_rows(graph, params, targets) @ params.weight + params.bias


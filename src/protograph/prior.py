"""Graph-convolutional relation summaries and the Gaussian prototype prior.

The summary vector h_r of relation r is one propagation of the normalized
adjacency over the node features followed by a linear map. The prior over a
prototype v_r is N(h_r, I); additive log-density constants are dropped
throughout since only gradients and differences matter downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RelationGraph

ACTIVATIONS = ("identity", "tanh")


@dataclass
class GnnParams:
    """One graph-convolution layer: H = act(A_hat^hops X W + bias)."""

    weight: np.ndarray  # (d_g, d)
    bias: np.ndarray  # (d,)
    activation: str = "identity"
    hops: int = 1

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"weight {self.weight.shape} and bias {self.bias.shape} are inconsistent"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weight.shape[1]


def _apply_activation(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return pre
    return np.tanh(pre)


def relation_summaries(graph: RelationGraph, params: GnnParams) -> np.ndarray:
    """Summary matrix with one h_r row per relation in the graph."""
    return summary_rows(graph, params, np.arange(graph.n_nodes))


def summary_rows(graph: RelationGraph, params: GnnParams, targets) -> np.ndarray:
    """Summaries restricted to the given relation ids (rows in target order)."""
    ax = graph.propagated(params.hops)
    if ax.shape[1] != params.input_dim:
        raise ValueError(
            f"graph feature dim {ax.shape[1]} != layer input dim {params.input_dim}"
        )
    idx = np.asarray(targets, dtype=int)
    return _apply_activation(ax[idx] @ params.weight + params.bias, params.activation)


def prior_log_density_and_grad(
    prototypes: np.ndarray, summaries: np.ndarray
) -> tuple[float, np.ndarray]:
    """Unnormalized Gaussian prior: sum_r -1/2 ||v_r - h_r||^2 and its gradient.

    The gradient with respect to each prototype row is (h_r - v_r).
    """
    v = np.asarray(prototypes, dtype=float)
    h = np.asarray(summaries, dtype=float)
    if v.shape != h.shape:
        raise ValueError(f"shape mismatch: prototypes {v.shape} vs summaries {h.shape}")
    diff = h - v
    value = -0.5 * float(np.sum(diff * diff))
    return value, diff

"""Global relation graph: k-NN construction over relation embeddings and
symmetric adjacency normalization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import parse_ints, read_lines, read_rows, relation_order, write_lines, write_rows

# rows of the distance matrix that build_knn_graph computes and sorts at once:
# their difference tensor holds KNN_BLOCK_ROWS * n * d floats
KNN_BLOCK_ROWS = 32


@dataclass
class RelationGraph:
    """Undirected graph over relation ids with per-node feature vectors.

    Edges are stored as (u, v) pairs with u < v and no self-loops; self-loops
    enter only through :func:`normalized_adjacency`. Node index == relation id.
    """

    node_features: np.ndarray  # (R, d_g)
    edges: np.ndarray  # (E, 2) int, u < v, lexicographically sorted
    _propagated: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.node_features = np.asarray(self.node_features, dtype=float)
        self.edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        if not np.all(np.isfinite(self.node_features)):
            raise ValueError("node features must be finite")
        if len(self.edges) and (
            np.any(self.edges[:, 0] >= self.edges[:, 1])
            or self.edges.max() >= self.n_nodes
            or self.edges.min() < 0
        ):
            raise ValueError("edges must satisfy 0 <= u < v < n_nodes")

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    def propagated(self, hops: int = 1) -> np.ndarray:
        """The normalized adjacency applied once to the node features (cached)."""
        if hops != 1:  # hops is passed only by benchmarks/workloads.py:load_inputs
            raise ValueError(f"the graph layer propagates one hop, not {hops}")
        if self._propagated is None:
            self._propagated = normalized_adjacency(self) @ self.node_features
        return self._propagated


def build_knn_graph(embeddings, k: int) -> RelationGraph:
    """k-nearest-neighbor graph on L2 distances, symmetrized by union.

    Edge (r, r') exists iff r' is among the k nearest of r or vice versa.
    Distance ties are broken by ascending relation id. The distances are
    computed KNN_BLOCK_ROWS rows at a time, so memory grows with n, not n^2.
    """
    x = np.asarray(embeddings, dtype=float)
    if x.ndim != 2:
        raise ValueError("embeddings must be a 2-D matrix")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of relations ({n})")

    nearest = np.empty((n, k), dtype=int)
    for lo in range(0, n, KNN_BLOCK_ROWS):
        block = x[lo : lo + KNN_BLOCK_ROWS]
        diff = block[:, None, :] - x[None, :, :]
        dist2 = np.einsum("ijd,ijd->ij", diff, diff)
        # each row's own node sorts first; a stable sort keeps ties in id order
        rows = np.arange(len(block))
        dist2[rows, lo + rows] = -np.inf
        nearest[lo : lo + len(block)] = np.argsort(dist2, axis=1, kind="stable")[:, 1 : k + 1]
    nearest = nearest.ravel()
    ids = np.repeat(np.arange(n), k)
    pairs = np.stack([np.minimum(ids, nearest), np.maximum(ids, nearest)], axis=1)
    return RelationGraph(node_features=x, edges=np.unique(pairs, axis=0))


def normalized_adjacency(graph: RelationGraph) -> np.ndarray:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    a = np.eye(graph.n_nodes)
    u, v = graph.edges.T
    a[u, v] = a[v, u] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def save_edges(graph: RelationGraph, path) -> None:
    """Write the undirected edge list, one "u<TAB>v" line per edge, u < v."""
    write_lines(path, (f"{u}\t{v}" for u, v in graph.edges))


def load_graph(embeddings, edges_path) -> RelationGraph:
    """Rebuild a graph from node embeddings plus a saved edge list."""
    x = np.asarray(embeddings, dtype=float)
    edges = []
    for lineno, line in read_lines(edges_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{edges_path}:{lineno}: expected 'u<TAB>v'")
        u, v = parse_ints(parts, edges_path, lineno)
        if u >= v:
            raise ValueError(f"{edges_path}:{lineno}: edges must have u < v")
        for node in (u, v):
            if not 0 <= node < len(x):
                raise ValueError(
                    f"{edges_path}:{lineno}: node {node} not among the {len(x)} embeddings"
                )
        edges.append((u, v))
    edge_arr = np.array(sorted(set(edges)), dtype=int).reshape(-1, 2)
    return RelationGraph(node_features=x, edges=edge_arr)


def load_embeddings(path) -> np.ndarray:
    """Read "relation_id<TAB>values..." lines; row index must equal the id."""
    linenos, ids, values = read_rows(path, "embedding", "embedding")
    return values[relation_order(path, linenos, ids)]


def save_embeddings(embeddings, path) -> None:
    write_rows(path, enumerate(np.asarray(embeddings, dtype=float)))

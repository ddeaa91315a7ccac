"""Global relation graph: k-NN construction over relation embeddings and
symmetric adjacency normalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import first_nonfinite_line, parse_ints, parse_row, read_lines


@dataclass
class RelationGraph:
    """Undirected graph over relation ids with per-node feature vectors.

    Edges are stored as (u, v) pairs with u < v and no self-loops; self-loops
    enter only through :func:`normalized_adjacency`. Node index == relation id.
    """

    node_features: np.ndarray  # (R, d_g)
    edges: np.ndarray  # (E, 2) int, u < v, lexicographically sorted
    _propagated: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

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
        """Normalized adjacency applied ``hops`` times to the node features (cached)."""
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if hops not in self._propagated:
            a_hat = normalized_adjacency(self)
            out = self.node_features
            for _ in range(hops):
                out = a_hat @ out
            self._propagated[hops] = out
        return self._propagated[hops]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def build_knn_graph(embeddings, k: int) -> RelationGraph:
    """k-nearest-neighbor graph on Euclidean distances, symmetrized by union.

    Edge (r, r') exists iff r' is among the k nearest of r or vice versa.
    Distance ties are broken by ascending relation id.
    """
    x = np.asarray(embeddings, dtype=float)
    if x.ndim != 2:
        raise ValueError("embeddings must be a 2-D matrix")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of relations ({n})")

    diff = x[:, None, :] - x[None, :, :]
    dist2 = np.einsum("ijd,ijd->ij", diff, diff)

    edges = set()
    ids = np.arange(n)
    for r in range(n):
        others = ids[ids != r]
        # lexsort: primary key distance, secondary ascending id
        order = np.lexsort((others, dist2[r, others]))
        for j in others[order][:k]:
            edges.add((min(r, int(j)), max(r, int(j))))
    edge_arr = np.array(sorted(edges), dtype=int).reshape(-1, 2)
    return RelationGraph(node_features=x, edges=edge_arr)


def normalized_adjacency(graph: RelationGraph) -> np.ndarray:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    n = graph.n_nodes
    a = np.zeros((n, n), dtype=float)
    for u, v in graph.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    a += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def save_edges(graph: RelationGraph, path) -> None:
    """Write the undirected edge list, one "u<TAB>v" line per edge, u < v."""
    lines = [f"{u}\t{v}" for u, v in graph.edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        edges.append((u, v))
    edge_arr = np.array(sorted(set(edges)), dtype=int).reshape(-1, 2)
    return RelationGraph(node_features=x, edges=edge_arr)


def load_embeddings(path) -> np.ndarray:
    """Read "relation_id<TAB>values..." lines; row index must equal the id."""
    rows = {}
    d = None
    for lineno, line in read_lines(path):
        rid, vec = parse_row(line, path, lineno)
        if d is None:
            d = len(vec)
        elif len(vec) != d:
            raise ValueError(f"{path}:{lineno}: dimension {len(vec)} != {d}")
        if rid in rows:
            raise ValueError(f"{path}:{lineno}: duplicate relation id {rid}")
        rows[rid] = vec
    if not rows:
        raise ValueError(f"{path}: no embeddings")
    if sorted(rows) != list(range(len(rows))):
        raise ValueError(f"{path}: relation ids must be contiguous from 0")
    out = np.vstack([rows[r] for r in range(len(rows))])
    if not np.isfinite(out).all():
        raise ValueError(f"{path}:{first_nonfinite_line(path)}: non-finite embedding")
    return out


def save_embeddings(embeddings, path) -> None:
    x = np.asarray(embeddings, dtype=float)
    lines = [
        f"{r}\t" + "\t".join(repr(float(v)) for v in x[r]) for r in range(len(x))
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

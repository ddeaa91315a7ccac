"""Tests for k-NN graph construction and adjacency normalization."""

import tracemalloc

import numpy as np
import pytest

from protograph import data
from protograph.graph import (
    KNN_BLOCK_ROWS,
    RelationGraph,
    build_knn_graph,
    load_embeddings,
    load_graph,
    normalized_adjacency,
    save_edges,
    save_embeddings,
)


def brute_force_knn_edges(x, k):
    """Independent oracle: explicit (distance, id) sorting per node, union."""
    n = len(x)
    edges = set()
    for r in range(n):
        scored = sorted(
            (float(np.sum((x[r] - x[j]) ** 2)), j) for j in range(n) if j != r
        )
        for _, j in scored[:k]:
            edges.add((min(r, j), max(r, j)))
    return edges


class TestBuildKnn:
    def test_two_nodes_single_edge(self):
        g = build_knn_graph(np.array([[0.0], [1.0]]), 1)
        assert g.edges.tolist() == [[0, 1]]

    def test_line_with_tie_resolves_to_lower_id(self):
        # positions 0, 1, 2, 10: node 1 ties between 0 and 2 and picks id 0
        g = build_knn_graph(np.array([[0.0], [1.0], [2.0], [10.0]]), 1)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_default_k10_degree(self):
        gen = np.random.default_rng(0)
        g = build_knn_graph(gen.standard_normal((18, 5)), 10)
        assert np.all(np.bincount(g.edges.ravel(), minlength=g.n_nodes) >= 10)

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError, match="k=4"):
            build_knn_graph(np.zeros((4, 2)) + np.arange(4)[:, None], 4)

    def test_matches_brute_force(self):
        gen = np.random.default_rng(1)
        for case in range(120):
            n = int(gen.integers(3, 12))
            k = int(gen.integers(1, n))
            x = gen.standard_normal((n, 3))
            g = build_knn_graph(x, k)
            assert {tuple(e) for e in g.edges} == brute_force_knn_edges(x, k)

    def test_tie_breaking_on_lattice(self):
        # integer lattice coordinates force many exact distance ties
        gen = np.random.default_rng(2)
        for case in range(120):
            n = int(gen.integers(4, 10))
            k = int(gen.integers(1, min(n - 1, 3) + 1))
            x = gen.integers(0, 3, size=(n, 2)).astype(float)
            g = build_knn_graph(x, k)
            assert {tuple(e) for e in g.edges} == brute_force_knn_edges(x, k)

    @pytest.mark.parametrize("n", [KNN_BLOCK_ROWS + 1, 2 * KNN_BLOCK_ROWS + 7])
    def test_matches_brute_force_across_row_blocks(self, n):
        # lattice ties between rows of different blocks break by id as within one
        gen = np.random.default_rng(n)
        for k in (1, 4, n - 1):
            x = gen.integers(0, 3, size=(n, 2)).astype(float)
            g = build_knn_graph(x, k)
            assert {tuple(e) for e in g.edges} == brute_force_knn_edges(x, k)

    def test_large_graph_in_bounded_memory(self):
        # the full (n, n, d) difference tensor of 3,000 relations at d=16
        # would take 1.1 GB; row blocks keep the build within a few of them
        x = np.random.default_rng(5).standard_normal((3000, 16))
        tracemalloc.start()
        try:
            g = build_knn_graph(x, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all(np.bincount(g.edges.ravel(), minlength=3000) >= 10)

    def test_permutation_equivariance(self):
        gen = np.random.default_rng(3)
        for case in range(100):
            n = int(gen.integers(4, 10))
            k = int(gen.integers(1, n - 1))
            x = gen.standard_normal((n, 4))
            perm = gen.permutation(n)
            g = build_knn_graph(x, k)
            gp = build_knn_graph(x[perm], k)
            # node i of the permuted graph is node perm[i] of the original
            mapped = {
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in gp.edges
            }
            assert mapped == {tuple(e) for e in g.edges}

    def test_degree_at_least_k(self):
        gen = np.random.default_rng(4)
        for case in range(100):
            n = int(gen.integers(4, 14))
            k = int(gen.integers(1, n - 1))
            g = build_knn_graph(gen.standard_normal((n, 3)), k)
            assert np.all(np.bincount(g.edges.ravel(), minlength=g.n_nodes) >= k)


class TestNormalizedAdjacency:
    def test_isolated_node(self):
        g = RelationGraph(node_features=np.zeros((1, 2)), edges=np.zeros((0, 2), dtype=int))
        np.testing.assert_array_equal(normalized_adjacency(g), [[1.0]])

    def test_two_connected_nodes(self):
        g = RelationGraph(node_features=np.zeros((2, 2)), edges=np.array([[0, 1]]))
        np.testing.assert_allclose(
            normalized_adjacency(g), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_symmetry(self):
        gen = np.random.default_rng(5)
        for case in range(100):
            n = int(gen.integers(2, 10))
            k = int(gen.integers(1, n))
            g = build_knn_graph(gen.standard_normal((n, 3)), k)
            a = normalized_adjacency(g)
            assert np.max(np.abs(a - a.T)) < 1e-12

    def test_regular_graph_constant_row_sums(self):
        # cycle of 6 nodes: every node has degree 2
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
        g = RelationGraph(node_features=np.zeros((6, 2)), edges=edges)
        sums = normalized_adjacency(g).sum(axis=1)
        np.testing.assert_allclose(sums, sums[0], atol=1e-12)

    def test_rows_finite(self):
        gen = np.random.default_rng(6)
        g = build_knn_graph(gen.standard_normal((9, 4)), 3)
        assert np.all(np.isfinite(normalized_adjacency(g)))


class TestGraphIO:
    def test_edge_round_trip(self, tmp_path):
        gen = np.random.default_rng(7)
        x = gen.standard_normal((8, 3))
        g = build_knn_graph(x, 2)
        save_edges(g, tmp_path / "edges.tsv")
        back = load_graph(x, tmp_path / "edges.tsv")
        np.testing.assert_array_equal(back.edges, g.edges)

    # 2: the least buffer a binary file takes (a buffering of 1 asks for line buffering)
    @pytest.mark.parametrize("block", [2, 16, 2**16])
    def test_edges_written_a_block_at_a_time_equal_the_joined_text(
        self, tmp_path, monkeypatch, block
    ):
        monkeypatch.setattr(data, "BLOCK_BYTES", block)
        gen = np.random.default_rng(block)
        # the first world has no edge, which is written as one "\n"
        worlds = [RelationGraph(node_features=np.zeros((3, 2)), edges=np.zeros((0, 2)))]
        worlds += [build_knn_graph(gen.standard_normal((int(gen.integers(5, 30)), 3)),
                                   int(gen.integers(1, 4))) for _ in range(20)]
        for g in worlds:
            save_edges(g, tmp_path / "edges.tsv")
            joined = "\n".join(f"{u}\t{v}" for u, v in g.edges.tolist()) + "\n"
            assert (tmp_path / "edges.tsv").read_bytes() == joined.encode()

    def test_embeddings_round_trip(self, tmp_path):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((5, 4))
        save_embeddings(x, tmp_path / "emb.tsv")
        np.testing.assert_array_equal(load_embeddings(tmp_path / "emb.tsv"), x)

    def test_bad_edge_file(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("2\t1\n")
        with pytest.raises(ValueError, match="u < v"):
            load_graph(np.zeros((3, 2)), tmp_path / "edges.tsv")

    @pytest.mark.parametrize("line, node", [("0\t99", 99), ("-1\t3", -1), ("2\t4", 4)])
    def test_edge_node_outside_the_embeddings(self, tmp_path, line, node):
        (tmp_path / "edges.tsv").write_text(f"0\t1\n{line}\n")
        message = rf"edges.tsv:2: node {node} not among the 4 embeddings$"
        with pytest.raises(ValueError, match=message):
            load_graph(np.zeros((4, 2)), tmp_path / "edges.tsv")

    def test_noncontiguous_embedding_ids(self, tmp_path):
        (tmp_path / "emb.tsv").write_text("0\t1.0\n2\t2.0\n")
        with pytest.raises(ValueError, match="contiguous"):
            load_embeddings(tmp_path / "emb.tsv")

    def test_propagated_caches_one_hop(self):
        gen = np.random.default_rng(9)
        g = build_knn_graph(gen.standard_normal((6, 3)), 2)
        ax = g.propagated()
        assert ax.tobytes() == (normalized_adjacency(g) @ g.node_features).tobytes()
        assert g.propagated() is ax
        with pytest.raises(ValueError, match="one hop, not 2"):
            g.propagated(2)

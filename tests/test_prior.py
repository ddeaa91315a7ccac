"""Tests for the relation summaries and the Gaussian prototype prior."""

import numpy as np
import pytest

from protograph.graph import RelationGraph, build_knn_graph
from protograph.numerics import RngStream, finite_difference_gradient, max_relative_error
from protograph.prior import GnnParams, summary_rows
from protograph.sampler import SamplerConfig, sgld_chain


def isolated(features):
    return RelationGraph(node_features=features, edges=np.zeros((0, 2), dtype=int))


def all_summary_rows(graph, params):
    """One summary row per relation of the graph, in id order."""
    return summary_rows(graph, params, np.arange(graph.n_nodes))


class TestRelationSummaries:
    def test_isolated_node_identity_weight(self):
        f = np.array([[1.5, -2.0]])
        params = GnnParams(weight=np.eye(2), bias=np.zeros(2))
        np.testing.assert_allclose(all_summary_rows(isolated(f), params), f, atol=1e-15)

    def test_two_connected_nodes_average(self):
        f = np.array([[1.0, 2.0], [3.0, -4.0]])
        g = RelationGraph(node_features=f, edges=np.array([[0, 1]]))
        params = GnnParams(weight=np.eye(2), bias=np.zeros(2))
        h = all_summary_rows(g, params)
        np.testing.assert_allclose(h[0], (f[0] + f[1]) / 2, atol=1e-12)
        np.testing.assert_allclose(h[1], (f[0] + f[1]) / 2, atol=1e-12)

    def test_zero_weight_gives_bias(self):
        f = np.random.default_rng(0).standard_normal((4, 3))
        g = build_knn_graph(f, 2)
        bias = np.array([1.0, -2.0])
        params = GnnParams(weight=np.zeros((3, 2)), bias=bias)
        h = all_summary_rows(g, params)
        np.testing.assert_allclose(h, np.tile(bias, (4, 1)), atol=1e-15)

    def test_dimension_mismatch_raises(self):
        g = isolated(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="dim"):
            all_summary_rows(g, GnnParams(weight=np.eye(2), bias=np.zeros(2)))

    def test_linearity_in_features(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal((6, 3))
        w = gen.standard_normal((3, 2))
        params = GnnParams(weight=w, bias=np.zeros(2))
        g1 = build_knn_graph(x, 2)
        g2 = RelationGraph(node_features=3.0 * x, edges=g1.edges)
        np.testing.assert_allclose(
            all_summary_rows(g2, params),
            3.0 * all_summary_rows(g1, params),
            atol=1e-10,
        )

    def test_summary_rows_match_full_matrix(self):
        gen = np.random.default_rng(2)
        g = build_knn_graph(gen.standard_normal((7, 3)), 2)
        params = GnnParams(weight=gen.standard_normal((3, 4)), bias=gen.standard_normal(4))
        full = all_summary_rows(g, params)
        np.testing.assert_array_equal(summary_rows(g, params, [5, 1, 3]), full[[5, 1, 3]])

    def test_negative_target_raises(self):
        # a negative id once indexed from the end: relation 5's summary
        g = build_knn_graph(np.random.default_rng(3).standard_normal((6, 3)), 2)
        params = GnnParams(weight=np.eye(3), bias=np.zeros(3))
        with pytest.raises(ValueError, match=r"^episode target -1 not in the graph$"):
            summary_rows(g, params, [2, -1])


def prior_gradient(v, h):
    """The prior gradient the chain follows at prototypes v (N, d): one
    noiseless prior-only step of size 1 moves v by half of it."""
    n, d = h.shape
    cfg = SamplerConfig(
        chains=1, steps=1, step_size=1.0, noise_enabled=False, likelihood_weight=0.0
    )
    out, _ = sgld_chain(
        np.zeros((0, d)), np.zeros((0, n)), 0, list(range(n)), h, v[None].copy(), cfg,
        RngStream(0),
    )
    return 2.0 * (out[0] - v)


def log_prior(v, h):
    """sum_r -1/2 ||v_r - h_r||^2, the N(h, I) log-density up to a constant."""
    return -0.5 * float(np.sum((v - h) ** 2))


class TestPriorDensity:
    def test_at_the_mode(self):
        h = np.random.default_rng(3).standard_normal((3, 4))
        np.testing.assert_array_equal(prior_gradient(h.copy(), h), np.zeros_like(h))

    def test_single_relation_closed_form(self):
        h = np.array([[0.0, 0.0]])
        v = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(prior_gradient(v, h), [[-1.0, 0.0]], atol=1e-15)

    def test_gradient_matches_oracle(self):
        gen = np.random.default_rng(4)
        v = gen.standard_normal((3, 4))
        h = gen.standard_normal((3, 4))
        fd = finite_difference_gradient(lambda x: log_prior(x, h), v)
        assert max_relative_error(prior_gradient(v, h), fd) < 1e-4

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="do not match"):
            sgld_chain(
                np.zeros((0, 3)), np.zeros((0, 2)), 0, [0, 1], np.zeros((3, 2)),
                np.zeros((1, 2, 3)), SamplerConfig(likelihood_weight=0.0), RngStream(0),
            )

    def test_factorizes_over_relations(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            n = int(gen.integers(2, 7))
            v = gen.standard_normal((n, 3))
            h = gen.standard_normal((n, 3))
            total = prior_gradient(v, h)
            split = int(gen.integers(1, n))
            np.testing.assert_array_equal(total[:split], prior_gradient(v[:split], h[:split]))
            np.testing.assert_array_equal(total[split:], prior_gradient(v[split:], h[split:]))

    def test_gradient_linear_in_residual(self):
        gen = np.random.default_rng(6)
        v = gen.standard_normal((2, 3))
        h = gen.standard_normal((2, 3))
        g1 = prior_gradient(v, h)
        g2 = prior_gradient(h + 2.0 * (v - h), h)
        np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-12)

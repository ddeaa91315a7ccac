"""Tests for the encoder and the temperature-softmax likelihood."""

import math

import numpy as np
import pytest

from protograph.likelihood import (
    EncoderParams,
    class_log_probs,
    encode_batch,
    pairwise_logits,
    pairwise_logits_vjp,
    support_labels,
    support_log_likelihood_and_grad,
)
from protograph.numerics import finite_difference_gradient, max_relative_error

IDENTITY = EncoderParams(mode="identity")


class TestEncode:
    def test_identity_passthrough(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(encode_batch(x, IDENTITY), x)

    def test_zero_weight_returns_bias(self):
        params = EncoderParams(mode="linear", weight=np.zeros((2, 3)), bias=np.array([5.0, -1.0]))
        np.testing.assert_array_equal(encode_batch(np.ones(3), params), [5.0, -1.0])

    def test_double_identity(self):
        params = EncoderParams(mode="linear", weight=2.0 * np.eye(2), bias=np.zeros(2))
        np.testing.assert_array_equal(encode_batch(np.array([1.0, -1.0]), params), [2.0, -2.0])

    def test_dimension_mismatch(self):
        params = EncoderParams(mode="linear", weight=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ValueError, match="dim"):
            encode_batch(np.ones(3), params)

    def test_batch_matches_single(self):
        gen = np.random.default_rng(0)
        params = EncoderParams(
            mode="linear", weight=gen.standard_normal((3, 4)), bias=gen.standard_normal(3)
        )
        x = gen.standard_normal((5, 4))
        batch = encode_batch(x, params)
        for i in range(5):
            np.testing.assert_allclose(batch[i], encode_batch(x[i], params), atol=1e-12)


class TestClassLogProbs:
    def test_identical_prototypes_uniform(self):
        v = np.tile([1.0, 2.0], (4, 1))
        out = class_log_probs(np.array([0.3, -0.4]), v, "dot", 10.0)
        np.testing.assert_allclose(out, np.full(4, -math.log(4)), atol=1e-12)

    def test_two_class_closed_form(self):
        out = class_log_probs(np.array([1.0]), np.array([[1.0], [0.0]]), "dot", 1.0)
        expect = np.log([math.e / (1 + math.e), 1 / (1 + math.e)])
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_euclidean_prefers_matching_prototype(self):
        v = np.array([[0.0, 0.0], [10.0, 10.0]])
        out = class_log_probs(np.array([0.0, 0.0]), v, "euclidean", 1.0)
        assert out[0] > out[1]

    def test_empty_class_set(self):
        with pytest.raises(ValueError, match="empty class set"):
            class_log_probs(np.ones(2), np.zeros((0, 2)), "dot", 1.0)

    def test_probabilities_normalize(self):
        gen = np.random.default_rng(1)
        for measure in ("dot", "euclidean"):
            for _ in range(100):
                n = int(gen.integers(1, 8))
                d = int(gen.integers(1, 5))
                out = class_log_probs(
                    gen.standard_normal(d), gen.standard_normal((n, d)), measure, 10.0
                )
                assert abs(np.exp(out).sum() - 1.0) < 1e-9

    def test_euclidean_translation_invariance(self):
        gen = np.random.default_rng(2)
        for _ in range(100):
            d = int(gen.integers(1, 5))
            e = gen.standard_normal(d)
            v = gen.standard_normal((4, d))
            shift = gen.standard_normal(d)
            a = class_log_probs(e, v, "euclidean", 5.0)
            b = class_log_probs(e + shift, v + shift, "euclidean", 5.0)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            class_log_probs(np.ones(2), np.ones((2, 2)), "cosine", 1.0)


class TestPairwiseLogitsVjp:
    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_matches_central_differences(self, measure):
        # L=3 prototype sets; the cotangent weights every logit differently
        gen = np.random.default_rng(31)
        enc = gen.standard_normal((4, 3))
        values = gen.standard_normal((3, 5, 3))
        cotangent = gen.standard_normal((3, 4, 5))
        d_enc, d_values = pairwise_logits_vjp(cotangent, enc, values, measure)
        fd_enc = finite_difference_gradient(
            lambda e: np.sum(cotangent * pairwise_logits(e, values, measure)), enc
        )
        fd_values = finite_difference_gradient(
            lambda v: np.sum(cotangent * pairwise_logits(enc, v, measure)), values
        )
        assert d_enc.shape == enc.shape and d_values.shape == values.shape
        assert max_relative_error(d_enc, fd_enc) < 1e-8
        assert max_relative_error(d_values, fd_values) < 1e-8


class TestSupportLogLikelihood:
    def test_single_class_is_zero(self):
        value, grad = support_log_likelihood_and_grad(
            np.ones((1, 2)), np.zeros(1, dtype=int), np.ones((1, 2)), IDENTITY, "dot", 10.0
        )
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((1, 2)))

    def test_hand_built_two_class(self):
        # d=1, two relations with prototypes 2 and -1, one support each at 1 and -1
        x = np.array([[1.0], [-1.0]])
        y = np.array([0, 1])
        v = np.array([[2.0], [-1.0]])
        tau = 1.0
        z = x @ v.T  # rows of logits
        expect = 0.0
        for s in range(2):
            row = z[s] / tau
            expect += row[y[s]] - math.log(np.exp(row).sum())
        value, _ = support_log_likelihood_and_grad(x, y, v, IDENTITY, "dot", tau)
        assert value == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_gradient_matches_oracle(self, measure):
        gen = np.random.default_rng(3)
        for _ in range(10):
            n, k, d = 3, 2, 3
            x = gen.standard_normal((n * k, d))
            y = np.repeat(np.arange(n), k)
            v = gen.standard_normal((n, d))
            _, grad = support_log_likelihood_and_grad(x, y, v, IDENTITY, measure, 7.0)
            fd = finite_difference_gradient(
                lambda p: support_log_likelihood_and_grad(x, y, p, IDENTITY, measure, 7.0)[0],
                v,
            )
            assert max_relative_error(grad, fd) < 1e-4

    def test_label_outside_targets(self):
        with pytest.raises(ValueError, match="outside"):
            support_log_likelihood_and_grad(
                np.ones((1, 2)), np.array([5]), np.ones((2, 2)), IDENTITY, "dot", 1.0
            )

    def test_unequal_counts_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            support_log_likelihood_and_grad(
                np.ones((3, 2)), np.array([0, 0, 1]), np.ones((2, 2)), IDENTITY, "dot", 1.0
            )

    def test_duplication_invariance_with_normalization(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((4, 3))
        y = np.array([0, 0, 1, 1])
        v = gen.standard_normal((2, 3))
        v1, g1 = support_log_likelihood_and_grad(x, y, v, IDENTITY, "dot", 5.0)
        v2, g2 = support_log_likelihood_and_grad(
            np.vstack([x, x]), np.concatenate([y, y]), v, IDENTITY, "dot", 5.0
        )
        assert v1 == pytest.approx(v2, abs=1e-12)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_support_order_invariance(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            x = gen.standard_normal((6, 2))
            y = np.array([0, 0, 1, 1, 2, 2])
            v = gen.standard_normal((3, 2))
            perm = gen.permutation(6)
            v1, g1 = support_log_likelihood_and_grad(x, y, v, IDENTITY, "euclidean", 3.0)
            v2, g2 = support_log_likelihood_and_grad(x[perm], y[perm], v, IDENTITY, "euclidean", 3.0)
            assert v1 == pytest.approx(v2, abs=1e-12)
            np.testing.assert_allclose(g1, g2, atol=1e-12)


class TestSupportLabels:
    def test_one_hot_and_shot_count(self):
        one_hot, k_shot = support_labels(np.array([1, 0, 0, 1]), 2)
        np.testing.assert_array_equal(one_hot, [[0, 1], [1, 0], [1, 0], [0, 1]])
        assert k_shot == 2

    @pytest.mark.parametrize("labels, n_way, message", [
        ([], 2, "empty support"),
        ([0, 2], 2, "support label 2 outside the 2 target classes"),
        ([0, -1], 2, "support label -1 outside"),
        ([0, 0, 1], 2, r"unequal support counts per class: \[2, 1\]"),
        ([0, 0], 2, r"unequal support counts per class: \[2, 0\]"),
    ])
    def test_rejects(self, labels, n_way, message):
        with pytest.raises(ValueError, match=message):
            support_labels(np.array(labels, dtype=int), n_way)

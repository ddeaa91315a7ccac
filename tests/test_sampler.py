"""Tests for warm-start initialization, SGLD chains, and Monte Carlo prediction."""

import numpy as np
import pytest

from protograph.likelihood import (
    EncoderParams,
    pairwise_logits,
    support_labels,
    support_log_likelihood_and_grad,
    support_probs_and_grad,
)
from protograph.numerics import RngStream, softmax_with_temperature, standard_normal_sample
from protograph.sampler import (
    PrototypeSamples,
    SamplerConfig,
    SupportStatistics,
    init_objective_and_grad,
    init_prototypes,
    posterior_predict,
    predict_queries,
    sgld_chain,
    support_statistics,
)

IDENTITY = EncoderParams(mode="identity")


class TestSupportStatistics:
    def test_single_instance(self):
        e = np.array([[2.0, -1.0]])
        stats = support_statistics(e, np.array([0]), 1)
        np.testing.assert_array_equal(stats.class_means, e)
        np.testing.assert_array_equal(stats.grand_mean, e[0])

    def test_two_classes_hand_mean(self):
        e = np.array([[1.0, 0.0], [3.0, 2.0]])
        stats = support_statistics(e, np.array([0, 1]), 2)
        np.testing.assert_array_equal(stats.class_means, e)
        np.testing.assert_allclose(stats.grand_mean, [2.0, 1.0], atol=1e-15)

    def test_duplicated_support_same_statistics(self):
        gen = np.random.default_rng(0)
        e = gen.standard_normal((4, 3))
        y = np.array([0, 0, 1, 1])
        a = support_statistics(e, y, 2)
        b = support_statistics(np.vstack([e, e]), np.concatenate([y, y]), 2)
        np.testing.assert_allclose(a.class_means, b.class_means, atol=1e-12)
        np.testing.assert_allclose(a.grand_mean, b.grand_mean, atol=1e-12)

    def test_empty_support_raises(self):
        with pytest.raises(ValueError, match="empty support"):
            support_statistics(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)


class TestInitPrototypes:
    def test_single_relation_equals_summary(self):
        # with one relation m_r = m, so v = h_r at alpha = beta = 1
        stats = SupportStatistics(class_means=np.array([[3.0, 1.0]]), grand_mean=np.array([3.0, 1.0]))
        h = np.array([[0.5, -0.5]])
        samples = init_prototypes(stats, h, 1.0, 1.0, 2)
        np.testing.assert_allclose(samples.values[0], h, atol=1e-15)

    def test_hand_case_d1(self):
        stats = SupportStatistics(class_means=np.array([[2.0], [0.0]]), grand_mean=np.array([1.0]))
        h = np.array([[1.0], [1.0]])
        samples = init_prototypes(stats, h, 1.0, 1.0, 1)
        np.testing.assert_allclose(samples.values[0], [[2.0], [0.0]], atol=1e-15)

    def test_zero_weights_recover_class_means(self):
        gen = np.random.default_rng(1)
        stats = SupportStatistics(
            class_means=gen.standard_normal((3, 2)), grand_mean=gen.standard_normal(2)
        )
        samples = init_prototypes(stats, gen.standard_normal((3, 2)), 0.0, 0.0, 4)
        for l in range(4):
            np.testing.assert_array_equal(samples.values[l], stats.class_means)

    def test_chains_share_the_init(self):
        gen = np.random.default_rng(2)
        stats = SupportStatistics(
            class_means=gen.standard_normal((2, 3)), grand_mean=gen.standard_normal(3)
        )
        samples = init_prototypes(stats, gen.standard_normal((2, 3)), 1.0, 1.0, 5)
        for l in range(1, 5):
            np.testing.assert_array_equal(samples.values[l], samples.values[0])


class TestInitObjective:
    def test_gradient_zero_at_init(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            n, d = int(gen.integers(1, 5)), int(gen.integers(1, 5))
            stats = SupportStatistics(
                class_means=gen.standard_normal((n, d)), grand_mean=gen.standard_normal(d)
            )
            h = gen.standard_normal((n, d))
            init = init_prototypes(stats, h, 1.0, 1.0, 1).values[0]
            _, grad = init_objective_and_grad(init, stats, h)
            assert np.max(np.abs(grad)) < 1e-8

    def test_gradient_ascent_converges_to_init(self):
        gen = np.random.default_rng(4)
        stats = SupportStatistics(
            class_means=gen.standard_normal((3, 4)), grand_mean=gen.standard_normal(4)
        )
        h = gen.standard_normal((3, 4))
        init = init_prototypes(stats, h, 1.0, 1.0, 1).values[0]
        v = gen.standard_normal((3, 4)) * 5.0
        for _ in range(60):
            _, grad = init_objective_and_grad(v, stats, h)
            v = v + 0.5 * grad
        assert np.linalg.norm(v - init) < 1e-4

    def test_value_is_negative_half_squared_distance(self):
        stats = SupportStatistics(class_means=np.zeros((1, 2)), grand_mean=np.zeros(2))
        h = np.zeros((1, 2))
        value, _ = init_objective_and_grad(np.array([[3.0, 4.0]]), stats, h)
        assert value == pytest.approx(-12.5)


def run_chain(values, summaries, config, rng, support=None, targets=None):
    n = values.shape[1]
    if support is None:
        sx, sy = np.zeros((0, values.shape[2])), np.zeros(0, dtype=int)
    else:
        sx, sy = support
    samples = PrototypeSamples(values=values.copy())
    return sgld_chain(
        sx, sy, list(range(n)) if targets is None else targets,
        summaries, samples, config, rng,
    )


class TestSgldChain:
    def test_zero_step_size_is_identity(self):
        gen = np.random.default_rng(5)
        v = gen.standard_normal((2, 3, 2))
        h = gen.standard_normal((3, 2))
        cfg = SamplerConfig(chains=2, steps=4, step_size=0.0, likelihood_weight=0.0)
        out = run_chain(v, h, cfg, RngStream(0))
        np.testing.assert_array_equal(out.values, v)

    def test_prior_only_noiseless_converges_monotonically(self):
        gen = np.random.default_rng(6)
        v = gen.standard_normal((1, 2, 3)) * 4.0
        h = gen.standard_normal((2, 3))
        cfg = SamplerConfig(
            chains=1, steps=40, step_size=0.05, noise_enabled=False, likelihood_weight=0.0
        )
        samples = PrototypeSamples(values=v.copy())
        _, record = sgld_chain(
            np.zeros((0, 3)), np.zeros(0, dtype=int), [0, 1], h, samples, cfg,
            RngStream(0), record=True,
        )
        dists = [np.linalg.norm(record.trajectory[t, 0] - h) for t in range(41)]
        assert all(dists[t + 1] < dists[t] for t in range(40))

    def test_fixed_seed_bit_identical(self):
        gen = np.random.default_rng(7)
        v = gen.standard_normal((3, 2, 2))
        h = gen.standard_normal((2, 2))
        sx = gen.standard_normal((2, 2))
        sy = np.array([0, 1])
        cfg = SamplerConfig(chains=3, steps=5)
        a = run_chain(v, h, cfg, RngStream(11), support=(sx, sy))
        b = run_chain(v, h, cfg, RngStream(11), support=(sx, sy))
        np.testing.assert_array_equal(a.values, b.values)

    def test_divergence_reports_chain_and_step(self):
        # without the prior any step size is accepted; the likelihood drift
        # of huge support encodings overflows at the first step
        v = np.zeros((2, 2, 1))
        h = np.zeros((2, 1))
        support = (np.array([[1e200], [-1e200]]), np.array([0, 1]))
        cfg = SamplerConfig(chains=2, steps=3, step_size=1e300, prior_weight=0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="sampler diverged at chain 0 step 1"):
                run_chain(v, h, cfg, RngStream(0), support=support)

    def test_maml_correspondence(self):
        # noise off and prior weight zero: the chain is plain gradient ascent
        # on the K-normalized support log-likelihood (independent loop below)
        gen = np.random.default_rng(8)
        n, k, d, tau = 3, 2, 4, 10.0
        sx = gen.standard_normal((n * k, d))
        sy = np.repeat(np.arange(n), k)
        h = gen.standard_normal((n, d))
        v0 = gen.standard_normal((n, d))
        steps, eps0, decay = 5, 0.1, 0.3
        cfg = SamplerConfig(
            chains=1, steps=steps, step_size=eps0, step_decay=decay,
            noise_enabled=False, prior_weight=0.0, tau=tau,
        )
        out = run_chain(v0[None, :, :], h, cfg, RngStream(0), support=(sx, sy))

        one_hot = np.zeros((n * k, n))
        one_hot[np.arange(n * k), sy] = 1.0
        v = v0.copy()
        for t in range(1, steps + 1):
            eps_t = eps0 * t ** (-decay)
            probs = softmax_with_temperature(sx @ v.T, tau)
            grad = (one_hot - probs).T @ sx / (k * tau)
            v = v + 0.5 * eps_t * grad
        np.testing.assert_allclose(out.values[0], v, atol=1e-10)

    @pytest.mark.parametrize("measure", ["euclidean", "dot"])
    def test_one_step_is_support_gradient_ascent_per_chain(self, measure):
        # noise off, prior weight zero: one step moves every chain along its
        # own K-normalized support log-likelihood gradient
        gen = np.random.default_rng(17)
        n, k, d, tau, eps = 3, 2, 4, 5.0, 0.3
        sx = gen.standard_normal((n * k, d))
        sy = np.repeat(np.arange(n), k)
        v = gen.standard_normal((3, n, d))
        cfg = SamplerConfig(
            chains=3, steps=1, step_size=eps, noise_enabled=False,
            prior_weight=0.0, tau=tau, measure=measure,
        )
        out = run_chain(v, gen.standard_normal((n, d)), cfg, RngStream(0), support=(sx, sy))
        for l in range(3):
            _, grad = support_log_likelihood_and_grad(sx, sy, v[l], IDENTITY, measure, tau)
            np.testing.assert_allclose(out.values[l], v[l] + 0.5 * eps * grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_record_keeps_support_probs_of_each_step(self, measure):
        gen = np.random.default_rng(18)
        sx = gen.standard_normal((4, 3))
        sy = np.array([0, 0, 1, 1])
        cfg = SamplerConfig(chains=2, steps=3, measure=measure)
        _, record = sgld_chain(
            sx, sy, [3, 1], gen.standard_normal((2, 3)),
            PrototypeSamples(values=gen.standard_normal((2, 2, 3))), cfg,
            RngStream(4), record=True,
        )
        one_hot, _ = support_labels(sy, 2)
        assert record.support_probs.shape == (3, 2, 4, 2)
        for t in range(3):
            probs, _ = support_probs_and_grad(
                sx, one_hot, record.trajectory[t], measure, cfg.tau
            )
            np.testing.assert_array_equal(record.support_probs[t], probs)

    def test_record_without_likelihood_has_no_support_probs(self):
        cfg = SamplerConfig(chains=2, steps=3, likelihood_weight=0.0)
        _, record = sgld_chain(
            np.ones((2, 3)), np.array([0, 1]), [0, 1], np.zeros((2, 3)),
            PrototypeSamples(values=np.zeros((2, 2, 3))), cfg, RngStream(4), record=True,
        )
        assert record.support_probs is None

    def test_noise_follows_relation_identity(self):
        # permuting the targets permutes the chain output rows consistently
        gen = np.random.default_rng(9)
        v = gen.standard_normal((2, 3, 2))
        h = gen.standard_normal((3, 2))
        targets = [4, 0, 2]
        cfg = SamplerConfig(chains=2, steps=4, likelihood_weight=0.0)
        out = run_chain(v, h, cfg, RngStream(3), targets=targets)
        perm = [2, 0, 1]
        out_p = run_chain(
            v[:, perm], h[perm], cfg, RngStream(3), targets=[targets[p] for p in perm]
        )
        np.testing.assert_allclose(out_p.values, out.values[:, perm], atol=1e-14)

    def test_noise_is_child_stream_draw_in_target_rank_order(self):
        # with both gradient terms weighted to zero the chain adds only noise;
        # (chain l, step t) must use the rows of rng.child(l, t) by target rank
        gen = np.random.default_rng(13)
        v = gen.standard_normal((3, 4, 5))
        h = gen.standard_normal((4, 5))
        targets = [7, 2, 9, 5]
        cfg = SamplerConfig(
            chains=3, steps=4, step_decay=0.5, prior_weight=0.0, likelihood_weight=0.0
        )
        rng = RngStream(39, 4)
        out = run_chain(v, h, cfg, rng, targets=targets)

        rank = np.argsort(np.argsort(targets))
        expect = v.copy()
        for t, eps_t in enumerate(cfg.step_sizes(), start=1):
            expect = expect + 0.5 * eps_t * (0.0 * (h[None] - expect))
            noise = np.stack(
                [standard_normal_sample((4, 5), rng.child(l, t))[rank] for l in range(3)]
            )
            expect = expect + np.sqrt(eps_t) * noise
        np.testing.assert_array_equal(out.values, expect)

    @pytest.mark.parametrize("noise, built", [(False, 0), (True, 1)])
    def test_one_generator_per_noisy_run(self, monkeypatch, noise, built):
        made = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            made.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        gen = np.random.default_rng(14)
        cfg = SamplerConfig(chains=4, steps=6, noise_enabled=noise)
        run_chain(gen.standard_normal((4, 3, 2)), np.zeros((3, 2)), cfg, RngStream(1))
        assert len(made) == built


def per_chain_logits(enc, values, measure):
    # one 2-D pairwise_logits call per chain, stacked
    return np.stack([pairwise_logits(enc, values[l], measure) for l in range(len(values))])


def first_lowest_key_maximum(probs, targets):
    # among each row's maxima, the position with the lowest key; first on equal keys
    key = np.arange(probs.shape[1]) if targets is None else np.asarray(targets)
    preds = np.empty(probs.shape[0], dtype=int)
    for q in range(probs.shape[0]):
        best = np.flatnonzero(probs[q] == probs[q].max())
        preds[q] = best[np.argmin(key[best])]
    return preds


class TestChainQueryProbs:
    # the per-chain query logits come from one batched pairwise_logits call
    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_bit_equal_to_per_chain_logits(self, measure):
        gen = np.random.default_rng(15)
        for _ in range(200):
            chains, q, n, d = (int(x) for x in gen.integers(1, [12, 30, 25, 70]))
            enc = gen.standard_normal((q, d)) * 5.0
            values = gen.standard_normal((chains, n, d)) * 5.0
            np.testing.assert_array_equal(
                pairwise_logits(enc, values, measure), per_chain_logits(enc, values, measure)
            )

    def test_unknown_measure_raises(self):
        with pytest.raises(ValueError, match="measure"):
            pairwise_logits(np.ones((1, 2)), np.ones((1, 2, 2)), "cosine")


class TestPredictQueries:
    def test_identical_chains_equal_single_softmax(self):
        gen = np.random.default_rng(10)
        v = gen.standard_normal((1, 3, 2))
        samples = PrototypeSamples(values=np.repeat(v, 4, axis=0))
        q = gen.standard_normal((5, 2))
        probs, _ = predict_queries(q, samples, IDENTITY, "dot", 10.0)
        expect = softmax_with_temperature(q @ v[0].T, 10.0)
        np.testing.assert_allclose(probs, expect, atol=1e-12)

    def test_two_chain_hand_average(self):
        # d=1, two classes: prototype pairs differ per chain
        samples = PrototypeSamples(values=np.array([[[1.0], [0.0]], [[0.0], [1.0]]]))
        q = np.array([[1.0]])
        probs, _ = predict_queries(q, samples, IDENTITY, "dot", 1.0)
        p1 = softmax_with_temperature(np.array([1.0, 0.0]), 1.0)
        p2 = softmax_with_temperature(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(probs[0], (p1 + p2) / 2, atol=1e-12)

    def test_averaged_probabilities_normalize(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            chains = int(gen.integers(1, 6))
            n = int(gen.integers(1, 6))
            samples = PrototypeSamples(values=gen.standard_normal((chains, n, 3)))
            probs, _ = predict_queries(
                gen.standard_normal((4, 3)), samples, IDENTITY, "euclidean", 5.0
            )
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-9)

    def test_tie_breaks_to_lowest_relation_id(self):
        # identical prototypes force an exact tie; targets are unsorted
        samples = PrototypeSamples(values=np.ones((1, 3, 2)))
        _, preds = predict_queries(
            np.ones((1, 2)), samples, IDENTITY, "dot", 1.0, targets=[7, 3, 9]
        )
        assert preds[0] == 1  # relation 3 has the lowest id

    @pytest.mark.parametrize("targets", [[7, 3, 9, 1, 5], [40, 2, 11, 2, 0], None])
    def test_vectorized_tie_break_matches_loop(self, targets):
        # classes {0, 2, 4} and {1, 3} share a prototype, so every query ties
        # within a group; the zero query ties all five classes
        gen = np.random.default_rng(16)
        a, b = gen.standard_normal(3), gen.standard_normal(3)
        values = np.stack([np.stack([a, b, a, b, a])] * 2)
        queries = np.vstack([gen.standard_normal((20, 3)), np.zeros((1, 3))])
        probs, preds = predict_queries(
            queries, PrototypeSamples(values=values), IDENTITY, "dot", 2.0, targets=targets
        )
        ties = (probs == probs.max(axis=1, keepdims=True)).sum(axis=1)
        assert ties.min() >= 2 and ties.max() == 5
        np.testing.assert_array_equal(preds, first_lowest_key_maximum(probs, targets))

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="samples"):
            predict_queries(np.ones((1, 2)), PrototypeSamples(values=np.zeros((0, 2, 2))), IDENTITY, "dot", 1.0)


class TestPosteriorPredict:
    def test_deterministic_per_seed(self):
        gen = np.random.default_rng(12)
        sx = gen.standard_normal((4, 3))
        sy = np.array([0, 0, 1, 1])
        qx = gen.standard_normal((6, 3))
        h = gen.standard_normal((2, 3))
        cfg = SamplerConfig(chains=4, steps=3)
        a = posterior_predict(sx, sy, [5, 2], qx, h, cfg, IDENTITY, RngStream(21))
        b = posterior_predict(sx, sy, [5, 2], qx, h, cfg, IDENTITY, RngStream(21))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_graph_prior_disabled_zeroes_summaries(self):
        gen = np.random.default_rng(13)
        sx = gen.standard_normal((2, 3))
        sy = np.array([0, 1])
        qx = gen.standard_normal((2, 3))
        h = gen.standard_normal((2, 3))
        cfg = SamplerConfig(chains=2, steps=2, graph_prior=False)
        with_h = posterior_predict(sx, sy, [0, 1], qx, h, cfg, IDENTITY, RngStream(3))
        with_zeros = posterior_predict(
            sx, sy, [0, 1], qx, np.zeros_like(h), cfg, IDENTITY, RngStream(3)
        )
        np.testing.assert_array_equal(with_h[0], with_zeros[0])

    def test_support_missing_a_target_class_fails_the_count_check(self):
        # the class count comes from the targets, not from the largest label
        gen = np.random.default_rng(14)
        sx = gen.standard_normal((4, 3))
        qx = gen.standard_normal((3, 3))
        h = gen.standard_normal((3, 3))
        with pytest.raises(ValueError, match=r"unequal support counts per class: \[2, 2, 0\]"):
            posterior_predict(
                sx, [0, 0, 1, 1], [4, 7, 9], qx, h, SamplerConfig(), IDENTITY, RngStream(0)
            )

"""Tests for warm-start initialization, SGLD chains, and Monte Carlo prediction."""

import warnings

import numpy as np
import pytest

from protograph import sampler
from protograph.data import Episode
from protograph.likelihood import pairwise_logits, support_labels, support_probs_and_grad
from protograph.numerics import (
    RngStream, chain_noise, finite_difference_gradient, max_relative_error,
    softmax_with_temperature, standard_normal_sample,
)
from protograph.sampler import (
    SamplerConfig,
    episode_forward,
    episode_forward_vjp,
    init_prototypes,
    posterior_predict,
    predict_queries,
    sgld_chain,
    support_statistics,
)

def statistics(e, y, n_way):
    return support_statistics(e, *support_labels(y, n_way))


def episode(sx, sy, targets, qx):
    """One or E stacked episodes of these rows; the forward reads no query label."""
    return Episode(targets, sx, sy, qx, np.zeros(np.shape(qx)[:-1], dtype=int))


class TestSupportStatistics:
    def test_single_instance(self):
        e = np.array([[2.0, -1.0]])
        class_means, grand_mean = statistics(e, np.array([0]), 1)
        np.testing.assert_array_equal(class_means, e)
        np.testing.assert_array_equal(grand_mean, e[0])

    def test_two_classes_hand_mean(self):
        e = np.array([[1.0, 0.0], [3.0, 2.0]])
        class_means, grand_mean = statistics(e, np.array([0, 1]), 2)
        np.testing.assert_array_equal(class_means, e)
        np.testing.assert_allclose(grand_mean, [2.0, 1.0], atol=1e-15)

    def test_duplicated_support_same_statistics(self):
        gen = np.random.default_rng(0)
        e = gen.standard_normal((4, 3))
        y = np.array([0, 0, 1, 1])
        a = statistics(e, y, 2)
        b = statistics(np.vstack([e, e]), np.concatenate([y, y]), 2)
        np.testing.assert_allclose(a[0], b[0], atol=1e-12)
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)

    def test_empty_support_raises(self):
        # the forward checks the labels before it builds the statistics
        with pytest.raises(ValueError, match="empty support"):
            posterior_predict(
                episode(np.zeros((0, 2)), np.zeros(0, dtype=int), [0, 1], np.ones((1, 2))),
                np.zeros((2, 2)), SamplerConfig(), RngStream(0),
            )


class TestInitPrototypes:
    def test_single_relation_equals_summary(self):
        # with one relation m_r = m, so v = h_r at alpha = beta = 1
        h = np.array([[0.5, -0.5]])
        values = init_prototypes(np.array([[3.0, 1.0]]), np.array([3.0, 1.0]), h, 1.0, 1.0, 2)
        np.testing.assert_allclose(values[0], h, atol=1e-15)

    def test_hand_case_d1(self):
        h = np.array([[1.0], [1.0]])
        values = init_prototypes(np.array([[2.0], [0.0]]), np.array([1.0]), h, 1.0, 1.0, 1)
        np.testing.assert_allclose(values[0], [[2.0], [0.0]], atol=1e-15)

    def test_zero_weights_recover_class_means(self):
        gen = np.random.default_rng(1)
        class_means, grand_mean = gen.standard_normal((3, 2)), gen.standard_normal(2)
        values = init_prototypes(
            class_means, grand_mean, gen.standard_normal((3, 2)), 0.0, 0.0, 4
        )
        for l in range(4):
            np.testing.assert_array_equal(values[l], class_means)

    @pytest.mark.parametrize("alpha, beta", [(1e308, 1.0), (2.0, -1e308), (1e308, 1e308)])
    def test_overflowing_start_names_alpha_and_beta(self, alpha, beta):
        # an overflow (inf) or inf - inf (nan) fails here, without numpy's warning
        class_means, grand_mean = np.full((2, 3), 5.0), np.full(3, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                init_prototypes(class_means, grand_mean, np.full((2, 3), 10.0), alpha, beta, 2)
        assert str(caught.value) == f"warm start is not finite at alpha {alpha:g} and beta {beta:g}"

    def test_chains_share_the_init(self):
        gen = np.random.default_rng(2)
        class_means, grand_mean = gen.standard_normal((2, 3)), gen.standard_normal(3)
        values = init_prototypes(
            class_means, grand_mean, gen.standard_normal((2, 3)), 1.0, 1.0, 5
        )
        for l in range(1, 5):
            np.testing.assert_array_equal(values[l], values[0])


def run_chain(
    values, summaries, config, rng, support=None, targets=None, record=False, noise=None
):
    """sgld_chain on labelled support rows, or on no support at all."""
    n = values.shape[1]
    if support is None:
        sx, one_hot, k_shot = np.zeros((0, values.shape[2])), np.zeros((0, n)), 0
    else:
        sx, sy = support
        one_hot, k_shot = support_labels(sy, n)
    return sgld_chain(
        sx, one_hot, k_shot, list(range(n)) if targets is None else targets,
        summaries, values, config, rng, record, noise=noise,
    )


class TestSgldChain:
    def test_zero_step_size_is_identity(self):
        gen = np.random.default_rng(5)
        v = gen.standard_normal((2, 3, 2))
        h = gen.standard_normal((3, 2))
        cfg = SamplerConfig(chains=2, steps=4, step_size=0.0, likelihood_weight=0.0)
        out, _ = run_chain(v, h, cfg, RngStream(0))
        np.testing.assert_array_equal(out, v)

    def test_prior_only_noiseless_converges_monotonically(self):
        gen = np.random.default_rng(6)
        v = gen.standard_normal((1, 2, 3)) * 4.0
        h = gen.standard_normal((2, 3))
        cfg = SamplerConfig(
            chains=1, steps=40, step_size=0.05, noise_enabled=False, likelihood_weight=0.0
        )
        _, record = run_chain(v, h, cfg, RngStream(0), record=True)
        dists = [np.linalg.norm(record.trajectory[t, 0] - h) for t in range(41)]
        assert all(dists[t + 1] < dists[t] for t in range(40))

    def test_fixed_seed_bit_identical(self):
        gen = np.random.default_rng(7)
        v = gen.standard_normal((3, 2, 2))
        h = gen.standard_normal((2, 2))
        sx = gen.standard_normal((2, 2))
        sy = np.array([0, 1])
        cfg = SamplerConfig(chains=3, steps=5)
        a, _ = run_chain(v, h, cfg, RngStream(11), support=(sx, sy))
        b, _ = run_chain(v, h, cfg, RngStream(11), support=(sx, sy))
        np.testing.assert_array_equal(a, b)

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
        out, _ = run_chain(v0[None, :, :], h, cfg, RngStream(0), support=(sx, sy))

        one_hot = np.zeros((n * k, n))
        one_hot[np.arange(n * k), sy] = 1.0
        v = v0.copy()
        for t in range(1, steps + 1):
            eps_t = eps0 * t ** (-decay)
            probs = softmax_with_temperature(sx @ v.T, tau)
            grad = (one_hot - probs).T @ sx / (k * tau)
            v = v + 0.5 * eps_t * grad
        np.testing.assert_allclose(out[0], v, atol=1e-10)

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
        out, _ = run_chain(v, gen.standard_normal((n, d)), cfg, RngStream(0), support=(sx, sy))
        one_hot, _ = support_labels(sy, n)
        for l in range(3):
            # the gradient of (1/K) sum_s log p(y_s | x_s, V_l): the drift over K tau
            _, drift = support_probs_and_grad(sx, one_hot, v[l:l + 1], measure, tau, record=False)
            grad = drift[0] * ((1.0 / k) / tau)
            np.testing.assert_allclose(out[l], v[l] + 0.5 * eps * grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_record_keeps_support_probs_of_each_step(self, measure):
        gen = np.random.default_rng(18)
        sx = gen.standard_normal((4, 3))
        sy = np.array([0, 0, 1, 1])
        cfg = SamplerConfig(chains=2, steps=3, measure=measure)
        one_hot, k_shot = support_labels(sy, 2)
        _, record = sgld_chain(
            sx, one_hot, k_shot, [3, 1], gen.standard_normal((2, 3)),
            gen.standard_normal((2, 2, 3)), cfg, RngStream(4), record=True,
        )
        assert record.support_probs.shape == (3, 2, 4, 2)
        for t in range(3):
            probs, _ = support_probs_and_grad(
                sx, one_hot, record.trajectory[t], measure, cfg.tau
            )
            np.testing.assert_array_equal(record.support_probs[t], probs)

    def test_record_without_likelihood_has_no_support_probs(self):
        cfg = SamplerConfig(chains=2, steps=3, likelihood_weight=0.0)
        _, record = run_chain(
            np.zeros((2, 2, 3)), np.zeros((2, 3)), cfg, RngStream(4),
            support=(np.ones((2, 3)), np.array([0, 1])), record=True,
        )
        assert record.support_probs is None

    def test_noise_follows_relation_identity(self):
        # permuting the targets permutes the chain output rows consistently
        gen = np.random.default_rng(9)
        v = gen.standard_normal((2, 3, 2))
        h = gen.standard_normal((3, 2))
        targets = [4, 0, 2]
        cfg = SamplerConfig(chains=2, steps=4, likelihood_weight=0.0)
        out, _ = run_chain(v, h, cfg, RngStream(3), targets=targets)
        perm = [2, 0, 1]
        out_p, _ = run_chain(
            v[:, perm], h[perm], cfg, RngStream(3), targets=[targets[p] for p in perm]
        )
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-14)

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
        out, _ = run_chain(v, h, cfg, rng, targets=targets)

        rank = np.argsort(np.argsort(targets))
        expect = v.copy()
        blocks = chain_noise(rng, targets, 3, 5)
        drawn = []
        for t, eps_t in enumerate(cfg.step_sizes(), start=1):
            expect = expect + 0.5 * eps_t * (0.0 * (h[None] - expect))
            noise = np.stack(
                [standard_normal_sample((4, 5), rng.child(l, t))[rank] for l in range(3)]
            )
            # chain_noise yields that draw as the block of step t
            drawn.append(next(blocks))
            assert drawn[-1].tobytes() == noise.tobytes()
            expect = expect + np.sqrt(eps_t) * noise
        np.testing.assert_array_equal(out, expect)
        # the same blocks drawn ahead and handed in give the same chain
        ahead, _ = run_chain(v, h, cfg, rng, targets=targets, noise=np.stack(drawn))
        assert ahead.tobytes() == out.tobytes()

    def test_chain_noise_of_a_batch_is_each_stream_alone(self):
        targets = np.array([[7, 2, 9], [0, 1, 2], [5, 3, 4], [2, 8, 1]])
        batch = chain_noise(RngStream(39).child(np.arange(4), 2), targets, 3, 5)
        alone = [chain_noise(RngStream(39).child(e, 2), t.tolist(), 3, 5)
                 for e, t in enumerate(targets)]
        for _ in range(4):
            block = next(batch)
            assert block.shape == (4, 3, 3, 5)
            for e in range(4):
                assert block[e].tobytes() == next(alone[e]).tobytes()

    @pytest.mark.parametrize("record", [False, True])
    def test_returns_the_final_values_and_the_record(self, record):
        gen = np.random.default_rng(19)
        v = gen.standard_normal((2, 3, 2))
        cfg = SamplerConfig(chains=2, steps=3)
        support = (gen.standard_normal((3, 2)), np.array([2, 0, 1]))
        out, chain = run_chain(v, np.zeros((3, 2)), cfg, RngStream(6), support, record=record)
        if not record:
            assert chain is None
            return
        assert chain.trajectory.shape == (4, 2, 3, 2)
        assert chain.trajectory[0].tobytes() == v.tobytes()
        assert chain.trajectory[-1].tobytes() == out.tobytes()
        assert len({chain.trajectory[t].tobytes() for t in range(4)}) == 4

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


def out_of_place_chain(
    support_enc, one_hot, k_shot, targets, summaries, values, config, rng, record=False,
    first_episode=0, noise=None,
):
    """sgld_chain's update with a new array per operation, in the same order:
    the final values, the trajectory list and the support probabilities list."""
    values = np.asarray(values, dtype=float)
    chains, n_way, d = values.shape[-3:]
    h = np.asarray(summaries, dtype=float)
    has_lik = config.likelihood_weight != 0.0 and np.size(one_hot) > 0
    scale = config.likelihood_weight / (k_shot * config.tau) if has_lik else None
    trajectory, support_probs = [values], []
    if config.noise_enabled:
        noise = iter(chain_noise(rng, targets, chains, d) if noise is None else noise)
    for t, eps_t in enumerate(config.step_sizes(), start=1):
        grad = config.prior_weight * (h[..., None, :, :] - values)
        if has_lik:
            probs, drift = support_probs_and_grad(
                support_enc, one_hot, values, config.measure, config.tau, record
            )
            grad += scale * drift
            support_probs.append(probs)
        values = values + 0.5 * eps_t * grad
        if config.noise_enabled:
            values = values + np.sqrt(eps_t) * next(noise)
        if not np.isfinite(values).all():
            finite = np.isfinite(values).reshape(-1, chains, n_way * d).all(axis=-1)
            e, l = np.argwhere(~finite)[0]
            where = f"episode {first_episode + e} chain {l}" if values.ndim == 4 else f"chain {l}"
            raise RuntimeError(f"sampler diverged at {where} step {t}")
        trajectory.append(values)
    return values, trajectory, support_probs


IN_PLACE_SETTINGS = {
    "default": {},
    "decay": {"step_decay": 0.4, "step_size": 0.3},
    "no prior": {"prior_weight": 0.0},
    "no likelihood": {"likelihood_weight": 0.0},
}


class TestInPlaceChain:
    """sgld_chain updates its own copy in place, to the out-of-place update's bits."""

    @staticmethod
    def chain_inputs(seed, batched, measure, noise, **settings):
        gen = np.random.default_rng(seed)
        e_count, n_way, k_shot = gen.integers(2, 5), gen.integers(2, 5), gen.integers(1, 3)
        chains, steps, d = gen.integers(1, 5), gen.integers(1, 6), gen.integers(2, 7)
        settings = {"chains": chains, "steps": steps, **settings}
        lead = (e_count,) if batched else ()
        sx = gen.standard_normal(lead + (n_way * k_shot, d)) * 2.0
        sy = np.stack([gen.permutation(np.repeat(np.arange(n_way), k_shot))
                       for _ in range(e_count)])
        one_hot, k_shot = support_labels(sy if batched else sy[0], n_way)
        targets = np.stack([gen.choice(50, size=n_way, replace=False) for _ in range(e_count)])
        cfg = SamplerConfig(measure=measure, noise_enabled=noise, **settings)
        rng = RngStream(seed).child(np.arange(e_count), 1) if batched else RngStream(seed, 1)
        return (sx, one_hot, k_shot, targets if batched else targets[0],
                gen.standard_normal(lead + (n_way, d)),
                gen.standard_normal(lead + (cfg.chains, n_way, d)), cfg, rng)

    @pytest.mark.parametrize("setting", list(IN_PLACE_SETTINGS))
    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("record", [True, False])
    def test_equals_the_out_of_place_update(self, setting, noise, measure, batched, record):
        for seed in range(3):
            args = self.chain_inputs(seed, batched, measure, noise, **IN_PLACE_SETTINGS[setting])
            out, chain = sgld_chain(*args, record=record)
            ref, trajectory, support_probs = out_of_place_chain(*args, record=record)
            assert out.tobytes() == ref.tobytes()
            if not record:
                assert chain is None
                continue
            assert chain.trajectory.tobytes() == np.stack(trajectory).tobytes()
            if support_probs:
                assert chain.support_probs.tobytes() == np.stack(support_probs).tobytes()
            else:
                assert chain.support_probs is None

    @pytest.mark.parametrize("drawn_ahead", [True, False])
    @pytest.mark.parametrize("record", [True, False])
    def test_leaves_the_callers_values_and_noise_unchanged(self, drawn_ahead, record):
        args = list(self.chain_inputs(4, True, "dot", True))
        values, cfg = args[5], args[6]
        noise = None
        if drawn_ahead:
            blocks = chain_noise(args[7], args[3], cfg.chains, values.shape[-1])
            noise = np.stack([next(blocks) for _ in range(cfg.steps)])
        before = values.tobytes(), None if noise is None else noise.tobytes()
        out, chain = sgld_chain(*args, record=record, noise=noise)
        assert (values.tobytes(), None if noise is None else noise.tobytes()) == before
        assert not np.shares_memory(out, values)
        if record:
            # M + 1 states of their own: changing the result changes none of them
            assert chain.trajectory.shape[0] == cfg.steps + 1
            assert chain.trajectory[0].tobytes() == values.tobytes()
            kept = chain.trajectory.tobytes()
            out += 1.0
            assert chain.trajectory.tobytes() == kept
            assert len({state.tobytes() for state in chain.trajectory}) == cfg.steps + 1

    @pytest.mark.parametrize("batched", [True, False])
    def test_divergence_names_the_episode_chain_and_step_as_before(self, batched):
        args = self.chain_inputs(5, batched, "dot", True, chains=3, steps=4)
        cfg = args[6]
        blocks = chain_noise(args[7], args[3], 3, args[5].shape[-1])
        noise = np.stack([next(blocks) for _ in range(cfg.steps)])
        noise[(2, 1, 2) if batched else (2, 2)] = np.inf  # step 3, episode 1, chain 2
        messages = []
        for chain in (sgld_chain, out_of_place_chain):
            with pytest.raises(RuntimeError) as err:
                chain(*args, first_episode=30, noise=noise)
            messages.append(str(err.value))
        where = "episode 31 chain 2" if batched else "chain 2"
        assert messages == [f"sampler diverged at {where} step 3"] * 2


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
        q = gen.standard_normal((5, 2))
        probs, _ = predict_queries(q, np.repeat(v, 4, axis=0), "dot", 10.0)
        expect = softmax_with_temperature(q @ v[0].T, 10.0)
        np.testing.assert_allclose(probs, expect, atol=1e-12)

    def test_two_chain_hand_average(self):
        # d=1, two classes: prototype pairs differ per chain
        values = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
        q = np.array([[1.0]])
        probs, _ = predict_queries(q, values, "dot", 1.0)
        p1 = softmax_with_temperature(np.array([1.0, 0.0]), 1.0)
        p2 = softmax_with_temperature(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(probs[0], (p1 + p2) / 2, atol=1e-12)

    def test_averaged_probabilities_normalize(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            chains = int(gen.integers(1, 6))
            n = int(gen.integers(1, 6))
            values = gen.standard_normal((chains, n, 3))
            probs, _ = predict_queries(
                gen.standard_normal((4, 3)), values, "euclidean", 5.0
            )
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-9)

    def test_tie_breaks_to_lowest_relation_id(self):
        # identical prototypes force an exact tie; targets are unsorted
        _, preds = predict_queries(
            np.ones((1, 2)), np.ones((1, 3, 2)), "dot", 1.0, targets=[7, 3, 9]
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
            queries, values, "dot", 2.0, targets=targets
        )
        ties = (probs == probs.max(axis=1, keepdims=True)).sum(axis=1)
        assert ties.min() >= 2 and ties.max() == 5
        np.testing.assert_array_equal(preds, first_lowest_key_maximum(probs, targets))

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="samples"):
            predict_queries(np.ones((1, 2)), np.zeros((0, 2, 2)), "dot", 1.0)


class TestPosteriorPredict:
    def test_deterministic_per_seed(self):
        gen = np.random.default_rng(12)
        sx = gen.standard_normal((4, 3))
        sy = np.array([0, 0, 1, 1])
        qx = gen.standard_normal((6, 3))
        h = gen.standard_normal((2, 3))
        cfg = SamplerConfig(chains=4, steps=3)
        a = posterior_predict(episode(sx, sy, [5, 2], qx), h, cfg, RngStream(21))
        b = posterior_predict(episode(sx, sy, [5, 2], qx), h, cfg, RngStream(21))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_graph_prior_disabled_zeroes_summaries(self):
        gen = np.random.default_rng(13)
        sx = gen.standard_normal((2, 3))
        sy = np.array([0, 1])
        qx = gen.standard_normal((2, 3))
        h = gen.standard_normal((2, 3))
        cfg = SamplerConfig(chains=2, steps=2, graph_prior=False)
        with_h = posterior_predict(episode(sx, sy, [0, 1], qx), h, cfg, RngStream(3))
        with_zeros = posterior_predict(
            episode(sx, sy, [0, 1], qx), np.zeros_like(h), cfg, RngStream(3)
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
                episode(sx, [0, 0, 1, 1], [4, 7, 9], qx), h, SamplerConfig(), RngStream(0),
            )


class TestEpisodeForward:
    @pytest.mark.parametrize("record", [False, True])
    def test_checks_the_support_labels_once(self, monkeypatch, record):
        calls = []

        def counting_support_labels(*args):
            calls.append(args)
            return support_labels(*args)

        monkeypatch.setattr(sampler, "support_labels", counting_support_labels)
        gen = np.random.default_rng(23)
        sy = np.array([1, 0, 1, 0])
        fwd = episode_forward(
            episode(gen.standard_normal((4, 3)), sy, [5, 2], gen.standard_normal((6, 3))),
            gen.standard_normal((2, 3)), SamplerConfig(chains=3, steps=2), RngStream(21),
            record=record,
        )
        assert len(calls) == 1
        one_hot, k_shot = support_labels(sy, 2)
        assert fwd.one_hot.tobytes() == one_hot.tobytes() and fwd.k_shot == k_shot
        assert (fwd.record is not None) == record


class TestEpisodeForwardVjp:
    """The reverse of a recorded episode forward against central differences."""

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("step_decay", [0.0, 0.7])
    @pytest.mark.parametrize("graph_prior", [True, False])
    def test_matches_oracle(self, measure, step_decay, graph_prior):
        gen = np.random.default_rng(40)
        sx, sy = gen.standard_normal((6, 3)), np.array([1, 0, 2, 2, 0, 1])
        qx, h = gen.standard_normal((4, 3)), gen.standard_normal((3, 3))
        targets = [4, 0, 2]
        cfg = SamplerConfig(
            chains=2, steps=3, step_decay=step_decay, measure=measure, graph_prior=graph_prior
        )
        cotangent = gen.standard_normal((2, 4, 3))

        def forward(h):
            ep = episode(sx, sy, targets, qx)
            return episode_forward(ep, h, cfg, RngStream(41), record=True)

        def contracted(h):
            return float(np.sum(cotangent * forward(h).chain_probs))

        d_h = episode_forward_vjp(forward(h), cotangent, cfg)
        assert max_relative_error(d_h, finite_difference_gradient(contracted, h)) < 1e-4
        if not graph_prior:
            assert not np.any(d_h)  # the forward replaced the summaries with zeros

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_random_configs_match_oracle(self, measure):
        # shapes and the sampler's settings drawn at random, the chain noise
        # replayed from the stream so each perturbed forward sees the same
        # draws; two classes or more and the graph prior on, so the summaries
        # reach the probabilities
        gen = np.random.default_rng(44)
        for case in range(30):
            n_way, k_shot, q_count, d, chains = (
                int(x) for x in gen.integers([2, 1, 1, 1, 1], [6, 4, 7, 6, 5])
            )
            cfg = SamplerConfig(
                chains=chains, steps=int(gen.integers(0, 5)),
                step_size=float(gen.uniform(0.0, 0.5)),
                step_decay=float(gen.choice([0.0, 0.7])), tau=float(gen.uniform(1.0, 20.0)),
                measure=measure, noise_enabled=bool(gen.integers(2)),
                likelihood_weight=float(gen.choice([1.0, 0.0, 0.5])),
            )
            sy = gen.permutation(np.repeat(np.arange(n_way), k_shot))
            ep = episode(gen.standard_normal((sy.size, d)), sy,
                         gen.choice(20, size=n_way, replace=False),
                         gen.standard_normal((q_count, d)))
            h = gen.standard_normal((n_way, d))
            cotangent = gen.standard_normal((chains, q_count, n_way))

            def contracted(x):
                fwd = episode_forward(ep, x, cfg, RngStream(45, case), record=True)
                return float(np.sum(cotangent * fwd.chain_probs))

            fwd = episode_forward(ep, h, cfg, RngStream(45, case), record=True)
            d_h = episode_forward_vjp(fwd, cotangent, cfg)
            assert d_h.shape == h.shape and np.any(d_h)
            assert max_relative_error(d_h, finite_difference_gradient(contracted, h)) < 1e-6, cfg


def episode_batch(seed, e_count, n_way=4, k_shot=2, q_count=6, d=5):
    """E random episodes of one shape: support and query rows, labels,
    distinct targets per episode and relation summaries."""
    gen = np.random.default_rng(seed)
    sx = gen.standard_normal((e_count, n_way * k_shot, d)) * 2.0
    sy = np.stack([gen.permutation(np.repeat(np.arange(n_way), k_shot)) for _ in range(e_count)])
    qx = gen.standard_normal((e_count, q_count, d)) * 2.0
    targets = np.stack([gen.choice(50, size=n_way, replace=False) for _ in range(e_count)])
    h = gen.standard_normal((e_count, n_way, d))
    return sx, sy, qx, targets, h


class TestEpisodeBatch:
    """E stacked episodes get the bits each gets alone."""

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("noise", [True, False])
    def test_chain_is_the_per_episode_chains(self, measure, noise):
        sx, sy, _, targets, h = episode_batch(20, 5)
        cfg = SamplerConfig(chains=3, steps=4, step_decay=0.3, measure=measure,
                            noise_enabled=noise)
        one_hot, k_shot = support_labels(sy, 4)
        means, grand = support_statistics(sx, one_hot, k_shot)
        init = init_prototypes(means, grand, h, cfg.alpha, cfg.beta, cfg.chains)
        out, record = sgld_chain(
            sx, one_hot, k_shot, targets, h, init, cfg, RngStream(8).child(np.arange(5), 1),
            record=True,
        )
        assert out.shape == (5, 3, 4, 5)
        for e in range(5):
            alone_one_hot, _ = support_labels(sy[e], 4)
            alone_means, alone_grand = support_statistics(sx[e], alone_one_hot, k_shot)
            assert means[e].tobytes() == alone_means.tobytes()
            assert grand[e].tobytes() == alone_grand.tobytes()
            alone_init = init_prototypes(
                alone_means, alone_grand, h[e], cfg.alpha, cfg.beta, cfg.chains
            )
            assert init[e].tobytes() == alone_init.tobytes()
            alone, alone_record = sgld_chain(
                sx[e], alone_one_hot, k_shot, targets[e], h[e], alone_init, cfg,
                RngStream(8).child(e, 1), record=True,
            )
            assert out[e].tobytes() == alone.tobytes()
            assert record.trajectory[:, e].tobytes() == alone_record.trajectory.tobytes()
            assert record.support_probs[:, e].tobytes() == alone_record.support_probs.tobytes()

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_prediction_is_per_episode(self, measure):
        sx, sy, qx, targets, h = episode_batch(21, 4)
        cfg = SamplerConfig(chains=4, steps=3, measure=measure)
        batch = RngStream(9).child(np.arange(4), 1)
        probs, preds = posterior_predict(episode(sx, sy, targets, qx), h, cfg, batch)
        assert probs.shape == (4, 6, 4) and preds.shape == (4, 6)
        for e in range(4):
            alone = posterior_predict(episode(sx[e], sy[e], targets[e], qx[e]), h[e], cfg,
                                      RngStream(9).child(e, 1))
            assert probs[e].tobytes() == alone[0].tobytes()
            assert preds[e].tobytes() == alone[1].tobytes()

    def test_tie_break_per_episode(self):
        # every class of an episode shares one prototype: all queries tie, and
        # each episode resolves its ties by its own lowest relation id
        gen = np.random.default_rng(22)
        values = np.repeat(gen.standard_normal((3, 1, 1, 2)), 4, axis=2)
        queries = gen.standard_normal((3, 5, 2))
        targets = np.array([[7, 3, 9, 4], [1, 8, 0, 2], [5, 6, 7, 8]])
        _, preds = predict_queries(queries, values, "dot", 1.0, targets)
        np.testing.assert_array_equal(preds, np.repeat([[1], [2], [0]], 5, axis=1))

    def test_divergence_names_the_global_episode(self):
        # episode 2 of the batch overflows at its first step; the batch starts
        # at episode 40 of its evaluation
        sx = np.zeros((3, 2, 1))
        sx[2] = [[1e200], [-1e200]]
        one_hot, k_shot = support_labels(np.array([[0, 1]] * 3), 2)
        v = np.zeros((3, 2, 2, 1))
        cfg = SamplerConfig(chains=2, steps=3, step_size=1e300, prior_weight=0.0)
        streams = RngStream(0).child(np.arange(3), 1)
        message = "sampler diverged at episode 42 chain 0 step 1"
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=message):
            sgld_chain(sx, one_hot, k_shot, [[0, 1]] * 3, np.zeros((3, 2, 1)), v, cfg,
                       streams, first_episode=40)


@pytest.mark.parametrize(
    "field", ["step_size", "step_decay", "alpha", "beta", "tau", "prior_weight",
              "likelihood_weight"],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_a_non_finite_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        SamplerConfig(**{field: value})

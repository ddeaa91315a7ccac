"""Tests for warm-start initialization, SGLD chains, and Monte Carlo prediction."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from protograph import sampler
from protograph.data import Episode
from protograph.likelihood import (
    pairwise_logits, pairwise_logits_vjp, support_labels, support_probs_and_grad,
)
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
    stage_episode,
    support_statistics,
)

# the default temperature, and a sharp one at which the softmaxes come
# close to one-hot
TAUS = pytest.mark.parametrize("tau", [10.0, 0.5], ids=["soft", "sharp"])
# tau drawn from these ranges: the soft one around the default, the sharp one
# below 1
TAU_RANGES = pytest.mark.parametrize(
    "tau_range", [(1.0, 20.0), (0.2, 1.0)], ids=["soft", "sharp"]
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
        values = init_prototypes(np.array([[3.0, 1.0]]), np.array([3.0, 1.0]), h, 1.0, 1.0)
        np.testing.assert_allclose(values[0], h, atol=1e-15)

    def test_hand_case_d1(self):
        h = np.array([[1.0], [1.0]])
        values = init_prototypes(np.array([[2.0], [0.0]]), np.array([1.0]), h, 1.0, 1.0)
        np.testing.assert_allclose(values[0], [[2.0], [0.0]], atol=1e-15)

    def test_zero_weights_recover_class_means(self):
        gen = np.random.default_rng(1)
        class_means, grand_mean = gen.standard_normal((3, 2)), gen.standard_normal(2)
        values = init_prototypes(class_means, grand_mean, gen.standard_normal((3, 2)), 0.0, 0.0)
        assert values.shape == (1, 3, 2)
        np.testing.assert_array_equal(values[0], class_means)

    @pytest.mark.parametrize("alpha, beta", [(1e308, 1.0), (2.0, -1e308), (1e308, 1e308)])
    def test_overflowing_start_names_alpha_and_beta(self, alpha, beta):
        # an overflow (inf) or inf - inf (nan) fails here, without numpy's warning
        class_means, grand_mean = np.full((2, 3), 5.0), np.full(3, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                init_prototypes(class_means, grand_mean, np.full((2, 3), 10.0), alpha, beta)
        assert str(caught.value) == f"warm start is not finite at alpha {alpha:g} and beta {beta:g}"

    def test_chains_share_the_init(self):
        # the start is returned once, and the chain writes it into each chain's first state
        gen = np.random.default_rng(2)
        class_means, grand_mean = gen.standard_normal((2, 3)), gen.standard_normal(3)
        h = gen.standard_normal((2, 3))
        values = init_prototypes(class_means, grand_mean, h, 1.0, 1.0)
        assert values.shape == (1, 2, 3)
        _, chain = sgld_chain(np.zeros((0, 3)), np.zeros((0, 2)), 0, [0, 1], h, values,
                              SamplerConfig(chains=5, steps=0), RngStream(2), record=True)
        assert chain.trajectory.shape == (1, 5, 2, 3)
        for l in range(5):
            assert chain.trajectory[0, l].tobytes() == values[0].tobytes()


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

    @TAUS
    def test_one_step_is_support_gradient_ascent_per_chain(self, tau):
        # noise off, prior weight zero: one step moves every chain along its
        # own K-normalized support log-likelihood gradient
        gen = np.random.default_rng(17)
        n, k, d, eps = 3, 2, 4, 0.3
        sx = gen.standard_normal((n * k, d))
        sy = np.repeat(np.arange(n), k)
        v = gen.standard_normal((3, n, d))
        cfg = SamplerConfig(
            chains=3, steps=1, step_size=eps, noise_enabled=False,
            prior_weight=0.0, tau=tau,
        )
        out, _ = run_chain(v, gen.standard_normal((n, d)), cfg, RngStream(0), support=(sx, sy))
        one_hot, _ = support_labels(sy, n)
        for l in range(3):
            # the gradient of (1/K) sum_s log p(y_s | x_s, V_l): the drift over K tau
            _, drift = support_probs_and_grad(sx, one_hot, v[l:l + 1], tau, record=False)
            grad = drift[0] * ((1.0 / k) / tau)
            np.testing.assert_allclose(out[l], v[l] + 0.5 * eps * grad, rtol=0, atol=1e-12)

    @TAUS
    def test_record_keeps_support_probs_of_each_step(self, tau):
        gen = np.random.default_rng(18)
        sx = gen.standard_normal((4, 3))
        sy = np.array([0, 0, 1, 1])
        cfg = SamplerConfig(chains=2, steps=3, tau=tau)
        one_hot, k_shot = support_labels(sy, 2)
        _, record = sgld_chain(
            sx, one_hot, k_shot, [3, 1], gen.standard_normal((2, 3)),
            gen.standard_normal((2, 2, 3)), cfg, RngStream(4), record=True,
        )
        # recorded row-first, (M, S, L, N)
        assert np.swapaxes(record.support_probs, 1, 2).shape == (3, 2, 4, 2)
        for t in range(3):
            probs, _ = support_probs_and_grad(sx, one_hot, record.trajectory[t], cfg.tau)
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

    @TAUS
    @pytest.mark.parametrize("record", [False, True])
    def test_returns_the_final_values_and_the_record(self, tau, record):
        gen = np.random.default_rng(19)
        v = gen.standard_normal((2, 3, 2))
        cfg = SamplerConfig(chains=2, steps=3, tau=tau)
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


class TestRecordLayout:
    """One row-first support softmax layout, recorded whole before the
    chain's first step."""

    @TAUS
    @pytest.mark.parametrize("e_count", [None, 3])
    @pytest.mark.parametrize("into_slot", [False, True])
    def test_kernel_returns_rows_first(self, tau, e_count, into_slot):
        gen = np.random.default_rng(19)
        lead = (e_count,) if e_count else ()
        s, chains, n_way, d = 6, 4, 3, 5
        enc = gen.standard_normal(lead + (s, d))
        one_hot = np.eye(n_way)[gen.integers(0, n_way, size=lead + (s,))]
        values = gen.standard_normal(lead + (chains, n_way, d))
        out = np.empty(lead + (s, chains, n_way)) if into_slot else None
        probs, drift = support_probs_and_grad(enc, one_hot, values, tau, True, out)
        assert probs.shape == lead + (s, chains, n_way) and drift.shape == values.shape
        assert probs is out or not into_slot
        none, unrecorded = support_probs_and_grad(enc, one_hot, values, tau, False)
        assert none is None and unrecorded.tobytes() == drift.tobytes()

    @TAUS
    @pytest.mark.parametrize("e_count", [None, 2])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    def test_chain_allocates_its_record_before_the_first_step(
        self, monkeypatch, tau, e_count, steps
    ):
        sx, sy, _, targets, h = episode_batch(26, e_count or 1)
        rng = RngStream(8).child(np.arange(e_count), 1) if e_count else RngStream(8, 1)
        if e_count is None:
            sx, sy, targets, h = sx[0], sy[0], targets[0], h[0]
        cfg = SamplerConfig(chains=3, steps=steps, tau=tau)
        one_hot, k_shot = support_labels(sy, 4)
        init = init_prototypes(*support_statistics(sx, one_hot, k_shot), h, cfg.alpha, cfg.beta)
        kernel, slots = sampler.support_probs_and_grad, []

        def recording_kernel(*args):
            slots.append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(sampler, "support_probs_and_grad", recording_kernel)
        _, record = sgld_chain(sx, one_hot, k_shot, targets, h, init, cfg, rng, record=True)
        lead = (e_count,) if e_count else ()
        assert record.support_probs.shape == (steps,) + lead + (sx.shape[-2], 3, 4)
        assert record.support_probs.flags.c_contiguous
        # every step, the first included, computes its softmax in its record slot
        assert len(slots) == steps
        for t, slot in enumerate(slots):
            assert slot.shape == record.support_probs[t].shape
            assert slot.ctypes.data == record.support_probs[t].ctypes.data
        slots.clear()
        sgld_chain(sx, one_hot, k_shot, targets, h, init, cfg, rng)
        assert slots == [None] * steps


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
            probs, drift = support_probs_and_grad(support_enc, one_hot, values, config.tau, record)
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
    def chain_inputs(seed, batched, noise, **settings):
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
        cfg = SamplerConfig(noise_enabled=noise, **settings)
        rng = RngStream(seed).child(np.arange(e_count), 1) if batched else RngStream(seed, 1)
        return (sx, one_hot, k_shot, targets if batched else targets[0],
                gen.standard_normal(lead + (n_way, d)),
                gen.standard_normal(lead + (cfg.chains, n_way, d)), cfg, rng)

    @pytest.mark.parametrize("setting", list(IN_PLACE_SETTINGS))
    @pytest.mark.parametrize("noise", [True, False])
    @TAUS
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("record", [True, False])
    def test_equals_the_out_of_place_update(self, setting, noise, tau, batched, record):
        for seed in range(3):
            args = self.chain_inputs(seed, batched, noise, tau=tau, **IN_PLACE_SETTINGS[setting])
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

    @TAUS
    @pytest.mark.parametrize("drawn_ahead", [True, False])
    @pytest.mark.parametrize("record", [True, False])
    def test_leaves_the_callers_values_and_noise_unchanged(self, tau, drawn_ahead, record):
        args = list(self.chain_inputs(4, True, True, tau=tau))
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
        args = self.chain_inputs(5, batched, True, chains=3, steps=4)
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


def per_chain_logits(enc, values):
    # one 2-D pairwise_logits call per chain, stacked
    return np.stack([pairwise_logits(enc, values[l]) for l in range(len(values))])


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
    def test_bit_equal_to_per_chain_logits(self):
        gen = np.random.default_rng(15)
        for _ in range(200):
            chains, q, n, d = (int(x) for x in gen.integers(1, [12, 30, 25, 70]))
            enc = gen.standard_normal((q, d)) * 5.0
            values = gen.standard_normal((chains, n, d)) * 5.0
            np.testing.assert_array_equal(
                pairwise_logits(enc, values), per_chain_logits(enc, values)
            )

class TestPredictQueries:
    def test_identical_chains_equal_single_softmax(self):
        gen = np.random.default_rng(10)
        v = gen.standard_normal((1, 3, 2))
        q = gen.standard_normal((5, 2))
        probs, _ = predict_queries(q, np.repeat(v, 4, axis=0), 10.0, np.arange(3))
        expect = softmax_with_temperature(q @ v[0].T, 10.0)
        np.testing.assert_allclose(probs, expect, atol=1e-12)

    def test_two_chain_hand_average(self):
        # d=1, two classes: prototype pairs differ per chain
        values = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
        q = np.array([[1.0]])
        probs, _ = predict_queries(q, values, 1.0, np.arange(2))
        p1 = softmax_with_temperature(np.array([1.0, 0.0]), 1.0)
        p2 = softmax_with_temperature(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(probs[0], (p1 + p2) / 2, atol=1e-12)

    def test_averaged_probabilities_normalize(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            chains = int(gen.integers(1, 6))
            n = int(gen.integers(1, 6))
            values = gen.standard_normal((chains, n, 3))
            probs, _ = predict_queries(gen.standard_normal((4, 3)), values, 5.0, np.arange(n))
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-9)

    def test_tie_breaks_to_lowest_relation_id(self):
        # identical prototypes force an exact tie; targets are unsorted
        _, preds = predict_queries(np.ones((1, 2)), np.ones((1, 3, 2)), 1.0, targets=[7, 3, 9])
        assert preds[0] == 1  # relation 3 has the lowest id

    @pytest.mark.parametrize("targets", [[7, 3, 9, 1, 5], [40, 2, 11, 2, 0], [0, 1, 2, 3, 4]])
    def test_vectorized_tie_break_matches_loop(self, targets):
        # classes {0, 2, 4} and {1, 3} share a prototype, so every query ties
        # within a group; the zero query ties all five classes
        gen = np.random.default_rng(16)
        a, b = gen.standard_normal(3), gen.standard_normal(3)
        values = np.stack([np.stack([a, b, a, b, a])] * 2)
        queries = np.vstack([gen.standard_normal((20, 3)), np.zeros((1, 3))])
        probs, preds = predict_queries(queries, values, 2.0, targets=targets)
        ties = (probs == probs.max(axis=1, keepdims=True)).sum(axis=1)
        assert ties.min() >= 2 and ties.max() == 5
        np.testing.assert_array_equal(preds, first_lowest_key_maximum(probs, targets))

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="samples"):
            predict_queries(np.ones((1, 2)), np.zeros((0, 2, 2)), 1.0, np.arange(2))


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
        stage = stage_episode(
            episode(gen.standard_normal((4, 3)), sy, [5, 2], gen.standard_normal((6, 3)))
        )
        fwd = episode_forward(stage, gen.standard_normal((2, 3)),
                              SamplerConfig(chains=3, steps=2), RngStream(21), record=record)
        assert len(calls) == 1
        one_hot, k_shot = support_labels(sy, 2)
        assert fwd.stage.one_hot.tobytes() == one_hot.tobytes() and fwd.stage.k_shot == k_shot
        assert (fwd.record is not None) == record


class TestEpisodeForwardVjp:
    """The reverse of a recorded episode forward against central differences."""

    @TAUS
    @pytest.mark.parametrize("step_decay", [0.0, 0.7])
    @pytest.mark.parametrize("graph_prior", [True, False])
    def test_matches_oracle(self, tau, step_decay, graph_prior):
        gen = np.random.default_rng(40)
        sx, sy = gen.standard_normal((6, 3)), np.array([1, 0, 2, 2, 0, 1])
        qx, h = gen.standard_normal((4, 3)), gen.standard_normal((3, 3))
        targets = [4, 0, 2]
        cfg = SamplerConfig(
            chains=2, steps=3, step_decay=step_decay, tau=tau, graph_prior=graph_prior
        )
        cotangent = gen.standard_normal((2, 4, 3))

        def forward(h):
            stage = stage_episode(episode(sx, sy, targets, qx))
            return episode_forward(stage, h, cfg, RngStream(41), record=True)

        def contracted(h):
            return float(np.sum(cotangent * forward(h).chain_probs))

        d_h = episode_forward_vjp(forward(h), cotangent, cfg)
        assert max_relative_error(d_h, finite_difference_gradient(contracted, h)) < 1e-4
        if not graph_prior:
            assert not np.any(d_h)  # the forward replaced the summaries with zeros

    @TAU_RANGES
    def test_random_configs_match_oracle(self, tau_range):
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
                step_decay=float(gen.choice([0.0, 0.7])), tau=float(gen.uniform(*tau_range)),
                noise_enabled=bool(gen.integers(2)),
                likelihood_weight=float(gen.choice([1.0, 0.0, 0.5])),
            )
            sy = gen.permutation(np.repeat(np.arange(n_way), k_shot))
            stage = stage_episode(episode(gen.standard_normal((sy.size, d)), sy,
                                          gen.choice(20, size=n_way, replace=False),
                                          gen.standard_normal((q_count, d))))
            h = gen.standard_normal((n_way, d))
            cotangent = gen.standard_normal((chains, q_count, n_way))

            def contracted(x):
                fwd = episode_forward(stage, x, cfg, RngStream(45, case), record=True)
                return float(np.sum(cotangent * fwd.chain_probs))

            fwd = episode_forward(stage, h, cfg, RngStream(45, case), record=True)
            d_h = episode_forward_vjp(fwd, cotangent, cfg)
            assert d_h.shape == h.shape and np.any(d_h)
            assert max_relative_error(d_h, finite_difference_gradient(contracted, h)) < 1e-6, cfg


def out_of_place_vjp(fwd, d_chain_probs, config):
    """episode_forward_vjp's reverse loop and kernels with a new array per
    operation, in the same order: the prior term ``half * pw * d_v`` and the
    drift's cotangent ``half * d_v`` each computed, ``d_v_next`` built out of
    place, the softmax VJP as ``probs * (d_probs - inner) / tau``."""

    def softmax_vjp(probs, d_probs, enc, tau):
        inner = (d_probs * probs).sum(axis=-1, keepdims=True)
        return pairwise_logits_vjp(probs * (d_probs - inner) / tau, enc)

    def drift_vjp(enc, probs, cotangent, tau, scale):
        a = np.einsum("sd,lnd->sln", enc, cotangent)
        return softmax_vjp(probs, -scale * a, enc, tau)

    chain, stage = fwd.record, fwd.stage
    d_v = softmax_vjp(
        np.swapaxes(fwd.chain_probs, 0, 1).copy(),
        np.swapaxes(d_chain_probs.reshape((-1,) + fwd.chain_probs.shape[1:]), 0, 1),
        stage.query_enc, config.tau,
    )
    d_h = np.zeros_like(d_v[0])
    lik_scale = config.likelihood_weight / (stage.k_shot * config.tau)
    eps = config.step_sizes().tolist()
    for t in range(len(eps) - 1, -1, -1):
        half = 0.5 * eps[t]
        d_h += half * config.prior_weight * d_v.sum(axis=0)
        d_v_next = d_v - half * config.prior_weight * d_v
        if chain.support_probs is not None:
            d_v_next = d_v_next + drift_vjp(
                stage.support_enc, chain.support_probs[t], half * d_v, config.tau, lik_scale
            )
        d_v = d_v_next
    d_h += config.alpha * d_v.sum(axis=0)
    return d_h if config.graph_prior else np.zeros_like(d_h)


REVERSE_SETTINGS = {
    "default": {},
    "prior weight 0.5": {"prior_weight": 0.5},
    "prior weight 0.3": {"prior_weight": 0.3},
    "no likelihood": {"likelihood_weight": 0.0},
    "no steps": {"steps": 0},
    "decay": {"step_decay": 0.6, "step_size": 0.4},
    "no graph prior": {"graph_prior": False},
}


class TestInPlaceReversePass:
    """episode_forward_vjp updates its cotangent in place, to the out-of-place loop's bits."""

    @pytest.mark.parametrize("setting", list(REVERSE_SETTINGS))
    @TAU_RANGES
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-chain"])
    def test_equals_the_out_of_place_reverse_pass(self, setting, tau_range, shared):
        gen = np.random.default_rng(60)
        for case in range(4):
            n_way, k_shot, q_count, d, chains, steps = (
                int(x) for x in gen.integers([2, 1, 1, 1, 1, 1], [6, 4, 7, 6, 5, 6])
            )
            settings = {"chains": chains, "steps": steps, **REVERSE_SETTINGS[setting]}
            cfg = SamplerConfig(tau=float(gen.uniform(*tau_range)), **settings)
            sy = gen.permutation(np.repeat(np.arange(n_way), k_shot))
            stage = stage_episode(episode(gen.standard_normal((sy.size, d)) * 2.0, sy,
                                          gen.choice(20, size=n_way, replace=False),
                                          gen.standard_normal((q_count, d)) * 2.0))
            fwd = episode_forward(stage, gen.standard_normal((n_way, d)), cfg,
                                  RngStream(61, case), record=True)
            cotangent = gen.standard_normal(((q_count, n_way) if shared
                                             else (cfg.chains, q_count, n_way)))
            before = cotangent.tobytes()
            got = episode_forward_vjp(fwd, cotangent, cfg)
            assert got.tobytes() == out_of_place_vjp(fwd, cotangent, cfg).tobytes(), cfg
            assert cotangent.tobytes() == before


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

    @TAUS
    @pytest.mark.parametrize("noise", [True, False])
    def test_chain_is_the_per_episode_chains(self, tau, noise):
        sx, sy, _, targets, h = episode_batch(20, 5)
        cfg = SamplerConfig(chains=3, steps=4, step_decay=0.3, tau=tau, noise_enabled=noise)
        one_hot, k_shot = support_labels(sy, 4)
        means, grand = support_statistics(sx, one_hot, k_shot)
        init = init_prototypes(means, grand, h, cfg.alpha, cfg.beta)
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
            alone_init = init_prototypes(alone_means, alone_grand, h[e], cfg.alpha, cfg.beta)
            assert init[e].tobytes() == alone_init.tobytes()
            alone, alone_record = sgld_chain(
                sx[e], alone_one_hot, k_shot, targets[e], h[e], alone_init, cfg,
                RngStream(8).child(e, 1), record=True,
            )
            assert out[e].tobytes() == alone.tobytes()
            assert record.trajectory[:, e].tobytes() == alone_record.trajectory.tobytes()
            assert record.support_probs[:, e].tobytes() == alone_record.support_probs.tobytes()

    def test_stage_of_a_batch_is_each_episodes_stage(self):
        sx, sy, qx, targets, _ = episode_batch(24, 4, k_shot=3)
        stages = stage_episode(episode(sx, sy, targets, qx))
        for e in range(4):
            alone = stage_episode(episode(sx[e], sy[e], targets[e], qx[e]))
            for name, value in vars(alone).items():
                kept = np.asarray(getattr(stages[e], name))
                assert kept.tobytes() == np.asarray(value).tobytes(), name

    @TAUS
    @pytest.mark.parametrize("e_count", [None, 5], ids=["one", "batch"])
    def test_chain_state_and_record_are_c_ordered(self, tau, e_count):
        # the warm start has one chain slot: the chain writes it into its own
        # C-ordered state or record, which its einsums run fastest on (a plain
        # copy of a broadcast view would keep the chain axis innermost but one)
        sx, sy, _, targets, h = episode_batch(25, e_count or 1)
        rng = RngStream(8).child(np.arange(e_count), 1) if e_count else RngStream(8, 1)
        if e_count is None:
            sx, sy, targets, h = sx[0], sy[0], targets[0], h[0]
        cfg = SamplerConfig(chains=3, steps=2, tau=tau)
        one_hot, k_shot = support_labels(sy, 4)
        init = init_prototypes(*support_statistics(sx, one_hot, k_shot), h, cfg.alpha, cfg.beta)
        assert init.shape[-3] == 1
        out, record = sgld_chain(sx, one_hot, k_shot, targets, h, init, cfg, rng, record=True)
        assert out.flags.c_contiguous
        assert record.trajectory.flags.c_contiguous and record.support_probs.flags.c_contiguous

    @TAUS
    def test_prediction_is_per_episode(self, tau):
        sx, sy, qx, targets, h = episode_batch(21, 4)
        cfg = SamplerConfig(chains=4, steps=3, tau=tau)
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
        _, preds = predict_queries(queries, values, 1.0, targets)
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


class TestStepSchedule:
    """The step sizes as floats, built once per config, on first use."""

    def test_a_config_holds_no_schedule_until_it_runs(self):
        cfg = SamplerConfig(steps=4, step_decay=0.5)
        assert "schedule" not in vars(cfg)
        assert cfg.schedule == cfg.step_sizes().tolist()
        assert cfg.schedule is cfg.schedule

    def test_a_replaced_config_builds_its_own_schedule(self):
        # sweep builds each point with dataclasses.replace
        base = SamplerConfig(steps=3, step_decay=0.5)
        built = base.schedule
        for field, value in (("steps", 5), ("step_size", 0.2), ("step_decay", 0.0)):
            cfg = replace(base, **{field: value})
            assert "schedule" not in vars(cfg)
            assert cfg.schedule == cfg.step_sizes().tolist() != built
        assert base.schedule is built

    def test_equality_and_hashing_ignore_the_schedule(self):
        built, fresh = SamplerConfig(steps=4), SamplerConfig(steps=4)
        assert len(built.schedule) == 4
        assert "schedule" in vars(built) and "schedule" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert {built: "point"}[fresh] == "point"
        assert built != SamplerConfig(steps=3)

    @pytest.mark.parametrize("settings, message", [
        ({"step_size": 3.9}, "largest step size 3.9 must be < 2"),
        ({"step_size": 5.0, "prior_weight": 0.5},
         "largest step size 5 times prior_weight 0.5 must be < 2"),
        ({"step_size": 0.5, "prior_weight": 4.0},
         "largest step size 0.5 times prior_weight 4 must be < 2"),
    ])
    def test_step_size_bound_names_prior_weight_only_off_its_default(self, settings, message):
        # no option sets prior_weight, so a CLI message names it only when a
        # library caller moved it off 1
        with pytest.raises(ValueError) as caught:
            SamplerConfig(**settings)
        assert str(caught.value) == message

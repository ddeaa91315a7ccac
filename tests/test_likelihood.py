"""Tests for the encoding, the similarity kernel and the temperature-softmax likelihood."""

import math

import numpy as np
import pytest

from protograph import sampler
from protograph.likelihood import (
    LOGIT_CLAMP,
    RESIDUAL_FLOOR,
    class_log_probs,
    encode_batch,
    pairwise_logits,
    pairwise_logits_vjp,
    similarity_softmax_vjp,
    support_drift_vjp,
    support_labels,
    support_probs_and_grad,
)
from protograph.numerics import (
    RngStream,
    finite_difference_gradient,
    log_softmax_with_temperature,
    max_relative_error,
    softmax_with_temperature,
)

def l_major(probs):
    """Row-first support probabilities (..., S, L, N), as the drift computes
    them, as (..., L, S, N)."""
    return np.swapaxes(probs, -3, -2)


def support_log_likelihood(x, y, v, measure, tau):
    """(1/K) sum_s log p(y_s | x_s, V) of the support rows x against the
    prototypes v, and its gradient in v: the chain's drift, scaled by 1/(K tau)."""
    one_hot, k_shot = support_labels(y, v.shape[0])
    log_p = log_softmax_with_temperature(pairwise_logits(x, v, measure), tau)
    _, drift = support_probs_and_grad(x, one_hot, v[None], measure, tau, record=False)
    value = (1.0 / k_shot) * float(log_p[np.arange(y.size), y].sum())
    return value, drift[0] * ((1.0 / k_shot) / tau)


class TestEncode:
    def test_identity_passthrough(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(encode_batch(x), x)

    def test_batch_matches_single(self):
        # a batch of rows, with or without an episode axis, encodes row by
        # row; integer features become floats of the same values
        x = np.random.default_rng(0).integers(-5, 5, size=(2, 5, 4))
        batch = encode_batch(x)
        assert batch.dtype == np.float64 and batch.shape == x.shape
        for e in range(2):
            assert encode_batch(x[e]).tobytes() == batch[e].tobytes()
            for i in range(5):
                assert encode_batch(x[e, i]).tobytes() == batch[e, i].tobytes()
        np.testing.assert_array_equal(batch, x)


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
        d_values = pairwise_logits_vjp(np.swapaxes(cotangent, 0, 1), enc, values, measure)
        fd_values = finite_difference_gradient(
            lambda v: np.sum(cotangent * pairwise_logits(enc, v, measure)), values
        )
        assert d_values.shape == values.shape
        assert max_relative_error(d_values, fd_values) < 1e-8


class TestSupportLogLikelihood:
    def test_single_class_is_zero(self):
        value, grad = support_log_likelihood(
            np.ones((1, 2)), np.zeros(1, dtype=int), np.ones((1, 2)), "dot", 10.0
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
        value, _ = support_log_likelihood(x, y, v, "dot", tau)
        assert value == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_gradient_matches_oracle(self, measure):
        gen = np.random.default_rng(3)
        for _ in range(10):
            n, k, d = 3, 2, 3
            x = gen.standard_normal((n * k, d))
            y = np.repeat(np.arange(n), k)
            v = gen.standard_normal((n, d))
            _, grad = support_log_likelihood(x, y, v, measure, 7.0)
            fd = finite_difference_gradient(
                lambda p: support_log_likelihood(x, y, p, measure, 7.0)[0],
                v,
            )
            assert max_relative_error(grad, fd) < 1e-4

    def test_label_outside_targets(self):
        with pytest.raises(ValueError, match="outside"):
            support_log_likelihood(
                np.ones((1, 2)), np.array([5]), np.ones((2, 2)), "dot", 1.0
            )

    def test_unequal_counts_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            support_log_likelihood(
                np.ones((3, 2)), np.array([0, 0, 1]), np.ones((2, 2)), "dot", 1.0
            )

    def test_duplication_invariance_with_normalization(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((4, 3))
        y = np.array([0, 0, 1, 1])
        v = gen.standard_normal((2, 3))
        v1, g1 = support_log_likelihood(x, y, v, "dot", 5.0)
        v2, g2 = support_log_likelihood(
            np.vstack([x, x]), np.concatenate([y, y]), v, "dot", 5.0
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
            v1, g1 = support_log_likelihood(x, y, v, "euclidean", 3.0)
            v2, g2 = support_log_likelihood(x[perm], y[perm], v, "euclidean", 3.0)
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


def unfloored_kernel(enc, one_hot, values, measure, tau, record=True, out=None):
    """support_probs_and_grad as it was before the residual floor (and before
    its ``record`` keyword, which it takes and ignores), l-major, with its
    softmax returned row-first. That softmax goes into ``out`` (S, L, N) when
    that is given, as the kernel's does in a recorded chain."""
    out = None if out is None else np.swapaxes(out, 0, 1)
    if measure == "dot":
        logits = np.einsum("sd,lnd->lsn", enc, values)
        probs = softmax_with_temperature(logits, tau, out=out)
        return l_major(probs), np.einsum("lsn,sd->lnd", one_hot[None] - probs, enc)
    diff = enc[None, :, None, :] - values[:, None, :, :]
    logits = -0.5 * np.einsum("lsnd,lsnd->lsn", diff, diff)
    probs = softmax_with_temperature(logits, tau, out=out)
    return l_major(probs), np.einsum("lsn,lsnd->lnd", one_hot[None] - probs, diff)


def five_pass_floor_kernel(enc, one_hot, values, measure, tau, record=True):
    """support_probs_and_grad with its residual floor as five array passes: a
    subtraction, two comparisons, an and and a masked store; the euclidean
    measure l-major, with its softmax returned row-first."""
    if measure == "dot":
        flat = values.reshape(values.shape[:-3] + (-1, values.shape[-1]))
        logits = np.einsum("...sd,...kd->...sk", enc, flat).reshape(
            enc.shape[:-1] + values.shape[-3:-1]
        )
        labels = one_hot[..., :, None, :]
    else:
        diff = enc[..., None, :, None, :] - values[..., :, None, :, :]
        logits = -0.5 * np.einsum("...lsnd,...lsnd->...lsn", diff, diff)
        labels = one_hot[..., None, :, :]
    probs = softmax_with_temperature(logits, tau, None if record else LOGIT_CLAMP)
    resid = labels - probs
    resid[(resid < RESIDUAL_FLOOR) & (resid > -RESIDUAL_FLOOR)] = 0.0
    if measure == "dot":
        return probs, np.einsum("...sln,...sd->...lnd", resid, enc)
    return l_major(probs), np.einsum("...lsn,...lsnd->...lnd", resid, diff)


def underflow_world(seed=0):
    """A saturated support softmax, as on wide episodes: 20 clusters at scale
    10 in d=64, 5 shots each, 10 chains near the cluster centers."""
    gen = np.random.default_rng(seed)
    n_way, k_shot, d, chains = 20, 5, 64, 10
    centers = 10.0 * gen.standard_normal((n_way, d))
    y = np.repeat(np.arange(n_way), k_shot)
    enc = centers[y] + gen.standard_normal((y.size, d))
    values = centers[None] + gen.standard_normal((chains, n_way, d))
    return enc, y, values, centers


def is_subnormal(a):
    return (a != 0) & (np.abs(a) < np.finfo(float).tiny)


class TestSupportDriftKernel:
    def test_dot_layout_is_bit_equal(self):
        # real residuals (one-hot minus a softmax) on random shapes, d=1 and N=1 included
        gen = np.random.default_rng(40)
        for i in range(3000):
            chains, s, n_way, d = (int(x) for x in gen.integers(1, 9, size=4))
            if i % 3 == 0:
                d = 1
            if i % 5 == 0:
                n_way = 1
            enc = gen.standard_normal((s, d)) * gen.choice([0.1, 1.0, 10.0])
            values = gen.standard_normal((chains, n_way, d))
            one_hot = np.eye(n_way)[gen.integers(0, n_way, size=s)]
            probs, drift = support_probs_and_grad(enc, one_hot, values, "dot", 1.0)
            expected = np.einsum("lsn,sd->lnd", one_hot[None] - l_major(probs), enc)
            assert drift.tobytes() == expected.tobytes(), (chains, s, n_way, d)

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_floor_drops_only_terms_below_its_bound(self, measure):
        enc, y, values, _ = underflow_world()
        one_hot, _ = support_labels(y, 20)
        ref_probs, ref_drift = unfloored_kernel(enc, one_hot, values, measure, 10.0)
        resid = one_hot[:, None] - ref_probs
        assert np.any(is_subnormal(resid)), "the world no longer underflows"
        probs, drift = support_probs_and_grad(enc, one_hot, values, measure, 10.0)
        assert probs.tobytes() == ref_probs.tobytes()  # the exact softmax
        operand = enc if measure == "dot" else enc[None, :, None, :] - values[:, None, :, :]
        bound = enc.shape[0] * RESIDUAL_FLOOR * np.abs(operand).max()
        assert np.abs(drift - ref_drift).max() <= bound

    def test_floor_by_the_probabilities_is_the_residual_floor(self):
        # labels - where(p < floor, 0, p) zeroes exactly the residuals that
        # are below the floor in size, to the same bits, at its edge cases
        gen = np.random.default_rng(42)
        edges = [0.0, 1.0, 0.5, RESIDUAL_FLOOR, np.nextafter(RESIDUAL_FLOOR, 0.0),
                 np.nextafter(RESIDUAL_FLOOR, 1.0), 5e-324, 2.0**-1030, np.finfo(float).tiny,
                 2.0**-54, 2.0**-53, 1.0 - 2.0**-53]
        for case in range(300):
            shape = tuple(int(x) for x in gen.integers(1, 6, size=2))
            pool = edges + list(gen.uniform(size=4) * 10.0 ** -gen.integers(0, 320, size=4))
            probs = gen.choice(np.array(pool), size=shape)
            labels = gen.integers(0, 2, size=shape).astype(float)
            masked = labels - probs
            masked[(masked < RESIDUAL_FLOOR) & (masked > -RESIDUAL_FLOOR)] = 0.0
            floored = labels - np.where(probs < RESIDUAL_FLOOR, 0.0, probs)
            assert floored.tobytes() == masked.tobytes(), (probs, labels)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_drift_keeps_the_five_pass_floors_bits(self, measure, record):
        # a saturated wide episode, where residuals underflow, and random shapes
        enc, y, values, _ = underflow_world()
        cases = [(enc, support_labels(y, 20)[0], values, 10.0)]
        gen = np.random.default_rng(43)
        for _ in range(40):
            chains, s, n_way, d = (int(x) for x in gen.integers(1, 7, size=4))
            cases.append((gen.standard_normal((s, d)) * gen.choice([0.1, 1.0, 30.0]),
                          np.eye(n_way)[gen.integers(0, n_way, size=s)],
                          gen.standard_normal((chains, n_way, d)), float(gen.choice([0.5, 10.0]))))
        for enc, one_hot, values, tau in cases:
            probs, drift = support_probs_and_grad(enc, one_hot, values, measure, tau, record)
            ref_probs, ref_drift = five_pass_floor_kernel(
                enc, one_hot, values, measure, tau, record
            )
            assert drift.tobytes() == ref_drift.tobytes()
            if record:
                assert probs.tobytes() == ref_probs.tobytes()
            else:
                assert probs is None

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_chain_trajectory_is_unchanged(self, monkeypatch, measure):
        enc, y, values, centers = underflow_world()
        config = sampler.SamplerConfig(chains=10, steps=20, tau=10.0, measure=measure)

        def run():
            return sampler.sgld_chain(
                enc, *support_labels(y, 20), np.arange(20), centers, values,
                config, RngStream(5), record=True,
            )[1]

        got = run()
        monkeypatch.setattr(sampler, "support_probs_and_grad", unfloored_kernel)
        expected = run()
        assert got.trajectory.tobytes() == expected.trajectory.tobytes()
        assert got.support_probs.tobytes() == expected.support_probs.tobytes()

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_reductions_see_no_subnormal_operand(self, monkeypatch, measure):
        # subnormal arithmetic is many times slower; a wide saturated episode
        # must not feed it to any einsum of the drift
        enc, y, values, _ = underflow_world()
        one_hot, _ = support_labels(y, 20)
        einsum, operands = np.einsum, []

        def recording_einsum(subscripts, *arrays, **kwargs):
            operands.extend(a for a in arrays if a.dtype == np.float64)
            return einsum(subscripts, *arrays, **kwargs)

        monkeypatch.setattr(np, "einsum", recording_einsum)
        support_probs_and_grad(enc, one_hot, values, measure, 10.0)
        monkeypatch.undo()
        assert len(operands) >= 4
        assert not any(np.any(is_subnormal(a)) for a in operands)


def l_major_euclidean_kernel(enc, one_hot, values, tau, record=True):
    """support_probs_and_grad's euclidean measure as it was before its
    row-first layout: logits, softmax and residual (..., L, S, N)."""
    diff = enc[..., None, :, None, :] - values[..., :, None, :, :]
    logits = -0.5 * np.einsum("...lsnd,...lsnd->...lsn", diff, diff)
    probs = softmax_with_temperature(logits, tau, None if record else LOGIT_CLAMP, logits)
    resid = one_hot[..., None, :, :] - np.where(probs < RESIDUAL_FLOOR, 0.0, probs)
    return (probs if record else None), np.einsum("...lsn,...lsnd->...lnd", resid, diff)


class TestRowFirstEuclideanKernel:
    """The euclidean kernel computes s-major, to the l-major kernel's bits."""

    @staticmethod
    def assert_same_bits(enc, one_hot, values, tau, record, into_slot=False):
        out = np.empty(enc.shape[:-1] + values.shape[-3:-1]) if into_slot else None
        probs, drift = support_probs_and_grad(enc, one_hot, values, "euclidean", tau, record, out)
        ref_probs, ref_drift = l_major_euclidean_kernel(enc, one_hot, values, tau, record)
        assert drift.tobytes() == ref_drift.tobytes(), (values.shape, tau, record)
        if not record:
            assert probs is None
            return
        assert probs.shape == enc.shape[:-1] + values.shape[-3:-1]
        assert l_major(probs).tobytes() == ref_probs.tobytes(), (values.shape, tau)
        assert probs is out or not into_slot

    @pytest.mark.parametrize("record", [True, False])
    def test_random_shapes(self, record):
        # one episode or E stacked, d=1 and N=1 included, tau below 1 included
        gen = np.random.default_rng(46)
        for i in range(1500):
            lead = (int(gen.integers(1, 5)),) if i % 2 else ()
            chains, s, n_way, d = (int(x) for x in gen.integers(1, [9, 12, 9, 20]))
            if i % 7 == 0:
                d = 1
            if i % 5 == 0:
                n_way = 1
            scale = float(gen.choice([0.1, 1.0, 3.0, 10.0, 30.0]))
            tau = float(gen.choice([0.3, 0.5, 0.9, 1.0, 3.0, 10.0]))
            enc = scale * gen.standard_normal(lead + (s, d))
            values = scale * gen.standard_normal(lead + (chains, n_way, d))
            one_hot = np.eye(n_way)[gen.integers(0, n_way, size=lead + (s,))]
            self.assert_same_bits(enc, one_hot, values, tau, record, into_slot=bool(i % 3))

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("e_count", [None, 1, 3])
    @pytest.mark.parametrize("tau", [0.5, 10.0])
    def test_underflow_world(self, record, e_count, tau):
        worlds = [underflow_world(seed) for seed in range(e_count or 1)]
        enc, y, values, _ = (np.stack(part) for part in zip(*worlds))
        if e_count is None:
            enc, y, values = enc[0], y[0], values[0]
        one_hot, _ = support_labels(y, 20)
        self.assert_same_bits(enc, one_hot, values, tau, record)
        self.assert_same_bits(enc, one_hot, values, tau, record, into_slot=True)


class TestUnrecordedDrift:
    """record=False clamps the softmax's exponent and keeps the drift's bits."""

    def test_clamp_is_a_normal_float_below_the_floor(self):
        assert np.finfo(float).tiny <= math.exp(LOGIT_CLAMP) < RESIDUAL_FLOOR

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_drift_keeps_its_bits(self, measure):
        # one episode or E stacked ones, at scales from a soft softmax to one
        # whose exact probabilities underflow to zero or a subnormal
        gen = np.random.default_rng(44)
        underflowing = 0
        for i in range(2000):
            lead = (int(gen.integers(1, 5)),) if i % 2 else ()
            chains, s, n_way, d = (int(x) for x in gen.integers(1, [11, 40, 21, 80]))
            scale = float(gen.choice([0.3, 3.0, 10.0, 30.0]))
            tau = float(gen.uniform(1.0, 20.0))
            enc = scale * gen.standard_normal(lead + (s, d))
            values = scale * gen.standard_normal(lead + (chains, n_way, d))
            one_hot = np.eye(n_way)[gen.integers(0, n_way, size=lead + (s,))]
            probs, drift = support_probs_and_grad(enc, one_hot, values, measure, tau)
            none, fast = support_probs_and_grad(enc, one_hot, values, measure, tau, record=False)
            assert none is None
            assert fast.tobytes() == drift.tobytes(), (values.shape, scale, tau)
            underflowing += bool(np.any(probs < np.finfo(float).tiny))
        assert underflowing >= 500

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("e_count", [None, 1, 3])
    def test_chain_ends_where_the_recorded_chain_ends(self, measure, e_count):
        worlds = [underflow_world(seed) for seed in range(e_count or 1)]
        enc, y, values, centers = (np.stack(part) for part in zip(*worlds))
        rng = RngStream(5, np.arange(e_count or 1, dtype=np.uint64))
        if e_count is None:
            enc, y, values, centers, rng = enc[0], y[0], values[0], centers[0], RngStream(5, 0)
        config = sampler.SamplerConfig(chains=10, steps=20, tau=10.0, measure=measure)

        targets = np.arange(20) if e_count is None else np.tile(np.arange(20), (e_count, 1))

        def run(record):
            return sampler.sgld_chain(
                enc, *support_labels(y, 20), targets, centers, values,
                config, rng, record=record,
            )

        final, none = run(False)
        _, chain = run(True)
        assert none is None
        assert final.tobytes() == chain.trajectory[-1].tobytes()

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_exp_sees_no_argument_below_the_clamp(self, monkeypatch, measure):
        # exp is many times slower on an output that underflows
        enc, y, values, _ = underflow_world()
        one_hot, _ = support_labels(y, 20)
        exp, lowest = np.exp, []

        def recording_exp(x, *args, **kwargs):
            lowest.append(float(np.min(x)))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        support_probs_and_grad(enc, one_hot, values, measure, 10.0)
        assert min(lowest) < LOGIT_CLAMP, "the world no longer underflows"
        lowest.clear()
        support_probs_and_grad(enc, one_hot, values, measure, 10.0, record=False)
        monkeypatch.undo()
        assert lowest and min(lowest) == LOGIT_CLAMP


def random_batch(gen, measure):
    """E episodes of random shape: encodings (E, S, d), one-hot labels
    (E, S, N), prototypes (E, L, N, d), at scales that keep the softmax off
    the residual floor."""
    e_count = int(gen.integers(1, 6))
    high = [12, 30, 25, 70] if measure == "dot" else [6, 12, 10, 40]
    chains, s, n_way, d = (int(x) for x in gen.integers(1, high))
    enc = gen.standard_normal((e_count, s, d))
    values = gen.standard_normal((e_count, chains, n_way, d))
    one_hot = np.eye(n_way)[gen.integers(0, n_way, size=(e_count, s))]
    return enc, one_hot, values


class TestEpisodeAxis:
    """A leading episode axis gives each episode the bits it gets alone."""

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_drift_kernel(self, measure):
        gen = np.random.default_rng(41)
        for _ in range(2000):
            enc, one_hot, values = random_batch(gen, measure)
            tau = float(gen.uniform(1.0, 20.0))
            probs, drift = support_probs_and_grad(enc, one_hot, values, measure, tau)
            for e in range(len(enc)):
                alone = support_probs_and_grad(enc[e], one_hot[e], values[e], measure, tau)
                assert probs[e].tobytes() == alone[0].tobytes(), values.shape
                assert drift[e].tobytes() == alone[1].tobytes(), values.shape
            # the "..." subscripts give the bits of the explicit ones
            reference = unfloored_kernel(enc[e], one_hot[e], values[e], measure, tau)
            assert alone[0].tobytes() == reference[0].tobytes(), values.shape
            assert alone[1].tobytes() == reference[1].tobytes(), values.shape

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_query_logits(self, measure):
        gen = np.random.default_rng(42)
        for _ in range(2000):
            enc, _, values = random_batch(gen, measure)
            logits = pairwise_logits(enc, values, measure)
            assert logits.shape == values.shape[:2] + enc.shape[1:2] + values.shape[2:3]
            for e in range(len(enc)):
                alone = pairwise_logits(enc[e], values[e], measure)
                assert logits[e].tobytes() == alone.tobytes(), values.shape

    def test_support_labels_check_each_episode(self):
        y = np.array([[1, 0, 0, 1], [0, 1, 1, 0]])
        one_hot, k_shot = support_labels(y, 2)
        assert k_shot == 2
        for e in range(2):
            np.testing.assert_array_equal(one_hot[e], support_labels(y[e], 2)[0])
        # the first episode that fails is reported as it alone would be
        with pytest.raises(ValueError, match=r"unequal support counts per class: \[3, 1\]"):
            support_labels(np.array([[0, 1, 0, 1], [0, 0, 0, 1], [0, 5, 0, 1]]), 2)
        with pytest.raises(ValueError, match="support label 5 outside"):
            support_labels(np.array([[0, 1, 0, 1], [0, 5, 0, 1], [0, 0, 0, 1]]), 2)


class TestPrototypeVjps:
    """The softmax and drift VJPs at random shapes, against central differences."""

    @staticmethod
    def random_case(gen, measure):
        chains, s, n_way, d = (int(x) for x in gen.integers(1, [5, 8, 6, 7]))
        enc = gen.standard_normal((s, d))
        values = gen.standard_normal((chains, n_way, d))
        one_hot = np.eye(n_way)[gen.integers(0, n_way, size=s)]
        tau = float(gen.uniform(0.5, 20.0))
        return enc, values, one_hot, tau

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_similarity_softmax_vjp_matches_central_differences(self, measure):
        gen = np.random.default_rng(43)
        for _ in range(40):
            enc, values, _, tau = self.random_case(gen, measure)

            def probs(v):
                return softmax_with_temperature(pairwise_logits(enc, v, measure), tau)

            d_probs = gen.standard_normal(probs(values).shape)
            d_values = similarity_softmax_vjp(
                np.swapaxes(probs(values), 0, 1), np.swapaxes(d_probs, 0, 1), enc, values,
                measure, tau,
            )
            fd = finite_difference_gradient(lambda v: np.sum(d_probs * probs(v)), values)
            assert d_values.shape == values.shape
            assert max_relative_error(d_values, fd) < 1e-7, values.shape

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_support_drift_vjp_matches_central_differences(self, measure):
        gen = np.random.default_rng(44)
        for _ in range(40):
            enc, values, one_hot, tau = self.random_case(gen, measure)
            scale = float(gen.uniform(0.01, 2.0))
            cotangent = gen.standard_normal(values.shape)

            def drift(v):
                return scale * support_probs_and_grad(enc, one_hot, v, measure, tau)[1]

            probs, _ = support_probs_and_grad(enc, one_hot, values, measure, tau)
            d_values = support_drift_vjp(
                enc, one_hot, values, probs, cotangent, measure, tau, scale
            )
            fd = finite_difference_gradient(lambda v: np.sum(cotangent * drift(v)), values)
            assert d_values.shape == values.shape
            assert max_relative_error(d_values, fd) < 1e-7, values.shape

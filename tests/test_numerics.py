"""Tests for the deterministic math kernel."""

import math
import warnings

import numpy as np
import pytest

from protograph.numerics import (
    ChildNormals,
    _splitmix64,
    RngStream,
    finite_difference_gradient,
    log_softmax_with_temperature,
    max_relative_error,
    softmax_with_temperature,
    standard_normal_sample,
)

E_OVER_1PE = math.e / (1.0 + math.e)  # softmax([1, 0]) first entry


class TestSoftmax:
    def test_equal_logits_are_uniform(self):
        np.testing.assert_allclose(
            softmax_with_temperature([0.0, 0.0, 0.0], 10.0), [1 / 3] * 3, atol=1e-15
        )

    def test_two_class_closed_form(self):
        out = softmax_with_temperature([1.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [E_OVER_1PE, 1.0 - E_OVER_1PE], atol=1e-12)
        np.testing.assert_allclose(out, [0.73105858, 0.26894142], atol=1e-8)

    def test_temperature_scales_logits(self):
        np.testing.assert_allclose(
            softmax_with_temperature([10.0, 0.0], 10.0),
            softmax_with_temperature([1.0, 0.0], 1.0),
            atol=1e-15,
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty class set"):
            softmax_with_temperature([], 1.0)

    def test_invalid_tau_raises(self):
        with pytest.raises(ValueError, match="tau"):
            softmax_with_temperature([1.0], 0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_nonfinite_tau_raises(self, tau):
        # at tau = inf every logit would scale to 0: a uniform, chance-level softmax
        with pytest.raises(ValueError, match="tau must be"):
            log_softmax_with_temperature([3.0, 1.0], tau)

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError, match="finite"):
            softmax_with_temperature([np.nan, 1.0], 1.0)

    def test_overflowing_tau_raises_without_a_warning(self):
        # finite logits that overflow once divided by a tiny tau fail the one
        # finiteness check, and numpy's overflow warning is not printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="logits / tau must be finite"):
                softmax_with_temperature([1.0, 0.0], 1e-320)

    def test_normalization_and_range(self):
        # scaled logits stay within +-15: beyond ~36 apart the largest
        # softmax entry rounds to exactly 1.0 in float64
        gen = np.random.default_rng(0)
        for _ in range(150):
            n = int(gen.integers(1, 12))
            tau = float(gen.uniform(0.1, 20))
            logits = gen.uniform(-15, 15, size=n) * tau
            p = softmax_with_temperature(logits, tau)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)
            assert np.all(p < 1) if n > 1 else p[0] == 1.0

    def test_shift_invariance(self):
        gen = np.random.default_rng(1)
        for _ in range(150):
            logits = gen.uniform(-50, 50, size=int(gen.integers(2, 10)))
            tau = float(gen.uniform(0.1, 20))
            c = float(gen.uniform(-100, 100))
            np.testing.assert_allclose(
                softmax_with_temperature(logits + c, tau),
                softmax_with_temperature(logits, tau),
                atol=1e-12,
            )

    def test_temperature_identity(self):
        gen = np.random.default_rng(2)
        for _ in range(150):
            logits = gen.uniform(-50, 50, size=int(gen.integers(2, 10)))
            tau = float(gen.uniform(0.1, 20))
            np.testing.assert_allclose(
                softmax_with_temperature(logits, tau),
                softmax_with_temperature(logits / tau, 1.0),
                atol=1e-12,
            )

    def test_clamp_raises_only_the_entries_below_it(self):
        # every entry whose shifted logit is at least the clamp keeps the exact
        # softmax's bits; a raised one reads exp(clamp) / row sum
        gen = np.random.default_rng(4)
        for _ in range(2000):
            shape = (int(gen.integers(1, 6)), int(gen.integers(1, 30)))
            logits = gen.uniform(-1500.0, 0.0, size=shape)
            tau = float(gen.uniform(0.5, 2.0))
            exact = softmax_with_temperature(logits, tau)
            clamped = softmax_with_temperature(logits, tau, clamp=-700.0)
            z = logits / tau
            raised = z - z.max(axis=-1, keepdims=True) < -700.0
            assert clamped[~raised].tobytes() == exact[~raised].tobytes()
            assert np.all(exact[raised] <= clamped[raised])
            assert np.all(clamped[raised] <= math.exp(-700.0))

    def test_log_softmax_matches_log_of_softmax(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            logits = gen.uniform(-30, 30, size=5)
            tau = float(gen.uniform(0.5, 15))
            np.testing.assert_allclose(
                log_softmax_with_temperature(logits, tau),
                np.log(softmax_with_temperature(logits, tau)),
                atol=1e-12,
            )


class TestFiniteDifference:
    def test_constant_function(self):
        grad = finite_difference_gradient(lambda x: 4.2, np.ones(3))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_half_square_norm(self):
        grad = finite_difference_gradient(
            lambda x: 0.5 * float(np.sum(x * x)), np.array([3.0, 4.0]), h=1e-5
        )
        np.testing.assert_allclose(grad, [3.0, 4.0], atol=1e-6)

    def test_product(self):
        grad = finite_difference_gradient(
            lambda x: float(x[0] * x[1]), np.array([2.0, 5.0]), h=1e-5
        )
        np.testing.assert_allclose(grad, [5.0, 2.0], atol=1e-6)

    def test_matrix_argument(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        grad = finite_difference_gradient(lambda m: float(np.sum(m**2)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-6)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(ValueError, match="oracle evaluation failed"):
            finite_difference_gradient(lambda x: float("nan"), np.ones(2))

    def test_bad_step_raises(self):
        with pytest.raises(ValueError, match="step"):
            finite_difference_gradient(lambda x: 0.0, np.ones(2), h=0.0)


class TestStandardNormal:
    def test_same_stream_replays(self):
        rng = RngStream(seed=7, stream_id=0)
        a = standard_normal_sample((3,), rng)
        b = standard_normal_sample((3,), rng)
        np.testing.assert_array_equal(a, b)

    def test_mean_near_zero(self):
        draws = standard_normal_sample(100_000, RngStream(1))
        assert abs(float(draws.mean())) <= 0.02

    def test_variance_near_one(self):
        draws = standard_normal_sample(100_000, RngStream(1))
        assert 0.98 <= float(draws.var()) <= 1.02

    def test_distinct_streams_differ(self):
        a = standard_normal_sample((8,), RngStream(1, 0))
        b = standard_normal_sample((8,), RngStream(1, 1))
        assert not np.array_equal(a, b)


class TestRngStream:
    def test_child_is_deterministic(self):
        assert RngStream(5).child(1, 2) == RngStream(5).child(1, 2)

    def test_children_are_distinct(self):
        rng = RngStream(5)
        ids = {rng.child(i).stream_id for i in range(1000)}
        ids |= {rng.child(i, j).stream_id for i in range(30) for j in range(30)}
        assert len(ids) == 1000 + 900

    def test_child_keeps_seed(self):
        assert RngStream(5, 9).child(3).seed == 5


class TestChildNormals:
    @pytest.mark.parametrize("seed", [0, 39, 2**63 + 5, -17])
    @pytest.mark.parametrize("stream_ids", [[0], [0xDEADBEEF12345678, 0, 7]])
    @pytest.mark.parametrize("shape", [(5, 16), (20, 64)])
    def test_blocks_equal_one_shot_child_draws(self, seed, stream_ids, shape):
        streams = [RngStream(seed, s) for s in stream_ids]
        normals = ChildNormals(streams, 4, shape)
        # out-of-order and repeated steps: every draw starts its stream afresh
        for j in [1, 5, 1, 0, 2**40, 2**64 - 1]:
            block = normals.step(j)
            assert block.shape == (len(streams), 4) + shape
            for e, rng in enumerate(streams):
                for i in range(4):
                    expect = standard_normal_sample(shape, rng.child(i, j))
                    assert block[e, i].tobytes() == expect.tobytes()

    def test_instances_do_not_share_state(self):
        a = ChildNormals([RngStream(1)], 2, (3,))
        b = ChildNormals([RngStream(2)], 2, (3,))
        first = a.step(1)
        b.step(1)
        np.testing.assert_array_equal(a.step(1), first)

    def test_streams_must_share_a_seed(self):
        with pytest.raises(ValueError, match="share one seed"):
            ChildNormals([RngStream(1), RngStream(2)], 2, (3,))

    def test_array_hash_equals_int_hash(self):
        # the keys of one step are hashed as a uint64 array, child ids one by one
        gen = np.random.default_rng(3)
        z = np.concatenate([
            gen.integers(0, 2**64, size=500, dtype=np.uint64),
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        ])
        assert _splitmix64(z).tolist() == [_splitmix64(int(v)) for v in z.tolist()]


class TestMaxRelativeError:
    def test_floor_at_one(self):
        # near-zero analytic entries are compared absolutely
        assert max_relative_error([0.0], [1e-6]) == pytest.approx(1e-6)

    def test_relative_above_one(self):
        assert max_relative_error([100.0], [101.0]) == pytest.approx(0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            max_relative_error(np.ones(2), np.ones(3))

    @pytest.mark.parametrize("analytic, numeric", [
        ([0.0, np.nan], [0.0, 0.0]),
        ([0.0, 0.0], [np.nan, 0.0]),
        ([np.inf, 0.0], [1.0, 0.0]),
    ])
    def test_non_finite_entry_is_an_infinite_error(self, analytic, numeric):
        # a NaN error would drop out of max(worst, err) and pass a check
        assert max_relative_error(analytic, numeric) == np.inf
        assert max(0.0, max_relative_error(analytic, numeric)) == np.inf

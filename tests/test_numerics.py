"""Tests for the deterministic math kernel."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from protograph.numerics import (
    _splitmix64,
    RekeyedPhilox,
    RngStream,
    StreamChoices,
    chain_noise,
    finite_difference_gradient,
    log_softmax_with_temperature,
    max_relative_error,
    row_max,
    softmax_with_temperature,
    standard_normal_sample,
)
from protograph.sampler import _lowest_key_argmax

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

    @pytest.mark.parametrize("seed", [0, -17, 2**64 - 1])
    @pytest.mark.parametrize("parent", [0, 2**64 - 1])
    def test_batch_ids_equal_per_index_child_ids(self, seed, parent):
        rng = RngStream(seed, parent)
        # indices that cross 2**32, as int64 and as uint64 arrays
        signed = np.array([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1])
        wide = np.array([2**63, 2**64 - 1, 5], dtype=np.uint64)
        for idx in (signed, signed[3:4], wide, wide[:1]):  # E = 1 too
            for pos in range(3):  # the array first, in the middle, last
                head, tail = [3, 2**33][:pos], [3, 2**33][pos:]
                batch = rng.child(*head, idx, *tail)
                alone = [rng.child(*head, i, *tail).stream_id for i in idx.tolist()]
                assert batch.seed == seed
                assert batch.stream_id.dtype == np.uint64 and batch.stream_id.shape == idx.shape
                assert batch.stream_id.tolist() == alone
                assert batch.ids.tolist() == alone
                # a batch's children are the children of its streams
                assert batch.child(4, 9).stream_id.tolist() == [
                    RngStream(seed, i).child(4, 9).stream_id for i in alone
                ]

    def test_one_stream_has_one_id(self):
        assert RngStream(1, -1).ids.tolist() == [2**64 - 1]
        assert RngStream(1, 7).ids.dtype == np.uint64

    def test_negative_array_entries_wrap_as_int_indices_do(self):
        assert RngStream(5).child(np.array([-1, -2**63]), 1).stream_id.tolist() == [
            RngStream(5).child(i, 1).stream_id for i in (-1, -2**63)
        ]

    def test_batch_stream_has_no_generator(self):
        batch = RngStream(5).child(np.arange(3), 1)
        with pytest.raises(ValueError) as err:
            batch.generator()
        assert str(err.value) == "a batch of 3 streams has no one generator"


class TestChildNormals:
    """chain_noise: the standard normals of each stream's children (chain, step)."""

    @pytest.mark.parametrize("seed", [0, 39, 2**63 + 5, -17])
    @pytest.mark.parametrize("stream_ids", [[0], [0xDEADBEEF12345678, 0, 7]])
    @pytest.mark.parametrize("shape", [(5, 16), (20, 64)])
    def test_blocks_equal_one_shot_child_draws(self, seed, stream_ids, shape):
        n_way, d = shape
        targets = np.tile(np.arange(n_way), (len(stream_ids), 1))  # sorted: rank is position
        blocks = chain_noise(RngStream(seed, np.array(stream_ids, dtype=np.uint64)), targets, 4, d)
        # one stream draws as a batch of one
        single = chain_noise(RngStream(seed, stream_ids[0]), targets[0], 4, d)
        for t in range(1, 4):
            block = next(blocks)
            assert block.shape == (len(stream_ids), 4) + shape
            assert next(single).tobytes() == block[0].tobytes()
            for e, stream_id in enumerate(stream_ids):
                for l in range(4):
                    expect = standard_normal_sample(shape, RngStream(seed, stream_id).child(l, t))
                    assert block[e, l].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("seed", [0, 39, -17])
    @pytest.mark.parametrize("shape", [(5, 16), (20, 64)])
    def test_each_filled_row_is_its_stream_from_the_start(self, seed, shape):
        # repeated and out-of-order ids, and both ends of the id range
        ids = [7, 2**64 - 1, 0, 7, 3, 0xDEADBEEF12345678, 2**64 - 1, 3]
        rows = np.full((len(ids),) + shape, np.nan)
        RekeyedPhilox(RngStream(seed)).standard_normal_rows(ids, list(rows))
        for stream_id, row in zip(ids, rows):
            expect = RngStream(seed, stream_id).generator().standard_normal(shape)
            assert row.tobytes() == expect.tobytes()

    def test_instances_do_not_share_state(self):
        targets = [[2, 0, 1], [1, 2, 0]]
        a = chain_noise(RngStream(1).child(np.arange(2)), targets, 2, 4)
        b = chain_noise(RngStream(2).child(np.arange(2)), targets, 2, 4)
        alone = chain_noise(RngStream(1).child(np.arange(2)), targets, 2, 4)
        for _ in range(3):
            next(b)
            assert next(a).tobytes() == next(alone).tobytes()

    @pytest.mark.parametrize("rng, targets, message", [
        # a batch with one episode's targets gave every episode stream 0's noise
        (RngStream(3, np.arange(3, dtype=np.uint64)), [4, 1, 2],
         "targets of shape (3,) do not match streams of shape (3,)"),
        # one stream with a batch's targets failed inside np.take
        (RngStream(3, 5), [[4, 1, 2], [0, 1, 2]],
         "targets of shape (2, 3) do not match streams of shape ()"),
    ])
    def test_stream_that_does_not_match_the_targets_raises(self, rng, targets, message):
        with pytest.raises(ValueError) as err:
            next(chain_noise(rng, targets, 2, 4))
        assert str(err.value) == message

    def test_array_hash_equals_int_hash(self):
        # the keys of one step are hashed as a uint64 array, child ids one by one
        gen = np.random.default_rng(3)
        z = np.concatenate([
            gen.integers(0, 2**64, size=500, dtype=np.uint64),
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        ])
        assert _splitmix64(z).tolist() == [_splitmix64(int(v)) for v in z.tolist()]


class TestStreamChoices:
    @staticmethod
    def expected(rng, calls):
        """Each stream's calls made one by one with Generator.choice on a new Philox."""
        out = []
        for e, stream_id in enumerate(rng.ids.tolist()):
            key = np.array([rng.seed, stream_id], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            out.append([[gen.choice(p, size, replace=False) for p in pops[e].tolist()]
                        for pops, size in calls])
        return out

    @pytest.mark.parametrize("pops, size", [
        ([7, 8, 9, 40, 9_999], 7),  # small pops; 7 is the bound-0 draw
        ([10_000, 10_001, 25_000], 200),  # Floyd: size <= pop // 50
        ([10_000, 10_001, 25_000], 201),  # numpy shuffles a tail above 10,000
        ([1, 2, 3], 1),
        ([2**31 + 1, 2**31 - 1, 3 * 2**30], 3),  # about half the words rejectable
        ([2**32 - 1, 2**32, 2**32 + 1], 2),  # the bound 2**32 - 1 and 64-bit bounds
        ([60, 100], 20),  # the wide workload's targets
        ([40], 15),  # and its instances
        ([20], 20),  # pop == size: Floyd's steps collide most
    ])
    def test_calls_equal_generator_choice(self, pops, size):
        gen = np.random.default_rng(size)
        streams = RngStream(2**64 - 3, gen.integers(0, 2**63, size=40).astype(np.uint64))
        calls = [
            (gen.choice(pops, size=(40, int(gen.integers(1, 4)))), size),
            (np.full((40, 1), max(pops)), size),
            (gen.choice(pops, size=(40, 2)), size),
        ]
        draws = StreamChoices(streams, [size] * 6)
        got = [draws.choice(p, s) for p, s in calls]
        for e, expect in enumerate(self.expected(streams, calls)):
            for call, rows in zip(got, expect):
                assert call[e].tolist() == [row.tolist() for row in rows]
        if min(pops) > 2**30:
            assert not draws._exact.all()  # the fallback ran

    def test_random_call_sequences(self):
        gen = np.random.default_rng(4)
        exact = []
        for case in range(300):
            e = int(gen.integers(1, 6))
            streams = RngStream(case, gen.integers(0, 2**63, size=e).astype(np.uint64))
            sizes = gen.integers(1, 12, size=int(gen.integers(1, 4))).tolist()
            calls = [(s + gen.choice([0, 0, 1, 5, 50], size=(e, int(gen.integers(1, 4)))), s)
                     for s in sizes]
            declared = [s for pops, s in calls for _ in range(pops.shape[1])]
            # now and then too few words for the last call: its streams fall back
            draws = StreamChoices(streams, declared[:-1] if case % 4 == 0 else declared)
            got = [draws.choice(p, s) for p, s in calls]
            exact += draws._exact.tolist()
            for i, expect in enumerate(self.expected(streams, calls)):
                for call, rows in zip(got, expect):
                    assert call[i].tolist() == [row.tolist() for row in rows]
        assert 0 < exact.count(False) < len(exact) / 4  # both paths ran

    def test_memory_is_linear_in_the_size(self):
        # 100 rows of 1,001 draws: a (size, size, rows) comparison would take 100 MB
        streams = RngStream(3, np.arange(100, dtype=np.uint64))
        draws = StreamChoices(streams, [1001])
        tracemalloc.start()
        try:
            got = draws.choice(np.full((100, 1), 5000), 1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        for e in (0, 99):
            one = RngStream(3, streams.stream_id[e : e + 1])
            expect = self.expected(one, [(np.full((1, 1), 5000), 1001)])[0][0][0]
            assert got[e, 0].tolist() == expect.tolist()

    def test_population_smaller_than_size_raises_as_choice_does(self):
        draws = StreamChoices(RngStream(1), [3])
        with pytest.raises(ValueError, match="larger sample than population"):
            draws.choice([[2]], 3)


def numpy_max_softmaxes(logits, tau):
    """Softmax (exact and clamped) and log-softmax shifted by numpy's own row max."""
    z = np.asarray(logits, dtype=float) / tau
    z = z - z.max(axis=-1, keepdims=True)
    exact, clamped = np.exp(z), np.exp(np.maximum(z, -700.0))
    return (exact / exact.sum(axis=-1, keepdims=True),
            clamped / clamped.sum(axis=-1, keepdims=True),
            z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))


def tied_rows(gen, shape):
    """Rows drawn from a few values, signed zeros among them, so that ties are common."""
    return gen.choice(np.array([0.0, -0.0, 0.0, -0.0, 1.5, -1.5, -3.0]), size=shape)


class TestRowMax:
    def test_equals_numpy_max_bit_for_bit(self):
        gen = np.random.default_rng(11)
        zero_max = 0
        for case in range(3000):
            shape = tuple(gen.integers(1, 6, size=int(gen.integers(0, 4)))) + (case % 25 + 1,)
            z = gen.standard_normal(shape) if case % 2 else tied_rows(gen, shape)
            expect = z.max(axis=-1, keepdims=True)
            got = row_max(z)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), z
            zero_max += not expect.all()
        assert zero_max > 300  # rows with a +-0 maximum were checked

    def test_both_sides_of_the_reduce_threshold_keep_numpy_max_bits(self):
        # up to 16 rows per column take numpy's reduce, more the column fold
        gen = np.random.default_rng(14)
        folded = []
        for case in range(400):
            n = case % 25 + 1
            shape = (int(gen.integers(1, 40 * n)), n)
            z = gen.standard_normal(shape) if case % 2 else tied_rows(gen, shape)
            expect = z.max(axis=-1, keepdims=True)
            assert row_max(z).tobytes() == expect.tobytes(), shape
            folded.append(shape[0] > 16 * n)
        assert 100 < sum(folded) < 300

    @pytest.mark.parametrize("rows", [3, 100])  # the reduce and the fold
    def test_a_view_is_not_written(self, rows):
        z = np.arange(4.0 * rows).reshape(rows, 4)[:, ::-1]
        before = z.copy()
        assert row_max(z).tolist() == [[4.0 * r + 3] for r in range(rows)]
        np.testing.assert_array_equal(z, before)

    def test_softmaxes_keep_numpy_max_bits(self):
        gen = np.random.default_rng(12)
        for case in range(600):
            shape = tuple(gen.integers(1, 5, size=int(gen.integers(0, 3)))) + (case % 25 + 1,)
            logits = gen.normal(0, 300, shape) if case % 2 else tied_rows(gen, shape)
            tau = float(gen.choice([0.5, 1.0, 10.0]))
            exact, clamped, log = numpy_max_softmaxes(logits, tau)
            assert softmax_with_temperature(logits, tau).tobytes() == exact.tobytes()
            assert softmax_with_temperature(logits, tau, -700.0).tobytes() == clamped.tobytes()
            assert log_softmax_with_temperature(logits, tau).tobytes() == log.tobytes()

    def test_argmax_keeps_numpy_max_ties(self):
        gen = np.random.default_rng(13)
        for case in range(600):
            n = case % 25 + 1
            probs = gen.choice([0.0, 0.25, 0.5], size=(3, 4, n))
            targets = np.array([gen.permutation(n) for _ in range(3)])
            rank = np.argsort(np.argsort(targets, kind="stable"))
            best = probs == probs.max(axis=-1, keepdims=True)
            expect = np.argmin(np.where(best, rank[:, None, :], n), axis=-1)
            assert _lowest_key_argmax(probs, targets).tobytes() == expect.tobytes()


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

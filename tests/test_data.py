"""Tests for dataset handling and episodic sampling."""

import pickle
import tracemalloc

import numpy as np
import pytest

from protograph import data
from protograph.data import (
    Dataset,
    Episode,
    check_episode_shape,
    generate_synthetic,
    load_dataset,
    read_lines,
    sample_episode,
    save_dataset,
    write_lines,
    write_rows,
)
from protograph.numerics import RekeyedPhilox, RngStream


def dataset_of(names, splits, instances):
    """The Dataset of ``instances``, the (n_r, d) rows of each relation r in
    id order, its rows stacked in that order."""
    return Dataset(
        names=names, splits=splits, rows=np.concatenate(instances),
        offsets=np.cumsum([0] + [len(rows) for rows in instances]),
    )


def instances_of(ds, rid):
    """The (n_r, d) rows of relation ``rid``."""
    return ds.rows[ds.offsets[rid] : ds.offsets[rid + 1]]


def small_dataset(n_rel=5, per_rel=6, d=3, seed=0, split="train"):
    gen = np.random.default_rng(seed)
    return dataset_of(
        names=[f"rel{r}" for r in range(n_rel)],
        splits=[split] * n_rel,
        instances=[gen.standard_normal((per_rel, d)) for _ in range(n_rel)],
    )


def row_set(rows):
    """The rows as a set of bytes; the instances of small_dataset are distinct."""
    return {row.tobytes() for row in rows}


class TestSampleEpisode:
    def test_exhaustive_partition(self):
        ds = small_dataset(n_rel=5, per_rel=6)
        ep = sample_episode(ds, "train", 5, 1, 5, RngStream(0))
        assert len(ep.support_y) == 5 and len(ep.query_y) == 25
        rows = np.vstack([ep.support_x, ep.query_x])
        assert len(row_set(rows)) == 30  # no instance repeated
        # each row is an instance of the relation its label names
        for row, label in zip(rows, np.concatenate([ep.support_y, ep.query_y])):
            assert row.tobytes() in row_set(instances_of(ds, ep.targets[label]))

    def test_too_many_ways_raises(self):
        ds = small_dataset(n_rel=3)
        with pytest.raises(ValueError, match="3 relations"):
            sample_episode(ds, "train", 4, 1, 1, RngStream(0))

    def test_insufficient_instances_names_relation(self):
        ds = small_dataset(n_rel=2, per_rel=3)
        with pytest.raises(ValueError, match="relation"):
            sample_episode(ds, "train", 2, 2, 2, RngStream(0))

    def test_same_seed_identical(self):
        ds = small_dataset()
        a = sample_episode(ds, "train", 3, 2, 2, RngStream(42))
        b = sample_episode(ds, "train", 3, 2, 2, RngStream(42))
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_different_seed_differs(self):
        ds = small_dataset()
        a = sample_episode(ds, "train", 3, 2, 2, RngStream(1))
        b = sample_episode(ds, "train", 3, 2, 2, RngStream(2))
        assert pickle.dumps(a) != pickle.dumps(b)

    def test_zero_shot_episode_has_no_support(self):
        ds = small_dataset()
        ep = sample_episode(ds, "train", 3, 0, 2, RngStream(0))
        assert len(ep.support_y) == 0 and len(ep.query_y) == 6

    @pytest.mark.parametrize("shape, support, message", [
        ((0, 0, 0), False, "n_way must be >= 1, got 0"),  # the first field is named
        ((2, -1, 1), False, "k_shot must be >= 0, got -1"),
        ((2, 0, 0), False, "q_per must be >= 1, got 0"),
        ((2, 0, 1), True, "k_shot must be >= 1, got 0"),  # a chain needs a support set
    ])
    def test_episode_shape_check_names_one_field(self, shape, support, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_episode_shape(*shape, support=support)
        check_episode_shape(2, 1, 1, support=True)

    def test_disjointness_and_label_counts(self):
        ds = small_dataset(n_rel=8, per_rel=10)
        gen = np.random.default_rng(9)
        for case in range(120):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 4))
            q = int(gen.integers(1, 4))
            ep = sample_episode(ds, "train", n, k, q, RngStream(1000 + case))
            assert not row_set(ep.support_x) & row_set(ep.query_x)
            counts = np.bincount(ep.support_y, minlength=n)
            assert np.all(counts == k)
            assert set(ep.query_y.tolist()) <= set(range(n))
            assert len(ep.targets) == len(set(ep.targets)) == n


def fresh_generator_episode(ds, split, n_way, k_shot, q_per, rng):
    """The sampler's draws made with a new generator per episode, row by row."""
    gen = rng.generator()
    targets = gen.choice(np.asarray(ds.relations_in_split(split)), size=n_way, replace=False)
    sup, qry = [], []
    for rid in targets.tolist():
        rows = instances_of(ds, rid)
        picked = gen.choice(len(rows), size=k_shot + q_per, replace=False)
        sup += [rows[i] for i in picked[:k_shot]]
        qry += [rows[i] for i in picked[k_shot:]]
    return targets.tolist(), np.array(sup).reshape(-1, ds.d), np.array(qry).reshape(-1, ds.d)


def choice_loop_sample_episode(dataset, split, n_way, k_shot, q_per, rng):
    """sample_episode as it drew before the array pass: gen.choice per call."""
    batched = isinstance(rng.stream_id, np.ndarray)
    stream_ids = rng.ids.tolist()
    rel_ids = np.asarray(dataset.relations_in_split(split, need=n_way))
    philox = RekeyedPhilox(rng)
    counts = np.diff(dataset.offsets).tolist()
    need = k_shot + q_per
    targets = np.empty((len(stream_ids), n_way), dtype=int)
    picked = np.empty((len(stream_ids), n_way, need), dtype=int)
    for e, stream_id in enumerate(stream_ids):
        gen = philox.start(stream_id)
        targets[e] = gen.choice(rel_ids, size=n_way, replace=False)
        ids = targets[e].tolist()
        dataset.check_instances(ids, need)
        for n, rid in enumerate(ids):
            picked[e, n] = gen.choice(counts[rid], size=need, replace=False)
    picked += dataset.offsets[targets][..., None]
    order = np.concatenate([picked[..., :k_shot].ravel(), picked[..., k_shot:].ravel()])
    rows = dataset.rows[order]
    lead = (len(stream_ids),) if batched else ()
    split_at = len(stream_ids) * n_way * k_shot
    return Episode(
        targets=targets if batched else targets[0].tolist(),
        support_x=rows[:split_at].reshape(lead + (n_way * k_shot, dataset.d)),
        support_y=np.tile(np.repeat(np.arange(n_way), k_shot), lead + (1,)),
        query_x=rows[split_at:].reshape(lead + (n_way * q_per, dataset.d)),
        query_y=np.tile(np.repeat(np.arange(n_way), q_per), lead + (1,)),
    )


def episode_bytes(ep):
    return [np.asarray(a).tobytes() for a in (
        ep.targets, ep.support_x, ep.support_y, ep.query_x, ep.query_y
    )] + [np.shape(a) for a in (ep.support_x, ep.query_x)]


class TestBatchedSampleEpisode:
    def test_each_episode_is_its_one_stream_call(self):
        ds = small_dataset(n_rel=9, per_rel=8, d=4)
        gen = np.random.default_rng(21)
        for case in range(60):
            n = int(gen.integers(1, 10))
            k = int(gen.integers(0, 4))
            q = int(gen.integers(1, 9 - k))
            e = int(gen.integers(1, 6))
            batch = sample_episode(ds, "train", n, k, q, RngStream(case).child(np.arange(e), 0))
            assert batch.targets.shape == (e, n)
            assert batch.support_x.shape == (e, n * k, 4)
            assert batch.query_x.shape == (e, n * q, 4)
            assert batch.support_y.shape == (e, n * k) and batch.query_y.shape == (e, n * q)
            for i in range(e):
                stream = RngStream(case).child(i, 0)
                alone = sample_episode(ds, "train", n, k, q, stream)
                part = Episode(
                    batch.targets[i].tolist(), batch.support_x[i], batch.support_y[i],
                    batch.query_x[i], batch.query_y[i],
                )
                assert episode_bytes(part) == episode_bytes(alone)
                # the draws of a generator built for the stream alone
                targets, sup, qry = fresh_generator_episode(ds, "train", n, k, q, stream)
                assert alone.targets == targets
                assert alone.support_x.tobytes() == sup.tobytes()
                assert alone.query_x.tobytes() == qry.tobytes()

    def test_short_relation_of_the_third_episode_raises_its_own_message(self):
        ds = small_dataset(n_rel=6, per_rel=6)
        instances = [instances_of(ds, r) for r in range(ds.num_relations)]
        ds = dataset_of(ds.names, ds.splits, instances[:4] + [instances[4][:2]] + instances[5:])
        streams = [RngStream(3).child(i, 0) for i in range(40)]
        draws = [fresh_generator_episode(ds, "train", 2, 1, 1, s)[0] for s in streams]
        clear = [i for i, targets in enumerate(draws) if 4 not in targets]
        short = next(i for i, targets in enumerate(draws) if 4 in targets)
        batch = RngStream(3).child(np.array(clear[:2] + [short]), 0)
        with pytest.raises(ValueError) as alone:
            sample_episode(ds, "train", 2, 2, 1, streams[short])
        assert str(alone.value) == "relation 4 has 2 instances, need 3"
        with pytest.raises(ValueError, match=f"^{alone.value}$"):
            sample_episode(ds, "train", 2, 2, 1, batch)

    def test_episodes_equal_the_choice_loop_on_random_worlds(self):
        gen = np.random.default_rng(20)
        shapes = set()
        for world in range(2000):
            k = int(gen.integers(0, 4))
            q = int(gen.integers(1, 5))
            need = k + q
            n_rel = int(gen.integers(1, 13))
            # uneven counts; some relations hold exactly K+Q (Floyd's bound-0 draw),
            # and now and then one holds fewer
            counts = need + gen.choice([0, 0, 1, 2, 7, 30], size=n_rel)
            if world % 10 == 0:
                counts[gen.integers(n_rel)] = gen.integers(1, need + 1)
            ds = dataset_of(
                names=[f"r{r}" for r in range(n_rel)],
                splits=[("train", "test")[int(gen.integers(0, 4) == 0)] for _ in range(n_rel)],
                instances=[gen.standard_normal((int(c), 2)) for c in counts],
            )
            split = "train" if "train" in ds.splits else "test"
            size = len(ds.relations_in_split(split))
            n = size if world % 5 == 0 else int(gen.integers(1, size + 1))
            e = int(gen.integers(0, 31))  # 0: one stream, unbatched
            root = RngStream(int(gen.integers(0, 2**63)))
            rng = root.child(7) if e == 0 else root.child(np.arange(e), 0)
            try:
                expect = choice_loop_sample_episode(ds, split, n, k, q, rng)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    sample_episode(ds, split, n, k, q, rng)
                shapes.add("short")
                continue
            got = sample_episode(ds, split, n, k, q, rng)
            assert episode_bytes(got) == episode_bytes(expect)
            assert type(got.targets) is type(expect.targets)
            shapes.update(name for name, seen in [
                ("k=0", k == 0), ("n=split", n == size), ("unbatched", e == 0), ("E=30", e == 30),
                ("bound 0", (counts[np.asarray(got.targets)] == need).any()),
            ] if seen)
        assert shapes == {"short", "k=0", "n=split", "unbatched", "E=30", "bound 0"}

    def test_relation_numpy_tail_shuffles_is_redrawn_with_choice(self):
        # 201 of 10,001 instances: numpy shuffles a tail of range(10001), not Floyd's sample
        gen = np.random.default_rng(2)
        ds = dataset_of(
            names=["big", "small", "other"], splits=["train"] * 3,
            instances=[gen.standard_normal((10_001, 1)), gen.standard_normal((250, 1)),
                       gen.standard_normal((300, 1))],
        )
        streams = RngStream(9).child(np.arange(12), 0)
        got = sample_episode(ds, "train", 2, 1, 200, streams)
        assert (got.targets == 0).any(axis=1).any() and not (got.targets == 0).any(axis=1).all()
        expect = choice_loop_sample_episode(ds, "train", 2, 1, 200, streams)
        assert episode_bytes(got) == episode_bytes(expect)

    @pytest.mark.parametrize("episodes", [1, 7])
    def test_one_philox_per_call(self, monkeypatch, episodes):
        made = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            made.append(1)
            return philox(*args, **kwargs)

        ds = small_dataset()
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        sample_episode(ds, "train", 3, 1, 2, RngStream(5).child(np.arange(episodes)))
        sample_episode(ds, "train", 3, 1, 2, RngStream(6))
        assert len(made) == 2

    def test_instances_are_views_of_one_store(self, tmp_path):
        built = small_dataset(n_rel=4, per_rel=3)
        save_dataset(built, tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        for ds in (built, load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")):
            assert ds.rows.shape == (12, 3) and ds.rows.flags.c_contiguous
            assert ds.offsets.tolist() == [0, 3, 6, 9, 12]
            assert ds.rows.tobytes() == built.rows.tobytes()


class TestGenerateSynthetic:
    def test_zero_noise_collapses_to_center(self):
        ds, _ = generate_synthetic(4, 3, 2.0, 0.0, 5, RngStream(0))
        for r in range(4):
            rows = instances_of(ds, r)
            assert np.all(rows == rows[0])

    def test_separable_regime_nearest_center(self):
        ds, emb = generate_synthetic(
            10, 6, 10.0, 0.1, 8, RngStream(3), embed_noise=0.0
        )
        # brute-force nearest-center classification using the embeddings (= centers)
        correct = 0
        total = 0
        for r in range(10):
            for row in instances_of(ds, r):
                dists = np.sum((emb - row) ** 2, axis=1)
                correct += int(np.argmin(dists) == r)
                total += 1
        assert correct == total

    def test_fixed_seed_reproducible(self):
        a = generate_synthetic(5, 4, 1.0, 0.5, 3, RngStream(7))
        b = generate_synthetic(5, 4, 1.0, 0.5, 3, RngStream(7))
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_split_counts(self):
        ds, _ = generate_synthetic(25, 4, 1.0, 0.5, 3, RngStream(0), split_counts=(10, 5, 10))
        assert len(ds.relations_in_split("train")) == 10
        assert len(ds.relations_in_split("val")) == 5
        assert len(ds.relations_in_split("test")) == 10

    @pytest.mark.parametrize("shape", [
        (25, 16, 10.0, 1.0, 20),  # the README world
        (200, 64, 10.0, 1.0, 40),  # wide
        (4, 3, 2.0, 0.0, 1),  # one instance per relation, no noise
        (7, 5, 0.5, 3.0, 3),
    ])
    def test_rows_equal_the_per_relation_draws(self, shape):
        num_relations, d, cluster_scale, noise_scale, per_rel = shape
        ds, embeddings = generate_synthetic(*shape, RngStream(8), embed_noise=0.1)
        gen = RngStream(8).generator()
        centers = cluster_scale * gen.standard_normal((num_relations, d))
        rows = [centers[r] + noise_scale * gen.standard_normal((per_rel, d))
                for r in range(num_relations)]
        assert ds.rows.tobytes() == np.concatenate(rows).tobytes()
        assert ds.offsets.tolist() == list(range(0, num_relations * per_rel + 1, per_rel))
        expect = centers + 0.1 * gen.standard_normal((num_relations, d))
        assert embeddings.tobytes() == expect.tobytes()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 4, 1.0, 0.5, 3, RngStream(0))
        with pytest.raises(ValueError):
            generate_synthetic(5, 4, 1.0, 0.5, 3, RngStream(0), split_counts=(1, 1, 1))
        with pytest.raises(ValueError, match=r"split_counts \(25,\) must give 3 counts"):
            generate_synthetic(25, 4, 1.0, 0.5, 3, RngStream(0), split_counts=(25,))


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        ds, _ = generate_synthetic(6, 5, 2.0, 1.0, 4, RngStream(11))
        save_dataset(ds, tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        back = load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        assert back.names == ds.names and back.splits == ds.splits and back.d == ds.d
        for r in range(ds.num_relations):
            np.testing.assert_array_equal(instances_of(back, r), instances_of(ds, r))

    def test_rows_are_grouped_by_relation_in_file_order(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n1\trel1\ttest\n")
        (tmp_path / "inst.tsv").write_text("1\t1.0\n0\t2.0\n1\t3.0\n0\t4.0\n1\t5.0\n")
        ds = load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        assert ds.rows.ravel().tolist() == [2.0, 4.0, 1.0, 3.0, 5.0]
        assert ds.offsets.tolist() == [0, 2, 5]
        assert instances_of(ds, 1).ravel().tolist() == [1.0, 3.0, 5.0]

    def test_empty_instances_raises(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("")
        with pytest.raises(ValueError, match="no instances"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_single_instance_sets_dimension(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\t2.0\t3.0\t4.0\n")
        ds = load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        assert ds.d == 4

    def test_dimension_mismatch_reports_line(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\t2.0\n0\t1.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_line_numbers_count_blank_lines(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\n\n0\tabc\n")
        with pytest.raises(ValueError, match=r"inst.tsv:3: could not convert"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_first_nonfinite_line_of_the_file_is_reported(self, tmp_path):
        # relation 0 is checked first, but its bad row comes later in the file
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n1\trel1\ttest\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\n1\tnan\n0\tinf\n1\t2.0\n")
        with pytest.raises(ValueError, match=r"inst.tsv:2: non-finite feature"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_format_errors_come_before_id_errors(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("3\t1.0\n0\tnan\n")
        with pytest.raises(ValueError, match=r"inst.tsv:2: non-finite feature"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_unknown_relation_raises(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("3\t1.0\t2.0\n")
        with pytest.raises(ValueError, match="unknown relation id 3"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        # the first id outside the registry is named at its line
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n1\trel1\ttest\n")
        for rid in (2, -1, 99999999999999999999):
            (tmp_path / "inst.tsv").write_text(f"0\t1.0\n\n{rid}\t2.0\n1\t3.0\n5\t4.0\n")
            with pytest.raises(ValueError, match=f"inst.tsv:3: unknown relation id {rid}$"):
                load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_noncontiguous_ids_rejected(self, tmp_path):
        # a Dataset cannot hold a gap, so the registry reports it, before
        # the instance file is opened
        (tmp_path / "reg.tsv").write_text("0\ta\ttrain\n2\tb\ttrain\n")
        with pytest.raises(ValueError, match=r"reg.tsv: relation ids must be contiguous from 0$"):
            load_dataset(tmp_path / "missing.tsv", tmp_path / "reg.tsv")

    @pytest.mark.parametrize("edit", ["delete", -1, 99999999999999999999])
    def test_registry_that_loses_an_id_is_reported_at_the_registry(self, tmp_path, edit):
        ds, _ = generate_synthetic(5, 2, 2.0, 1.0, 3, RngStream(4), split_counts=(3, 1, 1))
        save_dataset(ds, tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        lines = (tmp_path / "reg.tsv").read_text().splitlines()
        lines[2:3] = [] if edit == "delete" else [f"{edit}\t" + lines[2].split("\t", 1)[1]]
        (tmp_path / "reg.tsv").write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(ValueError, match=r"reg.tsv: relation ids must be contiguous from 0$"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_registry_lines_in_any_order_load_the_same_dataset(self, tmp_path):
        ds, _ = generate_synthetic(5, 2, 2.0, 1.0, 3, RngStream(4), split_counts=(3, 1, 1))
        save_dataset(ds, tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        lines = (tmp_path / "reg.tsv").read_text().splitlines()
        (tmp_path / "shuffled.tsv").write_text("".join(f"{lines[i]}\n" for i in (3, 0, 4, 2, 1)))
        back = load_dataset(tmp_path / "inst.tsv", tmp_path / "shuffled.tsv")
        assert back.names == [f"relation_{r}" for r in range(5)]
        assert back.splits == ["train", "train", "train", "val", "test"]
        assert back.rows.tobytes() == ds.rows.tobytes()
        assert back.offsets.tolist() == ds.offsets.tolist()

    def test_duplicate_registry_id_raises(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n1\trel1\ttest\n0\tother\tval\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\n1\t2.0\n")
        with pytest.raises(ValueError, match=r"reg.tsv:3: duplicate relation id 0$"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_registered_relation_without_instances_raises(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n1\trel1\ttest\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\t2.0\n")
        with pytest.raises(ValueError, match="relation 1 has no instances"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")


# every character str.splitlines ends a line at, the "\r\n" pair, multi-byte
# characters of two, three and four bytes, and text
LINE_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029", "\xe9", "\u20ac", "\U0001f600", " ", "\t", "a", "7"]


def random_text(gen, pieces=24) -> str:
    return "".join(gen.choice(LINE_PIECES, size=gen.integers(0, pieces)).tolist())


def expected_lines(text: str) -> list[tuple[int, str]]:
    return [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]


class TestStreamedFiles:
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 2**16])
    def test_lines_equal_the_whole_text_split(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data, "BLOCK_BYTES", block)
        gen = np.random.default_rng(block)
        for _ in range(150):
            text = random_text(gen)
            (tmp_path / "f.txt").write_bytes(text.encode("utf-8"))
            assert list(read_lines(tmp_path / "f.txt")) == expected_lines(text), repr(text)

    @pytest.mark.parametrize("text, block", [
        ("ab\r\ncd\r\n", 3),  # "\r" ends the first block, "\n" starts the second
        ("ab\r\rcd", 3),  # a "\r" at the edge that no "\n" follows
        ("a\r", 2),  # a "\r" ending the last full block, then the end of the file
        ("x\u20acy\nz", 2),  # a three-byte character split over two edges
        ("\U0001f600\n\u2028q", 3),  # four bytes, then a three-byte line break at an edge
    ])
    def test_block_edges(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(data, "BLOCK_BYTES", block)
        (tmp_path / "f.txt").write_bytes(text.encode("utf-8"))
        assert list(read_lines(tmp_path / "f.txt")) == expected_lines(text)

    @pytest.mark.parametrize("block", [1, 3, 4, 2**16])
    def test_bad_byte_names_its_line_after_the_lines_before_it(
        self, tmp_path, monkeypatch, block
    ):
        monkeypatch.setattr(data, "BLOCK_BYTES", block)
        gen = np.random.default_rng(100 + block)
        path = tmp_path / "f.txt"
        for _ in range(60):
            text = random_text(gen)
            at = int(gen.integers(0, len(text) + 1))  # a character boundary
            before = text[:at].encode("utf-8")
            path.write_bytes(before + b"\xff" + text[at:].encode("utf-8"))
            lineno = len((text[:at] + "x").splitlines())  # a break just before counts
            got = []
            with pytest.raises(ValueError) as err:
                got.extend(read_lines(path))
            assert str(err.value) == f"{path}:{lineno}: not UTF-8 text"
            assert got == [(n, line) for n, line in expected_lines(text[:at]) if n < lineno]

    @pytest.mark.parametrize("block", [1, 2, 3, 2**16])
    def test_a_leading_byte_order_mark_is_dropped_once(self, tmp_path, monkeypatch, block):
        # an editor may open a UTF-8 file with the mark; it is no text of the
        # first line, and a second mark, or one further on, is text
        monkeypatch.setattr(data, "BLOCK_BYTES", block)
        path = tmp_path / "f.txt"
        for text in ("a\tb\nc", "\ufeffa\n", "\n\ufeffa", "\n\n7", "\xe9", ""):
            path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            assert list(read_lines(path)) == expected_lines(text), repr(text)

    def test_character_cut_by_the_end_of_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_BYTES", 2)
        (tmp_path / "f.txt").write_bytes(b"a\nb\r\n\xe2\x82")
        with pytest.raises(ValueError, match=r"f.txt:3: not UTF-8 text$"):
            list(read_lines(tmp_path / "f.txt"))

    def test_a_missing_file_fails_at_the_call(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_lines(tmp_path / "missing.txt")
        with pytest.raises(IsADirectoryError):
            read_lines(tmp_path)

    def test_file_is_closed_when_the_consumer_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_BYTES", 4)
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(data, "open", recording_open, raising=False)
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\n0\t2.0\n0\tx\n" + "0\t3.0\n" * 50)
        with pytest.raises(ValueError, match=r"inst.tsv:3: could not convert"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        assert len(opened) == 2 and all(f.closed for f in opened)

        def first_line(path):
            for _, line in read_lines(path):
                raise RuntimeError(line)

        with pytest.raises(RuntimeError, match="0\t1.0"):
            first_line(tmp_path / "inst.tsv")
        assert len(opened) == 3 and opened[-1].closed

    def test_load_holds_the_matrix_and_one_block(self, tmp_path):
        # a reader that held the text and every line peaked at about 5x the
        # matrix, a load that copied the read matrix to group it at 2.2x, a
        # reader that joined a readlines list and held a block's lines while
        # it read the next at 1.41x, and one that reads one bytes object per
        # block and frees its lines first at 1.34x
        ds, _ = generate_synthetic(50, 64, 10.0, 1.0, 40, RngStream(4))
        save_dataset(ds, tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        tracemalloc.start()
        try:
            back = load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * back.rows.nbytes + 2 * data.BLOCK_BYTES

    # 2: the least buffer a binary file takes (a buffering of 1 asks for line buffering)
    @pytest.mark.parametrize("block", [2, 7, 64, 2**16])
    def test_writers_equal_the_joined_text(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data, "BLOCK_BYTES", block)
        gen = np.random.default_rng(200 + block)
        path = tmp_path / "out.txt"
        for _ in range(40):
            lines = [random_text(gen, 6) for _ in range(gen.integers(0, 12))]
            write_lines(path, iter(lines))
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
            rows = gen.standard_normal((int(gen.integers(0, 9)), int(gen.integers(1, 5))))
            write_rows(path, enumerate(rows))
            joined = "\n".join(f"{i}\t" + "\t".join(map(repr, row.tolist()))
                               for i, row in enumerate(rows))
            assert path.read_bytes() == (joined + "\n").encode("utf-8")


class TestDatasetInvariants:
    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            dataset_of(
                names=["a"],
                splits=["dev"],
                instances=[np.zeros((1, 2))],
            )

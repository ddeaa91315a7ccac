"""Tests for dataset handling and episodic sampling."""

import pickle

import numpy as np
import pytest

from protograph.data import (
    Dataset,
    generate_synthetic,
    load_dataset,
    sample_episode,
    save_dataset,
)
from protograph.numerics import RngStream


def small_dataset(n_rel=5, per_rel=6, d=3, seed=0, split="train"):
    gen = np.random.default_rng(seed)
    return Dataset(
        names={r: f"rel{r}" for r in range(n_rel)},
        splits={r: split for r in range(n_rel)},
        instances={r: gen.standard_normal((per_rel, d)) for r in range(n_rel)},
        d=d,
    )


class TestSampleEpisode:
    def test_exhaustive_partition(self):
        ds = small_dataset(n_rel=5, per_rel=6)
        ep = sample_episode(ds, "train", 5, 1, 5, RngStream(0))
        assert len(ep.support_y) == 5 and len(ep.query_y) == 25
        keys = ep.support_keys + ep.query_keys
        assert len(set(keys)) == 30  # no instance repeated

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

    def test_disjointness_and_label_counts(self):
        ds = small_dataset(n_rel=8, per_rel=10)
        gen = np.random.default_rng(9)
        for case in range(120):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 4))
            q = int(gen.integers(1, 4))
            ep = sample_episode(ds, "train", n, k, q, RngStream(1000 + case))
            assert not set(ep.support_keys) & set(ep.query_keys)
            counts = np.bincount(ep.support_y, minlength=n)
            assert np.all(counts == k)
            assert set(ep.query_y.tolist()) <= set(range(n))
            assert len(ep.targets) == len(set(ep.targets)) == n


class TestGenerateSynthetic:
    def test_zero_noise_collapses_to_center(self):
        ds, _ = generate_synthetic(4, 3, 2.0, 0.0, 5, RngStream(0))
        for r in range(4):
            rows = ds.instances[r]
            assert np.all(rows == rows[0])

    def test_separable_regime_nearest_center(self):
        ds, emb = generate_synthetic(
            10, 6, 10.0, 0.1, 8, RngStream(3), embed_noise=0.0
        )
        # brute-force nearest-center classification using the embeddings (= centers)
        correct = 0
        total = 0
        for r in range(10):
            for row in ds.instances[r]:
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

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 4, 1.0, 0.5, 3, RngStream(0))
        with pytest.raises(ValueError):
            generate_synthetic(5, 4, 1.0, 0.5, 3, RngStream(0), split_counts=(1, 1, 1))


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        ds, _ = generate_synthetic(6, 5, 2.0, 1.0, 4, RngStream(11))
        save_dataset(ds, tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        back = load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")
        assert back.names == ds.names and back.splits == ds.splits and back.d == ds.d
        for r in ds.names:
            np.testing.assert_array_equal(back.instances[r], ds.instances[r])

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

    def test_unknown_relation_raises(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n")
        (tmp_path / "inst.tsv").write_text("3\t1.0\t2.0\n")
        with pytest.raises(ValueError, match="unknown relation id 3"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")

    def test_registered_relation_without_instances_raises(self, tmp_path):
        (tmp_path / "reg.tsv").write_text("0\trel0\ttrain\n1\trel1\ttest\n")
        (tmp_path / "inst.tsv").write_text("0\t1.0\t2.0\n")
        with pytest.raises(ValueError, match="relation 1 has no instances"):
            load_dataset(tmp_path / "inst.tsv", tmp_path / "reg.tsv")


class TestDatasetInvariants:
    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            Dataset(
                names={0: "a", 2: "b"},
                splits={0: "train", 2: "train"},
                instances={0: np.zeros((1, 2)), 2: np.zeros((1, 2))},
                d=2,
            )

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            Dataset(
                names={0: "a"},
                splits={0: "dev"},
                instances={0: np.zeros((1, 2))},
                d=2,
            )

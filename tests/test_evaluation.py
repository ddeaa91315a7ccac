"""Tests for evaluation protocols and report emission."""

import json

import numpy as np
import pytest

from protograph.data import generate_synthetic
from protograph.evaluation import (
    EvalReport,
    emit_report,
    evaluate_fewshot,
    evaluate_zeroshot,
    parse_report_csv,
    sensitivity_sweep,
)
from protograph.graph import build_knn_graph
from protograph.likelihood import EncoderParams
from protograph.numerics import RngStream
from protograph.prior import GnnParams
from protograph.sampler import SamplerConfig
from protograph.trainer import ModelParams, TrainConfig, train


def identity_params(d):
    return ModelParams(
        gnn=GnnParams(weight=np.eye(d), bias=np.zeros(d)),
        encoder=EncoderParams(mode="identity"),
    )


@pytest.fixture(scope="module")
def informative_world():
    # embeddings equal the class centers exactly: the graph carries real signal
    ds, emb = generate_synthetic(
        20, 8, 10.0, 1.0, 12, RngStream(50), embed_noise=0.0, split_counts=(8, 4, 8)
    )
    return ds, build_knn_graph(emb, 6), emb


@pytest.fixture(scope="module")
def uninformative_world():
    # features carry almost no class signal: noise dominates the clusters
    ds, _ = generate_synthetic(
        16, 6, 0.05, 5.0, 12, RngStream(51), split_counts=(6, 4, 6)
    )
    gen = RngStream(52).generator()
    emb = gen.standard_normal((16, 6))  # random embeddings, unrelated to classes
    return ds, build_knn_graph(emb, 6)


class TestEvaluateFewshot:
    def test_chance_level_with_shuffled_labels(self, uninformative_world):
        # shuffling the query labels per episode makes predictions independent
        # of the truth by construction, so accuracy is Bernoulli(1/N)
        from protograph.data import sample_episode
        from protograph.prior import summary_rows
        from protograph.sampler import posterior_predict

        ds, graph = uninformative_world
        params = identity_params(6)
        shuffler = RngStream(600).generator()
        hits, total = 0, 0
        for i in range(500):
            ep = sample_episode(ds, "test", 5, 1, 5, RngStream(601).child(i))
            summaries = summary_rows(graph, params.gnn, ep.targets)
            _, preds = posterior_predict(
                ep.support_x, ep.support_y, ep.targets, ep.query_x, summaries,
                SamplerConfig(chains=4, steps=2), params.encoder,
                RngStream(602).child(i),
            )
            hits += int(np.sum(preds == shuffler.permutation(ep.query_y)))
            total += len(ep.query_y)
        acc = hits / total
        sigma = np.sqrt(0.2 * 0.8 / total)
        assert abs(acc - 0.2) <= 3 * sigma

    def test_separable_trained_reaches_perfect_accuracy(self):
        ds, emb = generate_synthetic(
            25, 16, 10.0, 1.0, 20, RngStream(100), split_counts=(10, 5, 10)
        )
        graph = build_knn_graph(emb, 10)
        params, _ = train(ds, graph, TrainConfig(episodes_total=120, seed=101, eval_every=0))
        rep = evaluate_fewshot(
            ds, "test", graph, params, 5, 1, 5, 100, SamplerConfig(), RngStream(102)
        )
        assert rep.accuracy == 1.0

    def test_5way_and_10way_1shot_protocols_run(self):
        ds, emb = generate_synthetic(
            14, 6, 4.0, 1.0, 8, RngStream(53), split_counts=(2, 2, 10)
        )
        graph = build_knn_graph(emb, 5)
        for n_way in (5, 10):
            rep = evaluate_fewshot(
                ds, "test", graph, identity_params(6), n_way, 1, 2, 10,
                SamplerConfig(chains=2, steps=2), RngStream(61),
            )
            assert rep.episodes == 10 and rep.n_way == n_way

    def test_threads_do_not_change_results(self, informative_world):
        ds, graph, _ = informative_world
        args = (ds, "test", graph, identity_params(8), 5, 1, 3, 20,
                SamplerConfig(chains=2, steps=2), RngStream(62))
        a = evaluate_fewshot(*args, threads=1)
        b = evaluate_fewshot(*args, threads=4)
        assert a.per_episode == b.per_episode


class TestEvaluateZeroshot:
    def test_chance_level_with_random_embeddings(self, uninformative_world):
        # random embeddings carry no class signal; labels are shuffled per
        # episode so the comparison is exactly Bernoulli(1/N)
        from protograph.data import sample_episode
        from protograph.likelihood import class_log_probs, encode_batch
        from protograph.prior import summary_rows

        ds, graph = uninformative_world
        params = identity_params(6)
        shuffler = RngStream(630).generator()
        hits, total = 0, 0
        for i in range(500):
            ep = sample_episode(ds, "test", 5, 0, 5, RngStream(631).child(i))
            prototypes = summary_rows(graph, params.gnn, ep.targets)
            enc = encode_batch(ep.query_x, params.encoder)
            preds = np.array([
                int(np.argmax(class_log_probs(enc[q], prototypes, "dot", 10.0)))
                for q in range(enc.shape[0])
            ])
            hits += int(np.sum(preds == shuffler.permutation(ep.query_y)))
            total += len(ep.query_y)
        acc = hits / total
        sigma = np.sqrt(0.2 * 0.8 / total)
        assert abs(acc - 0.2) <= 3 * sigma

    def test_informative_graph_beats_chance(self, informative_world):
        # embeddings equal the class centers: zero-shot must clear chance by
        # at least three confidence half-widths
        ds, graph, _ = informative_world
        rep = evaluate_zeroshot(
            ds, "test", graph, identity_params(8), 5, 5, 200, RngStream(64)
        )
        assert rep.accuracy - 0.2 >= 3 * rep.ci95

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_matches_per_query_log_prob_argmax(self, informative_world, measure):
        # the batched prediction picks, per query, the class of highest log
        # probability, ties to the lowest relation id, as a per-query loop does
        from protograph.data import sample_episode
        from protograph.likelihood import class_log_probs
        from protograph.prior import summary_rows

        ds, graph, _ = informative_world
        params = identity_params(8)
        rep = evaluate_zeroshot(
            ds, "test", graph, params, 5, 4, 40, RngStream(68), measure=measure, tau=3.0
        )
        for i, acc in enumerate(rep.per_episode):
            ep = sample_episode(ds, "test", 5, 0, 4, RngStream(68).child(i, 0))
            prototypes = summary_rows(graph, params.gnn, ep.targets)
            key = np.asarray(ep.targets)
            correct = 0
            for q, x in enumerate(ep.query_x):
                log_p = class_log_probs(x, prototypes, measure, 3.0)
                best = np.flatnonzero(log_p == log_p.max())
                correct += int(best[np.argmin(key[best])] == ep.query_y[q])
            assert acc == correct / len(ep.query_y)

    def test_no_k_parameter_and_no_sampler_fields(self, informative_world):
        ds, graph, _ = informative_world
        rep = evaluate_zeroshot(
            ds, "test", graph, identity_params(8), 5, 2, 5, RngStream(65)
        )
        assert rep.k_shot == 0 and rep.chains == 0 and rep.steps == 0


class TestSensitivitySweep:
    def test_zero_steps_equals_init_only_variant(self, informative_world):
        ds, graph, _ = informative_world
        base = SamplerConfig(chains=3, steps=5)
        sweep = sensitivity_sweep(
            "M", [0], ds, "test", graph, identity_params(8), 5, 1, 3, 15,
            base, RngStream(66),
        )
        direct = evaluate_fewshot(
            ds, "test", graph, identity_params(8), 5, 1, 3, 15,
            SamplerConfig(chains=3, steps=0), RngStream(66),
        )
        assert sweep[0].per_episode == direct.per_episode

    def test_single_value_single_report(self, informative_world):
        ds, graph, _ = informative_world
        reports = sensitivity_sweep(
            "L", [4], ds, "test", graph, identity_params(8), 5, 1, 2, 5,
            SamplerConfig(), RngStream(67),
        )
        assert len(reports) == 1 and reports[0].chains == 4

    def test_bad_axis(self, informative_world):
        ds, graph, _ = informative_world
        with pytest.raises(ValueError, match="axis"):
            sensitivity_sweep(
                "Q", [1], ds, "test", graph, identity_params(8), 5, 1, 2, 5,
                SamplerConfig(), RngStream(0),
            )

    def test_empty_values(self, informative_world):
        ds, graph, _ = informative_world
        with pytest.raises(ValueError, match="values"):
            sensitivity_sweep(
                "L", [], ds, "test", graph, identity_params(8), 5, 1, 2, 5,
                SamplerConfig(), RngStream(0),
            )


def sample_report(seed=0):
    return EvalReport(
        setting="fewshot", n_way=5, k_shot=1, chains=10, steps=5, step_size=0.1,
        alpha=1.0, beta=1.0, measure="dot", episodes=100,
        accuracy=0.912345678, ci95=0.0123456789, seed=seed,
    )


class TestEmitReport:
    def test_empty_raises(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to emit"):
            emit_report([], tmp_path / "r.csv")

    def test_csv_round_trip_six_decimals(self, tmp_path):
        emit_report([sample_report()], tmp_path / "r.csv", "csv")
        rows = parse_report_csv(tmp_path / "r.csv")
        assert rows[0]["accuracy"] == pytest.approx(0.912346, abs=1e-12)
        assert rows[0]["ci95"] == pytest.approx(0.012346, abs=1e-12)
        assert rows[0]["N"] == 5 and rows[0]["seed"] == 0

    def test_identical_runs_byte_identical(self, tmp_path):
        emit_report([sample_report(), sample_report(seed=1)], tmp_path / "a.csv", "csv")
        emit_report([sample_report(), sample_report(seed=1)], tmp_path / "b.csv", "csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_mirrors_csv_fields(self, tmp_path):
        emit_report([sample_report()], tmp_path / "r.json", "json")
        data = json.loads((tmp_path / "r.json").read_text())
        csv_row = sample_report().row()
        assert set(data[0]) == set(csv_row)
        assert data[0]["accuracy"] == pytest.approx(0.912346, abs=1e-12)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report([sample_report()], tmp_path / "r.xml", "xml")

    def test_unwritable_path_reports_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_report([sample_report()], tmp_path / "no" / "such" / "r.csv", "csv")

"""Tests for evaluation protocols and report emission."""

import csv
import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest

from protograph import evaluation
from protograph.data import generate_synthetic
from protograph.evaluation import (
    REPORT_COLUMNS,
    EvalReport,
    emit_report,
    episode_outcomes,
    evaluate_fewshot,
    evaluate_zeroshot,
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
                ep, summaries, SamplerConfig(chains=4, steps=2), RngStream(602).child(i),
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
            enc = encode_batch(ep.query_x)
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

    @pytest.mark.parametrize("option, message", [
        ({"tau": 0.0}, "tau must be positive"),
        ({"tau": float("nan")}, "tau must be finite, got nan"),
        ({"measure": "cosine"}, "unknown measure 'cosine'"),
    ])
    def test_sampler_config_checks_measure_and_tau_before_the_first_draw(
        self, informative_world, monkeypatch, option, message
    ):
        ds, graph, _ = informative_world
        drawn = []
        monkeypatch.setattr(evaluation, "sample_episode", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_zeroshot(ds, "test", graph, identity_params(8), 5, 2, 3, RngStream(0), **option)
        assert drawn == []

    def test_episode_outcomes_takes_one_required_sampler_config(self):
        # zero-shot has no measure or tau of its own: episode_outcomes scores
        # it with the config's (test_matches_per_query_log_prob_argmax)
        params = inspect.signature(episode_outcomes).parameters
        assert not {"measure", "tau"} & params.keys()
        assert params["config"].default is inspect.Parameter.empty


def cap_elements(batch, measure, chains, n_way, rows, d):
    """BATCH_ELEMENTS that makes batches of ``batch`` episodes, by the cap's
    documented rule (E*L*N*max(S, d) dot, E*L*S*N*d euclidean floats)."""
    per_episode = chains * n_way * (rows * d if measure == "euclidean" else max(rows, d))
    return batch * per_episode


BATCH_SETTINGS = {
    "dot": SamplerConfig(),
    "euclidean": SamplerConfig(measure="euclidean"),
    "no-noise": SamplerConfig(noise_enabled=False),
    "no-graph-prior": SamplerConfig(graph_prior=False),
    "zero-shot-dot": None,
    "zero-shot-euclidean": None,
}


class TestBatchSize:
    """Evaluation runs its episodes in batches; the outputs must not depend
    on the batch size."""

    @pytest.mark.parametrize("setting", list(BATCH_SETTINGS))
    def test_batch_size_does_not_change_results(
        self, informative_world, monkeypatch, tmp_path, setting
    ):
        ds, graph, _ = informative_world
        cfg, params = BATCH_SETTINGS[setting], identity_params(8)
        measure = "euclidean" if setting.endswith("euclidean") else "dot"
        sizes = []

        def recording(name):
            call = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                # batch size, and the global index of its first episode that
                # a diverging chain reports
                if name == "posterior_predict":
                    sizes.append((len(args[0].targets), kwargs["first_episode"]))
                else:
                    sizes.append((len(args[4]), None))
                return call(*args, **kwargs)

            return wrapper

        def run(batch):
            sizes.clear()
            if batch is not None:
                rows = 5 * (1 if cfg else 3)
                chains = cfg.chains if cfg else 1
                monkeypatch.setattr(
                    evaluation, "BATCH_ELEMENTS", cap_elements(batch, measure, chains, 5, rows, 8)
                )
            with monkeypatch.context() as patch:
                for name in ("posterior_predict", "predict_queries"):
                    patch.setattr(evaluation, name, recording(name))
                if cfg is None:
                    rep = evaluate_zeroshot(ds, "test", graph, params, 5, 3, 10, RngStream(71),
                                            measure=measure)
                else:
                    rep = evaluate_fewshot(ds, "test", graph, params, 5, 1, 3, 10, cfg,
                                           RngStream(71))
            path = tmp_path / f"{batch}.csv"
            emit_report([rep], path)
            return rep.per_episode, path.read_bytes(), list(sizes)

        default = run(None)
        one, three = run(1), run(3)
        first = [None] * 4 if cfg is None else [0, 3, 6, 9]
        assert [size for size, _ in one[2]] == [1] * 10
        assert three[2] == list(zip([3, 3, 3, 1], first))
        assert default[2][0][0] > 3
        assert one[:2] == default[:2] and three[:2] == default[:2]

    def test_cap_at_the_benchmark_shapes(self):
        from protograph.evaluation import _batch_size

        # README protocol: L=10, 5-way 1-shot, d=16
        assert _batch_size("dot", 10, 5, 5, 16) == 40
        assert _batch_size("euclidean", 10, 5, 5, 16) == 8
        # 20-way 5-shot at d=64: one episode at a time, as before batching
        assert _batch_size("dot", 10, 20, 100, 64) == 1
        assert _batch_size("euclidean", 10, 20, 100, 64) == 1

    @pytest.mark.parametrize("measure, chains", [("dot", 2**24), ("euclidean", 2**22)])
    def test_one_episode_at_the_float_cap_and_none_past_it(self, measure, chains):
        # 2-way 2-shot at d=4: the chain count whose step holds exactly
        # EPISODE_FLOATS_CAP floats runs alone; one chain more fails, before
        # anything of that size is allocated
        from protograph.evaluation import EPISODE_FLOATS_CAP, _batch_size
        from protograph.likelihood import chain_step_floats

        assert chain_step_floats(measure, chains, 2, 4, 4) == EPISODE_FLOATS_CAP == 2**27
        assert _batch_size(measure, chains, 2, 4, 4) == 1
        floats = chain_step_floats(measure, chains + 1, 2, 4, 4)
        with pytest.raises(ValueError, match=(
            rf"^chains {chains + 1} is too many: one episode's chain step would hold "
            rf"{floats} floats, more than {2**27}$"
        )):
            _batch_size(measure, chains + 1, 2, 4, 4)

    def test_zero_shot_runs_one_chain_whatever_the_chain_count(self, informative_world):
        # k_shot 0 scores the queries against the summaries alone: a chain
        # count the cap refuses for a few-shot episode does not size its batch
        ds, graph, _ = informative_world
        outcomes = [
            episode_outcomes(ds, "test", graph, identity_params(8), 5, 0, 5, 6,
                             RngStream(8), SamplerConfig(chains=chains))
            for chains in (10, 10**8)
        ]
        assert outcomes[0] == outcomes[1] and len(outcomes[0]) == 6
        with pytest.raises(ValueError, match="^chains 100000000 is too many"):
            episode_outcomes(ds, "test", graph, identity_params(8), 5, 1, 5, 6,
                             RngStream(8), SamplerConfig(chains=10**8))

    def test_readme_batch_peaks_within_six_largest_step_arrays(self):
        # the chain writes the warm start once into its own state and updates
        # it and one gradient buffer in place, so a batch twice the old size
        # does not double the memory it holds, and each softmax normalises
        # its own logits' array (measured: 5.46 units; 5.77 with a fresh
        # array per softmax)
        from protograph.data import sample_episode
        from protograph.evaluation import _batch_size
        from protograph.likelihood import chain_step_floats
        from protograph.prior import summary_rows
        from protograph.sampler import posterior_predict

        ds, emb = generate_synthetic(25, 16, 10.0, 1.0, 20, RngStream(5),
                                     split_counts=(10, 5, 10))
        params, cfg = identity_params(16), SamplerConfig()
        size = _batch_size("dot", cfg.chains, 5, 5, 16)
        assert size == 40
        ids = np.arange(size)
        batch = sample_episode(ds, "test", 5, 1, 5, RngStream(3).child(ids, 0))
        summaries = summary_rows(build_knn_graph(emb, 10), params.gnn, batch.targets)
        noise_rng = RngStream(3).child(ids, 1)
        posterior_predict(batch, summaries, cfg, noise_rng)  # warm-up
        tracemalloc.start()
        try:
            posterior_predict(batch, summaries, cfg, noise_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = size * chain_step_floats("dot", cfg.chains, 5, 5, 16) * 8  # bytes
        assert peak <= 5.5 * largest, peak / largest


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


def evaluate(mode, ds, graph, params):
    """A short few-shot or zero-shot evaluation of the test split."""
    if mode == "fewshot":
        return evaluate_fewshot(
            ds, "test", graph, params, 3, 1, 2, 3, SamplerConfig(chains=2, steps=1), RngStream(0)
        )
    return evaluate_zeroshot(ds, "test", graph, params, 3, 2, 3, RngStream(0))


@pytest.mark.parametrize("mode", ["fewshot", "zeroshot"])
def test_target_outside_the_graph_is_named(informative_world, mode):
    # a graph over the first 12 relations: every test relation (12-19) is missing
    ds, _, emb = informative_world
    small = build_knn_graph(emb[:12], 6)
    with pytest.raises(ValueError, match=r"^relation 12 of split 'test' is not in the graph$"):
        evaluate(mode, ds, small, identity_params(8))


@pytest.mark.parametrize("mode", ["fewshot", "zeroshot"])
def test_graph_missing_a_split_relation_fails_before_the_first_batch(monkeypatch, mode):
    # relations 0-5 are train, 6-8 val and 9-11 test; an 11-node graph lacks
    # relation 11, which a short run might never draw
    ds, emb = generate_synthetic(12, 6, 4.0, 1.5, 10, RngStream(200), split_counts=(6, 3, 3))
    small = build_knn_graph(emb[:11], 2)

    def unreachable(*args):
        raise AssertionError("an episode was drawn")

    monkeypatch.setattr(evaluation, "sample_episode", unreachable)
    with pytest.raises(ValueError, match=r"^relation 11 of split 'test' is not in the graph$"):
        evaluate(mode, ds, small, identity_params(6))
    monkeypatch.undo()
    # with every relation in the graph the same run succeeds
    assert evaluate(mode, ds, build_knn_graph(emb, 2), identity_params(6)).episodes == 3


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
        with open(tmp_path / "r.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == list(REPORT_COLUMNS)
        assert rows[0]["accuracy"] == "0.912346"
        assert rows[0]["ci95"] == "0.012346"
        assert rows[0]["N"] == "5" and rows[0]["seed"] == "0"

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

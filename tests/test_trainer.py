"""Tests for the episode objective, its reverse pass, and the training loop."""

from pathlib import Path

import numpy as np
import pytest

from protograph import evaluation, gradcheck, trainer
from protograph.data import Episode, generate_synthetic
from protograph.gradcheck import (
    check_episode_objective, parameter_gradient_error, random_episode,
)
from protograph.graph import build_knn_graph
from protograph.likelihood import EncoderParams
from protograph.numerics import RngStream, chain_noise
from protograph.prior import GnnParams
from protograph.sampler import SamplerConfig
from protograph.trainer import (
    ModelParams,
    TrainConfig,
    episode_loss,
    episode_objective_and_grads,
    init_params,
    param_arrays,
    read_checkpoint,
    train,
    write_checkpoint,
    write_training_log,
)


def tiny_world(seed=0, d=3, n_rel=6):
    gen = RngStream(seed).generator()
    emb = gen.standard_normal((n_rel, d))
    graph = build_knn_graph(emb, 2)
    params = init_params(d, d, RngStream(seed + 1))
    return gen, graph, params


def assert_same_params(a, b):
    """The two models hold the same named arrays, bit for bit."""
    assert list(param_arrays(a)) == list(param_arrays(b))
    for name, arr in param_arrays(b).items():
        np.testing.assert_array_equal(param_arrays(a)[name], arr)


def is_value_row(line):
    try:
        [float(v) for v in line.split(" ")]
    except ValueError:
        return False
    return True


class TestEpisodeObjective:
    def test_single_class_zero_loss_zero_grads(self):
        gen, graph, params = tiny_world()
        ep = Episode(
            targets=[2],
            support_x=gen.standard_normal((1, 3)),
            support_y=np.zeros(1, dtype=int),
            query_x=gen.standard_normal((3, 3)),
            query_y=np.zeros(3, dtype=int),
        )
        loss, grads = episode_objective_and_grads(
            ep, graph, params, SamplerConfig(chains=2, steps=2), RngStream(5)
        )
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    def test_gradients_match_oracle(self, measure):
        err = check_episode_objective(
            seed=3, case=0, d=3, n_way=2, k_shot=1, q_per=2,
            chains=2, steps=2, measure=measure, tau=10.0,
        )
        assert err < 1e-4

    def test_gradients_match_oracle_decayed(self):
        # the remaining gradient path: a decaying step-size schedule
        gen = RngStream(31).generator()
        d = 3
        emb = gen.standard_normal((6, d))
        graph = build_knn_graph(emb, 2)
        params = init_params(d, d, RngStream(32))
        ep = random_episode(gen, 2, 1, 2, d, 6)
        cfg = SamplerConfig(chains=2, steps=3, step_decay=0.7, measure="euclidean")
        assert parameter_gradient_error(ep, graph, params, cfg, RngStream(33)) < 1e-4

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("likelihood_weight, prior_weight, graph_prior", [
        (0.5, 2.0, True),
        (0.0, 1.0, True),  # no support probabilities recorded
        (1.0, 1.0, False),
    ])
    def test_gradients_match_oracle_ablation_settings(
        self, measure, likelihood_weight, prior_weight, graph_prior
    ):
        gen, graph, params = tiny_world(seed=7)
        ep = random_episode(gen, 2, 2, 2, 3, 6)
        cfg = SamplerConfig(
            chains=2, steps=2, measure=measure, likelihood_weight=likelihood_weight,
            prior_weight=prior_weight, graph_prior=graph_prior,
        )
        assert parameter_gradient_error(ep, graph, params, cfg, RngStream(34)) < 1e-8

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("likelihood_weight, step_decay, graph_prior", [
        (1.0, 0.0, True),
        (1.0, 0.7, True),
        (0.0, 0.0, True),  # no support probabilities recorded
        (1.0, 0.0, False),
    ])
    def test_identity_encoder_gradients_match_oracle(
        self, measure, likelihood_weight, step_decay, graph_prior
    ):
        # a 3-way shape at a second seed: the graph layer is the whole model
        gen, graph, _ = tiny_world(seed=8)
        params = init_params(3, 3, RngStream(9))
        assert list(param_arrays(params)) == ["gnn.weight", "gnn.bias"]
        ep = random_episode(gen, 3, 2, 2, 3, 6)
        cfg = SamplerConfig(
            chains=2, steps=3, measure=measure, likelihood_weight=likelihood_weight,
            step_decay=step_decay, graph_prior=graph_prior,
        )
        assert parameter_gradient_error(ep, graph, params, cfg, RngStream(35)) < 1e-8
        if not graph_prior:
            _, grads = episode_objective_and_grads(ep, graph, params, cfg, RngStream(35))
            assert not any(np.any(g) for g in grads.values())

    def test_oracle_restores_the_parameters_when_it_raises(self, monkeypatch):
        gen, graph, params = tiny_world(seed=5)
        ep = random_episode(gen, 2, 1, 2, 3, 6)
        before = {name: arr.copy() for name, arr in param_arrays(params).items()}
        calls = []

        def fail_on_the_third_bias_evaluation(*args):
            calls.append(args)
            if len(calls) == 2 * 9 + 3:  # after gnn.weight's 9 entries, two points each
                assert params.gnn.bias[1] == before["gnn.bias"][1] + 1e-5
                raise RuntimeError("oracle failed")
            return episode_loss(*args)

        monkeypatch.setattr(gradcheck, "episode_loss", fail_on_the_third_bias_evaluation)
        with pytest.raises(RuntimeError, match="^oracle failed$"):
            parameter_gradient_error(ep, graph, params, SamplerConfig(chains=2, steps=2),
                                     RngStream(3))
        assert len(calls) == 2 * 9 + 3
        for name, arr in param_arrays(params).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_duplicated_queries_double_the_loss(self):
        gen, graph, params = tiny_world(seed=2)
        ep = random_episode(gen, 3, 1, 2, 3, 6)
        cfg = SamplerConfig(chains=2, steps=2)
        base = episode_loss(ep, graph, params, cfg, RngStream(9))
        dup = Episode(
            targets=ep.targets,
            support_x=ep.support_x,
            support_y=ep.support_y,
            query_x=np.vstack([ep.query_x, ep.query_x]),
            query_y=np.concatenate([ep.query_y, ep.query_y]),
        )
        doubled = episode_loss(dup, graph, params, cfg, RngStream(9))
        assert doubled == pytest.approx(2.0 * base, abs=1e-12)

    def test_target_permutation_invariance(self):
        gen, graph, params = tiny_world(seed=4)
        cfg = SamplerConfig(chains=3, steps=3, noise_enabled=True)
        for case in range(100):
            ep = random_episode(gen, 3, 2, 2, 3, 6)
            perm = gen.permutation(3)
            inv = np.argsort(perm)
            ep_p = Episode(
                targets=[ep.targets[p] for p in perm],
                support_x=ep.support_x,
                support_y=inv[ep.support_y],
                query_x=ep.query_x,
                query_y=inv[ep.query_y],
            )
            rng = RngStream(100 + case)
            a = episode_loss(ep, graph, params, cfg, rng)
            b = episode_loss(ep_p, graph, params, cfg, rng)
            assert abs(a - b) < 1e-10

    def test_target_outside_graph_raises(self):
        gen, graph, params = tiny_world()
        ep = random_episode(gen, 2, 1, 1, 3, 6)
        ep.targets[0] = 99
        with pytest.raises(ValueError, match="not in the graph"):
            episode_loss(ep, graph, params, SamplerConfig(), RngStream(0))

    def test_underflowing_query_probability_raises(self):
        gen, graph, params_unused = tiny_world()
        params = ModelParams(
            gnn=GnnParams(weight=np.zeros((3, 3)), bias=np.zeros(3)),
            encoder=EncoderParams(mode="identity"),
        )
        # query of class 0 sits 1e5 away from its prototype: averaged
        # probability underflows to exactly zero
        ep = Episode(
            targets=[0, 1],
            support_x=np.array([[1e5, 0.0, 0.0], [-1e5, 0.0, 0.0]]),
            support_y=np.array([0, 1]),
            query_x=np.array([[-1e5, 0.0, 0.0]]),
            query_y=np.array([0]),
        )
        cfg = SamplerConfig(chains=1, steps=0, tau=1.0)
        with pytest.raises(RuntimeError, match="replay"):
            episode_loss(ep, graph, params, cfg, RngStream(7))

    @pytest.mark.filterwarnings("error")  # numpy's warnings on the way would fail it
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gradient_raises_with_its_replay_stream(self, monkeypatch, value):
        # a finite loss whose summaries' cotangent is not finite: the error
        # names the stream that replays the episode, and numpy's error state
        # outside the objective is left as it was
        gen, graph, params = tiny_world(seed=5)
        ep = random_episode(gen, 3, 2, 2, 3, 6)
        vjp = trainer.episode_forward_vjp

        def poisoned(*args):
            d_summ = vjp(*args)
            d_summ[0, 0] = value
            return d_summ

        monkeypatch.setattr(trainer, "episode_forward_vjp", poisoned)
        rng = RngStream(6).child(4)
        state = np.geterr()
        with pytest.raises(RuntimeError) as caught:
            episode_objective_and_grads(ep, graph, params, SamplerConfig(chains=2, steps=2), rng)
        assert str(caught.value) == (
            f"non-finite gradient (replay stream seed=6 id={rng.stream_id})"
        )
        assert np.geterr() == state


class TestForwardConsistency:
    def test_training_forward_matches_inference_pipeline(self):
        # the recorded training forward and the plain sampler pipeline must
        # produce identical query probabilities, or train and eval drift apart
        from protograph.prior import summary_rows
        from protograph.sampler import posterior_predict
        from protograph.trainer import _episode_forward

        gen, graph, params = tiny_world(seed=6)
        cfg = SamplerConfig(chains=4, steps=3)
        for case in range(20):
            ep = random_episode(gen, 3, 2, 2, 3, 6)
            rng = RngStream(800).child(case)
            _, fwd = _episode_forward(ep, graph, params, cfg, rng)
            probs, _ = posterior_predict(ep, summary_rows(graph, params.gnn, ep.targets), cfg, rng)
            np.testing.assert_array_equal(fwd.probs, probs)


class TestTrain:
    def make_world(self, tmp_path=None, episodes=30, seed=201, **cfg_kw):
        ds, emb = generate_synthetic(
            12, 6, 4.0, 1.5, 10, RngStream(200), split_counts=(6, 3, 3)
        )
        graph = build_knn_graph(emb, 4)
        cfg = TrainConfig(
            episodes_total=episodes,
            n_way=3,
            q_per=3,
            seed=seed,
            eval_every=cfg_kw.pop("eval_every", 10),
            val_episodes=4,
            sampler=SamplerConfig(chains=3, steps=2),
            **cfg_kw,
        )
        return ds, graph, cfg

    def test_zero_episodes_returns_initial_params(self):
        ds, graph, cfg = self.make_world(episodes=0)
        params, rows = train(ds, graph, cfg)
        fresh = init_params(
            graph_dim=graph.feature_dim, output_dim=ds.d,
            rng=RngStream(cfg.seed).child(0),
        )
        np.testing.assert_array_equal(params.gnn.weight, fresh.gnn.weight)
        assert rows == []

    def test_encoder_is_the_identity_only(self):
        with pytest.raises(ValueError, match="^unknown encoder mode 'linear'$"):
            EncoderParams(mode="linear")

    def test_non_finite_gradient_stops_training_before_its_step(self, monkeypatch, tmp_path):
        # episode 2's gradient is poisoned: episodes 0 and 1 step as a
        # two-episode run does, episode 2 takes no step and no checkpoint is written
        ds, graph, cfg = self.make_world(episodes=2, eval_every=0)
        two_steps, _ = train(ds, graph, cfg)
        vjp, initial = trainer.episode_forward_vjp, trainer.initial_params
        calls, started = [], []

        def poisoned(*args):
            calls.append(None)
            d_summ = vjp(*args)
            if len(calls) == 3:
                d_summ[:] = np.nan
            return d_summ

        def kept(*args):  # the live model train steps
            started.append(initial(*args))
            return started[-1]

        monkeypatch.setattr(trainer, "episode_forward_vjp", poisoned)
        monkeypatch.setattr(trainer, "initial_params", kept)
        ds, graph, cfg = self.make_world(episodes=30, eval_every=0,
                                         checkpoint_path=tmp_path / "m.ckpt")
        with pytest.raises(RuntimeError, match=(
            rf"^episode 2: non-finite gradient \(replay stream seed={cfg.seed} id=\d+\)$"
        )):
            train(ds, graph, cfg)
        assert len(calls) == 3
        assert_same_params(started[0], two_steps)
        assert not (tmp_path / "m.ckpt").exists()

    def test_loss_decreases_on_separable_data(self):
        # harder-than-trivial separable regime so the first episodes carry loss
        ds, emb = generate_synthetic(
            25, 8, 10.0, 1.0, 20, RngStream(100), split_counts=(10, 5, 10)
        )
        graph = build_knn_graph(emb, 10)
        cfg = TrainConfig(episodes_total=500, seed=101, eval_every=0)
        _, rows = train(ds, graph, cfg)
        first = float(np.mean([r.loss for r in rows[:50]]))
        last = float(np.mean([r.loss for r in rows[-50:]]))
        assert last < first

    def test_same_seed_identical_log(self):
        ds, graph, cfg = self.make_world()
        _, rows_a = train(ds, graph, cfg)
        _, rows_b = train(ds, graph, cfg)
        assert [r.as_csv() for r in rows_a] == [r.as_csv() for r in rows_b]

    def test_val_accuracy_recorded_at_interval(self):
        ds, graph, cfg = self.make_world(episodes=20, eval_every=10)
        _, rows = train(ds, graph, cfg)
        assert rows[9].val_accuracy is not None and rows[19].val_accuracy is not None
        assert all(r.val_accuracy is None for i, r in enumerate(rows) if i not in (9, 19))

    def test_val_accuracy_pools_queries_over_episodes(self):
        # validation runs evaluation's episode loop and pools its counts, as
        # the loop it replaced did: sum of correct over sum of queries
        from protograph.data import sample_episode
        from protograph.prior import summary_rows
        from protograph.sampler import posterior_predict
        from protograph.trainer import _NS_VAL

        ds, graph, cfg = self.make_world(episodes=10, eval_every=10)
        params, rows = train(ds, graph, cfg)
        rng = RngStream(cfg.seed).child(_NS_VAL, 9)
        correct, total = 0, 0
        for i in range(cfg.val_episodes):
            ep = sample_episode(ds, "val", cfg.n_way, cfg.k_shot, cfg.q_per, rng.child(i, 0))
            _, preds = posterior_predict(
                ep, summary_rows(graph, params.gnn, ep.targets), cfg.sampler, rng.child(i, 1),
            )
            correct += int(np.sum(preds == ep.query_y))
            total += len(ep.query_y)
        assert 0 < correct < total
        assert rows[9].val_accuracy == correct / total

    def test_wall_ms_blank_without_timing(self, tmp_path):
        ds, graph, cfg = self.make_world(episodes=3, eval_every=0)
        _, rows = train(ds, graph, cfg)
        write_training_log(rows, tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "episode_index,loss,val_accuracy,wall_ms"
        assert all(line.endswith(",,") for line in lines[1:])

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
    def test_outputs_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, measure, noise):
        # episodes and chain noise are drawn a chunk at a time; each episode
        # still gets the draws of its own streams, so one episode per chunk
        # writes the same bytes as the default chunks and as chunks of 3 or 9,
        # which validation every 10 episodes cuts in the middle
        sample = trainer.sample_episode
        outputs, chunks = {}, {}
        for elements in (1, 2**9, evaluation.BATCH_ELEMENTS):
            monkeypatch.setattr(evaluation, "BATCH_ELEMENTS", elements)
            sizes = chunks[elements] = []
            monkeypatch.setattr(
                trainer, "sample_episode", lambda *a: sizes.append(a[-1].ids.size) or sample(*a)
            )
            out = tmp_path / str(elements)
            out.mkdir()
            ds, graph, cfg = self.make_world(
                episodes=30, learning_rate=0.02,
                checkpoint_path=out / "model.ckpt", log_path=out / "log.csv",
            )
            cfg.sampler = SamplerConfig(chains=3, steps=2, measure=measure, noise_enabled=noise)
            train(ds, graph, cfg, {"seed": "201"})
            outputs[elements] = [(out / name).read_bytes() for name in ("model.ckpt", "log.csv")]
        assert chunks[1] == [1] * 30
        assert len(chunks[2**9]) > 1 and set(chunks[2**9]) != {1}
        assert chunks[evaluation.BATCH_ELEMENTS] == [30]
        assert outputs[2**9] == outputs[1]
        assert outputs[evaluation.BATCH_ELEMENTS] == outputs[1]

    def test_error_names_its_episode_within_the_chunk(self, monkeypatch):
        # chunks of 20 (3 * 3 * 6 floats per dot episode): episode 23 is the
        # fourth of the second chunk
        ds, graph, cfg = self.make_world(episodes=30, eval_every=0)
        monkeypatch.setattr(evaluation, "BATCH_ELEMENTS", 20 * 3 * 3 * 6)
        objective, failing = trainer.episode_objective_and_grads, []

        def fail_at_23(episode, graph, params, config, rng, noise):
            if rng == RngStream(cfg.seed).child(trainer._NS_CHAIN, 23):
                failing.append(rng)
                raise RuntimeError("sampler diverged at chain 1 step 2")
            return objective(episode, graph, params, config, rng, noise)

        monkeypatch.setattr(trainer, "episode_objective_and_grads", fail_at_23)
        with pytest.raises(RuntimeError, match="^episode 23: sampler diverged at chain 1 step 2$"):
            train(ds, graph, cfg)
        assert len(failing) == 1

    def test_validation_error_names_the_episode_it_followed(self, monkeypatch):
        ds, graph, cfg = self.make_world(episodes=30, eval_every=10)
        outcomes = trainer.episode_outcomes

        def fail_after_20(dataset, split, graph, params, *args):
            if args[-2] == RngStream(cfg.seed).child(trainer._NS_VAL, 19):
                raise RuntimeError("sampler diverged at episode 3 chain 0 step 2")
            return outcomes(dataset, split, graph, params, *args)

        monkeypatch.setattr(trainer, "episode_outcomes", fail_after_20)
        message = "^episode 19: validation: sampler diverged at episode 3 chain 0 step 2$"
        with pytest.raises(RuntimeError, match=message):
            train(ds, graph, cfg)

    def test_chunk_noise_is_released_before_the_chunk_runs(self, monkeypatch):
        # the pre-draw's generator holds an (E*L, N, d) draw buffer: it is
        # closed once the chunk's M blocks are drawn, before episode 0 runs
        ds, graph, cfg = self.make_world(episodes=6, eval_every=0)
        live, objective = [], trainer.episode_objective_and_grads

        def noise(*args):
            live.append(args)
            try:
                yield from chain_noise(*args)
            finally:
                live.pop()

        def objective_with_no_live_noise(*args):
            assert live == []
            return objective(*args)

        monkeypatch.setattr(trainer, "chain_noise", noise)
        monkeypatch.setattr(trainer, "episode_objective_and_grads", objective_with_no_live_noise)
        train(ds, graph, cfg)

    def test_checkpoint_written(self, tmp_path):
        ds, graph, cfg = self.make_world(episodes=5, eval_every=0)
        cfg.checkpoint_path = tmp_path / "model.ckpt"
        params, _ = train(ds, graph, cfg)
        loaded, _ = read_checkpoint(cfg.checkpoint_path)
        np.testing.assert_array_equal(loaded.gnn.weight, params.gnn.weight)
        np.testing.assert_array_equal(loaded.gnn.bias, params.gnn.bias)

    @pytest.mark.parametrize("episodes, eval_every, writes", [
        (10, 10, 1), (10, 3, 4), (10, 0, 1), (0, 10, 1),
    ])
    def test_each_parameter_state_is_written_once(
        self, tmp_path, monkeypatch, episodes, eval_every, writes
    ):
        # a validation of the last episode writes the final parameters, so the
        # end of training writes them only when no validation did
        ds, graph, cfg = self.make_world(episodes=episodes, eval_every=eval_every)
        cfg.checkpoint_path = tmp_path / "model.ckpt"
        written = []

        def counting_write(params, path, config_echo=None):
            written.append(path)
            write_checkpoint(params, path, config_echo)

        monkeypatch.setattr(trainer, "write_checkpoint", counting_write)
        params, _ = train(ds, graph, cfg, config_echo={"seed": 201})
        assert written == [cfg.checkpoint_path] * writes
        write_checkpoint(params, tmp_path / "fresh.ckpt", {"seed": 201})
        assert cfg.checkpoint_path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()


class TestCheckpoint:
    def test_round_trip_is_exact_decimal(self, tmp_path):
        params = init_params(3, 3, RngStream(10))
        write_checkpoint(params, tmp_path / "m.ckpt")
        loaded, _ = read_checkpoint(tmp_path / "m.ckpt")
        assert_same_params(loaded, params)

    def test_rejects_other_files(self, tmp_path):
        (tmp_path / "bad.ckpt").write_text("something else\n")
        with pytest.raises(ValueError, match="checkpoint"):
            read_checkpoint(tmp_path / "bad.ckpt")

    def test_rejects_the_encoder_blocks_of_a_linear_mode(self, tmp_path):
        # the weight and bias blocks the trainable encoder wrote after its
        # mode are not skipped: the first is where the config count belongs
        params = init_params(4, 3, RngStream(15))
        write_checkpoint(params, tmp_path / "m.ckpt", {"seed": "15"})
        lines = (tmp_path / "m.ckpt").read_text().splitlines()
        at = lines.index("encoder.mode identity") + 1
        lines[at:at] = ["encoder.weight 3 3", *["0 0 0"] * 3, "encoder.bias 1 3", "0 0 0"]
        (tmp_path / "m.ckpt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"m.ckpt:{at + 1}: expected config$"):
            read_checkpoint(tmp_path / "m.ckpt")

    def test_round_trip_skips_blank_lines(self, tmp_path):
        params = init_params(4, 3, RngStream(14))
        write_checkpoint(params, tmp_path / "m.ckpt", {"seed": "14"})
        lines = (tmp_path / "m.ckpt").read_text().splitlines()
        at = lines.index("encoder.mode identity")
        lines[at:at] = ["", "  "]
        (tmp_path / "m.ckpt").write_text("\n".join(lines) + "\n")
        loaded, echo = read_checkpoint(tmp_path / "m.ckpt")
        assert echo == {"seed": "14"}
        assert_same_params(loaded, params)

    def test_readme_format_lists_the_written_lines(self, tmp_path):
        # the header lines of README's "Checkpoint format (v1)" block, in order;
        # a line without a <placeholder> must be written as it stands
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("### Checkpoint format (v1)")[1]
        documented = [line.partition("#")[0].strip()
                      for line in block.split("```")[1].strip().splitlines()]
        write_checkpoint(init_params(4, 3, RngStream(13)), tmp_path / "m.ckpt", {"seed": "13"})
        written = [
            line for line in (tmp_path / "m.ckpt").read_text().splitlines()
            if "=" not in line and not is_value_row(line)
        ]
        assert [line.split(" ")[0] for line in written] == [
            line.split(" ")[0] for line in documented
        ]
        for doc, line in zip(documented, written):
            assert "<" in doc or doc == line

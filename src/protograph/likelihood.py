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
ENCODER_MODES = ("identity", "linear")


@dataclass
class EncoderParams:
    """Identity pass-through or a trainable affine map W x + bias."""

    mode: str = "identity"
    weight: np.ndarray | None = None  # (d, d_in)
    bias: np.ndarray | None = None  # (d,)

    def __post_init__(self) -> None:
        if self.mode not in ENCODER_MODES:
            raise ValueError(f"unknown encoder mode {self.mode!r}")
        if self.mode == "linear":
            if self.weight is None or self.bias is None:
                raise ValueError("linear encoder requires weight and bias")
            self.weight = np.asarray(self.weight, dtype=float)
            self.bias = np.asarray(self.bias, dtype=float)
            if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
                raise ValueError(
                    f"weight {self.weight.shape} and bias {self.bias.shape} are inconsistent"
                )

    @property
    def trainable(self) -> bool:
        return self.mode == "linear"


def encode_batch(features, params: EncoderParams) -> np.ndarray:
    """Encode a (n, d_in) matrix of feature rows, or one (d_in,) vector."""
    x = np.asarray(features, dtype=float)
    if params.mode == "identity":
        return x
    if x.shape[-1] != params.weight.shape[1]:
        raise ValueError(
            f"feature dim {x.shape[-1]} != encoder input dim {params.weight.shape[1]}"
        )
    return x @ params.weight.T + params.bias


def pairwise_logits(encodings: np.ndarray, prototypes: np.ndarray, measure: str) -> np.ndarray:
    """Similarity logits between encoding rows and prototype rows.

    Prototypes (N, d) give (n, N) logits; L prototype sets (L, N, d) give
    (L, n, N), one block per set.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    e = np.atleast_2d(np.asarray(encodings, dtype=float))
    v = np.asarray(prototypes, dtype=float)
    if e.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: encodings {e.shape} vs prototypes {v.shape}")
    if measure == "dot":
        return e @ np.swapaxes(v, -1, -2)
    diff = e[:, None, :] - v[..., None, :, :]
    return -0.5 * np.einsum("...nd,...nd->...n", diff, diff)


def class_log_probs(encoding, prototypes, measure: str, tau: float) -> np.ndarray:
    """Log class probabilities of one encoding against N prototypes."""
    v = np.asarray(prototypes, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError("empty class set")
    logits = pairwise_logits(encoding, v, measure)
    return log_softmax_with_temperature(logits, tau)[0]


def support_labels(support_y, n_way: int) -> tuple[np.ndarray, int]:
    """One-hot (S, N) support labels and the shot count K, after the checks.

    Labels must lie in 0..N-1 and every class must hold the same count K.
    """
    y = np.asarray(support_y, dtype=int)
    if y.size == 0:
        raise ValueError("empty support set")
    bad = (y < 0) | (y >= n_way)
    if np.any(bad):
        raise ValueError(f"support label {int(y[bad][0])} outside the {n_way} target classes")
    counts = np.bincount(y, minlength=n_way)
    if np.any(counts != counts[0]):
        raise ValueError(f"unequal support counts per class: {counts.tolist()}")
    one_hot = np.zeros((y.size, n_way))
    one_hot[np.arange(y.size), y] = 1.0
    return one_hot, int(counts[0])


def support_probs_and_grad(
    enc: np.ndarray, one_hot: np.ndarray, values: np.ndarray, measure: str, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Support softmax probabilities and the likelihood drift of L prototype sets.

    For encodings enc (S, d), labels one_hot (S, N) and prototypes values
    (L, N, d), returns probs (L, S, N) and G (L, N, d) with row r of chain l

        dot:       sum_s (1[y_s=r] - p_lsr) e_s
        euclidean: sum_s (1[y_s=r] - p_lsr) (e_s - v_lr)

    G / tau is the gradient of sum_s log p(y_s | x_s, V_l); callers apply
    that scale together with their own weights.
    """
    if measure == "dot":
        logits = np.einsum("sd,lnd->lsn", enc, values)
        probs = softmax_with_temperature(logits, tau)
        return probs, np.einsum("lsn,sd->lnd", one_hot[None] - probs, enc)
    diff = enc[None, :, None, :] - values[:, None, :, :]
    logits = -0.5 * np.einsum("lsnd,lsnd->lsn", diff, diff)
    probs = softmax_with_temperature(logits, tau)
    return probs, np.einsum("lsn,lsnd->lnd", one_hot[None] - probs, diff)


def pairwise_logits_vjp(
    d_logits, encodings, prototypes, measure: str
) -> tuple[np.ndarray, np.ndarray]:
    """VJP of :func:`pairwise_logits` for L prototype sets.

    For the cotangent d_logits (L, n, N) of the logits of encodings (n, d)
    against prototypes (L, N, d), returns (d_encodings, d_prototypes).
    """
    if measure == "dot":
        d_v = np.einsum("lqn,qd->lnd", d_logits, encodings)
        return np.einsum("lqn,lnd->qd", d_logits, prototypes), d_v
    diff = encodings[None, :, None, :] - prototypes[:, None, :, :]
    d_v = np.einsum("lqn,lqnd->lnd", d_logits, diff)
    return -np.einsum("lqn,lqnd->qd", d_logits, diff), d_v


def similarity_softmax_vjp(
    probs, d_probs, encodings, prototypes, measure: str, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """VJP of probs = softmax_with_temperature(pairwise_logits(...), tau), (L, n, N).

    Takes the probabilities the forward computed and their cotangent;
    returns (d_encodings, d_prototypes).
    """
    inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
    d_logits = probs * (d_probs - inner) / tau
    return pairwise_logits_vjp(d_logits, encodings, prototypes, measure)


def support_drift_vjp(
    enc, one_hot, values, probs, cotangent, measure: str, tau: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """VJP of scale * G, the drift of :func:`support_probs_and_grad`.

    ``probs`` (L, S, N) is the support softmax at ``values`` (L, N, d), as
    the chain recorded it, and ``cotangent`` (L, N, d) that of scale * G.
    Differentiating G brings in the softmax curvature (the Hessian term of
    the Langevin drift). Returns (d_enc, d_values).
    """
    resid = one_hot[None] - probs  # (L, S, N)
    if measure == "dot":
        a = np.einsum("sd,lnd->lsn", enc, cotangent)
    else:
        diff = enc[None, :, None, :] - values[:, None, :, :]
        a = np.einsum("lsnd,lnd->lsn", diff, cotangent)
    d_enc, d_values = similarity_softmax_vjp(probs, -scale * a, enc, values, measure, tau)
    if measure == "euclidean":
        d_values -= scale * resid.sum(axis=1)[:, :, None] * cotangent
    d_enc += scale * np.einsum("lsn,lnd->sd", resid, cotangent)
    return d_enc, d_values


def support_log_likelihood_and_grad(
    support_x,
    support_y,
    prototypes,
    encoder: EncoderParams,
    measure: str,
    tau: float,
) -> tuple[float, np.ndarray]:
    """Support-set log-likelihood and its analytic gradient w.r.t. prototypes.

    value = (1/K) sum_s log p(y_s | x_s, V), with K support instances per
    class (required equal). The gradient is 1/(K tau) times the drift of
    :func:`support_probs_and_grad`, the kernel the sampler's chains run.
    """
    v = np.asarray(prototypes, dtype=float)
    y = np.asarray(support_y, dtype=int)
    one_hot, k_shot = support_labels(y, v.shape[0])
    e = encode_batch(support_x, encoder)
    log_p = log_softmax_with_temperature(pairwise_logits(e, v, measure), tau)
    _, drift = support_probs_and_grad(e, one_hot, v[None], measure, tau)

    scale = 1.0 / k_shot
    value = scale * float(log_p[np.arange(y.size), y].sum())
    return value, drift[0] * (scale / tau)

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
# support_probs_and_grad zeroes drift residuals smaller than this
RESIDUAL_FLOOR = 2.0**-900


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
    Labels (E, S) of E episodes give (E, S, N); each episode is checked on
    its own, and the first that fails is reported as it alone would be.
    """
    y = np.asarray(support_y, dtype=int)
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
    enc: np.ndarray, one_hot: np.ndarray, values: np.ndarray, measure: str, tau: float
) -> tuple[np.ndarray, np.ndarray]:
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
    term the chain adds to the drift. The returned probs are exact.
    """
    if measure == "dot":
        logits = np.einsum("...sd,...lnd->...lsn", enc, values)
    else:
        diff = enc[..., None, :, None, :] - values[..., :, None, :, :]
        logits = -0.5 * np.einsum("...lsnd,...lsnd->...lsn", diff, diff)
    probs = softmax_with_temperature(logits, tau)
    resid = one_hot[..., None, :, :] - probs
    resid[np.abs(resid) < RESIDUAL_FLOOR] = 0.0
    if measure == "dot":
        # an s-major copy reduces faster than "lsn,sd->lnd" and, on
        # one-hot-minus-softmax residuals, to the same bits
        s_major = np.ascontiguousarray(np.swapaxes(resid, -3, -2))
        return probs, np.einsum("...sln,...sd->...lnd", s_major, enc)
    return probs, np.einsum("...lsn,...lsnd->...lnd", resid, diff)


def pairwise_logits_vjp(
    d_logits, enc, prototypes, measure: str, encodings: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """VJP of :func:`pairwise_logits` for L prototype sets.

    For the cotangent d_logits (L, n, N) of the logits of encodings ``enc``
    (n, d) against prototypes (L, N, d), returns (d_enc, d_prototypes).
    With ``encodings=False`` d_enc is None and is not computed; d_prototypes
    has the same bits either way.
    """
    if measure == "dot":
        d_v = np.einsum("lqn,qd->lnd", d_logits, enc)
        d_enc = np.einsum("lqn,lnd->qd", d_logits, prototypes) if encodings else None
    else:
        diff = enc[None, :, None, :] - prototypes[:, None, :, :]
        d_v = np.einsum("lqn,lqnd->lnd", d_logits, diff)
        d_enc = -np.einsum("lqn,lqnd->qd", d_logits, diff) if encodings else None
    return d_enc, d_v


def similarity_softmax_vjp(
    probs, d_probs, enc, prototypes, measure: str, tau: float, encodings: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """VJP of probs = softmax_with_temperature(pairwise_logits(...), tau), (L, n, N).

    Takes the probabilities the forward computed and their cotangent;
    returns (d_enc, d_prototypes), d_enc None when ``encodings`` is False.
    """
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    d_logits = probs * (d_probs - inner) / tau
    return pairwise_logits_vjp(d_logits, enc, prototypes, measure, encodings)


def support_drift_vjp(
    enc, one_hot, values, probs, cotangent, measure: str, tau: float, scale: float,
    encodings: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """VJP of scale * G, the drift of :func:`support_probs_and_grad`.

    ``probs`` (L, S, N) is the support softmax at ``values`` (L, N, d), as
    the chain recorded it, and ``cotangent`` (L, N, d) that of scale * G.
    Differentiating G brings in the softmax curvature (the Hessian term of
    the Langevin drift). Returns (d_enc, d_values); with ``encodings=False``
    d_enc is None and the terms that feed only it are skipped.
    """
    if measure == "dot":
        a = np.einsum("sd,lnd->lsn", enc, cotangent)
    else:
        diff = enc[None, :, None, :] - values[:, None, :, :]
        a = np.einsum("lsnd,lnd->lsn", diff, cotangent)
    d_enc, d_values = similarity_softmax_vjp(
        probs, -scale * a, enc, values, measure, tau, encodings
    )
    if measure == "dot" and not encodings:
        return None, d_values
    resid = one_hot[None] - probs  # (L, S, N)
    if measure == "euclidean":
        d_values -= scale * resid.sum(axis=1)[:, :, None] * cotangent
    if encodings:
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

"""Instance encoding, the similarity kernel and the softmax likelihood.

The similarity of a query and prototype v_r is their inner product, fed to a
softmax with annealing temperature tau (logits are divided by tau). This
module holds the forward kernels and the vector-Jacobian products (VJPs) the
reverse pass takes through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import log_softmax_with_temperature, softmax_with_temperature

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


def pairwise_logits(encodings: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Dot-product logits between encoding rows and prototype rows.

    Prototypes (N, d) give (n, N) logits; L prototype sets (L, N, d) give
    (L, n, N), one block per set. A leading episode axis batches episodes:
    encodings (E, n, d) against prototypes (E, L, N, d) give (E, L, n, N).
    """
    e = np.asarray(encodings, dtype=float)
    if e.ndim < 2:  # one encoding row
        e = e.reshape(1, -1)
    v = np.asarray(prototypes, dtype=float)
    if e.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: encodings {e.shape} vs prototypes {v.shape}")
    if v.ndim > e.ndim:  # one encoding block for all L sets
        e = e[..., None, :, :]
    return e @ v.swapaxes(-1, -2)


def chain_step_floats(chains: int, n_way: int, rows: int, dim: int) -> int:
    """Floats in the largest array of one episode's chain step, L*N*max(S, d),
    S the support rows (in zero-shot, one chain against the Q queries)."""
    return chains * n_way * max(rows, dim)


def class_log_probs(encoding, prototypes, tau: float) -> np.ndarray:
    """Log class probabilities of one encoding against N prototypes."""
    v = np.asarray(prototypes, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError("empty class set")
    logits = pairwise_logits(encoding, v)
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
    enc: np.ndarray, one_hot: np.ndarray, values: np.ndarray, tau: float, record: bool = True,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Support softmax probabilities and the likelihood drift of L prototype sets.

    For encodings enc (S, d), labels one_hot (S, N) and prototypes values
    (L, N, d), returns probs (S, L, N), row-first, and G (L, N, d) with row r
    of chain l (a leading episode axis E on all three batches episodes)

        sum_s (1[y_s=r] - p_lsr) e_s

    G / tau is the gradient of sum_s log p(y_s | x_s, V_l); callers apply
    that scale together with their own weights.

    A saturated softmax leaves residuals 1[y_s=r] - p_lsr in the subnormal
    range, where arithmetic is many times slower. Residuals below
    RESIDUAL_FLOOR are zeroed before the reduction: such a residual is -p
    for a tiny p (1 - p is 0 or at least 2**-53), and the terms dropped sum
    to less than S * RESIDUAL_FLOOR times the largest |e_s| entry, far below
    the last bit of the prior term the chain adds to the drift.

    With ``record`` (the default) probs is the exact softmax, as the reverse
    pass needs it. With ``record=False`` probs is None, and the softmax
    raises scaled logits below LOGIT_CLAMP to it, so that ``exp`` meets no
    exponent whose output underflows: a raised entry's probability stays
    below RESIDUAL_FLOOR, so its residual is zeroed as before (a target's
    is 1 either way), and G keeps its bits.

    ``out``, when given, receives the recorded softmax (see
    softmax_with_temperature): an array of its shape, which probs then is.
    """
    # s-major logits (S, L, N): the residual then has the layout that
    # reduces fastest, to the bits of the l-major (L, S, N) one
    flat = values.reshape(values.shape[:-3] + (-1, values.shape[-1]))
    logits = np.einsum("...sd,...kd->...sk", enc, flat).reshape(
        enc.shape[:-1] + values.shape[-3:-1]
    )
    probs = softmax_with_temperature(
        logits, tau, None if record else LOGIT_CLAMP, logits if out is None else out
    )
    # |resid| < RESIDUAL_FLOOR exactly where p < RESIDUAL_FLOOR off the label
    # (on it 1 - p is 0 or at least 2**-53, and 1 - p rounds to 1 for such p)
    resid = one_hot[..., :, None, :] - np.where(probs < RESIDUAL_FLOOR, 0.0, probs)
    return (probs if record else None), np.einsum("...sln,...sd->...lnd", resid, enc)


def pairwise_logits_vjp(d_logits, enc) -> np.ndarray:
    """VJP of :func:`pairwise_logits` for L prototype sets.

    For the row-first cotangent d_logits (n, L, N) of the logits of encodings
    ``enc`` (n, d) against L sets of N prototypes, returns that of the
    prototypes, (L, N, d).
    """
    return np.einsum("qln,qd->lnd", d_logits, enc)


def similarity_softmax_vjp(probs, d_probs, enc, tau: float) -> np.ndarray:
    """VJP of probs = softmax_with_temperature(pairwise_logits(...), tau).

    Takes the probabilities the forward computed and their cotangent, both
    row-first, (n, L, N); returns the cotangent of the prototypes.
    """
    # d_probs is copied out once: ufuncs that broadcast a cotangent the chains
    # share, (n, 1, N), allocate iterator buffers of the result's size
    d_logits = np.empty(probs.shape)
    d_logits[...] = d_probs
    inner = np.add.reduce(d_logits * probs, axis=-1, keepdims=True)
    d_logits -= inner
    d_logits *= probs
    d_logits /= tau
    return pairwise_logits_vjp(d_logits, enc)


def support_drift_vjp(enc, probs, cotangent, tau: float, scale: float) -> np.ndarray:
    """VJP of scale * G, the drift of :func:`support_probs_and_grad`.

    ``probs`` is the support softmax (S, L, N) at the chain's values as it
    recorded it, and ``cotangent`` (L, N, d) that of scale * G.
    Differentiating G brings in the softmax curvature (the Hessian term of
    the Langevin drift). Returns the cotangent of the values.
    """
    a = np.einsum("sd,lnd->sln", enc, cotangent)
    a *= -scale
    return similarity_softmax_vjp(probs, a, enc, tau)

"""Deterministic math kernel shared by every other module.

Provides the temperature softmax, seeded standard-normal draws, and a
central-difference gradient oracle. Every random draw in the package flows
through an explicitly passed :class:`RngStream`; there is no ambient
generator state, so any computation is replayable from its stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    # Public-domain splitmix64 avalanche; used only to derive child stream ids.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Value-semantic handle for one deterministic random stream.

    The same (seed, stream_id) pair always replays the same draw sequence;
    distinct stream_ids give statistically independent sequences (the pair is
    the 128-bit Philox key). Streams are cheap values: pass them around and
    derive substreams with :meth:`child` instead of sharing generator state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices: int) -> "RngStream":
        """Derive a substream; distinct index paths give independent streams."""
        h = _splitmix64((self.stream_id ^ 0xA5A5A5A5A5A5A5A5) & _MASK64)
        for i in indices:
            h = _splitmix64(h ^ (int(i) & _MASK64))
        return RngStream(self.seed, h)


class ChildNormals:
    """Standard-normal draws of the substreams ``rng.child(i, j)``, i < ``n``.

    ``sample(shape, i, j)`` returns exactly ``standard_normal_sample(shape,
    rng.child(i, j))``, but from one Philox bit generator that is re-keyed per
    draw instead of rebuilt: Philox is counter-based, so a stream is its key
    with the counter, buffer and spare-word state all at zero. The hash prefix
    of ``child(i)`` is derived once per ``i``. An instance holds generator
    state, so keep it local to one caller; never share it between threads.
    """

    def __init__(self, rng: RngStream, n: int):
        root = _splitmix64((rng.stream_id ^ 0xA5A5A5A5A5A5A5A5) & _MASK64)
        self._prefixes = [_splitmix64(root ^ i) for i in range(n)]
        self._key = np.array([rng.seed & _MASK64, 0], dtype=np.uint64)
        self._bits = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def sample(self, shape, i: int, j: int) -> np.ndarray:
        self._key[1] = _splitmix64(self._prefixes[i] ^ (int(j) & _MASK64))
        self._bits.state = self._state
        return self._gen.standard_normal(shape)


def standard_normal_sample(shape, rng: RngStream) -> np.ndarray:
    """I.i.d. N(0, 1) draws; a pure function of (shape, rng)."""
    return rng.generator().standard_normal(shape)


def _scaled_logits(logits, tau: float) -> np.ndarray:
    """logits / tau shifted so each row's maximum is 0, after the input checks."""
    z = np.asarray(logits, dtype=float)
    if z.shape[-1] == 0:
        raise ValueError("empty class set")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = z / float(tau)
    return z - np.max(z, axis=-1, keepdims=True)


def softmax_with_temperature(logits, tau: float) -> np.ndarray:
    """Softmax of logits / tau along the last axis, stabilised by max subtraction.

    Raises on an empty class axis, non-finite logits, or tau <= 0.
    """
    e = np.exp(_scaled_logits(logits, tau))
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax_with_temperature(logits, tau: float) -> np.ndarray:
    """Log of :func:`softmax_with_temperature`, computed without underflow."""
    z = _scaled_logits(logits, tau)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle, (f(x+h e_i) - f(x-h e_i)) / 2h.

    Accepts any array shape; iterates coordinates one at a time, so f must be
    evaluable at every perturbed point. Used as the independent check for all
    analytic gradients in the package.
    """
    x = np.array(x, dtype=float)
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = float(f(x))
        x[idx] = orig - h
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"oracle evaluation failed at coordinate {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def max_relative_error(analytic, numeric) -> float:
    """Elementwise |analytic - numeric| / max(1, |analytic|), maximised.

    The denominator floor of 1 keeps the metric meaningful near zero entries.
    """
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(a))))

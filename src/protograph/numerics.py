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


def _splitmix64(z):
    # Public-domain splitmix64 avalanche; used only to derive child stream ids.
    # z is an int below 2**64 or a uint64 array, whose arithmetic wraps the same.
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


class RekeyedPhilox:
    """One Philox generator restarted at the start of any stream of one seed.

    Philox is counter-based, so the stream (seed, stream_id) is its key with
    the counter, buffer and spare-word state all at zero: :meth:`start` sets
    that state on one bit generator instead of building one per stream (about
    15 us each), and the generator it returns draws exactly what
    ``RngStream(seed, stream_id).generator()`` draws. The streams given must
    share one seed, the first word of every key. An instance holds generator
    state, so keep it local to one caller; never share it between threads.
    """

    def __init__(self, streams):
        seeds = {s.seed & _MASK64 for s in streams}
        if len(seeds) != 1:
            raise ValueError("the streams must share one seed")
        self._key = [seeds.pop(), 0]
        self._bits = np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # plain ints: the state setter parses them about twice as fast as arrays
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def start(self, stream_id: int) -> np.random.Generator:
        """The generator, positioned at the start of stream (seed, stream_id)."""
        self._key[1] = stream_id & _MASK64
        self._bits.state = self._state
        return self._gen


class ChildNormals:
    """Standard-normal blocks of the substreams ``streams[e].child(i, j)``, i < ``n``.

    ``step(j)`` returns the ``(E, n) + shape`` block whose entry ``[e, i]`` is
    exactly ``standard_normal_sample(shape, streams[e].child(i, j))``, for the
    E streams given. The draws come from one :class:`RekeyedPhilox`, so the
    streams must share one seed; the hash prefixes of ``child(i)`` are
    derived once, and the keys of one step in one array pass. An instance
    holds generator state, so keep it local to one caller.
    """

    def __init__(self, streams, n: int, shape):
        self._philox = RekeyedPhilox(streams)
        roots = [_splitmix64((s.stream_id ^ 0xA5A5A5A5A5A5A5A5) & _MASK64) for s in streams]
        self._prefixes = _splitmix64(
            np.array(roots, dtype=np.uint64)[:, None] ^ np.arange(n, dtype=np.uint64)
        )
        self._shape = (len(roots), n) + tuple(shape)

    def step(self, j: int) -> np.ndarray:
        block = np.empty(self._shape)
        keys = _splitmix64(self._prefixes ^ (int(j) & _MASK64)).ravel().tolist()
        start = self._philox.start
        for key, out in zip(keys, block.reshape((-1,) + self._shape[2:])):
            start(key).standard_normal(out=out)
        return block


def standard_normal_sample(shape, rng: RngStream) -> np.ndarray:
    """I.i.d. N(0, 1) draws; a pure function of (shape, rng)."""
    return rng.generator().standard_normal(shape)


def _scaled_logits(logits, tau: float) -> np.ndarray:
    """logits / tau shifted so each row's maximum is 0, after the input checks."""
    z = np.asarray(logits, dtype=float)
    if z.shape[-1] == 0:
        raise ValueError("empty class set")
    tau = float(tau)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau >= 1:  # |z / tau| <= |z|: only non-finite input gives non-finite output
        z = z / tau
    else:
        with np.errstate(over="ignore"):
            z = z / tau
    # one check covers non-finite logits and the overflow of a small tau
    if not np.isfinite(z).all():
        raise ValueError("logits / tau must be finite")
    return z - z.max(axis=-1, keepdims=True)


def softmax_with_temperature(logits, tau: float) -> np.ndarray:
    """Softmax of logits / tau along the last axis, stabilised by max subtraction.

    Raises on an empty class axis, a tau that is not positive and finite, or
    non-finite logits / tau.
    """
    e = np.exp(_scaled_logits(logits, tau))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_with_temperature(logits, tau: float) -> np.ndarray:
    """Log of :func:`softmax_with_temperature`, computed without underflow."""
    z = _scaled_logits(logits, tau)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


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
    A non-finite entry in either array is an infinite error, so no NaN can
    drop out of a ``max`` over errors.
    """
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {n.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(n))):
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(a))))

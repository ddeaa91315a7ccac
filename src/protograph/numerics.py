"""Deterministic math kernel shared by every other module.

Provides the temperature softmax, seeded standard-normal draws, and a
central-difference gradient oracle. Every random draw in the package flows
through an explicitly passed :class:`RngStream`; there is no ambient
generator state, so any computation is replayable from its stream.

A batch of E streams is one :class:`RngStream` whose ``stream_id`` is an
(E,) uint64 array, made by :meth:`RngStream.child` from an index array. It
draws through one re-keyed Philox: the chain's Langevin noise in
:func:`chain_noise`, and the episode draws in :class:`StreamChoices`, numpy's
``choice(pop, size, replace=False)`` as its Floyd and Fisher-Yates loops,
each step one array pass over the streams' raw words, with ``gen.choice``
as the fallback for a stream whose words numpy would draw another way.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
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
    """Value-semantic handle for one deterministic random stream, or a batch.

    The same (seed, stream_id) pair always replays the same draw sequence;
    distinct stream_ids give statistically independent sequences (the pair is
    the 128-bit Philox key). Streams are cheap values: pass them around and
    derive substreams with :meth:`child` instead of sharing generator state.

    A batch stream holds E streams of one seed, its ``stream_id`` an (E,)
    uint64 array of their ids; it has no one generator.
    """

    seed: int
    stream_id: int | np.ndarray = 0

    @property
    def ids(self) -> np.ndarray:
        """The stream ids as a uint64 array: (E,) for a batch, (1,) for one stream."""
        return np.atleast_1d(np.asarray(self.stream_id & _MASK64, dtype=np.uint64))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        if isinstance(self.stream_id, np.ndarray):
            raise ValueError(f"a batch of {self.stream_id.size} streams has no one generator")
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices) -> "RngStream":
        """Derive a substream; distinct index paths give independent streams.

        One index may be a 1-D integer array of E entries, at any position:
        the result is the batch stream whose id e is the id ``child`` gives
        with entry e in its place. A batch's children are batches too, and
        ids and indices broadcast as numpy arrays do: (E, 1) ids under an
        index array of L entries give the (E, L) ids of every pair.
        """
        h = _splitmix64((self.stream_id ^ 0xA5A5A5A5A5A5A5A5) & _MASK64)
        for i in indices:
            i = i.astype(np.uint64) if isinstance(i, np.ndarray) else int(i) & _MASK64
            h = _splitmix64(h ^ i)
        return RngStream(self.seed, h)


class RekeyedPhilox:
    """One Philox generator restarted at the start of any stream of one seed.

    Philox is counter-based, so the stream (seed, stream_id) is its key with
    the counter, buffer and spare-word state all at zero: :meth:`start` sets
    that state on one bit generator instead of building one per stream (about
    15 us each), and the generator it returns draws exactly what
    ``RngStream(seed, stream_id).generator()`` draws, for the seed of the
    stream or batch given, the first word of every key. An instance holds
    generator state, so keep it local to one caller; never share it between
    threads.
    """

    def __init__(self, rng: RngStream):
        self._key = [rng.seed & _MASK64, 0]
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


def chain_noise(rng: RngStream, targets, chains: int, d: int) -> Iterator[np.ndarray]:
    """The Langevin noise blocks of steps 1, 2, ... of one or E episodes' chains.

    ``rng`` is the noise stream of one episode, with targets (N,), or a
    batch stream of E ids, with targets (E, N); the blocks are (L, N, d) or
    (E, L, N, d). The (N, d) block of (episode e, chain l, step t) is
    ``standard_normal_sample((N, d), stream_e.child(l, t))``, stream_e the
    e-th stream of the batch, with its rows taken in sorted-target rank, so
    that a permutation of the targets permutes the noise with them. Each
    block is drawn when it is asked for, so the iterator draws as many steps
    as its caller takes; a stream that does not match the targets raises at
    the first. Every draw goes through one :class:`RekeyedPhilox`, keyed by
    hashing the step into the prefixes ``child(l)`` of each stream.
    """
    targets = np.asarray(targets, dtype=int)
    if targets.shape[:-1] != np.shape(rng.stream_id):
        raise ValueError(f"targets of shape {targets.shape} do not match streams of shape "
                         f"{np.shape(rng.stream_id)}")
    n_way = targets.shape[-1]
    start = RekeyedPhilox(rng).start
    prefixes = RngStream(rng.seed, rng.ids[:, None]).child(np.arange(chains)).ids
    draws = np.empty((prefixes.size, n_way, d))
    ranks = np.argsort(np.argsort(targets.reshape(-1, n_way)))
    # row n of (episode e, chain l) takes row ranks[e, n] of its (N, d)
    # draw: an index into the draws' rows stacked as (E * L * N, d)
    blocks = np.arange(prefixes.size).reshape(-1, chains, 1)
    rows = (n_way * blocks + ranks[:, None, :]).ravel()
    shape = targets.shape[:-1] + (chains, n_way, d)
    for t in itertools.count(1):
        for key, out in zip(_splitmix64(prefixes ^ t).ravel().tolist(), draws):
            start(key).standard_normal(out=out)
        yield np.take(draws.reshape(-1, d), rows, axis=0).reshape(shape)


_LOW32 = np.uint64(0xFFFFFFFF)


class StreamChoices:
    """``Generator.choice(pop, size, replace=False)`` calls of E streams, a batch at a time.

    ``choice(pops, size)`` returns the (E, C, size) array whose row [e, c] is
    exactly ``gen.choice(pops[e, c], size, replace=False)`` when ``gen`` is
    the generator of stream e of ``rng`` (a batch, or one stream with E = 1)
    after the stream's earlier calls and the calls pops[e, :c]. ``sizes``
    lists the sizes of the calls to come, in order, for the words drawn up
    front.

    The generator's draws run on each stream's raw Philox words, low 32 bits
    then high 32 bits of each 64-bit word, in numpy's own two loops, each
    step one array pass over all E * C calls: Floyd's sampling (Bentley &
    Floyd 1987) takes v_t = bounded(j) for j = pop - size..pop - 1, or j when
    an earlier step took v_t, then Fisher-Yates for i = size - 1..1 swaps i
    and bounded(i). ``bounded(b)`` is Lemire's (2019) multiply-shift
    ((b + 1) * w) >> 32, with no word read at b = 0. A call that numpy
    draws another way, a word that Lemire's rejection step may reject (low
    half of the product below b + 1), or a call past the words drawn sends
    its stream to the one exact fallback: the stream's calls replayed with
    ``gen.choice``. An instance holds generator state, so keep it local to
    one caller.
    """

    def __init__(self, rng: RngStream, sizes):
        self._philox = RekeyedPhilox(rng)
        self._ids = rng.ids.tolist()
        n = sum(2 * s - 1 for s in sizes) // 2 + 1  # a call reads at most 2 * size - 1
        raw = np.empty((len(self._ids), n), dtype=np.uint64)
        for out, stream_id in zip(raw, self._ids):
            out[:] = self._philox.start(stream_id).bit_generator.random_raw(n)
        # each word's low, then high 32 bits, in numpy's order of 32-bit draws
        self._words = raw.astype("<u8", copy=False).view("<u4").astype(np.uint64).ravel()
        self._width = 2 * n
        self._origin = self._width * np.arange(len(raw))[:, None]
        self._used = np.zeros((len(raw), 1), dtype=np.int64)
        self._exact = np.ones(len(raw), dtype=bool)
        self._calls = []

    def choice(self, pops, size: int) -> np.ndarray:
        """The (E, C, size) draws of the calls ``choice(pops[e, c], size)``."""
        pops = np.asarray(pops, dtype=np.int64)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self._calls.append((pops, size))
        bound0 = pops == size  # Floyd's first bound is 0: it reads no word
        end = self._used + (2 * size - 1 - bound0).cumsum(axis=1)
        self._used = end[:, -1:]
        bound0 = bound0.ravel()
        # (2 * size - 1, rows): Floyd's bounds pop - size + c, then i = size - 1..1
        cols = np.arange(2 * size - 1)[:, None]
        at = (end + self._origin).ravel() - cols.size + np.maximum(cols, bound0)
        pop = pops.ravel()
        base = pop - size
        span = np.empty(at.shape, dtype=np.uint64)
        span[:size] = base + 1 + cols[:size]
        span[size:] = size - cols[:size - 1]
        m = self._words[np.minimum(at, self._words.size - 1)] * span
        exact = ((m & _LOW32) >= span).all(axis=0)
        if pop.max() > 10000 or pop.min() < size:
            # numpy shuffles a tail of range(pop), reads 64-bit words, or raises
            exact &= ((size <= pop) & (pop <= 10000)) | ((size <= pop // 50) & (pop < 2**32))
        self._exact &= exact.reshape(pops.shape).all(axis=1) & (self._used[:, 0] <= self._width)
        vals = (m >> np.uint64(32)).astype(np.int64)
        out = vals[:size]  # Floyd's step t keeps v_t, or takes base + t when v_t is taken
        for t in range(1, size):
            out[t] = np.where((out[:t] == out[t]).any(axis=0), base + t, out[t])
        rows = np.arange(pop.size)
        for i, j in zip(range(size - 1, 0, -1), vals[size:]):
            swap = out[j, rows]
            out[j, rows] = out[i]
            out[i] = swap
        picked = out.T.reshape(pops.shape + (size,))
        if not self._exact.all():
            for e in np.flatnonzero(~self._exact).tolist():
                gen = self._philox.start(self._ids[e])
                for p, s in self._calls:
                    row = [gen.choice(x, s, replace=False) for x in p[e].tolist()]
                picked[e] = row
        return picked


def standard_normal_sample(shape, rng: RngStream) -> np.ndarray:
    """I.i.d. N(0, 1) draws; a pure function of (shape, rng)."""
    return rng.generator().standard_normal(shape)


def row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)`` of a finite z, bit for bit.

    numpy's reduce over a short last axis costs per row; N - 1 ``np.maximum``
    passes over the columns cost per column, about a tenth of it on the
    (20, 10, 25, 5) query logits of an evaluation batch. A maximum is exact
    in any order, but numpy's SIMD order picks between a tied +0 and -0 in
    its own way, so a row whose maximum is zero takes numpy's reduce.
    """
    n = z.shape[-1]
    rows = z.reshape(-1, n)
    out = np.maximum(rows[:, 0], rows[:, 1]) if n > 1 else rows[:, 0].copy()
    for k in range(2, n):
        np.maximum(out, rows[:, k], out=out)
    if not out.all():
        return z.max(axis=-1, keepdims=True)
    return out.reshape(z.shape[:-1] + (1,))


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
    z -= row_max(z)  # z is a fresh array
    return z


def softmax_with_temperature(logits, tau: float, clamp: float | None = None) -> np.ndarray:
    """Softmax of logits / tau along the last axis, stabilised by max subtraction.

    Raises on an empty class axis, a tau that is not positive and finite, or
    non-finite logits / tau.

    With ``clamp`` (negative), shifted logits below it are raised to it
    before ``exp``, whose slow path serves outputs that underflow to zero
    or a subnormal. The raised entries' probabilities are then inexact. Each
    row's maximum adds exactly 1 to the row sum, far above them, so at a
    clamp of -700 every other probability keeps the exact softmax's bits.
    """
    z = _scaled_logits(logits, tau)  # a fresh array: normalise it in place
    if clamp is not None:
        np.maximum(z, clamp, out=z)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


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

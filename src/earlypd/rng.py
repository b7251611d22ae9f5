"""Deterministic random streams (STREAM_VERSION 1).

Every random choice in the pipeline is drawn from a SplitMix64 stream: 64-bit
state advanced by the golden-gamma constant, output run through the standard
two-multiply finalizer. The algorithm is pure integer arithmetic, so a given
seed yields the same draws on every platform and in every language that
implements it.

Streams are derived, never shared. ``derive_stream(seed, label)`` hashes the
text label with FNV-1a 64, XORs it into the root seed and mixes once, so each
consumer ("split", "generate", "mlp", "tree/7", ...) gets an independent
stream and adding a new consumer never perturbs existing ones.

Derivation map used by the pipeline:

    root seed -> "split"       stratified partition shuffles
              -> "generate"    synthetic cohort sampling
              -> "mlp"         weight init and epoch shuffles
              -> "tree/<i>"    bootstrap and feature draws for forest tree i

``SplitMix64.below_array`` makes a run of ``below`` draws, with one bound or
one bound per draw, in one numpy computation, with the same values and the
same final state. So a forest's bootstrap sample is one call, and so are the
draws of an epoch's shuffle.

``SplitMix64.normals`` makes a run of standard normals by Box-Muller, each
from two consecutive outputs: u1 = ((u >> 11) + 1) / 2**53, which lies in
(0, 1] so its log is finite, then u2 = (u >> 11) / 2**53, and the normal
sqrt(-2 log u1) cos(2 pi u2). numpy computes the outputs and both uniforms,
which are exact; ``math`` computes the square root, log and cosine of each
pair, because numpy's transcendentals need not give the same bits. Both
methods take their outputs from one numpy form of the mixer.
"""

from __future__ import annotations

import math

import numpy as np

STREAM_VERSION = 1

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class SplitMix64:
    """SplitMix64 stream. State is a single 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1), 53 bits of precision."""
        return (self.next_u64() >> 11) / 9007199254740992.0

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection of the biased tail."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def _outputs(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of next_u64 as one uint64 array; the
        state advances past them. The i-th output depends only on
        ``state + i * gamma``, so all are computed at once."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    def below_array(self, n, count: int | None = None) -> np.ndarray:
        """Draws of ``below(b)`` for each bound b of ``n`` in turn, as one
        uint64 array, leaving the state where those calls of ``below`` would.

        ``n`` is one bound, drawn from ``count`` times, or an array of bounds,
        one draw each. If an output lands in its bound's rejected tail (about
        one in 1e16 at the pipeline's sizes), the draws are made one by one
        instead.
        """
        bounds = np.asarray(n).reshape(-1)
        if count is None:
            count = bounds.size
        if bounds.size and bounds.min() < 1:
            raise ValueError("below_array() needs every bound >= 1")
        bounds = bounds.astype(np.uint64)
        start = self._state
        z = self._outputs(count)
        # below(b) rejects u >= 2**64 - 2**64 % b, that is u > ~(2**64 % b),
        # and 2**64 % b is (0 - b) % b in wrapping uint64 arithmetic
        if (z > ~((np.uint64(0) - bounds) % bounds)).any():
            self._state = start
            return np.array([self.below(int(b)) for b in np.broadcast_to(bounds, count)],
                            dtype=np.uint64)
        return z % bounds

    def normals(self, count: int) -> list:
        """The next ``count`` standard normals by Box-Muller, as Python
        floats, two outputs each (see the module docstring)."""
        u = self._outputs(2 * count) >> np.uint64(11)
        u1 = ((u[0::2] + np.uint64(1)) / 9007199254740992.0).tolist()
        u2 = (u[1::2] / 9007199254740992.0).tolist()
        sqrt, log, cos, two_pi = math.sqrt, math.log, math.cos, 2.0 * math.pi
        return [sqrt(-2.0 * log(a)) * cos(two_pi * b) for a, b in zip(u1, u2)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down: index i
        swaps with below(i + 1), all of the draws made by one below_array."""
        last = len(items) - 1
        draws = self.below_array(np.arange(last + 1, 1, -1)).tolist()
        for i, j in zip(range(last, 0, -1), draws):
            items[i], items[j] = items[j], items[i]


def derive_stream(seed: int, label: str) -> SplitMix64:
    """Independent child stream for (seed, label)."""
    child = SplitMix64(seed ^ fnv1a64(label))
    return SplitMix64(child.next_u64())

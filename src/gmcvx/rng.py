"""Deterministic counter-based random streams.

A 64-bit counter keyed by (seed, stream) is hashed with the splitmix64
finalizer; uniforms come from the top 53 bits and normals from the
Box-Muller transform. Identical call sequences reproduce bit-identical
output on every platform and independent streams are cheap to derive, so
multistart searches and Monte Carlo batches stay reproducible no matter
how work is scheduled.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0**-53


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _mix_int(x: int) -> int:
    return int(_mix64(np.array([x & _MASK64], dtype=np.uint64))[0])


@lru_cache(maxsize=1024)  # bounded: a process may walk through many seeds
def _derive_key(seed: int, stream: int) -> int:
    k = (seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & _MASK64
    k = _mix_int(k)
    k ^= _mix_int((stream * 0xBF58476D1CE4E5B9 + 0x2545F4914F6CDD1D) & _MASK64)
    return _mix_int(k & _MASK64)


class CounterRng:
    """Counter-mode generator; the whole state is (key, position)."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._key = np.uint64(_derive_key(self.seed, self.stream))
        self._pos = 0

    def spawn(self, stream: int) -> "CounterRng":
        """Independent stream derived from the same seed."""
        return CounterRng(self.seed, self.stream * 0x10001 + 1 + int(stream))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._pos, self._pos + n, dtype=np.uint64)
        self._pos += n
        return _mix64(idx * _GAMMA + self._key)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1)."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        m = (n + 1) // 2
        u1 = 1.0 - self.uniforms(m)  # in (0, 1], safe for log
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(ang), r * np.sin(ang)])
        return out[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def choice(self, weights: np.ndarray, n: int) -> np.ndarray:
        """n categorical draws from positive weights."""
        w = np.asarray(weights, dtype=float)
        cum = np.cumsum(w)
        u = self.uniforms(n) * cum[-1]
        return np.minimum(np.searchsorted(cum, u, side="right"), len(w) - 1)

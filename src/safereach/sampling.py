"""Deterministic low-discrepancy sampling.

Every diagnostic in this package samples through these helpers so that
results are reproducible bit-for-bit for a fixed seed.  The generator is a
scrambled Halton sequence: the scramble permutations are drawn once from a
seeded PCG64 stream, after which point generation is pure arithmetic.

The stream is owned here, in Python integer arithmetic: ``Stream(seed)``
equals numpy's ``default_rng(seed)`` bit for bit, that is SeedSequence's
pool mixing, PCG64 (O'Neill's 128-bit LCG with XSL-RR output), the buffered
32-bit draws, and ``Generator.permutation`` and ``Generator.uniform``.  NEP 19
lets numpy change its ``Generator`` streams between versions; this one does
not change, and the package never loads ``numpy.random``.
"""

from __future__ import annotations

import operator

import numpy as np

_SKIP = 20      # leading Halton points dropped

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341   # PCG's 128-bit LCG multiplier


def _seed_words(seed) -> list:
    """numpy's SeedSequence(seed).generate_state(4, uint64): the seed's
    32-bit words, low first, hashed into a pool of four words, which is
    hashed again into eight 32-bit words read as four 64-bit ones."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got {seed}")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The PCG64 stream of numpy's ``default_rng(seed)``, bit for bit: a
    negative seed raises ValueError and a non-integer one TypeError, as
    numpy does."""

    def __init__(self, seed):
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (w[0] << 64 | w[1])) & _MASK128
        self._next64()
        self._half = None   # the high word of a 64-bit draw, not yet used

    def _next64(self) -> int:
        """Step the LCG, then output XSL-RR of the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        r = s >> 122
        return (x >> r | x << (-r & 63)) & _MASK64

    def _next32(self) -> int:
        """The low word of a fresh 64-bit draw, then its high word."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def permutation(self, n: int) -> np.ndarray:
        """``Generator.permutation(n)`` for n <= 2^32: Fisher-Yates on
        arange(n) from the top, each swap index drawn by masked rejection
        from 32-bit draws."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)

    def uniform(self, lo: float, hi: float, size: tuple) -> np.ndarray:
        """``Generator.uniform(lo, hi, size)``: lo + (hi - lo) * u per
        element in C order, u the top 53 bits of a 64-bit draw over 2^53."""
        count = int(np.prod(size))
        u = np.array([self._next64() >> 11 for _ in range(count)], dtype=float) * 2.0 ** -53
        return (lo + (hi - lo) * u).reshape(size)


def _radical_inverse(indices: np.ndarray, base: int, perm: np.ndarray) -> np.ndarray:
    x = np.zeros(len(indices), dtype=float)
    inv = 1.0 / base
    scale = inv
    idx = indices.copy()
    while idx.max(initial=0) > 0:
        digits = idx % base
        x += perm[digits] * scale
        idx //= base
        scale *= inv
    return x


def halton_bases(dim: int) -> list:
    """The first dim primes, the Halton bases of dimensions 1 to dim."""
    bases, k = [], 2
    while len(bases) < dim:
        if all(k % p for p in bases):
            bases.append(k)
        k += 1
    return bases


def halton(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """Scrambled Halton points in the unit cube, shape (count, dim); each
    column's scramble is drawn after those before it, so none depends on dim."""
    rng = Stream(seed)
    cols = []
    idx = np.arange(_SKIP, _SKIP + count, dtype=np.int64)
    for base in halton_bases(dim):
        perm = rng.permutation(base)
        # keep 0 fixed so the sequence stays a net
        perm = np.concatenate(([0], perm[perm != 0]))
        cols.append(_radical_inverse(idx, base, perm))
    return np.column_stack(cols)


def grid_points(lo, hi, per_axis: int) -> np.ndarray:
    """Regular grid of per_axis points per axis over the box [lo, hi]."""
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(len(lo))]
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def box_points(lo, hi, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points filling the box [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    u = halton(count, len(lo), seed=seed)
    return lo + u * (hi - lo)


def ball_points(center, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in the closed ball of given center/radius."""
    center = np.asarray(center, dtype=float)
    n = len(center)
    u = halton(count, n + 1, seed=seed)
    dirs = _to_directions(u[:, :n], n)
    radii = radius * u[:, n] ** (1.0 / n)
    return center + dirs * radii[:, None]


def sphere_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Unit directions in R^n; uniform angles for n=2, LD for higher n."""
    if n == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    if n == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    u = halton(count, n, seed=seed)
    g = _gaussianize(u)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def simplex_weights(k: int, count: int, seed: int = 0) -> np.ndarray:
    """Nonnegative weight vectors summing to 1, vertices first."""
    out = [np.eye(k)[i] for i in range(min(k, count))]
    if count > k:
        u = halton(count - k, k, seed=seed)
        e = -np.log(np.clip(1.0 - u, 1e-16, 1.0))
        out.extend(e / e.sum(axis=1, keepdims=True))
    return np.asarray(out[:count])


def _to_directions(u: np.ndarray, n: int) -> np.ndarray:
    if n == 2:
        ang = 2.0 * np.pi * u[:, 0]
        return np.column_stack([np.cos(ang), np.sin(ang)])
    g = _gaussianize(u)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _gaussianize(u: np.ndarray) -> np.ndarray:
    # inverse error function via numpy-compatible rational approximation
    from math import sqrt

    x = 2.0 * np.clip(u, 1e-12, 1.0 - 1e-12) - 1.0
    # Winitzki approximation of erfinv, adequate for direction sampling
    a = 0.147
    ln = np.log(1.0 - x * x)
    t1 = 2.0 / (np.pi * a) + ln / 2.0
    g = np.sign(x) * np.sqrt(np.sqrt(t1 * t1 - ln / a) - t1)
    return g * sqrt(2.0)

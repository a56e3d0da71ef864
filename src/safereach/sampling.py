"""Deterministic low-discrepancy sampling.

Every diagnostic in this package samples through these helpers so that
results are reproducible bit-for-bit for a fixed seed.  The generator is a
scrambled Halton sequence: the scramble permutations are drawn once from a
seeded PCG64 stream, after which point generation is pure arithmetic.
"""

from __future__ import annotations

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SKIP = 20      # leading Halton points dropped


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


def halton(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """Scrambled Halton points in the unit cube, shape (count, dim)."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    rng = np.random.default_rng(seed)
    cols = []
    idx = np.arange(_SKIP, _SKIP + count, dtype=np.int64)
    for d in range(dim):
        base = _PRIMES[d]
        perm = rng.permutation(base)
        # keep 0 fixed so the sequence stays a net
        perm = perm[perm != 0]
        perm = np.concatenate(([0], perm))
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

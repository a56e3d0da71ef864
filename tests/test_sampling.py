"""sampling.Stream against numpy.random, which only the tests load: the
owned stream equals numpy's default_rng(seed) bit for bit, and halton draws
the scramble that it drew from numpy before."""

import numpy as np
import pytest

from safereach.sampling import _PRIMES, _SKIP, Stream, _radical_inverse, halton

# past 2^32 a seed has several 32-bit words, and past 2^128 more words than
# SeedSequence's pool of four
SEEDS = list(range(200)) + [2**32 - 1, 2**32, 2**64, 2**128, 10**50]


@pytest.mark.parametrize("seed", SEEDS[::10] + SEEDS[200:])
def test_raw_draws_match_pcg64(seed):
    stream = Stream(seed)
    assert [stream._next64() for _ in range(40)] == \
        np.random.PCG64(seed).random_raw(40).tolist()


def test_permutations_of_every_base_match_in_stream_order():
    for seed in SEEDS:
        ours, theirs = Stream(seed), np.random.default_rng(seed)
        for base in _PRIMES:
            assert ours.permutation(base).tolist() == theirs.permutation(base).tolist(), \
                (seed, base)


@pytest.mark.parametrize("lo, hi, size", [(-1.0, 1.0, (10, 2, 3)), (-3.5, 2.25, (7,)),
                                          (0.0, 1e-3, (4, 5))])
def test_uniform_matches(lo, hi, size):
    for seed in SEEDS:
        ours = Stream(seed).uniform(lo, hi, size)
        theirs = np.random.default_rng(seed).uniform(lo, hi, size=size)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), seed


def test_uniform_skips_the_buffered_half_word():
    # a 32-bit draw keeps the high half of its 64-bit draw for the next one;
    # uniform draws whole 64-bit words past it, as numpy does
    for seed in SEEDS[:50]:
        ours, theirs = Stream(seed), np.random.default_rng(seed)
        for base in (2, 5):
            assert ours.permutation(base).tolist() == theirs.permutation(base).tolist()
            assert ours.uniform(-1.0, 1.0, (3,)).tobytes() == \
                theirs.uniform(-1.0, 1.0, size=3).tobytes()


def _numpy_halton(count, dim, seed):
    """halton with its scramble drawn from numpy.random, as it was."""
    rng = np.random.default_rng(seed)
    idx = np.arange(_SKIP, _SKIP + count, dtype=np.int64)
    cols = []
    for base in _PRIMES[:dim]:
        perm = rng.permutation(base)
        perm = np.concatenate(([0], perm[perm != 0]))
        cols.append(_radical_inverse(idx, base, perm))
    return np.column_stack(cols)


@pytest.mark.parametrize("dim", range(1, len(_PRIMES) + 1))
def test_halton_matches_the_numpy_scramble(dim):
    for seed in (0, 1, 7, 11, 2**40 + 3):
        for count in (1, 17, 200):
            assert halton(count, dim, seed).tobytes() == _numpy_halton(count, dim, seed).tobytes()


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError)])
def test_bad_seeds_raise_what_numpy_raises(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        Stream(seed)

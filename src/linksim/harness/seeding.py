"""Stable per-trial seed derivation.

Trial seeds are derived by chaining splitmix64 steps over
(master_seed, index_0, index_1, ...):

    x = master
    for v in indices: x = splitmix64(x XOR v)

where splitmix64 is the standard finalizer
(x += 0x9E3779B97F4A7C15; x ^= x>>30; x *= 0xBF58476D1CE4E5B9;
 x ^= x>>27; x *= 0x94D049BB133111EB; x ^= x>>31), all mod 2^64.
The mapping is documented here because byte-identical reproducibility of
every Monte Carlo output depends on it, independent of execution order or
CPU count: each trial's seeds, hence its result, are the same on whatever
share of a run it falls (``linksim.harness.workers`` states the split).

Because each step only reads the running value, a seed chains: the seed
of a prefix of the indices is the master of the rest,

    stable_seed(stable_seed(m, i, t), s) == stable_seed(m, i, t, s)

so a caller that derives many seeds below one coordinate hashes that
coordinate once (a sweep hashes its point once, then its trials and their
salts a whole array at a time, with ``stable_seeds``).
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def stable_seed(master_seed: int, *indices: int) -> int:
    """64-bit seed for a (point, trial, ...) coordinate of a run."""
    x = master_seed & _MASK
    for v in indices:
        x = _splitmix64(x ^ (v & _MASK))
    return x


def stable_seeds(masters: int | np.ndarray, index: int | np.ndarray
                 ) -> np.ndarray:
    """``stable_seed(m, i)`` for every master ``m`` and index ``i``, in
    [0, 2**64) and broadcast against each other, as a ``uint64`` array.

    One splitmix64 step in ``uint64`` array arithmetic, which wraps mod
    2**64 as ``_splitmix64``'s ``& _MASK`` does, silently (numpy warns only
    on scalar overflow, so every operand is an array of at least one item).
    """
    x = np.array(masters, dtype=np.uint64, ndmin=1) ^ np.array(
        index, dtype=np.uint64, ndmin=1)
    x += _GAMMA
    x ^= x >> 30
    x *= _MIX_1
    x ^= x >> 27
    x *= _MIX_2
    x ^= x >> 31
    return x


def stable_uniform(master_seed: int, *indices: int) -> float:
    """Deterministic uniform in [0, 1) for cheap per-event coin flips."""
    return stable_seed(master_seed, *indices) / 2.0 ** 64

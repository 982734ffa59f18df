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
thread count.

Because each step only reads the running value, a seed chains: the seed
of a prefix of the indices is the master of the rest,

    stable_seed(stable_seed(m, i, t), s) == stable_seed(m, i, t, s)

so a caller that derives many seeds below one coordinate hashes that
coordinate once (a sweep hashes its point once, each trial once, then each
salt).
"""
from __future__ import annotations

_MASK = (1 << 64) - 1


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


def stable_uniform(master_seed: int, *indices: int) -> float:
    """Deterministic uniform in [0, 1) for cheap per-event coin flips."""
    return stable_seed(master_seed, *indices) / 2.0 ** 64

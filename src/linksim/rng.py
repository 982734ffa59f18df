"""numpy's seeded generators for a group of seeds at once, bit for bit.

``np.random.default_rng(seed)`` hashes the seed through numpy's
``SeedSequence`` and builds a ``PCG64`` from the result: about 21 us a
seed on a 2-vCPU x86-64 host with numpy 2.4 and Python 3.11, where setting
a ready state on an existing generator takes about 3 us.  This module
derives the states of a whole group of seeds in one batched pass,
reproducing:

- ``SeedSequence`` with the default pool of four 32-bit words (numpy's
  ``random/bit_generator.pyx``): ``mix_entropy`` hashes the entropy words
  into the pool and then every pool word into every other one, and
  ``generate_state(4, np.uint64)`` hashes the pool out into four 64-bit
  words, little-endian word pairs.  Here these run as ``uint32`` array
  arithmetic on a ``(4, seeds)`` pool, whose wrapping is silent (numpy
  warns only on scalar overflow); the three destination words of each
  source word are mixed in one operation.
- ``PCG64``'s seeding, the setseq-128 initialisation of O'Neill's PCG
  (HMC-CS-2014-0905): with the first two words as the initial state and
  the last two as the stream, ``inc = 2 * stream + 1``, step, add the
  initial state, step, where a step is ``state * multiplier + inc`` mod
  2**128.  This runs in Python ints.

A seed is an integer in [0, 2**64): every seed the program makes is a
64-bit ``stable_seed``.  Its entropy is then one or two 32-bit words, and
padding it with zeros to the pool size is exact, because numpy hashes a
zero into each pool word the entropy does not reach.

``tests/test_rng.py`` pins both algorithms against the installed numpy
(``test_states_are_default_rng_states`` and
``test_bits_are_default_rng_integers``), so a numpy release that changes
either one fails a test instead of moving result bytes.
"""
from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, calls: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(XOR, multiplier) columns of a hash's first ``calls`` calls: call k
    XORs with the k-th constant of ``init * mult**k`` and multiplies by the
    next."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hash(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's hashmix of ``words`` broadcast against its constants, into a
    new array."""
    hashed = words ^ xor
    hashed *= mul
    hashed ^= hashed >> _XSHIFT
    return hashed


# mix_entropy hashes each pool word once (calls 0-3), then each source word
# once per other word, in ascending order (source word s: calls 4 + 3s on);
# a seed's entropy reaches pool words 0 and 1 only
_FILL_XOR, _FILL_MUL = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_HASHED_ZEROS = _hash(np.zeros((2, 1), dtype=np.uint32), _FILL_XOR[2:_POOL],
                      _FILL_MUL[2:_POOL])
# (source word, destination words, their XOR and multiplier columns)
_MIX_STEPS = [(src, np.array([d for d in range(_POOL) if d != src]),
               _FILL_XOR[k: k + _POOL - 1], _FILL_MUL[k: k + _POOL - 1])
              for src, k in zip(range(_POOL), range(_POOL, _POOL * _POOL, _POOL - 1))]
# generate_state(4, np.uint64) hashes the pool out twice round, as
# (round, pool word) columns
_OUT_XOR, _OUT_MUL = (c.reshape(2, _POOL, 1)
                      for c in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))


def pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` of every seed."""
    seeds = [operator.index(seed) for seed in seeds]
    if not seeds:
        return []
    if min(seeds) < 0 or max(seeds) >> 64:
        raise ValueError("seeds must be integers in [0, 2**64)")
    # the seeds' low and high 32-bit words, zero-padded to the pool size
    entropy = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool = np.empty((_POOL, len(seeds)), dtype=np.uint32)
    pool[:2] = _hash(entropy, _FILL_XOR[:2], _FILL_MUL[:2])
    pool[2:] = _HASHED_ZEROS
    for src, dst, xor, mul in _MIX_STEPS:
        hashed = _hash(pool[src], xor, mul)
        hashed *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    # one row of four little-endian 64-bit words per seed
    words = _hash(pool, _OUT_XOR, _OUT_MUL).reshape(2 * _POOL, -1).T
    words = np.ascontiguousarray(words, dtype="<u4").view("<u8").tolist()
    states = []
    for state_hi, state_lo, stream_hi, stream_lo in words:
        inc = (stream_hi << 65 | stream_lo << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


class SeededGenerators:
    """``np.random.default_rng(seed)`` of each of a group of seeds, played
    in turn on one reused ``Generator``.

    ``gens[r]`` puts the shared generator into row r's state and returns
    it; it is row r's generator until the next ``gens[...]``.
    ``gens.keep(r)`` records where row r's draws have left it, so that its
    next ``gens[r]`` goes on from there instead of from its seed.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        self._states = pcg64_states(seeds)
        self._rng = np.random.Generator(np.random.PCG64(0))

    def __getitem__(self, row: int) -> np.random.Generator:
        self._rng.bit_generator.state = self._states[row]
        return self._rng

    def keep(self, row: int) -> None:
        self._states[row] = self._rng.bit_generator.state


def raw_bits(raw: np.ndarray) -> np.ndarray:
    """The ``integers(0, 2)`` draws that the PCG64 outputs ``raw`` (from
    ``random_raw``) serve, two per output along the last axis, bit for bit.

    For a range of two, ``integers`` runs Lemire's method on 32-bit draws
    with a rejection threshold of 0, so each bit is the top bit of one
    draw; PCG64 serves 32-bit draws as the low, then the high half of one
    64-bit output.  So the bits are the top bit of each 32-bit half of
    ``raw``, low half first, as ``uint32`` 0s and 1s.
    """
    return raw.astype("<u8", copy=False).view("<u4") >> 31


def random_bits(seeds: Sequence[int], n_bits: int) -> np.ndarray:
    """``np.random.default_rng(seed).integers(0, 2, n_bits, dtype=np.int64)``
    as one ``uint8`` row per seed, bit for bit: the ``raw_bits`` of
    ``random_raw((n_bits + 1) // 2)``, cut to ``n_bits``.
    """
    gens = SeededGenerators(seeds)
    raw = np.empty((len(seeds), (n_bits + 1) // 2), dtype=np.uint64)
    for r, row in enumerate(raw):
        row[:] = gens[r].bit_generator.random_raw(len(row))
    return raw_bits(raw)[:, :n_bits].astype(np.uint8)

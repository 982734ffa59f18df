"""The batched seeding reproduces numpy's own, so a numpy release that
changes SeedSequence, PCG64's seeding or ``integers`` fails here instead of
moving result bytes."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksim.rng import SeededGenerators, pcg64_states, random_bits

SEEDS = st.integers(0, 2 ** 64 - 1)
# one and two entropy words, and the edges of each
EDGES = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)


def default_bits(seed, n):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n, dtype=np.int64).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=40))
@example(seeds=list(EDGES))
def test_states_are_default_rng_states(seeds):
    assert pcg64_states(seeds) == [np.random.default_rng(seed).bit_generator.state
                                   for seed in seeds]


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=8),
       n_bits=st.integers(1, 300))
@example(seeds=list(EDGES), n_bits=1)
@example(seeds=list(EDGES), n_bits=1024)
@example(seeds=list(EDGES), n_bits=1025)
def test_bits_are_default_rng_integers(seeds, n_bits):
    bits = random_bits(seeds, n_bits)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, [default_bits(seed, n_bits) for seed in seeds])


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 96 + 5])
def test_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(ValueError):
        pcg64_states([3, seed])
    with pytest.raises(ValueError):
        random_bits([seed], 8)


def test_no_seeds():
    assert pcg64_states([]) == []
    assert random_bits([], 8).shape == (0, 8)


def test_a_kept_row_goes_on_where_it_left_off():
    gens = SeededGenerators([5, 6])
    first = gens[0].random(3)
    gens.keep(0)
    other = gens[1].random(2)
    reference = np.random.default_rng(5)
    assert np.array_equal(first, reference.random(3))
    assert np.array_equal(gens[0].random(4), reference.random(4))
    assert np.array_equal(other, np.random.default_rng(6).random(2))
    # a row that is not kept starts again from its seed
    assert np.array_equal(gens[1].random(2), other)

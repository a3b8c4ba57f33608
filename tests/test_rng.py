"""`rng.PCG64` draws what `np.random.default_rng(seed).uniform` draws, bit
for bit, and takes the seeds numpy takes."""

import numpy as np
import pytest
from conftest import assert_bits_equal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowgeo.rng import PCG64

SHAPES = [(1,), (3, 3), (36, 48), (72, 96)]
BOUNDS = [(0.5, 2.0), (0.7, 1.4)]


@st.composite
def seeds(draw):
    seed = draw(st.integers(0, 2**256))
    kind = draw(st.sampled_from([int, np.int64, np.uint64]))
    if kind is np.int64 and seed < 2**63 or kind is np.uint64 and seed < 2**64:
        return kind(seed)
    return seed


@given(seed=seeds(), shape=st.sampled_from(SHAPES), first=st.sampled_from(BOUNDS),
       second=st.sampled_from(BOUNDS))
@example(seed=2**32 - 1, shape=(3, 3), first=BOUNDS[0], second=BOUNDS[1])
@example(seed=2**32, shape=(3, 3), first=BOUNDS[0], second=BOUNDS[1])
@example(seed=2**64, shape=(3, 3), first=BOUNDS[0], second=BOUNDS[1])
@example(seed=2**128, shape=(3, 3), first=BOUNDS[0], second=BOUNDS[1])
@example(seed=np.int64(2**63 - 1), shape=(1,), first=BOUNDS[1], second=BOUNDS[0])
@example(seed=np.uint64(2**64 - 1), shape=(1,), first=BOUNDS[1], second=BOUNDS[0])
@settings(max_examples=60, deadline=None)
def test_uniform_matches_numpy(seed, shape, first, second):
    """Two draws in a row on one generator, as numpy's `Generator` makes
    them."""
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for low, high in (first, second):
        assert_bits_equal(ours.uniform(low, high, shape), theirs.uniform(low, high, size=shape))


@pytest.mark.parametrize("seed", [-1, np.int64(-1), -2**64])
def test_negative_seed(seed):
    with pytest.raises(ValueError, match="^seed must be non-negative"):
        PCG64(seed)

"""substream_normals against the generators spawn_rngs builds.

Substream r of a seed is child r of its SeedSequence fed to PCG64;
substream_normals computes the first normals of many children without a
generator per child, and every comparison here is bitwise.
"""

import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lattice_calc.seeding import spawn_rngs, substream_normals

# 2^128 + 5 has five 32-bit words, one more than the entropy pool holds;
# seed + 7919 n are the per-level seeds estimate_constant gives maximize_ratio
SEEDS = ([0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 2**200 + 9]
         + [s + 7919 * n for s in (0, 7) for n in (1, 2, 3, 16)])
COUNTS = [1, 2, 31, 32, 33, 64]
DIMS = [1, 3, 9]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _oracle(seed, count, indices, dim, blocks=1):
    """Rows of ``blocks`` successive standard_normal(dim) draws of the
    generators of ``indices`` among ``spawn_rngs(seed, count)``."""
    rngs = spawn_rngs(seed, count)
    draws = {r: np.concatenate([rngs[r].standard_normal(dim)
                                for _ in range(blocks)])
             for r in sorted(set(indices))}
    return np.array([draws[r] for r in indices]).reshape(len(indices),
                                                         blocks * dim)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_first_draws_match_spawned_generators(seed, count):
    for dim in DIMS:
        got = substream_normals(seed, range(count), dim)
        assert got.shape == (count, dim)
        np.testing.assert_array_equal(
            _bits(got), _bits(_oracle(seed, count, range(count), dim)))


@pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5, 7 + 7919 * 3])
@pytest.mark.parametrize("indices", [[5], [1, 2], [31, 4, 17, 4], [63, 0, 40]])
@pytest.mark.parametrize("blocks", [2, 3])
def test_later_blocks_and_index_subsets_match(seed, indices, blocks):
    for dim in DIMS:
        got = substream_normals(seed, indices, blocks * dim)
        np.testing.assert_array_equal(
            _bits(got), _bits(_oracle(seed, 64, indices, dim, blocks)))


def test_no_indices_give_no_rows():
    assert substream_normals(3, [], 4).shape == (0, 4)


def test_negative_seed_raises_what_spawn_rngs_raises():
    with pytest.raises(Exception) as expected:
        spawn_rngs(-1, 3)
    with pytest.raises(type(expected.value),
                       match=re.escape(str(expected.value))):
        substream_normals(-1, range(3), 2)


@seed(13)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**160), st.lists(st.integers(0, 99), min_size=1,
                                         max_size=12),
       st.integers(1, 7), st.integers(1, 3))
def test_substream_normals_property(root, indices, dim, blocks):
    got = substream_normals(root, indices, blocks * dim)
    np.testing.assert_array_equal(
        _bits(got), _bits(_oracle(root, 100, indices, dim, blocks)))

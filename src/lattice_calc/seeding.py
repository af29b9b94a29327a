"""Deterministic random-stream helpers.

Every stochastic routine in the package draws from substreams spawned off a
single integer seed: substream r is child r of ``np.random.SeedSequence(seed)``
fed to numpy's default PCG64 generator, so results are reproducible for a
fixed seed no matter how the work is batched or scheduled.

``spawn_rngs`` returns the substreams as generators, for callers that draw
from a stream again and again.  ``substream_normals`` returns the first
normals of many substreams at once, bit for bit what their generators give,
without a ``SeedSequence`` per substream: it takes the parent's entropy pool
from numpy, mixes each child's spawn key into it and hashes out the child's
PCG64 seed words, vectorized over the children, then hands each child's
words to a PCG64 through a stand-in seed sequence, so numpy's own PCG
seeding runs in C and the Python work per child is a bit generator, its
``Generator`` and the draw.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# numpy's SeedSequence hashes (bit_generator.pyx); arithmetic is mod 2^32
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent generators, one per substream index."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]


def _hash_constants(init: int, mult: int, start: int, count: int):
    """Xor and multiplier of hashes ``start`` .. ``start + count - 1``: hash
    i xors with init * mult^i and multiplies by the next constant."""
    consts = np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF
                       for i in range(start, start + count + 1)],
                      dtype=np.uint32)
    consts.setflags(write=False)
    return consts[:-1], consts[1:]


# word 4j + d of generate_state hashes pool word d with constant 4j + d
_STATE_XOR, _STATE_MUL = (a.reshape(2, 4) for a in
                          _hash_constants(_INIT_B, _MULT_B, 0, 8))


@functools.lru_cache(maxsize=8)
def _spawn_key_hashes(words: int):
    """Hash constants that mix a one-word spawn key into the pool of a seed
    of ``words`` 32-bit words: filling the pool takes 4 hashes, cross-mixing
    it 12, and each entropy word past the fourth 4 more."""
    return _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, words - 4), 4)


@functools.cache
def _preset_seed():
    """A seed sequence whose state is the words it holds: PCG64 seeds itself
    from ``generate_state(4, np.uint64)``, which for a child is its hashed
    words.  Built on first use, as numpy imports ``numpy.random`` only when
    it is used."""
    class Preset(np.random.bit_generator.ISeedSequence):
        words = None

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Preset


def substream_normals(seed: int, indices, size: int) -> np.ndarray:
    """Row i is the first ``size`` standard normals of substream
    ``indices[i]``, bit for bit ``spawn_rngs(seed, count)[indices[i]]
    .standard_normal(size)`` for any ``count`` above the index.  Successive
    ``standard_normal(d)`` draws of that generator are the successive
    blocks of ``d`` of a longer row."""
    parent = np.random.SeedSequence(seed)  # numpy's checks of the seed
    words = max(1, -(-operator.index(seed).bit_length() // 32))
    key_xor, key_mul = _spawn_key_hashes(words)
    # a child's pool is its parent's with the spawn key (index,) mixed in
    mixed = np.asarray(indices, dtype=np.uint32)[:, None] ^ key_xor
    mixed *= key_mul
    mixed ^= mixed >> 16
    mixed *= _MIX_R
    pool = parent.pool * _MIX_L - mixed
    pool ^= pool >> 16
    # generate_state(4, np.uint64): 8 hashed words, paired little-endian
    state = pool[:, None, :] ^ _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> 16
    words64 = state.reshape(-1, 8).astype("<u4", copy=False).view("<u8")
    words64 = words64.astype(np.uint64, copy=False)  # PCG64 reads native words
    seq = _preset_seed()()
    pcg64, generator = np.random.PCG64, np.random.Generator
    out = np.empty((len(words64), size))
    for row, child in zip(out, words64):
        seq.words = child
        generator(pcg64(seq)).standard_normal(out=row)
    return out

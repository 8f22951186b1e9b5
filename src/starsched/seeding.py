"""The generators of ``np.random.default_rng(e)`` for many entropies at once.

``default_rng(e)`` builds a ``SeedSequence(e)``, which hashes e's 32-bit
words into a pool of four words, and seeds a ``PCG64`` with the pool's
``generate_state(4, np.uint64)``.  The hash constants advance the same way
whatever the words are, so the states of many entropies with the same word
count come out of one pass of uint32 array arithmetic, and each state seeds
the same ``PCG64`` through a minimal ``ISeedSequence``: the same streams as
``default_rng``, with no ``SeedSequence`` built per entropy.

numpy is imported only inside the functions, so importing this module (as the
CLI does) does not load it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from itertools import islice

# Entropies whose states are computed together: memory stays fixed however
# many runs or trials draw.
CHUNK = 1024

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
XSHIFT = 16
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _append_words(entropy, out: list[int], integer) -> bool:
    """Append the uint32 words SeedSequence assembles from an int or a
    (nested) tuple or list of ints, least significant first; False if it is
    not one of those or holds a negative int."""
    if isinstance(entropy, (tuple, list)):
        for e in entropy:
            if not _append_words(e, out, integer):
                return False
        return True
    if not isinstance(entropy, (int, integer)) or entropy < 0:
        return False
    n = int(entropy)
    out.append(n & MASK32)
    while n := n >> 32:
        out.append(n & MASK32)
    return True


def _mix(words):
    """SeedSequence's pool and ``generate_state(4, np.uint64)`` for each row
    of a (rows, word count) uint32 array, as a (rows, 4) uint64 array."""
    import numpy as np

    u32 = np.uint32
    shift = u32(XSHIFT)
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * MULT_A & MASK32
        value = value * u32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        result = u32(MIX_MULT_L) * x - u32(MIX_MULT_R) * y
        return result ^ (result >> shift)

    rows, n_words = words.shape
    zero = np.zeros(rows, dtype=u32)
    pool = [hashmix(words[:, i] if i < n_words else zero) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, n_words):
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_const = INIT_B
    state = []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ u32(hash_const)
        hash_const = hash_const * MULT_B & MASK32
        value = value * u32(hash_const)
        state.append((value ^ (value >> shift)).astype(np.uint64))
    # little-endian pairs of words, as generate_state views them
    return np.stack(
        [state[j] | (state[j + 1] << np.uint64(32)) for j in range(0, 8, 2)], axis=1
    )


def generate_states(entropies) -> np.ndarray:
    """``np.random.SeedSequence(e).generate_state(4, np.uint64)`` for each
    entropy e, as the rows of a (len, 4) uint64 array.

    A non-negative int, or a nested tuple or list of them, is hashed with
    the other entropies of its word count.  Any other entropy goes to
    ``np.random.SeedSequence`` itself, so a seed that numpy rejects (a
    negative int, a float) raises numpy's own error, in order.
    """
    import numpy as np

    entropies = list(entropies)
    states = np.empty((len(entropies), 4), dtype=np.uint64)
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for row, entropy in enumerate(entropies):
        words: list[int] = []
        if _append_words(entropy, words, np.integer):
            rows, group = groups.setdefault(len(words), ([], []))
            rows.append(row)
            group.append(words)
        else:
            states[row] = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    for n_words, (rows, group) in groups.items():
        states[rows] = _mix(np.array(group, dtype=np.uint32).reshape(len(rows), n_words))
    return states


def states(entropies: Iterable) -> Iterator[np.ndarray]:
    """The rows of ``generate_states(entropies)``, computed ``CHUNK``
    entropies at a time."""
    it = iter(entropies)
    while chunk := list(islice(it, CHUNK)):
        yield from generate_states(chunk)


@functools.cache
def _factory():
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        """A seed sequence that hands PCG64 one precomputed state."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return np.random.Generator, np.random.PCG64, State, np.ndarray, np.dtype(np.uint64)


def generator(state) -> np.random.Generator:
    """The generator ``np.random.default_rng(e)`` returns, from e's row of
    ``generate_states``; each call starts the stream afresh."""
    generator_cls, pcg64, seed_seq, ndarray, uint64 = _factory()
    # PCG64 reads the four words through a raw pointer to the array's data
    if not (
        isinstance(state, ndarray)
        and state.shape == (4,)
        and state.dtype == uint64
        and state.strides == (8,)
    ):
        raise ValueError("a generator state is a contiguous row of 4 native uint64 words")
    return generator_cls(pcg64(seed_seq(state)))

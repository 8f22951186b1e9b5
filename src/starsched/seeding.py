"""The generators of ``np.random.default_rng(e)`` for many entropies at once.

``default_rng(e)`` builds a ``SeedSequence(e)``, which hashes e's 32-bit
words into a pool of four words, and seeds a ``PCG64`` with the pool's
``generate_state(4, np.uint64)``.  The pool starts as the hashes of e's
first four words, a missing word hashed as 0, and only words past the
fourth mix in after that, so an entropy of at most four words has the state
of its words zero-padded to four.  The hash constants advance the same way
whatever the words are, so the states of many such entropies come out of
one pass of uint32 array arithmetic, and each state seeds the same
``PCG64`` through a minimal ``ISeedSequence``: the same streams as
``default_rng``, with no ``SeedSequence`` built per entropy.

The entropies the library draws from, run i of seed s as (s, i) and QCELS
trial k at level j as (seeds[k], j), have at most three words whenever the
seed is below 2^63; a list of those is converted to words in one array
pass.  Any other list goes to ``np.random.SeedSequence`` itself, one
entropy at a time.

numpy is imported only inside the functions, so importing this module (as the
CLI does) does not load it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from itertools import chain, islice

# Entropies whose states are computed together: memory stays fixed however
# many runs or trials draw.
CHUNK = 1024

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
XSHIFT = 16
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _int_words(entropies: list, np):
    """The pools of a list of ints in [0, 2^63 - 1], or of tuples of such
    ints all of one length, as a (4, len) uint32 array taken in one
    conversion, one column per entropy; None for any other list, or if an
    entropy has more than four words.

    SeedSequence splits an int into 32-bit words, least significant first,
    so an int past 2^32 - 1 gives its low word and then its high word.  Each
    column holds its entropy's words in SeedSequence's order, zero-padded to
    the pool of four, which SeedSequence hashes as it hashes the shorter
    entropy.  Bools (Python's and numpy's), floats and nested or ragged
    tuples fail the type and length checks, before numpy could cast them;
    negative ints and ints past 2^63 - 1 fail the range check.
    """
    width = 1
    if set(map(type, entropies)) == {tuple}:
        widths = set(map(len, entropies))
        if len(widths) != 1:
            return None
        (width,) = widths
        entropies = list(chain.from_iterable(entropies))
    if not entropies or not all(
        kind is int or issubclass(kind, np.integer) for kind in set(map(type, entropies))
    ):
        return None
    try:
        ints = np.fromiter(entropies, np.int64, len(entropies))
    except OverflowError:  # an int past 2^63 - 1
        return None
    if ints.min() < 0:
        return None
    # each int's low and high word, the high word kept only if it is not 0
    pairs = ints.astype("<i8", copy=False).view("<u4").reshape(-1, 2 * width)
    kept = pairs != 0
    kept[:, ::2] = True
    n_words = kept.sum(axis=1)
    if n_words.max() > POOL_SIZE:
        return None
    # each entropy's words go to the front of its column, the rest stay 0
    pools = np.zeros((POOL_SIZE, len(pairs)), dtype=np.uint32)
    pools.T[np.arange(POOL_SIZE) < n_words[:, None]] = pairs[kept]
    return pools


@functools.cache
def _schedule():
    """The xor and multiply constants of SeedSequence's hashmix calls, as
    (2, ..., 1) uint32 arrays of columns grouped the way ``_mix``
    broadcasts them: the first hash of the four pool words (2, 4, 1), the
    cross mix of each pool word into the other three (2, 4, 3, 1), and the
    eight output hashes (2, 8, 1)."""
    import numpy as np

    def consts(count, init, mult):
        c = [init]
        for _ in range(count):
            c.append(c[-1] * mult & MASK32)
        pairs = np.array([c[:-1], c[1:]], dtype=np.uint32)[..., None]
        pairs.flags.writeable = False  # every call shares the cached arrays
        return pairs

    a = consts(POOL_SIZE * POOL_SIZE, INIT_A, MULT_A)
    cross = a[:, POOL_SIZE:].reshape(2, POOL_SIZE, POOL_SIZE - 1, 1)
    return a[:, :POOL_SIZE], cross, consts(2 * POOL_SIZE, INIT_B, MULT_B)


def _mix(pools):
    """SeedSequence's pool and ``generate_state(4, np.uint64)`` for each
    column of a (4, columns) uint32 array of pools, as a (columns, 4) uint64
    array."""
    import numpy as np

    shift = np.uint32(XSHIFT)

    def hashmix(value, xor, mul):
        value = value ^ xor
        value *= mul
        value ^= value >> shift
        return value

    def mix(x, y):  # overwrites both
        x *= np.uint32(MIX_MULT_L)
        y *= np.uint32(MIX_MULT_R)
        x -= y
        x ^= x >> shift
        return x

    first, cross, out = _schedule()
    pool = hashmix(pools, *first)
    # a source word stays as it is while it mixes into the other three
    for src in range(POOL_SIZE):
        dst = [i for i in range(POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], *cross[:, src]))
    state = np.ascontiguousarray(hashmix(np.tile(pool, (2, 1)), *out).T)
    # little-endian pairs of words, as generate_state views them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def generate_states(entropies) -> np.ndarray:
    """``np.random.SeedSequence(e).generate_state(4, np.uint64)`` for each
    entropy e, as the rows of a (len, 4) uint64 array.

    A list of ints in [0, 2^63 - 1], or of tuples of such ints all of one
    length (run i of seed s is seeded from (s, i)), with at most four words
    to an entropy, is converted to pools in one array pass and hashed at
    once.  Any other list goes to ``np.random.SeedSequence`` itself, one
    entropy at a time and in order, so a seed that numpy rejects (a negative
    int, a float) raises numpy's own error.
    """
    import numpy as np

    entropies = list(entropies)
    pools = _int_words(entropies, np)
    if pools is not None:
        return _mix(pools)
    return np.array(
        [np.random.SeedSequence(e).generate_state(4, np.uint64) for e in entropies],
        dtype=np.uint64,
    ).reshape(-1, 4)


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

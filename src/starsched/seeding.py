"""The generators of ``np.random.default_rng(e)`` for many entropies at once.

``default_rng(e)`` builds a ``SeedSequence(e)``, which hashes e's 32-bit
words into a pool of four words, and seeds a ``PCG64`` with the pool's
``generate_state(4, np.uint64)``.  The hash constants advance the same way
whatever the words are, so the states of many entropies with the same word
count come out of one pass of uint32 array arithmetic, with the constants
built once per word count, and each state seeds the same ``PCG64`` through
a minimal ``ISeedSequence``: the same streams as ``default_rng``, with no
``SeedSequence`` built per entropy.

The entropies the library draws from, run i of seed s as (s, i) and QCELS
trial k at level j as (seeds[k], j), are tuples of one-word ints whenever
the seed fits a word; a list of those is converted to words in one array
pass.  Any other list is split into words one entropy at a time.

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


def _int_words(entropies: list, np):
    """The uint32 words of a list of ints in [0, 2^32 - 1], or of tuples of
    such ints all of one length, as a (len, width) array taken in one
    conversion; None for any other list.

    Each such int is one word of SeedSequence's, so a row holds an entropy's
    words in SeedSequence's order.  Bools (Python's and numpy's), floats and
    nested or ragged tuples fail the type and length checks, before numpy
    could cast them; negative ints and ints past one word fail the range
    check.
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
        words = np.fromiter(entropies, np.int64, len(entropies))
    except OverflowError:  # an int past 2^63 - 1
        return None
    if not (0 <= words.min() and words.max() <= MASK32):
        return None
    return words.astype(np.uint32).reshape(-1, width)


@functools.cache
def _schedule(n_words: int):
    """The xor and multiply constants of SeedSequence's hashmix calls for
    ``n_words`` words, as (2, ..., 1) uint32 arrays of columns grouped the
    way ``_mix`` broadcasts them: the first hash of the four pool words
    (2, 4, 1), the cross mix of each pool word into the other three
    (2, 4, 3, 1), each further word into the pool (2, n_words - 4, 4, 1),
    and the eight output hashes (2, 8, 1)."""
    import numpy as np

    def consts(count, init, mult):
        c = [init]
        for _ in range(count):
            c.append(c[-1] * mult & MASK32)
        pairs = np.array([c[:-1], c[1:]], dtype=np.uint32)[..., None]
        pairs.flags.writeable = False  # every call shares the cached arrays
        return pairs

    extra = max(0, n_words - POOL_SIZE)
    a = consts(POOL_SIZE * (POOL_SIZE + extra), INIT_A, MULT_A)
    cross = a[:, POOL_SIZE : POOL_SIZE * POOL_SIZE].reshape(2, POOL_SIZE, POOL_SIZE - 1, 1)
    more = a[:, POOL_SIZE * POOL_SIZE :].reshape(2, extra, POOL_SIZE, 1)
    return a[:, :POOL_SIZE], cross, more, consts(2 * POOL_SIZE, INIT_B, MULT_B)


def _mix(words):
    """SeedSequence's pool and ``generate_state(4, np.uint64)`` for each row
    of a (rows, word count) uint32 array, as a (rows, 4) uint64 array.

    The pool is held as four rows of words, one column per entropy."""
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

    n_words = words.shape[1]
    first, cross, more, out = _schedule(n_words)
    words = words.T
    pool = np.zeros((POOL_SIZE, words.shape[1]), dtype=np.uint32)
    pool[: min(n_words, POOL_SIZE)] = words[:POOL_SIZE]
    pool = hashmix(pool, *first)
    # a source word stays as it is while it mixes into the other three
    for src in range(POOL_SIZE):
        dst = [i for i in range(POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], *cross[:, src]))
    for src in range(POOL_SIZE, n_words):
        pool = mix(pool, hashmix(words[src], *more[:, src - POOL_SIZE]))
    state = np.ascontiguousarray(hashmix(np.tile(pool, (2, 1)), *out).T)
    # little-endian pairs of words, as generate_state views them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def generate_states(entropies) -> np.ndarray:
    """``np.random.SeedSequence(e).generate_state(4, np.uint64)`` for each
    entropy e, as the rows of a (len, 4) uint64 array.

    A list of ints in [0, 2^32 - 1], or of tuples of such ints all of one
    length (run i of seed s is seeded from (s, i)), is converted to words in
    one array pass and hashed at once.  Otherwise each entropy is split into
    words on its own: a non-negative int, or a nested tuple or list of them,
    is hashed with the other entropies of its word count, and any other
    entropy goes to ``np.random.SeedSequence`` itself, so a seed that numpy
    rejects (a negative int, a float) raises numpy's own error, in order.
    """
    import numpy as np

    entropies = list(entropies)
    words = _int_words(entropies, np)
    if words is not None:
        return _mix(words)
    states = np.empty((len(entropies), 4), dtype=np.uint64)
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for row, entropy in enumerate(entropies):
        words = []
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

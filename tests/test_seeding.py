"""Batched seeding: numpy's SeedSequence states and default_rng streams."""

import contextlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsched import rus, seeding
from starsched.injection import SHIPPED_CONFIGS
from starsched.qcels import SyntheticSpectrum, multilevel_qcels
from starsched.rus import calibrate_p_pass, simulate_parallel_rus
from starsched.seeding import generate_states, generator, states

CFG = SHIPPED_CONFIGS[9]

# word boundaries of SeedSequence's int-to-uint32 split, and ints up to five
# words long
INTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**130))
NUMPY_INTS = st.one_of(
    st.integers(0, 255).map(np.uint8),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
# tuples of 1 to 6 ints hold 1 to 30 words, either side of the pool of 4
ENTROPIES = st.one_of(
    INTS,
    NUMPY_INTS,
    st.lists(st.one_of(INTS, NUMPY_INTS), min_size=1, max_size=6).map(tuple),
)


@given(st.lists(ENTROPIES, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_states_and_streams_match_numpy(batch):
    # a batch with an entropy of more than four words, or an int past
    # 2^63 - 1, goes to numpy one entropy at a time
    for entropy, state in zip(batch, generate_states(batch), strict=True):
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert state.dtype == np.uint64 and state.tolist() == expected.tolist()
        ours, numpys = generator(state), np.random.default_rng(entropy)
        assert ours.random(5).tolist() == numpys.random(5).tolist()
        assert ours.normal(size=5).tolist() == numpys.normal(size=5).tolist()


# the ints of the array path, as Python or numpy ints: one word each, 0 and
# 2^32 - 1 often, or two words each, 2^32 and 2^63 - 1 often
WORDS = st.one_of(
    st.sampled_from([0, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2**32 - 1]).map(np.uint32),
    st.integers(0, 2**32 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
)
WIDE = st.one_of(
    st.sampled_from([2**32, 2**63 - 1]),
    st.integers(2**32, 2**63 - 1),
    st.integers(2**32, 2**63 - 1).map(np.int64),
    st.integers(2**32, 2**63 - 1).map(np.uint64),
)


@st.composite
def pool_entropies(draw, width):
    """An int (width None) or a tuple of ``width`` ints, some of them two
    words long, with at most the four words of the pool."""
    n = width or 1
    wide = draw(st.sets(st.integers(0, n - 1), max_size=seeding.POOL_SIZE - n))
    ints = tuple(draw(WIDE if i in wide else WORDS) for i in range(n))
    return ints if width else ints[0]


@st.composite
def word_lists(draw):
    """Lists of 1 to CHUNK + 1 ints, or of tuples of 1 to 4 ints all of one
    length, each entropy at most four words: the lists taken in one array
    pass.  One- and two-word ints mix in a column.  A few drawn entropies
    repeat through the list, and every seventh one counts up, as the
    (seed, i) of run i does."""
    size = draw(st.integers(1, seeding.CHUNK + 1))
    width = draw(st.sampled_from([None, 1, 2, 2, 3, 4]))
    drawn = draw(st.lists(pool_entropies(width), min_size=1, max_size=8))

    def counted(i):
        return i if width is None else (*drawn[0][:-1], i)

    return [drawn[i % len(drawn)] if i % 7 else counted(i) for i in range(size)]


@contextlib.contextmanager
def seed_sequences_built():
    """Count the calls of numpy's default_rng and SeedSequence."""
    rng = mock.Mock(wraps=np.random.default_rng)
    seq = mock.Mock(wraps=np.random.SeedSequence)
    with mock.patch.object(np.random, "default_rng", rng), mock.patch.object(
        np.random, "SeedSequence", seq
    ):
        yield lambda: rng.call_count + seq.call_count


@given(word_lists())
@settings(max_examples=60, deadline=None)
def test_word_lists_match_numpy_in_one_pass(batch):
    with seed_sequences_built() as built:
        got = generate_states(batch)
        assert built() == 0
    expected = [np.random.SeedSequence(e).generate_state(4, np.uint64).tolist() for e in batch]
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.tolist() == expected


@pytest.mark.parametrize(
    "batch",
    [
        [(0, 1), (True, 2), (3, 4)],  # a Python bool is the int 1 to SeedSequence
        [True, False, 7],
        [(0, 1), (np.True_, 2)],  # a numpy bool is not an int to it
        [np.True_],
        [(0, 1), (2**32, 1)],  # the array pass, rows of two and three words
        [5, 2**32, 2**64 - 1, 2**64],
        [(0, 1), (2,), (3, 4)],
        [(0, 1), ((2, 3), 4)],
        [(0, 1), [2, 3]],
        [(), ()],
        [(0, 1), (-1, 2), (1.0, 2)],
        [3, -(2**70), 2.0],
        [(0, 1), (1.0, 2), (-1, 2)],
        [np.uint64(2**64 - 1), np.int64(-1)],
        [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)],
        [(0, 1, 2), (2**32, 2**32, 1)],  # five words in the second row
        [2**63 - 1, 2**63],
    ],
)
def test_other_lists_fall_back_to_numpys_states_and_errors(batch):
    expected = []
    for entropy in batch:
        try:
            expected.append(np.random.SeedSequence(entropy).generate_state(4, np.uint64))
        except (TypeError, ValueError) as error:
            with pytest.raises(type(error)) as ours:
                generate_states(batch)
            assert str(ours.value) == str(error)
            return
    assert generate_states(batch).tolist() == np.array(expected).tolist()


def test_run_and_trial_seeds_are_never_split_one_by_one():
    spectrum = SyntheticSpectrum((-0.5, 0.9), (0.8, 0.2))
    with seed_sequences_built() as built:
        for seed in (2**32 - 1, 2**32, 2**63 - 1):
            generate_states([(seed, i) for i in range(seeding.CHUNK + 1)])
        simulate_parallel_rus(32, "Z", 1e-8, CFG, "adaptive", runs=30, seed=9)
        multilevel_qcels(spectrum, 0.05, seeds=range(30))
        multilevel_qcels(spectrum, 0.05, seeds=[2**63 - 1, 2**32, 7])
        assert built() == 0


@given(
    negative=st.one_of(st.integers(-(2**70), -1), st.integers(-(2**63), -1).map(np.int64)),
    before=st.lists(INTS, max_size=3),
    bare=st.booleans(),
)
def test_negative_entropy_raises_numpys_error(negative, before, bare):
    entropy = negative if bare else (*before, negative)
    with pytest.raises(ValueError) as numpys:
        np.random.SeedSequence(entropy)
    with pytest.raises(ValueError) as ours:
        generate_states([*before, entropy])
    assert str(ours.value) == str(numpys.value)


@pytest.mark.parametrize(
    "state",
    [
        np.zeros((4, 2), dtype=np.uint64)[:, 0],  # not contiguous
        np.zeros(3, dtype=np.uint64),
        np.zeros(4, dtype=np.int64),
        np.zeros(4, dtype=">u8" if np.little_endian else "<u8"),
        [0, 0, 0, 0],
    ],
)
def test_generator_rejects_a_malformed_state(state):
    # PCG64 would read past the row or across its stride without a word
    with pytest.raises(ValueError, match="contiguous row of 4 native uint64"):
        generator(state)


def test_states_are_computed_a_chunk_at_a_time():
    pulled = []

    def entropies():
        for i in range(seeding.CHUNK + 3):
            pulled.append(i)
            yield (7, i)

    rows = states(entropies())
    next(rows)
    assert len(pulled) == seeding.CHUNK
    rest = list(rows)
    assert len(pulled) == len(rest) + 1 == seeding.CHUNK + 3
    expected = np.random.SeedSequence((7, seeding.CHUNK + 2)).generate_state(4, np.uint64)
    assert rest[-1].tolist() == expected.tolist()


@pytest.mark.parametrize("mode", ["naive", "adaptive"])
def test_simulation_builds_no_seed_sequence(mode):
    # at M = 150 ZZ, p_pass 0.7 and blocks of 2 uniforms per process every
    # trial pass declines, so the clock loop runs and refills on the run's
    # generator
    clock_loop = mock.Mock(wraps=rus._clock_loop)  # entered once per declined run
    with seed_sequences_built() as built, mock.patch.object(rus, "_clock_loop", clock_loop):
        simulate_parallel_rus(32, "Z", 1e-8, CFG, mode, runs=50, seed=2**40)
        with mock.patch.object(rus, "RNG_BLOCK_PER_PROCESS", 2):
            simulate_parallel_rus(150, "ZZ", 1e-8, replace(CFG, p_pass=0.7), mode, 40, 1)
        assert built() == 0
    assert clock_loop.called


def test_calibration_builds_no_seed_sequence():
    with seed_sequences_built() as built:
        calibrate_p_pass(161, m=32, runs=20)
        assert built() == 0


@pytest.mark.parametrize("n_samples", [0, 100])
def test_qcels_builds_no_seed_sequence(n_samples):
    spectrum = SyntheticSpectrum((-0.5, 0.9), (0.8, 0.2))
    with seed_sequences_built() as built:
        multilevel_qcels(spectrum, 0.05, n_samples=n_samples, seeds=[0, 2**32 + 1])
        assert built() == 0

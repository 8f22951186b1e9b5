"""Synthetic Hadamard-test series and multi-level phase fitting."""

import cmath
import math
import statistics
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starsched import qcels, seeding
from starsched.estimator import QcelsParams
from starsched.qcels import (
    _GRID_BLOCK,
    _GRID_POINTS,
    SyntheticSpectrum,
    _grid_best,
    multilevel_qcels,
    qcels_fit,
    synth_signal,
    wrap_phase,
)

FIVE_PHASE = SyntheticSpectrum(
    (-0.5, 0.9, 1.8, 2.6, -2.8), (0.8, 0.05, 0.05, 0.05, 0.05)
)


# Reference: one trial at a time, with scalar Newton steps.  The batched fit
# must reproduce its estimates bit for bit.


@dataclass(frozen=True)
class ReferenceSeries:
    times: tuple[float, ...]
    values: tuple[complex, ...]


def reference_synth_signal(spectrum, tau, n_pairs, noise_scale=0.0, seed=0):
    if n_pairs < 2:
        raise ValueError("need at least two data points")
    rng = np.random.default_rng(seed)
    times = tuple(i * tau for i in range(n_pairs))
    values = []
    for t in times:
        z = sum(
            p * cmath.exp(-1j * lam * t)
            for p, lam in zip(spectrum.weights, spectrum.phases)
        )
        if noise_scale:
            z += noise_scale / math.sqrt(2) * complex(rng.normal(), rng.normal())
        values.append(z)
    return ReferenceSeries(times, tuple(values))


def reference_qcels_fit(series, lo, hi):
    if not series.values:
        raise ValueError("empty series")
    t = np.asarray(series.times)
    z = np.asarray(series.values)

    def r_of(theta):
        return complex(np.mean(z * np.exp(1j * t * theta)))

    thetas = np.linspace(lo, hi, 200)
    scores = np.abs((z[None, :] * np.exp(1j * np.outer(thetas, t))).mean(axis=1))
    best = int(np.argmax(scores))
    step = float(thetas[1] - thetas[0])
    theta = float(thetas[best])
    for _ in range(50):
        phase = np.exp(1j * t * theta)
        r = np.mean(z * phase)
        dr = np.mean(1j * t * z * phase)
        d2r = np.mean(-(t**2) * z * phase)
        g = 2 * (r.conjugate() * dr).real
        dg = 2 * (abs(dr) ** 2 + (r.conjugate() * d2r).real)
        if dg >= 0 or abs(g) < 1e-30:
            break
        delta = -g / dg
        if abs(delta) > step:
            break
        theta += float(delta)
        if abs(delta) < 1e-14:
            break
    theta = min(max(theta, lo), hi)
    return r_of(theta), theta


def reference_multilevel_qcels(
    spectrum, eps, delta=0.06, n_pairs=5, n_samples=100, seed=0
):
    params = QcelsParams(delta, n_pairs, n_samples, eps)
    noise = 1 / math.sqrt(4 * n_pairs * n_samples) if n_samples else 0.0
    theta = 0.0
    half_width = math.pi
    for j, tau_j in enumerate(params.tau):
        if half_width < 1e-15:
            raise ValueError(
                f"search interval collapsed below numeric resolution at level {j} "
                f"(eps {eps}, delta {delta})"
            )
        series = reference_synth_signal(spectrum, tau_j, n_pairs, noise, seed=(seed, j))
        _r, theta = reference_qcels_fit(series, theta - half_width, theta + half_width)
        half_width = math.pi / (2 * tau_j)
    return theta


def _outcome(fn):
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@st.composite
def spectra(draw):
    size = draw(st.integers(1, 5))
    phases = draw(st.lists(st.floats(-math.pi, 3.14159), min_size=size, max_size=size))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    return SyntheticSpectrum(tuple(phases), tuple(w / sum(raw) for w in raw))


@given(
    spectrum=spectra(),
    eps=st.one_of(st.floats(0.002, 1.0), st.sampled_from([0.01, 0.5, 1.0])),
    delta=st.one_of(
        st.floats(0.001, 10.0), st.sampled_from([0.06, 1e16, 1e40, 1e300])
    ),
    n_pairs=st.integers(2, 9),
    n_samples=st.one_of(st.just(0), st.integers(1, 400)),
    trials=st.integers(1, 40),
    # multi-word seeds too: a batch from just below 2^32 mixes word counts
    seed=st.one_of(st.integers(-2, 2**20), st.integers(2**32 - 40, 2**100)),
)
@settings(max_examples=200, deadline=None)
# The one estimate in 100,000 (five settings, 20,000 seeds each) that
# squaring |dr| as x * x or np.power(x, 2) instead of one scalar at a time
# changes.
@example(
    spectrum=FIVE_PHASE, eps=0.05, delta=0.06, n_pairs=9, n_samples=400,
    trials=3, seed=3484,
)
def test_batched_fit_matches_reference(
    spectrum, eps, delta, n_pairs, n_samples, trials, seed
):
    seeds = list(range(seed, seed + trials))
    kwargs = dict(delta=delta, n_pairs=n_pairs, n_samples=n_samples)
    with np.errstate(all="ignore"):
        expected = _outcome(
            lambda: [
                reference_multilevel_qcels(spectrum, eps, seed=s, **kwargs)
                for s in seeds
            ]
        )
        got = _outcome(lambda: multilevel_qcels(spectrum, eps, seeds=seeds, **kwargs))
    if isinstance(expected, list):
        assert all(type(x) is float for x in got)
        # NaN estimates compare by their bits.
        assert np.array(got).tobytes() == np.array(expected).tobytes()
    else:
        assert got == expected


def reference_grid_best(t, z, thetas):
    """The full scan: every grid point's exponentials, in blocks."""
    best = np.empty(len(z), dtype=np.intp)
    block = max(1, _GRID_BLOCK // (_GRID_POINTS * t.size))
    for b in range(0, len(z), block):
        grid = z[b : b + block, None, :] * np.exp(1j * (thetas[b : b + block, :, None] * t))
        best[b : b + block] = np.abs(grid.mean(axis=-1)).argmax(axis=1)
        del grid  # before the next block is allocated
    return best


@st.composite
def grid_scans(draw):
    """(t, z, thetas) of one level: a one- or multi-phase series, noiseless
    or noisy, perhaps with non-finite entries, and per-trial grids, often
    centred on a phase, where a noiseless series ties its mirrored points."""
    n = draw(st.sampled_from([*range(1, 10), 2000]))
    tau = 10.0 ** draw(st.floats(-2, 3))
    trials = draw(st.integers(1, 2 if n == 2000 else 30))
    spectrum = draw(spectra())
    t = np.array([i * tau for i in range(n)])
    clean = sum(
        p * np.exp(-1j * lam * t) for p, lam in zip(spectrum.weights, spectrum.phases)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-3, 0.1]))
    z = clean + noise * (rng.normal(size=(trials, n)) + 1j * rng.normal(size=(trials, n)))
    bad = st.sampled_from([math.nan, math.inf, -math.inf, 1j * math.inf])
    for value in draw(st.lists(bad, max_size=2)):
        z[rng.integers(trials), rng.integers(n)] = value
    centre = draw(st.one_of(st.sampled_from(spectrum.phases), st.floats(-math.pi, math.pi)))
    half = draw(
        st.one_of(st.sampled_from([math.pi, math.pi / (2 * tau)]), st.floats(1e-9, 4.0))
    )
    jitter = draw(st.sampled_from([0.0, half / 3]))
    lo = centre - half + jitter * rng.uniform(-1, 1, trials)
    thetas = np.linspace(lo, lo + 2 * half, _GRID_POINTS, axis=1)
    return t, z, thetas


def mirrored_tie():
    """A noiseless single-phase series on a grid centred on its phase: the
    mirrored points 99 and 100 tie up to rounding, and the screen's own
    argmax is not the full scan's."""
    t = np.arange(5) * 0.3
    thetas = np.linspace([0.7 - math.pi], [0.7 + math.pi], _GRID_POINTS, axis=1)
    return t, np.exp(-0.7j * t)[None, :], thetas


@given(scan=grid_scans())
@settings(max_examples=300, deadline=None)
@example(scan=mirrored_tie())
def test_grid_scan_matches_full_scan(scan):
    t, z, thetas = scan
    with np.errstate(all="ignore"):
        expected = reference_grid_best(t, z, thetas)
        got = _grid_best(t, z, thetas)
    assert got.tolist() == expected.tolist()


def test_grid_scan_takes_few_exponentials(monkeypatch):
    """The full scan of ``qcels-demo`` takes 8 levels × 100 trials × 200
    points × 5 pairs = 800,000 complex exponentials; the screened scan and
    the Newton steps together take under 5 % of that."""
    exp = np.exp
    elements = []

    def counted(x, *args, **kwargs):
        elements.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    multilevel_qcels(FIVE_PHASE, 0.01, seeds=range(100))
    assert 0 < sum(elements) < 0.05 * 800_000


def test_grid_scan_holds_no_more_than_a_one_trial_fit():
    """At 2000 points a level, the batched call's traced allocation peak
    stays within 10 % of the one-trial-at-a-time reference."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    spectrum = SyntheticSpectrum((0.3,), (1.0,))
    seeds = range(16)
    kwargs = dict(delta=0.06, n_pairs=2000, n_samples=100)
    batched = peak(lambda: multilevel_qcels(spectrum, 0.5, seeds=seeds, **kwargs))
    # One trial at a time, the peak is that of a single trial.
    reference = peak(lambda: reference_multilevel_qcels(spectrum, 0.5, seed=0, **kwargs))
    assert batched <= 1.1 * reference


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SyntheticSpectrum((0.1,), (0.5,))
    with pytest.raises(ValueError):
        SyntheticSpectrum((0.1, 4.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        SyntheticSpectrum((0.1, 0.2), (0.9, 0.2))


def test_dominant_phase():
    assert FIVE_PHASE.dominant == -0.5


def test_single_phase_signal_has_unit_modulus():
    spectrum = SyntheticSpectrum((0.7,), (1.0,))
    series = synth_signal(spectrum, 0.3, 6)
    assert series.values.shape == (1, 6)
    for value in series.values[0]:
        assert abs(value) == pytest.approx(1.0)


@given(st.floats(0.01, 3.0), st.integers(2, 10))
@settings(max_examples=100, deadline=None)
def test_noiseless_signal_bounded(tau, n_pairs):
    series = synth_signal(FIVE_PHASE, tau, n_pairs)
    assert all(abs(v) <= 1 + 1e-12 for v in series.values[0])


def test_signal_determinism():
    a = synth_signal(FIVE_PHASE, 0.3, 5, noise_scale=0.1, seeds=[4])
    b = synth_signal(FIVE_PHASE, 0.3, 5, noise_scale=0.1, seeds=[4])
    assert np.array_equal(a.values, b.values)
    c = synth_signal(FIVE_PHASE, 0.3, 5, noise_scale=0.1, seeds=[5])
    assert not np.array_equal(c.values, a.values)
    both = synth_signal(FIVE_PHASE, 0.3, 5, noise_scale=0.1, seeds=[4, 5])
    assert np.array_equal(both.values, np.concatenate([a.values, c.values]))


def test_noise_scale_is_total_std():
    spectrum = SyntheticSpectrum((0.0,), (1.0,))
    series = synth_signal(spectrum, 0.1, 5, noise_scale=0.2, seeds=range(800))
    devs = (series.values - 1.0).ravel().tolist()
    total_std = math.sqrt(sum(abs(d) ** 2 for d in devs) / len(devs))
    assert total_std == pytest.approx(0.2, rel=0.05)


def test_fit_recovers_single_phase_exactly():
    spectrum = SyntheticSpectrum((0.7,), (1.0,))
    series = synth_signal(spectrum, 0.4, 5)
    (r,), (theta,) = qcels_fit(series, [-1.0], [2.0])
    assert theta == pytest.approx(0.7, abs=1e-9)
    assert abs(r) == pytest.approx(1.0, abs=1e-9)


@given(st.floats(-1.4, 1.4))
@settings(max_examples=100, deadline=None)
def test_fit_recovers_any_single_phase(phase):
    spectrum = SyntheticSpectrum((phase,), (1.0,))
    series = synth_signal(spectrum, 0.5, 5)
    _, (theta,) = qcels_fit(series, [-1.6], [1.6])
    assert theta == pytest.approx(phase, abs=1e-8)


def test_noiseless_pure_state_recovers_at_every_level():
    spectrum = SyntheticSpectrum((-0.5,), (1.0,))
    (est,) = multilevel_qcels(spectrum, 0.01, n_samples=0, seeds=[0])
    assert est == pytest.approx(-0.5, abs=1e-9)


def test_noiseless_mixed_state_error_small():
    (est,) = multilevel_qcels(FIVE_PHASE, 0.01, n_samples=0, seeds=[0])
    assert abs(est - (-0.5)) < 1e-3


def test_median_error_shrinks_with_level_noiseless():
    params = QcelsParams(0.06, 5, 100, 0.01)
    errors = []
    theta, hw = np.zeros(1), math.pi
    for tau in params.tau:
        series = synth_signal(FIVE_PHASE, tau, 5)
        _, theta = qcels_fit(series, theta - hw, theta + hw)
        hw = math.pi / (2 * tau)
        errors.append(abs(theta[0] - (-0.5)))
    assert errors[-1] < errors[0]
    assert statistics.median(errors[-3:]) <= statistics.median(errors[:3])


def test_multilevel_determinism():
    a = multilevel_qcels(FIVE_PHASE, 0.01, seeds=[3])
    b = multilevel_qcels(FIVE_PHASE, 0.01, seeds=[3])
    assert a == b


def test_every_level_is_seeded_in_one_pass():
    # 8 levels of 100 trials: 800 entropies, one chunk of seeding.states
    assert QcelsParams(0.06, 5, 100, 0.01).levels * 100 <= seeding.CHUNK
    passes = mock.Mock(wraps=seeding.generate_states)
    with mock.patch.object(seeding, "generate_states", passes):
        multilevel_qcels(FIVE_PHASE, 0.01, seeds=range(100))
    assert passes.call_count == 1


@pytest.mark.parametrize("n_samples", [0, 100])
@pytest.mark.parametrize("seeds", [[-1], [0, 2**40, -3, 1.5]])
def test_invalid_seed_raises_at_level_zero(seeds, n_samples):
    # numpy's error for the first invalid (seed, 0), before any level is fitted
    for seed in seeds:
        try:
            np.random.SeedSequence((seed, 0))
        except (TypeError, ValueError) as exc:
            expected = type(exc), str(exc)
            break
    fits = mock.Mock(wraps=qcels.qcels_fit)
    with mock.patch.object(qcels, "qcels_fit", fits), pytest.raises(expected[0]) as ours:
        multilevel_qcels(FIVE_PHASE, 0.01, n_samples=n_samples, seeds=seeds)
    assert str(ours.value) == expected[1]
    assert fits.call_count == 0


def test_phase_wrapping():
    assert wrap_phase(math.pi) == pytest.approx(-math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(-math.pi)
    assert wrap_phase(0.3) == pytest.approx(0.3)
    assert wrap_phase(2 * math.pi + 0.3) == pytest.approx(0.3)

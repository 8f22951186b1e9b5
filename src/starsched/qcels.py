"""Multi-level least-squares phase estimation over synthetic signal series.

The Hadamard test at evolution time t yields Z(t) = Σ_i p_i e^{-i λ_i t} up
to sampling noise.  Each level fits a single complex exponential to N points
spaced τ_j apart and halves the eigenphase search interval around the fit.
Independent trials run together: each level's signals and fits are arrays of
shape (trials, N).  numpy is imported inside the functions that use it, so
importing this module (as the CLI does) does not load it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import seeding
from .estimator import QcelsParams


@dataclass(frozen=True)
class SyntheticSpectrum:
    """Eigenphases in [-π, π) with weights; the first phase is dominant."""

    phases: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phases) != len(self.weights):
            raise ValueError("phases and weights must align")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not math.isclose(sum(self.weights), 1.0, rel_tol=1e-9):
            raise ValueError("weights must sum to 1")
        if any(p < -math.pi or p >= math.pi for p in self.phases):
            raise ValueError("phases must lie in [-pi, pi)")

    @property
    def dominant(self) -> float:
        return self.phases[self.weights.index(max(self.weights))]


@dataclass(frozen=True, eq=False)
class SignalSeries:
    """One level's sample times, shape (n_pairs,), and the signal of every
    trial, shape (trials, n_pairs)."""

    times: np.ndarray
    values: np.ndarray


def synth_signal(
    spectrum: SyntheticSpectrum,
    tau: float,
    n_pairs: int,
    noise_scale: float = 0.0,
    seeds: Sequence = (0,),
) -> SignalSeries:
    """Hadamard-test series Z_n = Σ p_i e^{-i λ_i n τ}, one row per seed, plus
    circular complex Gaussian noise of total standard deviation noise_scale
    (noise_scale/√2 per quadrature), modeling a finite shot count
    M ≈ 1/noise_scale².

    The noiseless series is computed once.  Row k draws its noise as
    default_rng(seeds[k]).normal(size=2·n_pairs), real and imaginary parts
    alternating, the same numbers as one scalar draw after another; the
    rows' streams are seeded in one batched pass (``seeding``)."""
    import numpy as np

    if n_pairs < 2:
        raise ValueError("need at least two data points")
    times = tuple(i * tau for i in range(n_pairs))
    clean = np.array(
        [
            sum(
                p * cmath.exp(-1j * lam * t)
                for p, lam in zip(spectrum.weights, spectrum.phases)
            )
            for t in times
        ]
    )
    if not noise_scale:
        for _ in seeding.states(seeds):  # an invalid seed raises, as with noise
            pass
        return SignalSeries(np.array(times), np.broadcast_to(clean, (len(seeds), n_pairs)))
    draws = np.array(
        [
            seeding.generator(state).normal(size=2 * n_pairs)
            for state in seeding.states(seeds)
        ]
    ).reshape(len(seeds), n_pairs, 2)
    scale = noise_scale / math.sqrt(2)
    values = np.empty((len(seeds), n_pairs), dtype=complex)
    values.real = clean.real + scale * draws[..., 0]
    values.imag = clean.imag + scale * draws[..., 1]
    return SignalSeries(np.array(times), values)


# Complex elements in one block of the grid scan, (trials, grid, n_pairs): 4
# trials at 5 points a level.  Trials with more points than fit in a block
# are scanned one at a time, so a block never outgrows a one-trial scan.
_GRID_POINTS = 200
_GRID_BLOCK = 4 * _GRID_POINTS * 5


def qcels_fit(
    series: SignalSeries, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of r·e^{-i t θ} to each trial's series, over θ in
    [lo[k], hi[k]] for trial k.

    For fixed θ the optimal amplitude is r = mean(Z_n e^{+i t_n θ}), and the
    loss is minimized exactly where |r(θ)| is maximized; a 200-point grid
    scan is polished by Newton steps around the best grid point.  Every
    trial is fitted as if alone: each one stops its Newton steps by its own
    rules, and the arithmetic is arranged so that the estimates equal, bit
    for bit, those of fitting one trial at a time.
    Returns the arrays (r*, θ*), one entry per trial.
    """
    import numpy as np

    t = series.times
    z = series.values
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not t.size:
        raise ValueError("empty series")
    rows = np.arange(len(z))
    thetas = np.linspace(lo, hi, _GRID_POINTS, axis=1)
    best = np.empty(len(z), dtype=np.intp)
    block = max(1, _GRID_BLOCK // (_GRID_POINTS * t.size))
    for b in range(0, len(z), block):
        grid = z[b : b + block, None, :] * np.exp(1j * (thetas[b : b + block, :, None] * t))
        best[b : b + block] = np.abs(grid.mean(axis=-1)).argmax(axis=1)
        del grid  # before the next block is allocated
    step = thetas[:, 1] - thetas[:, 0]
    theta = thetas[rows, best]
    # Newton refinement on g(θ) = d|r|²/dθ, which vanishes at the peak.
    # Each trial's steps must round as they would on numpy scalars.  Array
    # complex products use fused multiply-adds, and np.abs and x * x can
    # differ in the last bit from abs() and ** 2 of a scalar, so the real and
    # imaginary parts are combined by hand, |dr| is np.hypot and |dr|² is a
    # scalar power per trial.
    jt = 1j * t
    dz = jt * z
    d2z = -(t**2) * z
    live = rows
    for _ in range(50):
        if not live.size:
            break
        phase = np.exp(jt * theta[live, None])
        r = (z[live] * phase).mean(axis=1)
        dr = (dz[live] * phase).mean(axis=1)
        d2r = (d2z[live] * phase).mean(axis=1)
        g = 2 * (r.real * dr.real + r.imag * dr.imag)
        dr_sq = np.array([h**2 for h in np.hypot(dr.real, dr.imag)])
        dg = 2 * (dr_sq + (r.real * d2r.real + r.imag * d2r.imag))
        go = ~((dg >= 0) | (np.abs(g) < 1e-30))
        live, g, dg = live[go], g[go], dg[go]
        delta = -g / dg
        go = ~(np.abs(delta) > step[live])
        live, delta = live[go], delta[go]
        theta[live] += delta
        live = live[~(np.abs(delta) < 1e-14)]
    theta = np.array(
        [min(max(th, a), b) for th, a, b in zip(theta.tolist(), lo.tolist(), hi.tolist())]
    )
    r = (z * np.exp(jt * theta[:, None])).mean(axis=1)
    return r, theta


def multilevel_qcels(
    spectrum: SyntheticSpectrum,
    eps: float,
    delta: float = 0.06,
    n_pairs: int = 5,
    n_samples: int = 100,
    seeds: Sequence[int] = (0,),
) -> list[float]:
    """Run all levels for every trial seed, halving each trial's search
    interval around its fit.

    The level-j series uses spacing τ_j and draws trial k's noise from the
    stream of default_rng((seeds[k], j)), the trials' streams seeded in one
    batched pass; the search interval at level j is θ*_{j-1} ± π/(2 τ_j),
    starting from the full [-π, π).  All trials are fitted together, level
    by level.  Returns the final eigenphase estimate
    of each trial, in seed order, equal to running the trials one by one.
    """
    import numpy as np

    params = QcelsParams(delta, n_pairs, n_samples, eps)
    # Shot noise from the level's full measurement budget M = 2·n_pairs·
    # n_samples: each quadrature carries the worst-case standard error of a
    # binomial proportion over M shots, 1/(2√M).
    noise = 1 / math.sqrt(4 * n_pairs * n_samples) if n_samples else 0.0
    theta = np.zeros(len(seeds))
    half_width = math.pi
    for j, tau_j in enumerate(params.tau):
        if half_width < 1e-15:
            raise ValueError(
                f"search interval collapsed below numeric resolution at level {j} "
                f"(eps {eps}, delta {delta})"
            )
        series = synth_signal(spectrum, tau_j, n_pairs, noise, [(s, j) for s in seeds])
        _r, theta = qcels_fit(series, theta - half_width, theta + half_width)
        half_width = math.pi / (2 * tau_j)
    return theta.tolist()


def wrap_phase(x: float) -> float:
    """Map an angle to the principal interval [-π, π)."""
    return (x + math.pi) % (2 * math.pi) - math.pi

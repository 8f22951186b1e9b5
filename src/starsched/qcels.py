"""Multi-level least-squares phase estimation over synthetic signal series.

The Hadamard test at evolution time t yields Z(t) = Σ_i p_i e^{-i λ_i t} up
to sampling noise.  Each level fits a single complex exponential to N points
spaced τ_j apart and halves the eigenphase search interval around the fit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
        return self.phases[int(np.argmax(self.weights))]


@dataclass(frozen=True)
class SignalSeries:
    times: tuple[float, ...]
    values: tuple[complex, ...]


def synth_signal(
    spectrum: SyntheticSpectrum,
    tau: float,
    n_pairs: int,
    noise_scale: float = 0.0,
    seed: int = 0,
) -> SignalSeries:
    """Hadamard-test series Z_n = Σ p_i e^{-i λ_i n τ} plus circular complex
    Gaussian noise of total standard deviation noise_scale (noise_scale/√2
    per quadrature), modeling a finite shot count M ≈ 1/noise_scale²."""
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
    return SignalSeries(times, tuple(values))


def qcels_fit(series: SignalSeries, lo: float, hi: float) -> tuple[complex, float]:
    """Least-squares fit of r·e^{-i t θ} to the series over θ in [lo, hi].

    For fixed θ the optimal amplitude is r = mean(Z_n e^{+i t_n θ}), and the
    loss is minimized exactly where |r(θ)| is maximized; a 200-point grid
    scan is polished by Newton steps around the best grid point.
    Returns (r*, θ*).
    """
    if not series.values:
        raise ValueError("empty series")
    t = np.asarray(series.times)
    z = np.asarray(series.values)

    def r_of(theta: float) -> complex:
        return complex(np.mean(z * np.exp(1j * t * theta)))

    thetas = np.linspace(lo, hi, 200)
    scores = np.abs((z[None, :] * np.exp(1j * np.outer(thetas, t))).mean(axis=1))
    best = int(np.argmax(scores))
    step = float(thetas[1] - thetas[0])
    theta = float(thetas[best])
    # Newton refinement on g(θ) = d|r|²/dθ, which vanishes at the peak.
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


def multilevel_qcels(
    spectrum: SyntheticSpectrum,
    eps: float,
    delta: float = 0.06,
    n_pairs: int = 5,
    n_samples: int = 100,
    seed: int = 0,
) -> float:
    """Run all levels, halving the search interval around each fit.

    The level-j series uses spacing τ_j; the search interval at level j is
    θ*_{j-1} ± π/(2 τ_j), starting from the full [-π, π).  Returns the final
    eigenphase estimate.
    """
    params = QcelsParams(delta, n_pairs, n_samples, eps)
    # Shot noise from the level's full measurement budget M = 2·n_pairs·
    # n_samples: each quadrature carries the worst-case standard error of a
    # binomial proportion over M shots, 1/(2√M).
    noise = 1 / math.sqrt(4 * n_pairs * n_samples) if n_samples else 0.0
    theta = 0.0
    half_width = math.pi
    for j, tau_j in enumerate(params.tau):
        if half_width < 1e-15:
            raise ValueError("search interval collapsed below numeric resolution")
        series = synth_signal(spectrum, tau_j, n_pairs, noise, seed=(seed, j))
        _r, theta = qcels_fit(series, theta - half_width, theta + half_width)
        half_width = math.pi / (2 * tau_j)
    return theta


def wrap_phase(x: float) -> float:
    """Map an angle to the principal interval [-π, π)."""
    return (x + math.pi) % (2 * math.pi) - math.pi

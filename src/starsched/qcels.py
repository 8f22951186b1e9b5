"""Multi-level least-squares phase estimation over synthetic signal series.

The Hadamard test at evolution time t yields Z(t) = Σ_i p_i e^{-i λ_i t} up
to sampling noise.  Each level fits a single complex exponential to N points
spaced τ_j apart and halves the eigenphase search interval around the fit.
Independent trials run together: each level's signals and fits are arrays of
shape (trials, N).  A fit's grid scan screens its 200 points with a Horner
polynomial in e^{iθh}, h the sample spacing, and takes exact exponentials only
at the points the screen cannot rule out, so its argmax is that of the full
scan bit for bit (``_grid_best``).  numpy is imported inside the functions
that use it, so importing this module (as the CLI does) does not load it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

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
    return _signal(spectrum, tau, n_pairs, noise_scale, seeding.states(seeds), len(seeds))


def _signal(spectrum, tau, n_pairs, noise_scale, states: Iterable, trials: int) -> SignalSeries:
    """``synth_signal`` from the trials' generator states: the next ``trials``
    rows of ``states``, read even without noise."""
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
    states = islice(states, trials)
    if not noise_scale:
        for _ in states:  # an invalid seed raises, as with noise
            pass
        return SignalSeries(np.array(times), np.broadcast_to(clean, (trials, n_pairs)))
    draws = np.array(
        [seeding.generator(state).normal(size=2 * n_pairs) for state in states]
    ).reshape(trials, n_pairs, 2)
    scale = noise_scale / math.sqrt(2)
    values = np.empty((trials, n_pairs), dtype=complex)
    values.real = clean.real + scale * draws[..., 0]
    values.imag = clean.imag + scale * draws[..., 1]
    return SignalSeries(np.array(times), values)


# Complex elements in one array of the grid scan: the screen's (trials, grid)
# arrays hold 20 trials at 200 points, and the exact pass's (candidates,
# n_pairs) arrays as many candidates as fit, or one if a series is longer.
_GRID_POINTS = 200
_GRID_BLOCK = 4 * _GRID_POINTS * 5


def _grid_best(t: np.ndarray, z: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """For each row k, the first index of the largest of the full scan's
    values |mean_n z[k, n] e^{i thetas[k, g] t_n}|, computed as
    ``np.abs((z[k, None, :] * np.exp(1j * (thetas[k, :, None] * t))).mean(-1))``.

    **Screen.**  The samples lie near t_0 + n·h, h = (t_{N-1} - t_0)/(N - 1),
    so up to the unit factor e^{iθ_g t_0} the sum is a polynomial in w_g =
    e^{iθ_g h}.  The screen's score is S_g = |Σ_n z_n w_g^n|, by Horner on
    (trials, grid) arrays, with w_g = w_0·ρ^g a cumulative product of ρ =
    e^{iΔh}, Δ = θ_1 - θ_0: two exponentials a trial.

    **Margin.**  Let V_g be N times the value the full scan computes, P = 200
    grid points, Z = Σ|z_n|, Θ = max_g |θ_g|, T = max|t_n|, u = 2^-53, and
    γ(m) = mu/(1 - mu).  Take a complex exponential to lie within 4u of
    exact, and a complex product within 3u of exact in relative terms (√5 u
    unfused, 2u fused).  Then |V_g - S_g| ≤ B, where B is Z times the sum of
      * Horner's rounding, N - 1 products and N sums a term: γ(4N)·(1 + p);
      * w's error raised to the power N - 1: p = (1 + e)^{N-1} - 1, where
        |w_g - e^{iθ_g h}| ≤ e = (4P + 3(P - 1))u + |h|·(G(1 + 2u) + 3u(Θ +
        (P - 1)|Δ|)): the two exponentials and the P - 1 products of the
        cumulative product, the rounding of θ_0·h and Δ·h, and the largest
        deviation G of the grid from θ_0 + g·Δ, as computed, with the
        rounding of that computation;
      * Θ times the largest deviation D of t from t_0 + n·h, computed the
        same way: a non-uniform t widens the margin, costing speed, never
        correctness;
      * the full scan's own rounding: uΘT for θ·t, and u(N + 16) for the
        exponential, the product, the N-term mean and the modulus, the
        screen's modulus included;

    plus 32N·2^-1074·(1 + p) for gradual underflow.  Each term is first
    order in u; the second-order remainders, and the roundings of B's own
    evaluation, are relative errors of order Nu.  The margin is 100·B, so
    the bound holds with 100× headroom.

    **Exact pass.**  Every point with S_g ≥ max S - 200·B is a candidate: if
    g* maximizes V and m maximizes S, S_{g*} ≥ V_{g*} - B ≥ V_m - B ≥ S_m -
    2B.  So every maximizer of V is a candidate, and the argmax (first on
    ties) over the candidates' values is the full scan's.  A row whose
    bound or screen is not finite (NaN, overflow) or whose Z reaches
    2^1000, where the sums could overflow, makes all its points
    candidates.  The candidates' values come from the full scan's
    expression, in chunks of at most ``_GRID_BLOCK`` elements, and equal its
    values bit for bit.
    """
    import numpy as np

    u = 2.0**-53
    n, points = t.size, thetas.shape[1]
    index = np.arange(max(n, points), dtype=float)
    rows = max(1, _GRID_BLOCK // points)
    big, g_dev, zsum = np.empty(len(z)), np.empty(len(z)), np.zeros(len(z))
    with np.errstate(all="ignore"):  # a non-finite bound scans its row in full
        h = (t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
        t_max = np.abs(t).max()
        t_dev = np.abs(t - (t[0] + index[:n] * h)).max() * (1 + 2 * u) + 2 * u * (
            t_max + (n - 1) * abs(h)
        )
        for b in range(0, len(z), rows):
            th = thetas[b : b + rows]
            big[b : b + rows] = np.abs(th).max(axis=1)
            g_dev[b : b + rows] = np.abs(
                th - (th[:, :1] + index[:points] * (th[:, 1:2] - th[:, :1]))
            ).max(axis=1)
            for k in range(n):
                zsum[b : b + rows] += np.abs(z[b : b + rows, k])
        e = (4 * points + 3 * (points - 1)) * u + abs(h) * (
            g_dev * (1 + 2 * u)
            + 3 * u * (big + (points - 1) * np.abs(thetas[:, 1] - thetas[:, 0]))
        )
        power = np.expm1((n - 1) * np.log1p(e))
        horner = 4 * n * u / (1 - 4 * n * u)
        bound = zsum * (
            horner * (1 + power) + power + big * t_dev + u * (big * t_max + n + 16)
        ) + 32 * n * 2.0**-1074 * (1 + power)
    bound[~(zsum < 2.0**1000)] = math.nan
    best = np.empty(len(z), dtype=np.intp)
    per_chunk = max(1, _GRID_BLOCK // n)
    for b in range(0, len(z), rows):
        zb, th = z[b : b + rows], thetas[b : b + rows]
        with np.errstate(all="ignore"):
            w = np.empty(th.shape, dtype=complex)
            w[:, 0] = np.exp(1j * (th[:, 0] * h))
            w[:, 1:] = np.exp(1j * ((th[:, 1] - th[:, 0]) * h))[:, None]
            np.cumprod(w, axis=1, out=w)
            score = np.empty(th.shape, dtype=complex)
            score[:] = zb[:, -1, None]
            for k in range(n - 2, -1, -1):
                score *= w
                score += zb[:, k, None]
            score = np.abs(score)
            floor = score.max(axis=1) - 200 * bound[b : b + rows]
            keep = score >= floor[:, None]
        keep[~np.isfinite(floor)] = True
        ri, gi = np.nonzero(keep)
        score.fill(-math.inf)
        for c in range(0, ri.size, per_chunk):
            r, g = ri[c : c + per_chunk], gi[c : c + per_chunk]
            score[r, g] = np.abs((zb[r] * np.exp(1j * (th[r, g, None] * t))).mean(axis=-1))
        best[b : b + rows] = score.argmax(axis=1)
    return best


def qcels_fit(
    series: SignalSeries, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of r·e^{-i t θ} to each trial's series, over θ in
    [lo[k], hi[k]] for trial k.

    For fixed θ the optimal amplitude is r = mean(Z_n e^{+i t_n θ}), and the
    loss is minimized exactly where |r(θ)| is maximized; a 200-point grid
    scan is polished by Newton steps around the best grid point.  The scan
    screens the grid with a Horner polynomial and takes exact exponentials
    only where a derived error margin cannot rule a point out, so its best
    point is that of the full scan bit for bit (``_grid_best``).  Every
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
    best = _grid_best(t, z, thetas)
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
    stream of default_rng((seeds[k], j)).  Every level's streams are seeded
    in one batched pass over the entropies (s, j) in level-major order, read
    a level at a time, so an invalid seed raises at level 0, before any fit;
    the search interval at level j is θ*_{j-1} ± π/(2 τ_j),
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
    states = seeding.states((s, j) for j in range(params.levels) for s in seeds)
    for j, tau_j in enumerate(params.tau):
        if half_width < 1e-15:
            raise ValueError(
                f"search interval collapsed below numeric resolution at level {j} "
                f"(eps {eps}, delta {delta})"
            )
        series = _signal(spectrum, tau_j, n_pairs, noise, states, len(seeds))
        _r, theta = qcels_fit(series, theta - half_width, theta + half_width)
        half_width = math.pi / (2 * tau_j)
    return theta.tolist()


def wrap_phase(x: float) -> float:
    """Map an angle to the principal interval [-π, π)."""
    return (x + math.pi) % (2 * math.pi) - math.pi

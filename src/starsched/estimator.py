"""End-to-end phase-estimation resource reports.

Combines the multi-level least-squares QPE parameter bookkeeping, the
Trotter-step counting, the error-budget split, surface-code distance
selection, and mitigation sampling overhead into a runtime/qubit report.
All eigenphases are normalized by π/λ so the spectrum fits in [-π, π).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .hubbard import HubbardSpec, one_norm
from .injection import SHIPPED_CONFIGS, InfeasibleModel, pec_sampling_factor, rus_error_rate
from .trotter import controlled_circuit_clocks, rough_t_rus, trotter_clocks

CODE_CYCLE_SECONDS = 1e-6


def normalize(value: float, lam: float) -> float:
    """Scale a spectral quantity by π/λ."""
    if lam <= 0:
        raise ValueError("one-norm must be positive")
    return value * (math.pi / lam)


def _checked_schedule(
    delta: float, n_pairs: int, n_samples: int, eps_qcels_norm: float
) -> tuple[int, float]:
    """Check a J-level run's parameters and return c = ⌈log2(1/ε̃_Q)⌉ and
    base = δ/(N·ε̃_Q).

    The run has L = c + 1 levels with spacings τ_j = 2^(j-1-c)·base for
    j = 1..L, so τ_L = base and every τ_j is finite iff the first is.
    ``QcelsParams`` and ``optimize_split`` both check through here, so a bad
    input fails either way with the same error and message.
    """
    if not 0 < eps_qcels_norm <= 1:
        raise ValueError(f"QCELS precision must be in (0, 1], got {eps_qcels_norm}")
    if not 0 < delta < math.inf:
        raise ValueError(f"QCELS delta must be a finite positive number, got {delta}")
    if n_samples < 0:
        raise ValueError(f"QCELS sample count must be at least 0, got {n_samples}")
    if n_pairs < 2:
        raise ValueError(f"QCELS data points per level must be at least 2, got {n_pairs}")
    c = math.ceil(math.log2(1 / eps_qcels_norm))
    base = delta / (n_pairs * eps_qcels_norm)
    tau_0 = 2.0**-c * base
    if not math.isfinite(tau_0):
        raise ValueError(
            f"QCELS level spacing tau_0 must be finite, got {tau_0} for "
            f"delta {delta}, pairs {n_pairs}, eps {eps_qcels_norm}"
        )
    # The fit adds sums of n_pairs terms t²·Z; 16 covers noisy |Z| up to 2.
    t_last = (n_pairs - 1) * base
    if not math.isfinite(16 * n_pairs * t_last * t_last):
        raise ValueError(
            f"QCELS delta {delta} is too large: sample time {t_last:.4g} squared "
            f"overflows the fit (pairs {n_pairs}, eps {eps_qcels_norm})"
        )
    return c, base


@dataclass(frozen=True)
class QcelsParams:
    """Parameters of a J-level phase-estimation run.

    ``levels`` and the level spacings ``tau`` are no fields: ``__post_init__``
    sets them once, when it checks the four fields, and equality and hashing
    see the four fields only."""

    delta: float
    n_pairs: int
    n_samples: int
    eps_qcels_norm: float
    levels: int = field(init=False, repr=False, compare=False)
    tau: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c, base = _checked_schedule(
            self.delta, self.n_pairs, self.n_samples, self.eps_qcels_norm
        )
        object.__setattr__(self, "levels", c + 1)
        object.__setattr__(
            self, "tau", tuple(2.0 ** (j - 1 - c) * base for j in range(1, c + 2))
        )


def _step_root(w_norm: float, eps_t_norm: float) -> float:
    """sqrt(W̃/ε̃_T), the Trotter steps per unit of τ/2."""
    if w_norm <= 0 or eps_t_norm <= 0:
        raise ValueError("error norm and budget must be positive")
    return math.sqrt(w_norm / eps_t_norm)


def _level_steps(tau_j: float, root: float) -> int:
    """ceil((τ_j/2)·root), at least 1, for ``root`` from ``_step_root``."""
    # A calibrated W̃ makes x an integer in exact arithmetic, which rounding can
    # leave up to 4 ulps above; the shave of x·2^-48 (16 to 32 ulps) keeps ceil
    # from adding a step.  It drops one only where x's fraction is below the
    # shave, which build_report rejects for a calibrated W̃.
    x = tau_j / 2 * root
    return max(1, math.ceil(x * (1 - 2**-48)))


def _level_sum(c: int, base: float, root: float) -> tuple[int, int]:
    """Σ_j N_j over the L = c + 1 levels τ_j = 2^(j-1-c)·base, and N_L, where
    N_j = ``_level_steps(τ_j, root)``: O(1) work whatever L.

    **Identity.**  Level j's step count ceil(((τ_j/2)·root)·s), s = 1 - 2^-48,
    scales a product by 2^(j-2-c) at each of its three roundings.  While
    every intermediate is a normal float, scaling by a power of two commutes
    with rounding, so N_j = ⌈z/2^m⌉ with z = (base·root)·s rounded once and
    m = L + 1 - j.  With Y = ⌈z⌉ - 1 (z > 0), ⌈z/2^m⌉ = (Y ≫ m) + 1, and
    Σ_{m≥1} (Y ≫ m) = Y - popcount(Y), so summing m = 1..L gives
        Σ_j N_j = L + Y - popcount(Y) - (Y ≫ L) + popcount(Y ≫ L),
        N_L = (Y ≫ 1) + 1.
    The ``max(1, ·)`` of ``_level_steps`` never acts, since Y ≥ 0.

    **Guard.**  The largest intermediates are base and base·root; the
    smallest are 2^-(c+1)·base and 2^-(c+1)·z.  So the identity is exact when
    base·root is finite and 2^-(c+1)·min(base, z) ≥ 2^-1022, which the
    comparison with 2^(c-1021), a power of two for every c a checked run can
    have (c ≤ 1024), tests without rounding.

    **Fallback.**  Any other input (overflow, underflow, NaN, subnormal
    spacings) sums the levels one by one with ``_level_steps``, the twin of
    ``build_report``'s per-level loop, so it returns, or raises, exactly what
    that loop does.
    """
    z = base * root
    if math.isfinite(z):
        z *= 1 - 2**-48
        if min(base, z) >= 2.0 ** (c - 1021):
            y = math.ceil(z) - 1
            high = y >> (c + 1)
            return c + 1 + y - y.bit_count() - high + high.bit_count(), (y >> 1) + 1
    total = n_j = 0
    for j in range(1, c + 2):
        n_j = _level_steps(2.0 ** (j - 1 - c) * base, root)
        total += n_j
    return total, n_j


def optimize_split(
    eps_targ: float,
    lam: float,
    w_norm: float,
    delta: float = 0.06,
    n_pairs: int = 5,
    n_samples: int = 100,
) -> tuple[float, float, int, int]:
    """Split the precision budget between phase estimation and Trotter error.

    Minimizes the total step count subject to ε_Q + ε_T ≤ ε_targ.  The
    continuous relaxation (steps ∝ ε_Q⁻¹·ε_T^(-1/2)) has its optimum at
    ε_Q = (2/3)ε_targ; a local grid over the ceiling-induced plateaus
    refines it.  Returns (ε_Q, ε_T, N_total, N_max) with ε in λ units.

    Level j runs N data points at times n·τ_j (n = 0..N-1), each n·N_j steps
    and sampled N_s times per real and imaginary part, so N_total =
    2·N_s·(N(N-1)/2)·Σ_j N_j and N_max = N·N_L, with the sums from
    ``_level_sum``.
    """
    if min(eps_targ, lam, w_norm, delta) <= 0 or n_pairs < 2:
        raise InfeasibleModel("budget, norms and pair count must be positive")
    scale = math.pi / lam  # as normalize scales
    per_step = 2 * n_samples * (n_pairs * (n_pairs - 1) // 2)

    def evaluate(frac: float) -> tuple[int, int]:
        eps_q = frac * eps_targ
        eps_t = eps_targ - eps_q
        c, base = _checked_schedule(delta, n_pairs, n_samples, eps_q * scale)
        level_sum, n_last = _level_sum(c, base, _step_root(w_norm, eps_t * scale))
        return per_step * level_sum, n_pairs * n_last

    best_frac, best = 2 / 3, evaluate(2 / 3)
    for i in range(81):
        frac = 0.40 + 0.50 * i / 80
        cand = evaluate(frac)
        if cand[0] < best[0]:
            best_frac, best = frac, cand
    eps_q = best_frac * eps_targ
    return eps_q, eps_targ - eps_q, best[0], best[1]


def logical_error_rate(d: int, p_phys: float) -> float:
    """Per-operation logical error rate of a distance-d patch."""
    return 0.1 * d * (100 * p_phys) ** ((d + 1) / 2)


def expected_logical_errors(
    n: int, clocks_per_circuit: float, d: int, p_phys: float
) -> float:
    """Expected logical errors of one circuit at code distance d.

    The operation count is patches x clocks: every one of the 4n²+1 patches
    is exposed for the full circuit duration.
    """
    if p_phys >= 0.01:
        raise InfeasibleModel("physical error rate must be below threshold 0.01")
    n_op = (4 * n * n + 1) * clocks_per_circuit
    return logical_error_rate(d, p_phys) * n_op


MAX_DISTANCE = 51  # the largest code distance the search and d_override may use


def choose_distance(
    n: int, clocks_per_circuit: float, p_phys: float, eps_logerr: float = 0.01
) -> int:
    """Smallest odd distance keeping the whole circuit's logical error budget."""
    for d in range(3, MAX_DISTANCE + 1, 2):
        if expected_logical_errors(n, clocks_per_circuit, d, p_phys) < eps_logerr:
            return d
    raise InfeasibleModel(f"no code distance up to {MAX_DISTANCE} meets the error budget")


def pec_factor(tau: float, p_phys: float, k: int) -> float:
    """Mitigation sampling overhead of a duration-τ normalized evolution."""
    return pec_sampling_factor(rus_error_rate(math.pi * tau, p_phys, k))


def calibrate_w_norm(
    n_max_target: int,
    eps_q_norm: float,
    eps_t_norm: float,
    delta: float,
) -> float:
    """Error norm W̃ for which the largest circuit has n_max_target steps.

    Inverts N_max = (δ / 2ε̃_Q)·sqrt(W̃/ε̃_T) (continuous form).
    """
    return eps_t_norm * (2 * eps_q_norm * n_max_target / delta) ** 2


# ---------------------------------------------------------------------------
# Configuration


def _real(v) -> bool:  # a JSON number a float can hold; type() rules out bools
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _int(v) -> bool:  # a JSON integer a float can hold
    return type(v) is int and _real(v)


# "section.key" -> (requirement, check); the key is an EstimatorConfig field
_SCHEMA = {
    "model.t": ("a number > 0", lambda v: _real(v) and v > 0),
    "model.u": ("a number >= 0", lambda v: _real(v) and v >= 0),
    "injection.k": (
        "an integer >= 1 a float can hold, or null",
        lambda v: v is None or _int(v) and v >= 1,
    ),
    "code.p_phys": ("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1),
    "code.eps_logerr": ("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1),
    "code.d_override": (
        f"an odd integer in [3, {MAX_DISTANCE}] or null",
        lambda v: v is None or type(v) is int and 3 <= v <= MAX_DISTANCE and v % 2 == 1,
    ),
    "qcels.delta": ("a number > 0", lambda v: _real(v) and v > 0),
    "qcels.n_pairs": ("an integer >= 2 a float can hold", lambda v: _int(v) and v >= 2),
    "qcels.n_samples": ("an integer >= 1 a float can hold", lambda v: _int(v) and v >= 1),
    "qcels.eps_targ": ("a number in (0, 1]", lambda v: _real(v) and 0 < v <= 1),
    "trotter.w_norm": ("a number > 0 or null", lambda v: v is None or _real(v) and v > 0),
}


@dataclass
class EstimatorConfig:
    t: float = 1.0
    u: float = 4.0
    k: int | None = None
    p_phys: float = 1e-4
    eps_logerr: float = 0.01
    d_override: int | None = None
    delta: float = 0.06
    n_pairs: int = 5
    n_samples: int = 100
    eps_targ: float = 0.01
    w_norm: float | None = None


def parse_config(obj: dict) -> EstimatorConfig:
    """Build a config from the nested JSON schema, rejecting unknown keys and
    values of the wrong type or out of range."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    sections = {name.split(".")[0] for name in _SCHEMA}
    cfg = EstimatorConfig()
    for section, sub in obj.items():
        if section not in sections:
            raise ValueError(f"unknown config section: {section!r}")
        if not isinstance(sub, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key, value in sub.items():
            name = f"{section}.{key}"
            if name not in _SCHEMA:
                raise ValueError(f"unknown config key: {name}")
            requirement, check = _SCHEMA[name]
            if not check(value):
                raise ValueError(f"config key {name} must be {requirement}, got {value!r}")
            setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# Report


@dataclass
class EstimateReport:
    n: int
    one_norm: float
    eps_qcels: float
    eps_trotter: float
    w_norm: float
    levels: int
    steps_per_level: list[int]
    n_total: int
    n_max: int
    d: int
    k: int
    t_trotter: float
    max_runtime_s: float
    total_runtime_s: float
    n_qubit: int


def build_report(
    n: int,
    config: EstimatorConfig | None = None,
    t_trotter: float | None = None,
    calibrate_nmax: int | None = None,
) -> EstimateReport:
    """Full resource report for phase estimation on an n x n model.

    ``t_trotter`` is the mean clock count of one plain Trotter step (rough
    analytic model by default).  The error norm comes from the config or,
    when ``calibrate_nmax`` is given, from inverting the largest-circuit
    step count.
    """
    cfg = config or EstimatorConfig()
    # the largest circuit runs n_pairs · n_last >= n_pairs steps
    if calibrate_nmax is not None and calibrate_nmax < cfg.n_pairs:
        raise ValueError(
            f"--calibrate-nmax must be at least qcels.n_pairs = {cfg.n_pairs}, "
            f"got {calibrate_nmax}"
        )
    spec = HubbardSpec(n, cfg.t, cfg.u)
    lam = one_norm(spec)
    if t_trotter is None:
        t_trotter = trotter_clocks(n, rough_t_rus)

    eps_q = 2 / 3 * cfg.eps_targ
    eps_t = cfg.eps_targ - eps_q
    w_norm = cfg.w_norm
    if w_norm is None:
        if calibrate_nmax is None:
            raise InfeasibleModel(
                "no Trotter error norm given and no step-count calibration target"
            )
        try:
            w_norm = calibrate_w_norm(
                calibrate_nmax,
                normalize(eps_q, lam),
                normalize(eps_t, lam),
                cfg.delta,
            )
        except OverflowError:
            w_norm = math.inf
        if not (math.isfinite(w_norm) and w_norm > 0):
            raise InfeasibleModel(
                f"calibrated Trotter error norm is {w_norm!r}: --calibrate-nmax "
                f"{calibrate_nmax}, qcels.delta {cfg.delta} and one-norm {lam!r} "
                f"(from model.t {cfg.t}, model.u {cfg.u}) put it out of range"
            )
    eps_q, eps_t, n_total, n_max = optimize_split(
        cfg.eps_targ, lam, w_norm, cfg.delta, cfg.n_pairs, cfg.n_samples
    )
    if cfg.w_norm is None and n_max < calibrate_nmax:
        raise ValueError(
            f"--calibrate-nmax {calibrate_nmax} is past what float arithmetic resolves: "
            f"the largest circuit comes out at {n_max} steps"
        )
    params = QcelsParams(cfg.delta, cfg.n_pairs, cfg.n_samples, normalize(eps_q, lam))
    root = _step_root(w_norm, normalize(eps_t, lam))
    steps = [_level_steps(t, root) for t in params.tau]

    clocks_per_circuit = controlled_circuit_clocks(n_max, t_trotter)
    if cfg.d_override is not None:
        d = cfg.d_override
        errors = expected_logical_errors(n, clocks_per_circuit, d, cfg.p_phys)
        if not errors < cfg.eps_logerr:
            raise InfeasibleModel(
                f"code.d_override {d} expects {errors:.4g} logical errors per "
                f"circuit, not below code.eps_logerr {cfg.eps_logerr}"
            )
    else:
        d = choose_distance(n, clocks_per_circuit, cfg.p_phys, cfg.eps_logerr)
    k = cfg.k
    if k is None:
        k = SHIPPED_CONFIGS[d].k if d in SHIPPED_CONFIGS else 3

    # The longest single circuit is dominated by the plain-step cost.
    max_runtime = n_max * t_trotter * d * CODE_CYCLE_SECONDS
    total = 0.0
    for tau_j, n_j in zip(params.tau, steps):
        for i in range(cfg.n_pairs):
            clocks = controlled_circuit_clocks(i * n_j, t_trotter)
            weight = pec_factor(tau_j * i / 2, cfg.p_phys, k)
            total += 2 * cfg.n_samples * clocks * d * CODE_CYCLE_SECONDS * weight

    return EstimateReport(
        n=n,
        one_norm=lam,
        eps_qcels=eps_q,
        eps_trotter=eps_t,
        w_norm=w_norm,
        levels=params.levels,
        steps_per_level=steps,
        n_total=n_total,
        n_max=n_max,
        d=d,
        k=k,
        t_trotter=t_trotter,
        max_runtime_s=max_runtime,
        total_runtime_s=total,
        n_qubit=(4 * n * n + 1) * 2 * d * d,
    )

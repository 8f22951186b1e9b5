"""End-to-end phase-estimation resource reports.

Combines the multi-level least-squares QPE parameter bookkeeping, the
Trotter-step counting, the error-budget split, surface-code distance
selection, and mitigation sampling overhead into a runtime/qubit report.
All eigenphases are normalized by π/λ so the spectrum fits in [-π, π).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict

from .hubbard import HubbardSpec, one_norm
from .injection import SHIPPED_CONFIGS, InfeasibleModel, pec_sampling_factor, rus_error_rate
from .trotter import controlled_circuit_clocks, rough_t_rus, trotter_clocks

CODE_CYCLE_SECONDS = 1e-6


def normalize(value: float, lam: float) -> float:
    """Scale a spectral quantity by π/λ."""
    if lam <= 0:
        raise ValueError("one-norm must be positive")
    return value * (math.pi / lam)


@dataclass(frozen=True)
class QcelsParams:
    """Parameters of a J-level phase-estimation run."""

    delta: float
    n_pairs: int
    n_samples: int
    eps_qcels_norm: float

    def __post_init__(self) -> None:
        if not 0 < self.eps_qcels_norm <= 1:
            raise ValueError(f"QCELS precision must be in (0, 1], got {self.eps_qcels_norm}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"QCELS delta must be a finite positive number, got {self.delta}")
        if self.n_samples < 0:
            raise ValueError(f"QCELS sample count must be at least 0, got {self.n_samples}")
        if self.n_pairs < 2:
            raise ValueError(
                f"QCELS data points per level must be at least 2, got {self.n_pairs}"
            )
        for j, tau_j in enumerate(self.tau):
            if not math.isfinite(tau_j):
                raise ValueError(
                    f"QCELS level spacing tau_{j} must be finite, got {tau_j} for "
                    f"delta {self.delta}, pairs {self.n_pairs}, eps {self.eps_qcels_norm}"
                )
        # The fit adds sums of n_pairs terms t²·Z; 16 covers noisy |Z| up to 2.
        t_last = (self.n_pairs - 1) * self.tau[-1]
        if not math.isfinite(16 * self.n_pairs * t_last * t_last):
            raise ValueError(
                f"QCELS delta {self.delta} is too large: sample time {t_last:.4g} squared "
                f"overflows the fit (pairs {self.n_pairs}, eps {self.eps_qcels_norm})"
            )

    @property
    def levels(self) -> int:
        return math.ceil(math.log2(1 / self.eps_qcels_norm)) + 1

    @property
    def tau(self) -> tuple[float, ...]:
        c = math.ceil(math.log2(1 / self.eps_qcels_norm))
        base = self.delta / (self.n_pairs * self.eps_qcels_norm)
        return tuple(2.0 ** (j - 1 - c) * base for j in range(1, self.levels + 1))

    def validate(self) -> None:
        t_max = self.n_pairs * self.tau[-1]
        assert math.isclose(
            t_max, self.delta / self.eps_qcels_norm, rel_tol=1e-12
        ), "maximum evolution time identity violated"


def trotter_steps_per_level(tau_j: float, w_norm: float, eps_t_norm: float) -> int:
    """Steps per unit evolution time at level j: ceil((τ_j/2)·sqrt(W̃/ε̃_T))."""
    if w_norm <= 0 or eps_t_norm <= 0:
        raise ValueError("error norm and budget must be positive")
    return max(1, math.ceil(tau_j / 2 * math.sqrt(w_norm / eps_t_norm)))


def total_steps(
    params: QcelsParams, w_norm: float, eps_t_norm: float
) -> tuple[int, int]:
    """Total Trotter steps over all Hadamard-test circuits, and the largest
    single-circuit step count.

    Level j measures N data pairs at times n·τ_j (n = 0..N-1); each time
    point costs n·N_j steps and is sampled N_s times for each of the real
    and imaginary parts.
    """
    n, ns = params.n_pairs, params.n_samples
    total = 0
    n_last = 1
    for tau_j in params.tau:
        n_j = trotter_steps_per_level(tau_j, w_norm, eps_t_norm)
        total += 2 * ns * n_j * sum(range(n))
        n_last = n_j
    return total, n * n_last


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
    """
    if min(eps_targ, lam, w_norm, delta) <= 0 or n_pairs < 2:
        raise InfeasibleModel("budget, norms and pair count must be positive")

    def evaluate(frac: float) -> tuple[int, int]:
        eps_q = frac * eps_targ
        eps_t = eps_targ - eps_q
        params = QcelsParams(delta, n_pairs, n_samples, normalize(eps_q, lam))
        return total_steps(params, w_norm, normalize(eps_t, lam))

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


def choose_distance(
    n: int, clocks_per_circuit: float, p_phys: float, eps_logerr: float = 0.01
) -> int:
    """Smallest odd distance keeping the whole circuit's logical error budget.

    The operation count is patches x clocks: every one of the 4n²+1 patches
    is exposed for the full circuit duration.
    """
    if p_phys >= 0.01:
        raise InfeasibleModel("physical error rate must be below threshold 0.01")
    n_op = (4 * n * n + 1) * clocks_per_circuit
    for d in range(3, 53, 2):
        if logical_error_rate(d, p_phys) * n_op < eps_logerr:
            return d
    raise InfeasibleModel("no code distance up to 51 meets the error budget")


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


# "section.key" -> (requirement, check); the key is an EstimatorConfig field
_SCHEMA = {
    "model.t": ("a number > 0", lambda v: _real(v) and v > 0),
    "model.u": ("a number >= 0", lambda v: _real(v) and v >= 0),
    "injection.k": (
        "an integer >= 1 or null",
        lambda v: v is None or type(v) is int and v >= 1,
    ),
    "code.p_phys": ("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1),
    "code.eps_logerr": ("a number in (0, 1)", lambda v: _real(v) and 0 < v < 1),
    "code.d_override": (
        "an odd integer >= 3 or null",
        lambda v: v is None or type(v) is int and v >= 3 and v % 2 == 1,
    ),
    "qcels.delta": ("a number > 0", lambda v: _real(v) and v > 0),
    "qcels.n_pairs": ("an integer >= 2", lambda v: type(v) is int and v >= 2),
    "qcels.n_samples": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True, allow_nan=False)


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
    if calibrate_nmax is not None and calibrate_nmax < 1:
        raise ValueError(f"calibrate_nmax must be at least 1, got {calibrate_nmax}")
    cfg = config or EstimatorConfig()
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
        w_norm = calibrate_w_norm(
            calibrate_nmax,
            normalize(eps_q, lam),
            normalize(eps_t, lam),
            cfg.delta,
        )
    eps_q, eps_t, n_total, n_max = optimize_split(
        cfg.eps_targ, lam, w_norm, cfg.delta, cfg.n_pairs, cfg.n_samples
    )
    params = QcelsParams(cfg.delta, cfg.n_pairs, cfg.n_samples, normalize(eps_q, lam))
    params.validate()
    eps_t_norm = normalize(eps_t, lam)
    steps = [trotter_steps_per_level(t, w_norm, eps_t_norm) for t in params.tau]

    clocks_per_circuit = controlled_circuit_clocks(n_max, t_trotter)
    if cfg.d_override is not None:
        d = cfg.d_override
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

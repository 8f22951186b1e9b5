"""Ancilla-injection protocol: angle relations, success rates, error/PEC factors.

An analog rotation ancilla is prepared by rotating k disjoint subsets of the
physical qubits along a logical-Z representative by a raw angle θ and
postselecting; the surviving state realizes an effective logical rotation by
θ*.  Each repeat-until-success trial that fails doubles the required angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ANGLE_CAP = math.pi / 4


class AngleCapError(ValueError):
    """Raised when a trial angle leaves the small-angle protocol domain."""


class InfeasibleModel(ValueError):
    """Raised when no consistent resource assignment exists."""


@dataclass(frozen=True)
class InjectionConfig:
    """Injection protocol parameters: k subsets, a constant pass rate and
    injection attempts per clock per region cell."""

    k: int
    p_pass: float = 1.0
    attempts_per_clock: int = 3

    def __post_init__(self) -> None:
        if self.attempts_per_clock < 1:
            raise ValueError("attempts_per_clock must be at least 1")
        if not 0 < self.p_pass <= 1:
            raise ValueError(f"pass rate must be a number in (0, 1], got {self.p_pass!r}")


# Shipped configurations by code distance; the k subsets along the logical-Z
# representative have sizes (3, 3, 3) at d = 9 and (2, 2, 2, 2, 3) at d = 11.
SHIPPED_CONFIGS = {9: InjectionConfig(k=3), 11: InjectionConfig(k=5)}


def trial_angle(target_angle: float, trial: int) -> float:
    """Angle for trial ``trial`` (from 1): doubles after each failure."""
    theta = 2 ** (trial - 1) * target_angle
    if abs(theta) > ANGLE_CAP:
        raise AngleCapError(
            f"trial angle {theta:.4g} exceeds the small-angle cap "
            f"{ANGLE_CAP:.4g} at trial {trial}"
        )
    return theta


def p_ideal(theta: float, k: int) -> float:
    """Postselection success probability of an ideal injection: sin^2k + cos^2k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return math.sin(theta) ** (2 * k) + math.cos(theta) ** (2 * k)


def effective_angle(theta: float, k: int) -> float:
    """Effective logical rotation θ* produced by raw per-subset angle θ."""
    return math.asin(math.sin(theta) ** k / math.sqrt(p_ideal(theta, k)))


def theta_for_target(theta_star: float, k: int) -> float:
    """Invert the angle relation: raw θ producing effective angle θ*.

    sin θ* = sinᵏθ / sqrt(sin²ᵏθ + cos²ᵏθ) gives tan θ* = tanᵏθ, so
    θ = atan(tan(θ*)^(1/k)) on [0, π/4].
    """
    if not 0 <= theta_star <= effective_angle(ANGLE_CAP, k):
        raise ValueError(f"target angle {theta_star} outside invertible domain")
    return math.atan(math.tan(theta_star) ** (1 / k))


def success_prob(target_angle: float, trial: int, cfg: InjectionConfig) -> float:
    """Per-attempt success probability at the given trial's angle."""
    theta = theta_for_target(abs(trial_angle(target_angle, trial)), cfg.k)
    return p_ideal(theta, cfg.k) * cfg.p_pass


def rus_error_rate(theta_star: float, p_phys: float, k: int) -> float:
    """Worst-case logical error rate of one analog rotation: 0.40·k·θ*·p_phys."""
    return 0.40 * k * theta_star * p_phys


def pec_sampling_factor(eps: float) -> float:
    """Sampling overhead of cancelling a probabilistic error of rate ε: e^{4ε}."""
    if eps < 0:
        raise ValueError("error rate must be nonnegative")
    try:
        return math.exp(4 * eps)
    except OverflowError:
        raise InfeasibleModel(
            f"PEC mitigation overhead e^(4·{eps:.4g}) is too large for a float"
        ) from None

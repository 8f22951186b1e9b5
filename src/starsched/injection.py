"""Ancilla-injection protocol: angle relations, success rates, error/PEC factors.

An analog rotation ancilla is prepared by rotating k disjoint subsets of the
physical qubits along a logical-Z representative by a raw angle θ and
postselecting; the surviving state realizes an effective logical rotation by
θ*.  Each repeat-until-success trial that fails doubles the required angle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

ANGLE_CAP = math.pi / 4


class AngleCapError(ValueError):
    """Raised when a trial angle leaves the small-angle protocol domain."""


class InfeasibleModel(ValueError):
    """Raised when no consistent resource assignment exists."""


@dataclass(frozen=True)
class InjectionConfig:
    """Injection protocol parameters.

    ``q_sizes`` are the sizes of the k disjoint physical-qubit subsets along
    the logical-Z representative; they must tile the full distance-d chain.
    ``p_pass`` is a constant pass rate or a table keyed by "d,p_phys".
    """

    k: int
    q_sizes: tuple[int, ...]
    d: int
    p_phys: float = 1e-4
    p_pass: float | dict = 1.0
    attempts_per_clock: int = 3

    def __post_init__(self) -> None:
        if self.k != len(self.q_sizes):
            raise ValueError(f"k={self.k} but {len(self.q_sizes)} subset sizes given")
        if sum(self.q_sizes) != self.d:
            raise ValueError(
                f"subset sizes {self.q_sizes} sum to {sum(self.q_sizes)}, "
                f"expected d={self.d}"
            )
        if self.attempts_per_clock < 1:
            raise ValueError("attempts_per_clock must be at least 1")
        for rate in self.p_pass.values() if isinstance(self.p_pass, dict) else [self.p_pass]:
            _check_pass_rate(rate)

    def pass_rate(self) -> float:
        if isinstance(self.p_pass, dict):
            key = f"{self.d},{self.p_phys:g}"
            try:
                return float(self.p_pass[key])
            except KeyError:
                raise KeyError(f"p_pass table has no entry for {key!r}") from None
        return float(self.p_pass)


def _check_pass_rate(rate) -> float:
    try:
        value = float(rate)
    except (TypeError, ValueError):
        value = math.nan
    if not 0 < value <= 1:
        raise ValueError(f"pass rate must be a number in (0, 1], got {rate!r}")
    return value


# Shipped configurations (distance: subset sizes).
SHIPPED_CONFIGS = {
    9: InjectionConfig(k=3, q_sizes=(3, 3, 3), d=9),
    11: InjectionConfig(k=5, q_sizes=(2, 2, 2, 2, 3), d=11),
}


def load_p_pass_table(path) -> dict:
    """Load a pass-rate table: JSON map {"d,p_phys": rate}."""
    with open(path) as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        raise ValueError("p_pass table must be a JSON object")
    return {str(k): _check_pass_rate(v) for k, v in table.items()}


@dataclass(frozen=True)
class RotationRequest:
    """One rotation to realize: target angle θ*, basis, and current trial index."""

    target_angle: float
    basis: str  # "Z" | "ZZ"
    trial_index: int = 1

    def __post_init__(self) -> None:
        if self.basis not in ("Z", "ZZ"):
            raise ValueError(f"basis must be Z or ZZ, got {self.basis!r}")
        if self.trial_index < 1:
            raise ValueError("trial index starts at 1")

    @property
    def trial_angle(self) -> float:
        """Angle for the current trial: doubles after each failure."""
        theta = 2 ** (self.trial_index - 1) * self.target_angle
        if abs(theta) > ANGLE_CAP:
            raise AngleCapError(
                f"trial angle {theta:.4g} exceeds the small-angle cap "
                f"{ANGLE_CAP:.4g} at trial {self.trial_index}"
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

    The forward map is strictly monotone on [0, π/4]; bisection to 1e-15
    gives round-trip residuals below 1e-12 relative.
    """
    if not 0 <= theta_star <= effective_angle(ANGLE_CAP, k):
        raise ValueError(f"target angle {theta_star} outside invertible domain")
    if theta_star == 0:
        return 0.0
    lo, hi = 0.0, ANGLE_CAP
    for _ in range(200):
        mid = (lo + hi) / 2
        if effective_angle(mid, k) < theta_star:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17:
            break
    return (lo + hi) / 2


def success_prob(req: RotationRequest, cfg: InjectionConfig) -> float:
    """Per-attempt success probability at the request's current trial angle."""
    theta = theta_for_target(abs(req.trial_angle), cfg.k)
    return p_ideal(theta, cfg.k) * cfg.pass_rate()


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

"""Rotation-trial angles, success probabilities, and protocol configs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsched.injection import (
    ANGLE_CAP,
    AngleCapError,
    InfeasibleModel,
    InjectionConfig,
    effective_angle,
    p_ideal,
    pec_sampling_factor,
    rus_error_rate,
    theta_for_target,
    trial_angle,
)


def test_trial_angle_doubles_each_failure():
    assert math.isclose(trial_angle(0.01, 1), 0.01)
    assert math.isclose(trial_angle(0.01, 3), 0.04)


def test_trial_angle_cap():
    with pytest.raises(AngleCapError):
        trial_angle(0.3, 3)  # 1.2 > pi/4


def test_p_ideal_limits():
    # tiny angles almost always pass; the cap angle has the known floor
    assert p_ideal(1e-9, 3) == pytest.approx(1.0)
    k = 3
    theta = ANGLE_CAP
    expected = math.sin(theta) ** (2 * k) + math.cos(theta) ** (2 * k)
    assert p_ideal(theta, k) == pytest.approx(expected)


@given(
    st.floats(1e-6, math.pi / 4 * 0.999),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_target_angle_inversion_round_trips(theta_star, k):
    theta = theta_for_target(theta_star, k)
    assert 0 < theta <= math.pi / 4 + 1e-12
    assert effective_angle(theta, k) == pytest.approx(theta_star, abs=1e-9)


def test_effective_angle_definition():
    k, theta = 3, 0.3
    p = p_ideal(theta, k)
    expected = math.asin(math.sin(theta) ** k / math.sqrt(p))
    assert effective_angle(theta, k) == pytest.approx(expected)


def test_config_validation():
    with pytest.raises(ValueError, match="attempts_per_clock"):
        InjectionConfig(k=3, attempts_per_clock=0)
    for rate in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="pass rate"):
            InjectionConfig(k=3, p_pass=rate)


def test_rotation_error_scales_with_angle_and_rate():
    assert rus_error_rate(0.02, 1e-4, 3) == pytest.approx(0.4 * 3 * 0.02 * 1e-4)
    assert rus_error_rate(0.02, 2e-4, 3) == 2 * rus_error_rate(0.02, 1e-4, 3)


def test_mitigation_factor():
    assert pec_sampling_factor(0.0) == 1.0
    assert pec_sampling_factor(0.5) == pytest.approx(math.exp(2.0))
    with pytest.raises(InfeasibleModel, match="mitigation overhead"):
        pec_sampling_factor(200.0)


@pytest.mark.parametrize("theta_star", [-0.1, math.nan, 1.0])
def test_target_angle_outside_domain_rejected(theta_star):
    with pytest.raises(ValueError, match="outside invertible domain"):
        theta_for_target(theta_star, 3)

"""Phase-estimation bookkeeping, distance choice, and the report pipeline."""

import json
import math
import time
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from starsched import estimator
from starsched.cli import _json_text
from starsched.estimator import (
    EstimatorConfig,
    InfeasibleModel,
    QcelsParams,
    build_report,
    calibrate_w_norm,
    choose_distance,
    logical_error_rate,
    normalize,
    optimize_split,
    parse_config,
    pec_factor,
)
from starsched.estimator import _level_steps, _level_sum, _step_root


def test_level_times_double_and_hit_budget():
    params = QcelsParams(0.06, 5, 100, 0.01)
    for a, b in zip(params.tau, params.tau[1:]):
        assert b == pytest.approx(2 * a)
    assert params.n_pairs * params.tau[-1] == pytest.approx(0.06 / 0.01)


@given(st.floats(1e-5, 0.3), st.floats(0.01, 0.5))
@settings(max_examples=100, deadline=None)
def test_final_time_budget_invariant(eps, delta):
    params = QcelsParams(delta, 5, 100, eps)
    assert params.n_pairs * params.tau[-1] == pytest.approx(delta / eps)


def test_levels_formula():
    params = QcelsParams(0.06, 5, 100, 0.01)
    assert params.levels == math.ceil(math.log2(1 / 0.01)) + 1


def fresh_schedule(params):
    """The level count and spacings of ``params``, computed from its fields
    afresh on every call."""
    c = math.ceil(math.log2(1 / params.eps_qcels_norm))
    base = params.delta / (params.n_pairs * params.eps_qcels_norm)
    return c + 1, tuple(2.0 ** (j - 1 - c) * base for j in range(1, c + 2))


@given(delta=st.floats(1e-3, 10.0), n_pairs=st.integers(2, 10**6), eps=st.floats(1e-9, 1.0))
@settings(max_examples=200, deadline=None)
def test_cached_schedule_equals_a_fresh_one(delta, n_pairs, eps):
    params = QcelsParams(delta, n_pairs, 100, eps)
    assert (params.levels, params.tau) == fresh_schedule(params)
    assert params.tau is params.tau and len(params.tau) == params.levels
    # the cache is no field: equality and hashing still see the four fields only
    twin = QcelsParams(delta, n_pairs, 100, eps)
    assert twin == params and hash(twin) == hash(params)


def test_steps_per_level_monotone():
    params = QcelsParams(0.06, 5, 100, 0.01)
    steps = [_level_steps(t, _step_root(1e4, 0.003)) for t in params.tau]
    assert steps == sorted(steps)
    assert steps[0] >= 1


def closed_form_steps(params, w_norm, eps_t_norm):
    """Σ_j N_j and N_L of ``params``'s levels, as ``_level_sum`` gives them."""
    return _level_sum(params.levels - 1, params.tau[-1], _step_root(w_norm, eps_t_norm))


def test_total_steps_oracle():
    # direct re-summation over levels
    params = QcelsParams(0.06, 3, 10, 0.02)
    w, eps_t = 5e3, 0.005
    level_sum, n_last = closed_form_steps(params, w, eps_t)
    expect_sum = sum(max(1, math.ceil(tau / 2 * math.sqrt(w / eps_t))) for tau in params.tau)
    assert level_sum == expect_sum
    assert n_last == max(1, math.ceil(params.tau[-1] / 2 * math.sqrt(w / eps_t)))


def summed_total_steps(params, w_norm, eps_t_norm):
    """Σ_j N_j and N_L, summing the levels' step counts one by one."""
    root = _step_root(w_norm, eps_t_norm)
    steps = [_level_steps(tau_j, root) for tau_j in params.tau]
    return sum(steps), steps[-1]


def log_uniform(lo: float, hi: float):
    """Floats spread evenly in log10 over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# c = 10 (ε̃_Q = 2^-10, 11 levels) and base = 2^(c-1021): the smallest
# spacing's half, 2^-(c+1)·base, is exactly 2^-1022, the least normal float
AT_GUARD = (2.0**-1020, 2, 3, 2.0**-10)
BELOW_GUARD = (math.nextafter(2.0**-1020, 0), 2, 3, 2.0**-10)


def total_steps_outcome(delta, n_pairs, n_samples, eps, w_norm, eps_t, steps):
    return outcome(lambda: steps(QcelsParams(delta, n_pairs, n_samples, eps), w_norm, eps_t))


@given(
    delta=st.one_of(st.floats(0.01, 0.5), log_uniform(1e-300, 1e300)),
    n_pairs=st.integers(2, 2000),  # enters through base and the checks
    n_samples=st.integers(0, 1000),
    eps=st.one_of(st.floats(1e-4, 1.0), log_uniform(1e-300, 1.0)),
    w_norm=st.one_of(st.floats(1e-3, 1e8), log_uniform(1e-300, 1e300)),
    eps_t=st.one_of(st.floats(1e-6, 1.0), log_uniform(1e-300, 1e300)),
    n_max_target=st.one_of(st.none(), st.integers(2, 10**18)),
)
@example(*AT_GUARD, 4.0, 1.0, None)  # closed form at its guard's edge
@example(*BELOW_GUARD, 4.0, 1.0, None)  # level loop just past it
@example(0.06, 5, 100, 0.01, 1e-300, 1e300, None)  # the root underflows to 0
@example(0.06, 5, 100, 0.01, 1e300, 1e-300, None)  # the root overflows: OverflowError
@example(5e-324, 5, 100, 1.0, 1e300, 1e-300, None)  # base 0, root inf: ValueError
@example(0.06, 5, 100, 1.5, 1.0, 1.0, None)  # each QcelsParams message
@example(math.inf, 5, 100, 0.01, 1.0, 1.0, None)
@example(0.06, 5, -1, 0.01, 1.0, 1.0, None)
@example(0.06, 1, 100, 0.01, 1.0, 1.0, None)
@example(1e300, 5, 100, 1e-10, 1.0, 1.0, None)
@example(1e152, 5, 100, 0.002, 1.0, 1.0, None)
@example(0.06, 5, 100, 1e-320, 1.0, 1.0, None)  # 1/eps overflows: OverflowError
@settings(max_examples=300, deadline=None)
def test_total_steps_matches_summed_loop(
    delta, n_pairs, n_samples, eps, w_norm, eps_t, n_max_target
):
    if n_max_target is not None:  # a calibrated W̃, where the 2^-48 shave decides
        w = outcome(calibrate_w_norm, n_max_target, eps, eps_t, delta)
        if isinstance(w, float) and 0 < w < math.inf:
            w_norm = w
    args = (delta, n_pairs, n_samples, eps, w_norm, eps_t)
    assert total_steps_outcome(*args, closed_form_steps) == total_steps_outcome(
        *args, summed_total_steps
    )


def reference_optimize_split(eps_targ, lam, w_norm, delta, n_pairs, n_samples):
    """``optimize_split`` as it was before ``QcelsParams`` cached its level
    schedule: every budget fraction recomputes the spacings and takes the
    square root once per level."""
    if min(eps_targ, lam, w_norm, delta) <= 0 or n_pairs < 2:
        raise InfeasibleModel("budget, norms and pair count must be positive")

    def evaluate(frac):
        eps_q = frac * eps_targ
        eps_t = eps_targ - eps_q
        params = QcelsParams(delta, n_pairs, n_samples, normalize(eps_q, lam))
        eps_t_norm = normalize(eps_t, lam)
        total, n_last = 0, 1
        for tau_j in fresh_schedule(params)[1]:
            x = tau_j / 2 * math.sqrt(w_norm / eps_t_norm)
            n_last = max(1, math.ceil(x * (1 - 2**-48)))
            total += 2 * n_samples * n_last * (n_pairs * (n_pairs - 1) // 2)
        return total, n_pairs * n_last

    best_frac, best = 2 / 3, evaluate(2 / 3)
    for i in range(81):
        frac = 0.40 + 0.50 * i / 80
        cand = evaluate(frac)
        if cand[0] < best[0]:
            best_frac, best = frac, cand
    eps_q = best_frac * eps_targ
    return eps_q, eps_targ - eps_q, best[0], best[1]


@given(
    eps_targ=st.one_of(st.floats(1e-4, 1.0), log_uniform(1e-300, 1.0)),
    lam=st.one_of(st.floats(4.0, 2000.0), log_uniform(1e-300, 1e300)),
    w_norm=st.one_of(st.floats(1e-3, 1e8), log_uniform(1e-300, 1e300)),
    delta=st.one_of(st.floats(0.01, 0.5), log_uniform(1e-300, 1e300)),
    n_pairs=st.one_of(st.integers(2, 2000), st.integers(2, 10**300)),
    n_samples=st.one_of(st.integers(0, 1000), st.integers(0, 10**300)),
    n_max_target=st.one_of(st.none(), st.integers(2, 10**18)),
)
@example(0.01, 64.0, 1e4, 0.06, 5, 100, None)  # a paper-sized split: closed form
@example(0.01, 64.0, 1.0, 1e-307, 5, 100, None)  # spacings below 2^-1022: level loop
@example(0.01, 64.0, 1e-300, 1e-300, 5, 100, None)  # base·root underflows to 0
@example(1e-20, 64.0, 1e300, 0.06, 5, 100, None)  # the root overflows: OverflowError
@example(0.01, 64.0, 1e4, 0.06, 10**308, 100, None)  # N·ε̃_Q: OverflowError
@example(0.01, 1e-3, 1e4, 0.06, 5, 100, None)  # each QcelsParams message it can reach
@example(0.01, 64.0, 1e4, math.inf, 5, 100, None)
@example(0.01, 64.0, 1e4, 0.06, 5, -1, None)
@example(1e-10, 64.0, 1e4, 1e300, 5, 100, None)
@example(0.01, 64.0, 1e4, 1e150, 5, 100, None)
@settings(max_examples=150, deadline=None)
def test_split_matches_the_uncached_loop(
    eps_targ, lam, w_norm, delta, n_pairs, n_samples, n_max_target
):
    if n_max_target is not None:  # as build_report calibrates W̃
        eps_q = 2 / 3 * eps_targ
        w = outcome(
            calibrate_w_norm,
            n_max_target,
            normalize(eps_q, lam),
            normalize(eps_targ - eps_q, lam),
            delta,
        )
        if isinstance(w, float) and 0 < w < math.inf:
            w_norm = w
    args = (eps_targ, lam, w_norm, delta, n_pairs, n_samples)
    assert outcome(optimize_split, *args) == outcome(reference_optimize_split, *args)


# the paper's four calibrations, as test_acceptance runs them
PAPER_N_MAX = {4: 3397, 6: 5051, 8: 6750, 10: 8538}


@given(
    n=st.integers(2, 10),
    n_pairs=st.integers(2, 8),
    n_samples=st.integers(1, 50),
    eps_targ=st.one_of(st.floats(1e-3, 1.0), log_uniform(1e-6, 1.0)),
    delta=st.one_of(st.floats(0.01, 0.5), log_uniform(1e-307, 1e-2)),
    w_norm=st.one_of(st.none(), log_uniform(1e-6, 1e8)),
    n_max_target=st.integers(8, 10**6),  # the calibration target when W̃ is None
)
@example(4, 5, 100, 0.01, 0.06, None, PAPER_N_MAX[4])
@example(6, 5, 100, 0.01, 0.06, None, PAPER_N_MAX[6])
@example(8, 5, 100, 0.01, 0.06, None, PAPER_N_MAX[8])
@example(10, 5, 100, 0.01, 0.06, None, PAPER_N_MAX[10])
@example(4, 5, 100, 0.01, 1e-307, 1.0, 8)  # spacings below 2^-1022: level loop
@settings(max_examples=150, deadline=None)
def test_report_step_counts_agree(
    n, n_pairs, n_samples, eps_targ, delta, w_norm, n_max_target
):
    # n_total and n_max come from the split's _level_sum, steps_per_level from
    # build_report's own per-level loop
    cfg = EstimatorConfig(
        delta=delta, n_pairs=n_pairs, n_samples=n_samples, eps_targ=eps_targ, w_norm=w_norm
    )
    target = n_max_target if w_norm is None else None
    try:
        report = build_report(n, cfg, calibrate_nmax=target)
    except InfeasibleModel:  # no report: W̃ or the mitigation overhead overflows
        reject()
    steps = report.steps_per_level
    assert report.n_total == 2 * n_samples * math.comb(n_pairs, 2) * sum(steps)
    assert report.n_max == n_pairs * steps[-1]
    assert report.levels == len(steps)


@pytest.mark.parametrize(
    "params, message",
    [
        ((0.06, 5, 100, 1.5), "QCELS precision must be in (0, 1], got 1.5"),
        ((math.inf, 5, 100, 0.01), "QCELS delta must be a finite positive number, got inf"),
        ((0.06, 5, -1, 0.01), "QCELS sample count must be at least 0, got -1"),
        ((0.06, 1, 100, 0.01), "QCELS data points per level must be at least 2, got 1"),
        (
            (1e300, 5, 100, 1e-10),
            "QCELS level spacing tau_0 must be finite, got inf for delta 1e+300, "
            "pairs 5, eps 1e-10",
        ),
        (
            (1e152, 5, 100, 0.002),
            "QCELS delta 1e+152 is too large: sample time 4e+154 squared overflows "
            "the fit (pairs 5, eps 0.002)",
        ),
    ],
)
def test_each_qcels_check_names_its_input(params, message):
    with pytest.raises(ValueError) as exc:
        QcelsParams(*params)
    assert str(exc.value) == message


def test_closed_form_and_level_loop_each_run():
    # the level loop is the only caller of _level_steps in either function
    expect = {
        args: summed_total_steps(QcelsParams(*args), 4.0, 1.0)
        for args in (AT_GUARD, BELOW_GUARD)
    }
    with mock.patch.object(
        estimator, "_level_steps", wraps=estimator._level_steps
    ) as spy:
        assert closed_form_steps(QcelsParams(*AT_GUARD), 4.0, 1.0) == expect[AT_GUARD]
        assert spy.call_count == 0
        assert closed_form_steps(QcelsParams(*BELOW_GUARD), 4.0, 1.0) == expect[BELOW_GUARD]
        assert spy.call_count == 11  # c + 1 levels
        spy.reset_mock()
        optimize_split(0.01, 64.0, 1e4)
        assert spy.call_count == 0
        optimize_split(0.01, 64.0, 1.0, delta=1e-307)
        assert spy.called


def test_split_at_a_huge_pair_count_is_fast():
    # the step total is a closed form in n_pairs, not a sum over it
    start = time.perf_counter()
    eps_q, eps_t, total, n_max = optimize_split(0.01, 64.0, 1e4, n_pairs=10**300)
    assert time.perf_counter() - start < 0.5
    assert eps_q + eps_t == pytest.approx(0.01)
    assert total > 10**600 and n_max >= 10**300


def test_split_prefers_two_thirds_region():
    eps_q, eps_t, total, n_max = optimize_split(0.01, 64.0, 1e4)
    assert 0.4 * 0.01 <= eps_q <= 0.9 * 0.01
    assert eps_q + eps_t == pytest.approx(0.01)
    assert total > 0 and n_max > 0


def test_logical_error_model():
    assert logical_error_rate(9, 1e-4) == pytest.approx(0.1 * 9 * 0.01**5)


def test_distance_increases_with_circuit_size():
    d_small = choose_distance(4, 1e4, 1e-4)
    d_large = choose_distance(4, 1e9, 1e-4)
    assert d_large >= d_small


def test_distance_infeasible_above_threshold():
    with pytest.raises(InfeasibleModel):
        choose_distance(4, 1e6, 0.02)


def test_mitigation_weight():
    assert pec_factor(0.0, 1e-4, 3) == 1.0
    assert pec_factor(1.0, 1e-4, 3) == pytest.approx(
        math.exp(4 * 0.4 * 3 * math.pi * 1e-4)
    )


def test_error_norm_calibration_round_trip():
    w = calibrate_w_norm(3397, 1e-4, 5e-5, 0.06)
    n_max_back = 0.06 / (2 * 1e-4) * math.sqrt(w / 5e-5)
    assert n_max_back == pytest.approx(3397, rel=1e-9)


def test_config_parsing_and_unknown_keys():
    cfg = parse_config({"model": {"u": 8.0}, "qcels": {"delta": 0.05}})
    assert cfg.u == 8.0 and cfg.delta == 0.05
    with pytest.raises(ValueError, match="model.n"):
        parse_config({"model": {"n": 6}})
    with pytest.raises(ValueError, match="bogus"):
        parse_config({"bogus": {}})
    with pytest.raises(ValueError, match="model.mass"):
        parse_config({"model": {"mass": 1}})


def test_report_requires_error_norm_or_calibration():
    with pytest.raises(InfeasibleModel):
        build_report(4, EstimatorConfig())


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize(
    "target", [5, 3397, 10**12, 10**13, 10**13 + 1, 10**14, 10**14 + 3, 10**15]
)
def test_report_meets_the_calibration_target(n, target):
    n_max = build_report(n, calibrate_nmax=target).n_max
    assert n_max >= target
    if target % 5 == 0:  # a multiple of qcels.n_pairs is met exactly
        assert n_max == target


def test_report_json_round_trips():
    report = build_report(4, calibrate_nmax=3397)
    obj = json.loads(_json_text(asdict(report)))
    assert obj["n"] == 4
    assert obj["n_qubit"] == (4 * 16 + 1) * 2 * obj["d"] ** 2
    assert obj["n_max"] <= obj["n_total"]


def test_normalize_maps_to_phase_units():
    assert normalize(0.01, 64.0) == pytest.approx(0.01 * math.pi / 64.0)

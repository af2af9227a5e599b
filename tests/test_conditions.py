"""Superiority conditions, margin search, and the crossover root solver."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spimmwave import (
    NoRootError,
    ParameterError,
    decay_condition_value,
    gamma_crossover,
    geometric_mean_threshold,
    spim_margin,
    two_path_margin,
)


def high_snr_superiority(w) -> bool:
    """Noise-free limit of geometric_mean_threshold (array gains drop out)."""
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    return geometric_mean_threshold(w, np.ones_like(w), 0.0).holds


def test_two_path_margin_values():
    assert two_path_margin(0.9, 0.1) == pytest.approx(-0.5)
    assert two_path_margin(0.6, 0.4) == pytest.approx(1.0)
    assert two_path_margin(0.8, 0.2) == 0.0


def test_two_path_margin_validation():
    with pytest.raises(ParameterError):
        two_path_margin(0.9, 0.0)
    with pytest.raises(ParameterError):
        two_path_margin(0.1, 0.9)


def test_threshold_noise_free_two_paths():
    # tau -> 1/4, i.e. the condition reduces to w2 > w1 / 4
    res = geometric_mean_threshold([0.8, 0.3], [64.0, 64.0], 0.0)
    assert res.tau == pytest.approx(0.25)
    assert res.geo_mean == pytest.approx(0.3)
    assert res.holds


def test_threshold_equal_gains_four_paths():
    res = geometric_mean_threshold([1.0, 1.0, 1.0, 1.0], [64.0] * 4, 0.0)
    assert res.tau == pytest.approx(4.0 ** (-4.0 / 3.0), rel=1e-12)
    assert res.tau == pytest.approx(0.157, abs=5e-4)
    assert res.geo_mean == pytest.approx(1.0)
    assert res.holds


def test_threshold_monotone_in_noise():
    taus = [geometric_mean_threshold([0.8, 0.2], [64.0, 64.0], n0).tau
            for n0 in (0.0, 0.1, 0.5, 1.0)]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_threshold_validation():
    with pytest.raises(ParameterError):
        geometric_mean_threshold([0.9], [64.0], 0.1)
    with pytest.raises(ParameterError):
        geometric_mean_threshold([0.9, 0.0], [64.0, 64.0], 0.1)


def test_threshold_beyond_float_range_is_inf_and_fails():
    # exp(4 * 1 * (1/1 + 1/0.001)) = exp(4004) is beyond the double range
    res = geometric_mean_threshold([1.0, 0.001], [1.0, 1.0], 1.0)
    assert res.tau == math.inf
    assert res.geo_mean == pytest.approx(0.001)
    assert not res.holds


def test_threshold_with_subnormal_gain():
    # 1 / (w g) overflows: no penalty without noise, an infinite one with it
    quiet = geometric_mean_threshold([1.0, 1e-310], [1.0, 1.0], 0.0)
    assert quiet.tau == 0.25 and quiet.geo_mean == 1e-310
    noisy = geometric_mean_threshold([1.0, 1e-310], [1.0, 1.0], 0.1)
    assert noisy.tau == math.inf
    for res in (quiet, noisy):
        assert res.holds is False
    assert geometric_mean_threshold([0.8, 0.3], [64.0, 64.0], 0.0).holds is True


def test_high_snr_check_is_noise_free_threshold():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        w = np.sort(rng.uniform(0.01, 1.0, m))[::-1]
        res = geometric_mean_threshold(w, np.ones(m), 0.0)
        assert high_snr_superiority(w) == res.holds


def test_high_snr_check_logarithmic_form():
    # same verdict as (1/(M-1)) sum log w_n > log w_1 - (M/(M-1)) log M
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(2, 8))
        w = np.sort(rng.uniform(0.01, 1.0, m))[::-1]
        log_lhs = np.mean(np.log(w[1:]))
        log_rhs = np.log(w[0]) - m / (m - 1.0) * np.log(m)
        assert high_snr_superiority(w) == (log_lhs > log_rhs)


def test_high_snr_boundary_tie_is_strict():
    assert not high_snr_superiority([0.8, 0.2])  # 0.2 == 0.8 / 4 exactly


def test_two_path_margin_consistent_with_high_snr_check():
    rng = np.random.default_rng(6)
    for _ in range(100):
        w2 = rng.uniform(0.01, 0.5)
        w1 = rng.uniform(w2, 1.0)
        assert (two_path_margin(w1, w2) > 0) == high_snr_superiority([w1, w2])


def test_decay_value_conventions_and_validation():
    assert decay_condition_value(1, 0.5, 0.1, 64.0) == 1.0
    with pytest.raises(ParameterError):
        decay_condition_value(2, 1.5, 0.1, 64.0)
    with pytest.raises(ParameterError):
        decay_condition_value(2, 0.5, 0.1, 0.0)
    with pytest.raises(ParameterError):
        decay_condition_value(0.5, 0.5, 0.1, 64.0)


def test_decay_value_noise_free_two_beam_boundary():
    # with m = 2 the noise-free expression is 4 * gamma, so gamma = 1/4 sits on 1
    assert decay_condition_value(2, 0.25, 0.0, 64.0) == pytest.approx(1.0, rel=1e-15)
    assert decay_condition_value(2, 0.3, 0.0, 64.0) > 1.0
    assert decay_condition_value(2, 0.2, 0.0, 64.0) < 1.0


def test_decay_value_limit_near_unit_decay():
    # gamma -> 1 with small noise approaches m^(m/(m-1))
    for m in (2, 4, 8):
        limit = m ** (m / (m - 1.0))
        assert decay_condition_value(m, 0.9999, 1e-6, 64.0) == pytest.approx(limit, rel=1e-3)


def test_decay_value_monotone_in_gamma():
    # strictly increasing once above the exp underflow floor, never decreasing
    grid = np.arange(0.05, 0.951, 0.05)
    for m in (2, 4, 8):
        values = [decay_condition_value(m, g, 0.1, 64.0) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(b > a for a, b in zip(values, values[1:]) if a > 1e-300)


def test_decay_value_many_weak_beams_is_zero_not_overflow():
    # gamma^(1 - m) = 100^499 overflows a double; the condition value underflows to 0
    assert decay_condition_value(500, 0.01, 0.1, 64.0) == 0.0
    # without noise there is no penalty term, so no 0 * inf
    noise_free = decay_condition_value(500, 0.5, 0.0, 64.0)
    assert noise_free == pytest.approx(500 ** (500 / 499) * 0.5 ** 250, rel=1e-12)


def test_margin_small_decay_prefers_single_beam():
    assert spim_margin(gamma=0.1, n0=0.1, g1=64.0) == 1


def test_margin_matches_bruteforce_scan():
    for gamma, n0 in ((0.9, 0.01), (0.5, 0.1), (0.3, 0.05), (0.97, 0.2)):
        feasible = [2 ** b for b in range(0, 7)
                    if b == 0 or decay_condition_value(2 ** b, gamma, n0, 64.0) > 1.0]
        assert spim_margin(gamma, n0, 64.0, b_max=6) == max(feasible)
        assert spim_margin(gamma, n0, 64.0, b_max=6) in {2 ** b for b in range(7)}
        grid = [1.0 + 0.01 * i for i in range(1, 6301)]
        best = max([1.0] + [m for m in grid if decay_condition_value(m, gamma, n0, 64.0) > 1.0])
        relaxed = spim_margin(gamma, n0, 64.0, b_max=6, relax_integer=True)
        assert relaxed == pytest.approx(best, abs=1e-9)


def test_margin_with_many_candidate_beams_does_not_overflow():
    # the 0.01-step grid up to 2^10 beams reaches gamma^(1 - m) far beyond the double range
    assert spim_margin(0.02, 0.1, 64.0, b_max=10, relax_integer=True) == 1.0


def test_margin_monotone_in_gamma():
    for n0 in (0.05, 0.1, 0.5):
        margins = [spim_margin(gamma=g, n0=n0, g1=64.0)
                   for g in np.arange(0.05, 0.951, 0.05)]
        assert all(b >= a for a, b in zip(margins, margins[1:]))


def test_margin_relaxed_grid():
    relaxed = spim_margin(gamma=0.6, n0=0.1, g1=64.0, relax_integer=True)
    integral = spim_margin(gamma=0.6, n0=0.1, g1=64.0)
    assert isinstance(relaxed, float)
    assert 1.0 <= relaxed <= 64.0
    assert relaxed >= integral
    # grid resolution is 0.01 in the beam count
    assert round(relaxed * 100) == pytest.approx(relaxed * 100, abs=1e-9)


def test_margin_validation():
    with pytest.raises(ParameterError):
        spim_margin(gamma=0.0, n0=0.1, g1=64.0)
    with pytest.raises(ParameterError):
        spim_margin(gamma=0.5, n0=-0.1, g1=64.0)
    # b_max is an integer in [0, 16]; each bad value is rejected before any grid is built
    for b_max, relax in ((17, False), (17, True), (40, True), (-1, False), (2.5, False),
                         (2.5, True), (True, False)):
        with pytest.raises(ParameterError) as info:
            spim_margin(0.5, 0.1, 64.0, b_max=b_max, relax_integer=relax)
        assert info.value.field == "b_max"


def test_crossover_reference_points():
    assert gamma_crossover(2, 0.1, 64.0) == pytest.approx(0.258, abs=0.005)
    assert gamma_crossover(4, 0.1, 64.0) == pytest.approx(0.425, abs=0.005)
    assert gamma_crossover(8, 0.1, 64.0) == pytest.approx(0.620, abs=0.005)


def test_crossover_residual_is_tiny():
    for m in (2, 4, 8):
        root = gamma_crossover(m, 0.1, 64.0)
        assert abs(decay_condition_value(m, root, 0.1, 64.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("m", [2, 2.5, 3, 4, 7.3, 8, 16, 64])
def test_noise_free_crossover_is_exact(m):
    # without noise the condition is m^(m/(m-1)) gamma^(m/2) = 1, so gamma = m^(-2/(m-1))
    assert gamma_crossover(m, 0.0, 64.0) == pytest.approx(m ** (-2 / (m - 1)), rel=1e-15)


@given(m=st.floats(2.0, 64.0),
       n0=st.just(0.0) | st.floats(1e-4, 10.0),
       g1=st.floats(1.0, 1024.0))
def test_crossover_root_or_no_root(m, n0, g1):
    try:
        root = gamma_crossover(m, n0, g1)
    except NoRootError:
        return
    assert abs(decay_condition_value(m, root, n0, g1) - 1.0) <= 1e-12


def test_decay_value_is_the_threshold_test_on_decaying_gains():
    # for integer m the scalar condition is geo_mean / tau of the gains gamma^(n-1)
    for m in (2, 3, 4, 8, 16):
        for gamma in (0.2, 0.5, 0.9):
            for n0 in (0.0, 0.01, 0.1):
                res = geometric_mean_threshold(gamma ** np.arange(m), [64.0] * m, n0)
                value = decay_condition_value(m, gamma, n0, 64.0)
                assert value == pytest.approx(res.geo_mean / res.tau, rel=1e-12)


def test_crossover_no_root_detection():
    # heavy noise keeps the condition below 1 on the whole interval
    with pytest.raises(NoRootError):
        gamma_crossover(2, 50.0, 64.0)
    with pytest.raises(ParameterError):
        gamma_crossover(1, 0.1, 64.0)


def test_crossover_for_many_beams_does_not_overflow():
    # the bracket end gamma = 1e-9 puts gamma^(1 - 64) far beyond the double range
    root = gamma_crossover(64, 0.1, 64.0)
    assert 0.0 < root < 1.0
    assert math.isclose(decay_condition_value(64, root, 0.1, 64.0), 1.0, abs_tol=1e-4)


@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("b_max", [0, 6, 11])
def test_batched_margins_equal_scalar_calls(b_max, relax):
    # one call builds the candidate grid once and scores every gamma on it
    gammas = [0.02, 0.3, 0.55, 0.8, 0.97]
    for n0 in (0.0, 0.1, 0.5):
        expected = [spim_margin(g, n0, 64.0, b_max, relax) for g in gammas]
        for batch in (gammas, np.array(gammas)):
            margins = spim_margin(batch, n0, 64.0, b_max, relax)
            assert margins == expected
            assert [type(m) for m in margins] == [type(m) for m in expected]
    assert spim_margin([], 0.1, 64.0, b_max, relax) == []
    with pytest.raises(ParameterError) as info:
        spim_margin([0.5, 1.0], 0.1, 64.0, b_max, relax)
    assert info.value.field == "gamma"


def _reference_crossover(m, n0, g1):
    """The bisection with each step's log condition written out and evaluated afresh."""
    def log_condition(gamma):
        with np.errstate(over="ignore"):
            log_gamma = np.log(gamma)
            lead = m / (m - 1.0) * np.log(m) + m / 2.0 * log_gamma
            inverse_gain_sum = (np.exp((1.0 - m) * log_gamma) - gamma) / (1.0 - gamma)
            return lead - 4.0 * n0 * inverse_gain_sum / g1

    lo, hi = 1e-9, 1.0 - 1e-9
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if log_condition(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16])
def test_crossover_equals_stepwise_reference(m):
    # the beam term and the overflow guard are set up once per call, to the same bits
    for n0 in (0.05, 0.1, 0.5, 1.0):
        assert gamma_crossover(m, n0, 64.0) == _reference_crossover(m, n0, 64.0)


def test_margin_transition_matches_crossover():
    # the margin jumps past 1 exactly where the two-beam condition crosses
    root = gamma_crossover(2, 0.1, 64.0)
    assert spim_margin(gamma=root - 0.01, n0=0.1, g1=64.0) == 1
    assert spim_margin(gamma=root + 0.01, n0=0.1, g1=64.0) >= 2

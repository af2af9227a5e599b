"""Superiority conditions, margin search, and the crossover root solver."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spimmwave import (
    DimensionError,
    NoRootError,
    ParameterError,
    gamma_crossover,
    geometric_mean_threshold,
    spim_margin,
    two_path_margin,
)
from spimmwave.conditions import _beam_term, _log_condition


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


def _log_value(m, gamma, n0, g1):
    """The package's log decay condition with its beam term and overflow guard; 0 * inf raises."""
    with np.errstate(over="ignore", invalid="raise"):
        return _log_condition(m, _beam_term(m), gamma, n0, g1)


def test_decay_value_noise_free_two_beam_boundary():
    # with m = 2 the noise-free condition is 4 * gamma > 1, so gamma = 1/4 sits on the boundary
    assert _log_value(2, 0.25, 0.0, 64.0) == pytest.approx(0.0, abs=1e-15)
    assert _log_value(2, 0.3, 0.0, 64.0) > 0.0
    assert _log_value(2, 0.2, 0.0, 64.0) < 0.0


def test_decay_value_limit_near_unit_decay():
    # gamma -> 1 with small noise approaches m^(m/(m-1)), so the log approaches m/(m-1) ln m
    for m in (2, 4, 8):
        limit = m / (m - 1.0) * math.log(m)
        assert _log_value(m, 0.9999, 1e-6, 64.0) == pytest.approx(limit, abs=1e-3)


def test_decay_value_monotone_in_gamma():
    # gamma_crossover's bisection, and the verdict gamma > gamma_crossover(m, n0, g1), rest on
    # the log condition never stepping down as gamma grows, -inf entries included, and rising
    # strictly wherever it is finite, so the root is unique: 216 cases
    m = np.array([1.01, 1.5, 2.0, 3.0, 4.37, 8.0, 64.0, 1000.5, 2.0 ** 16])[:, None]
    gamma = np.linspace(1e-9, 1.0 - 1e-9, 200_001)
    for g1 in (1.0, 16.0, 256.0, 4096.0):
        for n0 in (0.0, 1e-4, 0.01, 0.1, 1.0, 10.0):
            values = _log_value(m, gamma, n0, g1)
            assert np.all(values[:, 1:] >= values[:, :-1]), (n0, g1)
            finite = np.isfinite(values[:, :-1])
            assert np.all((values[:, 1:] > values[:, :-1])[finite]), (n0, g1)


def test_decay_value_many_weak_beams_is_zero_not_overflow():
    # gamma^(1 - m) = 100^499 overflows a double: the penalty is inf, so the log condition is
    # -inf and the condition's value exp(-inf) is 0
    assert _log_value(500, 0.01, 0.1, 64.0) == -math.inf
    # without noise there is no penalty term, so no 0 * inf
    noise_free = _log_value(500, 0.5, 0.0, 64.0)
    assert noise_free == pytest.approx(500 / 499 * math.log(500) + 250 * math.log(0.5), abs=1e-12)


def test_margin_small_decay_prefers_single_beam():
    assert spim_margin(gamma=0.1, n0=0.1, g1=64.0) == 1


def test_margin_matches_bruteforce_scan():
    for gamma, n0 in ((0.9, 0.01), (0.5, 0.1), (0.3, 0.05), (0.97, 0.2)):
        feasible = [2 ** b for b in range(0, 7)
                    if b == 0 or _reference_log_condition(2 ** b, gamma, n0, 64.0) > 0.0]
        assert spim_margin(gamma, n0, 64.0, b_max=6) == max(feasible)
        assert spim_margin(gamma, n0, 64.0, b_max=6) in {2 ** b for b in range(7)}
        grid = [1.0 + 0.01 * i for i in range(1, 6301)]
        best = max([1.0] + [m for m in grid if _reference_log_condition(m, gamma, n0, 64.0) > 0.0])
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
    # b_max is an integer in [0, 16]; each bad value is rejected before the search runs
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
        assert abs(_reference_log_condition(m, root, 0.1, 64.0)) <= 1e-12


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
    assert abs(_reference_log_condition(m, root, n0, g1)) <= 1e-12


def test_decay_value_is_the_threshold_test_on_decaying_gains():
    # for integer m the condition's value is geo_mean / tau of the gains gamma^(n-1)
    for m in (2, 3, 4, 8, 16):
        for gamma in (0.2, 0.5, 0.9):
            for n0 in (0.0, 0.01, 0.1):
                res = geometric_mean_threshold(gamma ** np.arange(m), [64.0] * m, n0)
                value = math.exp(_log_value(m, gamma, n0, 64.0))
                assert value == pytest.approx(res.geo_mean / res.tau, rel=1e-12)


def test_crossover_no_root_detection():
    # heavy noise keeps the condition below 1 on the whole interval
    with pytest.raises(NoRootError):
        gamma_crossover(2, 50.0, 64.0)
    with pytest.raises(ParameterError):
        gamma_crossover(1, 0.1, 64.0)
    with pytest.raises(ParameterError):
        gamma_crossover(2, 0.1, 0.0)


def test_crossover_for_many_beams_does_not_overflow():
    # the bracket end gamma = 1e-9 puts gamma^(1 - 64) far beyond the double range
    root = gamma_crossover(64, 0.1, 64.0)
    assert 0.0 < root < 1.0
    assert abs(_reference_log_condition(64, root, 0.1, 64.0)) <= 1e-4


@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("b_max", [0, 6, 11])
def test_batched_margins_equal_scalar_calls(b_max, relax):
    # one call scores every gamma in one search
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


def test_margins_broadcast_over_noise_levels():
    # a scalar gamma with a list of levels gives one margin per level, each its scalar call
    levels = [0.0, 0.1, 0.2, 0.5]
    for relax in (False, True):
        margins = spim_margin(0.5, levels, 64.0, 6, relax)
        assert margins == [spim_margin(0.5, n0, 64.0, 6, relax) for n0 in levels]
        assert len(set(margins)) > 1
    assert spim_margin(0.5, [0.1], 64.0) == [spim_margin(0.5, 0.1, 64.0)]


def test_margin_shape_mismatch_names_gamma_and_n0():
    for gamma, n0 in (([0.3, 0.5, 0.7], [0.1, 0.2]), (np.full((2, 3), 0.5), [0.1, 0.2])):
        with pytest.raises(DimensionError, match=r"\bgamma\b.*\bn0\b"):
            spim_margin(gamma, n0, 64.0)


@pytest.mark.parametrize("relax", [False, True])
def test_two_dimensional_gamma_gives_nested_margins(relax):
    # a (levels, gammas) map comes back as nested lists, ints on the integer grid
    gammas = np.array([[0.2, 0.5, 0.9], [0.3, 0.6, 0.99]])
    levels = np.array([[0.0], [0.5]])
    margins = spim_margin(gammas, levels, 64.0, 8, relax)
    expected = [[spim_margin(float(g), float(n0), 64.0, 8, relax) for g in row]
                for row, (n0,) in zip(gammas, levels)]
    assert margins == expected
    kind = float if relax else int
    assert all(type(margin) is kind for row in margins for margin in row)


def test_margin_search_memory_does_not_grow_with_the_grid():
    # the relaxed grid at the cap holds 6.5M candidates; the search computes only those it probes
    gamma = 0.999
    spim_margin(gamma, 0.1, 64.0, 16, True)
    tracemalloc.start()
    try:
        margin = spim_margin(gamma, 0.1, 64.0, 16, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert margin > 2.0


def _reference_log_condition(m, gamma, n0, g1):
    """The log decay condition written out, elementwise over m; no penalty at n0 = 0."""
    with np.errstate(over="ignore"):
        log_gamma = np.log(gamma)
        lead = m / (m - 1.0) * np.log(m) + m / 2.0 * log_gamma
        if n0 == 0:
            return lead
        inverse_gain_sum = (np.exp((1.0 - m) * log_gamma) - gamma) / (1.0 - gamma)
        return lead - 4.0 * n0 * inverse_gain_sum / g1


def _reference_crossover(m, n0, g1):
    """The bisection with each step's log condition written out and evaluated afresh."""
    lo, hi = 1e-9, 1.0 - 1e-9
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _reference_log_condition(m, mid, n0, g1) > 0.0:
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


def _unpruned_margin(gamma, n0, g1, b_max, relax):
    """Oracle: the margin with every candidate of the grid scored, none skipped."""
    if relax:
        candidates = 1.0 + 0.01 * np.arange(1, int(round((2.0 ** b_max - 1.0) / 0.01)) + 1)
    else:
        candidates = np.array([2.0 ** b for b in range(1, b_max + 1)])
    wins = candidates[_reference_log_condition(candidates, gamma, n0, g1) > 0.0]
    best = float(wins[-1]) if wins.size else 1.0
    return best if relax else int(best)


def test_pruned_margins_equal_unpruned_scan():
    # the search scores about log2 of the grid size candidates; the margins must equal a scan
    # of all of them, also at gammas within 1e-12 of a crossover root, where the condition is 1
    rng = np.random.default_rng(18)
    for _ in range(80):
        b_max, relax = int(rng.integers(0, 12)), bool(rng.integers(2))
        n0 = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-4.0, 1.0))
        g1 = float(rng.choice([8.0, 64.0, 256.0]))
        gammas = list(rng.uniform(1e-6, 1.0 - 1e-6, 6))
        if b_max >= 1:
            m = float(rng.choice([2.0 ** int(rng.integers(1, b_max + 1)),
                                  1.0 + 0.01 * int(rng.integers(100, 100 * 2 ** b_max))]))
            try:
                root = gamma_crossover(m, n0, g1)
            except NoRootError:
                root = None
            if root is not None:
                gammas += [root + k * 1e-12 for k in (-1, 0, 1) if 0 < root + k * 1e-12 < 1]
        expected = [_unpruned_margin(gamma, n0, g1, b_max, relax) for gamma in gammas]
        assert spim_margin(gammas, n0, g1, b_max, relax) == expected, (n0, g1, b_max, relax)


@st.composite
def margin_queries(draw):
    """A margin query, with the gammas at a random candidate's crossover root +-1e-12 among its own."""
    relax = draw(st.booleans())
    b_max = draw(st.integers(0, 11 if relax else 16))
    n0 = draw(st.just(0.0) | st.floats(1e-4, 10.0))
    g1 = draw(st.floats(1.0, 4096.0))
    gammas = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=4))
    if b_max >= 1:
        index = draw(st.integers(100, 100 * (2 ** b_max - 1)) if relax else st.integers(1, b_max))
        try:
            root = gamma_crossover(1.0 + 0.01 * index if relax else 2.0 ** index, n0, g1)
        except NoRootError:
            root = None
        if root is not None:
            gammas += [root + k * 1e-12 for k in (-1, 0, 1) if 0 < root + k * 1e-12 < 1]
    return gammas, n0, g1, b_max, relax


@given(margin_queries())
def test_searched_margins_equal_exhaustive_scan(query):
    gammas, n0, g1, b_max, relax = query
    expected = [_unpruned_margin(gamma, n0, g1, b_max, relax) for gamma in gammas]
    assert spim_margin(gammas, n0, g1, b_max, relax) == expected


@pytest.mark.parametrize("gamma, n0, g1", [(0.02, 0.0, 64.0), (0.3, 0.1, 64.0), (0.6, 1e-4, 8.0),
                                           (0.9, 0.5, 4096.0), (0.99, 10.0, 1.0),
                                           (0.999, 0.01, 256.0)])
def test_log_condition_is_concave_in_beam_count(gamma, n0, g1):
    # what the margin search rests on: second differences in m are <= 0, and the wins a prefix
    for grid in (1.0 + 0.01 * np.arange(1, 6301), 1.0 + 2.0 ** np.linspace(-20.0, 16.0, 2001)):
        with np.errstate(over="ignore"):
            values = _log_condition(grid, _beam_term(grid), gamma, n0, g1)
        wins = values > 0.0
        assert np.all(wins[:np.count_nonzero(wins)])
        m, values = grid[np.isfinite(values)], values[np.isfinite(values)]
        assert len(values) > 100
        # each point lies on or above the chord of its two neighbours, to rounding
        chords = (values[:-2] * (m[2:] - m[1:-1]) + values[2:] * (m[1:-1] - m[:-2])) / (m[2:] - m[:-2])
        scale = np.abs(values[:-2]) + np.abs(values[1:-1]) + np.abs(values[2:])
        assert np.all(values[1:-1] - chords >= -1e-12 * scale)


def test_margin_map_mixes_noise_free_and_noisy_levels():
    # gamma^(1 - m) overflows on most of the grid: n0 = 0 gets no penalty and never 0 * inf,
    # n0 > 0 a penalty of inf, each as its scalar path; one search covers both
    m = 1.0 + 0.01 * np.arange(1, 204_701)
    levels = np.array([[0.0], [0.1]])
    with np.errstate(over="ignore", invalid="raise"):
        values = _log_condition(m, _beam_term(m), 0.02, levels, 64.0, levels > 0)
        for level, row in zip(levels[:, 0], values):
            assert np.array_equal(row, _log_condition(m, _beam_term(m), 0.02, level, 64.0))
    assert np.all(np.isfinite(values[0])) and np.isneginf(values[1, -1])
    gammas = [0.02, 0.4, 0.9, 0.999]
    with np.errstate(invalid="raise", divide="raise"):
        for relax, b_max in ((True, 11), (False, 16)):
            for n0 in (0.0, 0.1):
                margins = spim_margin(gammas, n0, 64.0, b_max, relax)
                assert margins == [_unpruned_margin(g, n0, 64.0, b_max, relax) for g in gammas]

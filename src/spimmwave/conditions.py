"""Superiority conditions and margin optimization for pattern-switched beams.

At high SNR, index modulation over M beams beats single-beam steering
exactly when the geometric mean of the weaker path gains clears a threshold
proportional to the strongest gain. Under an exponentially decaying gain
profile w_n = gamma^(n-1) the threshold becomes a scalar condition in gamma
whose unit crossing is found by bracketed bisection down to float spacing
(the function is monotone and flat near gamma -> 0, so raw Newton from a
blind guess is not safe).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import NoRootError, ParameterError
from .numerics import require_integer

RELAXED_STEP = 0.01
# the relaxed grid holds 100 * 2^b_max candidates: 6.6M at the cap
_B_MAX_CAP = 16
_CACHED_B_MAX = 10  # largest b_max whose relaxed margin grid is kept between calls

_DOMAINS = {
    "gamma": (lambda x: 0.0 < x < 1.0, "lie in (0, 1)"),
    "n0": (lambda x: 0 <= x < math.inf, "be finite and >= 0"),
    "g1": (lambda x: 0 < x < math.inf, "be finite and > 0"),
}


def _check(**values) -> None:
    """Raise a ParameterError naming the first of gamma, n0, g1 outside its domain."""
    for name, value in values.items():
        inside, domain = _DOMAINS[name]
        if not inside(value):
            raise ParameterError(f"{name} must {domain}, got {value}", field=name)


class ThresholdResult(NamedTuple):
    tau: float
    geo_mean: float
    holds: bool


def two_path_margin(w1: float, w2: float) -> float:
    """Signed margin 4 w2 - w1 of the two-beam superiority test.

    Positive means index modulation is guaranteed to win at high SNR, zero
    is the boundary, negative gives no guarantee.
    """
    if not 0 < w2 <= w1 < math.inf:
        raise ParameterError(
            f"gains must be finite and ordered w1 >= w2 > 0, got w1={w1}, w2={w2}")
    return 4.0 * w2 - w1


def geometric_mean_threshold(w, g, n0: float) -> ThresholdResult:
    """Geometric-mean superiority test over M >= 2 ordered path gains.

    tau = M^(-M/(M-1)) exp(4 n0 sum_n 1/(w_n g_n)); the condition holds
    (strictly) when the geometric mean of w_2..w_M exceeds tau * w_1. A
    tau beyond the floating-point range is inf, and the condition fails.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    g = np.atleast_1d(np.asarray(g, dtype=np.float64))
    m = len(w)
    if m < 2:
        raise ParameterError(f"need at least 2 paths, got {m}")
    if len(g) != m:
        raise ParameterError("w and g must have equal lengths")
    if not ((w > 0) & (w < np.inf) & (g > 0) & (g < np.inf)).all():
        raise ParameterError(f"gains w and g must be finite and > 0, got w={w}, g={g}")
    _check(n0=n0)
    penalty = 1.0  # with n0 = 0 there is no penalty, never 0 * inf
    if n0 > 0:
        # a subnormal gain makes 1 / (w g) inf, and so the penalty
        with np.errstate(over="ignore", divide="ignore"):
            penalty = float(np.exp(4.0 * n0 * np.sum(1.0 / (w * g))))
    tau = m ** (-m / (m - 1.0)) * penalty
    prod = float(np.prod(w[1:]))
    if prod > 0:
        geo_mean = prod ** (1.0 / (m - 1.0))
    else:  # product underflowed; fall back to the log form
        geo_mean = math.exp(float(np.mean(np.log(w[1:]))))
    return ThresholdResult(tau=tau, geo_mean=geo_mean, holds=bool(geo_mean > tau * w[0]))


def _beam_term(m):
    """The gamma-free term M/(M-1) ln M of the log decay condition, elementwise over m."""
    return m / (m - 1.0) * np.log(m)


def _log_condition(m, beam_term, gamma, n0: float, g1: float):
    """Natural log of the decay-condition value for m > 1, elementwise over m and gamma.

    beam_term is _beam_term(m), which a caller evaluating many gammas computes
    once. gamma^(1-M) is evaluated as exp((1-M) ln gamma): where it overflows,
    the penalty is infinite and the log is -inf (a value of 0) instead of an
    OverflowError. The caller enters np.errstate(over="ignore") once around
    all its evaluations. With n0 = 0 there is no penalty at all, never 0 * inf.
    """
    log_gamma = np.log(gamma)
    lead = beam_term + m / 2.0 * log_gamma
    if n0 == 0:
        return lead
    inverse_gain_sum = (np.exp((1.0 - m) * log_gamma) - gamma) / (1.0 - gamma)
    return lead - 4.0 * n0 * inverse_gain_sum / g1


def decay_condition_value(m: float, gamma: float, n0: float, g1: float) -> float:
    """Value of the decaying-gain superiority expression; > 1 means M beams win.

    M^(M/(M-1)) gamma^(M/2) exp(-4 n0 (gamma^(1-M) - gamma) / (g1 (1-gamma))).
    m may be non-integer (relaxed search grids); m = 1 is defined as exactly 1,
    the system compared against itself. Evaluated in logs, so a value below
    the floating-point range is 0.
    """
    _check(gamma=gamma, n0=n0, g1=g1)
    if not 1 <= m < math.inf:
        raise ParameterError(f"m must be finite and >= 1, got {m}")
    if m == 1:
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.exp(_log_condition(m, _beam_term(m), gamma, n0, g1)))


def _build_margin_grid(b_max: int, relax_integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """spim_margin's candidate beam counts and their gamma-free terms, both read-only."""
    if relax_integer:
        steps = int(round((2.0 ** b_max - 1.0) / RELAXED_STEP))
        candidates = 1.0 + RELAXED_STEP * np.arange(1, steps + 1)
    else:
        candidates = np.array([2.0 ** b for b in range(1, b_max + 1)])
    beam_term = _beam_term(candidates)
    candidates.flags.writeable = beam_term.flags.writeable = False
    return candidates, beam_term


_cached_margin_grid = functools.lru_cache(maxsize=2)(_build_margin_grid)


def _margin_grid(b_max: int, relax_integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """The candidate grid of spim_margin, the same arrays for every point of a margin map.

    The last two grids are kept, up to the relaxed grid of b_max = _CACHED_B_MAX
    (102 300 candidates, 1.6 MB). A larger relaxed grid, up to 6.6M candidates
    at the b_max cap, is built per call and freed with it: scoring it costs far
    more than building it.
    """
    if relax_integer and b_max > _CACHED_B_MAX:
        return _build_margin_grid(b_max, relax_integer)
    return _cached_margin_grid(b_max, relax_integer)


def spim_margin(gamma: float, n0: float, g1: float, b_max: int = 6,
                relax_integer: bool = False) -> float:
    """Largest beam count whose decay-condition value exceeds 1; 1 when none does.

    Candidates are the powers of two 2^b, b <= b_max, or a 0.01-step grid
    over [1, 2^b_max] when the integer requirement is relaxed. b_max is an
    integer in [0, 16].
    """
    _check(gamma=gamma, n0=n0, g1=g1)
    require_integer("b_max", b_max)
    if not 0 <= b_max <= _B_MAX_CAP:
        raise ParameterError(f"b_max must lie in [0, {_B_MAX_CAP}], got {b_max}", field="b_max")
    candidates, beam_term = _margin_grid(b_max, relax_integer)
    with np.errstate(over="ignore"):
        wins = candidates[_log_condition(candidates, beam_term, gamma, n0, g1) > 0.0]
    best = float(wins[-1]) if wins.size else 1.0
    return best if relax_integer else int(best)


def gamma_crossover(m: float, n0: float, g1: float) -> float:
    """Root gamma of decay_condition_value(m, gamma, n0, g1) = 1 inside (0, 1).

    The bracket (1e-9, 1 - 1e-9) is sign-checked on every call, then halved
    on the sign of the log condition until its midpoint is one of its ends.
    """
    if not 2 <= m < math.inf:
        raise ParameterError(f"m must be finite and >= 2, got {m}")
    _check(n0=n0, g1=g1)
    lo, hi = 1e-9, 1.0 - 1e-9
    beam_term = _beam_term(m)
    with np.errstate(over="ignore"):
        if not (_log_condition(m, beam_term, lo, n0, g1) < 0.0
                < _log_condition(m, beam_term, hi, n0, g1)):
            raise NoRootError(
                f"no sign change of the decay condition in ({lo}, {hi}) for m={m}, n0={n0}")
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if _log_condition(m, beam_term, mid, n0, g1) > 0.0:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
    return mid

"""Superiority conditions and margin optimization for pattern-switched beams.

At high SNR, index modulation over M beams beats single-beam steering
exactly when the geometric mean of the weaker path gains clears a threshold
proportional to the strongest gain. Under an exponentially decaying gain
profile w_n = gamma^(n-1) the threshold becomes a scalar condition in gamma
whose unit crossing is found by bracketed bisection down to float spacing
(the function is monotone and flat near gamma -> 0, so raw Newton from a
blind guess is not safe). In the beam count M the log condition is strictly
concave and never rises from below 0, so the counts that win form a prefix
of any candidate grid, and a margin is found by binary search over the grid.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import NoRootError, ParameterError
from .numerics import require_in, require_integer

RELAXED_STEP = 0.01
# the relaxed grid holds 100 * 2^b_max candidates: 6.6M at the cap
_B_MAX_CAP = 16

# the interval of each shared argument, as require_in takes it
_DOMAINS = {"gamma": dict(low=0, high=1), "n0": dict(low=0, open_low=False), "g1": dict(low=0)}


def _check(**values) -> None:
    """Raise a ParameterError naming the first of gamma, n0, g1 outside its domain."""
    for name, value in values.items():
        require_in(name, value, **_DOMAINS[name])


class ThresholdResult(NamedTuple):
    tau: float
    geo_mean: float
    holds: bool


def two_path_margin(w1: float, w2: float) -> float:
    """Signed margin 4 w2 - w1 of the two-beam superiority test.

    Positive means index modulation is guaranteed to win at high SNR, zero
    is the boundary, negative gives no guarantee.
    """
    require_in("w2", w2, 0)
    require_in("w1", w1, w2, open_low=False)
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
        raise ParameterError(f"need at least 2 paths, got {m}", field="w")
    if len(g) != m:
        raise ParameterError("w and g must have equal lengths", field="g")
    require_in("w", w, 0)
    require_in("g", g, 0)
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


def _log_condition(m, beam_term, gamma, n0: float, g1: float, noisy=None):
    """Natural log of the decay-condition value for m > 1, elementwise over m and gamma.

    beam_term is _beam_term(m), which a caller evaluating many gammas computes
    once. gamma^(1-M) is evaluated as exp((1-M) ln gamma): where it overflows,
    the penalty is infinite and the log is -inf (a value of 0) instead of an
    OverflowError. The caller enters np.errstate(over="ignore") once around
    all its evaluations. With n0 = 0 there is no penalty at all, never 0 * inf.
    n0 may also be an array of levels broadcasting with m and gamma, passed
    with noisy = n0 > 0: an entry with n0 = 0 then gets its gain sum zeroed
    before the product, so it has no penalty either, and never 0 * inf.
    """
    log_gamma = np.log(gamma)
    lead = beam_term + m / 2.0 * log_gamma
    if noisy is None and n0 == 0:
        return lead
    inverse_gain_sum = (np.exp((1.0 - m) * log_gamma) - gamma) / (1.0 - gamma)
    if noisy is not None:
        inverse_gain_sum = np.where(noisy, inverse_gain_sum, 0.0)
    return lead - 4.0 * n0 * inverse_gain_sum / g1


def decay_condition_value(m: float, gamma: float, n0: float, g1: float) -> float:
    """Value of the decaying-gain superiority expression; > 1 means M beams win.

    M^(M/(M-1)) gamma^(M/2) exp(-4 n0 (gamma^(1-M) - gamma) / (g1 (1-gamma))).
    m may be non-integer (relaxed search grids); m = 1 is defined as exactly 1,
    the system compared against itself. Evaluated in logs, so a value below
    the floating-point range is 0.
    """
    _check(gamma=gamma, n0=n0, g1=g1)
    require_in("m", m, 1, sys.float_info.max, open_low=False, open_high=False)
    if m == 1:
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.exp(_log_condition(m, _beam_term(m), gamma, n0, g1)))


def _margins(gamma, n0, g1: float, b_max: int, relax_integer: bool):
    """spim_margin's margins as floats, elementwise over gamma and n0, unchecked.

    The wins are a prefix of the candidate grid (see spim_margin), so a
    binary search finds the last in ceil(log2(N + 1)) rounds. Each round
    tests one candidate per entry with the test an exhaustive scan makes, so
    every margin has the scan's bits.
    """
    if relax_integer:
        steps = int(round((2.0 ** b_max - 1.0) / RELAXED_STEP))
        candidates = 1.0 + RELAXED_STEP * np.arange(1, steps + 1)
    else:
        candidates = np.array([2.0 ** b for b in range(1, b_max + 1)])
    gamma, n0 = np.broadcast_arrays(np.asarray(gamma, dtype=np.float64),
                                    np.asarray(n0, dtype=np.float64))
    count, beam_term, noisy = len(candidates), _beam_term(candidates), n0 > 0
    known = np.zeros(gamma.shape, dtype=np.intp)  # the candidates before index known win
    with np.errstate(over="ignore"):
        for step in [1 << k for k in reversed(range(count.bit_length()))]:
            probe = np.minimum(known + (step - 1), count - 1)
            wins = _log_condition(candidates[probe], beam_term[probe], gamma, n0, g1, noisy) > 0.0
            known += step * (wins & (known + step <= count))
    return np.where(known > 0, candidates[known - 1] if count else 1.0, 1.0)


def spim_margin(gamma, n0: float, g1: float, b_max: int = 6, relax_integer: bool = False):
    """Largest beam count whose decay-condition value exceeds 1; 1 when none does.

    Candidates are the powers of two 2^b, b <= b_max, or a 0.01-step grid
    over [1, 2^b_max] when the integer requirement is relaxed. b_max is an
    integer in [0, 16]. gamma may be a sequence: the candidate grid is then
    built once and every gamma scored in one search, and the margins come
    back as a list, each equal to its scalar call.

    The log condition f(M) = g(M) + (M/2) L - c (gamma^(1-M) - gamma), with
    g(M) = M ln M / (M-1), L = ln gamma < 0 and c = 4 n0 / (g1 (1-gamma)) >= 0,
    is strictly concave in M > 1: with u = M-1, g'' = h(u)/u^3 for
    h(u) = u^2/(1+u) - 2u + 2 ln(1+u), where h(0) = 0 and h' = -u^2/(1+u)^2 < 0;
    -c gamma^(1-M) is concave and (M/2) L is linear. As M -> 1, f -> 1 + L/2 -
    c (1-gamma) and f' -> 1/2 + L (1/2 + c). Since 1 - gamma <= -L, f(1) < 0
    needs -L (1/2 + c) > 1, and then f'(1) < 0, so f falls from the start and
    nothing wins. Otherwise f(1) >= 0 and, by concavity, f > 0 on (1, M] for
    any winning M. Either way the winning candidates are a prefix of the grid,
    and a binary search finds its end in about log2(N) evaluations, not N.
    """
    scalar = np.ndim(gamma) == 0
    gammas = [gamma] if scalar else list(gamma)
    _check(gamma=gammas, n0=n0, g1=g1)
    require_integer("b_max", b_max)
    require_in("b_max", b_max, 0, _B_MAX_CAP, open_low=False, open_high=False)
    margins = _margins(gammas, n0, g1, b_max, relax_integer).tolist()
    if not relax_integer:
        margins = [int(margin) for margin in margins]
    return margins[0] if scalar else margins


def gamma_crossover(m: float, n0: float, g1: float) -> float:
    """Root gamma of decay_condition_value(m, gamma, n0, g1) = 1 inside (0, 1).

    The bracket (1e-9, 1 - 1e-9) is sign-checked on every call, then halved
    on the sign of the log condition until its midpoint is one of its ends.
    """
    require_in("m", m, 2, sys.float_info.max, open_low=False, open_high=False)
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

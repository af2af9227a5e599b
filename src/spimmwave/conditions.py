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
from .numerics import _batch_shape, require_in, require_integer, require_number

RELAXED_STEP = 0.01
# b_max's domain: 2^16 beams lies far past any array modelled here, and the search over the
# relaxed grid's 100 (2^16 - 1) candidates at the cap takes 23 rounds
_B_MAX_CAP = 16


class ThresholdResult(NamedTuple):
    tau: float
    geo_mean: float
    holds: bool


def two_path_margin(w1: float, w2: float) -> float:
    """Signed margin 4 w2 - w1 of the two-beam superiority test.

    Positive means index modulation is guaranteed to win at high SNR, zero
    is the boundary, negative gives no guarantee.
    """
    w2 = require_number("w2", w2, 0)
    w1 = require_number("w1", w1, w2, open_low=False)
    return 4.0 * w2 - w1


def geometric_mean_threshold(w, g, n0: float) -> ThresholdResult:
    """Geometric-mean superiority test over M >= 2 ordered path gains.

    tau = M^(-M/(M-1)) exp(4 n0 sum_n 1/(w_n g_n)); the condition holds
    (strictly) when the geometric mean of w_2..w_M exceeds tau * w_1. A
    tau beyond the floating-point range is inf, and the condition fails.
    """
    w = np.atleast_1d(require_in("w", w, 0))
    if w.ndim != 1 or len(w) < 2:
        raise ParameterError(f"w must be one row of 2 or more gains, got {w.shape}", field="w")
    g = np.atleast_1d(require_in("g", g, 0))
    if g.shape != w.shape:
        raise ParameterError(f"g must have the shape of w, {w.shape}, got {g.shape}", field="g")
    m = len(w)
    n0 = require_number("n0", n0, 0, open_low=False)
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
    """The log decay condition for m > 1, elementwise over m and gamma; > 0 means M beams win.

    It is the log of M^(M/(M-1)) gamma^(M/2) exp(-4 n0 (gamma^(1-M) - gamma) /
    (g1 (1-gamma))), the geo_mean / tau of geometric_mean_threshold on the
    gains gamma^(n-1), n = 1..M, with M allowed to be non-integer (relaxed
    search grids). beam_term is _beam_term(m), which a caller evaluating many
    gammas computes once. gamma^(1-M) is evaluated as exp((1-M) ln gamma):
    where it overflows, the penalty is infinite and the log is -inf instead
    of an OverflowError. The caller enters np.errstate(over="ignore") once
    around all its evaluations. With n0 = 0 there is no penalty at all, never
    0 * inf. n0 may also be an array of levels broadcasting with m and gamma,
    passed with noisy = n0 > 0: an entry with n0 = 0 then gets its gain sum
    zeroed before the product, so it has no penalty either, and never 0 * inf.
    """
    log_gamma = np.log(gamma)
    lead = beam_term + m / 2.0 * log_gamma
    if noisy is None and n0 == 0:
        return lead
    inverse_gain_sum = (np.exp((1.0 - m) * log_gamma) - gamma) / (1.0 - gamma)
    if noisy is not None:
        inverse_gain_sum = np.where(noisy, inverse_gain_sum, 0.0)
    return lead - 4.0 * n0 * inverse_gain_sum / g1


def _candidate(k, relax_integer: bool):
    """Beam count k of spim_margin's grid, 1 + 0.01 k or 2^k on the integer grid; k = 0 gives 1."""
    return 1.0 + RELAXED_STEP * k if relax_integer else np.ldexp(1.0, k)


def spim_margin(gamma, n0, g1: float, b_max: int = 6, relax_integer: bool = False):
    """Largest beam count whose log decay condition is positive; 1 when none is.

    Candidates are the powers of two 2^b, b <= b_max, or a 0.01-step grid
    over [1, 2^b_max] when the integer requirement is relaxed. b_max is an
    integer in [0, 16]. gamma and n0 broadcast, and one search scores every
    entry: two scalars give a number, anything else a list, nested as their
    broadcast shape, each margin equal to its scalar call and an int on the
    integer grid. Shapes that do not broadcast raise a DimensionError that
    names gamma and n0.

    The log condition f(M) = g(M) + (M/2) L - c (gamma^(1-M) - gamma), with
    g(M) = M ln M / (M-1), L = ln gamma < 0 and c = 4 n0 / (g1 (1-gamma)) >= 0,
    is strictly concave in M > 1: with u = M-1, g'' = h(u)/u^3 for
    h(u) = u^2/(1+u) - 2u + 2 ln(1+u), where h(0) = 0 and h' = -u^2/(1+u)^2 < 0;
    -c gamma^(1-M) is concave and (M/2) L is linear. As M -> 1, f -> 1 + L/2 -
    c (1-gamma) and f' -> 1/2 + L (1/2 + c). Since 1 - gamma <= -L, f(1) < 0
    needs -L (1/2 + c) > 1, and then f'(1) < 0, so f falls from the start and
    nothing wins. Otherwise f(1) >= 0 and, by concavity, f > 0 on (1, M] for
    any winning M. Either way the winning candidates are a prefix of the grid,
    and a binary search finds its end in ceil(log2(N + 1)) rounds, not N. Each
    round computes only the candidate it probes per entry, and tests it as an
    exhaustive scan would, so every margin has the scan's bits.
    """
    gamma = require_in("gamma", gamma, 0, 1)
    n0 = require_in("n0", n0, 0, open_low=False)
    g1 = require_number("g1", g1, 0)
    require_integer("b_max", b_max)
    require_in("b_max", b_max, 0, _B_MAX_CAP, open_low=False, open_high=False)
    known = np.zeros(_batch_shape(gamma=np.shape(gamma), n0=np.shape(n0)), dtype=np.intp)
    count = int(round((2.0 ** b_max - 1.0) / RELAXED_STEP)) if relax_integer else b_max
    noisy = n0 > 0
    with np.errstate(over="ignore"):  # known counts the candidates that win
        for step in [1 << k for k in reversed(range(count.bit_length()))]:
            ahead = known + step
            m = _candidate(np.minimum(ahead, count), relax_integer)
            wins = _log_condition(m, _beam_term(m), gamma, n0, g1, noisy) > 0.0
            known = np.where(wins & (ahead <= count), ahead, known)
    margins = _candidate(known, relax_integer)
    return (margins if relax_integer else margins.astype(int)).tolist()


def gamma_crossover(m: float, n0: float, g1: float) -> float:
    """Root gamma inside (0, 1) of the log decay condition for m >= 2 beams.

    The log condition is M/(M-1) ln M + (M/2) ln gamma - 4 n0 (gamma^(1-M) -
    gamma) / (g1 (1-gamma)); M beams win exactly where it is positive, which
    for whole M is geometric_mean_threshold on the gains gamma^(n-1). It never
    falls as gamma grows, so the verdict is gamma > gamma_crossover(m, n0, g1).
    The bracket (1e-9, 1 - 1e-9) is sign-checked on every call, then halved
    on the sign of the log condition until its midpoint is one of its ends.
    m, n0 and g1 are single numbers.
    """
    m = require_number("m", m, 2, sys.float_info.max, open_low=False, open_high=False)
    n0 = require_number("n0", n0, 0, open_low=False)
    g1 = require_number("g1", g1, 0)
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

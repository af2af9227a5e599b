"""Closed-form spectral-efficiency quantities for pattern-switched beams.

With an equiprobable pattern alphabet the received signal is a K-component
zero-mean complex Gaussian mixture with covariances S_k = N0 I + G_k G_k^H.
The total rate splits into the mean per-pattern Shannon term plus the rate
carried by the pattern index itself; the latter has no closed form but a
tight determinant-based bound, and combining the two (with a constant
N_r(log2 e - 1) correction that neutralizes the bound's asymptotic offset)
gives the closed-form approximation implemented here.

Every determinant comes from one identity on the small Gram matrix of the
beam factors, ln|c N0 I + W W^H| = n_r ln(c N0) + ln|I + W^H W / (c N0)|,
so the cost does not grow with the receive array beyond one Gram product.
A CovarianceSet factors each pattern's block I + G_k^H G_k / N0 once; its
determinants, the diagonal of the pair kernel and the Monte-Carlo
whitening all read that factorization, and the pair kernel factors only
the K(K-1)/2 distinct pairs. The Gram matrix is also where n0 is checked
against the factors, so the closed forms and the oracle fail alike, by
name, when W^H W / N0 leaves the float range. All log-determinant work
happens in natural logs and converts to bits at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .beamforming import PatternAlphabet, large_array_beams
from .errors import DimensionError, ParameterError
from .numerics import cholesky_logdet, require_integer

LN2 = float(np.log(2.0))
LOG2E = float(np.log2(np.e))
_ROUNDS_TO_ONE = math.sqrt(3.0 * 2.0 ** -54) / math.pi


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """The K per-pattern received covariances S_k = N0 I + G_k G_k^H.

    Holds the noise floor and the beam factors G_k, stacked as (k, n_r, s);
    a pattern with fewer than s columns is zero-padded. Leading axes before
    (k, n_r, s) hold a batch of sets sharing n0, and every closed form
    below returns one value per set, a float for an unbatched one. The
    factors are stored C-contiguous, so a set's bits do not depend on the
    memory layout the caller passed. The Gram matrix of the factors and the
    dense covariances are built only on first use and cached; the object is
    immutable otherwise and safe to share across threads.
    """

    n0: float
    factors: np.ndarray  # (..., k, n_r, s)
    source: str = "exact"

    def __post_init__(self):
        if not 0 < self.n0 < math.inf:
            raise ParameterError(f"n0 must be finite and > 0, got {self.n0}")
        fac = np.ascontiguousarray(self.factors, dtype=np.complex128)
        if fac.ndim < 3 or fac.shape[-3] < 1:
            raise DimensionError(f"factors must be (..., k, n_r, s) with k >= 1, got {fac.shape}")
        object.__setattr__(self, "factors", fac)

    @property
    def k(self) -> int:
        return self.factors.shape[-3]

    @property
    def n_r(self) -> int:
        return self.factors.shape[-2]

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix W^H W of the stacked factors W = [G_1 ... G_K], shape (..., k s, k s).

        Every determinant and the Monte-Carlo oracle read the factors only
        through this product, so it is where non-finite factors are rejected,
        and where n0 is checked against them: the oracle squares W^H W / N0,
        so k s (max |W^H W| / N0)^2 must stay finite.
        """
        *batch, k, n_r, s = self.factors.shape
        stacked = self.factors.swapaxes(-3, -2).reshape(*batch, n_r, k * s)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = stacked.conj().swapaxes(-1, -2) @ stacked
            square = k * s * (np.abs(gram).max(initial=0.0) / self.n0) ** 2
        if not np.isfinite(gram).all():
            raise ParameterError("beam factors must be finite, and their Gram matrix W^H W "
                                 "must not overflow", field="factors")
        if not square < math.inf:
            raise ParameterError(f"n0 = {self.n0} is too small for these beam factors: "
                                 "the square of W^H W / n0 overflows", field="n0")
        return gram

    @cached_property
    def cholesky(self) -> tuple[np.ndarray, np.ndarray]:
        """The one per-pattern factorization: (L, ld) with I + G_k^H G_k / N0 = L_k L_k^H.

        L is (..., k, s, s), taken from the Gram matrix's diagonal blocks, and
        ld (..., k) holds ln|I + G_k^H G_k / N0|. logdets, the pair kernel's
        diagonal and the Monte-Carlo whitening all read it.
        """
        k, s = self.k, self.factors.shape[-1]
        blocks = self.gram.reshape(*self.gram.shape[:-2], k, s, k, s).diagonal(axis1=-4, axis2=-2)
        return cholesky_logdet(np.eye(s) + np.moveaxis(blocks, -1, -3) / self.n0)

    @cached_property
    def sigmas(self) -> np.ndarray:
        """Dense (..., k, n_r, n_r) covariances, a reference for test oracles only."""
        fac = self.factors
        return self.n0 * np.eye(self.n_r) + fac @ fac.conj().swapaxes(-1, -2)

    def logdets(self) -> np.ndarray:
        """Natural-log determinants ln|S_k| = n_r ln N0 + ln|I + G_k^H G_k / N0|."""
        return self.n_r * math.log(self.n0) + self.cholesky[1]


def covariances(eff: np.ndarray, alphabet: PatternAlphabet, n0: float,
                source: str = "exact") -> CovarianceSet:
    """Per-pattern covariances N0 I + G_k G_k^H of an effective channel.

    The factor of pattern k is G_k = HA B_k / sqrt(n_s): its selection of
    the steered beams under the digital stage I/sqrt(n_s).
    """
    eff = np.asarray(eff, dtype=np.complex128)
    if eff.ndim != 2 or eff.shape[1] != alphabet.m:
        raise DimensionError(f"effective channel must be (n_r, {alphabet.m}), got {eff.shape}")
    if not np.isfinite(eff).all():
        raise ParameterError("effective channel eff must be finite")
    factors = eff @ alphabet.patterns / np.sqrt(alphabet.n_s)
    return CovarianceSet(n0=n0, factors=factors, source=source)


def _paths(w, g, theta):
    """w, g and theta as float arrays of one shape: paths on the last axis, batch axes broadcast."""
    w, g, theta = (np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (w, g, theta))
    if not w.shape[-1] == g.shape[-1] == theta.shape[-1]:
        raise DimensionError("w, g and theta must have equal lengths")
    if not np.isfinite(theta).all():
        raise ParameterError(f"angles theta must be finite, got {theta[~np.isfinite(theta)][0]}",
                             field="theta")
    try:
        return np.broadcast_arrays(w, g, theta)
    except ValueError as exc:
        raise DimensionError(f"w, g and theta have incompatible batch shapes {w.shape}, "
                             f"{g.shape} and {theta.shape}") from exc


def asymptotic_covariances(w, g, theta, n_r: int, n0: float) -> CovarianceSet:
    """Rank-one covariances N0 I + w_k g_k a(theta_k) a(theta_k)^H, one per beam.

    Leading axes of w, g and theta broadcast into a batch of sets.
    """
    w, g, theta = _paths(w, g, theta)
    ok = (w * g >= 0) & (w * g < np.inf)
    if not ok.all():
        raise ParameterError(f"gains w * g must be finite and >= 0, got w={w[~ok][0]}, "
                             f"g={g[~ok][0]}")
    beams = large_array_beams(w, g, theta, n_r)
    return CovarianceSet(n0=n0, factors=beams[..., None], source="asymptotic")


def _pair_logdets(covs: CovarianceSet) -> np.ndarray:
    """(..., k, k) symmetric matrices of ln|S_n + S_t|; diagonals are ln|2 S_n|.

    ln|S_n + S_t| = n_r ln 2N0 + ln|I + W_nt^H W_nt / 2N0| with W_nt = [G_n, G_t]:
    the Gram matrix of the stacked factors supplies every block, and one
    batched factorization the (2s x 2s) determinant of each distinct pair
    n < t, written to both halves. A self pair [G_n, G_n] is singular to
    rounding at small N0, so the diagonal n_r ln 2N0 + ln|I + G_n^H G_n / N0|
    comes from the per-pattern factorization instead.
    """
    k, n_r, s = covs.factors.shape[-3:]
    n, t = np.nonzero(np.less.outer(range(k), range(k)))  # the distinct pairs n < t
    cols = np.arange(k * s).reshape(k, s)  # columns of G_n in the stacked factors
    idx = np.concatenate([cols[n], cols[t]], axis=-1)
    # W_nt^H W_nt, (..., pairs, 2s, 2s); a batched gather lays the index axes out first, and
    # the row sums below must see one layout for any batch to keep batched calls bit-exact
    gram = np.ascontiguousarray(covs.gram[..., idx[:, :, None], idx[:, None, :]])
    two_n0 = 2.0 * covs.n0
    ld = covs.cholesky[1][..., None] * np.eye(k)  # ln|I + G_n^H G_n / N0| on the diagonal
    ld[..., n, t] = ld[..., t, n] = cholesky_logdet(np.eye(2 * s) + gram / two_n0)[1]
    return n_r * math.log(two_n0) + ld


def _mean_logsumexp(x: np.ndarray) -> np.ndarray:
    """Mean over rows n of ln sum_t exp(x_nt), each row shifted by its peak, per (k, k) matrix."""
    peak = x.max(axis=-1)
    return (peak + np.log(np.exp(x - peak[..., None]).sum(axis=-1))).mean(axis=-1)


def _bits(x):
    """A float for an unbatched result, the array of a batched one."""
    return float(x) if np.ndim(x) == 0 else x


def conditional_symbol_rate(covs: CovarianceSet) -> float:
    """Mean per-pattern Shannon rate (1/K) sum_k log2 |S_k / N0|, in bits."""
    return _bits(np.mean(covs.cholesky[1], axis=-1) / LN2)


def pattern_rate_bound(covs: CovarianceSet) -> float:
    """Determinant lower bound on the rate carried by the pattern index.

    log2 K - N_r log2 e - (1/K) sum_n log2 sum_t |S_n| / |S_n + S_t|.
    This is a bound, not a rate: it goes negative when patterns overlap.
    """
    inner = _mean_logsumexp(covs.logdets()[..., :, None] - _pair_logdets(covs))
    return _bits(np.log2(covs.k) - covs.n_r * LOG2E - inner / LN2)


def total_rate_approx(covs: CovarianceSet) -> float:
    """Closed-form approximation of the total mixture rate, in bits.

    log2(K / (2 N0)^N_r) - (1/K) sum_n log2 sum_t |S_n + S_t|^{-1}; equals
    conditional_symbol_rate + pattern_rate_bound + N_r (log2 e - 1).
    """
    inner = _mean_logsumexp(-_pair_logdets(covs))
    return _bits(np.log2(covs.k) - covs.n_r * np.log2(2.0 * covs.n0) - inner / LN2)


def mmwave_rate(w1, g1, n0: float) -> float:
    """Shannon rate log2(1 + w1 g1 / n0) of steering the single strongest beam.

    Array gains broadcast and give one rate per element.
    """
    if not 0 < n0 < math.inf:
        raise ParameterError(f"n0 must be finite and > 0, got {n0}")
    w1, g1 = np.asarray(w1, dtype=np.float64), np.asarray(g1, dtype=np.float64)
    if not ((0 <= w1) & (w1 < np.inf) & (0 <= g1) & (g1 < np.inf)).all():
        raise ParameterError(f"gains w1 and g1 must be finite and >= 0, got {w1}, {g1}")
    with np.errstate(over="ignore"):
        snr = w1 * g1 / n0
    if not (snr < np.inf).all():
        raise ParameterError(f"n0 = {n0} is too small: w1 g1 / n0 overflows", field="n0")
    return _bits(np.log1p(snr) / LN2)


def dirichlet_gain(delta_theta: float, n_r: int) -> float:
    """Squared normalized steering inner product sin^2(pi n d)/(n^2 sin^2(pi d)) in [0, 1].

    Both sines are evaluated at the fractional distance from the nearest
    integer, which is exact for integer n and avoids precision loss near
    the periodic points, where the limit is 1. It is returned as 1.0 only
    where the true value rounds to 1.
    """
    require_integer("n_r", n_r)
    if n_r < 1:
        raise ParameterError(f"n_r must be >= 1, got {n_r}", field="n_r")
    if not -math.inf < delta_theta < math.inf:
        raise ParameterError(f"delta_theta must be finite, got {delta_theta}",
                             field="delta_theta")
    frac = delta_theta - round(delta_theta)
    # 1 - q = pi^2 frac^2 (n^2 - 1) / 3 - O(frac^4) is below half an ulp of 1 under this cut,
    # so q rounds to 1 there; above it, both sines are far from subnormal
    if abs(frac) * math.sqrt(n_r * n_r - 1) < _ROUNDS_TO_ONE:
        return 1.0
    s = np.sin(np.pi * n_r * frac) / np.sin(np.pi * frac)
    return float(s * s) / float(n_r) ** 2


def spim_rate(w, g, theta, n_r: int, n0: float) -> float:
    """General closed-form rate of index modulation over M steered beams.

    total_rate_approx of the large-array covariances, which works out to
    log2 M - (1/M) sum_n log2 sum_t [(1 + w_n g_n/2N0)(1 + w_t g_t/2N0) - Q_nt]^{-1}
    with the Dirichlet cross term Q_nt = (w_n w_t g_n g_t / 4 N0^2) dirichlet_gain.
    M = 1 collapses exactly to the conventional single-beam rate. Paths run
    along the last axis; leading axes broadcast into a batch, validated once
    and scored one (sets, M) slice along the last batch axis at a time, so a
    (grid, trials, M) theta gives one rate per (grid point, trial), each equal
    to its own unbatched call, in the memory of one (trials, M) call.
    """
    w, g, theta = _paths(w, g, theta)
    ok = (w > 0) & (w < np.inf) & (g > 0) & (g < np.inf)
    if not ok.all():
        raise ParameterError(f"path gains w and g must be finite and > 0, got w={w[~ok][0]}, "
                             f"g={g[~ok][0]}")
    if w.shape[-1] == 1:
        return mmwave_rate(w[..., 0], g[..., 0], n0)
    rates = np.empty(w.shape[:-1])
    for row in np.ndindex(w.shape[:-2]):
        rates[row] = total_rate_approx(asymptotic_covariances(w[row], g[row], theta[row], n_r, n0))
    return _bits(rates)

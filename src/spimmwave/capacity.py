"""Closed-form spectral-efficiency quantities for pattern-switched beams.

With an equiprobable pattern alphabet the received signal is a K-component
zero-mean complex Gaussian mixture with covariances S_k = N0 I + G_k G_k^H.
The total rate splits into the mean per-pattern Shannon term plus the rate
carried by the pattern index itself; the latter has no closed form but a
tight determinant-based bound, and combining the two (with a constant
N_r(log2 e - 1) correction that neutralizes the bound's asymptotic offset)
gives the closed-form approximation implemented here. The bound on its own
is not part of the package; the tests keep it as an oracle for that split.

Every determinant comes from one identity on the small Gram matrix of the
beam factors, ln|c N0 I + W W^H| = n_r ln(c N0) + ln|I + W^H W / (c N0)|,
so the receive array enters the cost only through one Gram product and
one QR of each pair's n_r x 2s stacked factors. A CovarianceSet factors
each pattern's block I + G_k^H G_k / N0 once; its determinants, the
diagonal of the pair kernel and the Monte-Carlo whitening all read that
factorization. A pair of patterns is factored in one place, _pair_factors:
one batched QR of the stacked factors [G_n, G_t] of each of the K(K-1)/2
distinct pairs. The pair kernel reads its R through Sylvester's identity,
|I + W^H W / c| = |I + R R^H / c|, and the exact two-pattern rate reads
det W^H W off its diagonal, so neither forms a Gram block that cancels
when beams coincide. The Gram matrix is where n0 is checked against the
factors, so the closed forms and the oracle fail alike, by name, when
W^H W / N0 leaves the float range. All log-determinant work happens in
natural logs and converts to bits at the boundary.

spim_rate, the paper's general-M closed form on large-array beams, needs
none of that machinery: its pair determinants depend on the beams only
through a = w g / 2N0 and the Dirichlet overlap q of their angles, so it
evaluates the pair formula elementwise on the one Dirichlet kernel,
_overlap, which dirichlet_gain fronts. A batch is scored in blocks of whole
rows of its last batch axis, up to _BLOCK pair entries a block, each block
copied C-contiguous so every rate keeps the bits of its own call.
total_rate_approx of asymptotic_covariances stays its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .beamforming import PatternAlphabet, large_array_beams
from .errors import DimensionError, ParameterError
from .numerics import (_batch_shape, _require_paths, cholesky_logdet, require_complex,
                       require_in, require_integer, require_number)

LN2 = float(np.log(2.0))
# (sets, M, M) entries one spim_rate block may hold, the size of montecarlo._CHUNK
_BLOCK = 16_384


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """The K per-pattern received covariances S_k = N0 I + G_k G_k^H.

    Holds the noise floor and the beam factors G_k, stacked as (k, n_r, s);
    a pattern with fewer than s columns is zero-padded. Leading axes before
    (k, n_r, s) hold a batch of sets sharing n0, and every closed form
    below returns one value per set, a float for an unbatched one. The
    factors are stored C-contiguous, so a set's bits do not depend on the
    memory layout the caller passed. The Gram matrix of the factors and its
    per-pattern factorization are built only on first use and cached; the
    object is immutable otherwise and safe to share across threads.
    """

    n0: float
    factors: np.ndarray  # (..., k, n_r, s)
    source: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "n0", require_number("n0", self.n0, 0))
        fac = np.ascontiguousarray(require_complex("factors", self.factors))
        if fac.ndim < 3 or fac.shape[-3] < 1:
            raise DimensionError(f"factors must be (..., k, n_r, s) with k >= 1, got {fac.shape}",
                                 field="factors")
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
        ld (..., k) holds ln|I + G_k^H G_k / N0|. The symbol rate, the pair
        kernel's diagonal and the Monte-Carlo whitening all read it.
        """
        k, s = self.k, self.factors.shape[-1]
        blocks = self.gram.reshape(*self.gram.shape[:-2], k, s, k, s).diagonal(axis1=-4, axis2=-2)
        return cholesky_logdet(np.eye(s) + np.moveaxis(blocks, -1, -3) / self.n0)


def covariances(eff: np.ndarray, alphabet: PatternAlphabet, n0: float,
                source: str = "exact") -> CovarianceSet:
    """Per-pattern covariances N0 I + G_k G_k^H of an effective channel.

    The factor of pattern k is G_k = HA B_k / sqrt(n_s): its selection of
    the steered beams under the digital stage I/sqrt(n_s).
    """
    eff = require_complex("eff", eff)
    if eff.ndim != 2 or eff.shape[1] != alphabet.m:
        raise DimensionError(f"effective channel must be (n_r, {alphabet.m}), got {eff.shape}",
                             field="eff")
    if not np.isfinite(eff).all():
        raise ParameterError("effective channel eff must be finite", field="eff")
    factors = eff @ alphabet.patterns / np.sqrt(alphabet.n_s)
    return CovarianceSet(n0=n0, factors=factors, source=source)


def _paths(w, g, theta, open_low: bool):
    """w, g and theta read once, as float arrays of one shape: paths last, batch axes broadcast.

    w and g lie in (0, inf), or in [0, inf) if not open_low, and theta is finite.
    An argument with no paths, or with a path count the others do not share,
    raises a DimensionError naming it.
    """
    w, g = (np.atleast_1d(require_in(name, x, 0, open_low=open_low))
            for name, x in (("w", w), ("g", g)))
    theta = np.atleast_1d(require_in("theta", theta))
    _require_paths(DimensionError, w=w, g=g, theta=theta)
    shape = _batch_shape(w=w.shape, g=g.shape, theta=theta.shape)
    return tuple(np.broadcast_to(x, shape) for x in (w, g, theta))


def asymptotic_covariances(w, g, theta, n_r: int, n0: float) -> CovarianceSet:
    """Rank-one covariances N0 I + w_k g_k a(theta_k) a(theta_k)^H, one per beam.

    Leading axes of w, g and theta broadcast into a batch of sets.
    """
    require_integer("n_r", n_r, minimum=1)
    w, g, theta = _paths(w, g, theta, open_low=False)
    beams = large_array_beams(w, g, theta, n_r)
    return CovarianceSet(n0=n0, factors=beams[..., None], source="asymptotic")


def _pair_factors(covs: CovarianceSet) -> np.ndarray:
    """R of each distinct pair's stacked factors W_nt = [G_n, G_t] = Q R, n < t.

    Shape (..., pairs, min(n_r, 2s), 2s), pairs in np.triu_indices(k, 1)
    order: one batched QR, so W_nt^H W_nt = R^H R without forming a Gram
    block, and R keeps the small directions of near-coincident beams that
    the Gram entries cancel. The pair determinants and the exact two-pattern
    rate both read it.
    """
    n, t = np.triu_indices(covs.k, 1)
    pairs = np.concatenate([covs.factors[..., n, :, :], covs.factors[..., t, :, :]], axis=-1)
    return np.linalg.qr(pairs, mode="r")


def _pair_logdets(covs: CovarianceSet) -> np.ndarray:
    """(..., k, k) symmetric matrices of ln|S_n + S_t|; diagonals are ln|2 S_n|.

    ln|S_n + S_t| = n_r ln 2N0 + ln|I + W_nt^H W_nt / 2N0| with W_nt = [G_n, G_t].
    For each distinct pair n < t, Sylvester's identity gives the last term as
    ln|I + R R^H / 2N0| on the pair's R (_pair_factors), written to both
    halves; it keeps its digits where beams coincide. The diagonal,
    n_r ln 2N0 + ln|I + G_n^H G_n / N0|, comes from the per-pattern
    factorization, which is read first, so an n0 too small for the factors
    fails by name before any pair is factored.
    """
    k, two_n0 = covs.k, 2.0 * covs.n0
    ld = covs.cholesky[1][..., None] * np.eye(k)  # ln|I + G_n^H G_n / N0| on the diagonal
    r = _pair_factors(covs)
    n, t = np.triu_indices(k, 1)
    rrh = r @ r.conj().swapaxes(-1, -2)
    ld[..., n, t] = ld[..., t, n] = cholesky_logdet(np.eye(r.shape[-2]) + rrh / two_n0)[1]
    return covs.n_r * math.log(two_n0) + ld


def _mean_logsumexp_neg(p: np.ndarray) -> np.ndarray:
    """Mean over rows n of ln sum_t exp(-p_nt), each row shifted by its least entry, per (k, k) matrix.

    min(p) - p is the peak-shifted -p bit for bit, without negating p first,
    and the mean is the sum over rows divided by their count, as np.mean takes it.
    The row minima are exact in any order, so they are taken column against
    column, one elementwise np.minimum per column, not one short reduction per row.
    """
    low = reduce(np.minimum, p.T).T
    return (np.log(np.exp(low[..., None] - p).sum(axis=-1)) - low).sum(axis=-1) / p.shape[-1]


def _bits(x):
    """A float for an unbatched result, the array of a batched one."""
    return float(x) if np.ndim(x) == 0 else x


def conditional_symbol_rate(covs: CovarianceSet) -> float:
    """Mean per-pattern Shannon rate (1/K) sum_k log2 |S_k / N0|, in bits."""
    return _bits(np.mean(covs.cholesky[1], axis=-1) / LN2)


def total_rate_approx(covs: CovarianceSet) -> float:
    """Closed-form approximation of the total mixture rate, in bits.

    log2(K / (2 N0)^N_r) - (1/K) sum_n log2 sum_t |S_n + S_t|^{-1}; equals
    conditional_symbol_rate plus the determinant bound on the pattern-index
    rate, log2 K - N_r log2 e - (1/K) sum_n log2 sum_t |S_n| / |S_n + S_t|,
    plus N_r (log2 e - 1).
    """
    inner = _mean_logsumexp_neg(_pair_logdets(covs))
    return _bits(np.log2(covs.k) - covs.n_r * np.log2(2.0 * covs.n0) - inner / LN2)


def _too_small(n0, overflowed, reason: str) -> None:
    """Raise a ParameterError naming n0 unless no entry of overflowed is set.

    n0 broadcasts to overflowed's shape; the message gives the noise level of
    the first entry that overflowed, one scalar whatever n0's shape.
    """
    if overflowed.any():
        bad = float(np.broadcast_to(n0, overflowed.shape)[overflowed].flat[0])
        raise ParameterError(f"n0 = {bad} is too small{reason}", field="n0")


def mmwave_rate(w1, g1, n0) -> float:
    """Shannon rate log2(1 + w1 g1 / n0) of steering the single strongest beam.

    Array gains and noise levels broadcast and give one rate per element.
    """
    n0 = require_in("n0", n0, 0)
    w1 = require_in("w1", w1, 0, open_low=False)
    g1 = require_in("g1", g1, 0, open_low=False)
    _batch_shape(w1=np.shape(w1), g1=np.shape(g1), n0=np.shape(n0))
    with np.errstate(over="ignore"):
        snr = w1 * g1 / n0
    # not ~: for three Python numbers, snr < inf is a bool, and ~True is -2
    _too_small(n0, np.logical_not(snr < np.inf), ": w1 g1 / n0 overflows")
    return _bits(np.log1p(snr) / LN2)


def _overlap(d: np.ndarray, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet gain q = sin^2(pi n d) / (n sin(pi d))^2 of beam distances d, and gap = 1 - q.

    Elementwise over an array of distances; both sines are taken at the
    distance from the nearest integer, which is exact for integer n. Where
    q > 1/2, 1 - q would cancel, so gap comes from the sum of positive terms
    S = n - sin(n x) / sin(x) = sum_k 2 sin^2((n - 1 - 2k) x / 2), with
    x = pi (d - round(d)), as gap = S (2n - S) / n^2, and q = 1 - gap. A
    whole distance gives gap = 0 exactly.
    """
    frac = d - np.round(d)
    with np.errstate(invalid="ignore"):  # 0/0 at whole distances, which take the S branch
        ratio = np.sin(np.pi * n_r * frac) / np.sin(np.pi * frac)
    q = ratio * ratio / float(n_r) ** 2
    gap = 1.0 - q
    near = ~(q <= 0.5)
    half_x = np.pi * frac[near] / 2.0
    odd = np.arange(n_r - 1, 0, -2)  # terms k and n - 1 - k are equal; 8 at a time bounds memory
    s = 4.0 * sum((np.sin(np.multiply.outer(half_x, odd[i:i + 8])) ** 2).sum(axis=-1)
                  for i in range(0, odd.size, 8))
    gap[near] = s * (2 * n_r - s) / float(n_r) ** 2
    q[near] = 1.0 - gap[near]
    return q, gap


def dirichlet_gain(delta_theta, n_r: int):
    """Squared normalized steering inner product sin^2(pi n d)/(n^2 sin^2(pi d)) in [0, 1].

    The checked front of the one Dirichlet kernel that spim_rate also reads:
    near its peak at whole d, the value is 1 minus a gap summed from
    positive terms, so it follows its series there to the last bit. An array
    of distances gives the array of their gains, each equal to its scalar
    call; a scalar gives a float.
    """
    require_integer("n_r", n_r, minimum=1)
    d = require_in("delta_theta", delta_theta)
    return _bits(_overlap(np.reshape(d, -1), n_r)[0].reshape(np.shape(d)))


def _pair_formula(gap, w, g, two_n0) -> np.ndarray:
    """spim_rate of one validated (rows, sets, M) block, given its Dirichlet gaps.

    The operands are C-contiguous; gap is (rows, sets, M, M), or (sets, M, M)
    when every row shares its angles, and two_n0 holds the block's
    (rows, sets, 1) values of 2 n0, which halve back to n0 exactly. It runs
    under spim_rate's np.errstate(over="ignore"), and fails a block whose a
    overflows, or whose a^2 would. Its arrays are freed on return.
    """
    a = w * g / two_n0
    # coincident beams would give inf * 0 there; a > 0, so the floor counts only for no sets
    if not a.max(initial=0.0) ** 2 < math.inf:
        _too_small(two_n0 / 2.0, ~(a.max(axis=-1, keepdims=True) ** 2 < math.inf),
                   " for these gains: (w g / 2 n0)^2 overflows")
    a_n, a_t = a[..., :, None], a[..., None, :]
    # P = ln(1 + a_n + a_t + a_n a_t gap), built in place in that order of operations
    p = a_n + a_t
    cross = a_n * a_t
    cross *= gap
    p += cross
    inner = _mean_logsumexp_neg(np.log1p(p, out=p))
    return math.log2(a.shape[-1]) - inner / LN2


def spim_rate(w, g, theta, n_r: int, n0) -> float:
    """General closed-form rate of index modulation over M steered beams, in bits.

    The paper's pair formula, log2 M - (1/M) sum_n log2 sum_t exp(-P_nt), with
    P_nt = ln(1 + a_n + a_t + a_n a_t (1 - q_nt)), a = w g / 2N0 and q the
    Dirichlet gain of the angle distance; ln|S_n + S_t| of the large-array
    covariances is n_r ln 2N0 + P_nt, so this equals total_rate_approx of
    asymptotic_covariances without forming a beam. On the diagonal 1 - q is
    0 exactly, so M = 1 gives mmwave_rate's bits. Paths run along the last
    axis; their leading axes and those of n0 broadcast into a batch, validated
    once and scored in blocks of whole (sets, M) rows along the last batch
    axis, as many rows as keep a block's (sets, M, M) entries within _BLOCK,
    one row if a row alone exceeds it. So a (grid, trials, M) theta gives one
    rate per (grid point, trial), each equal to its own unbatched call, in the
    memory of one block and the rates it returns. A (grid, 1) n0
    gives each grid point its own noise level. The Dirichlet gaps depend on
    the angles alone: a theta broadcast along every leading axis, as a
    (trials, M) theta under a (grid, 1, M) w is, has them taken once for all
    blocks, and any other theta block by block. The blocks share one
    np.errstate, entered once per call, and each takes its log-sum-exp of -P
    as min(P) - P, without a negated copy of P. An empty batch, an empty n0
    say, gives an empty array, as in mmwave_rate.
    """
    w, g, theta = _paths(w, g, theta, open_low=True)
    require_integer("n_r", n_r, minimum=1)
    # 2 n0 of every set, taken once, on a trailing axis the paths broadcast along
    two_n0 = 2.0 * np.asarray(require_in("n0", n0, 0))[..., None]
    batch = _batch_shape(w=w.shape[:-1], n0=two_n0.shape[:-1])
    pad = (None,) * max(0, 2 - len(batch))  # at least (rows, sets, M): unit axes are views
    w, g, theta, two_n0 = (np.broadcast_to(x, batch + x.shape[-1:])[pad]
                           for x in (w, g, theta, two_n0))
    *lead, sets, m = w.shape
    rows = math.prod(lead)
    per = max(1, _BLOCK // max(1, sets * m * m))
    moving = any(theta.strides[:-2])  # a zero stride on every leading axis: rows share angles
    rates = np.empty((rows, sets))
    gap = None
    with np.errstate(over="ignore"):  # entered once; _pair_formula checks each block's a
        for start in range(0, rows, per):
            block = np.unravel_index(np.arange(start, min(start + per, rows)), lead)
            # each operand is copied C-contiguous: numpy's sums along the last axis take an
            # order that depends on the layout, and only a fixed one keeps every rate the
            # bits of its own unbatched call
            if moving or gap is None:
                gap = None  # the old gaps are freed before the new ones are made
                angles = np.ascontiguousarray(theta[block] if moving else theta[(0,) * len(lead)])
                gap = _overlap(angles[..., :, None] - angles[..., None, :], n_r)[1]
            rates[start:start + per] = _pair_formula(
                gap, *(np.ascontiguousarray(x[block]) for x in (w, g, two_n0)))
    return _bits(rates.reshape(batch))

"""Mutual information of a Gaussian-mixture pattern alphabet: exact where it can be, sampled otherwise.

The received signal is a K-component zero-mean complex Gaussian mixture,
S_k = N0 I + G_k G_k^H, whose entropy has no closed form. By Woodbury, a
draw y enters the log-density differences between components only through
q = W^H y / N0, W = [G_1 ... G_K], so the estimator needs only the
k s x k s Gram matrix A = W^H W / N0. With E_j = q_j^H (I + A_jj)^-1 q_j and
ld_j = ln|I + A_jj|, both read off the set's own per-pattern Cholesky
factors I + A_jj = L_j L_j^H, a draw of component c contributes
ln sum_j exp(E_j - E_c - ld_j) - ln K, and the rate in nats is minus the
mean. Its own term is exactly exp(-ld_c): E_c and |y|^2 / N0 - n_r have the
same exact mean tr A_cc, so both are integrated out.

Two cases need no draws, read no seed and report stderr 0; _seed_free
decides which, and the sweeps answer such sets for a whole block of trials
in one call. One pattern (K = 1) leaves nothing random: the answer is ld_1.
Two rank-one patterns (K = 2, s = 1) leave one random scalar per component,
Z = E_o - E_c, an indefinite Hermitian form of a complex Gaussian 2-vector,
so Z = lam_+ X + lam_- Y with X, Y i.i.d. Exp(1). The rate is then a
function of x_j = A_jj and delta = det A alone, and one 1-D quadrature
gives it (_two_pattern_rate).
delta is read off the R of the pair W = Q R that the closed forms' pair
determinants read too (capacity._pair_factors), so it keeps its digits for
near-parallel beams.

Every other set (K >= 3, or s > 1) is sampled. Under component c a draw is
q = C z + A_c x: the noise W^H n / N0 through a root C of A, and the
pattern's own symbol x ~ CN(0, I_s) through A_c, the s columns of block c.
A may be singular (a zero channel, identical beams, K s > n_r), so C comes
from its eigenvalues clipped at zero, one eigendecomposition per set. z and
x_2..x_s are plain complex normals; x_1 is drawn by Box-Muller with a
stratified radius. Most of a draw's value rides on |x_1|^2 ~ Exp(1), so a
chunk of count draws splits it into count strata of equal probability, one
draw each, under a uniform phase. Draws i and i + count / 2 take adjacent
strata, and each such pair enters the variance of its component's pooled
mean as (v_a - v_b)^2 / n_c^2: the collapsed-strata estimator, which can
read high by the squared gaps between adjacent strata's means but is
otherwise unbiased. Each component draws n_c = ceil(N/K) rounded up to
even, and the stderr is sqrt(sum_c var_c) / K. At very high SNR a pattern
confusion can be rarer than one per n_c draws, or confined to a sliver of
the stratum nearest |x_1| = 0; the draws then mostly miss it, and a small
stderr is not convergence.

A component's draws come in chunks of _CHUNK = 16384, rounded down to
even so that every chunk holds whole pairs, each chunk on its own stream
keyed by (component, chunk), so results do not depend on the schedule; one
Philox is re-keyed for every stream (numerics._rekeyed). A stream gives the
plain normals first, then count uniforms for the strata and count for the
phases. The work buffers are allocated once per call, sized for one pass
of up to _PASS = 2048 draws or one set's chunk, so the hot loop allocates
no arrays. A batch of sets (leading axes of the factors, one noise floor)
shares these common random numbers: each stream is drawn once per call and
mapped through the whitening blocks of as many sets as one pass holds, so
memory does not grow with the batch. Every set gets the same answer as its
own unbatched call, bit for bit, whatever the memory layout the caller's
factors had: a CovarianceSet stores them C-contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import LN2, CovarianceSet, _pair_factors
from .numerics import _rekeyed, require_integer

MIN_SAMPLES = 1_000

_CHUNK = 16_384
_PASS = 2_048
_STREAM_SPAN = 1 << 32

# the smooth part of the two-pattern integrand is integrated over 45 decay lengths of its
# faster-falling factor; beyond them it is below e^-45 < 3e-20 of its peak
_WINDOW = 45.0
# the window's panel ends, graded toward the end nearest the kink, where the nearest
# complex singularities of ln(1 + e^-v), v = +-i pi, sit
_PANEL_ENDS = (0.0, 5.0, 12.0, 20.0, 30.0, 45.0)
# positive half of the symmetric 16-point Gauss-Legendre rule on [-1, 1]
_GL_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
             0.6178762444026438, 0.755404408355003, 0.8656312023878318,
             0.9445750230732326, 0.9894009349916499)
_GL_WEIGHTS = (0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
               0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
               0.062253523938647894, 0.027152459411754096)


def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the graded composite rule on [0, 1]."""
    half_nodes, half_weights = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    nodes = np.concatenate([-half_nodes[::-1], half_nodes])
    weights = np.concatenate([half_weights[::-1], half_weights])
    ends = np.array(_PANEL_ENDS) / _PANEL_ENDS[-1]
    lo, width = ends[:-1, None], np.diff(ends)[:, None]
    return (lo + width * (nodes + 1.0) / 2.0).ravel(), (width * weights / 2.0).ravel()


_NODES, _WEIGHTS = _unit_rule()


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sample budget and seed of one estimator run."""

    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        require_integer("n_samples", self.n_samples, minimum=MIN_SAMPLES)
        require_integer("seed", self.seed)


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def _shaped(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of a flat work buffer as a contiguous array of that shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _draw_values(mix: np.ndarray, normals: np.ndarray, comp: int, logdets: np.ndarray,
                 work: list) -> np.ndarray:
    """ln sum_j exp(E_j - E_c - ld_j) - ln K for each draw of component c = comp, per set.

    mix (sets, 2 k s, 2 (k s + s)) holds each set's real rows of component
    c's map from the real inputs to the whitened draws (see _sampled), and
    logdets (sets, k) its ld_j; the own term is exp(-ld_c). work holds the
    flat buffers of x, the energies, the terms, their peak and the values,
    which are returned as a (sets, count) view valid until the next call.
    """
    sets, rows, _ = mix.shape
    k, count = logdets.shape[1], normals.shape[1]
    x_buf, energy_buf, terms_buf, peak_buf, values_buf = work
    x = _shaped(x_buf, sets, rows, count)  # component-major rows per set
    energy, terms = _shaped(energy_buf, sets, k, count), _shaped(terms_buf, sets, k, count)
    peak, values = _shaped(peak_buf, sets, count), _shaped(values_buf, sets, count)
    np.matmul(mix, normals, out=x)
    np.sum(np.square(x, out=x).reshape(sets, k, -1, count), axis=2, out=energy)
    np.subtract(energy, energy[:, comp, None], out=terms)
    terms -= logdets[..., None]
    terms[:, comp] = -logdets[:, comp, None]
    np.max(terms, axis=1, out=peak)
    terms -= peak[:, None]
    np.sum(np.exp(terms, out=terms), axis=1, out=values)
    np.log(values, out=values)
    values += peak
    values -= math.log(k)
    return values


def _phi(t: np.ndarray) -> np.ndarray:
    """t - 1 + e^-t for t >= 0; below t = 0.5, where that sum cancels, its series."""
    small = np.minimum(t, 0.5)
    series = np.zeros_like(t)
    for k in range(17, 1, -1):  # sum_k (-t)^(k-2) / k!; the first term left out is < 1e-20
        series = series * -small + 1.0 / math.factorial(k)
    return np.where(t < 0.5, small * small * series, t + np.expm1(-t))


def _quadrature(lo: np.ndarray, width: np.ndarray, integrand) -> np.ndarray:
    """Integral of integrand(y) over [lo, lo + width] on the graded panels, elementwise."""
    y = lo[..., None] + width[..., None] * _NODES
    return width * np.sum(integrand(y) * _WEIGHTS, axis=-1)


def _mean_softplus(lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E ln(1 + e^u), u = lam X + b, X ~ Exp(1), elementwise.

    ln(1 + e^u) = max(u, 0) + h(|u|) with h(v) = ln(1 + e^-v). The first term
    has a closed form. The second is smooth on either side of the kink
    x0 = -b / lam, where u changes sign, and the graded panels integrate it
    past the kink (from 0 when the kink lies behind) and between 0 and the
    kink. |lam| below 1e-300 is raised to it, which moves the result by no
    more than that.
    """
    a = np.maximum(np.abs(lam), 1e-300)
    rising = lam > 0
    kink = np.maximum(np.where(rising, -b, b) / a, 0.0)  # 0 where u keeps its sign
    linear = np.where(kink > 0, np.where(rising, a * np.exp(-kink), a * _phi(kink)),
                      np.where(rising, a + b, 0.0))
    a_ = a[..., None]
    # past the kink, x = kink + y and |u| = v0 + a y
    v0 = np.where(kink > 0, 0.0, np.abs(b))[..., None]
    past = np.exp(-kink) * _quadrature(
        np.zeros_like(a), _WINDOW / np.maximum(a, 1.0),
        lambda y: np.exp(-y) * np.log1p(np.exp(-(v0 + a_ * y))))
    # before it, x = kink - y and |u| = a y, for x >= 0
    lo = np.maximum(kink - _WINDOW, 0.0)
    kink_ = kink[..., None]
    before = _quadrature(
        lo, np.maximum(np.minimum(kink, _WINDOW / a) - lo, 0.0),
        lambda y: np.exp(y - kink_) * np.log1p(np.exp(-a_ * y)))
    return linear + past + before


def _two_pattern_rate(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Exact rate in bits of two equiprobable rank-one patterns, elementwise over leading axes.

    x (..., 2) holds x_j = A_jj and delta (...) holds det A, for the Gram
    matrix A = W^H W / N0. Under pattern c, o the other, a draw's value is
    softplus(Z + b_c) - ld_c - ln 2 with b_c = ld_c - ld_o, ld_j = ln(1 + x_j),
    and Z = lam_+ X + lam_- Y, the lams the roots of lam^2 - t lam - p with
    t = (x_o - x_c - delta) / (1 + x_o) and p = delta / (1 + x_o) >= 0. Z has
    the law of lam_+ X with probability lam_+ / r and of lam_- X otherwise,
    r = lam_+ - lam_-. The rate is
    1 + (1/2) sum_c log2(1 + x_c) - (1/2) sum_c E softplus(Z_c + b_c) / ln 2.
    """
    ld = np.log1p(x)
    x_o, delta = x[..., ::-1], delta[..., None]
    b = ld - ld[..., ::-1]
    t = (x_o - x - delta) / (1.0 + x_o)
    p = delta / (1.0 + x_o)
    r = np.hypot(t, 2.0 * np.sqrt(p))
    big = np.where(t >= 0, t + r, t - r) / 2.0  # the root of larger magnitude
    lam = np.stack([big, -p / np.where(big == 0, 1.0, big)], axis=-1)
    share = np.abs(lam) / np.where(r > 0, r, 1.0)[..., None]
    confusion = np.sum(share * _mean_softplus(lam, b[..., None]), axis=-1)
    # r = 0 leaves Z = 0: identical beams with equal gains, b = 0
    confusion = np.where(r > 0, confusion, np.logaddexp(0.0, b))
    return (np.mean(ld, axis=-1) + (LN2 - np.mean(confusion, axis=-1))) / LN2


def _two_pattern_inputs(covs: CovarianceSet) -> tuple[np.ndarray, np.ndarray]:
    """x_j = A_jj and delta = det A of two rank-one patterns, A = W^H W / N0.

    delta is |R_11 R_22|^2 / N0^2, read off the pair's QR factor W = Q R
    (capacity._pair_factors, which the pair determinants read too), not
    x_1 x_2 - |A_12|^2, which cancels for near-parallel beams. One receive
    antenna leaves R one row, and A rank one: delta is 0.
    """
    x = covs.gram.diagonal(axis1=-2, axis2=-1).real / covs.n0  # the Gram matrix checks n0
    if covs.n_r < 2:
        return x, np.zeros(x.shape[:-1])
    diag = _pair_factors(covs)[..., 0, :, :].diagonal(axis1=-2, axis2=-1)
    return x, np.prod(np.square(np.abs(diag)) / covs.n0, axis=-1)


def _estimates(out: np.ndarray) -> McEstimate | np.ndarray:
    """An McEstimate of floats for one (estimate, stderr) pair, the (..., 2) array of a batch."""
    return McEstimate(float(out[0]), float(out[1])) if out.ndim == 1 else out


def _seed_free(k: int, s: int) -> bool:
    """Whether sets of k patterns of s columns are answered exactly: no draws, no seed read.

    One pattern, or two rank-one patterns. mc_mutual_information dispatches
    on it, and the sweeps answer such sets in one call per block of trials.
    """
    return k == 1 or (k == 2 and s == 1)


def mc_mutual_information(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate | np.ndarray:
    """The total rate h(y) - N_r log2(pi e N0) in bits, with the stderr of its estimate.

    An unbatched set gives an McEstimate of floats. Leading axes before
    (k, n_r, s) give a (..., 2) array of (estimate, stderr) pairs, every set
    estimated on the same draws; a set's pair equals its own unbatched call.
    One pattern, or two rank-one patterns (_seed_free), are answered exactly
    with stderr 0, and spec.seed is never read; every other set is sampled.
    An n0 too small for the factors fails in covs.gram, as for the closed
    forms.
    """
    k, s = covs.k, covs.factors.shape[-1]
    if not _seed_free(k, s):
        return _sampled(covs, spec)
    rate = (covs.cholesky[1][..., 0] / LN2 if k == 1
            else _two_pattern_rate(*_two_pattern_inputs(covs)))
    return _estimates(np.stack([rate, np.zeros_like(rate)], axis=-1))


def _sampled(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate | np.ndarray:
    """The sampler at any K, in mc_mutual_information's output form.

    mc_mutual_information calls it for K >= 3 or s > 1; at K <= 2 it is the
    reference the exact answers are held against.
    """
    *batch, k, _, s = covs.factors.shape
    ks, sets = k * s, math.prod(batch)
    chol, logdets = covs.cholesky[0].reshape(sets, k, s, s), covs.cholesky[1].reshape(sets, k)
    a = covs.gram.reshape(sets, ks, ks) / covs.n0
    lam, vec = np.linalg.eigh(a)
    root = vec * np.sqrt(np.maximum(lam, 0.0))[..., None, :]  # the noise root, A = C C^H
    # block j of L_j^-1 [C, A], with I + A_jj = L_j L_j^H
    white = np.linalg.solve(chol, np.concatenate([root, a], axis=-1).reshape(sets, k, s, 2 * ks))
    own = white[..., ks:].reshape(sets, k, s, k, s).transpose(0, 3, 1, 2, 4)  # [p, c, j]: L_j^-1 A_jc
    # mix[p, c] maps component c's real inputs to the real rows, real then imaginary part of
    # each pattern j's block, of its whitened draws. The inputs are the plain normals of the
    # complex z and x_2..x_s, real parts then imaginary, then Re x_1 and Im x_1; a unit
    # complex normal is a pair of plain ones over sqrt(2), and x_1 comes whole
    plain = ks + s - 1
    n_plain = 2 * plain
    mix = np.empty((sets, k, k, 2, s, n_plain + 2))
    for m, re, im in ((white[:, None, ..., :ks] / np.sqrt(2.0), 0, plain),
                      (own[..., 1:] / np.sqrt(2.0), ks, plain + ks),
                      (own[..., :1], n_plain, n_plain + 1)):
        width = m.shape[-1]
        mix[..., 0, :, re:re + width] = m.real
        mix[..., 0, :, im:im + width] = -m.imag
        mix[..., 1, :, re:re + width] = m.imag
        mix[..., 1, :, im:im + width] = m.real
    mix = mix.reshape(sets, k, 2 * ks, n_plain + 2)
    per_component = math.ceil(spec.n_samples / k)
    per_component += per_component % 2  # whole pairs of strata
    step = max(2, _CHUNK - _CHUNK % 2)
    counts = np.diff([*range(0, per_component, step), per_component])
    sums = np.empty((sets, k, len(counts)))
    squares = np.empty_like(sums)
    # flat work buffers, carved from one allocation, sized for one pass: a group of sets
    # that holds up to _PASS draws of the largest chunk, the first, or that chunk of one set,
    # whatever the batch; every chunk, component and group reuses them. offsets[count]
    # holds h + 1 for the stratum h of each draw of a chunk: draws i and i + count / 2 take
    # the adjacent strata 2 i and 2 i + 1
    size = counts[0]
    group = max(1, _PASS // size)
    lengths = [(n_plain + 2) * size, 2 * size, group * 2 * ks * size, group * k * size,
               group * k * size, group * size, group * size, group * size // 2]
    normals, uniforms, *work, pairs = np.split(np.empty(sum(lengths)), np.cumsum(lengths)[:-1])
    offsets = {count: np.concatenate([np.arange(1.0, count, 2), np.arange(2.0, count + 1, 2)])
               for count in set(counts)}
    streams = _rekeyed((spec.seed, comp * _STREAM_SPAN + chunk)
                       for comp in range(k) for chunk in range(len(counts)))
    for comp in range(k):
        for chunk, count in enumerate(counts):
            rng, half = next(streams), count // 2
            inputs = _shaped(normals, n_plain + 2, count)
            rng.standard_normal(out=inputs[:n_plain])
            radius, phase = draws = _shaped(uniforms, 2, count)
            rng.random(out=draws)
            # |x_1|^2 = ln(count / (h + 1 - u)), an Exp(1) draw within the stratum of probability
            # (h, h + 1] / count; both divisions round monotonically, so the logarithm's
            # argument is never below 1
            np.subtract(offsets[count], radius, out=radius)
            np.divide(count, radius, out=radius)
            np.log(radius, out=radius)
            np.sqrt(radius, out=radius)
            phase *= 2.0 * math.pi
            np.cos(phase, out=inputs[n_plain])
            np.sin(phase, out=inputs[n_plain + 1])
            inputs[n_plain:] *= radius
            for p in range(0, sets, group):  # up to group sets, (2 k s, count) each, a pass
                values = _draw_values(mix[p:p + group, comp], inputs, comp,
                                      logdets[p:p + group], work)
                np.sum(values, axis=-1, out=sums[p:p + group, comp, chunk])
                diff = _shaped(pairs, len(values), half)
                np.square(np.subtract(values[:, :half], values[:, half:], out=diff), out=diff)
                np.sum(diff, axis=-1, out=squares[p:p + group, comp, chunk])
    # per component: the pooled mean, and the variance of that mean from its pairs of
    # adjacent strata, sum (v_a - v_b)^2 / n_c^2
    mean = sums.sum(axis=-1) / per_component
    stderr = np.sqrt(squares.sum(axis=(-1, -2))) / per_component / k
    out = np.stack([-mean.mean(axis=-1), stderr], axis=-1) / LN2
    return _estimates(out.reshape(*batch, 2))

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

Two cases need no draws and report stderr 0. One pattern (K = 1) leaves
nothing random: the answer is ld_1. Two rank-one patterns (K = 2, s = 1)
leave one random scalar per component, Z = E_o - E_c, an indefinite
Hermitian form of a complex Gaussian 2-vector, so Z = lam_+ X + lam_- Y with
X, Y i.i.d. Exp(1). The rate is then a function of x_j = A_jj and
delta = det A alone, and one 1-D quadrature gives it (_two_pattern_rate).

Every other set (K >= 3, or s > 1) is sampled. Under component c, q is
CN(0, B_c) with B_c = A + A_c A_c^H, A_c the s columns of block c. B_c may
be singular (a zero channel, identical beams, K s > n_r), so its root comes
from its eigenvalues clipped at zero. Every set draws K s complex normals,
ceil(N/K) draws per component, and reports the stratified stderr
sqrt(sum_c var_c / n_c) / K. At very high SNR a pattern confusion can be
rarer than one per ceil(N/K) draws; the draws then all sit at one value, and
a tiny stderr is rounding, not convergence.

A component's draws come in fixed chunks of _CHUNK = 16384, each on its
own stream keyed by (component, chunk), so results do not depend on the
schedule; the chunk bounds the work buffers, allocated once per call so
the hot loop allocates no arrays. A batch of sets (leading axes of the
factors, one noise floor) shares these common random numbers: each stream
is drawn once per call and mapped through every set's whitening blocks,
one set at a time, so memory does not grow with the batch.
Every set gets the same answer as its own unbatched call, bit for bit,
whatever the memory layout the caller's factors had: a CovarianceSet
stores them C-contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import LN2, CovarianceSet
from .errors import ParameterError
from .numerics import make_rng, require_integer

MIN_SAMPLES = 1_000

_CHUNK = 16_384
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
        for name in ("n_samples", "seed"):
            require_integer(name, getattr(self, name))
        if self.n_samples < MIN_SAMPLES:
            raise ParameterError(
                f"n_samples must be >= {MIN_SAMPLES} to keep estimator variance usable",
                field="n_samples")


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def _shaped(buffer: np.ndarray, rows: int, count: int) -> np.ndarray:
    """The first rows * count entries of a flat work buffer as a contiguous (rows, count) array."""
    return buffer[:rows * count].reshape(rows, count)


def _draw_values(mix: np.ndarray, normals: np.ndarray, comp: int, logdets: np.ndarray,
                 work: tuple) -> np.ndarray:
    """ln sum_j exp(E_j - E_c - ld_j) - ln K for each draw of component c = comp.

    mix (2 k s, 2 k s) holds the real blocks of L_j^-1 (R_c)_j / sqrt(2), with
    I + A_jj = L_j L_j^H and R_c a root of B_c; the own term is exp(-ld_c).
    work holds the flat buffers of x, the energies, the terms, their peak
    and the values, which are returned as a view valid until the next call.
    """
    k, count = len(logdets), normals.shape[1]
    x_buf, energy_buf, terms_buf, peak_buf, values_buf = work
    x = _shaped(x_buf, len(mix), count)  # (2 k s, count), component-major rows
    energy, terms = _shaped(energy_buf, k, count), _shaped(terms_buf, k, count)
    peak, values = peak_buf[:count], values_buf[:count]
    np.matmul(mix, normals, out=x)
    np.sum(np.square(x, out=x).reshape(k, -1, count), axis=1, out=energy)
    np.subtract(energy, energy[comp], out=terms)
    terms -= logdets[:, None]
    terms[comp] = -logdets[comp]
    np.max(terms, axis=0, out=peak)
    terms -= peak
    np.sum(np.exp(terms, out=terms), axis=0, out=values)
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

    delta comes from a QR factorization of W, |R_11 R_22|^2 / N0^2, not from
    x_1 x_2 - |A_12|^2, which cancels for near-parallel beams.
    """
    x = covs.gram.diagonal(axis1=-2, axis2=-1).real / covs.n0  # the Gram matrix checks n0
    if covs.n_r < 2:
        return x, np.zeros(x.shape[:-1])
    diag = np.linalg.qr(covs.factors[..., 0].swapaxes(-1, -2), mode="r").diagonal(
        axis1=-2, axis2=-1)
    return x, np.prod(np.square(np.abs(diag)) / covs.n0, axis=-1)


def _estimates(out: np.ndarray) -> McEstimate | np.ndarray:
    """An McEstimate of floats for one (estimate, stderr) pair, the (..., 2) array of a batch."""
    return McEstimate(float(out[0]), float(out[1])) if out.ndim == 1 else out


def mc_mutual_information(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate | np.ndarray:
    """The total rate h(y) - N_r log2(pi e N0) in bits, with the stderr of its estimate.

    An unbatched set gives an McEstimate of floats. Leading axes before
    (k, n_r, s) give a (..., 2) array of (estimate, stderr) pairs, every set
    estimated on the same draws; a set's pair equals its own unbatched call.
    One pattern, or two rank-one patterns, are answered exactly with stderr
    0; every other set is sampled. An n0 too small for the factors fails in
    covs.gram, as for the closed forms.
    """
    k, s = covs.k, covs.factors.shape[-1]
    if k == 1:
        rate = covs.cholesky[1][..., 0] / LN2
    elif k == 2 and s == 1:
        rate = _two_pattern_rate(*_two_pattern_inputs(covs))
    else:
        return _sampled(covs, spec)
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
    cols = a.reshape(sets, ks, k, s).swapaxes(1, 2)  # A_c, (sets, k, k s, s)
    cov = a[:, None] + cols @ cols.conj().swapaxes(-1, -2)  # B_c, (sets, k, k s, k s)
    lam, vec = np.linalg.eigh(cov)
    root = vec * np.sqrt(np.maximum(lam, 0.0))[..., None, :]  # B_c = R_c R_c^H
    # mix[p, c] block j maps unit normals to the draws of c whitened by I + A_jj,
    # L_j^-1 (R_c)_j / sqrt(2), as the real rows [[Re, -Im], [Im, Re]] acting on
    # the stacked (re, im) normals
    mix = np.linalg.solve(chol[:, None], root.reshape(sets, k, k, s, ks)) / np.sqrt(2.0)
    mix = np.block([[mix.real, -mix.imag],
                    [mix.imag, mix.real]]).reshape(sets, k, 2 * ks, 2 * ks)
    per_component = math.ceil(spec.n_samples / k)
    counts = np.diff([*range(0, per_component, _CHUNK), per_component])
    means = np.empty((sets, k, len(counts)))
    squares = np.empty_like(means)
    # flat work buffers sized for the largest chunk, the first; every chunk,
    # component and set reuses them
    size = counts[0]
    all_normals = np.empty(2 * ks * size)
    work = (np.empty(2 * ks * size), np.empty(k * size), np.empty(k * size),
            np.empty(size), np.empty(size))
    for comp in range(k):
        for chunk, count in enumerate(counts):
            rng = make_rng(spec.seed, stream=comp * _STREAM_SPAN + chunk)
            draw = _shaped(work[0], count, ks)  # x's buffer is free until _draw_values
            normals = _shaped(all_normals, 2 * ks, count)  # real parts, then imaginary
            for half in (slice(None, ks), slice(ks, None)):
                normals[half] = rng.standard_normal(out=draw).T
            for p in range(sets):  # one set's (2 k s, count) block at a time
                values = _draw_values(mix[p, comp], normals, comp, logdets[p], work)
                means[p, comp, chunk] = mean = values.mean()
                values -= mean
                squares[p, comp, chunk] = values @ values
    # per component: pooled mean and sample variance of its chunks
    mean = (means * counts).sum(axis=-1) / per_component
    spread = squares.sum(axis=-1) + (np.square(means - mean[..., None]) * counts).sum(axis=-1)
    stderr = np.sqrt((spread / (per_component - 1)).sum(axis=-1) / per_component) / k
    out = np.stack([-mean.mean(axis=-1), stderr], axis=-1) / LN2
    return _estimates(out.reshape(*batch, 2))

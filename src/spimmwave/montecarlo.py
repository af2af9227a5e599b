"""Monte-Carlo estimator of the exact mixture mutual information.

The received signal is a K-component zero-mean complex Gaussian mixture
whose differential entropy has no closed form. Every component is the noise
floor plus a signal term, S_k = N0 I + G_k G_k^H, and all signal terms live
in one span of rank r <= K n_s: the column space of the stacked beam
factors [G_1 ... G_K], whose orthonormal basis Q comes from one thin SVD of
that n_r x K n_s matrix, so no n_r x n_r matrix is ever formed. A received
vector splits into its span coordinates u and the orthogonal remainder v.
The density of v is CN(0, N0 I) under every pattern, so the estimator never
samples it: its energy term |v|^2 / N0 is replaced by its exact mean n_r - r
(Rao-Blackwellization), and ln|S_k| becomes (n_r - r) ln N0 + ln|C_k| with
the r x r span covariance C_k = N0 I + P_k P_k^H = L_k L_k^H, P_k = Q^H G_k.

Only u is sampled, exactly ceil(N/K) draws from every component
(stratification is unbiased because patterns are equiprobable and cuts
variance). A draw u = L_c z / sqrt(2) of component c has the whitened
energies e_j = u^H C_j^-1 u; its own one, e_c = |z|^2 / 2, has the exact
mean r, so it is integrated as well: each draw contributes
ln sum_j exp(e_c - e_j - ln|C_j|) - ln K - r, whose own term is exactly
exp(-ln|C_c|). The energies are strongly correlated across components, so
the differences e_c - e_j carry far less variance than the energies alone.
With one pattern, or with no span (r = 0), nothing random is left: the
answer is exact, no normals are drawn and the stderr is zero.

A batch of sets (leading axes of the factors, one noise floor) is
estimated on common random numbers. Draw streams are keyed by (component,
chunk), so results are reproducible under any execution schedule; each
stream is drawn once per call and mapped through every set's whitening
blocks, one set at a time, so memory does not grow with the batch. The
draws fill the batch's largest span rank. A set of lower rank pads its
span with null directions, where C_k is N0 under every component: their
energy is the same in every e_j and cancels from e_c - e_j. A set of the
largest rank therefore gets the same answer as its own unbatched call,
and the estimates of one batch are positively correlated.
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

_STREAM_SPAN = 1 << 32


@dataclass(frozen=True)
class MonteCarloSpec:
    """Sample budget, seed and chunk size of one estimator run."""

    n_samples: int = 100_000
    seed: int = 0
    batch: int = 16_384

    def __post_init__(self):
        for name in ("n_samples", "seed", "batch"):
            require_integer(name, getattr(self, name))
        if self.n_samples < MIN_SAMPLES:
            raise ParameterError(
                f"n_samples must be >= {MIN_SAMPLES} to keep estimator variance usable",
                field="n_samples")
        if self.batch < 1:
            raise ParameterError("batch must be >= 1", field="batch")


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


class _SpanMean(NamedTuple):
    mean: float  # estimate of E ln p(u), without -r ln(pi); exact when stderr is 0
    stderr: float  # its standard error; 0 for an exact value
    rank: int  # r, the dimension of the span the draws fill
    logdets: np.ndarray  # ln|C_k| of the span covariances


def _span_cholesky(factors: np.ndarray, basis: np.ndarray, n0: float, own_rank: int):
    """Cholesky factors L_k of C_k = N0 I + P_k P_k^H, P_k = Q^H G_k, and their ln|C_k|.

    Q is `basis`; its columns past own_rank are null directions of this set,
    zeroed so that C_k is exactly N0 there under every component.
    """
    proj = basis.conj().T @ factors
    proj[:, own_rank:] = 0.0
    chol = np.linalg.cholesky(n0 * np.eye(basis.shape[1]) + proj @ proj.conj().swapaxes(1, 2))
    return chol, 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=1, axis2=2))), axis=1)


def _draw_values(mix: np.ndarray, normals: np.ndarray, comp: int, logdets: np.ndarray,
                 offset: float) -> np.ndarray:
    """ln sum_j exp(e_c - e_j - ln|C_j|) - ln K - r for each draw of component c = comp.

    mix (2 k r, 2 r) holds the real blocks L_j^-1 L_c / sqrt(2); the own term is exp(-ln|C_c|).
    """
    k, count = len(logdets), normals.shape[1]
    x = mix @ normals  # (2 k r, count), component-major rows
    energy = np.square(x, out=x).reshape(k, -1, count).sum(axis=1)
    terms = energy[comp] - energy
    terms -= logdets[:, None]
    terms[comp] = -logdets[comp]
    peak = terms.max(axis=0)
    terms -= peak
    total = np.exp(terms, out=terms).sum(axis=0)
    return np.log(total, out=total) + peak - offset


def _pooled(chunks: list) -> tuple[float, float]:
    """Mean and its stderr from per-chunk (count, mean, sum of squared deviations)."""
    counts, means, squares = np.array(chunks).T
    n = counts.sum()
    mean = counts @ means / n
    spread = squares.sum() + counts @ np.square(means - mean)
    return float(mean), math.sqrt(spread / (n - 1)) / math.sqrt(n)


def _span_means(covs: CovarianceSet, spec: MonteCarloSpec) -> list[_SpanMean]:
    """The span mixture's mean log-density, one estimate per set of the flattened batch.

    A set with K = 1 or r = 0 gets one exact value. The others share their
    draws: ceil(N/K) stratified draws per component, each (component,
    chunk) stream drawn once in the span of the batch's largest rank and
    mapped through every set's whitening blocks in turn.
    """
    k = covs.k
    # one contiguous layout per set, so a batched product rounds as an unbatched one
    factors = np.ascontiguousarray(covs.factors.reshape(-1, *covs.factors.shape[-3:]))
    stacked = covs.stacked
    stacked = stacked.reshape(-1, *stacked.shape[-2:])
    basis, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    # numpy's matrix_rank rule; a zero channel keeps no direction (r = 0)
    tol = sv.max(axis=-1, initial=0.0) * max(stacked.shape[-2:]) * np.finfo(np.float64).eps
    ranks = [int(r) for r in np.count_nonzero(sv > tol[:, None], axis=-1)]
    width = max(ranks) if k > 1 else 0
    out = [None] * len(ranks)
    mixes, logdets = {}, {}
    for p, rank in enumerate(ranks):
        if k == 1 or rank == 0:
            _, ld = _span_cholesky(factors[p], basis[p, :, :rank], covs.n0, rank)
            # every draw equals -ln|C_1| - r (with r = 0 every ln|C_k| is 0)
            out[p] = _SpanMean(float(-ld[0] - rank), 0.0, rank, ld)
            continue
        # a lower-rank set is padded with null directions up to the width
        chol, logdets[p] = _span_cholesky(factors[p], basis[p, :, :width], covs.n0, rank)
        # mixes[c] block j maps unit normals to the draws of c whitened by C_j, L_j^-1 L_c / sqrt(2),
        # as the real rows [[Re, -Im], [Im, Re]] acting on the stacked (re, im) normals
        mix = np.linalg.solve(chol, chol[:, None]) / np.sqrt(2.0)
        mixes[p] = np.block([[mix.real, -mix.imag],
                             [mix.imag, mix.real]]).reshape(k, 2 * k * width, 2 * width)
    if not mixes:
        return out
    per_component = math.ceil(spec.n_samples / k)
    offset = math.log(k) + width
    chunks = {p: [] for p in mixes}
    for comp in range(k):
        drawn = 0
        chunk = 0
        while drawn < per_component:
            count = min(spec.batch, per_component - drawn)
            rng = make_rng(spec.seed, stream=comp * _STREAM_SPAN + chunk)
            normals = np.empty((2 * width, count))  # rows: real parts, then imaginary parts
            normals[:width] = rng.standard_normal((count, width)).T
            normals[width:] = rng.standard_normal((count, width)).T
            for p in mixes:  # one set's (2 k r, count) block at a time
                values = _draw_values(mixes[p][comp], normals, comp, logdets[p], offset)
                mean = values.mean()
                values -= mean
                chunks[p].append((count, mean, values @ values))
            drawn += count
            chunk += 1
    for p in mixes:
        out[p] = _SpanMean(*_pooled(chunks[p]), width, logdets[p])
    return out


def _information(span: _SpanMean, conditional: float) -> McEstimate:
    """Entropy gap -mean - conditional, from natural log to bits, with stderr."""
    return McEstimate(-(span.mean + conditional) / LN2, span.stderr / LN2)


def mc_mutual_information(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate | np.ndarray:
    """Estimate of the total rate h(y) - N_r log2(pi e N0) in bits, with stderr.

    Off the span both entropies hold the same noise term, so only the span's
    noise entropy, r (1 + ln N0) nats, is subtracted. An unbatched set gives
    an McEstimate of floats. Leading axes before (k, n_r, s) give a
    (..., 2) array of (estimate, stderr) pairs, every set estimated on the
    same draws; a set's pair equals its own unbatched call when it has the
    batch's largest rank, or K = 1, or r = 0.
    """
    noise = 1.0 + math.log(covs.n0)
    out = [_information(span, span.rank * noise) for span in _span_means(covs, spec)]
    if covs.factors.ndim == 3:
        return out[0]
    return np.array(out).reshape(*covs.factors.shape[:-3], 2)

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
answer is exact, no normals are drawn and the stderr is zero. Draw streams
are keyed by (component, chunk), so results are reproducible under any
execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import LN2, CovarianceSet
from .errors import DimensionError, ParameterError
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


class _SpanDraws(NamedTuple):
    logp: np.ndarray  # per-draw values whose mean is E ln p(u), without -r ln(pi); one if exact
    rank: int  # r, the dimension of the signal span
    logdets: np.ndarray  # ln|C_k| of the span covariances


def _mixture_logpdf_draws(covs: CovarianceSet, spec: MonteCarloSpec) -> _SpanDraws:
    """Per-draw terms whose mean is the span mixture's mean log-density.

    ceil(N/K) stratified draws per component, or one exact value when K = 1
    or r = 0.
    """
    if covs.factors.ndim != 3:
        raise DimensionError(f"the estimator takes one covariance set, got factors "
                             f"{covs.factors.shape}")
    k = covs.k
    stacked = covs.stacked
    basis, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    # numpy's matrix_rank rule; a zero channel keeps no direction (r = 0)
    q = basis[:, sv > sv.max(initial=0.0) * max(stacked.shape) * np.finfo(np.float64).eps]
    r = q.shape[1]
    proj = q.conj().T @ covs.factors  # P_k = Q^H G_k
    chol = np.linalg.cholesky(covs.n0 * np.eye(r) + proj @ proj.conj().swapaxes(1, 2))
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=1, axis2=2))), axis=1)
    if k == 1 or r == 0:
        # every draw equals -ln|C_1| - r (with r = 0 every ln|C_k| is 0)
        return _SpanDraws(np.array([-logdets[0] - r]), r, logdets)
    per_component = math.ceil(spec.n_samples / k)
    offset = math.log(k) + r
    # mixes[c] block j maps unit normals to the draws of c whitened by C_j, L_j^-1 L_c / sqrt(2),
    # as the real rows [[Re, -Im], [Im, Re]] acting on the stacked (re, im) normals
    mixes = np.linalg.solve(chol, chol[:, None]) / np.sqrt(2.0)
    mixes = np.block([[mixes.real, -mixes.imag],
                      [mixes.imag, mixes.real]]).reshape(k, 2 * k * r, 2 * r)
    out = np.empty(per_component * k)
    pos = 0
    for comp, mix in enumerate(mixes):
        drawn = 0
        chunk = 0
        while drawn < per_component:
            count = min(spec.batch, per_component - drawn)
            rng = make_rng(spec.seed, stream=comp * _STREAM_SPAN + chunk)
            normals = np.empty((2 * r, count))  # rows: real parts, then imaginary parts
            normals[:r] = rng.standard_normal((count, r)).T
            normals[r:] = rng.standard_normal((count, r)).T
            x = mix @ normals  # (2 k r, count), component-major rows
            energy = np.square(x, out=x).reshape(k, 2 * r, count).sum(axis=1)
            terms = energy[comp] - energy
            terms -= logdets[:, None]
            terms[comp] = -logdets[comp]
            peak = terms.max(axis=0)
            terms -= peak
            total = np.exp(terms, out=terms).sum(axis=0)
            out[pos:pos + count] = np.log(total, out=total) + peak - offset
            pos += count
            drawn += count
            chunk += 1
    return _SpanDraws(out, r, logdets)


def _information(logp: np.ndarray, conditional: float) -> McEstimate:
    """Entropy gap -mean(logp) - conditional, from natural log to bits, with stderr.

    A single value is an exact result and has zero stderr.
    """
    estimate = -(float(np.mean(logp)) + conditional) / LN2
    if logp.size == 1:
        return McEstimate(estimate, 0.0)
    stderr = float(np.std(logp, ddof=1)) / math.sqrt(logp.size) / LN2
    return McEstimate(estimate, stderr)


def mc_mutual_information(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate:
    """Estimate of the total rate h(y) - N_r log2(pi e N0) in bits, with stderr.

    Off the span both entropies hold the same noise term, so only the span's
    noise entropy, r (1 + ln N0) nats, is subtracted.
    """
    draws = _mixture_logpdf_draws(covs, spec)
    return _information(draws.logp, draws.rank * (1.0 + math.log(covs.n0)))


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
the r x r span covariance C_k = N0 I + P_k P_k^H, P_k = Q^H G_k.

Only u is sampled, exactly ceil(N/K) draws from every component
(stratification is unbiased because patterns are equiprobable and cuts
variance). The in-span energy u^H C_j^-1 u stays inside the samples: it is
strongly anti-correlated with the log-sum-exp over components, and
integrating it as well would multiply the variance. Draw streams are keyed
by (component, chunk), so results are reproducible under any execution
schedule. A zero channel (r = 0) gives exactly zero with zero stderr.
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
    logp: np.ndarray  # ln p(u) per draw, without the -r ln(pi) constant
    rank: int  # r, the dimension of the signal span
    logdets: np.ndarray  # ln|C_k| of the span covariances


def _mixture_logpdf_draws(covs: CovarianceSet, spec: MonteCarloSpec) -> _SpanDraws:
    """Span mixture log-densities of stratified draws, ceil(N/K) per component."""
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
    # C_k = N0 I + P_k P_k^H = L_k L_k^H
    chol = np.linalg.cholesky(covs.n0 * np.eye(r) + proj @ proj.conj().swapaxes(1, 2))
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=1, axis2=2))), axis=1)
    per_component = math.ceil(spec.n_samples / k)
    out = np.empty(per_component * k)
    pos = 0
    for comp in range(k):
        # column block j maps unit normals to the draws of comp whitened by C_j:
        # x = z @ (L_j^-1 L_comp)^T, so |x_j|^2 = u^H C_j^-1 u for u = L_comp z
        mix = np.linalg.solve(chol, chol[comp]).reshape(k * r, r).T / np.sqrt(2.0)
        drawn = 0
        chunk = 0
        while drawn < per_component:
            count = min(spec.batch, per_component - drawn)
            rng = make_rng(spec.seed, stream=comp * _STREAM_SPAN + chunk)
            z = rng.standard_normal((count, r)) + 1j * rng.standard_normal((count, r))
            x = z @ mix
            log_terms = -(x.real ** 2 + x.imag ** 2).reshape(count, k, r).sum(axis=2) - logdets
            peak = log_terms.max(axis=1)
            out[pos:pos + count] = (peak + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))
                                    - np.log(k))
            pos += count
            drawn += count
            chunk += 1
    return _SpanDraws(out, r, logdets)


def _information(logp: np.ndarray, conditional: float) -> McEstimate:
    """Entropy gap -mean(logp) - conditional, from natural log to bits, with stderr."""
    estimate = -(float(np.mean(logp)) + conditional) / LN2
    stderr = float(np.std(logp, ddof=1)) / math.sqrt(logp.size) / LN2
    return McEstimate(estimate, stderr)


def mc_mutual_information(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate:
    """Estimate of the total rate h(y) - N_r log2(pi e N0) in bits, with stderr.

    Off the span both entropies hold the same noise term, so only the span's
    noise entropy, r (1 + ln N0) nats, is subtracted.
    """
    draws = _mixture_logpdf_draws(covs, spec)
    return _information(draws.logp, draws.rank * (1.0 + math.log(covs.n0)))


"""Monte-Carlo estimator of the exact mixture mutual information.

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

Under component c, q is CN(0, B_c) with B_c = A + A_c A_c^H, A_c the s
columns of block c. B_c may be singular (a zero channel, identical beams,
K s > n_r), so its root comes from its eigenvalues clipped at zero. Every
set draws K s complex normals, ceil(N/K) draws per component, and reports
the stratified stderr sqrt(sum_c var_c / n_c) / K. One pattern (K = 1)
leaves nothing random: the answer is ld_1, with no draws and stderr 0.

A batch of sets (leading axes of the factors, one noise floor) shares
common random numbers. Draw streams are keyed by (component, chunk), so
results do not depend on the schedule; each stream is drawn once per call
and mapped through every set's whitening blocks, one set at a time, so
memory does not grow with the batch. The work buffers are allocated once
per call, for the largest chunk, so the hot loop allocates no arrays.
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


def mc_mutual_information(covs: CovarianceSet, spec: MonteCarloSpec) -> McEstimate | np.ndarray:
    """Estimate of the total rate h(y) - N_r log2(pi e N0) in bits, with stderr.

    An unbatched set gives an McEstimate of floats. Leading axes before
    (k, n_r, s) give a (..., 2) array of (estimate, stderr) pairs, every set
    estimated on the same draws; a set's pair equals its own unbatched call.
    An n0 too small for the factors fails in covs.gram, as for the closed forms.
    """
    *batch, k, _, s = covs.factors.shape
    ks, sets = k * s, math.prod(batch)
    chol, logdets = covs.cholesky[0].reshape(sets, k, s, s), covs.cholesky[1].reshape(sets, k)
    if k == 1:
        out = np.stack([logdets[:, 0] / LN2, np.zeros(sets)], axis=-1)
    else:
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
        counts = np.diff([*range(0, per_component, spec.batch), per_component])
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
    if not batch:
        return McEstimate(float(out[0, 0]), float(out[0, 1]))
    return out.reshape(*batch, 2)

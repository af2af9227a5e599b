"""Reference quantities that only the tests read: dense covariances and the pattern bound.

The package never forms an n_r x n_r covariance, and it does not ship the
paper's determinant bound on the pattern-index rate on its own. Both live
here, as oracles for the closed forms and the Monte-Carlo estimator.
"""

import math

import numpy as np

from spimmwave.capacity import LN2, _mean_logsumexp_neg, _pair_logdets

LOG2E = float(np.log2(np.e))


def dense_covariances(covs):
    """The (..., k, n_r, n_r) covariances S_k = N0 I + G_k G_k^H, built densely."""
    fac = covs.factors
    return covs.n0 * np.eye(covs.n_r) + fac @ fac.conj().swapaxes(-1, -2)


def pattern_rate_bound(covs):
    """Determinant lower bound on the rate carried by the pattern index, in bits.

    log2 K - N_r log2 e - (1/K) sum_n log2 sum_t |S_n| / |S_n + S_t|, with
    ln|S_n| = n_r ln N0 + ln|I + G_n^H G_n / N0|. This is a bound, not a rate:
    it goes negative when patterns overlap. It is stated on its own, not as
    total_rate_approx minus the symbol rate, so the split of the total into
    the two stays something the tests check.
    """
    logdets = covs.n_r * math.log(covs.n0) + covs.cholesky[1]
    inner = _mean_logsumexp_neg(_pair_logdets(covs) - logdets[..., :, None])
    return np.log2(covs.k) - covs.n_r * LOG2E - inner / LN2

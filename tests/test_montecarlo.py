"""Monte-Carlo mutual-information estimator against analytic oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from spimmwave import (
    CovarianceSet,
    McEstimate,
    MonteCarloSpec,
    ParameterError,
    asymptotic_covariances,
    build_abf,
    conditional_symbol_rate,
    covariances,
    effective_channel,
    make_rng,
    mc_mutual_information,
    pattern_alphabet,
    sample_channel,
    total_rate_approx,
)
from spimmwave import montecarlo

from oracles import dense_covariances, pattern_rate_bound


def mc_spatial_information(covs, spec):
    """Estimate of the pattern-index rate h(y) - (1/K) sum_k h(y | pattern k).

    Per-component entropies are analytic, log2((pi e)^N_r |S_k|), so only
    the mixture entropy carries Monte-Carlo noise: this is the total-rate
    estimate minus conditional_symbol_rate, with the same stderr.
    """
    est = mc_mutual_information(covs, spec)
    return McEstimate(est.estimate - conditional_symbol_rate(covs), est.stderr)


def dense_mutual_information(covs, spec):
    """Oracle: the full n_r-dimensional estimator, whitening every draw densely.

    It samples all receive dimensions, orthogonal noise included, from the
    same (component, chunk) Philox keys as the package estimator, and
    reports the same stratified stderr, sqrt(sum_c var_c / n_c) / K.
    """
    k, n_r = covs.k, covs.n_r
    chol = np.linalg.cholesky(dense_covariances(covs))
    eye = np.eye(n_r, dtype=np.complex128)
    whiten = np.stack([solve_triangular(chol[j], eye, lower=True) for j in range(k)])
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=1, axis2=2))), axis=1)
    per_component = math.ceil(spec.n_samples / k)
    logp = [[] for _ in range(k)]
    for comp in range(k):
        drawn = chunk = 0
        while drawn < per_component:
            count = min(montecarlo._CHUNK, per_component - drawn)
            rng = make_rng(spec.seed, stream=comp * (1 << 32) + chunk)
            z = (rng.standard_normal((count, n_r))
                 + 1j * rng.standard_normal((count, n_r))) / np.sqrt(2.0)
            y = chol[comp] @ z.T  # columns ~ CN(0, sigma_comp)
            comp_logpdf = np.stack([
                -np.sum(np.abs(whiten[j] @ y) ** 2, axis=0) - n_r * np.log(np.pi) - logdets[j]
                for j in range(k)])
            logp[comp].append(logsumexp(comp_logpdf, axis=0) - np.log(k))
            drawn += count
            chunk += 1
    logp = np.array([np.concatenate(draws) for draws in logp])  # (k, per_component)
    estimate = -np.mean(logp) / np.log(2) - n_r * np.log2(np.pi * np.e * covs.n0)
    variance = np.sum(np.var(logp, axis=1, ddof=1) / per_component)
    return estimate, np.sqrt(variance) / k / np.log(2)


ORACLE_K = (1, 2, 4, 8)
ORACLE_NR = (4, 8, 64)  # n_r = 4 < K s = 8 leaves B_c singular
ORACLE_N0 = (0.01, 0.1, 1.0)


@pytest.fixture(scope="module")
def oracle_grid():
    """(projected, dense) estimates on exact-channel covariances over (K, n_r, n0)."""
    out = {}
    for k in ORACLE_K:
        for n_r in ORACLE_NR:
            chan = sample_channel(make_rng(k, n_r), 64, n_r, k, gains=list(0.7 ** np.arange(k)))
            eff = effective_channel(chan, build_abf(chan, k), "exact")
            for n0 in ORACLE_N0:
                covs = covariances(eff, pattern_alphabet(k, 1), n0)
                spec = MonteCarloSpec(5_000, seed=11)
                out[k, n_r, n0] = (mc_mutual_information(covs, spec),
                                   dense_mutual_information(covs, spec))
    return out


def test_projected_agrees_with_dense_oracle(oracle_grid):
    for key, (projected, dense) in oracle_grid.items():
        combined = math.hypot(projected.stderr, dense[1])
        assert abs(projected.estimate - dense[0]) <= 3 * combined, key


def test_projected_stderr_not_above_dense(oracle_grid):
    for key, (projected, dense) in oracle_grid.items():
        assert projected.stderr <= dense[1], key


def rebuilt_draws(covs, spec):
    """Oracle: every per-draw value of the sampler, (K, ceil(N/K)), with no chunk pooling.

    Component c's chunk j of montecarlo._CHUNK draws comes from the stream
    make_rng(seed, c 2^32 + j), real parts then imaginary parts. All draws of
    a component are mapped at once through the eigenvalue root of B_c and
    whitened block by block, and each value is
    ln sum_j exp(E_j - E_c - ld_j) - ln K with own term -ld_c.
    """
    k, s = covs.k, covs.factors.shape[-1]
    a = covs.gram / covs.n0
    chol, ld = covs.cholesky
    per_component = math.ceil(spec.n_samples / k)
    values = np.empty((k, per_component))
    for c in range(k):
        a_c = a[:, c * s:(c + 1) * s]
        lam, vec = np.linalg.eigh(a + a_c @ a_c.conj().T)
        root = vec * np.sqrt(np.maximum(lam, 0.0))
        z = []
        for chunk, start in enumerate(range(0, per_component, montecarlo._CHUNK)):
            count = min(montecarlo._CHUNK, per_component - start)
            rng = make_rng(spec.seed, stream=c * (1 << 32) + chunk)
            z.append(rng.standard_normal((count, k * s)) + 1j * rng.standard_normal((count, k * s)))
        q = root @ np.concatenate(z).T / np.sqrt(2.0)  # (k s, per_component) ~ CN(0, B_c)
        energy = np.stack([
            np.sum(np.abs(solve_triangular(chol[j], q[j * s:(j + 1) * s], lower=True)) ** 2,
                   axis=0) for j in range(k)])
        terms = energy - energy[c] - ld[:, None]
        terms[c] = -ld[c]
        values[c] = logsumexp(terms, axis=0) - np.log(k)
    return values


@pytest.mark.parametrize("k", [2, 3])
def test_pooled_chunks_equal_plain_moments_of_every_draw(k, monkeypatch):
    # chunks of 300 split ceil(2000 / k) draws into full chunks and a short last one; the
    # pooled mean is the plain mean of every draw, and the stderr the stratified one with
    # ddof 1, sqrt(sum_c var_c / n_c) / K
    monkeypatch.setattr(montecarlo, "_CHUNK", 300)
    covs = asymptotic_covariances([0.7, 0.5, 0.3][:k], [64.0] * k, [-0.1, 0.05, 0.2][:k], 8, 0.3)
    spec = MonteCarloSpec(2_000, seed=5)
    draws = rebuilt_draws(covs, spec)
    per_component = draws.shape[1]
    assert per_component == math.ceil(2_000 / k) and per_component % 300 != 0
    est = montecarlo._sampled(covs, spec)
    assert abs(est.estimate + np.mean(draws) / np.log(2)) <= 1e-12
    stderr = np.sqrt(np.sum(np.var(draws, axis=1, ddof=1)) / per_component) / k / np.log(2)
    assert abs(est.stderr - stderr) <= 1e-12


@st.composite
def batched_sets(draw):
    """A batch of random factor sets over one or two axes, K 1-8, a spec and a chunk size.

    The chunk size splits each component's draws into several chunks. Sets
    may be zero or ragged, so ranks differ within a batch.
    """
    k = draw(st.integers(1, 8))
    n_r = draw(st.integers(1, 12))
    s = draw(st.integers(1, 2))
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = (rng.standard_normal((*batch, k, n_r, s))
               + 1j * rng.standard_normal((*batch, k, n_r, s))) * draw(st.floats(0.05, 8.0))
    keep = rng.uniform(size=(*batch, k, 1, s)) < draw(st.sampled_from([1.0, 0.8]))
    factors *= keep * (rng.uniform(size=(*batch, 1, 1, 1)) < 0.85)
    n_samples = draw(st.integers(1_000, 2_500))
    per_component = math.ceil(n_samples / k)
    chunk = draw(st.integers(max(1, per_component // 4), per_component - 1))
    spec = MonteCarloSpec(n_samples, seed=draw(st.integers(0, 2 ** 16)))
    return CovarianceSet(n0=10.0 ** draw(st.floats(-2.0, 1.0)), factors=factors), spec, chunk


@settings(max_examples=40, deadline=None)
@given(batched_sets())
def test_batched_call_equals_per_set_calls(case):
    covs, spec, chunk = case
    with mock.patch.object(montecarlo, "_CHUNK", chunk):
        batched = mc_mutual_information(covs, spec)
        assert batched.shape == (*covs.factors.shape[:-3], 2)
        for index in np.ndindex(*covs.factors.shape[:-3]):
            alone = mc_mutual_information(CovarianceSet(covs.n0, covs.factors[index]), spec)
            assert tuple(batched[index]) == alone, index


def test_batch_memory_does_not_grow_with_set_count():
    # each chunk's (2 k s, count) block is formed for one set at a time
    rng = np.random.default_rng(1)
    covs = asymptotic_covariances(rng.uniform(0.1, 1.0, (12, 4)), np.full(4, 64.0),
                                  rng.uniform(-0.5, 0.5, (12, 4)), 64, 0.1)
    spec = MonteCarloSpec(20_000, seed=1)
    peaks = []
    for sets in (covs.factors[0], covs.factors):
        tracemalloc.start()
        try:
            mc_mutual_information(CovarianceSet(0.1, sets), spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2 ** 18  # about 2 MiB for one set; 256 KiB of slack


def test_spec_rejects_small_sample_counts():
    with pytest.raises(ParameterError):
        MonteCarloSpec(n_samples=999)


@pytest.mark.parametrize("n_rx", [128, 512, 2048])
def test_runs_on_large_arrays(n_rx):
    # within 4 stderr of the conditioning sandwich: symbol term <= total <= + log2 K
    chan = sample_channel(make_rng(5, n_rx), 64, n_rx, 4, gains=list(0.6 ** np.arange(4)))
    eff = effective_channel(chan, build_abf(chan, 4), "exact")
    covs = covariances(eff, pattern_alphabet(4, 1), 0.01)
    tracemalloc.start()
    try:
        est = mc_mutual_information(covs, MonteCarloSpec(2_000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sampler forms no n_r x n_r matrix; one is 64 MiB at n_r = 2048
    assert peak < 16 * 2 ** 20
    symbol = conditional_symbol_rate(covs)
    assert 0.0 < est.stderr < 0.1
    assert symbol - 4 * est.stderr <= est.estimate <= symbol + 2.0 + 4 * est.stderr


def test_zero_channel_rate_is_zero():
    # every draw projects to q = 0, so every value is exactly 0
    for k in (1, 2):
        covs = covariances(np.zeros((8, k)), pattern_alphabet(k, 1), 0.5)
        assert mc_mutual_information(covs, MonteCarloSpec(20_000, seed=1)) == (0.0, 0.0)
        assert mc_spatial_information(covs, MonteCarloSpec(20_000, seed=1)) == (0.0, 0.0)


def test_single_gaussian_matches_shannon_rate():
    # one pattern leaves nothing random: the estimate is the exact Shannon rate
    covs = asymptotic_covariances([0.8], [64.0], [0.1], 8, 0.1)
    est = mc_mutual_information(covs, MonteCarloSpec(100_000, seed=2))
    exact = np.log2(1 + 0.8 * 64 / 0.1)
    assert abs(est.estimate - exact) <= 1e-12
    assert est.stderr <= 1e-12


def test_single_pattern_is_exact_under_any_seed():
    chan = sample_channel(make_rng(3, 16), 64, 16, 2, gains=[0.7, 0.3])
    eff = effective_channel(chan, build_abf(chan, 2), "exact")
    covs = covariances(eff[:, :1], pattern_alphabet(1, 1), 0.05)
    est = mc_mutual_information(covs, MonteCarloSpec(5_000, seed=1))
    assert est == mc_mutual_information(covs, MonteCarloSpec(20_000, seed=2))
    assert est.stderr == 0.0
    assert abs(est.estimate - conditional_symbol_rate(covs)) <= 1e-12


def test_estimator_is_deterministic():
    covs = asymptotic_covariances([0.9, 0.1], [64, 64], [-0.2, 0.2], 8, 0.1)
    spec = MonteCarloSpec(10_000, seed=7)
    assert montecarlo._sampled(covs, spec) == montecarlo._sampled(covs, spec)
    assert montecarlo._sampled(covs, MonteCarloSpec(10_000, seed=8)) != \
        montecarlo._sampled(covs, spec)
    # two rank-one patterns are answered exactly, whatever the seed
    assert mc_mutual_information(covs, MonteCarloSpec(10_000, seed=8)) == \
        mc_mutual_information(covs, spec)


def test_spatial_information_single_pattern_is_zero():
    covs = asymptotic_covariances([0.5], [32.0], [0.0], 8, 0.2)
    est = mc_spatial_information(covs, MonteCarloSpec(20_000, seed=3))
    assert abs(est.estimate) <= 1e-12
    assert est.stderr <= 1e-12


def test_spatial_information_identical_patterns_is_zero():
    beam = asymptotic_covariances([0.5], [32.0], [0.1], 8, 0.2).factors[0]
    covs = CovarianceSet(n0=0.2, factors=np.stack([beam, beam]))
    # B_c has rank one of two
    est = mc_spatial_information(covs, MonteCarloSpec(20_000, seed=4))
    assert abs(est.estimate) <= 1e-12
    assert est.stderr <= 1e-12
    # the mixture of two identical Gaussians is that Gaussian
    total = mc_mutual_information(covs, MonteCarloSpec(20_000, seed=4))
    assert abs(total.estimate - conditional_symbol_rate(covs)) <= 1e-12
    assert total.stderr <= 1e-12


@st.composite
def mixtures(draw):
    """Random pattern sets: steered rank-one beams or ragged random factors, K 1-8."""
    k = draw(st.integers(1, 8))
    n_r = draw(st.integers(1, 64))
    n0 = 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        w = rng.uniform(0.05, 1.0, k)
        return asymptotic_covariances(w, np.full(k, 64.0), rng.uniform(-0.5, 0.5, k), n_r, n0)
    s = draw(st.integers(1, 2))
    factors = np.zeros((k, n_r, s), dtype=complex)
    for i in range(k):
        rank = draw(st.integers(0, s))
        power = draw(st.floats(0.0, 128.0))  # expected squared column norm
        cols = rng.standard_normal((n_r, rank)) + 1j * rng.standard_normal((n_r, rank))
        factors[i, :, :rank] = cols * np.sqrt(power / (2.0 * n_r))
    return CovarianceSet(n0=n0, factors=factors)


@given(mixtures(), st.integers(0, 2 ** 16))
def test_spatial_information_between_bound_and_alphabet_size(covs, seed):
    # 1e-12 absorbs the rounding of the exact K = 1 and zero-channel answers
    est = mc_spatial_information(covs, MonteCarloSpec(2_000, seed=seed))
    slack = 3 * est.stderr + 1e-12
    assert pattern_rate_bound(covs) - slack <= est.estimate <= math.log2(covs.k) + slack


def test_spatial_information_saturates_at_one_bit():
    covs = asymptotic_covariances([1.0, 1.0], [64.0, 64.0], [-0.25, 0.25], 8, 1e-3)
    est = mc_spatial_information(covs, MonteCarloSpec(100_000, seed=5))
    assert est.estimate == pytest.approx(1.0, abs=0.05)


def test_spatial_information_within_alphabet_budget():
    rng = np.random.default_rng(6)
    for seed in range(5):
        w = np.sort(rng.uniform(0.1, 1.0, 2))[::-1]
        theta = rng.uniform(-0.4, 0.4, 2)
        covs = asymptotic_covariances(w, [64, 64], theta, 8, 0.1)
        est = mc_spatial_information(covs, MonteCarloSpec(20_000, seed=seed))
        assert -3 * est.stderr <= est.estimate <= 1.0 + 3 * est.stderr


def test_total_rate_sandwich():
    # conditioning bounds: symbol term <= total <= symbol term + log2 K
    rng = np.random.default_rng(9)
    for seed in range(5):
        w = np.sort(rng.uniform(0.1, 1.0, 2))[::-1]
        theta = rng.uniform(-0.4, 0.4, 2)
        covs = asymptotic_covariances(w, [64, 64], theta, 8, 0.2)
        est = mc_mutual_information(covs, MonteCarloSpec(20_000, seed=seed))
        symbol = conditional_symbol_rate(covs)
        assert est.estimate >= symbol - 3 * est.stderr
        assert est.estimate <= symbol + 1.0 + 3 * est.stderr


@pytest.mark.parametrize("k, mode, n_r, n0", [
    (2, "exact", 8, 0.1), (8, "exact", 8, 0.1),
    (2, "asymptotic", 64, 0.1), (8, "asymptotic", 64, 0.01)])
def test_stderr_matches_seed_to_seed_spread(k, mode, n_r, n0):
    # the reported stderr is calibrated: too large or too small a formula both fail
    chan = sample_channel(make_rng(k, n_r), 64, n_r, k, gains=list(0.7 ** np.arange(k)))
    eff = effective_channel(chan, build_abf(chan, k), mode)
    covs = covariances(eff, pattern_alphabet(k, 1), n0)
    runs = np.array([montecarlo._sampled(covs, MonteCarloSpec(2_000, seed=seed))
                     for seed in range(200)])
    ratio = np.std(runs[:, 0], ddof=1) / np.mean(runs[:, 1])
    assert 0.8 <= ratio <= 1.25


def test_stderr_scales_with_sample_count():
    covs = asymptotic_covariances([0.9, 0.1], [64, 64], [-0.15, 0.2], 8, 0.1)
    ratios = []
    for seed in range(6):
        small = montecarlo._sampled(covs, MonteCarloSpec(20_000, seed=seed))
        large = montecarlo._sampled(covs, MonteCarloSpec(40_000, seed=seed + 100))
        ratios.append(small.stderr / large.stderr)
    assert np.mean(ratios) == pytest.approx(np.sqrt(2.0), rel=0.2)


def test_agreement_with_closed_form_on_separated_draws():
    # balanced gains, beams outside each other's main lobe, snr >= 2 dB; at n0 = 1e-8 the
    # components separate and both sides tend to log2 K + conditional_symbol_rate
    rng = np.random.default_rng(10)
    for snr_db, tol in ((2.0, 0.15), (10.0, 0.15), (80.0, 1e-6)):
        n0 = 10 ** (-snr_db / 10)
        for _ in range(5):
            theta = rng.uniform(-0.25, 0.25, 2)
            while abs(theta[0] - theta[1]) < 1 / 8:
                theta = rng.uniform(-0.25, 0.25, 2)
            covs = asymptotic_covariances([0.6, 0.4], [64, 64], theta, 8, n0)
            est = mc_mutual_information(covs, MonteCarloSpec(50_000, seed=int(snr_db)))
            assert abs(est.estimate - total_rate_approx(covs)) <= tol


# (x_1, x_2, delta, rate in bits) of the exact two-pattern form, each rate a 40-digit
# evaluation of 1 + sum_c log2(1 + x_c) / 2 - sum_c E softplus(Z_c + b_c) / (2 ln 2)
# from the same float inputs, truncated to 25 digits
TWO_PATTERN_REFERENCES = [
    (3.7, 1.2, 2.2, "1.932594286408725462225566"),  # partly overlapping beams
    (1e6, 1e6, 0.3, "19.93157012022049726351628"),  # equal gains, 1 - rho = 3e-13
    (40175117.54424437, 27387986.448285602, 221607844767492.22,
     "25.98341895806963200161388"),  # the high-SNR set below, as its inputs
    (1e-3, 2e-3, 1e-9, "0.002162421510709209005152691"),  # low SNR
    (1e4, 1e-2, 50.0, "7.647176765351063774555208"),  # strongly imbalanced, orthogonal
    (1e12, 3e11, 2.9e23, "39.9946543415626213042141"),  # very high SNR, nearly orthogonal
    (20.0, 5.0, 1e-8, "3.702246294072938590634102"),  # nearly parallel, unequal gains
    (0.5, 0.5, 0.25, "0.6406929966322598407177465"),  # orthogonal, equal gains
]


@pytest.mark.parametrize("x1, x2, delta, reference", TWO_PATTERN_REFERENCES)
def test_two_pattern_rate_matches_40_digit_references(x1, x2, delta, reference):
    rate = montecarlo._two_pattern_rate(np.array([x1, x2]), np.array(delta))
    assert abs(rate - float(reference)) <= 1e-12


def _quad_two_pattern_rate(covs):
    """Oracle: the rate of two rank-one patterns from the density of Z, by scipy quad.

    Under component c, Z = E_o - E_c = q^H D q with q ~ CN(0, B_c), D =
    diag(-1 / (1 + x_c), 1 / (1 + x_o)); its lams are the eigenvalues of D B_c,
    and Z has density exp(-z / lam_+) / r above 0 and exp(z / |lam_-|) / r below.
    """
    from scipy.integrate import quad

    a = covs.gram / covs.n0
    x = a.diagonal().real
    penalty = 0.0
    for c in (0, 1):
        o = 1 - c
        b = np.log1p(x[c]) - np.log1p(x[o])
        d = np.diag(np.where(np.arange(2) == c, -1.0, 1.0) / (1.0 + x))
        b_c = a + np.outer(a[:, c], a[:, c].conj())
        lo, hi = np.sort(np.linalg.eigvals(d @ b_c).real)
        up = quad(lambda z: np.logaddexp(0.0, z + b) * np.exp(-z / hi), 0, np.inf,
                  epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        down = quad(lambda z: np.logaddexp(0.0, b - z) * np.exp(z / lo), 0, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        penalty += (up + down) / (hi - lo) / 2
    return 1.0 + np.mean(np.log2(1.0 + x)) - penalty / np.log(2)


def test_two_pattern_rate_matches_scipy_quad():
    rng = np.random.default_rng(13)
    for _ in range(12):
        n_r = int(rng.integers(2, 9))
        factors = rng.standard_normal((2, n_r, 1)) + 1j * rng.standard_normal((2, n_r, 1))
        factors *= rng.uniform(0.2, 2.0, (2, 1, 1))
        covs = CovarianceSet(10.0 ** rng.uniform(-1.0, 1.0), factors)
        est = mc_mutual_information(covs, MonteCarloSpec())
        assert est.stderr == 0.0
        assert abs(est.estimate - _quad_two_pattern_rate(covs)) <= 1e-12


def test_sampler_agrees_with_exact_two_pattern_rate():
    # 120 moderate-SNR sets: steered beams at n_r = 8 and random factors at n_r = 4, each
    # scaled to its own noise floor in [0.01, 10] and sampled at n0 = 1 on one set of draws
    rng = np.random.default_rng(14)
    n0 = 10.0 ** rng.uniform(-2.0, 1.0, (2, 60))
    steered = asymptotic_covariances(rng.uniform(0.1, 1.0, (60, 2)), np.full(2, 64.0),
                                     rng.uniform(-0.5, 0.5, (60, 2)), 8, 1.0).factors
    random = (rng.standard_normal((60, 2, 4, 1))
              + 1j * rng.standard_normal((60, 2, 4, 1))) * rng.uniform(0.3, 3.0, (60, 2, 1, 1))
    spec = MonteCarloSpec(4_000, seed=15)
    z = []
    for factors, floor in zip((steered, random), n0):
        covs = CovarianceSet(1.0, factors / np.sqrt(floor)[:, None, None, None])
        exact = mc_mutual_information(covs, spec)
        sampled = montecarlo._sampled(covs, spec)
        assert np.all(exact[:, 1] == 0.0)
        z.append((sampled[:, 0] - exact[:, 0]) / sampled[:, 1])
    z = np.concatenate(z)
    assert len(z) >= 100
    assert np.all(np.abs(z) <= 4.0)


def test_identical_beams_with_equal_gains_carry_no_index_information():
    for n0 in (1e-8, 0.1, 10.0):
        beam = asymptotic_covariances([0.6], [64.0], [0.15], 8, n0).factors[0]
        covs = CovarianceSet(n0, np.stack([beam, beam]))
        est = mc_mutual_information(covs, MonteCarloSpec())
        assert est.stderr == 0.0
        assert abs(est.estimate - np.log2(1 + np.vdot(beam, beam).real / n0)) <= 1e-14


def test_orthogonal_beams_tend_to_conditional_rate_plus_one_bit():
    # receive angles 0 and 0.5 at n_r = 64 are orthogonal; the confusion penalty falls as n0
    gaps = []
    for n0 in (1.0, 1e-2, 1e-4, 1e-6):
        covs = asymptotic_covariances([0.6, 0.4], [64.0, 64.0], [0.0, 0.5], 64, n0)
        gaps.append(mc_mutual_information(covs, MonteCarloSpec()).estimate
                    - conditional_symbol_rate(covs) - 1.0)
    assert all(gap < 0 for gap in gaps)
    assert all(abs(later) < 0.1 * abs(earlier) for earlier, later in zip(gaps, gaps[1:]))
    assert abs(gaps[-1]) < 1e-6


def test_high_snr_two_pattern_rate_is_exact():
    # at n0 = 1e-6 a pattern confusion has probability 1.7e-7 per draw, so 5e4 draws per
    # component see none: the sampler read 4.7e-7 bits high with a stderr of 1.2e-17
    chan = sample_channel(make_rng(0, 0), 64, 8, 2, gains=[0.6, 0.4])
    eff = effective_channel(chan, build_abf(chan, 2), "exact")
    covs = covariances(eff, pattern_alphabet(2, 1), 1e-6)
    est = mc_mutual_information(covs, MonteCarloSpec(100_000, seed=0))
    assert est.stderr == 0.0
    assert abs(est.estimate - 25.98341895806963200161388) <= 1e-12


def test_two_pattern_batch_equals_per_set_calls():
    rng = np.random.default_rng(16)
    factors = rng.standard_normal((3, 4, 2, 6, 1)) + 1j * rng.standard_normal((3, 4, 2, 6, 1))
    factors[0, 0, 1] = factors[0, 0, 0]  # identical beams
    factors[1, 2] = 0.0  # a zero channel
    covs = CovarianceSet(0.05, factors)
    batched = mc_mutual_information(covs, MonteCarloSpec())
    for index in np.ndindex(3, 4):
        alone = mc_mutual_information(CovarianceSet(0.05, factors[index]), MonteCarloSpec())
        assert tuple(batched[index]) == alone, index

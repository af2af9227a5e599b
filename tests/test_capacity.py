"""Closed-form rate formulas against determinant and sampling oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from spimmwave import (
    ChannelRealization,
    CovarianceSet,
    DimensionError,
    MonteCarloSpec,
    ParameterError,
    asymptotic_covariances,
    build_abf,
    conditional_symbol_rate,
    covariances,
    dirichlet_gain,
    effective_channel,
    gamma_crossover,
    geometric_mean_threshold,
    hermitian_logdet,
    make_rng,
    mc_mutual_information,
    min_angle_separation,
    mmwave_rate,
    pattern_alphabet,
    sample_channel,
    spim_margin,
    spim_rate,
    two_path_margin,
    steering_vector,
    total_rate_approx,
)
from spimmwave.beamforming import large_array_beams
from spimmwave.capacity import _BLOCK, _overlap, _pair_logdets
from spimmwave.experiments import reproduce

from oracles import LOG2E, dense_covariances, pattern_rate_bound

RATE_GAP = LOG2E - 1.0  # per receive antenna, closes the bound's constant offset


def random_covariance_set(rng):
    k = int(rng.integers(1, 5))
    n_r = int(rng.integers(2, 9))
    n0 = float(rng.uniform(0.05, 2.0))
    factors = np.zeros((k, n_r, 2), dtype=complex)  # rank-one patterns zero-padded
    for i in range(k):
        rank = int(rng.integers(1, 3))
        factors[i, :, :rank] = rng.standard_normal((n_r, rank)) \
            + 1j * rng.standard_normal((n_r, rank))
    return CovarianceSet(n0=n0, factors=factors)


def dense_pair_logdets(covs):
    """Oracle: ln|S_n + S_t| by LU factorization of the dense covariance sums."""
    sig = dense_covariances(covs)
    return np.array([[np.linalg.slogdet(a + b)[1] for b in sig] for a in sig])


def dense_total_rate(covs):
    """Oracle: total_rate_approx restated on the dense determinants."""
    inner = logsumexp(-dense_pair_logdets(covs), axis=1)
    return float(np.log2(covs.k) - covs.n_r * np.log2(2.0 * covs.n0)
                 - np.mean(inner) / np.log(2.0))


@st.composite
def factor_sets(draw):
    """Ragged-rank factor sets: up to 4 patterns, n_r up to 512, rank 0..s per pattern."""
    k = draw(st.integers(1, 4))
    n_r = draw(st.integers(1, 512))
    s = draw(st.integers(1, 3))
    ranks = draw(st.lists(st.integers(0, s), min_size=k, max_size=k))
    n0 = draw(st.floats(0.01, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = np.zeros((k, n_r, s), dtype=complex)
    for i, rank in enumerate(ranks):
        power = draw(st.floats(0.0, 128.0))  # expected squared column norm
        cols = rng.standard_normal((n_r, rank)) + 1j * rng.standard_normal((n_r, rank))
        factors[i, :, :rank] = cols * np.sqrt(power / (2.0 * n_r))
    return CovarianceSet(n0=n0, factors=factors)


def test_covariances_zero_channel():
    covs = covariances(np.zeros((4, 2)), pattern_alphabet(2, 1), 0.3)
    for sigma in dense_covariances(covs):
        assert_allclose(sigma, 0.3 * np.eye(4), atol=1e-15)


def test_covariance_determinant_closed_form():
    # asymptotic rank-one beams give |S_k| = n0^n_r (1 + w_k g_k / n0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        n_r = int(rng.integers(2, 9))
        w = rng.uniform(0.05, 1.0)
        g = rng.uniform(8.0, 128.0)
        theta = rng.uniform(-0.5, 0.5)
        n0 = rng.uniform(0.05, 1.0)
        covs = asymptotic_covariances([w], [g], [theta], n_r, n0)
        expected = n0 ** n_r * (1.0 + w * g / n0)
        assert_allclose(np.exp(n_r * np.log(n0) + covs.cholesky[1][0]), expected, rtol=1e-10)


def test_covariance_set_bits_do_not_depend_on_layout():
    # beams laid out as the Monte-Carlo runner stacks them, (points, beams, n_r, 1) with
    # strides (256, 16, 32, 0); in that layout beam 0's Gram entry was one ulp off its
    # contiguous copy's, and so was the K=1 estimate
    theta = np.array([0.021812495732711434, 0.2175362118938841])
    beams = large_array_beams(np.array([0.9, 0.1]), 64.0, theta, 8) / math.sqrt(0.1)
    stacked = np.array([beams.T]).swapaxes(1, 2)
    spec = MonteCarloSpec(2000, seed=3)
    for strided in (stacked[:, :1, :, None], stacked[:, :, :, None]):
        a, b = CovarianceSet(1.0, strided), CovarianceSet(1.0, np.ascontiguousarray(strided))
        assert np.array_equal(a.gram, b.gram)
        assert np.array_equal(total_rate_approx(a), total_rate_approx(b))
        assert np.array_equal(mc_mutual_information(a, spec), mc_mutual_information(b, spec))


def test_covariances_rejects_bad_noise():
    with pytest.raises(ParameterError):
        covariances(np.zeros((4, 2)), pattern_alphabet(2, 1), 0.0)
    with pytest.raises(ParameterError):
        asymptotic_covariances([1.0], [64.0], [0.0], 8, -0.1)


NAN = float("nan")
INF = float("inf")
NAN_CALLS = {
    "mmwave_rate-n0": (lambda: mmwave_rate(0.6, 64, NAN), "n0"),
    "mmwave_rate-w1": (lambda: mmwave_rate(NAN, 64, 0.1), "w1"),
    "spim_rate-w": (lambda: spim_rate([NAN, 0.4], [64, 64], [-0.1, 0.1], 8, 0.1), "w"),
    "spim_rate-n0": (lambda: spim_rate([0.6, 0.4], [64, 64], [-0.1, 0.1], 8, NAN), "n0"),
    "CovarianceSet-n0": (lambda: CovarianceSet(NAN, np.ones((2, 8, 1))), "n0"),
    "asymptotic_covariances-w": (
        lambda: asymptotic_covariances([NAN], [64.0], [0.0], 8, 0.1), "w"),
    # the spim_margin cases keep the ids they had when it took a MarginQuery
    "MarginQuery-n0": (lambda: spim_margin(0.5, NAN, 64.0), "n0"),
    "MarginQuery-g1": (lambda: spim_margin(0.5, 0.1, NAN), "g1"),
    "geometric_mean_threshold-w": (
        lambda: geometric_mean_threshold([0.6, NAN], [64, 64], 0.1), "w"),
    "gamma_crossover-n0": (lambda: gamma_crossover(2, NAN, 64.0), "n0"),
    "gamma_crossover-m": (lambda: gamma_crossover(NAN, 0.1, 64.0), "m"),
    "two_path_margin-w2": (lambda: two_path_margin(0.9, NAN), "w2"),
    "ChannelRealization-gains": (
        lambda: ChannelRealization(64, 8, aod=[0.1], aoa=[0.1], gains=[NAN]), "gains"),
    "ChannelRealization-aoa": (
        lambda: ChannelRealization(64, 8, aod=[0.1], aoa=[NAN], gains=[1.0]), "aoa"),
    # infinities pass a bare `> 0` guard as well
    "spim_rate-w-inf": (lambda: spim_rate([INF, 0.4], [64, 64], [-0.1, 0.1], 8, 0.1), "w"),
    "spim_rate-g-inf": (lambda: spim_rate([0.6, 0.4], [64, INF], [-0.1, 0.1], 8, 0.1), "g"),
    "spim_rate-n0-inf": (lambda: spim_rate([0.6, 0.4], [64, 64], [-0.1, 0.1], 8, INF), "n0"),
    "spim_rate-single-n0-inf": (lambda: spim_rate([0.6], [64], [0.1], 8, INF), "n0"),
    "mmwave_rate-n0-inf": (lambda: mmwave_rate(0.6, 64, INF), "n0"),
    "mmwave_rate-g1-inf": (lambda: mmwave_rate(0.6, INF, 0.1), "g1"),
    "mmwave_rate-w1-neg-inf": (lambda: mmwave_rate(-INF, 64, 0.1), "w1"),
    "CovarianceSet-n0-inf": (lambda: CovarianceSet(INF, np.ones((2, 8, 1))), "n0"),
    "covariances-eff-inf": (
        lambda: covariances(np.full((8, 2), INF), pattern_alphabet(2, 1), 0.1), "eff"),
    "asymptotic_covariances-w-inf": (
        lambda: asymptotic_covariances([INF], [64.0], [0.0], 8, 0.1), "w"),
    "asymptotic_covariances-n0-inf": (
        lambda: asymptotic_covariances([0.5], [64.0], [0.0], 8, INF), "n0"),
    "MarginQuery-n0-inf": (lambda: spim_margin(0.5, INF, 64.0), "n0"),
    "MarginQuery-g1-inf": (lambda: spim_margin(0.5, 0.1, INF), "g1"),
    "MarginQuery-b_max-inf": (lambda: spim_margin(0.5, 0.1, 64.0, INF), "b_max"),
    "geometric_mean_threshold-n0-inf": (
        lambda: geometric_mean_threshold([0.6, 0.4], [64, 64], INF), "n0"),
    "geometric_mean_threshold-w-inf": (
        lambda: geometric_mean_threshold([INF, 0.4], [64, 64], 0.1), "w"),
    "gamma_crossover-n0-inf": (lambda: gamma_crossover(2, INF, 64.0), "n0"),
    "gamma_crossover-g1-inf": (lambda: gamma_crossover(2, 0.1, INF), "g1"),
    "gamma_crossover-m-inf": (lambda: gamma_crossover(INF, 0.1, 64.0), "m"),
    "two_path_margin-w1-inf": (lambda: two_path_margin(INF, 0.1), "w1"),
    "ChannelRealization-gains-inf": (
        lambda: ChannelRealization(64, 8, aod=[0.1], aoa=[0.1], gains=[INF]), "gains"),
    "dirichlet_gain-delta_theta": (lambda: dirichlet_gain(NAN, 8), "delta_theta"),
    "dirichlet_gain-delta_theta-inf": (lambda: dirichlet_gain(INF, 8), "delta_theta"),
    "spim_rate-theta": (lambda: spim_rate([0.5, 0.5], [64, 64], [0.1, NAN], 8, 0.1), "theta"),
    "spim_rate-single-theta": (lambda: spim_rate([0.5], [64], [NAN], 8, 0.1), "theta"),
    "steering_vector-angle": (lambda: steering_vector(NAN, 4), "angle"),
    # the Gram matrix of the factors is where both the closed forms and the oracle check them
    "total_rate_approx-factors": (
        lambda: total_rate_approx(CovarianceSet(0.1, np.full((2, 8, 1), NAN))), "factors"),
    "mc_mutual_information-factors-inf": (  # one infinite entry per pattern
        lambda: mc_mutual_information(
            CovarianceSet(0.1, np.where(np.eye(2, 8)[..., None], INF, 1.0)), MonteCarloSpec()),
        "factors"),
    "mc_mutual_information-factors-overflow": (
        lambda: mc_mutual_information(CovarianceSet(0.1, np.full((2, 8, 1), 1e200)),
                                      MonteCarloSpec()), "factors"),
    "mc_mutual_information-n0-tiny": (
        lambda: mc_mutual_information(CovarianceSet(1e-160, np.ones((2, 8, 1))),
                                      MonteCarloSpec()), "n0"),
    # the same range check on W^H W / n0 guards the closed forms
    "total_rate_approx-n0-tiny": (
        lambda: total_rate_approx(CovarianceSet(1e-160, np.ones((2, 8, 1)))), "n0"),
    # w1 g1 / n0 overflows at a subnormal noise floor
    "mmwave_rate-n0-subnormal": (lambda: mmwave_rate(0.6, 64, 1e-320), "n0"),
    "spim_rate-single-n0-subnormal": (lambda: spim_rate([0.6], [64], [0.1], 8, 1e-320), "n0"),
    # each gain is checked on its own: two negative gains have a positive product
    "asymptotic_covariances-w-and-g-negative": (
        lambda: asymptotic_covariances([-0.5], [-64.0], [0.1], 8, 0.1), "w"),
    "asymptotic_covariances-g-negative": (
        lambda: asymptotic_covariances([0.5], [-64.0], [0.1], 8, 0.1), "g"),
    # one check covers the whole gamma sequence
    "spim_margin-gamma-sequence": (lambda: spim_margin([0.5, 1.5], 0.1, 64.0), "gamma"),
    "pattern_alphabet-n_s": (lambda: pattern_alphabet(2, 3), "n_s"),
    "effective_channel-mode": (
        lambda: effective_channel(sample_channel(make_rng(0), 64, 8, 2, gains=[1, 1]),
                                  np.ones((64, 2)), "bad"), "mode"),
    "hermitian_logdet-m": (lambda: hermitian_logdet(np.array([[1.0, 2.0], [0.0, 1.0]])), "m"),
    "reproduce-preset": (lambda: reproduce("nope", "unused"), "preset"),
    # an integer beam count beyond the float range fails by name, not as an OverflowError
    "gamma_crossover-m-huge-int": (lambda: gamma_crossover(10**400, 0.1, 64.0), "m"),
    # a set holds one noise level: an array n0 fails at construction, not in every consumer
    "CovarianceSet-n0-array": (lambda: CovarianceSet(np.array([0.1, 0.2]), np.ones((2, 8, 1))),
                               "n0"),
    "covariances-n0-array": (
        lambda: covariances(np.ones((8, 2)), pattern_alphabet(2, 1), np.array([0.1, 0.2])), "n0"),
    "asymptotic_covariances-n0-array": (
        lambda: asymptotic_covariances([0.5], [64.0], [0.0], 8, np.array([0.1, 0.2])), "n0"),
    "sample_channel-gains-scalar": (
        lambda: sample_channel(make_rng(0), 64, 8, 1, gains=0.6), "gains"),
    # a value that is not real numbers fails by name, not as a raw numpy error: a string, a
    # ragged list, a complex value, None, or an integer beyond the float range in a list
    "spim_margin-gamma-str": (lambda: spim_margin("a", 0.1, 64.0), "gamma"),
    "spim_margin-gamma-ragged": (lambda: spim_margin([[0.5, 0.6], [0.5]], 0.1, 64.0), "gamma"),
    "mmwave_rate-n0-str": (lambda: mmwave_rate(0.5, 64, "0.1"), "n0"),
    "mmwave_rate-w1-complex": (lambda: mmwave_rate(0.5 + 1j, 64, 0.1), "w1"),
    "mmwave_rate-w1-none": (lambda: mmwave_rate(None, 64, 0.1), "w1"),
    "mmwave_rate-w1-huge-int-list": (lambda: mmwave_rate([10**400], 64, 0.1), "w1"),
    "spim_rate-w-ragged": (
        lambda: spim_rate([0.5, [0.4]], [64, 64], [0.1, 0.2], 8, 0.1), "w"),
    "steering_vector-angle-str": (lambda: steering_vector("a", 4), "angle"),
    "geometric_mean_threshold-w-str": (
        lambda: geometric_mean_threshold(["a", 0.4], [64, 64], 0.1), "w"),
    "geometric_mean_threshold-g-ragged": (
        lambda: geometric_mean_threshold([0.6, 0.4], [64, [64]], 0.1), "g"),
    "ChannelRealization-gains-str": (
        lambda: ChannelRealization(64, 8, aod=[0.1], aoa=[0.1], gains=["a"]), "gains"),
    "sample_channel-gains-str": (
        lambda: sample_channel(make_rng(0), 64, 8, 1, gains=["a"]), "gains"),
    # an object array (a pandas object column, say) is not parsed: its string fails too
    "mmwave_rate-w1-object-str": (lambda: mmwave_rate(np.array(["0.5"], dtype=object), 64, 0.1),
                                  "w1"),
    # the condition functions other than spim_margin take single numbers, checked by name
    "gamma_crossover-n0-array": (lambda: gamma_crossover(2, np.array([0.1, 0.2]), 64.0), "n0"),
    "gamma_crossover-m-array": (lambda: gamma_crossover(np.array([2, 3]), 0.1, 64.0), "m"),
    "geometric_mean_threshold-n0-array": (
        lambda: geometric_mean_threshold([0.6, 0.4], [64, 64], np.array([0.1, 0.2])), "n0"),
    "two_path_margin-w2-array": (lambda: two_path_margin(0.9, np.array([0.1, 0.2])), "w2"),
    "spim_margin-g1-array": (
        lambda: spim_margin([0.5, 0.6, 0.7], 0.1, np.array([64.0, 2.0])), "g1"),
    # a Python int beyond the float range is read as a float once, where it is checked, so it
    # fails by name there instead of as an OverflowError at a later cast; counts too
    "mmwave_rate-w1-huge-int": (lambda: mmwave_rate(10**400, 64, 0.1), "w1"),
    "mmwave_rate-g1-huge-int": (lambda: mmwave_rate(0.5, 10**400, 0.1), "g1"),
    "spim_rate-n0-huge-int": (lambda: spim_rate([0.5], [64], [0.1], 8, 10**400), "n0"),
    "spim_margin-g1-huge-int": (lambda: spim_margin(0.5, 0.1, 10**400), "g1"),
    "gamma_crossover-n0-huge-int": (lambda: gamma_crossover(2, 10**400, 64.0), "n0"),
    "gamma_crossover-g1-huge-int": (lambda: gamma_crossover(2, 0.1, 10**400), "g1"),
    "geometric_mean_threshold-n0-huge-int": (
        lambda: geometric_mean_threshold([0.6, 0.4], [64, 64], 10**400), "n0"),
    "dirichlet_gain-delta_theta-huge-int": (lambda: dirichlet_gain(10**400, 8), "delta_theta"),
    "two_path_margin-w1-huge-int": (lambda: two_path_margin(10**400, 0.1), "w1"),
    "min_angle_separation-n_tx-huge-int": (lambda: min_angle_separation(10**400, 8), "n_tx"),
    "steering_vector-n-huge-int": (lambda: steering_vector(0.1, 10**400), "n"),
    # the threshold test takes one row of path gains, and g of the same shape
    "geometric_mean_threshold-w-2d": (
        lambda: geometric_mean_threshold([[0.6, 0.4], [0.5, 0.3]], [[64, 64], [64, 64]], 0.1),
        "w"),
    "geometric_mean_threshold-g-2d": (
        lambda: geometric_mean_threshold([0.6, 0.4], [[64, 64], [64, 64]], 0.1), "g"),
}


@pytest.mark.parametrize("call, name", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_argument_raises_named_parameter_error(call, name):
    with pytest.raises(ParameterError, match=rf"\b{name}\b") as info:
        call()
    assert info.value.field == name


FLOAT_COUNTS = {
    "ChannelRealization-n_tx": (
        lambda: ChannelRealization(64.5, 8, aod=[0.1], aoa=[0.1], gains=[1.0]), "n_tx"),
    "ChannelRealization-n_rx": (
        lambda: ChannelRealization(64, 8.0, aod=[0.1], aoa=[0.1], gains=[1.0]), "n_rx"),
    "ChannelRealization-n_rx-zero": (
        lambda: ChannelRealization(64, 0, aod=[0.1], aoa=[0.1], gains=[1.0]), "n_rx"),
    "MonteCarloSpec-n_samples": (lambda: MonteCarloSpec(n_samples=2000.5), "n_samples"),
    "MonteCarloSpec-seed": (lambda: MonteCarloSpec(seed=1.5), "seed"),
    "MonteCarloSpec-bool": (lambda: MonteCarloSpec(seed=True), "seed"),
    "dirichlet_gain-n_r": (lambda: dirichlet_gain(0.3, 2.5), "n_r"),
    "pattern_alphabet-m": (lambda: pattern_alphabet(2.5, 1), "m"),
    "sample_channel-n_paths": (
        lambda: sample_channel(make_rng(0), 64, 8, 2.0, gains=[1, 1]), "n_paths"),
    "sample_channel-bool": (lambda: sample_channel(make_rng(0), 64, 8, True, gains=[1]), "n_paths"),
    "build_abf-m": (
        lambda: build_abf(sample_channel(make_rng(0), 64, 8, 2, gains=[1, 1]), 1.5), "m"),
    # receive-array sizes are integers >= 1 under their own name; True would pass as 1
    "spim_rate-n_r": (lambda: spim_rate([0.6, 0.4], [64, 64], [0.1, 0.2], 2.5, 0.1), "n_r"),
    "spim_rate-n_r-bool": (
        lambda: spim_rate([0.6, 0.4], [64, 64], [0.1, 0.2], True, 0.1), "n_r"),
    "spim_rate-n_r-zero": (lambda: spim_rate([0.6, 0.4], [64, 64], [0.1, 0.2], 0, 0.1), "n_r"),
    "asymptotic_covariances-n_r": (
        lambda: asymptotic_covariances([0.6], [64.0], [0.1], 2.5, 0.1), "n_r"),
    "asymptotic_covariances-n_r-bool": (
        lambda: asymptotic_covariances([0.6], [64.0], [0.1], True, 0.1), "n_r"),
    "asymptotic_covariances-n_r-zero": (
        lambda: asymptotic_covariances([0.6], [64.0], [0.1], 0, 0.1), "n_r"),
    "steering_vector-n": (lambda: steering_vector(0.1, 2.5), "n"),
    "steering_vector-n-bool": (lambda: steering_vector(0.1, True), "n"),
    "steering_vector-n-zero": (lambda: steering_vector(0.1, 0), "n"),
    "dirichlet_gain-n_r-bool": (lambda: dirichlet_gain(0.3, True), "n_r"),
    "dirichlet_gain-n_r-zero": (lambda: dirichlet_gain(0.3, 0), "n_r"),
    "min_angle_separation-n_tx-zero": (lambda: min_angle_separation(0, 0), "n_tx"),
    "min_angle_separation-n_tx-negative": (lambda: min_angle_separation(-1, 8), "n_tx"),
    "min_angle_separation-n_tx-float": (lambda: min_angle_separation(0.5, 1), "n_tx"),
    "min_angle_separation-n_rx-zero": (lambda: min_angle_separation(8, 0), "n_rx"),
    "make_rng-seed-float": (lambda: make_rng(1.5), "seed"),
    "make_rng-seed-str": (lambda: make_rng("a"), "seed"),
    "make_rng-stream-float": (lambda: make_rng(0, 2.5), "stream"),
}


@pytest.mark.parametrize("call, name", FLOAT_COUNTS.values(), ids=FLOAT_COUNTS.keys())
def test_non_integer_count_raises_named_parameter_error(call, name):
    with pytest.raises(ParameterError, match=rf"\b{name}\b") as info:
        call()
    assert info.value.field == name


def test_empty_noise_batch_gives_empty_rates():
    # an empty batch of noise levels is scored like any other batch: no rates, not an error
    assert mmwave_rate(0.6, 64.0, []).shape == (0,)
    assert spim_rate([0.6, 0.4], [64.0, 64.0], [0.1, -0.1], 8, []).shape == (0,)
    assert spim_rate([0.6], [64.0], [0.1], 8, np.zeros((0, 3))).shape == (0, 3)


def test_mismatched_path_counts_raise_dimension_error():
    for w, g, theta in (([0.5, 0.4], [64, 64, 64], [0.1, -0.1, 0.2]),
                        ([0.5, 0.4, 0.1], [64, 64], [0.1, -0.1]),
                        (np.full((2, 2), 0.5), [64, 64], np.zeros((3, 2))),
                        ([], [], [])):
        for call in (spim_rate, asymptotic_covariances):
            with pytest.raises(DimensionError):
                call(w, g, theta, 8, 0.1)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_batched_rates_equal_per_row_calls(m):
    # a (trials, m) batch is each row's own call, to the bit
    rng = np.random.default_rng(m)
    w = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
    g = np.full(m, 64.0)
    theta = rng.uniform(-0.5, 0.5, (7, m))
    batched = spim_rate(w, g, theta, 8, 0.1)
    assert batched.shape == (7,)
    assert np.array_equal(batched, [spim_rate(w, g, row, 8, 0.1) for row in theta])
    covs = asymptotic_covariances(w, g, theta, 16, 0.3)
    assert np.array_equal(total_rate_approx(covs), [
        total_rate_approx(asymptotic_covariances(w, g, row, 16, 0.3)) for row in theta])
    assert isinstance(spim_rate(w, g, theta[0], 8, 0.1), float)


def _decay_grid(m, points=19):
    """(points, 1, m) decaying gains, the paper's 19-point gamma grid by default; (30, m) angles."""
    w = np.array([gamma ** np.arange(m) for gamma in np.linspace(0.05, 0.95, points)])
    return w[:, None, :], make_rng(5, m).uniform(-0.5, 0.5, (30, m))


def _block_points(m):
    """Grid points of 30 trials that one spim_rate block holds: whole rows within _BLOCK entries."""
    return max(1, _BLOCK // (30 * m * m))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_grid_rates_equal_per_point_calls(m):
    # a (19, 30, m) batch is scored in blocks of whole points; each grid point is its own call
    w, theta = _decay_grid(m)
    g = np.full(m, 64.0)
    batched = spim_rate(w, g, theta, 8, 0.1)
    assert batched.shape == (19, 30)
    assert np.array_equal(batched, [spim_rate(row[0], g, theta, 8, 0.1) for row in w])


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_per_point_noise_equals_per_point_calls(m):
    # a (19, 1) n0 gives each grid point its own noise level; each point is its own call
    w, theta = _decay_grid(m)
    g = np.full(m, 64.0)
    n0 = np.logspace(-3, 1, 19)
    batched = spim_rate(w, g, theta, 8, n0[:, None])
    assert np.array_equal(batched, [spim_rate(row[0], g, theta, 8, level)
                                    for row, level in zip(w, n0)])
    # one gain row shared by every point, as an snr sweep has it
    shared = spim_rate(w[:1], g, theta, 8, n0[:, None])
    assert np.array_equal(shared, [spim_rate(w[0, 0], g, theta, 8, level) for level in n0])
    assert np.array_equal(spim_rate(w[0, 0], g, theta[0], 8, n0),
                          [spim_rate(w[0, 0], g, theta[0], 8, level) for level in n0])
    w1 = w[:, 0, 0]
    assert np.array_equal(mmwave_rate(w1, 64.0, n0),
                          [mmwave_rate(a, 64.0, level) for a, level in zip(w1, n0)])
    assert np.array_equal(mmwave_rate(0.6, 64.0, n0), [mmwave_rate(0.6, 64.0, x) for x in n0])


@pytest.mark.parametrize("bad", [0.0, -1.0, NAN, INF])
def test_per_point_noise_out_of_domain_anywhere_fails_naming_n0(bad):
    n0 = np.array([[0.1], [bad], [0.2]])
    theta = np.array([[-0.1, 0.1], [0.0, 0.3]])
    with pytest.raises(ParameterError, match=r"\bn0\b") as info:
        spim_rate([0.6, 0.4], [64.0, 64.0], theta, 8, n0)
    assert info.value.field == "n0"
    with pytest.raises(ParameterError, match=r"\bn0\b") as info:
        mmwave_rate([0.6, 0.7, 0.8], 64.0, n0[:, 0])
    assert info.value.field == "n0"


def test_per_point_noise_overflow_names_the_failing_scalar_in_one_line():
    n0 = np.array([0.1, 1e-320, 1e-321, 0.2])
    theta = np.array([[-0.1, 0.1], [0.0, 0.3]])
    calls = (lambda: spim_rate([0.6, 0.4], [64.0, 64.0], theta, 8, n0[:, None]),
             lambda: mmwave_rate(0.6, 64.0, n0))
    for call in calls:
        with pytest.raises(ParameterError) as info:
            call()
        message = str(info.value)
        assert info.value.field == "n0"
        assert message.startswith("n0 = 1e-320 is too small") and "\n" not in message, message
    # a noise level per point that does not broadcast against the batch fails by name
    with pytest.raises(DimensionError, match=r"\bn0\b"):
        spim_rate([0.6, 0.4], [64.0, 64.0], theta, 8, np.full(3, 0.1))
    with pytest.raises(DimensionError, match=r"\bn0\b"):
        mmwave_rate([0.6, 0.7], 64.0, np.full(3, 0.1))


def _grid_peaks(m, n_r, grids, moving):
    """tracemalloc peaks of spim_rate on (points, 1, m) decay grids, one per entry of grids.

    A grid of one point passes its gains unbatched; moving angles give every
    grid point its own copy of the (30, m) angles.
    """
    g = np.full(m, 64.0)
    peaks = []
    for points in grids:
        w, theta = _decay_grid(m, points)
        gains = w[0, 0] if points == 1 else w
        angles = np.broadcast_to(theta, (points, 30, m)).copy() if moving else theta
        tracemalloc.start()
        try:
            spim_rate(gains, g, angles, n_r, 0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("n_r", [8, 64])
@pytest.mark.parametrize("m", [2, 8, 64])
def test_grid_memory_stays_that_of_one_point(m, n_r):
    # memory is that of one block: a grid at least five blocks and 19 points wide peaks as
    # one block's worth of points does. The returned rates grow with the grid, a quarter of
    # a block's entries per block at m = 2; at m = 64 one point exceeds a block and is a
    # block alone, so the grid peaks as one unbatched point does
    per = _block_points(m)
    peaks = _grid_peaks(m, n_r, (per, max(19, 5 * per)), moving=False)
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("m", [1, 2, 8])
def test_grid_varying_angles_equal_per_point_calls(m):
    # a theta that moves along the grid has its gaps taken block by block, and so does a
    # theta broadcast along one batch axis but moving along another
    w, _ = _decay_grid(m)
    g = np.full(m, 64.0)
    theta = make_rng(6, m).uniform(-0.5, 0.5, (19, 30, m))
    batched = spim_rate(w, g, theta, 8, 0.1)
    assert np.array_equal(batched, [spim_rate(row[0], g, angles, 8, 0.1)
                                    for row, angles in zip(w, theta)])
    mixed = spim_rate(w[:, None], g, theta[:3], 8, 0.1)  # (19, 3, 30): theta moves last
    assert np.array_equal(mixed, [[spim_rate(row[0], g, angles, 8, 0.1) for angles in theta[:3]]
                                  for row in w])


@pytest.mark.parametrize("n_r", [8, 64])
@pytest.mark.parametrize("m", [2, 8, 64])
def test_grid_memory_with_grid_varying_angles_stays_that_of_one_point(m, n_r):
    # as above, with every grid point holding its own angles: the gaps are taken block by block
    per = _block_points(m)
    peaks = _grid_peaks(m, n_r, (per, max(19, 5 * per)), moving=True)
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("m", [2, 8, 64])
def test_rates_across_block_boundaries_equal_per_point_calls(m):
    # two full blocks and a short one (8 + 8 + 3 points at m = 8); at m = 64 a point
    # exceeds a block and is scored alone
    points = 2 * _block_points(m) + 3
    w, theta = _decay_grid(m, points)
    g = np.full(m, 64.0)
    moving = make_rng(6, m).uniform(-0.5, 0.5, (points, 30, m))
    assert np.array_equal(spim_rate(w, g, theta, 8, 0.1),
                          [spim_rate(row[0], g, theta, 8, 0.1) for row in w])
    assert np.array_equal(spim_rate(w, g, moving, 8, 0.1),
                          [spim_rate(row[0], g, angles, 8, 0.1) for row, angles in zip(w, moving)])
    # two leading batch axes, (2, points, 30): at m = 2 and 8 the block holding the first
    # noise level's last points runs on into the second level's
    n0 = np.array([0.1, 0.3])[:, None, None]
    for angles in (theta, moving):
        batched = spim_rate(w, g, angles, 8, n0)
        assert batched.shape == (2, points, 30)
        angles = np.broadcast_to(angles, moving.shape)
        assert np.array_equal(batched, [[spim_rate(row[0], g, angles[p], 8, level)
                                         for p, row in enumerate(w)] for level in n0[:, 0, 0]])


@pytest.mark.parametrize("m", [2, 8])
def test_overflow_in_a_later_block_names_the_first_bad_level_in_one_line(m):
    per = _block_points(m)
    points = 2 * per + 3
    w, theta = _decay_grid(m, points)
    n0 = np.full(points, 0.1)
    n0[per + 1], n0[-1] = 1e-320, 1e-321  # the first bad level sits in the second block
    with pytest.raises(ParameterError) as info:
        spim_rate(w, np.full(m, 64.0), theta, 8, n0[:, None])
    message = str(info.value)
    assert info.value.field == "n0"
    assert message.startswith("n0 = 1e-320 is too small") and "\n" not in message, message


def test_symbol_rate_zero_channel():
    covs = covariances(np.zeros((8, 2)), pattern_alphabet(2, 1), 0.5)
    assert conditional_symbol_rate(covs) == pytest.approx(0.0, abs=1e-12)


def test_symbol_rate_single_pattern():
    covs = asymptotic_covariances([0.4], [16.0], [0.1], 6, 0.2)
    assert conditional_symbol_rate(covs) == pytest.approx(np.log2(1 + 0.4 * 16 / 0.2), rel=1e-12)


def test_symbol_rate_two_pattern_average():
    w, g, n0 = [0.9, 0.1], [64.0, 64.0], 0.1
    covs = asymptotic_covariances(w, g, [-0.2, 0.2], 8, n0)
    expected = 0.5 * sum(np.log2(1 + wi * gi / n0) for wi, gi in zip(w, g))
    assert conditional_symbol_rate(covs) == pytest.approx(expected, rel=1e-10)


def test_pattern_bound_single_pattern():
    covs = asymptotic_covariances([0.5], [32.0], [0.0], 8, 0.25)
    # log2 K = 0 and |2S| = 2^n_r |S|, leaving n_r (1 - log2 e)
    assert pattern_rate_bound(covs) == pytest.approx(8 * (1 - LOG2E), rel=1e-12)


def test_pattern_bound_identical_patterns():
    beam = asymptotic_covariances([0.5], [32.0], [0.1], 6, 0.2).factors[0]
    covs = CovarianceSet(n0=0.2, factors=np.stack([beam, beam]))
    assert pattern_rate_bound(covs) == pytest.approx(6 * (1 - LOG2E), rel=1e-12)


def test_pattern_bound_saturates_at_alphabet_size():
    # distinguishable high-SNR patterns: bound + n_r (log2e - 1) -> log2 K
    covs = asymptotic_covariances([1.0, 1.0], [64.0, 64.0], [-0.25, 0.25], 8, 1e-4)
    assert pattern_rate_bound(covs) + 8 * RATE_GAP == pytest.approx(1.0, abs=0.05)


def test_two_formulation_identity():
    # total approximation = symbol term + pattern bound + n_r (log2 e - 1)
    rng = np.random.default_rng(42)
    for _ in range(300):
        covs = random_covariance_set(rng)
        lhs = total_rate_approx(covs)
        rhs = conditional_symbol_rate(covs) + pattern_rate_bound(covs) + covs.n_r * RATE_GAP
        assert_allclose(lhs, rhs, rtol=1e-9)


def test_total_rate_single_pattern_reduces_to_shannon():
    covs = asymptotic_covariances([0.7], [48.0], [0.2], 5, 0.3)
    assert total_rate_approx(covs) == pytest.approx(np.log2(1 + 0.7 * 48 / 0.3), rel=1e-10)


def test_spatial_information_cap():
    # the pattern term can never add more than log2 K bits
    rng = np.random.default_rng(13)
    for _ in range(200):
        covs = random_covariance_set(rng)
        extra = total_rate_approx(covs) - conditional_symbol_rate(covs)
        assert extra <= np.log2(covs.k) + 1e-9


def test_symbol_rate_never_beats_single_best_beam():
    # averaging over a weaker beam always costs symbol-domain rate
    rng = np.random.default_rng(3)
    for _ in range(100):
        w2 = rng.uniform(0.01, 1.0)
        w1 = rng.uniform(w2, 1.0)
        n0 = rng.uniform(0.05, 2.0)
        g = rng.uniform(8, 128)
        avg = 0.5 * (np.log2(1 + w1 * g / n0) + np.log2(1 + w2 * g / n0))
        assert avg <= np.log2(1 + w1 * g / n0) + 1e-12


def test_mmwave_rate_values():
    assert mmwave_rate(0.0, 64.0, 0.1) == 0.0
    assert mmwave_rate(0.9, 64.0, 0.1) == pytest.approx(np.log2(577.0), rel=1e-12)
    assert mmwave_rate(0.95, 64.0, 0.1) > mmwave_rate(0.9, 64.0, 0.1)
    assert mmwave_rate(0.9, 64.0, 0.05) > mmwave_rate(0.9, 64.0, 0.1)
    with pytest.raises(ParameterError):
        mmwave_rate(0.9, 64.0, 0.0)


def test_dirichlet_gain_values():
    assert dirichlet_gain(0.0, 8) == 1.0
    assert dirichlet_gain(1 / 8, 8) == pytest.approx(0.0, abs=1e-12)
    assert dirichlet_gain(0.5, 2) == pytest.approx(0.0, abs=1e-12)
    assert dirichlet_gain(1.0, 4) == 1.0  # periodic limit
    assert dirichlet_gain(-0.3, 8) == dirichlet_gain(0.3, 8)
    with pytest.raises(ParameterError):
        dirichlet_gain(0.1, 0)


@pytest.mark.parametrize("n_r", [2, 8, 64])
def test_dirichlet_gain_near_its_peak_follows_its_series(n_r):
    # q = 1 - pi^2 d^2 (n^2 - 1) / 3 + pi^4 d^4 (n^2 - 1)(2 n^2 - 3) / 45 - O(d^6); a fixed
    # cut that returned 1.0 below |d| = 1e-9 was 1.09e-14 off at n = 64, d = 9e-10
    for d in (1e-12, 1e-10, 9e-10, -9e-10, 3e-9, 1e-8, 1e-7, -1e-6, 1e-6):
        x2, n2 = (math.pi * d) ** 2, n_r * n_r
        series = 1.0 - x2 * (n2 - 1) / 3.0 + x2 * x2 * (n2 - 1) * (2 * n2 - 3) / 45.0
        assert abs(dirichlet_gain(d, n_r) - series) <= 1e-15, d


@pytest.mark.parametrize("n_r", [2, 8, 64])
def test_overlap_gap_follows_its_series(n_r):
    # 1 - q = x^2 (n^2 - 1) / 3 (1 - x^2 (2 n^2 - 3) / 15 + x^4 (n^2 - 2)(3 n^2 - 5) / 315)
    # + O(x^8), x = pi d; its first two terms alone are 1.6e-9 off at n = 64, d = 1e-4
    d = np.logspace(-12, -4, 81)
    x2, n2 = (math.pi * d) ** 2, n_r * n_r
    series = x2 * (n2 - 1) / 3 * (1 - x2 * (2 * n2 - 3) / 15
                                  + x2 * x2 * (n2 - 2) * (3 * n2 - 5) / 315)
    for sign in (1.0, -1.0):
        q, gap = _overlap(sign * d, n_r)
        assert np.abs(gap / series - 1.0).max() <= 1e-13
        assert np.array_equal(q, 1.0 - gap)
    # whole distances are the peak itself: no gap at all
    q, gap = _overlap(np.array([0.0, -0.0, 1.0, -3.0]), n_r)
    assert np.all(gap == 0.0) and np.all(q == 1.0)


@pytest.mark.parametrize("n_r", [1, 2, 8, 64])
def test_dirichlet_gain_on_an_array_equals_scalar_calls(n_r):
    # an array of distances, whole ones and near-peak ones among them, is its scalar calls
    d = np.concatenate([np.random.default_rng(n_r).uniform(-2.0, 2.0, 42),
                        [0.0, -0.0, 1.0, -3.0, 1e-12, 0.5 - 1e-13, 1.0 / n_r]])
    for shape in (d.shape, (d.size // 7, 7)):
        gains = dirichlet_gain(d.reshape(shape), n_r)
        assert isinstance(gains, np.ndarray) and gains.shape == shape
        assert np.array_equal(gains.ravel(), [dirichlet_gain(float(x), n_r) for x in d])
    assert isinstance(dirichlet_gain(np.float64(0.3), n_r), float)
    with pytest.raises(ParameterError, match=r"\bdelta_theta\b") as info:
        dirichlet_gain(np.array([0.1, NAN, 0.2]), n_r)
    assert info.value.field == "delta_theta"


def test_dirichlet_gain_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(500):
        value = dirichlet_gain(rng.uniform(-1, 1), int(rng.integers(1, 17)))
        assert 0.0 <= value <= 1.0


def test_dirichlet_matches_steering_inner_product():
    # closed form for |a(t1)^H a(t2)|^2 against the direct summation oracle
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n_r = int(rng.integers(2, 17))
        t1, t2 = rng.uniform(-0.5, 0.5, 2)
        direct = abs(np.vdot(steering_vector(t1, n_r), steering_vector(t2, n_r))) ** 2
        assert_allclose(dirichlet_gain(t1 - t2, n_r), direct, rtol=1e-10, atol=1e-12)


def test_pair_determinant_doubling_identity():
    # same beam twice: |S + S| = 2^n_r |S|
    w, g, theta, n_r, n0 = 0.6, 50.0, 0.12, 8, 0.2
    covs = asymptotic_covariances([w, w], [g, g], [theta, theta], n_r, n0)
    expected = n_r * np.log(2.0) + n_r * np.log(n0) + np.log1p(w * g / n0)
    assert np.all(np.abs(np.expm1(_pair_logdets(covs) - expected)) <= 1e-10)


def test_pair_determinant_orthogonal_beams():
    # receive-orthogonal beams factor into the product form; the diagonal is ln|2 S_n|,
    # also where w g / N0 > 2^53 would make a self pair [G_n, G_n] singular to rounding
    n_r = 8
    w = np.array([0.7, 0.2])
    g = np.array([64.0, 64.0])
    for n0 in (0.25, 1e-8, 1e-14, 1e-20):
        pair = _pair_logdets(asymptotic_covariances(w, g, [0.0, 2 / n_r], n_r, n0))
        own = np.log1p(w * g / n0)
        cross = np.sum(np.log1p(w * g / (2 * n0)))
        expected = n_r * np.log(2 * n0) + np.array([[own[0], cross], [cross, own[1]]])
        assert np.abs(np.expm1(pair - expected)).max() <= 1e-12, n0
        assert np.array_equal(pair, pair.T)


def test_symbol_rate_exact_channel_at_tiny_noise():
    # ln|S_k / N0| of a rank-one pattern is log1p(|h_k|^2 / N0) down to n0 = 1e-14,
    # where reading it off the self pair was 0.085 bits off
    chan = sample_channel(make_rng(4), 64, 8, 2, gains=[0.6, 0.4])
    eff = effective_channel(chan, build_abf(chan, 2), "exact")
    n0 = 1e-14
    covs = covariances(eff, pattern_alphabet(2, 1), n0)
    expected = np.mean(np.log2(1 + np.sum(np.abs(eff) ** 2, axis=0) / n0))
    assert abs(conditional_symbol_rate(covs) - expected) <= 1e-12


def test_pair_determinant_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n_r = int(rng.integers(2, 9))
        w = rng.uniform(0.05, 1.0, 2)
        g = rng.uniform(8.0, 128.0, 2)
        theta = rng.uniform(-0.5, 0.5, 2)
        n0 = rng.uniform(0.05, 1.0)
        covs = asymptotic_covariances(w, g, theta, n_r, n0)
        brute = np.linalg.slogdet(dense_covariances(covs).sum(axis=0))[1]
        assert abs(np.expm1(_pair_logdets(covs)[0, 1] - brute)) <= 1e-10


@settings(max_examples=60)
@given(factor_sets())
def test_kernel_matches_dense_oracle(covs):
    assert_allclose(_pair_logdets(covs), dense_pair_logdets(covs), rtol=0.0, atol=1e-9)
    dense = np.array([np.linalg.slogdet(s)[1] for s in dense_covariances(covs)])
    assert_allclose(covs.n_r * np.log(covs.n0) + covs.cholesky[1], dense, rtol=0.0, atol=1e-9)
    assert total_rate_approx(covs) == pytest.approx(dense_total_rate(covs), abs=1e-9)


@given(factor_sets(), st.floats(1.0, 100.0))
def test_rate_never_rises_with_noise(covs, factor):
    # each |I + (G_n G_n^H + G_t G_t^H) / 2N0| falls as N0 grows
    quiet = total_rate_approx(covs)
    noisy = total_rate_approx(CovarianceSet(n0=covs.n0 * factor, factors=covs.factors))
    assert noisy <= quiet + 1e-12 * max(abs(quiet), 1.0)


@given(factor_sets(), st.randoms(use_true_random=False))
def test_kernel_invariant_under_pattern_permutation(covs, random):
    perm = np.array(random.sample(range(covs.k), covs.k))
    shuffled = CovarianceSet(n0=covs.n0, factors=covs.factors[perm])
    assert_allclose(_pair_logdets(shuffled), _pair_logdets(covs)[np.ix_(perm, perm)],
                    rtol=1e-12, atol=1e-10)
    for rate in (total_rate_approx, conditional_symbol_rate, pattern_rate_bound):
        assert rate(shuffled) == pytest.approx(rate(covs), rel=1e-12, abs=1e-10)


@given(st.floats(1e-3, 1.0), st.floats(1.0, 128.0), st.floats(-0.5, 0.5),
       st.integers(1, 512), st.floats(1e-3, 10.0))
def test_single_beam_collapses_to_mmwave(w, g, theta, n_r, n0):
    exact = mmwave_rate(w, g, n0)
    assert spim_rate([w], [g], [theta], n_r, n0) == exact
    covs = asymptotic_covariances([w], [g], [theta], n_r, n0)
    assert total_rate_approx(covs) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("n_rx", [128, 512])
def test_large_array_total_rate_matches_dense_oracle(n_rx):
    chan = sample_channel(make_rng(3, n_rx), 64, n_rx, 4, gains=list(0.6 ** np.arange(4)))
    eff = effective_channel(chan, build_abf(chan, 4), "exact")
    covs = covariances(eff, pattern_alphabet(4, 1), 0.01)
    value = total_rate_approx(covs)
    assert np.isfinite(value)
    assert value == pytest.approx(dense_total_rate(covs), abs=1e-9)


def test_two_path_rate_matches_total_rate_approx():
    # the pair formula on the Dirichlet kernel against the Gram-and-Cholesky determinants
    # of the large-array covariances, for two beams and more
    rng = np.random.default_rng(19)
    for m in (2, 3, 4, 8):
        g = np.full(m, 64.0)
        for n_r in (2, 8, 64):
            for _ in range(25):
                w = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
                theta = rng.uniform(-0.5, 0.5, m)
                n0 = 10.0 ** rng.uniform(-3.0, 1.0)
                covs = asymptotic_covariances(w, g, theta, n_r, n0)
                assert abs(spim_rate(w, g, theta, n_r, n0) - total_rate_approx(covs)) <= 1e-12


def test_two_path_rate_variants_coincide_for_two_patterns():
    # the diagonal term cancels either determinant numerator when K = 2:
    # |S_t| in place of |S_n| in the pattern bound leaves it unchanged
    rng = np.random.default_rng(23)
    for _ in range(50):
        w = np.sort(rng.uniform(0.05, 1.0, 2))[::-1]
        theta = rng.uniform(-0.5, 0.5, 2)
        n0 = rng.uniform(0.05, 1.0)
        covs = asymptotic_covariances(w, [64, 64], theta, 8, n0)
        ld, pair = 8 * np.log(n0) + covs.cholesky[1], _pair_logdets(covs)
        lb = np.mean(logsumexp(ld[:, None] - pair, axis=1))
        cross = np.mean(logsumexp(ld[None, :] - pair, axis=1))
        assert_allclose(lb, cross, rtol=1e-12)


def test_two_path_rate_high_snr_equal_gains():
    # equal gains, separated beams: symbol term plus one full pattern bit
    value = spim_rate([0.5, 0.5], [64.0, 64.0], [-0.25, 0.25], 8, 1e-4)
    assert value == pytest.approx(np.log2(1 + 0.5 * 64 / 1e-4) + 1.0, abs=0.1)


def test_two_path_rate_balanced_gain_margin():
    # (0.6, 0.4) at high SNR clears the single-beam rate by about 0.6 bits
    margin = spim_rate([0.6, 0.4], [64, 64], [-0.2, 0.15], 8, 0.01) \
        - mmwave_rate(0.6, 64, 0.01)
    assert margin == pytest.approx(0.6, abs=0.2)


def test_two_path_rate_validation():
    with pytest.raises(ParameterError):
        spim_rate([0.9, 0.0], [64, 64], [0.1, -0.1], 8, 0.1)
    with pytest.raises(ParameterError):
        asymptotic_covariances([0.9, -0.1], [64, 64], [0.1, -0.1], 8, 0.1)


def test_general_rate_single_beam_is_exactly_mmwave():
    for w, g, n0 in ((0.9, 64.0, 0.1), (0.3, 16.0, 0.7), (1.0, 128.0, 0.01)):
        assert spim_rate([w], [g], [0.1], 8, n0) == mmwave_rate(w, g, n0)


def test_general_rate_two_beams_matches_pair_form():
    # the paper's closed form with the Dirichlet cross term Q_nt
    rng = np.random.default_rng(29)
    for _ in range(100):
        w = np.sort(rng.uniform(0.05, 1.0, 2))[::-1]
        theta = rng.uniform(-0.5, 0.5, 2)
        n0 = rng.uniform(0.05, 1.0)
        half = w * 64.0 / (2.0 * n0)
        q = np.array([[dirichlet_gain(a - b, 8) for b in theta] for a in theta])
        core = np.outer(1.0 + half, 1.0 + half) - np.outer(half, half) * q
        pair = 1.0 - 0.5 * np.sum(np.log2(np.sum(1.0 / core, axis=1)))
        assert_allclose(spim_rate(w, [64.0, 64.0], theta, 8, n0), pair, rtol=1e-9)


def test_general_rate_two_beams_at_tiny_noise():
    # the pair form without cancellation, P_nn = log1p(2 a_n) and
    # P_nt = ln(a_n a_t (1 - q) + a_n + a_t + 1) with a = w g / 2N0, is within 5e-15 bits
    # of a 60-digit evaluation at these n0; the self-pair diagonal was 0.16 bits off at 1e-14.
    # Near-coincident beams take 1 - q from its two-term series at n = 8 (n^2 - 1 = 63,
    # 2 n^2 - 3 = 125), since 1 - dirichlet_gain would cancel there
    g = np.array([64.0, 64.0])
    x2 = (math.pi * 1e-9) ** 2
    for w, theta, gap in (([0.6, 0.4], [-0.2, 0.2], 1.0 - dirichlet_gain(0.4, 8)),
                          ([0.6, 0.4], [0.0, 1e-9], x2 * 63 / 3 - x2 * x2 * 63 * 125 / 45)):
        w = np.array(w)
        for n0 in (1e-4, 1e-8, 1e-10, 1e-14, 1e-20):
            a = w * g / (2.0 * n0)
            p = np.log(np.outer(a, a) * gap + a[:, None] + a[None, :] + 1.0)
            np.fill_diagonal(p, np.log1p(2.0 * a))
            form = 1.0 - np.mean(logsumexp(-p, axis=1)) / np.log(2.0)
            assert abs(spim_rate(w, g, theta, 8, n0) - form) <= 1e-12, (theta, n0)
    # coincident beams carry no index bit, down to n0 = 1e-20
    for n0 in (1e-4, 1e-8, 1e-14, 1e-20):
        exact = np.log2(1.0 + 0.6 * 64.0 / n0)
        assert abs(spim_rate([0.6, 0.6], g, [0.1, 0.1], 8, n0) - exact) <= 1e-14, n0


def test_oracle_matches_spim_rate_at_near_coincident_beams():
    # the pair determinants of total_rate_approx come from the QR of the stacked beams, which
    # does not cancel where the beams coincide; what is left is the rounding of the beam
    # vectors themselves, under 5e-10 bits on this grid
    w, g = [0.6, 0.4], [64.0, 64.0]
    for gap in (0.0, 1e-9, 1e-6, 1e-3):
        for n0 in (1e-8, 1e-12, 1e-16, 1e-20):
            theta = [0.1, 0.1 + gap]
            oracle = total_rate_approx(asymptotic_covariances(w, g, theta, 8, n0))
            assert abs(oracle - spim_rate(w, g, theta, 8, n0)) <= 1e-9, (gap, n0)


@pytest.mark.parametrize("n0", [1e-16, 1e-20])
def test_oracle_coincident_beams_carry_no_index_bit(n0):
    # two equal large-array beams, and three equal exact channel columns, are one beam
    covs = asymptotic_covariances([0.6, 0.6], [64.0, 64.0], [0.1, 0.1], 8, n0)
    assert abs(total_rate_approx(covs) - math.log2(1.0 + 0.6 * 64.0 / n0)) <= 1e-9
    chan = sample_channel(make_rng(4), 64, 8, 2, gains=[0.6, 0.4])
    column = effective_channel(chan, build_abf(chan, 2), "exact")[:, :1]
    covs = CovarianceSet(n0, np.stack([column] * 3))
    exact = math.log2(1.0 + float(np.sum(np.abs(column) ** 2)) / n0)
    assert abs(total_rate_approx(covs) - exact) <= 1e-9


def test_general_rate_permutation_symmetry():
    rng = np.random.default_rng(37)
    w = np.array([1.0, 0.6, 0.36, 0.216])
    g = np.full(4, 64.0)
    theta = np.array([-0.375, -0.125, 0.125, 0.375])
    base = spim_rate(w, g, theta, 8, 0.1)
    for _ in range(10):
        perm = rng.permutation(4)
        assert_allclose(spim_rate(w[perm], g[perm], theta[perm], 8, 0.1), base, rtol=1e-12)


def test_general_rate_validation():
    with pytest.raises(ParameterError):
        spim_rate([0.5, 0.0], [64, 64], [0.1, -0.1], 8, 0.1)
    with pytest.raises(ParameterError):
        spim_rate([0.5, 0.4], [64, 64], [0.1, -0.1], 8, 0.0)


def test_covariance_set_requires_positive_noise():
    with pytest.raises(ParameterError):
        CovarianceSet(n0=0.0, factors=np.ones((1, 2, 1)))


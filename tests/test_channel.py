"""Steering vectors, channel assembly, and the sampling contract."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

from spimmwave import (
    ChannelRealization,
    ParameterError,
    build_channel,
    make_rng,
    min_angle_separation,
    sample_channel,
    steering_vector,
)
from spimmwave.channel import DEFAULT_AOA_RANGE, DEFAULT_AOD_RANGE, _draw_angles, _separate
from spimmwave.experiments import spec_from_dict


def test_steering_zero_angle():
    assert_allclose(steering_vector(0.0, 4), np.full(4, 0.5), atol=1e-15)
    assert_allclose(steering_vector(0.0, 8), np.full(8, 1 / np.sqrt(8)), atol=1e-15)


def test_steering_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = rng.uniform(-0.5, 0.5)
        assert np.linalg.norm(steering_vector(phi, 64)) == pytest.approx(1.0, abs=1e-12)
    theta = rng.uniform(-0.5, 0.5)
    v = steering_vector(theta, 8)
    assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)


def test_steering_two_element_phase():
    # entries exp(-j2*pi*phi*(k - 1/2))/sqrt(2) at phi = 1/4
    v = steering_vector(0.25, 2)
    expected = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
    assert_allclose(v, expected, atol=1e-15)


def test_steering_rows_equal_scalar_responses():
    angles = np.array([-0.31, 0.0, 0.12, 0.5])
    rows = steering_vector(angles, 16)
    assert rows.shape == (4, 16)
    for angle, row in zip(angles, rows):
        assert np.array_equal(row, steering_vector(angle, 16))
    # a fractional size would silently give n rounded up entries of the wrong norm
    for bad in (0, 4.5):
        with pytest.raises(ParameterError):
            steering_vector(angles, bad)


def test_build_channel_single_path():
    real = ChannelRealization(16, 4, aod=[0.1], aoa=[-0.2], gains=[1.0])
    h = build_channel(real)
    assert h.shape == (4, 16)
    assert np.linalg.matrix_rank(h) == 1
    assert np.linalg.norm(h, "fro") == pytest.approx(1.0, abs=1e-12)


def test_build_channel_zero_gains():
    real = ChannelRealization(8, 4, aod=[0.1, -0.1], aoa=[0.2, -0.2], gains=[0.0, 0.0])
    assert np.all(build_channel(real) == 0)


def test_build_channel_matches_elementwise_sum():
    rng = np.random.default_rng(3)
    for n_paths in range(1, 9):
        aod = rng.uniform(-0.5, 0.5, n_paths)
        aoa = rng.uniform(-0.5, 0.5, n_paths)
        gains = rng.uniform(0.1, 2.0, n_paths)
        real = ChannelRealization(12, 6, aod=aod, aoa=aoa, gains=gains)
        h = build_channel(real)
        # brute-force oracle: per-entry sum over paths of the outer products
        oracle = np.zeros((6, 12), dtype=complex)
        for w, phi, theta in zip(real.gains, real.aod, real.aoa):
            ar = steering_vector(theta, 6)
            at = steering_vector(phi, 12)
            for r in range(6):
                for c in range(12):
                    oracle[r, c] += np.sqrt(w) * ar[r] * np.conj(at[c])
        assert_allclose(h, oracle, rtol=1e-12, atol=1e-14)


def test_realization_sorts_paths_jointly():
    real = ChannelRealization(8, 4, aod=[0.1, 0.2, 0.3], aoa=[-0.1, -0.2, -0.3],
                              gains=[0.2, 0.5, 0.3])
    assert list(real.gains) == [0.5, 0.3, 0.2]
    assert list(real.aod) == [0.2, 0.3, 0.1]
    assert list(real.aoa) == [-0.2, -0.3, -0.1]


def test_realization_validation():
    with pytest.raises(ParameterError):
        ChannelRealization(8, 4, aod=[0.7], aoa=[0.0], gains=[1.0])
    with pytest.raises(ParameterError):
        ChannelRealization(8, 4, aod=[0.1], aoa=[0.0], gains=[-1.0])
    with pytest.raises(ParameterError):
        ChannelRealization(8, 4, aod=[0.1, 0.2], aoa=[0.0], gains=[1.0])


def test_sample_channel_decay_gains():
    ch = sample_channel(make_rng(0), 64, 8, 3, gains=0.5 ** np.arange(3))
    assert_allclose(ch.gains, [1.0, 0.5, 0.25])
    single = sample_channel(make_rng(0), 64, 8, 1, gains=0.37 ** np.arange(1))
    assert_allclose(single.gains, [1.0])


def test_sample_channel_default_ranges():
    ch = sample_channel(make_rng(5), 64, 8, 4, gains=[4.0, 3.0, 2.0, 1.0])
    assert np.all(np.abs(ch.aod) <= 0.35)
    assert np.all(np.abs(ch.aoa) <= 0.25)
    assert ch.n_tx == 64 and ch.n_rx == 8


def test_sample_channel_angle_separation():
    floor = min_angle_separation(64, 8)
    assert floor == pytest.approx(1 / 256)
    for seed in range(20):
        ch = sample_channel(make_rng(seed), 64, 8, 6, gains=0.8 ** np.arange(6))
        for angles in (ch.aod, ch.aoa):
            diffs = np.abs(np.subtract.outer(angles, angles))
            np.fill_diagonal(diffs, np.inf)
            assert diffs.min() >= floor


def test_many_paths_draw_separated():
    # 40 paths need 39/256 = 0.152 of the 0.5-wide arrival range
    ch = sample_channel(make_rng(0), 64, 8, 40, gains=np.ones(40))
    for angles, (lo, hi) in ((ch.aod, DEFAULT_AOD_RANGE), (ch.aoa, DEFAULT_AOA_RANGE)):
        assert np.all((angles >= lo) & (angles <= hi))
        assert np.diff(np.sort(angles)).min() >= 1 / 256


@pytest.mark.parametrize("n", [2, 9, 15, 59])
@pytest.mark.parametrize("lo, hi", [DEFAULT_AOD_RANGE, DEFAULT_AOA_RANGE], ids=["aod", "aoa"])
def test_tight_fit_keeps_separation_to_rounding(n, lo, hi):
    # lo + i floor is rounded, so at and just inside (n - 1) floor = hi - lo a gap
    # may fall short of floor by a few ulps, never by more
    tight = (hi - lo) / (n - 1)
    eps = np.finfo(float).eps
    for floor in (tight, tight * (1 - 1e-12)):
        rngs = [make_rng(seed, n) for seed in range(20)]
        raw = np.array([rng.uniform(lo, hi - (n - 1) * floor, size=n) for rng in rngs])
        index = np.array([rng.permutation(n) for rng in rngs])
        for angles in np.sort(_separate(raw, index, floor), axis=-1):
            assert np.diff(angles).min() >= floor * (1 - 64 * eps)
            if floor == tight:
                assert np.abs(angles - (lo + np.arange(n) * floor)).max() <= 1e-15


def test_infeasible_separation_fails_at_once():
    # 130 paths need 129/256 > 0.5 of the arrival range
    with pytest.raises(ParameterError) as info:
        sample_channel(make_rng(0), 64, 8, 130, gains=np.ones(130))
    assert info.value.field == "n_paths"


def test_single_path_is_one_uniform_draw():
    # no separation to keep: aod then aoa, each one uniform value on the same stream
    ch = sample_channel(make_rng(7), 64, 8, 1, gains=[1.0])
    rng = make_rng(7)
    assert ch.aod[0] == rng.uniform(*DEFAULT_AOD_RANGE, size=1)[0]
    assert ch.aoa[0] == rng.uniform(*DEFAULT_AOA_RANGE, size=1)[0]


@pytest.mark.parametrize("m", [1, 2, 8])
def test_drawn_angles_equal_sampled_channels(m):
    # the runner's angle draws are those of sample_channel on the trial streams, to the bit
    # the last ranges are a tight fit for 8 angles, (8 - 1) / 256 wide: they validate and draw
    for ranges in ({}, {"aod_range": [-0.45, 0.05], "aoa_range": [0.1, 0.5]},
                   {"aod_range": [-0.02734375, 0.0], "aoa_range": [0.0, 0.02734375]}):
        spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.5], "trials": 7,
                               "channel": {"m": [m], **ranges}, "noise": {"n0": 0.1},
                               "seed": 12})
        ch = spec.channel
        aod, aoa = _draw_angles([(spec.seed, t) for t in range(spec.trials)], m, ch.n_tx,
                                ch.n_rx, ch.aod_range, ch.aoa_range)
        fresh = [sample_channel(make_rng(12, t), 64, 8, m, gains=np.ones(m),
                                aod_range=ch.aod_range, aoa_range=ch.aoa_range)
                 for t in range(7)]
        assert np.array_equal(aod, [c.aod for c in fresh])
        assert np.array_equal(aoa, [c.aoa for c in fresh])


def _parent_draw(rng, n, lo, hi, floor):
    """Reference: one side's angles as drawn one stream at a time, permuting the shifted array."""
    draw = np.sort(rng.uniform(lo, hi - (n - 1) * floor, size=n)) + floor * np.arange(n)
    return rng.permutation(draw)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 40])
@pytest.mark.parametrize("ranges", [(DEFAULT_AOD_RANGE, DEFAULT_AOA_RANGE),
                                    ((-0.45, 0.05), (0.1, 0.5))], ids=["default", "custom"])
def test_drawn_angles_equal_the_per_stream_draw(n, ranges):
    # one sort, shift and gather over every stream gives each stream's own draw, bit for bit;
    # a Generator stream and keyed streams mix, and the keyed ones share one re-keyed Philox
    keys = [(-3, t) for t in range(6)] + [(5, (1 << 64) + 2), (5, 3 * (1 << 32) + 1)]
    floor = min_angle_separation(64, 8)
    aod, aoa = _draw_angles([make_rng(9, 9), *keys], n, 64, 8, *ranges)
    for row, rng in enumerate([make_rng(9, 9), *(make_rng(*key) for key in keys)]):
        assert np.array_equal(aod[row], _parent_draw(rng, n, *ranges[0], floor))
        assert np.array_equal(aoa[row], _parent_draw(rng, n, *ranges[1], floor))


def test_drawn_angles_keep_the_range_guard():
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.5], "channel": {"m": [2]},
                           "noise": {"n0": 0.1}})
    spec.channel.aoa_range = (0.2, 0.1)  # past validate_spec
    ch = spec.channel
    with pytest.raises(ParameterError) as info:
        _draw_angles([(spec.seed, 0)], 2, ch.n_tx, ch.n_rx, ch.aod_range, ch.aoa_range)
    assert info.value.field == "aoa_range"


def _rejection_draws(rng, draws, n, lo, hi, floor):
    """Oracle: uniform draws on [lo, hi]^n kept when every sorted gap reaches floor."""
    kept = []
    while sum(len(k) for k in kept) < draws:
        batch = rng.uniform(lo, hi, size=(4 * draws, n))
        kept.append(batch[np.diff(np.sort(batch, axis=1), axis=1).min(axis=1) >= floor])
    return np.concatenate(kept)[:draws]


@pytest.mark.parametrize("n, floor", [(2, 0.25), (3, 0.09), (8, 0.012)])
def test_direct_draw_matches_rejection_sampler(n, floor):
    # floors that reject about 3 in 4 uniform draws, so the constraint shapes the law
    lo, hi, draws = -0.25, 0.25, 20_000
    rng = make_rng(21, n)
    raw, index = np.empty((draws, n)), np.empty((draws, n), dtype=np.intp)
    for i in range(draws):  # one stream, each draw's uniforms then its permutation
        raw[i] = rng.uniform(lo, hi - (n - 1) * floor, size=n)
        index[i] = rng.permutation(n)
    direct = _separate(raw, index, floor)
    oracle = _rejection_draws(make_rng(22, n), draws, n, lo, hi, floor)
    direct_sorted, oracle_sorted = np.sort(direct, axis=1), np.sort(oracle, axis=1)

    def smallest_gap(angles):
        return np.diff(angles, axis=1).min(axis=1, keepdims=True)

    # sorted values, the first drawn angle (the order is random) and the smallest gap
    for a, b in ((direct_sorted, oracle_sorted), (direct[:, :1], oracle[:, :1]),
                 (smallest_gap(direct_sorted), smallest_gap(oracle_sorted))):
        for column in range(a.shape[1]):
            assert ks_2samp(a[:, column], b[:, column]).pvalue > 0.01


def test_sample_channel_parameter_errors():
    with pytest.raises(ParameterError):
        sample_channel(make_rng(0), 64, 8, 2, gains=[1.0, 0.5, 0.25])
    with pytest.raises(ParameterError):
        sample_channel(make_rng(0), 64, 8, 2, gains=[1.0, -0.5])
    with pytest.raises(ParameterError):
        sample_channel(make_rng(0), 64, 8, 2, gains=[1.0, 0.5], aoa_range=(-0.7, 0.7))


@pytest.mark.parametrize("name, pair", [("aod_range", (-0.6, 0.25)), ("aoa_range", (0.2, 0.1)),
                                        ("aoa_range", (0.1, 0.1)), ("aod_range", (0.0, 0.51))])
def test_sample_channel_range_error_names_the_range(name, pair):
    with pytest.raises(ParameterError, match=name) as info:
        sample_channel(make_rng(0), 64, 8, 2, gains=[1.0, 0.5], **{name: pair})
    assert info.value.field == name


def test_sample_channel_deterministic():
    a = sample_channel(make_rng(11), 64, 8, 2, gains=[0.9, 0.1])
    b = sample_channel(make_rng(11), 64, 8, 2, gains=[0.9, 0.1])
    assert np.array_equal(a.aod, b.aod) and np.array_equal(a.aoa, b.aoa)


def test_beams_decorrelate_with_array_size():
    # |a(phi1)^H a(phi2)| shrinks on average as the array grows
    rng = np.random.default_rng(17)
    means = []
    for n_tx in (16, 64, 256):
        overlaps = []
        while len(overlaps) < 200:
            phi1, phi2 = rng.uniform(-0.5, 0.5, 2)
            if abs(phi1 - phi2) < 0.02:
                continue
            v1 = steering_vector(phi1, n_tx)
            v2 = steering_vector(phi2, n_tx)
            overlaps.append(abs(np.vdot(v1, v2)))
        means.append(np.mean(overlaps))
    assert means[0] > means[1] > means[2]

"""Pattern alphabet combinatorics and beamformer assembly."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spimmwave import (
    ChannelRealization,
    ParameterError,
    asymptotic_covariances,
    build_abf,
    build_channel,
    covariances,
    effective_channel,
    make_rng,
    pattern_alphabet,
    sample_channel,
    steering_vector,
)


def test_two_beam_alphabet():
    alpha = pattern_alphabet(2, 1)
    assert alpha.k == 2
    assert_allclose(alpha.patterns[0], [[1.0], [0.0]])
    assert_allclose(alpha.patterns[1], [[0.0], [1.0]])


def test_single_beam_alphabet():
    alpha = pattern_alphabet(1, 1)
    assert alpha.k == 1
    assert_allclose(alpha.patterns[0], [[1.0]])


def test_truncated_alphabet_keeps_lexicographic_prefix():
    alpha = pattern_alphabet(3, 2)
    assert alpha.k == 2  # C(3,2)=3 candidates, keep 2
    assert_allclose(alpha.patterns[0], [[1, 0], [0, 1], [0, 0]])
    assert_allclose(alpha.patterns[1], [[1, 0], [0, 0], [0, 1]])


def test_alphabet_size_formula():
    for m in range(1, 7):
        for n_s in range(1, m + 1):
            alpha = pattern_alphabet(m, n_s)
            expected = 2 ** math.floor(math.log2(math.comb(m, n_s)))
            assert alpha.k == expected
            assert alpha.k <= math.comb(m, n_s)


def test_patterns_distinct_with_orthonormal_columns():
    for m, n_s in ((4, 2), (5, 3), (6, 1)):
        alpha = pattern_alphabet(m, n_s)
        flat = {tuple(p.argmax(axis=0)) for p in alpha.patterns}
        assert len(flat) == alpha.k
        for p in alpha.patterns:
            assert_allclose(p.T @ p, np.eye(n_s), atol=0)
            assert np.all(p.sum(axis=0) == 1.0)


def test_alphabet_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        pattern_alphabet(2, 3)
    with pytest.raises(ParameterError):
        pattern_alphabet(3, 0)


def _channel(n_paths=3, n_tx=64, n_rx=8, seed=0):
    rng = np.random.default_rng(seed)
    return ChannelRealization(
        n_tx, n_rx,
        aod=np.linspace(-0.3, 0.3, n_paths),
        aoa=np.linspace(-0.2, 0.2, n_paths),
        gains=np.sort(rng.uniform(0.1, 1.0, n_paths))[::-1])


def test_abf_unit_modulus_and_gains():
    abf = build_abf(_channel(), 3)
    assert abf.shape == (64, 3)
    assert_allclose(np.abs(abf), 1.0, atol=1e-12)
    # each column carries the coherent array gain n_tx
    assert_allclose(np.linalg.norm(abf, axis=0) ** 2, 64.0, rtol=1e-12)


def test_abf_single_beam():
    ch = _channel()
    abf = build_abf(ch, 1)
    assert abf.shape == (64, 1)
    assert_allclose(np.abs(abf), 1.0, atol=1e-12)
    assert np.linalg.norm(abf[:, 0]) ** 2 == pytest.approx(64.0, rel=1e-12)
    # the column steers along the strongest path
    assert_allclose(abf[:, 0], 8.0 * steering_vector(ch.aod[0], 64), atol=1e-12)


def test_abf_rejects_too_many_beams():
    with pytest.raises(ParameterError):
        build_abf(_channel(n_paths=2), 3)


def test_effective_channel_asymptotic_column_norms():
    ch = ChannelRealization(64, 8, aod=[-0.2, 0.2], aoa=[-0.15, 0.15], gains=[0.9, 0.1])
    eff = effective_channel(ch, build_abf(ch, 2), "asymptotic")
    assert_allclose(np.linalg.norm(eff, axis=0),
                    [np.sqrt(0.9 * 64), np.sqrt(0.1 * 64)], rtol=1e-12)


def test_effective_channel_exact_close_to_asymptotic():
    # at n_tx = 64 with departure separation >= 0.05 the sidelobe leakage keeps
    # the relative deviation under 0.10 everywhere and under 0.05 typically
    rng = np.random.default_rng(4)
    deviations = []
    for _ in range(50):
        while True:
            aod = rng.uniform(-0.35, 0.35, 2)
            aoa = rng.uniform(-0.25, 0.25, 2)
            if abs(aod[0] - aod[1]) >= 0.05 and abs(aoa[0] - aoa[1]) >= 0.05:
                break
        ch = ChannelRealization(64, 8, aod=aod, aoa=aoa, gains=[0.7, 0.3])
        abf = build_abf(ch, 2)
        exact = effective_channel(ch, abf, "exact")
        asym = effective_channel(ch, abf, "asymptotic")
        deviations.append(np.linalg.norm(exact - asym, "fro") / np.linalg.norm(asym, "fro"))
    assert max(deviations) < 0.10
    assert np.median(deviations) < 0.05


def test_effective_channel_deviation_shrinks_with_array_size():
    aod, aoa = [-0.12, 0.18], [-0.1, 0.15]
    deviations = []
    for n_tx in (16, 64, 256):
        ch = ChannelRealization(n_tx, 8, aod=aod, aoa=aoa, gains=[0.7, 0.3])
        abf = build_abf(ch, 2)
        exact = effective_channel(ch, abf, "exact")
        asym = effective_channel(ch, abf, "asymptotic")
        deviations.append(np.linalg.norm(exact - asym, "fro") / np.linalg.norm(asym, "fro"))
    assert deviations[0] > deviations[1] > deviations[2]


def test_effective_channel_single_path_modes_agree():
    ch = ChannelRealization(32, 8, aod=[0.1], aoa=[-0.1], gains=[1.0])
    abf = build_abf(ch, 1)
    assert_allclose(effective_channel(ch, abf, "exact"),
                    effective_channel(ch, abf, "asymptotic"), atol=1e-12)


def test_effective_channel_rejects_unknown_mode():
    ch = _channel()
    with pytest.raises(ParameterError):
        effective_channel(ch, build_abf(ch, 2), "fast")


def test_asymptotic_effective_channel_equals_asymptotic_factors():
    # one large-array beam formula serves the runners and the closed forms, bit for bit
    for seed, m in enumerate((1, 2, 4, 8)):
        chan = sample_channel(make_rng(seed), 64, 8, m, gains=0.7 ** np.arange(m))
        eff = effective_channel(chan, build_abf(chan, m), "asymptotic")
        covs = asymptotic_covariances(chan.gains, [64.0] * m, chan.aoa, 8, 0.1)
        assert np.array_equal(eff.T[:, :, None], covs.factors)
        assert np.array_equal(covariances(eff, pattern_alphabet(m, 1), 0.1).factors,
                              covs.factors)


def test_covariance_factors_apply_the_digital_stage():
    # G_k = HA B_k / sqrt(n_s) for every pattern of a multi-stream alphabet
    ch = _channel(n_paths=4)
    eff = effective_channel(ch, build_abf(ch, 4), "exact")
    alphabet = pattern_alphabet(4, 2)
    factors = covariances(eff, alphabet, 0.1).factors
    assert factors.shape == (alphabet.k, 8, 2)
    for pattern, g in zip(alphabet.patterns, factors):
        assert_allclose(g, eff @ pattern / np.sqrt(2.0), rtol=1e-15)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_batched_channel_equals_per_realization_calls():
    # a (2, 4, 3) batch: rows with tied and out-of-order gains, one angle row broadcast
    rng = np.random.default_rng(11)
    gains = rng.uniform(0.1, 1.0, (2, 4, 3))
    gains[0, 1] = [0.3, 0.3, 0.3]
    gains[0, 2] = [0.2, 0.5, 0.2]
    gains[1, 0] = [0.1, 0.4, 0.9]
    aod = rng.uniform(-0.5, 0.5, (2, 4, 3))
    aoa = rng.uniform(-0.5, 0.5, 3)
    batch = ChannelRealization(32, 8, aod=aod, aoa=aoa, gains=gains)
    assert batch.gains.shape == batch.aoa.shape == (2, 4, 3) and batch.n_paths == 3
    for m in (1, 2, 3):
        abf = build_abf(batch, m)
        assert abf.shape == (2, 4, 32, m)
        effs = {mode: effective_channel(batch, abf, mode) for mode in ("exact", "asymptotic")}
        for index in np.ndindex(2, 4):
            one = ChannelRealization(32, 8, aod=aod[index], aoa=aoa, gains=gains[index])
            for name in ("aod", "aoa", "gains"):
                assert _same_bits(getattr(batch, name)[index], getattr(one, name))
            assert _same_bits(build_channel(batch)[index], build_channel(one))
            assert _same_bits(abf[index], build_abf(one, m))
            for mode, eff in effs.items():
                assert _same_bits(eff[index], effective_channel(one, build_abf(one, m), mode))
    # _take reads the checked, sorted rows at an index of the leading axes without checking
    # them again: the realization the constructor makes of those rows, steered alike
    for index in (1, (0, slice(1, 3)), slice(None), (slice(1, 2), 3)):
        part = batch._take(index)
        rows = (aod[index], np.broadcast_to(aoa, aod.shape)[index], gains[index])
        again = ChannelRealization(32, 8, *rows)
        assert (part.n_tx, part.n_rx) == (32, 8)
        for name in ("aod", "aoa", "gains"):
            assert _same_bits(getattr(part, name), getattr(again, name))
        for mode in ("exact", "asymptotic"):
            assert _same_bits(effective_channel(part, build_abf(part, 2), mode),
                              effective_channel(batch, build_abf(batch, 2), mode)[index])
    # the tied row keeps its order, the out-of-order rows are sorted strongest-first
    assert list(batch.gains[0, 2]) == [0.5, 0.2, 0.2]
    assert list(batch.aod[0, 1]) == list(aod[0, 1])


@pytest.mark.parametrize("name, bad", [("gains", np.nan), ("gains", -0.1), ("aod", 0.7),
                                       ("aod", np.nan), ("aoa", -0.6), ("aoa", np.inf)])
def test_batched_realization_fails_naming_the_bad_field(name, bad):
    arrays = {"aod": np.full((3, 2), 0.1), "aoa": np.full((3, 2), -0.1),
              "gains": np.full((3, 2), 0.5)}
    arrays[name][2, 1] = bad  # one entry of the last row
    with pytest.raises(ParameterError, match=rf"\b{name}\b") as info:
        ChannelRealization(16, 4, **arrays)
    assert info.value.field == name


def test_batched_realization_rejects_mismatched_shapes():
    for aod, gains in (([[0.1, 0.2]], [[0.5]]), (np.zeros((3, 2)), np.ones((2, 2)))):
        with pytest.raises(ParameterError) as info:
            ChannelRealization(16, 4, aod=aod, aoa=aod, gains=gains)
        assert info.value.field == "gains"

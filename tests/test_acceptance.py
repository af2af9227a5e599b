"""Acceptance suite: one test per shipping criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict even on
success. Tolerances are fixed here, not configurable.
"""

import math

import numpy as np

from spimmwave import (
    CovarianceSet,
    MonteCarloSpec,
    asymptotic_covariances,
    build_abf,
    conditional_symbol_rate,
    covariances,
    dirichlet_gain,
    effective_channel,
    gamma_crossover,
    make_rng,
    mc_mutual_information,
    mmwave_rate,
    pattern_alphabet,
    sample_channel,
    spim_margin,
    spim_rate,
    steering_vector,
    total_rate_approx,
)
from spimmwave.capacity import _pair_logdets
from spimmwave.experiments import run_experiment, spec_from_dict, write_csv

from oracles import LOG2E, dense_covariances, pattern_rate_bound

N_TX, N_RX, ARRAY_GAIN = 64, 8, 64.0


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gamma_crossover_values():
    targets = {2: 0.258, 4: 0.425, 8: 0.620}
    roots = {m: gamma_crossover(m, 0.1, ARRAY_GAIN) for m in targets}
    ok = all(abs(roots[m] - targets[m]) <= 0.005 for m in targets)
    _verdict("gamma crossover values",
             ok, ", ".join(f"gamma({m})={roots[m]:.4f} (target {targets[m]})" for m in targets))


def _two_beam_crossover(n0: float) -> float:
    # orthogonal receive beams isolate the gain-ratio effect
    theta = (0.0, 1.0 / N_RX)

    def diff(w1: float) -> float:
        return spim_rate([w1, 1.0 - w1], [ARRAY_GAIN, ARRAY_GAIN], theta, N_RX, n0) \
            - mmwave_rate(w1, ARRAY_GAIN, n0)

    lo, hi = 0.55, 0.99
    assert diff(lo) > 0 > diff(hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_2_share_crossover_windows():
    low_noise = _two_beam_crossover(0.1)
    high_noise = _two_beam_crossover(1.0)
    ok = 0.78 <= low_noise <= 0.82 and 0.74 <= high_noise <= 0.78
    _verdict("equal-share crossover windows", ok,
             f"w1*(n0=0.1)={low_noise:.4f} in [0.78,0.82], "
             f"w1*(n0=1.0)={high_noise:.4f} in [0.74,0.78]")


def _mean_gaps(w1: float, w2: float, trials: int = 32, seed: int = 0,
               n_samples: int = 100_000):
    """Mean conventional-minus-switched gap at snr 10 dB over channel draws.

    Monte-Carlo runs use the large-array (asymptotic) covariances the closed
    forms model; closed forms use the same per-draw arrival angles.
    """
    n0 = 0.1
    closed, sampled = [], []
    mm_closed = mmwave_rate(w1, ARRAY_GAIN, n0)
    for t in range(trials):
        chan = sample_channel(make_rng(seed, t), N_TX, N_RX, 2, gains=[w1, w2])
        covs = asymptotic_covariances(chan.gains, [ARRAY_GAIN] * 2, chan.aoa, N_RX, n0)
        spim_est = mc_mutual_information(covs, MonteCarloSpec(n_samples, seed=seed * 7919 + 2 * t))
        mm_covs = asymptotic_covariances([w1], [ARRAY_GAIN], [chan.aoa[0]], N_RX, n0)
        mm_est = mc_mutual_information(mm_covs, MonteCarloSpec(n_samples, seed=seed * 7919 + 2 * t + 1))
        closed.append(mm_closed - spim_rate(
            chan.gains, [ARRAY_GAIN] * 2, chan.aoa, N_RX, n0))
        sampled.append(mm_est.estimate - spim_est.estimate)
    return float(np.mean(closed)), float(np.mean(sampled))


def test_criterion_3_se_gap_reproduction():
    cf_imb, mc_imb = _mean_gaps(0.9, 0.1)
    cf_bal, mc_bal = _mean_gaps(0.6, 0.4)
    ok = (0.6 <= cf_imb <= 1.0 and 0.6 <= mc_imb <= 1.0
          and 0.4 <= -cf_bal <= 0.8 and 0.4 <= -mc_bal <= 0.8)
    _verdict("high-snr gap reproduction", ok,
             f"(0.9,0.1) conventional leads by cf={cf_imb:.3f}, mc={mc_imb:.3f} (0.8+-0.2); "
             f"(0.6,0.4) switched leads by cf={-cf_bal:.3f}, mc={-mc_bal:.3f} (0.6+-0.2)")


def _separated_channel(seed: int, stream: int, gains) -> object:
    # redraw until the receive beams sit outside each other's main lobe,
    # matching the negligible-overlap regime the closed forms model
    s = stream
    while True:
        chan = sample_channel(make_rng(seed, s), N_TX, N_RX, 2, gains=gains)
        if abs(chan.aoa[0] - chan.aoa[1]) >= 1.0 / N_RX:
            return chan
        s += 1000


def test_criterion_4_approximation_tightness():
    worst = 0.0
    for gains, snrs in (((0.6, 0.4), (2.0, 6.0, 10.0)), ((0.9, 0.1), (6.0, 10.0))):
        for t in range(20):
            chan = _separated_channel(1, t, list(gains))
            eff = effective_channel(chan, build_abf(chan, 2), "exact")
            for snr_db in snrs:
                n0 = 10.0 ** (-snr_db / 10.0)
                covs = covariances(eff, pattern_alphabet(2, 1), n0)
                est = mc_mutual_information(covs, MonteCarloSpec(100_000, seed=31 * t + int(snr_db)))
                worst = max(worst, abs(est.estimate - total_rate_approx(covs)))
    _verdict("approximation tightness", worst <= 0.15,
             f"max |mc - closed form| = {worst:.4f} <= 0.15 over 20 draws, snr >= 2 dB")


def test_criterion_5_formulation_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        n_r = int(rng.integers(2, 9))
        n0 = float(rng.uniform(0.05, 2.0))
        factors = np.zeros((k, n_r, 2), dtype=complex)  # narrower patterns zero-padded
        for i in range(k):
            g = rng.standard_normal((n_r, int(rng.integers(1, 3)))) \
                + 1j * rng.standard_normal((n_r, int(rng.integers(1, 3))))
            factors[i, :, :g.shape[1]] = g
        covs = CovarianceSet(n0=n0, factors=factors)
        total = total_rate_approx(covs)
        decomposed = conditional_symbol_rate(covs) + pattern_rate_bound(covs) \
            + n_r * (LOG2E - 1.0)
        worst = max(worst, abs(total - decomposed) / max(1.0, abs(total)))
    _verdict("two-formulation identity", worst <= 1e-9,
             f"max relative gap {worst:.2e} <= 1e-9 over 1000 covariance sets")


def test_criterion_6_closed_form_oracles():
    rng = np.random.default_rng(77)
    worst_det, worst_dir = 0.0, 0.0
    for _ in range(1000):
        n_r = int(rng.integers(2, 9))
        w = rng.uniform(0.05, 1.0, 2)
        g = rng.uniform(8.0, 128.0, 2)
        theta = rng.uniform(-0.5, 0.5, 2)
        n0 = float(rng.uniform(0.05, 1.0))
        covs = asymptotic_covariances(w, g, theta, n_r, n0)
        brute = np.linalg.slogdet(dense_covariances(covs).sum(axis=0))[1]  # dense oracle
        closed = _pair_logdets(covs)[0, 1]
        worst_det = max(worst_det, abs(math.expm1(closed - brute)))  # relative det error
    for _ in range(1000):
        n_r = int(rng.integers(2, 17))
        t1, t2 = rng.uniform(-0.5, 0.5, 2)
        direct = abs(np.vdot(steering_vector(t1, n_r), steering_vector(t2, n_r))) ** 2
        closed = dirichlet_gain(t1 - t2, n_r)
        worst_dir = max(worst_dir, abs(closed - direct) / max(direct, 1e-30))
    ok = worst_det <= 1e-10 and worst_dir <= 1e-10
    _verdict("determinant and kernel oracles", ok,
             f"pair-determinant rel err {worst_det:.2e}, kernel rel err {worst_dir:.2e} (<= 1e-10)")


def test_criterion_7_special_case_collapse():
    collapse = all(
        spim_rate([w], [g], [0.2], N_RX, n0) == mmwave_rate(w, g, n0)
        for w, g, n0 in ((0.9, 64.0, 0.1), (0.3, 16.0, 0.7), (1.0, 128.0, 0.01)))
    alpha = pattern_alphabet(2, 1)
    basis = (np.array_equal(alpha.patterns[0], [[1.0], [0.0]])
             and np.array_equal(alpha.patterns[1], [[0.0], [1.0]]))
    sizes = all(
        pattern_alphabet(m, n_s).k == 2 ** math.floor(math.log2(math.comb(m, n_s)))
        for m in range(1, 7) for n_s in range(1, m + 1))
    ok = collapse and basis and sizes
    _verdict("special-case collapse", ok,
             f"single-beam collapse exact: {collapse}, two-beam alphabet is the basis pair: "
             f"{basis}, alphabet size formula (m <= 6): {sizes}")


def test_criterion_8_best_beam_count_transitions():
    thetas = -0.5 + np.arange(8) / N_RX  # receive-orthogonal beams
    best = []
    for gamma in (0.1, 0.3, 0.5, 0.8):
        rates = {m: spim_rate(gamma ** np.arange(m), np.full(m, ARRAY_GAIN),
                              thetas[:m], N_RX, 0.1)
                 for m in (1, 2, 4, 8)}
        best.append(max(rates, key=rates.get))
    ok = best[0] == 1 and best[-1] == 8 and all(b >= a for a, b in zip(best, best[1:]))
    _verdict("best beam-count transitions", ok,
             f"argmax over m in {{1,2,4,8}} at gamma 0.1/0.3/0.5/0.8 -> {best}")


def test_criterion_9_margin_map_properties():
    grid = np.round(np.arange(0.05, 0.951, 0.05), 2)
    monotone = True
    for n0 in (0.05, 0.1, 0.5):
        for relaxed in (False, True):
            margins = [spim_margin(float(g), n0, ARRAY_GAIN, relax_integer=relaxed)
                       for g in grid]
            monotone &= all(b >= a for a, b in zip(margins, margins[1:]))
    low = all(spim_margin(gamma=g, n0=0.1, g1=ARRAY_GAIN) == 1
              for g in (0.05, 0.10, 0.15))
    ok = monotone and low
    _verdict("margin-map properties", ok,
             f"nondecreasing on 0.05-step grid for n0 in {{0.05,0.1,0.5}}: {monotone}; "
             f"equals 1 for gamma <= 0.15 at n0=0.1: {low}")


def test_criterion_10_deterministic_csv(tmp_path):
    data = {
        "experiment": "snr-sweep", "grid": [0.0, 10.0],
        "channel": {"gains": [0.9, 0.1]}, "trials": 3,
        "mc": {"n_samples": 5000}, "seed": 42,
    }
    path_a, path_b = tmp_path / "run_a.csv", tmp_path / "run_b.csv"
    write_csv(run_experiment(spec_from_dict(dict(data))), path_a)
    write_csv(run_experiment(spec_from_dict(dict(data))), path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    _verdict("deterministic experiment output", identical,
             "two seeded runs produced byte-identical CSV files")

"""Output checks, each recomputing a result by a route the runner does not take.

Every check adds one attempt to a Tally; a check that fails or raises adds
one failure. Channel draws are rebuilt from the runner's documented stream
contract, one `make_rng(spec.seed, trial)` stream per trial.
"""

from __future__ import annotations

import math
import random
import traceback

import numpy as np
from spimmwave import (
    asymptotic_covariances,
    build_abf,
    conditional_symbol_rate,
    covariances,
    effective_channel,
    make_rng,
    mmwave_rate,
    pattern_alphabet,
    sample_channel,
    total_rate_approx,
)

CLOSED_FORM_TOL = 1e-9
MC_SIGMAS = 4.0
CLOSED_FORM_SAMPLE = 8
CLOSED_FORM_METHODS = ("general-m", "closed-form-lb", "closed-form-crossdet")


class Tally:
    """Counts attempted and failed checks and keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def run(self, what: str, check, *args) -> None:
        """Run a check function; an exception it raises counts as one failure."""
        try:
            check(self, *args)
        except Exception:  # a raising check is a failed check, not a crashed benchmark
            self.record(False, f"{what} raised:\n{traceback.format_exc()}")


def _beam_count(spec, variant: str) -> int:
    return int(variant[2:]) if variant.startswith("m=") else int(spec.channel.m)


def _noise(spec, axis: float) -> float:
    if spec.experiment == "snr-sweep":
        return 10.0 ** (-axis / 10.0)
    return float(spec.noise.n0)


def _draws(spec, axis: float, m: int):
    ch = spec.channel
    gains = list(axis ** np.arange(m)) if spec.experiment == "gamma-sweep" else ch.gains
    return [sample_channel(make_rng(spec.seed, t), ch.n_tx, ch.n_rx, m, gains=gains,
                           aod_range=tuple(ch.aod_range), aoa_range=tuple(ch.aoa_range))
            for t in range(spec.trials)]


def check_closed_forms(tally: Tally, spec, rows, seed: int) -> None:
    """A seeded sample of closed-form rows equals total_rate_approx of asymptotic_covariances."""
    picked = [r for r in rows if r.method in CLOSED_FORM_METHODS]
    picked = random.Random(seed).sample(picked, min(CLOSED_FORM_SAMPLE, len(picked)))
    for row in picked:
        m = _beam_count(spec, row.variant)
        n0 = _noise(spec, row.axis)
        ref = float(np.mean([
            total_rate_approx(asymptotic_covariances(
                chan.gains, np.full(m, float(spec.channel.n_tx)), chan.aoa, chan.n_rx, n0))
            for chan in _draws(spec, row.axis, m)]))
        tally.record(abs(row.value - ref) <= CLOSED_FORM_TOL,
                     f"{row.method} {row.variant} at {row.axis:g}: {row.value!r} vs {ref!r}")


def check_monte_carlo(tally: Tally, spec, rows) -> None:
    """Monte-Carlo rows against analytic rates of the covariances they sampled.

    A pattern-switched row lies within 4 sigma of
    [conditional_symbol_rate, conditional_symbol_rate + log2 K]. The single-beam
    row lies within 4 sigma of the Shannon rate of the same exact beam; the
    shannon row itself uses the large-array gain w1 * n_tx, which omits the
    cross-path leakage the exact channel carries.
    """
    mode = "asymptotic" if spec.channel.asymptotic else "exact"
    for row in rows:
        if row.method != "monte-carlo":
            continue
        single = row.variant == "mmwave"
        paths = _beam_count(spec, row.variant)
        m = 1 if single else paths
        alphabet = pattern_alphabet(m, 1)
        n0 = _noise(spec, row.axis)
        rates = []
        for chan in _draws(spec, row.axis, paths):
            eff = effective_channel(chan, build_abf(chan, m), mode)
            if single:
                power = float(np.vdot(eff[:, 0], eff[:, 0]).real)
                rates.append(mmwave_rate(power, 1.0, n0))
            else:
                covs = covariances(eff, alphabet, n0, source=mode)
                rates.append(conditional_symbol_rate(covs))
        lo = float(np.mean(rates))
        hi = lo + math.log2(alphabet.k)
        margin = MC_SIGMAS * row.mc_stderr + CLOSED_FORM_TOL
        tally.record(lo - margin <= row.value <= hi + margin,
                     f"monte-carlo {row.variant} at {row.axis:g}: {row.value!r} "
                     f"+- {row.mc_stderr!r} outside [{lo!r}, {hi!r}]")

"""Analog beam steering and the spatial-pattern alphabet.

The analog stage steers one unit-modulus phase-shifter column per spatial
path; the pattern alphabet enumerates which subset of those columns the RF
chains drive in a given symbol period. The digital stage I/sqrt(n_s) is a
scaled identity, applied where the per-pattern covariances are built
(capacity.covariances).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, build_channel, steering_vector
from .errors import ParameterError
from .numerics import _shown, require_in, require_integer


@dataclass(frozen=True)
class PatternAlphabet:
    """The k selection matrices (each m x n_s) an index-modulated symbol can pick."""

    m: int
    n_s: int
    patterns: np.ndarray  # (k, m, n_s), columns are distinct basis vectors

    @property
    def k(self) -> int:
        return self.patterns.shape[0]


def pattern_alphabet(m: int, n_s: int) -> PatternAlphabet:
    """Alphabet size is the largest power of two not exceeding C(m, n_s).

    The retained patterns are the lexicographically first combinations, so
    the alphabet is deterministic; for n_s = 1 all choices are symmetric
    anyway.
    """
    require_integer("m", m, minimum=1)
    require_integer("n_s", n_s)
    require_in("n_s", n_s, 1, m, open_low=False, open_high=False)
    total = math.comb(m, n_s)
    k = 1 << (total.bit_length() - 1)
    patterns = np.zeros((k, m, n_s), dtype=np.float64)
    for i, combo in enumerate(itertools.islice(itertools.combinations(range(m), n_s), k)):
        for col, row in enumerate(combo):
            patterns[i, row, col] = 1.0
    return PatternAlphabet(m=m, n_s=n_s, patterns=patterns)


def _require_channel(channel) -> None:
    """Raise a ParameterError naming channel unless it is a ChannelRealization."""
    if not isinstance(channel, ChannelRealization):
        raise ParameterError(f"channel must be a ChannelRealization, got {type(channel).__name__}",
                             field="channel")


def build_abf(channel: ChannelRealization, m: int) -> np.ndarray:
    """Analog matrices (..., n_tx, m) steering one column along each of the m strongest paths.

    Columns are sqrt(n_tx) * a_tx(phi_j), which keeps every entry at unit
    modulus; the coherent array gain per beam is n_tx.
    """
    _require_channel(channel)
    require_integer("m", m)
    require_in("m", m, 1, channel.n_paths, open_low=False, open_high=False)
    return np.sqrt(channel.n_tx) * steering_vector(channel.aod[..., :m],
                                                   channel.n_tx).swapaxes(-1, -2)


def large_array_beams(w, g, theta, n_r: int) -> np.ndarray:
    """Large-array receive beams sqrt(w_j g_j) a_rx(theta_j), one per row, shape (..., m, n_r)."""
    return steering_vector(theta, n_r) * np.sqrt(w * g)[..., None]


def effective_channel(channel: ChannelRealization, abf: np.ndarray,
                      mode: str = "exact") -> np.ndarray:
    """Receive-side view H @ A of the steered beams, shape (..., n_rx, m).

    mode "exact" multiplies the full channel matrix; mode "asymptotic" takes
    the large-array limit where beam j collapses to sqrt(w_j n_tx) a_rx(theta_j)
    with no cross-path leakage. abf is taken as build_abf returns it.
    """
    _require_channel(channel)
    if mode == "exact":
        return build_channel(channel) @ abf
    if mode == "asymptotic":
        m = abf.shape[-1]
        return large_array_beams(channel.gains[..., :m], float(channel.n_tx),
                                 channel.aoa[..., :m], channel.n_rx).swapaxes(-1, -2)
    raise ParameterError(f"mode must be 'exact' or 'asymptotic', got {_shown(mode)}", field="mode")

"""Analog/digital beamformer construction and the spatial-pattern alphabet.

The analog stage steers one unit-modulus phase-shifter column per spatial
path; the pattern alphabet enumerates which subset of those columns the RF
chains drive in a given symbol period.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, steering_vector_rx, steering_vector_tx
from .errors import ParameterError


@dataclass(frozen=True)
class PatternAlphabet:
    """The k selection matrices (each m x n_s) an index-modulated symbol can pick."""

    m: int
    n_s: int
    patterns: np.ndarray  # (k, m, n_s), columns are distinct basis vectors

    @property
    def k(self) -> int:
        return self.patterns.shape[0]


@dataclass(frozen=True)
class BeamformerConfig:
    """Analog matrix (n_tx, m), digital matrix (n_s, n_s) and per-beam array gains."""

    abf: np.ndarray
    dbf: np.ndarray
    array_gains: np.ndarray
    path_indices: np.ndarray  # channel paths (strongest-first) each column steers

    @property
    def m(self) -> int:
        return self.abf.shape[1]


def pattern_alphabet(m: int, n_s: int) -> PatternAlphabet:
    """Alphabet size is the largest power of two not exceeding C(m, n_s).

    The retained patterns are the lexicographically first combinations, so
    the alphabet is deterministic; for n_s = 1 all choices are symmetric
    anyway.
    """
    if not 1 <= n_s <= m:
        raise ParameterError(f"need 1 <= n_s <= m, got n_s={n_s}, m={m}")
    total = math.comb(m, n_s)
    k = 1 << (total.bit_length() - 1)
    patterns = np.zeros((k, m, n_s), dtype=np.float64)
    for i, combo in enumerate(itertools.islice(itertools.combinations(range(m), n_s), k)):
        for col, row in enumerate(combo):
            patterns[i, row, col] = 1.0
    return PatternAlphabet(m=m, n_s=n_s, patterns=patterns)


def build_abf(channel: ChannelRealization, m: int, n_s: int = 1) -> BeamformerConfig:
    """Steer one scaled steering-vector column along each of the m strongest paths.

    Columns are sqrt(n_tx) * a_tx(phi_j), which keeps every entry at unit
    modulus; the coherent array gain per beam is n_tx. The digital stage is
    I/sqrt(n_s), spending the whole unit power budget (the scalar 1 when
    n_s = 1).
    """
    if not 1 <= m <= channel.n_paths:
        raise ParameterError(f"m must be in [1, {channel.n_paths}], got {m}")
    if n_s < 1 or n_s > m:
        raise ParameterError(f"need 1 <= n_s <= m, got n_s={n_s}")
    cols = [np.sqrt(channel.n_tx) * steering_vector_tx(channel.aod[j], channel.n_tx)
            for j in range(m)]
    return BeamformerConfig(
        abf=np.column_stack(cols),
        dbf=np.eye(n_s, dtype=np.complex128) / np.sqrt(n_s),
        array_gains=np.full(m, float(channel.n_tx)),
        path_indices=np.arange(m),
    )


def effective_channel(channel: ChannelRealization, config: BeamformerConfig,
                      mode: str = "exact") -> np.ndarray:
    """Receive-side view H @ A of the steered beams, shape (n_rx, m).

    mode "exact" multiplies the full channel matrix; mode "asymptotic" takes
    the large-array limit where beam j collapses to sqrt(w_j g_j) a_rx(theta_j)
    with no cross-path leakage.
    """
    if mode == "exact":
        from .channel import build_channel
        return build_channel(channel) @ config.abf
    if mode == "asymptotic":
        cols = []
        for col, j in enumerate(config.path_indices):
            amp = np.sqrt(channel.gains[j] * config.array_gains[col])
            cols.append(amp * steering_vector_rx(channel.aoa[j], channel.n_rx))
        return np.column_stack(cols)
    raise ParameterError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")


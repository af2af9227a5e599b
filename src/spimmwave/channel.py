"""Geometric narrow-band multipath channel and uniform-linear-array steering.

Angles are kept in the normalized form a = sin(physical)/2 in [-0.5, 0.5],
so a steering phase advances by 2*pi*a per array element. No function here
takes radians: a caller holding physical angles converts them first with
normalized_from_physical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import require_integer

DEFAULT_AOD_RANGE = (-0.35, 0.35)
DEFAULT_AOA_RANGE = (-0.25, 0.25)


@dataclass(frozen=True)
class ChannelRealization:
    """One narrow-band multipath draw: per-path gain, departure and arrival angle.

    Paths are stored strongest-first; construction sorts the (gain, aod, aoa)
    triples jointly by descending gain, ties keeping their original order.
    """

    n_tx: int
    n_rx: int
    aod: np.ndarray
    aoa: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        require_integer("n_tx", self.n_tx)
        require_integer("n_rx", self.n_rx)
        if self.n_tx < 1 or self.n_rx < 1:
            raise ParameterError("antenna counts must be >= 1")
        aod = np.atleast_1d(np.asarray(self.aod, dtype=np.float64))
        aoa = np.atleast_1d(np.asarray(self.aoa, dtype=np.float64))
        gains = np.atleast_1d(np.asarray(self.gains, dtype=np.float64))
        if not (len(aod) == len(aoa) == len(gains)) or len(gains) < 1:
            raise ParameterError("aod, aoa and gains must share a common length >= 1")
        if not np.all((gains >= 0) & (gains < np.inf)):
            raise ParameterError("path gains must be finite and non-negative")
        for name, angles in (("aod", aod), ("aoa", aoa)):
            if not np.all(np.abs(angles) <= 0.5):
                raise ParameterError(f"normalized {name} values must lie in [-0.5, 0.5]")
        order = np.argsort(-gains, kind="stable")
        object.__setattr__(self, "aod", aod[order])
        object.__setattr__(self, "aoa", aoa[order])
        object.__setattr__(self, "gains", gains[order])

    @property
    def n_paths(self) -> int:
        return len(self.gains)


def normalized_from_physical(angle_rad: float) -> float:
    """Map a physical angle in radians to the normalized form sin(angle)/2."""
    return float(0.5 * np.sin(angle_rad))


def steering_vector(angle, n: int) -> np.ndarray:
    """Unit-norm array response; entry k is exp(-j2*pi*a*(k-(n-1)/2))/sqrt(n).

    Both ends of the link use this one form. The response runs along a new
    last axis: a scalar angle gives shape (n,), a vector of m angles gives
    the (m, n) array with one response per row.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"array size n must be an integer >= 1, got {n!r}")
    angle = np.asarray(angle, dtype=np.float64)
    if not np.isfinite(angle).all():
        raise ParameterError("angle must be finite", field="angle")
    offsets = np.arange(n) - (n - 1) / 2.0
    angle = angle[..., None]
    return np.exp(-2j * np.pi * angle * offsets) / np.sqrt(n)


def build_channel(real: ChannelRealization) -> np.ndarray:
    """Assemble the (n_rx, n_tx) matrix sum_i sqrt(w_i) a_rx(theta_i) a_tx(phi_i)^H."""
    p = steering_vector(real.aoa, real.n_rx).T
    q = steering_vector(real.aod, real.n_tx)
    return (p * np.sqrt(real.gains)) @ q.conj()


def min_angle_separation(n_tx: int, n_rx: int) -> float:
    """Separation floor on pairwise angle distance, 1/(4 max(n_tx, n_rx))."""
    return 1.0 / (4.0 * max(n_tx, n_rx))


def _draw_separated(rng: np.random.Generator, n: int, lo: float, hi: float,
                    floor: float) -> np.ndarray:
    """n angles uniform over the points of [lo, hi]^n whose sorted gaps all reach floor.

    Sorted uniforms on [lo, hi - (n-1) floor], the i-th shifted by i floor,
    map volume-preservingly onto the sorted points of that set, so one draw
    is enough; the permutation puts the angles in random order. One angle is exactly
    uniform(lo, hi, 1), and its permutation draws nothing.
    """
    span = (n - 1) * floor
    if span > hi - lo:
        raise ParameterError(
            f"{n} angles at separation {floor} need a span of {span}, more than "
            f"[{lo}, {hi}] holds", field="n_paths")
    draw = np.sort(rng.uniform(lo, hi - span, size=n)) + floor * np.arange(n)
    return rng.permutation(draw)


def sample_channel(rng: np.random.Generator, n_tx: int, n_rx: int, n_paths: int, *,
                   gains, aod_range=DEFAULT_AOD_RANGE,
                   aoa_range=DEFAULT_AOA_RANGE) -> ChannelRealization:
    """Draw a channel with uniform angles and the given per-path powers.

    The angles on each side are uniform over the set whose pairwise
    distances all reach min_angle_separation, so near-coincident paths cannot
    occur at finite array sizes. They are drawn directly, departures then
    arrivals, and a separation that does not fit in a range fails at once
    with a ParameterError naming n_paths.
    """
    require_integer("n_paths", n_paths)
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1", field="n_paths")
    gains = np.asarray(gains, dtype=np.float64)
    if len(gains) != n_paths:
        raise ParameterError(f"expected {n_paths} gains, got {len(gains)}")
    for name, (lo, hi) in (("aod_range", tuple(aod_range)), ("aoa_range", tuple(aoa_range))):
        if not (-0.5 <= lo < hi <= 0.5):
            raise ParameterError(f"{name} must be an increasing pair within [-0.5, 0.5]")
    floor = min_angle_separation(n_tx, n_rx)
    aod = _draw_separated(rng, n_paths, *tuple(aod_range), floor)
    aoa = _draw_separated(rng, n_paths, *tuple(aoa_range), floor)
    return ChannelRealization(n_tx=n_tx, n_rx=n_rx, aod=aod, aoa=aoa, gains=gains)

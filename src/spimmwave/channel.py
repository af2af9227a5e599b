"""Geometric narrow-band multipath channel and uniform-linear-array steering.

Angles are kept in the normalized form a = sin(physical)/2 in [-0.5, 0.5],
so a steering phase advances by 2*pi*a per array element. No function here
takes radians: a caller holding physical angles converts them first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import _rekeyed, _require_paths, require_in, require_integer, require_number

DEFAULT_AOD_RANGE = (-0.35, 0.35)
DEFAULT_AOA_RANGE = (-0.25, 0.25)


@dataclass(frozen=True)
class ChannelRealization:
    """Narrow-band multipath draws: per-path gain, departure and arrival angle.

    aod, aoa and gains run along a last path axis; leading axes broadcast
    into a batch of realizations sharing n_tx and n_rx, and every function
    below returns one result per leading index. Paths are stored
    strongest-first: construction sorts each realization's (gain, aod, aoa)
    triples jointly by descending gain, ties keeping their original order.
    An array with no paths, or with a path count the other two do not share,
    fails naming it.
    """

    n_tx: int
    n_rx: int
    aod: np.ndarray
    aoa: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        require_integer("n_tx", self.n_tx, minimum=1)
        require_integer("n_rx", self.n_rx, minimum=1)
        gains = np.atleast_1d(require_in("gains", self.gains, 0, open_low=False))
        aod, aoa = (np.atleast_1d(require_in(name, getattr(self, name), -0.5, 0.5,
                                             open_low=False, open_high=False))
                    for name in ("aod", "aoa"))
        _require_paths(ParameterError, gains=gains, aod=aod, aoa=aoa)
        try:
            aod, aoa, gains = np.broadcast_arrays(aod, aoa, gains)
        except ValueError:
            raise ParameterError("aod, aoa and gains must broadcast along their leading axes",
                                 field="gains") from None
        order = np.argsort(-gains, axis=-1, kind="stable")
        for name, values in (("aod", aod), ("aoa", aoa), ("gains", gains)):
            object.__setattr__(self, name, np.take_along_axis(values, order, axis=-1))

    @property
    def n_paths(self) -> int:
        return self.gains.shape[-1]

    def _take(self, index) -> ChannelRealization:
        """The realizations at index of the leading axes, without checking or sorting them again.

        The arrays were checked and sorted when self was built, and indexing
        the leading axes keeps every path row whole, so the result holds what
        the constructor would make of it, for the cost of three index reads.
        index is any numpy index that leaves the last (path) axis alone.
        """
        out = object.__new__(ChannelRealization)
        vars(out).update(n_tx=self.n_tx, n_rx=self.n_rx, aod=self.aod[index],
                         aoa=self.aoa[index], gains=self.gains[index])
        return out


def steering_vector(angle, n: int) -> np.ndarray:
    """Unit-norm array response; entry k is exp(-j2*pi*a*(k-(n-1)/2))/sqrt(n).

    Both ends of the link use this one form. The response runs along a new
    last axis: a scalar angle gives shape (n,), a vector of m angles gives
    the (m, n) array with one response per row.
    """
    require_integer("n", n, minimum=1)
    angle = np.asarray(require_in("angle", angle))[..., None]
    offsets = np.arange(n) - (n - 1) / 2.0
    return np.exp(-2j * np.pi * angle * offsets) / np.sqrt(n)


def build_channel(real: ChannelRealization) -> np.ndarray:
    """Assemble the (..., n_rx, n_tx) matrices sum_i sqrt(w_i) a_rx(theta_i) a_tx(phi_i)^H."""
    p = steering_vector(real.aoa, real.n_rx).swapaxes(-1, -2)
    q = steering_vector(real.aod, real.n_tx)
    return (p * np.sqrt(real.gains)[..., None, :]) @ q.conj()


def min_angle_separation(n_tx: int, n_rx: int) -> float:
    """Separation floor on pairwise angle distance, 1/(4 max(n_tx, n_rx)), for array sizes >= 1."""
    require_integer("n_tx", n_tx, minimum=1)
    require_integer("n_rx", n_rx, minimum=1)
    return 1.0 / (4.0 * max(n_tx, n_rx))


def _separate(raw: np.ndarray, index: np.ndarray, floor: float) -> np.ndarray:
    """Angles whose sorted gaps all reach floor, from raw uniforms and a permutation per row.

    Each row along the last axis holds n uniforms on [lo, hi - (n-1) floor]:
    sorted and the i-th shifted by i floor, they map volume-preservingly onto
    the sorted points of [lo, hi]^n whose gaps all reach floor, so one draw
    is enough. The row's permutation index of range(n) then puts them in
    random order, as permutation(row) would with the same draws. The gaps
    reach floor to rounding: lo + i floor is rounded, so at or near a tight
    fit, (n-1) floor = hi - lo, a gap may fall short by a few ulps. All rows
    are sorted, shifted and gathered in one pass.
    """
    shifted = np.sort(raw, axis=-1) + floor * np.arange(raw.shape[-1])
    return np.take_along_axis(shifted, index, axis=-1)


def _draw_angles(rngs, n_paths: int, n_tx: int, n_rx: int, aod_range, aoa_range) -> tuple:
    """(len(rngs), n_paths) departure and arrival angles, one row per stream, in drawn order.

    This is the one draw of the channel streams, for sample_channel and the
    sweeps alike, at the separation floor of (n_tx, n_rx). A stream is a
    Generator, or the (seed, stream) key of make_rng(seed, stream); trial t
    of a sweep draws from the key (seed, t), and the keys share one re-keyed
    Philox (numerics._rekeyed). Each stream draws its departures' n_paths
    uniforms and permutation of range(n_paths), then its arrivals'; _separate
    turns every stream's draws into angles at once. The angles do not depend
    on the path gains. A range is a (lo, hi) pair and fails under its own
    name: lo must lie in [-0.5, 0.5), then hi in (lo, 0.5]; a separation that
    does not fit in it fails under n_paths.
    """
    ranges = []
    for name, pair in (("aod_range", aod_range), ("aoa_range", aoa_range)):
        try:
            lo, hi = pair
        except (TypeError, ValueError):
            raise ParameterError(f"{name} must be a (lo, hi) pair", field=name) from None
        lo = require_number(name, lo, -0.5, 0.5, open_low=False)
        ranges.append((lo, require_number(name, hi, lo, 0.5, open_high=False)))
    floor = min_angle_separation(n_tx, n_rx)
    span = (n_paths - 1) * floor
    for lo, hi in ranges:
        if span > hi - lo:
            raise ParameterError(
                f"{n_paths} angles at separation {floor} need a span of {span}, more than "
                f"[{lo}, {hi}] holds", field="n_paths")
    raw = np.empty((2, len(rngs), n_paths))
    index = np.broadcast_to(np.arange(n_paths), raw.shape).copy()
    keyed = _rekeyed(rng for rng in rngs if not isinstance(rng, np.random.Generator))
    for t, rng in enumerate(rngs):
        rng = rng if isinstance(rng, np.random.Generator) else next(keyed)
        for side, (lo, hi) in enumerate(ranges):
            raw[side, t] = rng.uniform(lo, hi - span, size=n_paths)
            rng.shuffle(index[side, t])  # permutation(n_paths), in place
    aod, aoa = _separate(raw, index, floor)
    return aod, aoa


def sample_channel(rng: np.random.Generator, n_tx: int, n_rx: int, n_paths: int, *,
                   gains, aod_range=DEFAULT_AOD_RANGE,
                   aoa_range=DEFAULT_AOA_RANGE) -> ChannelRealization:
    """Draw a channel with uniform angles and the given per-path powers.

    The angles on each side are uniform over the set whose pairwise
    distances all reach min_angle_separation, to rounding, so near-coincident
    paths cannot occur at finite array sizes. They are drawn directly from rng,
    departures then arrivals, by the one draw the sweeps make on their trial
    streams, so a sweep's trial t holds the angles of
    sample_channel(make_rng(seed, t), ...), bit for bit. A separation that
    does not fit in a range fails at once with a ParameterError naming n_paths.
    rng is a numpy Generator; anything else fails by name.
    """
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a Generator, got {type(rng).__name__}", field="rng")
    require_integer("n_paths", n_paths, minimum=1)
    gains = require_in("gains", gains)
    if np.shape(gains) != (n_paths,):
        raise ParameterError(f"expected {n_paths} gains, got shape {np.shape(gains)}",
                             field="gains")
    (aod,), (aoa,) = _draw_angles([rng], n_paths, n_tx, n_rx, aod_range, aoa_range)
    return ChannelRealization(n_tx=n_tx, n_rx=n_rx, aod=aod, aoa=aoa, gains=gains)

"""Log-determinant kernel and reproducible random sampling.

Every determinant taken in this package is of a Hermitian positive-definite
matrix I + M / c with M positive semidefinite: M = G^H G for the beams G
of one pattern, and for a pair of patterns M = R R^H, the Sylvester form of
the R of the pair's stacked beams [G_n, G_t] = Q R, which keeps its digits
where the two patterns' beams coincide. Two equal columns within one
pattern still make I + G^H G / c singular to rounding at small c.
Factorization goes through Cholesky: it is numerically stable and rejects
non-PD input for free. Determinants are only ever returned as logs, which
neither underflow nor overflow at large array sizes. Randomness is built
on counter-based Philox streams keyed by (seed, stream); identical pairs
reproduce identical sequences under any parallel schedule, distinct stream
ids are independent. A stream is fully defined by its key and counter, so a
loop that draws from many keys builds one Philox and re-keys it per key
(_rekeyed), with the draws of make_rng(seed, stream); the Philox state
layout lives in this module alone. The argument checks every module shares
live here too: require_integer for counts, require_in for every interval
domain, _require_number for arguments that take one number and _batch_shape
for arrays whose shapes must broadcast.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, ParameterError

_UINT64_MASK = (1 << 64) - 1


def require_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise a ParameterError naming the field unless value is an integer (a bool is not).

    A given minimum is checked too, under the same field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}", field=name)
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}", field=name)


def _as_real(name: str, value) -> np.ndarray:
    """value read once as a float64 array; a ParameterError names the field where it is not real.

    Whatever numpy reads as real numbers passes, an array of them included.
    A string, a complex value, a ragged list or an integer beyond the float
    range does not, nor a string inside an object array. None reads as NaN,
    which require_in then refuses.
    """
    try:
        array = np.asarray(value)
        # the cast would parse a string and drop a complex value's imaginary part
        if array.dtype.kind not in "biufO" or (
                array.dtype.kind == "O" and any(isinstance(x, (str, bytes)) for x in array.flat)):
            raise TypeError(f"dtype {array.dtype}")
        return array.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be real numbers, got {value!r}", field=name) from exc


def _require_number(**values) -> None:
    """Raise a ParameterError naming the first of values that is not one real number.

    A Python int or float passes on its type alone, before any numpy call.
    """
    for name, value in values.items():
        if not isinstance(value, (int, float)) and _as_real(name, value).ndim:
            raise ParameterError(f"{name} must be one number, got shape {np.shape(value)}",
                                 field=name)


def require_in(name: str, value, low: float = -math.inf, high: float = math.inf, *,
               open_low: bool = True, open_high: bool = True) -> None:
    """Raise a ParameterError naming the field unless every entry of value lies in the interval.

    The one domain rule of the package: value is a real scalar or array (any
    other value fails as _as_real says), the interval runs from low to high,
    each end open unless open_low or open_high is False, and NaN lies in no
    interval, so the default (-inf, inf) asks for finite entries. The message
    names the interval and the first entry outside it.
    """
    # The runners check many scalars and small arrays, so each check is kept cheap: a Python
    # number compares as it is, to a bool, at a tenth of a 0-d array's cost, and numpy compares
    # an array to a float bound at half an int's cost. A Python int is not cast, so one beyond
    # the float range still compares.
    lo, hi = float(low), float(high)
    if not isinstance(value, (int, float)):
        value = _as_real(name, value)
    inside = ((value > lo) if open_low else (value >= lo)) & (
        (value < hi) if open_high else (value <= hi))
    if not (inside if isinstance(inside, bool) else inside.all()):
        interval = f"{'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        bad = np.asarray(value)[~np.asarray(inside)].flat[0]
        raise ParameterError(f"{name} must lie in {interval}, got {bad}", field=name)


def _batch_shape(**shapes) -> tuple:
    """The broadcast of the named shapes; a DimensionError names them where they do not broadcast."""
    try:
        return np.broadcast_shapes(*shapes.values())
    except ValueError as exc:
        raise DimensionError(f"{', '.join(shapes)} have incompatible batch shapes "
                             f"{', '.join(map(str, shapes.values()))}") from exc


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream) pair of the splittable RNG contract; both are integers."""
    require_integer("seed", seed)
    require_integer("stream", stream)
    key = np.array([seed & _UINT64_MASK, stream & _UINT64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed(keys: Iterable[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """One Generator per (seed, stream) key in turn, each drawing as make_rng(seed, stream).

    The Generator of the first key is built by make_rng; every later key
    restarts it by setting its Philox state to the masked key, a zero counter,
    an empty buffer (its four words used up) and no buffered uint32: the
    state a new Philox starts in. Building a Philox costs far more, most of it
    a SeedSequence drawing OS entropy that the key then overrides. Every key
    yields the same object, valid until the next key is taken.
    """
    rng = None
    for seed, stream in keys:
        if rng is None:
            rng = make_rng(seed, stream)
        else:
            rng.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0],
                          "key": [seed & _UINT64_MASK, stream & _UINT64_MASK]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


def hermitian_logdet(m: np.ndarray):
    """Natural log-determinant of a Hermitian positive-definite matrix.

    A 2-D input returns a float; a stack of matrices over leading axes returns
    the array of their log-determinants. Raises if any matrix is not square,
    not Hermitian or not positive definite.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {m.shape}")
    # tolerance scales with entry magnitude; matrices formed as G^H G are
    # Hermitian to rounding, so this only catches misuse (and NaN)
    tol = 1e-12 * max(1.0, float(np.abs(m).max(initial=0.0)))
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0) <= tol:
        raise ParameterError("matrix m is not Hermitian", field="m")
    out = cholesky_logdet(m)[1]
    return float(out) if m.ndim == 2 else out


def cholesky_logdet(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors L of Hermitian positive-definite matrices, and their log-determinants.

    A stack over leading axes gives a stack of factors and an array of logs.
    Only the lower triangles are read; raises if any matrix is not positive
    definite.
    """
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return chol, 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)

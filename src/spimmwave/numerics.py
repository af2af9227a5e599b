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
live here too. require_in is the one read of a numeric argument: it checks
the value against an interval and returns what it read, a float for a
Python number and a float64 array otherwise, so no caller casts an
argument again after checking it; require_complex is its twin for the
complex arrays. require_number is that read for an argument that takes one
number, require_integer checks counts (their minimum through require_in),
_require_paths the path counts of arrays that hold paths on their last
axis, and _batch_shape arrays whose shapes must broadcast. An error message
shows a value through _shown, which never lets repr raise.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, ParameterError

_UINT64_MASK = (1 << 64) - 1


def _shown(value) -> str:
    """repr(value) for an error message, or its type's name where repr fails.

    repr raises for an int of more digits than Python prints (4300 by
    default), alone or inside a list, and it runs the value's own __repr__,
    which may raise anything; a message about a bad value must still be made.
    """
    try:
        return repr(value)
    except Exception:
        return f"a value of type {type(value).__name__}"


def require_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise a ParameterError naming the field unless value is an integer (a bool is not).

    A given minimum is checked too, under the same field, by require_in, so a
    count beyond the float range fails by name as well.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {_shown(value)}", field=name)
    if minimum is not None:
        require_in(name, value, minimum, open_low=False)


def require_in(name: str, value, low: float = -math.inf, high: float = math.inf, *,
               open_low: bool = True, open_high: bool = True):
    """value read once as real numbers, checked to lie in the interval, and returned.

    The one domain rule of the package. A Python int or float comes back as a
    float, any other value as a float64 array. A value that does not read as
    real numbers raises a ParameterError naming the field: a string (also
    inside an object array), a complex value, a ragged list, or an int beyond
    the float range. None reads as NaN. The interval runs from low to high,
    each end open unless open_low or open_high is False, and NaN lies in no
    interval, so the default (-inf, inf) asks for finite entries. The message
    names the interval and the first entry outside it.
    """
    # The runners check many scalars and small arrays, so each check is kept cheap: a Python
    # number is compared as a float, to a bool, at a tenth of a 0-d array's cost, and numpy
    # compares an array to a float bound at half an int's cost.
    lo, hi = float(low), float(high)
    try:
        if isinstance(value, (int, float)):
            read = float(value)
        else:
            read = np.asarray(value)
            # the cast would parse a string and drop a complex value's imaginary part
            if read.dtype.kind not in "biufO" or (
                    read.dtype.kind == "O" and any(isinstance(x, (str, bytes)) for x in read.flat)):
                raise TypeError(f"dtype {read.dtype}")
            read = read.astype(np.float64, copy=False)
    except OverflowError as exc:  # an int beyond the float range, alone or in a list
        raise ParameterError(f"{name} must lie within the float range", field=name) from exc
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be real numbers, got {_shown(value)}",
                             field=name) from exc
    inside = ((read > lo) if open_low else (read >= lo)) & (
        (read < hi) if open_high else (read <= hi))
    if not (inside if isinstance(inside, bool) else inside.all()):
        interval = f"{'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        bad = value if isinstance(read, float) else read[~inside].flat[0]
        raise ParameterError(f"{name} must lie in {interval}, got {bad}", field=name)
    return read


def require_complex(name: str, value) -> np.ndarray:
    """value read once as a complex128 array, the complex twin of require_in.

    The read is the cast the callers made before, plus one dtype test, so an
    array on the hot path costs what it did. A value that does not read as
    complex numbers raises a ParameterError naming the field: a string (also
    inside an object array), a ragged list, or an int beyond the float range.
    Shapes and finiteness are the caller's to check.
    """
    try:
        read = value if isinstance(value, np.ndarray) else np.asarray(value)
        kind = read.dtype.kind
        # the cast would parse a string
        if kind not in "biufc" and (kind != "O" or any(isinstance(x, (str, bytes))
                                                       for x in read.flat)):
            raise TypeError(f"dtype {read.dtype}")
        return np.asarray(read, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be complex numbers, got {_shown(value)}",
                             field=name) from exc


def require_number(name: str, value, *bounds, **ends) -> float:
    """require_in(name, value, *bounds, **ends) for an argument that takes one number, as a float.

    An array of any shape but () raises a ParameterError naming the field.
    """
    read = require_in(name, value, *bounds, **ends)
    if not isinstance(read, float) and read.ndim:
        raise ParameterError(f"{name} must be one number, got shape {read.shape}", field=name)
    return float(read)


def _require_paths(error: type, **arrays) -> None:
    """Raise error naming the first of arrays with no paths or a path count no other shares.

    The arrays hold paths on their last axis, and all must hold the same number.
    """
    counts = [x.shape[-1] for x in arrays.values()]
    for name, count in zip(arrays, counts):
        if not count or counts.count(count) == 1:
            raise error(f"{', '.join(arrays)} must hold the same number of paths, at least one, "
                        f"on their last axis; {name} holds {count}", field=name)


def _batch_shape(**shapes) -> tuple:
    """The broadcast of the named shapes; a DimensionError names them where they do not broadcast."""
    try:
        return np.broadcast_shapes(*shapes.values())
    except ValueError as exc:
        raise DimensionError(f"{', '.join(shapes)} have incompatible batch shapes "
                             f"{', '.join(map(str, shapes.values()))}") from exc


@functools.cache
def _fixed_seed_sequence() -> np.random.SeedSequence:
    """The one SeedSequence every make_rng Philox is built from before its key is set.

    Philox(key=...) builds a SeedSequence from OS entropy and ignores it. Only
    the key and counter define a stream, so this shared sequence reaches no
    draw; Generator.spawn would read it, and is outside the RNG contract,
    whose further streams are new stream ids. It is made on first use, so
    importing the package does not load numpy.random.
    """
    return np.random.SeedSequence(0)


def _philox_state(seed: int, stream: int) -> dict:
    """The state a new Philox keyed by (seed, stream) starts in, each masked to 64 bits.

    A zero counter, an empty buffer (its four words used up) and no buffered
    uint32: this module alone knows the layout.
    """
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed & _UINT64_MASK, stream & _UINT64_MASK]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream) pair of the splittable RNG contract; both are integers.

    It draws as Generator(Philox(key=[seed, stream])) with both masked to 64
    bits, without the OS entropy that constructor reads and ignores. Its
    Generator.spawn is outside that contract: every make_rng generator shares
    one fixed SeedSequence, so spawned children ignore (seed, stream) and
    depend on how many spawns came before them in the process. A further
    stream is make_rng(seed, new stream id).
    """
    require_integer("seed", seed)
    require_integer("stream", stream)
    bits = np.random.Philox(_fixed_seed_sequence())
    bits.state = _philox_state(seed, stream)
    return np.random.Generator(bits)


def _rekeyed(keys: Iterable[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """One Generator per (seed, stream) key in turn, each drawing as make_rng(seed, stream).

    The Generator of the first key is built by make_rng; every later key
    restarts it by setting its Philox state to _philox_state(seed, stream),
    the state a new Philox starts in, which costs far less than building one.
    Every key yields the same object, valid until the next key is taken.
    """
    rng = None
    for seed, stream in keys:
        if rng is None:
            rng = make_rng(seed, stream)
        else:
            rng.bit_generator.state = _philox_state(seed, stream)
        yield rng


def hermitian_logdet(m: np.ndarray):
    """Natural log-determinant of a Hermitian positive-definite matrix.

    A 2-D input returns a float; a stack of matrices over leading axes returns
    the array of their log-determinants. Raises if any matrix is not square,
    not Hermitian or not positive definite.
    """
    m = require_complex("m", m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {m.shape}", field="m")
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

"""Log-determinant kernel and reproducible random sampling.

Every determinant taken in this package is of a Hermitian positive-definite
matrix I + W^H W / c, W the beams of one pattern or of two distinct ones.
No self pair [G, G] is ever factored, so these matrices are positive
definite in floating point too, not only in exact arithmetic, as long as
no two beams coincide. Factorization goes through Cholesky: it is
numerically stable and rejects non-PD input for free. Determinants are
only ever returned as logs, which neither underflow nor overflow at large
array sizes. Randomness is built on counter-based Philox streams keyed by
(seed, stream); identical pairs reproduce identical sequences under any
parallel schedule, distinct stream ids are independent.
"""

from __future__ import annotations

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


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream) pair of the splittable RNG contract."""
    key = np.array([seed & _UINT64_MASK, stream & _UINT64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        raise ParameterError("matrix is not Hermitian")
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

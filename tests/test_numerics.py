"""Determinant kernel and sampling contracts."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spimmwave import (
    DimensionError,
    NotPositiveDefiniteError,
    ParameterError,
    hermitian_logdet,
    make_rng,
)
from spimmwave.numerics import _rekeyed


def naive_det(m: np.ndarray) -> complex:
    """Cofactor expansion along the first row; independent oracle for n <= 4."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * naive_det(minor)
    return total


def test_identity_det():
    assert hermitian_logdet(np.eye(3)) == 0.0


def test_diagonal_det():
    assert hermitian_logdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0))


def test_rank_one_update_det():
    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    m = np.eye(2) + np.outer(v, v.conj())
    # matrix determinant lemma: det = 1 + ||v||^2 = 2
    assert hermitian_logdet(m) == pytest.approx(np.log(2.0), rel=1e-12)
    assert_allclose(np.real(naive_det(m)), 2.0, rtol=1e-12)


def test_cofactor_oracle_agreement():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(1, 5)
        k = rng.integers(1, 4)
        r = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        n0 = rng.uniform(0.05, 2.0)
        m = n0 * np.eye(n) + r @ r.conj().T
        expected = np.real(naive_det(m))
        assert_allclose(hermitian_logdet(m), np.log(expected), rtol=1e-10)


def test_sylvester_determinant_identity():
    # |I + AB| = |I + BA| for conformable A (n x k), B (k x n)
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(1, 9)
        k = rng.integers(1, n + 1)
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        lhs = np.linalg.det(np.eye(n) + a @ b)
        rhs = np.linalg.det(np.eye(k) + b @ a)
        assert_allclose(lhs, rhs, rtol=1e-10)
        # Hermitian specialization exercised through the package kernel
        assert_allclose(hermitian_logdet(np.eye(n) + a @ a.conj().T),
                        hermitian_logdet(np.eye(k) + a.conj().T @ a), rtol=1e-10)


def test_batched_logdet_matches_one_by_one():
    rng = np.random.default_rng(11)
    r = rng.standard_normal((3, 4, 5, 2)) + 1j * rng.standard_normal((3, 4, 5, 2))
    stack = np.eye(5) + r @ r.conj().swapaxes(-1, -2)
    batched = hermitian_logdet(stack)
    assert batched.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert batched[idx] == pytest.approx(hermitian_logdet(stack[idx]), rel=1e-12)
    assert isinstance(hermitian_logdet(stack[0, 0]), float)


def test_tiny_and_large_determinants_stay_finite():
    # the determinants themselves underflow or overflow a double; their logs do not
    assert hermitian_logdet(1e-8 * np.eye(60)) == pytest.approx(60 * np.log(1e-8), rel=1e-12)
    assert hermitian_logdet(1e3 * np.eye(512)) == pytest.approx(512 * np.log(1e3), rel=1e-12)


def test_rejects_non_square():
    with pytest.raises(DimensionError):
        hermitian_logdet(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        hermitian_logdet(np.ones(4))


def test_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        hermitian_logdet(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ParameterError):
        hermitian_logdet(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_logdet(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        hermitian_logdet(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


def test_gaussian_determinism():
    a = make_rng(9, 2).standard_normal(64)
    b = make_rng(9, 2).standard_normal(64)
    c = make_rng(9, 3).standard_normal(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_streams_independent_of_order():
    first = make_rng(5, 0).standard_normal(8)
    # drawing stream 1 first must not perturb stream 0
    make_rng(5, 1).standard_normal(8)
    again = make_rng(5, 0).standard_normal(8)
    assert np.array_equal(first, again)


def _plain(state):
    """A bit generator's state with its arrays as lists, so that == compares every field."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


# a negative seed, a stream at 2^64 + 3 (masked to 3) and a sampler chunk stream c 2^32 + j
REKEYED = [(-7, 0), (9, 2), (-7, 0), (2, (1 << 64) + 3), (2, 3), (5, 3 * (1 << 32) + 1)]


def test_rekeyed_streams_equal_fresh_generators():
    # each key restarts the one Philox in the state a new one starts in, after a draw that
    # left it mid-buffer with a buffered uint32, and then draws as make_rng(seed, stream)
    out, fresh_out = np.empty(6), np.empty(6)
    for rng, key in zip(_rekeyed(REKEYED), REKEYED):
        fresh = make_rng(*key)
        assert _plain(rng.bit_generator.state) == _plain(fresh.bit_generator.state)
        assert np.array_equal(rng.uniform(-0.3, 0.2, size=5), fresh.uniform(-0.3, 0.2, size=5))
        assert np.array_equal(rng.permutation(7), fresh.permutation(7))
        rng.standard_normal(out=out)
        fresh.standard_normal(out=fresh_out)
        assert np.array_equal(out, fresh_out)
        # permutation(2) draws one uint32: go on until one is buffered, words left in the buffer
        while not (rng.bit_generator.state["has_uint32"] == 1
                   and rng.bit_generator.state["buffer_pos"] < 4):
            assert np.array_equal(rng.permutation(2), fresh.permutation(2))


@pytest.mark.parametrize("key", REKEYED + [(0, 0), (-1, -1), (1 << 64, 1 << 65), (-(1 << 70), 7),
                                     ((1 << 64) - 1, (1 << 63) + 5)])
def test_make_rng_draws_as_philox_keyed_by_the_masked_pair(key, monkeypatch):
    # the keyed Philox reads OS entropy and ignores it; make_rng must read none and draw the same
    seed, stream = key
    expected = np.random.Generator(np.random.Philox(
        key=np.array([seed & ((1 << 64) - 1), stream & ((1 << 64) - 1)], dtype=np.uint64)))

    def no_entropy(*args):
        raise AssertionError("make_rng read OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    rng = make_rng(seed, stream)
    assert _plain(rng.bit_generator.state) == _plain(expected.bit_generator.state)
    assert np.array_equal(rng.uniform(-0.3, 0.2, size=5), expected.uniform(-0.3, 0.2, size=5))
    assert np.array_equal(rng.permutation(7), expected.permutation(7))
    assert np.array_equal(rng.standard_normal(9), expected.standard_normal(9))


def test_rekeyed_streams_reuse_one_generator():
    rngs = {id(rng) for rng in _rekeyed(REKEYED)}
    assert len(rngs) == 1
    assert list(_rekeyed([])) == []


def test_philox_is_built_and_rekeyed_only_in_numerics():
    # the Philox state layout lives in one module
    sites = {"Philox": set(), "state": set()}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "spimmwave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Philox"):
                sites["Philox"].add(path.stem)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(ast.unparse(t).endswith("bit_generator.state") for t in targets):
                    sites["state"].add(path.stem)
    assert sites == {"Philox": {"numerics"}, "state": {"numerics"}}


def test_every_parameter_error_names_its_field():
    # a raise without field= would reach the caller with field None; find it from the source
    calls = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "spimmwave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "ParameterError":
                calls.append((f"{path.name}:{node.lineno}", {
                    k.arg for k in node.keywords
                    if not (isinstance(k.value, ast.Constant) and k.value.value is None)}))
    assert len(calls) > 10  # the walk reached the package
    assert [where for where, keywords in calls if "field" not in keywords] == []


def test_each_factorization_has_one_call_site():
    # one function decides how a pair of patterns is factored, and one runs Cholesky
    sites = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "spimmwave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk goes outside in, so a call maps to its innermost enclosing function
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.endswith(("linalg.qr", "linalg.cholesky")):
                    where = f"{path.stem}.{owner.get(id(node), '<module>')}"
                    sites.setdefault(name.rsplit(".", 1)[1], []).append(where)
    assert sites == {"qr": ["capacity._pair_factors"],
                     "cholesky": ["numerics.cholesky_logdet"]}

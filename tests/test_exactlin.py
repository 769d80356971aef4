"""Exact linear algebra over prime fields: pinned examples plus fuzzed laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtl.exactlin import (
    MAX_CHAR,
    PrimeField,
    is_prime,
    kernel_mod,
    matmul_mod,
    rank_mod,
    rref,
    solve_mod,
)


def test_is_prime_small_table():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_prime_field_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(MAX_CHAR + 11)
    # the largest allowed characteristic is prime and accepted
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_rref_pinned_example():
    r, pivots = rref([[2, 4], [1, 2]], 5)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_rref_identity_and_idempotence():
    mat = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    r, pivots = rref(mat, 11)
    assert r.tolist() == np.eye(3, dtype=int).tolist()
    assert pivots == (0, 1, 2)
    again, _ = rref(r, 11)
    assert np.array_equal(again, r)


def test_matmul_mod_no_overflow_near_word_size():
    p = 2**31 - 1
    a = np.full((3, 4), p - 1, dtype=np.int64)
    b = np.full((4, 2), p - 2, dtype=np.int64)
    got = matmul_mod(a, b, p)
    want = [[sum((p - 1) * (p - 2) for _ in range(4)) % p] * 2 for _ in range(3)]
    assert got.tolist() == want


def test_solve_mod_inconsistent_returns_none():
    assert solve_mod([[1], [0]], [0, 1], 5) is None


def test_solve_mod_sets_free_variables_to_zero():
    sol = solve_mod([[1, 1]], [1], 7)
    assert sol.tolist() == [1, 0]


def test_solve_mod_multiple_rhs():
    a = [[1, 0], [1, 1]]
    sol = solve_mod(a, np.eye(2, dtype=np.int64), 3)
    assert matmul_mod(np.array(a), sol, 3).tolist() == np.eye(2, dtype=int).tolist()


def test_kernel_mod_basis_convention():
    # x + 2y + z = 0 mod 5: free columns are 1 and 2, each kernel vector
    # sets its free variable to one.
    ker = kernel_mod([[1, 2, 1]], 5)
    assert ker.shape == (3, 2)
    assert ker[:, 0].tolist() == [3, 1, 0]
    assert ker[:, 1].tolist() == [4, 0, 1]


@st.composite
def matrix_and_prime(draw):
    p = draw(st.sampled_from([2, 3, 5, 13]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64), p


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime())
def test_rank_nullity_and_kernel(mp):
    mat, p = mp
    ker = kernel_mod(mat, p)
    assert rank_mod(mat, p) + ker.shape[1] == mat.shape[1]
    if ker.shape[1]:
        assert not np.any(matmul_mod(mat, ker, p))


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime(), st.integers(0, 10**6))
def test_solve_recovers_consistent_systems(mp, seed):
    mat, p = mp
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=mat.shape[1])
    b = matmul_mod(mat, x.reshape(-1, 1), p).reshape(-1)
    sol = solve_mod(mat, b, p)
    assert sol is not None
    assert matmul_mod(mat, sol.reshape(-1, 1), p).reshape(-1).tolist() == b.tolist()


@settings(max_examples=40, deadline=None)
@given(matrix_and_prime())
def test_rref_is_deterministic_and_reduced(mp):
    mat, p = mp
    r1, piv1 = rref(mat, p)
    r2, piv2 = rref(mat.copy(), p)
    assert np.array_equal(r1, r2) and piv1 == piv2
    for row, col in enumerate(piv1):
        assert r1[row, col] == 1
        others = [r for r in range(r1.shape[0]) if r != row]
        assert not np.any(r1[others, col])


def test_prime_field_inverse():
    f = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert f.inv(3) == 5

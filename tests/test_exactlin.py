"""Exact linear algebra over prime fields: pinned examples plus fuzzed laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtl import exactlin
from gtl.exactlin import (
    MAX_CHAR,
    PrimeField,
    as_residues,
    complement,
    is_prime,
    kernel_mod,
    matmul_mod,
    rank_mod,
    residues_and_max,
    rref,
    solve_mod,
)


# Reference implementations: the plain int64 kernels the library's rref and
# matmul_mod must agree with exactly.


def reference_rref(mat, p, pivot_cols=None):
    """Full-width row reduction with the library's pivot rule, pivots sought in the first pivot_cols columns."""
    r_mat = np.array(mat, dtype=np.int64) % p
    rows, cols = r_mat.shape
    pivots = []
    r = 0
    for c in range(cols if pivot_cols is None else min(pivot_cols, cols)):
        if r == rows:
            break
        nz = np.flatnonzero(r_mat[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            r_mat[[r, i], :] = r_mat[[i, r], :]
        inv = pow(int(r_mat[r, c]), -1, p)
        r_mat[r] = (r_mat[r] * inv) % p
        factors = r_mat[:, c].copy()
        factors[r] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            r_mat[hit] = (r_mat[hit] - factors[hit, None] * r_mat[r][None, :]) % p
        pivots.append(c)
        r += 1
    return r_mat, tuple(pivots)


def reference_matmul_mod(a, b, p):
    """int64 product accumulated in chunks whose sums of terms below p**2 fit."""
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    block = max(1, (2**62) // max(1, (p - 1) ** 2))
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, block):
        acc = (acc + a[:, lo : lo + block] @ b[lo : lo + block, :]) % p
    return acc


def reference_solve(mat, rhs, p):
    """Canonical solution (free variables zero) read off reference_rref of [A | B]."""
    n = mat.shape[1]
    red, pivots = reference_rref(np.hstack([mat, rhs]), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = red[row, n:]
    return x


def reference_kernel(mat, p):
    """One column per free variable (ascending), set to 1, from reference_rref."""
    red, pivots = reference_rref(mat, p)
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    ker = np.zeros((mat.shape[1], len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        ker[f, j] = 1
        for row, c in enumerate(pivots):
            ker[c, j] = (-red[row, f]) % p
    return ker


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


def test_matmul_and_solve_reject_mismatched_shapes():
    zeros = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match=r"matmul shape mismatch: \(2, 3\) @ \(2, 2\)"):
        matmul_mod(np.zeros((2, 3), dtype=np.int64), zeros, 5)
    with pytest.raises(ValueError, match=r"solve shape mismatch: \(2, 2\) vs rhs \(3, 1\)"):
        solve_mod(zeros, np.zeros(3, dtype=np.int64), 5)


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


@settings(max_examples=60)
@given(matrix_and_prime())
def test_rank_nullity_and_kernel(mp):
    mat, p = mp
    ker = kernel_mod(mat, p)
    assert rank_mod(mat, p) + ker.shape[1] == mat.shape[1]
    if ker.shape[1]:
        assert not np.any(matmul_mod(mat, ker, p))


@settings(max_examples=60)
@given(matrix_and_prime(), st.integers(0, 10**6))
def test_solve_recovers_consistent_systems(mp, seed):
    mat, p = mp
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=mat.shape[1])
    b = matmul_mod(mat, x.reshape(-1, 1), p).reshape(-1)
    sol = solve_mod(mat, b, p)
    assert sol is not None
    assert matmul_mod(mat, sol.reshape(-1, 1), p).reshape(-1).tolist() == b.tolist()


def solve_via_augmented_identity(mat, rhs, p):
    """Reference solver: reduce [A | I], then apply the row transform to B."""
    arr = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64) % p
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    m, n = arr.shape
    red, pivots = reference_rref(np.hstack([arr, np.eye(m, dtype=np.int64)]), p)
    piv_a = [c for c in pivots if c < n]
    tb = matmul_mod(red[:, n:], b, p)
    if np.any(tb[len(piv_a):]):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, c in enumerate(piv_a):
        x[c] = tb[row]
    return x[:, 0] if vector_rhs else x


@st.composite
def linear_system(draw):
    """A (often tall) system with zero to several right-hand sides, some inconsistent."""
    p = draw(st.sampled_from([2, 3, 5, 13]))
    m = draw(st.integers(1, 14))
    n = draw(st.integers(0, 4))
    k = draw(st.integers(1, 4))
    entries = lambda rows, cols: st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    mat = np.array(draw(entries(m, n)), dtype=np.int64).reshape(m, n)
    x = np.array(draw(entries(n, k)), dtype=np.int64).reshape(n, k)
    rhs = matmul_mod(mat, x, p)
    for col in draw(st.sets(st.integers(0, k - 1), max_size=k)):
        rhs[:, col] = draw(entries(1, m))[0]  # usually outside the column span when m > n
    if draw(st.booleans()):
        rhs = rhs[:, 0]
    return mat, rhs, p


@settings(max_examples=150)
@given(linear_system())
def test_solve_matches_the_augmented_identity_reference(system):
    mat, rhs, p = system
    got = solve_mod(mat, rhs, p)
    want = solve_via_augmented_identity(mat, rhs, p)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=40)
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


# 33554393 is the largest prime below 2**25: one product of residues is close to
# 2**50, so a float64 chunk holds only 8 terms and an inner dimension of a few
# dozen spans several chunks.  2**31 - 1 is too large for any float64 chunk.
DIFFERENTIAL_PRIMES = [2, 3, 7, 33554393, 2**31 - 1]


def entries(p):
    """Residues, plus integers outside [0, p) of either sign."""
    wide = 3 * p if p < 2**30 else p - 1
    return st.one_of(st.integers(0, p - 1), st.integers(-wide, wide))


@st.composite
def matrices(draw, p, max_rows=8, max_cols=8):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    flat = draw(st.lists(entries(p), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


@st.composite
def prime_and_matrix(draw):
    p = draw(st.sampled_from(DIFFERENTIAL_PRIMES))
    return p, draw(matrices(p))


@settings(max_examples=150)
@given(prime_and_matrix(), st.one_of(st.none(), st.integers(0, 9)))
def test_rref_matches_the_reference(pm, pivot_cols):
    p, mat = pm
    got, pivots = rref(mat, p, pivot_cols)
    want, want_pivots = reference_rref(mat, p, pivot_cols)
    assert pivots == want_pivots
    assert np.array_equal(got, want)
    if pivot_cols is not None:
        assert pivots == rref(mat[:, :pivot_cols], p)[1]


@settings(max_examples=100)
@given(prime_and_matrix())
def test_kernel_mod_matches_the_reference(pm):
    p, mat = pm
    assert np.array_equal(kernel_mod(mat, p), reference_kernel(mat, p))


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(0, max(n - 1, 0)), max_size=n))))
def test_complement_matches_setdiff1d(case):
    n, taken = case
    taken = tuple(sorted(taken))
    assert np.array_equal(complement(taken, n), np.setdiff1d(np.arange(n), taken))


@given(st.sampled_from([2, 3, 7, MAX_CHAR - 1]), st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6))
def test_as_residues_reduces_every_int64(p, values):
    data = np.array(values, dtype=np.int64)
    want = np.array([v % p for v in values], dtype=np.int64)
    got = as_residues(data, p)
    assert np.array_equal(got, want) and got is not data
    assert as_residues(data, p, copy=False) is data and np.array_equal(data, want)


@given(st.sampled_from([2, 3, 7, MAX_CHAR - 1]), st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6))
def test_residues_and_max_reads_the_max_before_reducing(p, values):
    data = np.array(values, dtype=np.int64)
    got, top = residues_and_max(data, p)
    # a negative entry reads as itself plus 2**64, so it is above every p
    assert top == max((v % 2**64 for v in values), default=0)
    assert np.array_equal(got, [v % p for v in values]) and got is not data
    assert (top < p) == all(0 <= v < p for v in values)


@st.composite
def prime_and_system(draw):
    """A system with one to three right-hand sides, consistent or not.

    The "deficient" kind has rank below its row count: a consistent
    right-hand side with one unit vector added to one column, which is
    inconsistent whenever that unit vector leaves the column span.
    """
    p = draw(st.sampled_from(DIFFERENTIAL_PRIMES))

    def shaped(rows, cols):
        flat = draw(st.lists(entries(p), min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.int64).reshape(rows, cols)

    kind = draw(st.sampled_from(["consistent", "random", "deficient"]))
    if kind == "deficient":
        rows = draw(st.integers(1, 8))
        left = shaped(rows, draw(st.integers(0, rows - 1)))
        mat = reference_matmul_mod(left % p, shaped(left.shape[1], draw(st.integers(0, 8))) % p, p)
    else:
        mat = draw(matrices(p))
    k = draw(st.integers(1, 3))
    if kind == "random":
        return p, mat, shaped(mat.shape[0], k)
    rhs = reference_matmul_mod(mat % p, shaped(mat.shape[1], k) % p, p)
    if kind == "deficient":
        rhs[draw(st.integers(0, rows - 1)), draw(st.integers(0, k - 1))] += 1
    return p, mat, rhs


@settings(max_examples=150)
@given(prime_and_system())
def test_solve_mod_matches_the_reference(system):
    p, mat, rhs = system
    got = solve_mod(mat, rhs, p)
    want = reference_solve(mat, rhs, p)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
        assert np.array_equal(solve_mod(mat, rhs[:, 0], p), want[:, 0])


@st.composite
def prime_and_product(draw):
    """Small, square-ish and thin operands, so both the int64 and the float64 paths run.

    The thin ones (100-400 rows, inner dimension 30-64, 1-6 columns) fall on
    both sides of the float64 path's multiply-add threshold and of its
    one-column rule.  Entries come from a seeded generator (drawing each
    one through hypothesis is too slow at this size): residues, the largest
    residue p - 1 everywhere, or integers of either sign outside [0, p).
    """
    p = draw(st.sampled_from(DIFFERENTIAL_PRIMES))
    size = draw(st.sampled_from(["small", "square", "thin"]))
    if size == "small":
        m, k, n = draw(st.integers(0, 4)), draw(st.integers(0, 12)), draw(st.integers(0, 4))
    elif size == "square":
        m, k, n = draw(st.integers(12, 24)), draw(st.integers(9, 48)), draw(st.integers(12, 24))
    else:
        m, k, n = draw(st.integers(100, 400)), draw(st.integers(30, 64)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = 3 * p if p < 2**30 else p - 1

    def operand(shape):
        kind = draw(st.sampled_from(["residues", "top", "wide"]))
        if kind == "top":
            return np.full(shape, p - 1, dtype=np.int64)
        lo, hi = (0, p) if kind == "residues" else (-wide, wide + 1)
        return rng.integers(lo, hi, shape, dtype=np.int64)

    return p, operand((m, k)), operand((k, n))


@settings(max_examples=200)
@given(prime_and_product())
def test_matmul_mod_matches_the_reference(product):
    p, a, b = product
    got = matmul_mod(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_matmul_mod(a, b, p))


@pytest.mark.parametrize("p", [3, 33554393])
@pytest.mark.parametrize("kind", ["top", "random"])
def test_matmul_mod_is_exact_over_many_float_chunks(p, kind):
    # an inner dimension of 300 crosses many chunk boundaries at p near 2**25;
    # p - 1 everywhere makes every term the largest a residue allows, and
    # random residues have low bits that a rounded partial sum would lose
    rng = np.random.default_rng(7)
    if kind == "top":
        a = np.full((20, 300), p - 1, dtype=np.int64)
        b = np.full((300, 20), p - 1, dtype=np.int64)
    else:
        a = rng.integers(0, p, (20, 300), dtype=np.int64)
        b = rng.integers(0, p, (300, 20), dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, p), reference_matmul_mod(a, b, p))


@pytest.mark.parametrize("p", [3, 33554393])
def test_matmul_mod_tiles_a_large_product_exactly(p):
    # 400 x 300 @ 300 x 1000 spans several row and column tiles of the
    # float64 path; the tiles must land in the right places
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, (400, 300), dtype=np.int64)
    b = rng.integers(0, p, (300, 1000), dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, p), reference_matmul_mod(a, b, p))


@pytest.mark.parametrize("shape, route", [
    ((400, 64, 1), "int64"),  # enough work, one output column
    ((1, 16384, 1), "int64"),
    ((400, 64, 2), "float64"),
    ((2, 64, 128), "float64"),  # two rows, many columns
    ((60, 28, 15), "float64"),
    ((1, 8191, 2), "int64"),  # 16382 multiply-adds, under the threshold
    ((1, 8192, 2), "float64"),  # exactly at it
])
def test_matmul_mod_routes_by_work_and_output_width(monkeypatch, shape, route):
    taken = []
    for name in ("_matmul_int64", "_matmul_float"):
        kernel = getattr(exactlin, name)
        monkeypatch.setattr(exactlin, name, lambda *args, k=kernel, n=name: taken.append(n) or k(*args))
    rows, inner, cols = shape
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, (rows, inner), dtype=np.int64)
    b = rng.integers(0, 3, (inner, cols), dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, 3), reference_matmul_mod(a, b, 3))
    assert taken == ["_matmul_int64" if route == "int64" else "_matmul_float"]

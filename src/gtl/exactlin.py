"""Exact dense linear algebra over prime fields.

Matrices are dense numpy int64 arrays holding residues in [0, p).  The
characteristic is a machine-word prime, 2 <= p < 2**31; with residues below
2**31 every row operation and (chunked) matrix product stays inside int64, so
all results are exact.  No floats, no rationals, no extension fields.

Elimination is deterministic: pivots are chosen as the first row with a
nonzero entry, scanning columns left to right.  ``solve_mod`` returns the
canonical solution with every free variable set to zero, so identical inputs
always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CHAR = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for n < 2**31."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def as_residues(data, p: int) -> np.ndarray:
    """Copy ``data`` into an int64 array of residues mod p."""
    arr = np.array(data, dtype=np.int64)
    return arr % p


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact A @ B mod p.

    The inner dimension is accumulated in chunks small enough that partial
    sums of products below p**2 cannot overflow int64.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    block = max(1, (2**62) // max(1, (p - 1) ** 2))
    if inner <= block:
        return (a @ b) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, block):
        hi = min(lo + block, inner)
        acc = (acc + a[:, lo:hi] @ b[lo:hi, :]) % p
    return acc


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Pivot choice: first row (top to bottom) with a nonzero entry, columns
    scanned left to right.  Pivots are normalized to 1 and cleared above and
    below.
    """
    r_mat = as_residues(mat, p)
    rows, cols = r_mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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


def rank_mod(mat, p: int) -> int:
    """Rank of a matrix over F_p."""
    return len(rref(mat, p)[1])


def kernel_mod(mat, p: int) -> np.ndarray:
    """Right null space basis, one column per free variable.

    Columns are produced in ascending free-column order with the free
    variable set to 1, which makes the basis canonical for a given input.
    """
    arr = as_residues(mat, p)
    red, pivots = rref(arr, p)
    cols = arr.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    ker = np.zeros((cols, len(free)), dtype=np.int64)
    for idx, f in enumerate(free):
        ker[f, idx] = 1
        for row, piv_col in enumerate(pivots):
            ker[piv_col, idx] = (-red[row, f]) % p
    return ker


def solve_mod(mat, rhs, p: int) -> np.ndarray | None:
    """Canonical solution of ``mat @ x = rhs`` with free variables zero.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns;
    the result matches its shape.  Returns None when any column is
    inconsistent.
    """
    arr = as_residues(mat, p)
    b = as_residues(rhs, p)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    m, n = arr.shape
    if b.shape[0] != m:
        raise ValueError(f"solve shape mismatch: {arr.shape} vs rhs {b.shape}")
    aug = np.hstack([arr, np.eye(m, dtype=np.int64)])
    red, pivots = rref(aug, p)
    piv_a = [c for c in pivots if c < n]
    rank = len(piv_a)
    transform = red[:, n:]
    tb = matmul_mod(transform, b, p)
    if rank < m and np.any(tb[rank:]):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, c in enumerate(piv_a):
        x[c] = tb[row]
    return x[:, 0] if vector_rhs else x


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a validated machine-word prime p."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not (2 <= self.p < MAX_CHAR):
            raise ValueError(f"characteristic must be an integer in [2, 2**31): {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime: {self.p}")

    def reduce(self, data) -> np.ndarray:
        return as_residues(data, self.p)

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

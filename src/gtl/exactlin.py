"""Exact dense linear algebra over prime fields.

Matrices are dense numpy int64 arrays holding residues in [0, p).  The
characteristic is a machine-word prime, 2 <= p < 2**31; with residues below
2**31 every row operation stays inside int64, so all results are exact.

``matmul_mod`` is exact too.  It uses float64 only for chunks of the inner
dimension whose partial sums, in any summation order, stay below 2**53, where
every integer is a float64.  Everything else, including every p for which a
single product of residues can reach 2**53, multiplies in int64 chunks that
cannot overflow.  No rationals, no extension fields.

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


def _reduce(arr: np.ndarray, p: int) -> np.ndarray:
    """Reduce an int64 array mod p in place.

    arr - (arr // p) * p instead of ``%``: numpy divides an int64 array by a
    scalar several times faster than it takes the remainder.
    """
    if p == 2:
        np.bitwise_and(arr, 1, out=arr)
    else:
        quot = arr // p
        quot *= p
        arr -= quot
    return arr


def as_residues(data, p: int, copy: bool = True) -> np.ndarray:
    """Copy ``data`` into a new C-ordered int64 array of residues mod p.

    With ``copy`` False a C-ordered int64 array is reduced in place instead.
    """
    return residues_and_max(data, p, copy)[0]


def residues_and_max(data, p: int, copy: bool = True) -> tuple[np.ndarray, int]:
    """as_residues(data, p, copy), and the largest entry before reducing, read
    as uint64 (0 for an empty array): below p, nothing was reduced."""
    arr = np.array(data, dtype=np.int64, order="C") if copy else np.asarray(data, dtype=np.int64, order="C")
    # read as uint64 a negative entry is above every p, so one max finds both
    top = int(arr.view(np.uint64).max()) if arr.size else 0
    if top >= p:
        _reduce(arr, p)
    return arr, top


# The float64 path converts and scans every operand entry once, so it pays only
# on this many multiply-adds and two or more output columns.  On one column, a
# matrix-vector product, it lost on balance: 4.75 ms to int64's 4.27 ms on the
# 18 such shapes of the benchmark and frontier runs (x86-64 OpenBLAS, 1 thread).
_FLOAT_MIN_MADDS = 16384
# Cells per float64 temporary: the product is computed in tiles whose operand
# slices and result each hold about this many cells, so the float copies stay
# a few MiB however large the operands are.
_FLOAT_BLOCK_CELLS = 2**18


def _magnitude(arr: np.ndarray) -> int:
    return max(int(arr.max()), -int(arr.min()))


def _matmul_int64(a: np.ndarray, b: np.ndarray, p: int, term: int) -> np.ndarray:
    """A @ B mod p in int64, for products of entries of magnitude at most ``term``.

    The inner dimension is accumulated in chunks small enough that their sums
    plus a residue cannot overflow.
    """
    inner = a.shape[1]
    block = max(1, 2**62 // max(1, term))
    if inner <= block:
        return _reduce(a @ b, p)
    acc = _reduce(a[:, :block] @ b[:block], p)
    for lo in range(block, inner, block):
        acc += a[:, lo : lo + block] @ b[lo : lo + block]
        _reduce(acc, p)
    return acc


def _matmul_float(a: np.ndarray, b: np.ndarray, p: int, term: int) -> np.ndarray:
    """A @ B mod p through float64 BLAS, exactly.

    Every product of entries is an integer of magnitude at most ``term``, so a
    chunk of ``block`` inner indices sums to less than 2**53 in any order:
    each partial sum is an exactly representable integer, whatever order or
    thread count BLAS uses.  Each chunk's sum is reduced in int64.
    """
    (rows, inner), cols = a.shape, b.shape[1]
    block = (2**53 - 1) // max(1, term)
    cstep = max(1, _FLOAT_BLOCK_CELLS // inner)
    rstep = max(1, _FLOAT_BLOCK_CELLS // max(inner, min(cols, cstep)))
    out = np.empty((rows, cols), dtype=np.int64) if rows > rstep or cols > cstep else None
    for left in range(0, cols, cstep):
        fb = b[:, left : left + cstep].astype(np.float64)
        for top in range(0, rows, rstep):
            fa = a[top : top + rstep].astype(np.float64)
            acc = _reduce((fa[:, :block] @ fb[:block]).astype(np.int64), p)
            for lo in range(block, inner, block):
                acc += (fa[:, lo : lo + block] @ fb[lo : lo + block]).astype(np.int64)
                _reduce(acc, p)
            if out is None:
                return acc
            out[top : top + rstep, left : left + cstep] = acc
    return out


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact A @ B mod p.

    A product of at least _FLOAT_MIN_MADDS multiply-adds and two or more
    output columns goes through float64 BLAS, in inner chunks whose partial
    sums stay below 2**53, when one product of the operands' largest entries
    does; one column, a matrix-vector product, gains nothing there on balance.
    Everything else multiplies in int64, in chunks that cannot overflow.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    (rows, inner), cols = a.shape, b.shape[1]
    if inner == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    term = (p - 1) ** 2
    if rows * inner * cols >= _FLOAT_MIN_MADDS and cols > 1 and term < 2**53:
        term = _magnitude(a) * _magnitude(b)
        if term < 2**53:
            return _matmul_float(a, b, p, term)
    return _matmul_int64(a, b, p, term)


def rref(mat, p: int, pivot_cols: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Pivot choice: first row (top to bottom) with a nonzero entry, columns
    scanned left to right.  Pivots are normalized to 1 and cleared above and
    below.  With ``pivot_cols`` set, pivots are sought only in the first
    ``pivot_cols`` columns; the row operations still act on every column.

    The reduction works in one owned copy.  Rows from the current one down are
    zero left of the pivot column, so swaps, scaling and clearing touch only
    the columns from the pivot on; over F_2 clearing is an XOR.
    """
    r_mat = as_residues(mat, p)
    rows, cols = r_mat.shape
    gf2 = p == 2
    pivots: list[int] = []
    r = 0
    # Array methods and basic slicing throughout: this loop runs once per
    # column, and on small matrices numpy's per-call overhead is the cost.
    for c in range(cols if pivot_cols is None else min(pivot_cols, cols)):
        if r == rows:
            break
        col = r_mat[:, c]
        below = col[r:]
        # the first nonzero entry; over F_2 that is the first maximum
        i = int(below.argmax()) if gf2 else int((below != 0).argmax())
        if not below[i]:
            continue
        row = r_mat[r, c:]
        if i:
            other = r_mat[r + i, c:]
            held = other.copy()
            other[...] = row
            row[...] = held
        if not gf2:
            inv = pow(int(row[0]), -1, p)
            if inv != 1:
                row *= inv
                _reduce(row, p)
        col[r] = 0  # the rows to clear are the other nonzeros of column c
        hit = col.nonzero()[0]
        col[r] = 1
        if hit.size:
            if gf2:
                r_mat[hit, c:] ^= row
            else:
                block = r_mat[hit, c:]
                block -= block[:, :1] * row
                r_mat[hit, c:] = _reduce(block, p)
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
    arr = np.asarray(mat, dtype=np.int64)
    red, pivots = rref(arr, p)
    return kernel_from_rref(red, pivots, arr.shape[1], p)


def complement(taken, n: int) -> np.ndarray:
    """The indices in range(n) outside ``taken``, ascending, as np.setdiff1d(np.arange(n), taken)."""
    keep = np.ones(n, dtype=bool)
    keep[list(taken)] = False
    return np.flatnonzero(keep)


def kernel_from_rref(red: np.ndarray, pivots: tuple[int, ...], cols: int, p: int) -> np.ndarray:
    """kernel_mod's basis for the first ``cols`` columns of a reduced matrix.

    ``red, pivots`` is the rref of a matrix whose first ``cols`` columns are
    the matrix to take the kernel of, with every pivot among them.
    """
    free = complement(pivots, cols)
    ker = np.zeros((cols, free.size), dtype=np.int64)
    ker[free, np.arange(free.size)] = 1
    ker[list(pivots)] = (-red[: len(pivots)][:, free]) % p
    return ker


def solve_mod(mat, rhs, p: int) -> np.ndarray | None:
    """Canonical solution of ``mat @ x = rhs`` with free variables zero.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns;
    the result matches its shape.  Returns None when any column is
    inconsistent.

    One reduction of ``[mat | rhs]`` that seeks pivots in the ``mat`` block
    only: they are the same greedy left-to-right choice as for ``mat`` alone,
    a nonzero ``rhs`` entry below the last pivot row means some column is
    inconsistent, and otherwise each pivot row holds the value of its pivot
    variable.
    """
    arr = np.asarray(mat, dtype=np.int64)
    b = np.asarray(rhs, dtype=np.int64)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    m, n = arr.shape
    if b.shape[0] != m:
        raise ValueError(f"solve shape mismatch: {arr.shape} vs rhs {b.shape}")
    red, pivots = rref(np.hstack([arr, b]), p, n)
    rank = len(pivots)
    if red[rank:, n:].any():
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    x[list(pivots)] = red[:rank, n:]
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

    def reduce(self, data, copy: bool = True) -> np.ndarray:
        return as_residues(data, self.p, copy)

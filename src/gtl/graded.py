"""Z-graded algebras restricted to a degree window.

A WindowedGradedAlgebra stores, for a window [d_min, d_max] with
d_min <= 0 <= d_max, the dimension of each graded piece and the structure
constants of every product that stays inside the window.  Degrees outside the
window are unknown, not zero: every operation that would need them reports
OUT-OF-WINDOW (or raises OutOfWindowError for element products) instead of
guessing.  The unit lives in degree 0 and is pinned at construction.

Structure constants for a pair (i, j) form a tensor T of shape
(dim i, dim j, dim i+j) with e_a * e_b = sum_c T[a, b, c] e_c.  Absent blocks
mean the zero map.  All arithmetic is exact over F_p via gtl.exactlin.

Associativity is certified term by term (associativity_failures): both sides
of (ab)c = a(bc) are sums of products of two nonzero structure constants, so
the work follows the nonzero constants, and it is done in runs of bounded
size.  FDAlgebra's check is the one-degree case of the same routine.

Ring files are read in time linear in their size (algebra_from_json): the
structure tables go straight from the text into int64 arrays (a table of
single digits straight from its bytes), and any text that reading cannot
match exactly goes through json.loads, which stays the reference and the
only source of error messages.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import util
from .exactlin import PrimeField, matmul_mod, rref, solve_mod
from .report import FAIL, OUT_OF_WINDOW, PASS, CertifiedReport


class AlgebraFormatError(ValueError):
    """Malformed algebra data (construction or file ingestion)."""


# Size caps on input, so that a small file cannot ask for gigabytes: windows
# stay within [-WINDOW_BOUND, WINDOW_BOUND], and a graded ring file may give no
# degree more than DIM_BOUND basis elements.  The widest gallery, test and
# benchmark ring has 45.  One DIM_BOUND**3 structure block of int64 is 16 MiB.
# Beyond the blocks, validate holds runs of about _RUN_TERMS terms or dense
# result cells, where one dense (d, d, d, d) side of a triple would be 2 GiB.
WINDOW_BOUND = 32
DIM_BOUND = 128


def check_window(window) -> tuple[int, int]:
    """The window as (lo, hi), or AlgebraFormatError unless lo <= 0 <= hi within the cap."""
    lo, hi = int(window[0]), int(window[1])
    if not (-WINDOW_BOUND <= lo <= 0 <= hi <= WINDOW_BOUND):
        raise AlgebraFormatError(
            f"window [{lo}, {hi}] must contain 0 and stay within [-{WINDOW_BOUND}, {WINDOW_BOUND}]"
        )
    return lo, hi


def int_array(value, what: str, ndim: int | None = None) -> np.ndarray:
    """A JSON integer, or nested lists of them, as an int64 array.

    Floats, booleans, strings, ragged lists, values beyond int64 and (when
    ``ndim`` is given) the wrong nesting depth are AlgebraFormatError.  An
    int64 array (as algebra_from_json reads tables) is returned as it is.
    """
    if isinstance(value, np.ndarray) and value.dtype == np.int64:
        arr = value
    else:
        try:
            arr = np.array(value, dtype=object)
            kinds = set(map(type, arr.ravel().tolist())) - {int}
            if kinds:
                raise TypeError("not integers: " + ", ".join(sorted(t.__name__ for t in kinds)))
            arr = arr.astype(np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise AlgebraFormatError(f"malformed {what}: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise AlgebraFormatError(f"malformed {what}: expected {ndim} nested levels, got {arr.ndim}")
    return arr


class OutOfWindowError(ValueError):
    """A product of occupied degrees lands outside the window."""

    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"product of degrees ({i}, {j}) leaves the window")
        self.degrees = (i, j)


def col_echelon(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical column-space basis: reduced row echelon of the transpose."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=np.int64)
    red, piv = rref(mat.T, p)
    return red[: len(piv)].T.copy()


# Associativity is certified term by term (associativity_failures), unless
# dense block products are cheaper.  A listed term costs about as much as 150
# to 250 multiply-adds of both sides in float64 matrix products (measured on
# dense 27- to 64-dimensional tables), and a block product costs about
# _PRODUCT_MADDS on top of its own multiply-adds, which decides small blocks.
# A run of first factors is multiplied out densely when its terms cost more.
_SPARSE_TERMS_PER_MADD = 256
_PRODUCT_MADDS = 2**15
# Terms (or dense result cells) held at once: the first factors are taken in
# runs of about this many terms (one with more is a run of its own), so the
# memory stays bounded however large the ring is.  The Klein-four Tate ring
# on [-7, 7] has 8,976 terms and is one run.
_RUN_TERMS = 2**14


def _csr_expand(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every stored entry of the given rows of a compressed-row layout.

    Row v's entries sit at positions ptr[v] .. ptr[v+1]-1.  Returns, for
    each entry of each listed row in turn, the index into ``rows`` it came
    from and its position.
    """
    counts = ptr[rows + 1] - ptr[rows]
    entry = np.repeat(np.arange(rows.size), counts)
    return entry, ptr[rows][entry] + np.arange(entry.size) - (np.cumsum(counts) - counts)[entry]


def associativity_failures(
    p: int, window: tuple[int, int], dims: dict[int, int], mult: dict[tuple[int, int], np.ndarray]
) -> dict[int, tuple[int, int, tuple[int, int, int]]]:
    """Where (ab)c = a(bc) fails, by the degree i of the first factor.

    ``mult`` maps (i, j) to a structure tensor of shape (dims i, dims j,
    dims i+j); an absent block is the zero map.  Only triples of degrees
    (i, j, k) with i+j, j+k and i+j+k in the window are checked.  For each
    failing degree i the value is (j, k, (a, b, c)): the first failing (j, k)
    in order and, there, the first failing basis triple in C order, in local
    indices.

    Every nonzero constant e_a e_b = v e_x is listed once, in global basis
    indices (degree by degree).  Both sides are joins of that list with
    itself, (e_a e_b) e_c = sum_x v_abx e_x e_c and e_a (e_b e_c) =
    sum_z v_bcz e_a e_z, so each of their terms is a pair of nonzero
    constants keyed by (a, b, c, y), and the sides agree exactly when the
    terms of each key sum to zero mod p.  The first factors a are taken in
    runs of at most _RUN_TERMS terms (a single a may have more); a run whose
    terms cost more than its dense block products is multiplied out densely
    instead, in row chunks of at most _RUN_TERMS result cells.
    """
    lo, hi = window
    sizes = [dims[d] for d in range(lo, hi + 1)]
    start = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    n = int(start[-1])
    deg_of = np.repeat(np.arange(lo, hi + 1), sizes)
    blocks = [table.ravel() for table in mult.values()]
    flat = [table.nonzero()[0] for table in blocks]
    V = np.concatenate([np.zeros(0, dtype=np.int64)] + [table[f] for table, f in zip(blocks, flat)])
    # each block's degrees i, j, i+j, repeated for each of its nonzero constants
    deg = np.repeat(np.array([(i, j, i + j) for i, j in mult], dtype=np.int64).reshape(-1, 3) - lo,
                    [f.size for f in flat], axis=0).T
    size = np.asarray(sizes, dtype=np.int64)[deg]
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + flat)
    A = flat // (size[1] * size[2]) + start[deg[0]]
    B = flat // size[2] % size[1] + start[deg[1]]
    X = flat % size[2] + start[deg[2]]
    order = np.argsort(A, kind="stable")
    A, B, X, V = A[order], B[order], X[order], V[order]
    first_ptr = np.searchsorted(A, np.arange(n + 1))
    by_out = np.argsort(X, kind="stable")
    out_ptr = np.searchsorted(X[by_out], np.arange(n + 1))
    # the constant (a, b, x) starts one term of (ab)c per constant (x, c, y)
    # and one of a(bc) per constant (b', c, b); the first factors before a
    # start terms_before[a] terms, and madds_before[a] dense multiply-adds
    terms = np.concatenate([[0], np.cumsum(np.diff(first_ptr)[X] + np.diff(out_ptr)[B])])
    terms_before = terms[first_ptr]
    row_madds, products = _dense_costs(window, dims, mult)
    madds_before = np.concatenate([[0], np.cumsum(row_madds[deg_of - lo])])
    products_before = np.concatenate([[0], np.cumsum(products)])

    def in_window(degree):
        return (lo <= degree) & (degree <= hi)

    def sparse_failures(a0: int, a1: int) -> dict:
        run = slice(first_ptr[a0], first_ptr[a1])
        ra, rb, rx, rv = A[run], B[run], X[run], V[run]
        # (e_a e_b) e_c: the constant (a, b, x) times each (x, c, y)
        entry, at = _csr_expand(first_ptr, rx)
        keep = in_window(deg_of[rb[entry]] + deg_of[B[at]])
        entry, at = entry[keep], at[keep]
        lhs_keys = ((ra[entry] * n + rb[entry]) * n + B[at]) * n + X[at]
        lhs_vals = rv[entry] * V[at] % p
        # e_a (e_b e_c): the constant (a, z, y) times each (b, c, z)
        entry, at = _csr_expand(out_ptr, rb)
        at = by_out[at]
        keep = in_window(deg_of[ra[entry]] + deg_of[A[at]])
        entry, at = entry[keep], at[keep]
        rhs_keys = ((ra[entry] * n + A[at]) * n + B[at]) * n + rx[entry]
        rhs_vals = -rv[entry] * V[at] % p
        keys = np.concatenate([lhs_keys, rhs_keys])
        if not keys.size:
            return {}
        order = np.argsort(keys)
        keys, vals = keys[order], np.concatenate([lhs_vals, rhs_vals])[order]
        firsts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        bad = keys[firsts[np.add.reduceat(vals, firsts) % p != 0]]
        a, b, c = bad // n**3, bad // n**2 % n, bad // n % n
        # global indices order each degree's basis as the local ones do, so
        # this is (i, j, k, a, b, c) order; keep the first of each degree i
        order = np.lexsort((c, b, a, deg_of[c], deg_of[b], deg_of[a]))
        found = {}
        for f in order[np.unique(deg_of[a[order]], return_index=True)[1]]:
            i, j, k = (int(deg_of[v]) for v in (a[f], b[f], c[f]))
            found[i] = (j, k, (int(a[f] - start[i - lo]), int(b[f] - start[j - lo]), int(c[f] - start[k - lo])))
        return found

    def dense_failures(a0: int, a1: int) -> dict:
        found = {}
        for i in range(int(deg_of[a0]), int(deg_of[a1 - 1]) + 1):
            r0, r1 = max(a0, start[i - lo]) - start[i - lo], min(a1, start[i - lo + 1]) - start[i - lo]
            if r0 >= r1:
                continue
            for j, k in ((j, k) for j in range(lo, hi + 1) for k in range(lo, hi + 1)):
                if in_window(i + j) and in_window(j + k) and in_window(i + j + k):
                    bad = _dense_defect(p, mult, dims, i, j, k, int(r0), int(r1))
                    if bad is not None:
                        found[i] = (j, k, bad)
                        break
        return found

    best: dict[int, tuple[int, int, tuple[int, int, int]]] = {}
    a0 = 0
    while a0 < n:
        a1 = max(a0 + 1, int(np.searchsorted(terms_before, terms_before[a0] + _RUN_TERMS, side="right")) - 1)
        run_products = products_before[deg_of[a1 - 1] - lo + 1] - products_before[deg_of[a0] - lo]
        dense = madds_before[a1] - madds_before[a0] + run_products * _PRODUCT_MADDS
        if (terms_before[a1] - terms_before[a0]) * _SPARSE_TERMS_PER_MADD > dense:
            found = dense_failures(a0, a1)
        else:
            found = sparse_failures(a0, a1)
        for i, failure in found.items():
            if i not in best or failure < best[i]:
                best[i] = failure
        a0 = a1
    return best


def _dense_costs(window: tuple[int, int], dims: dict[int, int], mult: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per degree i (indexed by i - lo): the multiply-adds of both dense sides
    for one first factor in A^i, and the number of block products they take."""
    lo, hi = window
    shift = -3 * lo  # arrays below are indexed by degree + shift, from degree 3 lo on
    dim = np.zeros(3 * (hi - lo) + 1, dtype=np.int64)
    dim[lo + shift : hi + shift + 1] = [dims[d] for d in range(lo, hi + 1)]
    present = np.zeros((dim.size, dim.size), dtype=bool)
    for i, j in mult:
        present[i + shift, j + shift] = True
    i, j, k = np.ogrid[lo : hi + 1, lo : hi + 1, lo : hi + 1]
    # blocks are present only inside the window, and dim is 0 outside it
    lhs = present[i + shift, j + shift] & present[i + j + shift, k + shift] & (lo <= j + k) & (j + k <= hi)
    rhs = present[j + shift, k + shift] & present[i + shift, j + k + shift] & (lo <= i + j) & (i + j <= hi)
    cells = dim[j + shift] * dim[k + shift] * dim[i + j + k + shift]
    madds = (cells * (lhs * dim[i + j + shift] + rhs * dim[j + k + shift])).sum(axis=(1, 2))
    return madds, (lhs.astype(np.int64) + rhs).sum(axis=(1, 2))


def _dense_defect(p, mult, dims, i: int, j: int, k: int, r0: int, r1: int) -> tuple[int, int, int] | None:
    """First (a, b, c), r0 <= a < r1, in C order, where (ab)c != a(bc) in degrees (i, j, k).

    A side that passes through an absent block is zero; the rows are taken
    in chunks of at most _RUN_TERMS result cells.
    """
    t_ij, t_ij_k = mult.get((i, j)), mult.get((i + j, k))
    t_jk, t_i_jk = mult.get((j, k)), mult.get((i, j + k))
    has_lhs, has_rhs = t_ij is not None and t_ij_k is not None, t_jk is not None and t_i_jk is not None
    if not (has_lhs or has_rhs):
        return None
    db, dc, dy = dims[j], dims[k], dims[i + j + k]
    step = max(1, _RUN_TERMS // max(1, db * dc * dy))
    for a in range(r0, r1, step):
        rows = slice(a, min(a + step, r1))
        diff = np.zeros((rows.stop - a, db, dc, dy), dtype=np.int64)
        if has_lhs:
            dx = dims[i + j]
            diff += matmul_mod(t_ij[rows].reshape(-1, dx), t_ij_k.reshape(dx, dc * dy), p).reshape(diff.shape)
        if has_rhs:
            dz = dims[j + k]
            rhs = matmul_mod(t_jk.reshape(db * dc, dz), t_i_jk[rows].transpose(1, 0, 2).reshape(dz, -1), p)
            diff -= rhs.reshape(db, dc, -1, dy).transpose(2, 0, 1, 3)
        # both sides are reduced into [0, p), so a nonzero difference is
        # exactly a nonzero defect mod p
        bad = np.flatnonzero(diff)
        if bad.size:
            at, b, c, _ = np.unravel_index(int(bad[0]), diff.shape)
            return (a + int(at), int(b), int(c))
    return None


class WindowedGradedAlgebra:
    """Graded algebra data restricted to a window, with exact F_p arithmetic."""

    def __init__(
        self,
        field: PrimeField,
        window: tuple[int, int],
        dims: dict[int, int],
        mult: dict[tuple[int, int], np.ndarray],
        unit: Iterable[int],
        labels: dict[int, list[str]] | None = None,
        *,
        copy: bool = True,
    ) -> None:
        """The algebra with these blocks, each reduced mod p and made read-only.

        Each table is copied first; with ``copy`` False an int64 array table
        is taken over instead, reduced in place and frozen.
        """
        d_min, d_max = int(window[0]), int(window[1])
        if not (d_min <= 0 <= d_max):
            raise AlgebraFormatError(f"window [{d_min}, {d_max}] must contain 0")
        self.field = field
        self.window = (d_min, d_max)
        self.dims: dict[int, int] = {}
        for d in range(d_min, d_max + 1):
            count = int(dims.get(d, 0))
            if count < 0:
                raise AlgebraFormatError(f"negative dimension at degree {d}")
            self.dims[d] = count
        for d in dims:
            if not d_min <= int(d) <= d_max:
                raise AlgebraFormatError(f"dims entry for degree {d} outside window")

        self.unit = field.reduce(list(unit))
        if self.unit.ndim != 1 or self.unit.shape[0] != self.dims[0]:
            raise AlgebraFormatError(
                f"unit must have dims(0)={self.dims[0]} coefficients, got {self.unit.shape}"
            )

        self.mult: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), table in mult.items():
            i, j = int(i), int(j)
            if not (self.in_window(i) and self.in_window(j) and self.in_window(i + j)):
                raise AlgebraFormatError(f"mult block ({i}, {j}) has degrees outside window")
            arr = field.reduce(table, copy)
            want = (self.dims[i], self.dims[j], self.dims[i + j])
            if arr.shape != want:
                raise AlgebraFormatError(
                    f"mult block ({i}, {j}) must have shape {want}, got {arr.shape}"
                )
            if arr.size and arr.any():
                arr.setflags(write=False)
                self.mult[(i, j)] = arr

        self.labels: dict[int, tuple[str, ...]] | None = None
        if labels is not None:
            self.labels = {}
            for d, names in labels.items():
                d = int(d)
                if not self.in_window(d):
                    raise AlgebraFormatError(f"labels for degree {d} outside window")
                if len(names) != self.dims[d]:
                    raise AlgebraFormatError(
                        f"degree {d} has {self.dims[d]} basis elements, {len(names)} labels"
                    )
                self.labels[d] = tuple(str(s) for s in names)

    # -- basic accessors -------------------------------------------------

    @property
    def p(self) -> int:
        return self.field.p

    def in_window(self, d: int) -> bool:
        return self.window[0] <= d <= self.window[1]

    def degrees(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    def dim(self, d: int) -> int:
        if not self.in_window(d):
            raise ValueError(f"degree {d} outside window {self.window}")
        return self.dims[d]

    def mult_block(self, i: int, j: int) -> np.ndarray:
        """Structure tensor for (i, j); zeros when the block is absent."""
        if not (self.in_window(i) and self.in_window(j) and self.in_window(i + j)):
            raise ValueError(f"product degrees ({i}, {j}) not fully inside window")
        block = self.mult.get((i, j))
        if block is None:
            return np.zeros((self.dims[i], self.dims[j], self.dims[i + j]), dtype=np.int64)
        return block

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return GradedElement(self, {0: self.unit})

    def basis_element(self, d: int, index: int) -> "GradedElement":
        if not 0 <= index < self.dim(d):
            raise ValueError(f"degree {d} has no basis index {index}")
        vec = np.zeros(self.dims[d], dtype=np.int64)
        vec[index] = 1
        return GradedElement(self, {d: vec})

    def element(self, d: int, coeffs: Iterable[int]) -> "GradedElement":
        vec = self.field.reduce(list(coeffs))
        if vec.shape != (self.dim(d),):
            raise ValueError(f"degree {d} expects {self.dim(d)} coefficients")
        return GradedElement(self, {d: vec})

    def element_by_label(self, name: str) -> "GradedElement":
        if self.labels is None:
            raise ValueError("algebra carries no basis labels")
        for d, names in self.labels.items():
            if name in names:
                return self.basis_element(d, names.index(name))
        raise ValueError(f"no basis element labeled {name!r}")

    # -- multiplication helpers ------------------------------------------

    def left_mult_matrix(self, r_deg: int, r_vec: np.ndarray, i: int) -> np.ndarray:
        """Matrix of x -> r*x from A^i to A^{i+r_deg} (columns index A^i)."""
        tensor = self.mult_block(r_deg, i)
        da, db, dc = tensor.shape
        flat = matmul_mod(r_vec[None, :], tensor.reshape(da, db * dc), self.p)
        return flat.reshape(db, dc).T

    def right_mult_matrix(self, r_deg: int, r_vec: np.ndarray, i: int) -> np.ndarray:
        """Matrix of x -> x*r from A^i to A^{i+r_deg}."""
        tensor = self.mult_block(i, r_deg)
        da, db, dc = tensor.shape
        swapped = tensor.transpose(1, 0, 2).reshape(db, da * dc)
        flat = matmul_mod(r_vec[None, :], swapped, self.p)
        return flat.reshape(da, dc).T

    def product_vector(self, i: int, vi: np.ndarray, j: int, vj: np.ndarray) -> np.ndarray:
        tensor = self.mult_block(i, j)
        da, db, dc = tensor.shape
        outer = (vi[:, None] * vj[None, :]) % self.p
        flat = matmul_mod(outer.reshape(1, da * db), tensor.reshape(da * db, dc), self.p)
        return flat.reshape(dc)

    def multiply(self, a: "GradedElement", b: "GradedElement") -> "GradedElement":
        """Product of two elements; every occupied degree pair must stay in window."""
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        parts: dict[int, np.ndarray] = {}
        for i, vi in a.components.items():
            for j, vj in b.components.items():
                if not self.in_window(i + j):
                    raise OutOfWindowError(i, j)
                vec = self.product_vector(i, vi, j, vj)
                if i + j in parts:
                    parts[i + j] = (parts[i + j] + vec) % self.p
                else:
                    parts[i + j] = vec
        return GradedElement(self, parts)

    # -- checks ------------------------------------------------------------

    def validate(self) -> CertifiedReport:
        """Unit and associativity laws on every in-window triple.

        One entry per degree i: PASS when 1*a = a = a*1 for all a in A^i and
        (ab)c = a(bc) for every triple starting in A^i whose partial and full
        products stay inside the window.  The witness names the first failure:
        the unit laws first, then the first triple (i, j, k) in (j, k) order.
        Associativity is certified term by term over the nonzero structure
        constants (associativity_failures), in runs of bounded size.
        """
        failures = associativity_failures(self.p, self.window, self.dims, self.mult)

        def check_degree(i: int):
            di = self.dims[i]
            if di == 0:
                return PASS, None
            eye = np.eye(di, dtype=np.int64)
            left_unit = self.left_mult_matrix(0, self.unit, i)
            if not np.array_equal(left_unit, eye):
                col = int(np.flatnonzero((left_unit - eye) % self.p)[0] % di)
                return FAIL, {"law": "unit", "side": "left", "degree": i, "index": col}
            right_unit = self.right_mult_matrix(0, self.unit, i)
            if not np.array_equal(right_unit, eye):
                col = int(np.flatnonzero((right_unit - eye) % self.p)[0] % di)
                return FAIL, {"law": "unit", "side": "right", "degree": i, "index": col}
            if i in failures:
                j, k, bad = failures[i]
                return FAIL, {"law": "associativity", "triple": (i, j, k), "indices": bad}
            return PASS, None

        return CertifiedReport.sweep("validate", self.degrees(), check_degree)

    def is_central(self, z: "GradedElement") -> CertifiedReport:
        """Window-certified centrality: za = az per degree, else OUT-OF-WINDOW."""
        dz, vz = z.homogeneous_part()

        def commutes(i: int):
            if not self.in_window(i + dz):
                return OUT_OF_WINDOW, None
            diff = (self.left_mult_matrix(dz, vz, i) - self.right_mult_matrix(dz, vz, i)) % self.p
            if np.any(diff):
                return FAIL, {"degree": i, "index": int(np.flatnonzero(np.any(diff, axis=0))[0])}
            return PASS, None

        return CertifiedReport.sweep("is_central", [i for i in self.degrees() if self.dims[i]], commutes)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowedGradedAlgebra):
            return NotImplemented
        return (
            self.p == other.p
            and self.window == other.window
            and self.dims == other.dims
            and np.array_equal(self.unit, other.unit)
            and set(self.mult) == set(other.mult)
            and all(np.array_equal(self.mult[k], other.mult[k]) for k in self.mult)
            and self.labels == other.labels
        )


@dataclass
class GradedElement:
    """Element of a windowed graded algebra: degree -> coefficient vector."""

    algebra: WindowedGradedAlgebra
    components: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        clean: dict[int, np.ndarray] = {}
        for d, vec in self.components.items():
            d = int(d)
            arr = self.algebra.field.reduce(vec)
            if arr.shape != (self.algebra.dim(d),):
                raise ValueError(
                    f"degree {d} component must have {self.algebra.dim(d)} coefficients"
                )
            if np.any(arr):
                clean[d] = arr
        self.components = clean

    def is_zero(self) -> bool:
        return not self.components

    def occupied_degrees(self) -> list[int]:
        return sorted(self.components)

    def homogeneous_part(self) -> tuple[int, np.ndarray]:
        if len(self.components) != 1:
            raise ValueError("element is not homogeneous and nonzero")
        [(d, vec)] = self.components.items()
        return d, vec

    def component(self, d: int) -> np.ndarray:
        return self.components.get(d, np.zeros(self.algebra.dim(d), dtype=np.int64))

    def shift(self, t: int) -> "GradedElement":
        """Degree-shifted view; coefficient arrays are shared, not copied."""
        out = object.__new__(GradedElement)
        out.algebra = self.algebra
        out.components = {d + t: vec for d, vec in self.components.items()}
        return out

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._same_algebra(other)
        parts = dict(self.components)
        for d, vec in other.components.items():
            parts[d] = (parts.get(d, 0) + vec) % self.algebra.p
        return GradedElement(self.algebra, parts)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        self._same_algebra(other)
        parts = dict(self.components)
        for d, vec in other.components.items():
            parts[d] = (parts.get(d, 0) - vec) % self.algebra.p
        return GradedElement(self.algebra, parts)

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        return self.algebra.multiply(self, other)

    def __rmul__(self, scalar: int) -> "GradedElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return GradedElement(
            self.algebra, {d: (scalar * vec) % self.algebra.p for d, vec in self.components.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.algebra is other.algebra and self.components.keys() == other.components.keys() and all(
            np.array_equal(self.components[d], other.components[d]) for d in self.components
        )

    def _same_algebra(self, other: "GradedElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")


@dataclass
class GradedSubspace:
    """Per-degree subspaces in canonical column-echelon form.

    ``underdetermined`` lists degrees where the stored basis is only a
    certified lower bound (the window truncated the computation).
    """

    algebra: WindowedGradedAlgebra
    basis: dict[int, np.ndarray]
    underdetermined: frozenset[int] = frozenset()
    notes: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[int, np.ndarray] = {}
        for d, cols in self.basis.items():
            d = int(d)
            arr = self.algebra.field.reduce(cols)
            if arr.ndim != 2 or arr.shape[0] != self.algebra.dim(d):
                raise ValueError(f"degree {d} basis must be {self.algebra.dim(d)} x k")
            arr = col_echelon(arr, self.algebra.p)
            if arr.shape[1]:
                clean[d] = arr
        self.basis = clean
        self.underdetermined = frozenset(self.underdetermined)

    @classmethod
    def zero(cls, algebra: WindowedGradedAlgebra) -> "GradedSubspace":
        return cls(algebra, {})

    @classmethod
    def full(cls, algebra: WindowedGradedAlgebra, degrees: Iterable[int] | None = None) -> "GradedSubspace":
        degs = algebra.degrees() if degrees is None else degrees
        return cls(
            algebra,
            {d: np.eye(algebra.dim(d), dtype=np.int64) for d in degs if algebra.dim(d) > 0},
        )

    def dim(self, d: int) -> int:
        cols = self.basis.get(d)
        return 0 if cols is None else cols.shape[1]

    def full_at(self, d: int) -> bool:
        return self.dim(d) == self.algebra.dim(d)

    def vectors(self, d: int) -> np.ndarray:
        return self.basis.get(d, np.zeros((self.algebra.dim(d), 0), dtype=np.int64))

    def contains_vector(self, d: int, vec: np.ndarray) -> bool:
        if not np.any(vec):
            return True
        cols = self.vectors(d)
        if cols.shape[1] == 0:
            return False
        return solve_mod(cols, vec, self.algebra.p) is not None

    def contains(self, element: GradedElement) -> bool:
        return all(self.contains_vector(d, v) for d, v in element.components.items())

    def shift(self, t: int) -> "GradedSubspace":
        """Degree-shifted view; basis arrays are shared, not copied."""
        out = object.__new__(GradedSubspace)
        out.algebra = self.algebra
        out.basis = {d + t: cols for d, cols in self.basis.items()}
        out.underdetermined = frozenset(d + t for d in self.underdetermined)
        out.notes = {d + t: s for d, s in self.notes.items()}
        return out

    def equals(self, other: "GradedSubspace") -> bool:
        if self.algebra is not other.algebra:
            return False
        keys = set(self.basis) | set(other.basis)
        return all(np.array_equal(self.vectors(d), other.vectors(d)) for d in keys)


# -- serialization ---------------------------------------------------------


def algebra_to_json_dict(alg: WindowedGradedAlgebra) -> dict:
    """Canonical JSON payload; nonzero dims and mult blocks only, sorted."""
    out: dict = {
        "field_char": alg.p,
        "window": [alg.window[0], alg.window[1]],
        "dims": {str(d): alg.dims[d] for d in sorted(alg.dims) if alg.dims[d] > 0},
        "unit": alg.unit.tolist(),
        "mult": [
            {"i": i, "j": j, "table": alg.mult[(i, j)].tolist()}
            for (i, j) in sorted(alg.mult)
        ],
    }
    if alg.labels is not None:
        out["labels"] = {str(d): list(alg.labels[d]) for d in sorted(alg.labels)}
    return out


def _int64(value, what: str) -> int:
    """A JSON integer as an int: int_array's checks, without its arrays for a plain int."""
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    return int(int_array(value, what, ndim=0))


def algebra_from_json_dict(payload: dict) -> WindowedGradedAlgebra:
    """The ring a graded-format payload describes.

    A table given as an int64 array (as algebra_from_json reads them) is
    taken over: reduced in place and made read-only, not copied.
    """
    if not isinstance(payload, dict):
        raise AlgebraFormatError("algebra payload must be a JSON object")
    try:
        field_char = payload["field_char"]
        window = payload["window"]
        dims_raw = payload["dims"]
        unit = payload["unit"]
        mult_raw = payload.get("mult", [])
    except KeyError as exc:
        raise AlgebraFormatError(f"missing required key {exc.args[0]!r}") from None
    try:
        fld = PrimeField(int(int_array(field_char, "field_char", ndim=0)))
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from None
    window = int_array(window, "window", ndim=1)
    if window.shape != (2,):
        raise AlgebraFormatError("window must be a two-element list")
    window = check_window(window)
    try:
        dims = util.parse_int_keys(dims_raw, "dims")
        labels = util.parse_int_keys(payload["labels"], "labels") if "labels" in payload else None
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from None
    dims = {d: int(int_array(count, f"dims entry {d}", ndim=0)) for d, count in dims.items()}
    for d, count in dims.items():
        if count > DIM_BOUND:
            raise AlgebraFormatError(f"degree {d} has dimension {count}, above the cap of {DIM_BOUND}")
    for d, names in (labels or {}).items():
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise AlgebraFormatError(f"labels for degree {d} must be a list of strings")
    unit = int_array(unit, "unit", ndim=1)
    if not isinstance(mult_raw, list):
        raise AlgebraFormatError("mult must be a list of blocks")
    mult: dict[tuple[int, int], np.ndarray] = {}
    for entry in mult_raw:
        try:
            i, j, table = entry["i"], entry["j"], entry["table"]
        except (KeyError, TypeError) as exc:
            raise AlgebraFormatError(f"malformed mult entry ({exc}): {entry!r}") from None
        key = (_int64(i, "mult entry i"), _int64(j, "mult entry j"))
        if key in mult:
            raise AlgebraFormatError(f"duplicate mult block {key}")
        mult[key] = int_array(table, f"mult entry {key}")
    try:
        # every table is now an int64 array built here or by the reader
        return WindowedGradedAlgebra(fld, window, dims, mult, unit, labels, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AlgebraFormatError(str(exc)) from None


def algebra_to_json(alg: WindowedGradedAlgebra) -> str:
    return util.canonical_json(algebra_to_json_dict(alg))


def load_json(text: str):
    """json.loads, with every decoding failure as AlgebraFormatError("invalid JSON: ...").

    Besides syntax errors that covers nesting too deep for the decoder and
    integers longer than int() converts; the advice int() gives then (call
    sys.set_int_max_str_digits) is for programmers, not for a file's author.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        reason = str(exc).split("; use sys.set_int_max_str_digits")[0]
        raise AlgebraFormatError(f"invalid JSON: {reason}") from None


def algebra_from_json(text: str) -> WindowedGradedAlgebra:
    """The ring a graded-format JSON text describes, in time linear in its size.

    The ``table`` of each long mult entry is read straight from the text
    into an int64 array, and every other value (short entries whole) through
    the stdlib decoder (_read_ring_payload).  A text that reader cannot turn
    into exactly what json.loads and int_array give goes whole through
    json.loads instead, so both routes accept the same texts, build the same
    ring and raise the same errors.
    """
    try:
        with warnings.catch_warnings():
            # numpy 1.x only warns where numpy 2 raises on a partly read table
            warnings.simplefilter("error", DeprecationWarning)
            payload = _read_ring_payload(text)
    except (_Declined, ValueError, RecursionError, DeprecationWarning):
        payload = load_json(text)
    return algebra_from_json_dict(payload)


class _Declined(Exception):
    """A text the direct reader leaves to json.loads."""


_DECODER = json.JSONDecoder()
# A mult entry that ends within this many characters (the next one starts
# sooner) is read whole by the stdlib scanner, table and all: below about 500
# characters that and int_array are faster than reading the table directly.
_SHORT_ENTRY = 512
_SPACE = re.compile(r"[ \t\n\r]*")
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
# what follows an item: "," or the closing bracket, with the space around it
_SEPARATOR = re.compile(r"[ \t\n\r]*([,}\]])[ \t\n\r]*")
_SPLIT_NUMBER = re.compile(rb"[0-9-][ \t\n\r]+[0-9-]")
_MARK_NUMBERS = bytes.maketrans(b"0123456789-", b"d" * 11)
# the digits become "d", and a "d" in the text becomes "?", so that a "d"
# after marking always stands for a digit
_MARK_DIGITS = bytes.maketrans(b"0123456789d", b"d" * 10 + b"?")
_UNBRACKET = bytes.maketrans(b"[]", b"  ")


def _read_ring_payload(text: str) -> dict:
    """json.loads(text), but with the table of each long mult entry as an int64 array.

    Python walks the top-level object, the mult list and its entries other
    than short ones; the stdlib scanner reads every other value.  Raises
    _Declined (or a ValueError) where the result could differ from
    json.loads followed by int_array: malformed text, a mult entry that is
    not an object with i, j and table, or a table _read_table declines.
    """

    def sequence(at: int, opener: str, closer: str, read_item) -> tuple[list, int]:
        """The items of the array or object opening at text[at], and the index past it."""
        if not text.startswith(opener, at):
            raise _Declined
        at = _SPACE.match(text, at + 1).end()
        if text.startswith(closer, at):
            return [], at + 1
        items = []
        while True:
            item, at = read_item(at)
            items.append(item)
            separator = _SEPARATOR.match(text, at)
            if separator is None or separator[1] not in ("," + closer):
                raise _Declined
            at = separator.end()
            if separator[1] == closer:
                return items, at

    def member(read_value):
        def read(at: int) -> tuple[tuple, int]:
            key, at = _DECODER.raw_decode(text, at)
            colon = _COLON.match(text, at)
            if not isinstance(key, str) or colon is None:
                raise _Declined
            value, at = read_value(key, colon.end())
            return (key, value), at

        return read

    def entry_value(key: str, at: int):
        return _read_table(text, at) if key == "table" else _DECODER.raw_decode(text, at)

    def entry(at: int) -> tuple[dict, int]:
        if text.find("{", at + 1, at + _SHORT_ENTRY) >= 0:
            return _DECODER.raw_decode(text, at)
        pairs, at = sequence(at, "{", "}", member(entry_value))
        out = dict(pairs)
        # a mult error message shows the entry, whose table must then be a list
        if not {"i", "j", "table"} <= out.keys():
            raise _Declined
        return out, at

    def top_value(key: str, at: int):
        if key == "mult" and text.startswith("[", at):
            return sequence(at, "[", "]", entry)
        return _DECODER.raw_decode(text, at)

    pairs, at = sequence(_SPACE.match(text).end(), "{", "}", member(top_value))
    if at != len(text):
        raise _Declined
    return dict(pairs)


def _read_table(text: str, at: int) -> tuple[np.ndarray, int]:
    """The rectangular array of integers written at text[at], and the index past it.

    Every test is a bytes method or one numpy call.  Declines (raises
    _Declined) unless the text is a nonempty rectangular array of depth 1
    to 3 whose entries are canonical JSON integers below 10**18 in
    magnitude, so that no -0, leading zero or 19-digit entry gets here.
    A table of single digits (every ring written over p <= 7) is decoded
    from its bytes; any other goes through np.fromstring.
    """
    # the table ends at the last "]" before the end of its entry or the next
    # key; every table is preceded by its key, so the scans never overlap
    key = text.find('"', at)
    stop = len(text) if key < 0 else key
    close = text.find("}", at, stop)
    end = text.rfind("]", at, stop if close < 0 else close) + 1
    table = text[at:end].encode("ascii")
    packed = table.translate(None, b" \t\n\r")
    if len(packed) != len(table) and _SPLIT_NUMBER.search(table):
        raise _Declined
    depth = len(packed) - len(packed.lstrip(b"["))
    if not 1 <= depth <= 3:
        raise _Declined
    # with only the digits marked, a table of single digits is its skeleton
    # with one mark in each slot, and its digits are what the brackets and
    # commas leave
    marked = packed.translate(_MARK_DIGITS)
    shape, skeleton = _skeleton(marked, depth, b"d")
    if marked == skeleton and all(shape):
        digits = np.frombuffer(packed.translate(None, b"[],"), dtype=np.uint8)
        return np.subtract(digits, ord("0"), dtype=np.int64).reshape(shape), end
    bare = packed.translate(None, b"0123456789-")
    shape, skeleton = _skeleton(bare, depth, b"")
    slots = math.prod(shape)
    marked = packed.translate(_MARK_NUMBERS)
    # with the skeleton right, no number next to the outside of a bracket
    # and one starting in each slot, every slot holds one run of [0-9-]
    if (
        bare != skeleton
        or b"]d" in marked
        or b"d[" in marked
        or marked.count(b"[d") + marked.count(b",d") != slots
    ):
        raise _Declined
    # raises ValueError unless every run parses whole; numbers beyond int64 saturate
    values = np.fromstring(packed.translate(_UNBRACKET), dtype=np.int64, sep=",")
    if values.max() >= 10**18 or values.min() <= -(10**18):
        raise _Declined
    # the runs are canonical (no leading zero, no -0) exactly when they hold
    # as many digits and minus signs as the values written canonically
    magnitude = np.abs(values)
    digits = values.size + sum(
        int(np.count_nonzero(magnitude >= 10**k)) for k in range(1, len(str(magnitude.max())))
    )
    minus = int(np.count_nonzero(values < 0))
    if packed.count(b"-") != minus or len(packed) - len(skeleton) != digits + minus:
        raise _Declined
    return values.reshape(shape), end


def _skeleton(text: bytes, depth: int, item: bytes) -> tuple[list[int], bytes]:
    """The shape read off the first sub-arrays of a table of ``depth``, and the
    rectangular array of that shape with ``item`` in every slot.

    ``text`` is the table with every entry written as ``item``, if it is
    rectangular at all; otherwise the skeleton differs from it.
    """
    # the first array of depth k (counting from the innermost) starts after
    # depth - k brackets and ends at the first k closing brackets
    ends = [text.find(b"]" * k) for k in range(1, depth)]
    if -1 in ends:
        raise _Declined
    lengths = [end + 2 * k - depth for k, end in enumerate(ends, 1)] + [len(text)]
    shape = [(outer - 1) // (inner + 1) for inner, outer in zip([len(item)] + lengths, lengths)][::-1]
    skeleton = item
    for n in reversed(shape):
        skeleton = b"[" + b",".join([skeleton] * n) + b"]"
    return shape, skeleton

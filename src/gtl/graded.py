"""Z-graded algebras restricted to a degree window.

A WindowedGradedAlgebra stores, for a window [d_min, d_max] with
d_min <= 0 <= d_max, the dimension of each graded piece and the structure
constants of every product that stays inside the window.  Degrees outside the
window are unknown, not zero: every check that would need them reports
OUT-OF-WINDOW instead of guessing.  Elements are homogeneous, one degree and
one coefficient vector (GradedElement), and the product of two elements whose
degrees sum outside the window raises OutOfWindowError, even when either
vector is zero.  The unit lives in degree 0 and is pinned at construction.

Structure constants for a pair (i, j) form a tensor T of shape
(dim i, dim j, dim i+j) with e_a * e_b = sum_c T[a, b, c] e_c.  Absent blocks
mean the zero map.  All arithmetic is exact over F_p via gtl.exactlin.

Associativity is certified term by term (associativity_failures): both sides
of (ab)c = a(bc) are sums of products of two nonzero structure constants, so
the work follows the nonzero constants, and it is done in runs of bounded
size.  FDAlgebra's check is the one-degree case of the same routine.

Ring files are read in time linear in their size (algebra_from_json), and
json.loads is the only parser of their structure: single-digit tables decode
from bytes; any other text goes whole through json.loads.  One scan finds
the table keys.  Each long table is cut out of the text, json.loads reads the
rest once, and each cut table must then be the template of the shape
``dims`` gives its block.  Their digits become one int64 array in one numpy
call, and each table is a view of it in its shape.  A key named twice in one
object is an error (load_json).  The constructor reads one maximum per
block, which says both whether the block needs reducing mod p and whether it
is zero.  Ring files are written the same way round (algebra_to_json): each
long table of single digits fills its template, json.dumps writes the rest
once, and the tables are spliced in at their "table" keys.  Reader and
writer cut at the same length, _SHORT_ENTRY, and build templates with one
routine, _template.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import util
from .exactlin import PrimeField, matmul_mod, residues_and_max, rref, solve_mod
from .report import FAIL, OUT_OF_WINDOW, PASS, CertifiedReport


class AlgebraFormatError(ValueError):
    """Malformed algebra data (construction or file ingestion)."""


# Size caps on input, so that a small file cannot ask for gigabytes: windows
# stay within [-WINDOW_BOUND, WINDOW_BOUND], and no degree of a graded ring file
# or of a Tate ring may have more than DIM_BOUND basis elements, so every ring
# that gtl tate emits reads back.  The widest test ring, F2[C2^7] in one degree
# (test_analyze_validates_a_128_dimensional_ring_under_a_memory_limit), is at
# the cap; the widest benchmark ring has 45.  One DIM_BOUND**3 structure block
# of int64 is 16 MiB.
# Beyond the blocks, validate holds runs of about _RUN_TERMS terms or dense
# result cells, where one dense (d, d, d, d) side of a triple would be 2 GiB.
WINDOW_BOUND = 32
DIM_BOUND = 128


def check_degree_dim(d: int, count: int) -> int:
    """The dimension of degree d, or AlgebraFormatError above DIM_BOUND (read at call time)."""
    if count > DIM_BOUND:
        raise AlgebraFormatError(f"degree {d} has dimension {count}, above the cap of {DIM_BOUND}")
    return count


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


# a basis element named by its position, 'degree:index'
DEGREE_INDEX = re.compile(r"^(-?\d+):(\d+)$")


class OutOfWindowError(ValueError):
    """A product of elements whose degrees sum outside the window."""

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
    # each block's nonzero constants in C order, read off the block as it is
    # stored: a block may be a non-contiguous view, which ravel would copy
    where = [table.nonzero() for table in mult.values()]
    empty = np.zeros(0, dtype=np.int64)
    V = np.concatenate([empty] + [table[at] for table, at in zip(mult.values(), where)])
    # each block's degrees i, j, i+j, repeated for each of its nonzero constants
    deg = np.repeat(np.array([(i, j, i + j) for i, j in mult], dtype=np.int64).reshape(-1, 3) - lo,
                    [at[0].size for at in where], axis=0).T
    A, B, X = (np.concatenate([empty] + [at[axis] for at in where]) + start[deg[axis]] for axis in range(3))
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
        na = rows.stop - a  # the shapes below are spelled out, as a degree may have dimension 0
        diff = np.zeros((na, db, dc, dy), dtype=np.int64)
        if has_lhs:
            dx = dims[i + j]
            diff += matmul_mod(t_ij[rows].reshape(na * db, dx), t_ij_k.reshape(dx, dc * dy), p).reshape(diff.shape)
        if has_rhs:
            dz = dims[j + k]
            rhs = matmul_mod(t_jk.reshape(db * dc, dz), t_i_jk[rows].transpose(1, 0, 2).reshape(dz, na * dy), p)
            diff -= rhs.reshape(db, dc, na, dy).transpose(2, 0, 1, 3)
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
        is taken over instead, reduced in place and frozen.  ``self.mult``
        keeps only the blocks that are nonzero mod p, so a key (i, j) is
        present exactly when A^i * A^j is not zero; the verifiers that sweep
        over products read that instead of testing a block for zeros.
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
            arr, top = residues_and_max(table, field.p, copy)
            want = (self.dims[i], self.dims[j], self.dims[i + j])
            if arr.shape != want:
                raise AlgebraFormatError(
                    f"mult block ({i}, {j}) must have shape {want}, got {arr.shape}"
                )
            # below p the entries were the residues and top is their max
            if top >= field.p:
                top = arr.any()
            if top:
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

    def basis_element(self, d: int, index: int) -> "GradedElement":
        if not 0 <= index < self.dim(d):
            raise ValueError(f"degree {d} has no basis index {index}")
        vec = np.zeros(self.dims[d], dtype=np.int64)
        vec[index] = 1
        return GradedElement(self, d, vec)

    def element_by_label(self, spec: str) -> "GradedElement":
        """The basis element a label or a 'degree:index' names.  A spec that
        names more than one (a repeated label, or a label that spells another
        element's 'degree:index') is refused with the candidates."""
        labels = self.labels or {}
        found = [(d, i) for d, names in labels.items() for i, label in enumerate(names) if label == spec]
        m = DEGREE_INDEX.match(spec)
        if m:
            d, i = int(m.group(1)), int(m.group(2))
            if not found or (i < self.dims.get(d, 0) and (d, i) not in found):
                found.append((d, i))
        if not found:
            raise ValueError(f"no basis element {spec!r} (use a label or 'degree:index')")
        if len(found) > 1:
            where = ", ".join(f"{d}:{i}" for d, i in found)
            raise ValueError(f"{spec!r} names {len(found)} basis elements, at {where}")
        return self.basis_element(*found[0])

    # -- multiplication ----------------------------------------------------

    def products(self, i: int, u: np.ndarray | None, j: int, w: np.ndarray | None) -> np.ndarray:
        """Every product x*y of a column x of ``u`` (in A^i) and a column y of ``w`` (in A^j).

        The result has shape (dim A^{i+j}, columns of u, columns of w); None
        stands for the basis of its degree.  ``u`` is contracted into the
        block's first axis and ``w`` into its second, one matmul_mod each.
        Every shape is spelled out from the block's dims, so an empty degree
        or a factor without columns gives an empty result.
        """
        block = self.mult_block(i, j)
        di, dj, dc = block.shape
        if u is not None:
            block = matmul_mod(u.T, block.reshape(di, dj * dc), self.p).reshape(u.shape[1], dj, dc)
            di = u.shape[1]
        if w is not None:
            flat = block.transpose(1, 0, 2).reshape(dj, di * dc)
            block = matmul_mod(w.T, flat, self.p).reshape(w.shape[1], di, dc).transpose(1, 0, 2)
        return block.transpose(2, 0, 1)

    def multiply(self, a: "GradedElement", b: "GradedElement") -> "GradedElement":
        """The product ab, in degree |a| + |b|; OutOfWindowError when that leaves the window."""
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        degree = a.degree + b.degree
        if not self.in_window(degree):
            raise OutOfWindowError(a.degree, b.degree)
        product = self.products(a.degree, a.vector[:, None], b.degree, b.vector[:, None])
        return GradedElement(self, degree, product[:, 0, 0])

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
            left_unit = self.products(0, self.unit[:, None], i, None)[:, 0]
            if not np.array_equal(left_unit, eye):
                col = int(np.flatnonzero((left_unit - eye) % self.p)[0] % di)
                return FAIL, {"law": "unit", "side": "left", "degree": i, "index": col}
            right_unit = self.products(i, None, 0, self.unit[:, None])[:, :, 0]
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
        dz, vz = z.degree, z.vector[:, None]

        def commutes(i: int):
            if not self.in_window(i + dz):
                return OUT_OF_WINDOW, None
            diff = (self.products(dz, vz, i, None)[:, 0] - self.products(i, None, dz, vz)[:, :, 0]) % self.p
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


@dataclass(eq=False)
class GradedElement:
    """Homogeneous element of a windowed graded algebra: a degree in the window
    and its coefficient vector, reduced mod p.  A zero vector keeps its degree."""

    algebra: WindowedGradedAlgebra
    degree: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        self.degree = int(self.degree)
        self.vector = self.algebra.field.reduce(self.vector)
        if self.vector.shape != (self.algebra.dim(self.degree),):
            raise ValueError(f"degree {self.degree} expects {self.algebra.dim(self.degree)} coefficients")


@dataclass(eq=False)
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

    def dim(self, d: int) -> int:
        cols = self.basis.get(d)
        return 0 if cols is None else cols.shape[1]

    def vectors(self, d: int) -> np.ndarray:
        return self.basis.get(d, np.zeros((self.algebra.dim(d), 0), dtype=np.int64))

    def contains_vector(self, d: int, vec: np.ndarray) -> bool:
        if not np.any(vec):
            return True
        cols = self.vectors(d)
        if cols.shape[1] == 0:
            return False
        return solve_mod(cols, vec, self.algebra.p) is not None


# -- serialization ---------------------------------------------------------


def algebra_to_json_dict(alg: WindowedGradedAlgebra) -> dict:
    """Canonical JSON payload; nonzero dims and mult blocks only, sorted."""
    return _payload(alg, np.ndarray.tolist)


def _payload(alg: WindowedGradedAlgebra, write_table) -> dict:
    """algebra_to_json_dict's payload, with ``write_table(table)`` standing for each mult table."""
    out: dict = {
        "field_char": alg.p,
        "window": [alg.window[0], alg.window[1]],
        "dims": {str(d): alg.dims[d] for d in sorted(alg.dims) if alg.dims[d] > 0},
        "unit": alg.unit.tolist(),
        "mult": [
            {"i": i, "j": j, "table": write_table(alg.mult[(i, j)])}
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
    dims = {d: check_degree_dim(d, int(int_array(count, f"dims entry {d}", ndim=0))) for d, count in dims.items()}
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
    """util.canonical_json(algebra_to_json_dict(alg)), in time linear in its size.

    The reader's split in reverse: a table of single digits whose text is at
    least _SHORT_ENTRY characters long is written by filling its shape's
    _template, and json.dumps writes the rest, with the placeholder string
    "\\u0000" where each such table goes.  The tables are spliced in
    afterwards, in order, at each "table":"\\u0000".  Only a written table
    puts that text there: within a string json.dumps escapes the quote after
    table, so a label, NUL or not, never takes a table's place.
    """
    tables: list[str] = []

    def write_table(table: np.ndarray):
        if _digits_length(table.shape) < _SHORT_ENTRY or table.max() > 9:
            return table.tolist()
        text = np.frombuffer(_template(table.shape), dtype=np.uint8).copy()
        text[text == ord("d")] = table.ravel() + ord("0")
        tables.append(text.tobytes().decode("ascii"))
        return "\0"

    pieces = util.canonical_json(_payload(alg, write_table)).split('"table":"\\u0000"')
    pieces[1:] = ['"table":' + text + piece for text, piece in zip(tables, pieces[1:])]
    return "".join(pieces)


def _digits_length(shape: tuple[int, ...]) -> int:
    """The length of _template(shape): the opening "[", then two characters for each
    sub-array and each slot, its "[" or "d" and the "," or "]" after it."""
    length, count = 1, 1
    for n in shape:
        count *= n
        length += 2 * count
    return length


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object json.loads reads as ``pairs``; a key named twice in it is an AlgebraFormatError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for key in keys if keys.count(key) > 1)
        raise AlgebraFormatError(f"key {twice!r} appears twice in one object")
    return obj


def load_json(text: str):
    """json.loads, with every decoding failure as AlgebraFormatError("invalid JSON: ...").

    Besides syntax errors that covers nesting too deep for the decoder and
    integers longer than int() converts; the advice int() gives then (call
    sys.set_int_max_str_digits) is for programmers, not for a file's author.
    A key named twice in one object, where json.loads would let the last
    copy win, is an AlgebraFormatError that names the key (_unique_keys).
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except AlgebraFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        reason = str(exc).split("; use sys.set_int_max_str_digits")[0]
        raise AlgebraFormatError(f"invalid JSON: {reason}") from None


def algebra_from_json(text: str) -> WindowedGradedAlgebra:
    """The ring a graded-format JSON text describes, in time linear in its size.

    Single-digit tables decode from bytes; any other text goes whole through
    json.loads.  The ``table`` of each long mult entry is cut out of the text,
    json.loads reads the rest, and each cut table is decoded from its bytes
    in the shape its block has by ``dims`` (_read_ring_payload).  A text that
    reader cannot turn into exactly what json.loads and int_array give (a
    table with a two-digit or negative entry, or a block ``dims`` gives no
    shape, say) goes whole through load_json instead, so both routes accept
    the same texts, build the same ring and raise the same errors.
    """
    try:
        payload = _read_ring_payload(text)
    except (_Declined, ValueError, RecursionError):
        payload = load_json(text)
    return algebra_from_json_dict(payload)


class _Declined(Exception):
    """A text the direct reader leaves to json.loads."""


# A table whose text ends within this many characters stays in the text for
# json.loads, and is written by json.dumps.  Per table of single digits
# (x86-64, 200 tables of one shape), json.loads and int_array read one faster
# than decoding its bytes below about 45 characters, and json.dumps writes
# one faster than filling its template below about 110.
_SHORT_ENTRY = 64
_TABLE_KEY = re.compile(r'"table"\s*:\s*')
# the digits become "d", and a "d" in the text becomes "?", so that a "d"
# after marking always stands for a digit
_MARK_DIGITS = bytes.maketrans(b"0123456789d", b"d" * 10 + b"?")


def _read_ring_payload(text: str) -> dict:
    """json.loads(text), but with the table of each long mult entry as an int64 array.

    One scan finds the "table" keys (str.find, then _TABLE_KEY.match).  Each
    long table is cut out and replaced by the placeholder string
    "\\u0000<k>", k counting the tables cut, and json.loads reads the
    stitched text once.  Placeholder k must come back, in order, as the table
    of a mult entry whose i and j give, through ``dims``, a shape
    (dims i, dims j, dims i+j) of positive ints up to DIM_BOUND, and the cut
    table, with whitespace dropped and its digits marked, must be that
    shape's _template (lengths first, so a huge ``dims`` entry builds no
    template).  Such a table holds only digits, brackets, commas and
    whitespace, so its digits are what deleting the rest leaves.  The digits
    of every cut table become int64 in one numpy call, and each table is a
    view of that array: a ring read this way holds the whole array, the
    digits of blocks it drops as zero mod p included, while any of its
    blocks lives.  JSON spells NUL only as \\u0000, so in a stitched text
    with no \\u0000 beyond the placeholders every NUL-led string is one.
    Anything else raises _Declined (or a ValueError), where the result could
    differ from json.loads followed by int_array.
    """
    pieces, cut, at, done = [], [], 0, 0
    while (at := text.find('"table"', at)) >= 0:
        if (key := _TABLE_KEY.match(text, at)) is None:
            at += 1
            continue
        at = key.end()
        # the table ends at the last "]" before the end of its entry or the
        # next string; every table is preceded by its key, so the scans
        # never overlap
        stop = text.find('"', at)
        stop = len(text) if stop < 0 else stop
        close = text.find("}", at, stop)
        stop = stop if close < 0 else close
        end = text.rfind("]", at, stop) + 1
        if stop - at < _SHORT_ENTRY or end <= at:
            continue
        pieces += [text[done:at], f'"\\u0000{len(cut)}"']
        cut.append(text[at:end].encode("ascii"))
        at = done = end
    pieces.append(text[done:])
    stitched = "".join(pieces)
    if stitched.count("\\u0000") != len(cut):
        raise _Declined
    payload = json.loads(stitched, object_pairs_hook=_unique_keys)
    dims = payload.get("dims") if isinstance(payload, dict) else None
    mult = payload.get("mult", []) if isinstance(payload, dict) else None
    if not isinstance(dims, dict) or not isinstance(mult, list):
        raise _Declined
    blocks = []
    for entry in mult:
        table = entry.get("table") if isinstance(entry, dict) else None
        if not (isinstance(table, str) and table.startswith("\0")):
            continue
        i, j = entry.get("i"), entry.get("j")
        if table != f"\0{len(blocks)}" or type(i) is not int or type(j) is not int:
            raise _Declined
        shape = (dims.get(str(i)), dims.get(str(j)), dims.get(str(i + j)))
        if not all(type(n) is int and 0 < n <= DIM_BOUND for n in shape):
            raise _Declined
        marked = cut[len(blocks)].translate(_MARK_DIGITS, b" \t\n\r")
        if _digits_length(shape) != len(marked) or _template(shape) != marked:
            raise _Declined
        blocks.append((entry, shape))
    if len(blocks) != len(cut):
        raise _Declined
    digits = b"".join(cut).translate(None, b"[], \t\n\r")
    values = np.subtract(np.frombuffer(digits, dtype=np.uint8), ord("0"), dtype=np.int64)
    start = 0
    for entry, shape in blocks:
        size = math.prod(shape)
        entry["table"] = values[start : start + size].reshape(shape)
        start += size
    return payload


def _template(shape: tuple[int, ...]) -> bytes:
    """The rectangular array of ``shape`` with one "d" in every slot, as json.dumps
    writes it with the separators of util.canonical_json: what the reader
    matches a table against, and what the writer fills with digits."""
    template = b"d"
    for n in reversed(shape):
        template = b"[" + b",".join([template] * n) + b"]"
    return template

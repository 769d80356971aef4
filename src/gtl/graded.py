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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import util
from .exactlin import PrimeField, as_residues, matmul_mod, rank_mod, rref, solve_mod
from .report import FAIL, OUT_OF_WINDOW, PASS, CertifiedReport


class AlgebraFormatError(ValueError):
    """Malformed algebra data (construction or file ingestion)."""


def int_array(value, what: str, ndim: int | None = None) -> np.ndarray:
    """A JSON integer, or nested lists of them, as an int64 array.

    Floats, booleans, strings, ragged lists, values beyond int64 and (when
    ``ndim`` is given) the wrong nesting depth are AlgebraFormatError.
    """
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
    ) -> None:
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
            arr = field.reduce(table)
            want = (self.dims[i], self.dims[j], self.dims[i + j])
            if arr.shape != want:
                raise AlgebraFormatError(
                    f"mult block ({i}, {j}) must have shape {want}, got {arr.shape}"
                )
            if arr.size and np.any(arr):
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
        products stay inside the window.  The witness names the first failure.
        """
        degrees = self.degrees()

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
            for j in degrees:
                if not self.in_window(i + j):
                    continue
                for k in degrees:
                    if not (self.in_window(j + k) and self.in_window(i + j + k)):
                        continue
                    bad = self._assoc_defect(i, j, k)
                    if bad is not None:
                        return FAIL, {"law": "associativity", "triple": (i, j, k), "indices": bad}
            return PASS, None

        return CertifiedReport.sweep("validate", degrees, check_degree)

    def _assoc_defect(self, i: int, j: int, k: int) -> tuple[int, int, int] | None:
        """First basis triple where (ab)c != a(bc), or None."""
        t_ij = self.mult_block(i, j)
        t_ij_k = self.mult_block(i + j, k)
        t_jk = self.mult_block(j, k)
        t_i_jk = self.mult_block(i, j + k)
        da, db, dx = t_ij.shape
        dc, dy = t_ij_k.shape[1], t_ij_k.shape[2]
        if 0 in (da, db, dc, dy):
            return None
        lhs = matmul_mod(t_ij.reshape(da * db, dx), t_ij_k.reshape(dx, dc * dy), self.p)
        lhs = lhs.reshape(da, db, dc, dy)
        dz = t_jk.shape[2]
        rhs_flat = matmul_mod(
            t_jk.reshape(db * dc, dz),
            t_i_jk.transpose(1, 0, 2).reshape(dz, da * dy),
            self.p,
        )
        rhs = rhs_flat.reshape(db, dc, da, dy).transpose(2, 0, 1, 3)
        diff = (lhs - rhs) % self.p
        if not np.any(diff):
            return None
        a, b, c, _ = np.unravel_index(int(np.flatnonzero(diff)[0]), diff.shape)
        return (int(a), int(b), int(c))

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


def algebra_from_json_dict(payload: dict) -> WindowedGradedAlgebra:
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
    try:
        dims = util.parse_int_keys(dims_raw, "dims")
        labels = util.parse_int_keys(payload["labels"], "labels") if "labels" in payload else None
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from None
    dims = {d: int(int_array(count, f"dims entry {d}", ndim=0)) for d, count in dims.items()}
    unit = int_array(unit, "unit", ndim=1)
    if not isinstance(mult_raw, list):
        raise AlgebraFormatError("mult must be a list of blocks")
    mult: dict[tuple[int, int], np.ndarray] = {}
    for entry in mult_raw:
        try:
            i, j, table = entry["i"], entry["j"], entry["table"]
        except (KeyError, TypeError) as exc:
            raise AlgebraFormatError(f"malformed mult entry ({exc}): {entry!r}") from None
        key = (int(int_array(i, "mult entry i", ndim=0)), int(int_array(j, "mult entry j", ndim=0)))
        if key in mult:
            raise AlgebraFormatError(f"duplicate mult block {key}")
        mult[key] = int_array(table, f"mult entry {key}")
    try:
        return WindowedGradedAlgebra(fld, (int(window[0]), int(window[1])), dims, mult, unit, labels)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AlgebraFormatError(str(exc)) from None


def algebra_to_json(alg: WindowedGradedAlgebra) -> str:
    return util.canonical_json(algebra_to_json_dict(alg))


def algebra_from_json(text: str) -> WindowedGradedAlgebra:
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"invalid JSON: {exc}") from None
    return algebra_from_json_dict(payload)

"""Finite-dimensional local algebras, stable module theory, and Tate rings.

An FDAlgebra is a based algebra over a prime field with an explicit radical
basis; modules are based too, as one action matrix per algebra basis vector.
Syzygies come from minimal free covers (generators = a complement of J*M),
cosyzygies from injective hulls (the cokernel of M -> A^r, r = dim soc M).
A syzygy tower is the complete resolution, one record per step: W_a and the
cover F_a -> W_{a-1} whose kernel it is, the minimal cover of W_{a-1} for
a >= 1 and the injective hull of W_a below that.  Free modules stay columns:
the algebra acts on them block by block through its multiplication tensor,
never through (r*d)^2 action matrices.

Graded rings, FD algebras and FD modules share one term-by-term law check,
graded.associativity_failures.  FDAlgebra.validate passes it the table as a
one-degree ring; FDModule.validate the algebra in degree 0 and the module in
degree 1, whose (0, 0, 1) triples are the module law.  FDAlgebra.validate also
certifies the nilpotency of the radical J by squaring its span,
J -> J^2 -> J^4 ..., until the power passes dim A or a squaring leaves the
span unchanged.

Hom spaces work in generator coordinates: a map out of a module is fixed by
its values on the r cover generators, so Hom(W, N) is the kernel of a
relation matrix in r*n unknowns (every kernel column of the cover must go
to 0).  Stable homs divide out the maps that factor through a projective,
which have one construction, projective_factor_columns.  Over a
self-injective algebra projectives are injective, so those are the
restrictions of the maps P -> N along any embedding W -> P into a free
module: free data, no elimination.  Every module uses its recorded
embedding: a syzygy W_a (a >= 1) its inclusion into P_{a-1}, any other
module its injective hull.  The hull sends x to the module maps
sum_t mu(e_t x) e_t^dual into A, one per functional mu in a generating set
of the dual module, where e_t^dual is the dual basis under the symmetrizing
form.  Stable homs need a symmetrizing form that passes validate_symmetric.

The Tate construction turns the window of stable self-extensions of a module
into a degree-windowed algebra: the degree-d component is represented by
stable maps W_{d+t} -> W_t down the syzygy tower, with t = max(0, -d) the
home shift.  Omega and its inverse shift maps along the complete
resolution, up by lifting through covers (omega_lift) and down by extending
into injective hulls (omega_inverse_lift); both preserve stable classes.
Products are computed at a common shift (the right factor composed after
the left one, on the source's cover generators only) and solved for
coordinates against the equally lifted stable basis, once per (degree,
shift) system.  A mixed-sign product is solved at its degree's home shift
when that system is much smaller, through the cosyzygies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exactlin import PrimeField, complement, kernel_from_rref, kernel_mod, matmul_mod, rref, solve_mod
from .graded import (
    AlgebraFormatError, WindowedGradedAlgebra, associativity_failures, check_degree_dim, col_echelon, int_array,
)
from .report import FAIL, PASS, CertifiedReport, PreconditionError

# Tate rings are built over algebras of dimension at most FD_DIM_BOUND: the
# explicit format's dim, a truncated_polynomial shorthand's product of
# exponents and a bimodule's enveloping algebra (d^2) are all checked before
# anything of that size is allocated.  The largest gallery, test and benchmark
# algebra is the enveloping algebra of k[x]/(x^10), of dimension 100; one
# FD_DIM_BOUND**3 mult tensor of int64 is 16 MiB.
FD_DIM_BOUND = 128

# FDAlgebra.validate squares the radical span a chunk of about this many
# products at a time; after the first chunks the rest mostly reduce to zero.
_SQUARE_CHUNK = 2048


def check_fd_dim(dim: int, what: str) -> None:
    """Reject an algebra of dimension below 1 or above FD_DIM_BOUND before it is built."""
    if dim > FD_DIM_BOUND:
        raise AlgebraFormatError(f"{what} has dimension {dim}, above the cap of {FD_DIM_BOUND}")
    if dim < 1:
        raise AlgebraFormatError(f"{what} has dimension {dim}, outside [1, {FD_DIM_BOUND}]")


def _kron(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.kron(a % p, b % p) % p


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """A stack of matrices (k, rows, cols) laid side by side as (rows, k*cols)."""
    k, rows, cols = stack.shape
    return stack.transpose(1, 0, 2).reshape(rows, k * cols)


def _blocks_side_by_side(stack: np.ndarray, rows: int) -> np.ndarray:
    """The row blocks of ``stack``, ``rows`` rows each, laid side by side."""
    return _side_by_side(stack.reshape(stack.shape[0] // rows, rows, stack.shape[1]))


def _powers(flat: np.ndarray, e: int, p: int) -> np.ndarray:
    """Row s: the e-th power (e >= 1) of basis element s, all at once, where
    ``flat[s, t*d + u]`` is the e_u-coefficient of e_s * e_t."""
    d = flat.shape[0]

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # row s: a[s] * b[s]
        return np.einsum("st,stu->su", b, matmul_mod(a, flat, p).reshape(d, d, d)) % p

    power = basis = np.eye(d, dtype=np.int64)
    for bit in bin(e)[3:]:  # the bits after the leading one
        power = times(power, power)
        if bit == "1":
            power = times(power, basis)
    return power


@dataclass(eq=False)
class FDAlgebra:
    """Based finite-dimensional algebra with a designated radical basis.

    mult[s, t, u] is the e_u-coefficient of e_s * e_t.  ``radical`` holds
    column vectors spanning the Jacobson radical; the algebra is expected to
    be local (radical of codimension one), which validate() checks.  An
    optional ``symmetrizing`` functional lam makes (a, b) |-> lam(ab) a
    candidate symmetric nondegenerate form (see validate_symmetric).
    """

    field: PrimeField
    dim: int
    mult: np.ndarray
    unit: np.ndarray
    radical: np.ndarray
    symmetrizing: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    # left_ops[s*d + u, t] = mult[s, t, u]: block s is the matrix of e_s * (-)
    left_ops: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.field.p
        d = self.dim
        self.mult = np.asarray(self.mult, dtype=np.int64) % p
        if self.mult.shape != (d, d, d):
            raise AlgebraFormatError(f"mult tensor must be {d}x{d}x{d}")
        self.unit = np.asarray(self.unit, dtype=np.int64).reshape(d) % p
        self.radical = np.asarray(self.radical, dtype=np.int64).reshape(d, -1) % p
        if self.symmetrizing is not None:
            self.symmetrizing = np.asarray(self.symmetrizing, dtype=np.int64).reshape(d) % p
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != d:
                raise AlgebraFormatError("labels length must equal dim")
        self.left_ops = self.mult.transpose(0, 2, 1).reshape(d * d, d)
        for arr in (self.mult, self.unit, self.radical, self.left_ops):
            arr.setflags(write=False)
        # both set by validate_symmetric once it passes
        self._gram: np.ndarray | None = None
        self._dual_basis: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.field.p

    # -- actions ----------------------------------------------------------

    def left_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of a * (-) in the basis."""
        flat = matmul_mod(np.asarray(vec, dtype=np.int64)[None, :], self.left_ops.reshape(self.dim, -1), self.p)
        return flat.reshape(self.dim, self.dim)

    def right_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of (-) * a in the basis."""
        mid = self.mult.transpose(1, 0, 2)
        flat = matmul_mod(np.asarray(vec, dtype=np.int64)[None, :], mid.reshape(self.dim, -1), self.p)
        return flat.reshape(self.dim, self.dim).T

    # -- validation -------------------------------------------------------

    def validate(self) -> CertifiedReport:
        """Unit law, associativity, and the local-radical axioms."""
        p, d = self.p, self.dim
        rep = CertifiedReport(check="fd_algebra")
        eye = np.eye(d, dtype=np.int64)
        units = (self.left_matrix(self.unit), self.right_matrix(self.unit))
        bad = next((np.argwhere(act != eye)[0] for act in units if not np.array_equal(act, eye)), None)
        rep.add("unit", PASS if bad is None else FAIL, None if bad is None else {"entry": tuple(int(v) for v in bad)})

        failure = associativity_failures(p, (0, 0), {0: d}, {(0, 0): self.mult}).get(0)
        rep.add("associativity", PASS if failure is None else FAIL,
                None if failure is None else {"triple": failure[2]})

        r = self.radical
        # block c of left_rad is the matrix of r_c * (-); its columns are the r_c * e_t
        left_rad = matmul_mod(r.T, self.left_ops.reshape(d, d * d), p).reshape(-1, d)
        right_prods = matmul_mod(self.left_ops, r, p)  # block t holds the e_t * r_c
        prods = np.hstack([_blocks_side_by_side(left_rad, d), _blocks_side_by_side(right_prods, d)])
        ideal_ok = solve_mod(r, prods, p) is not None
        rep.add("radical_ideal", PASS if ideal_ok else FAIL)

        # J is nilpotent when J^(d+1) = 0; over an associative table
        # J^(2m) = J^m J^m, so square the span until the power passes d.  A
        # squaring that leaves the span unchanged, J^(2m) = J^m != 0, leaves
        # it so for good.
        span, power = r, 1
        while span.shape[1] and power <= d:
            square = self._square_span(span)
            if np.array_equal(square, span):
                break
            span, power = square, power * 2
        rep.add("radical_nilpotent", FAIL if span.shape[1] else PASS)

        pivots = rref(np.hstack([r, self.unit[:, None]]), p)[1]  # rank d - 1, the unit outside the span
        codim_ok = len(pivots) == d and pivots[-1] == r.shape[1]
        rep.add("radical_codim_one", PASS if codim_ok else FAIL)
        return rep

    def _square_span(self, span: np.ndarray) -> np.ndarray:
        """col_echelon of the products x*y of the columns x, y of ``span``.

        The products are made a few left factors at a time, about
        _SQUARE_CHUNK of them, and reduced against the running echelon
        basis (identity on its pivot rows) by one product; only what is
        left over is eliminated.
        """
        p, d = self.p, self.dim
        k = span.shape[1]
        basis = np.zeros((d, 0), dtype=np.int64)
        # block c of left is the matrix of x_c * (-)
        left = matmul_mod(span.T, self.left_ops.reshape(d, d * d), p).reshape(-1, d)
        step = d * max(1, _SQUARE_CHUNK // max(k, 1))
        for lo in range(0, k * d, step):
            prods = _blocks_side_by_side(matmul_mod(left[lo:lo + step], span, p), d)
            if basis.shape[1]:
                pivots = (basis != 0).argmax(axis=0)
                prods = (prods - matmul_mod(basis, prods[pivots], p)) % p
            new = prods[:, prods.any(axis=0)]
            if new.shape[1]:
                basis = col_echelon(np.hstack([basis, new]), p)
        return basis

    def validate_symmetric(self) -> CertifiedReport:
        """The symmetrizing functional induces a symmetric nondegenerate form.

        gram[s, t] = lam(e_s e_t).  One reduction of [gram | I], pivots sought
        in gram: their count is the verdict, and the right block is the
        inverse of gram that dual_basis returns.  Both matrices are kept."""
        rep = CertifiedReport(check="symmetric_form")
        if self.symmetrizing is None:
            rep.add("present", FAIL, {"reason": "no symmetrizing functional"})
            return rep
        rep.add("present", PASS)
        p, d = self.p, self.dim
        gram = matmul_mod(self.mult.reshape(d * d, d), self.symmetrizing[:, None], p).reshape(d, d)
        if np.array_equal(gram, gram.T):
            rep.add("symmetric", PASS)
        else:
            s, t = (int(v) for v in np.argwhere((gram - gram.T) % p)[0])
            rep.add("symmetric", FAIL, {"entry": (s, t)})
        red, pivots = rref(np.hstack([gram, np.eye(d, dtype=np.int64)]), p, d)
        if len(pivots) == d:
            rep.add("nondegenerate", PASS)
        else:
            kernel = kernel_from_rref(red, pivots, d, p)[:, 0].tolist()
            rep.add("nondegenerate", FAIL, {"rank": len(pivots), "kernel": kernel})
        if rep.passed:
            self._gram, self._dual_basis = gram, red[:, d:]
        return rep

    def dual_basis(self) -> np.ndarray:
        """Column t holds e_t^dual, the basis with lam(e_s e_t^dual) = delta_st.

        That is the C with gram @ C = I, the right block of validate_symmetric's one reduction.
        Raises PreconditionError, naming the failing clauses, unless validate_symmetric passes.
        """
        if self._dual_basis is None:
            rep = self.validate_symmetric()
            if not rep.passed:
                clauses = ", ".join(str(f.key) for f in rep.failures())
                raise PreconditionError(f"algebra has no validated symmetrizing form ({clauses} failed)")
        return self._dual_basis

    # -- constructions ----------------------------------------------------

    def enveloping(self) -> FDAlgebra:
        """A tensor A^op, whose left modules are the (A, A)-bimodules.

        Basis pairs (s, t) are flattened row-major; (s, t) acts on a
        bimodule by e_s * (-) * e_t.
        """
        p, d = self.p, self.dim
        check_fd_dim(d * d, "enveloping algebra")
        outer_left = self.mult.reshape(d, 1, d, 1, d, 1)
        outer_right = self.mult.transpose(1, 0, 2).reshape(1, d, 1, d, 1, d)
        mult_e = (outer_left * outer_right) % p
        mult_e = mult_e.reshape(d * d, d * d, d * d)
        unit_e = _kron(self.unit[:, None], self.unit[:, None], p).reshape(d * d)
        eye = np.eye(d, dtype=np.int64)
        rad_e = col_echelon(
            np.hstack([_kron(self.radical, eye, p), _kron(eye, self.radical, p)]), p
        )
        lam_e = None
        if self.symmetrizing is not None:
            lam_e = _kron(self.symmetrizing[:, None], self.symmetrizing[:, None], p).reshape(d * d)
        labels = None
        if self.labels is not None:
            labels = tuple(f"{a}|{b}" for a in self.labels for b in self.labels)
        return FDAlgebra(self.field, d * d, mult_e, unit_e, rad_e, lam_e, labels)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "field_char": self.p,
            "dim": self.dim,
            "mult": self.mult.tolist(),
            "unit": self.unit.tolist(),
            "radical": self.radical.tolist(),
        }
        if self.symmetrizing is not None:
            out["symmetrizing"] = self.symmetrizing.tolist()
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def derive_radical(mult: np.ndarray, unit: np.ndarray, field: PrimeField) -> np.ndarray:
    """Radical of a local based algebra given only its structure constants.

    Locality means x |-> (scalar c with x - c*1 nilpotent) is the algebra's
    unique character; the radical is its kernel.  The scalar for a basis
    element comes from trace(L_x)/dim when p does not divide dim.  Otherwise
    it is read off x^q = c*1, q the least power of p with q >= dim: the
    nilpotent part's q-th power vanishes, and c^q = c.
    """
    p = field.p
    d = unit.shape[0]
    chars = np.zeros(d, dtype=np.int64)
    flat = np.asarray(mult, dtype=np.int64).reshape(d, d * d) % p
    if d % p != 0:
        inv_d = pow(d % p, -1, p)
        for s in range(d):
            left = flat[s].reshape(d, d).T
            chars[s] = int(np.trace(left) % p) * inv_d % p
    else:
        q = p
        while q < d:
            q *= p
        powers = _powers(flat, q, p)
        unit = np.asarray(unit, dtype=np.int64) % p
        lead = np.flatnonzero(unit)
        if lead.size == 0:
            raise AlgebraFormatError("unit is zero")
        chars = powers[:, lead[0]] * pow(int(unit[lead[0]]), -1, p) % p
        off = np.flatnonzero(np.any((powers - chars[:, None] * unit) % p, axis=1))
        if off.size:
            raise AlgebraFormatError(f"basis element {off[0]} has no nilpotent shift; algebra is not local")
    rad = kernel_mod(chars[None, :], p)
    if rad.shape[1] != d - 1:
        raise AlgebraFormatError("derived character does not cut out a codimension-one radical")
    return rad


def fd_algebra_from_json_dict(payload: dict) -> FDAlgebra:
    """Parse the explicit based-algebra format, deriving the radical if absent."""
    if not isinstance(payload, dict):
        raise AlgebraFormatError("algebra payload must be an object")
    try:
        p = int(int_array(payload["field_char"], "field_char", ndim=0))
        dim = int(int_array(payload["dim"], "dim", ndim=0))
        check_fd_dim(dim, "algebra")
        mult = int_array(payload["mult"], "mult")
        unit = int_array(payload["unit"], "unit")
    except KeyError as exc:
        raise AlgebraFormatError(f"missing required key {exc.args[0]!r}") from None
    try:
        pf = PrimeField(p)
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from exc
    if mult.shape != (dim, dim, dim):
        raise AlgebraFormatError(f"mult must be a {dim}^3 nested list, got shape {mult.shape}")
    if unit.shape != (dim,):
        raise AlgebraFormatError("unit must be a vector of length dim")
    if "radical_basis" in payload:
        raise AlgebraFormatError('unknown key "radical_basis": the radical columns go under "radical"')
    if "radical" in payload:
        radical = int_array(payload["radical"], "radical")
        if radical.ndim != 2 or radical.shape[0] != dim:
            raise AlgebraFormatError("radical must be a dim-row matrix of basis columns")
    else:
        radical = derive_radical(mult, unit % p, pf)
    lam = None
    if payload.get("symmetrizing") is not None:
        lam = int_array(payload["symmetrizing"], "symmetrizing")
        if lam.shape != (dim,):
            raise AlgebraFormatError("symmetrizing must be a vector of length dim")
    labels = payload.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and all(isinstance(name, str) for name in labels)):
            raise AlgebraFormatError("labels must be a list of strings")
    return FDAlgebra(pf, dim, mult, unit, radical, lam, labels)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FDModule:
    """Left module over an FDAlgebra: one action matrix per basis element.

    ``inclusion`` is the (rank*algebra.dim, dim) matrix of the module's
    embedding into a free module: set on syzygies at construction, and
    recorded by _free_embedding (the injective hull) on any other module
    at first use.  minimal_cover caches the module's cover on it.
    """

    algebra: FDAlgebra
    dim: int
    action: np.ndarray  # (algebra.dim, dim, dim)
    inclusion: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.action = np.asarray(self.action, dtype=np.int64) % self.algebra.p
        if self.action.shape != (self.algebra.dim, self.dim, self.dim):
            raise AlgebraFormatError(
                f"action must have shape ({self.algebra.dim}, {self.dim}, {self.dim})"
            )
        self.action.setflags(write=False)
        self._cover: Cover | None = None

    @property
    def p(self) -> int:
        return self.algebra.p

    def validate(self) -> CertifiedReport:
        """Certify the unit law and multiplicativity, e_s (e_t x) = (e_s e_t) x,
        the latter in one associativity_failures call (see the module docstring).
        Its witness is the first failing {"pair": (s, t)} in C order; a table that
        is not associative fails first, at its first failing {"triple": (s, t, u)}."""
        rep = CertifiedReport(check="fd_module")
        # the unit's action, one slice per nonzero coordinate: a tower module's
        # action is a non-contiguous view, which a (d, m*m) reshape would copy
        unit = self.algebra.unit
        acts = np.zeros((self.dim, self.dim), dtype=np.int64)
        for s in np.flatnonzero(unit):
            acts = (acts + unit[s] * self.action[s]) % self.p
        rep.add("unit", PASS if np.array_equal(acts, np.eye(self.dim, dtype=np.int64)) else FAIL)
        blocks = {(0, 0): self.algebra.mult, (0, 1): self.action.transpose(0, 2, 1)}
        failure = associativity_failures(self.p, (0, 1), {0: self.algebra.dim, 1: self.dim}, blocks).get(0)
        if failure is None:
            rep.add("multiplicativity", PASS)
        else:
            _, k, (s, t, u) = failure
            rep.add("multiplicativity", FAIL, {"pair": (s, t)} if k else {"triple": (s, t, u)})
        return rep


def _free_action(alg: FDAlgebra, cols: np.ndarray) -> np.ndarray:
    """Every basis element e_s applied to columns of a free module A^r.

    ``cols`` is (r*d, k), block b holding the coefficients of component b;
    the result is (d, r*d, k) with e_s * cols in slice s.  Each block is
    multiplied through alg.mult, d^3*r*k multiply-adds, so the (r*d)^2
    action matrices of A^r are never formed.
    """
    p, d = alg.p, alg.dim
    width, k = cols.shape
    r = width // d
    blocks = cols.reshape(r, d, k).transpose(1, 0, 2).reshape(d, r * k)
    moved = matmul_mod(alg.left_ops, blocks, p)
    return moved.reshape(d, d, r, k).transpose(0, 2, 1, 3).reshape(d, width, k)


def trivial_module(alg: FDAlgebra) -> FDModule:
    """The one-dimensional module through the unique character of a local algebra."""
    p, d = alg.p, alg.dim
    basis = np.hstack([alg.unit[:, None], alg.radical])
    coords = solve_mod(basis, np.eye(d, dtype=np.int64), p) if basis.shape[1] == d else None
    if coords is None:
        raise AlgebraFormatError("algebra is not local: unit plus radical is not a basis")
    return FDModule(alg, 1, coords[0].reshape(d, 1, 1))


def regular_bimodule(alg: FDAlgebra) -> FDModule:
    """The algebra as a module over its enveloping algebra (s, t): a -> e_s a e_t.

    All d^3 products are one matrix product, read as (e_s e_v) e_t, which
    is e_s (e_v e_t) for the associative tables this is meant for.
    """
    env = alg.enveloping()
    d = alg.dim
    prods = matmul_mod(alg.mult.reshape(d * d, d), alg.mult.reshape(d, d * d), alg.p)
    # prods[(s, v), (t, u)] is the e_u-coefficient of (e_s e_v) e_t
    mats = prods.reshape(d, d, d, d).transpose(0, 2, 3, 1).reshape(d * d, d, d)
    return FDModule(env, d, mats)


# ---------------------------------------------------------------------------
# covers and syzygies
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Cover:
    """A free cover pi: A^r -> module, with pi of shape (module.dim, r*d).

    A minimal cover sends free generator b to the module basis vector
    ``gens[b]`` (r = len(gens)); an injective hull's quotient map has
    ``gens`` None.  ``kernel`` embeds ker(pi), and ``kernel_rows`` are the
    rows a left inverse of it reads, L y = inverse @ y[kernel_rows];
    ``inverse`` None is the identity, for kernel_mod's basis.  ``section``
    is a linear right inverse (pi @ section = I).
    """

    pi: np.ndarray
    gens: tuple[int, ...] | None
    kernel: np.ndarray
    kernel_rows: np.ndarray
    section: np.ndarray
    inverse: np.ndarray | None = None


def _radical_action(module: FDModule) -> np.ndarray:
    """The matrices (c, dim, dim) by which the c radical basis vectors act."""
    alg = module.algebra
    c, d, m = alg.radical.shape[1], alg.dim, module.dim
    return matmul_mod(alg.radical.T, module.action.reshape(d, m * m), alg.p).reshape(c, m, m)


def _split(mat: np.ndarray, p: int, failure: str) -> tuple[np.ndarray, list[int], np.ndarray]:
    """One reduction of [mat | I], for mat of full row rank m (else ArithmeticError(failure)):
    kernel_mod's basis of ker(mat), the pivot columns, and the m x m E with mat[:, pivots] @ E = I."""
    m, width = mat.shape
    red, pivots = rref(np.hstack([mat, np.eye(m, dtype=np.int64)]), p)
    if pivots and pivots[-1] >= width:
        raise ArithmeticError(failure)
    return kernel_from_rref(red, pivots, width, p), pivots, red[:m, width:]


def minimal_cover(module: FDModule) -> Cover:
    """Free cover on generators completing an echelon basis of J*module.

    Cached on the module.  J*module is spanned by the columns of the
    radical's action matrices; the rows where their span has pivots (one
    reduction) lie in it, and the other rows are the generators.  A second
    reduction, of [pi | I] (_split), checks surjectivity and yields both the
    kernel and the section.
    """
    if module._cover is not None:
        return module._cover
    alg = module.algebra
    p, d, m = module.p, alg.dim, module.dim
    jm = _radical_action(module)
    _, in_jm = rref(jm.transpose(0, 2, 1).reshape(jm.shape[0] * m, m), p)
    gens = tuple(complement(in_jm, m).tolist())
    width = len(gens) * d
    pi = module.action[:, :, list(gens)].transpose(1, 2, 0).reshape(m, width)
    kernel, pivots, inverse = _split(pi, p, "cover is not surjective; the radical data is inconsistent")
    section = np.zeros((width, m), dtype=np.int64)
    section[list(pivots)] = inverse
    module._cover = Cover(pi, gens, kernel, complement(pivots, width), section)
    return module._cover


def syzygy_step(module: FDModule) -> FDModule:
    """The kernel of the module's minimal cover, with ``inclusion`` the cover's kernel basis.

    The kernel basis is the identity on ``kernel_rows``, so the action on
    it is read off those rows of the moved basis and checked by one product.
    """
    cover = minimal_cover(module)
    p, d = module.p, module.algebra.dim
    iota = cover.kernel
    width, k = iota.shape
    moved = _free_action(module.algebra, iota)
    mats = moved[:, cover.kernel_rows, :]
    back = matmul_mod(iota, mats.transpose(1, 0, 2).reshape(k, d * k), p)
    if not np.array_equal(back, moved.transpose(1, 0, 2).reshape(width, d * k)):
        raise ArithmeticError("syzygy is not closed under the action")
    return FDModule(module.algebra, k, mats, inclusion=iota)


def _free_embedding(module: FDModule) -> np.ndarray:
    """An injective module map from ``module`` into a free module, as (r*d, module.dim) columns.

    A syzygy's recorded inclusion; otherwise the injective hull, recorded as
    the module's inclusion.  A module map phi: X -> A is fixed by the
    functional lam o phi, as x |-> sum_t lam(phi(e_t x)) e_t^dual, and any
    functional gives one.  So the hull sends x to one such value per
    functional in a generating set of the dual D(X): the coordinate
    functionals completing an echelon basis of D(X) J, r = dim soc(X) of them.
    """
    if module.inclusion is None:
        alg = module.algebra
        d, m = alg.dim, module.dim
        jm = _radical_action(module)
        _, in_dj = rref(jm.reshape(jm.shape[0] * m, m), alg.p)
        gens = complement(in_dj, m)
        moved = matmul_mod(alg.dual_basis(), module.action[:, gens, :].reshape(d, len(gens) * m), alg.p)
        module.inclusion = moved.reshape(d, len(gens), m).transpose(1, 0, 2).reshape(len(gens) * d, m)
    return module.inclusion


def cosyzygy_step(module: FDModule) -> tuple[FDModule, Cover]:
    """The cokernel of the module's injective hull, and the hull's quotient map onto it.

    One reduction of [iota^T | I] (_split) gives the hull's pivot rows, the
    projection (the kernel basis of iota^T, one row for each other row) and
    the left inverse.  The projection times each e_t acting on the free
    module, restricted to the cokernel rows, is the action; it is checked to
    kill the hull.
    """
    alg = module.algebra
    p, d = alg.p, alg.dim
    iota = _free_embedding(module)
    width = iota.shape[0]
    proj, pivots, inverse = _split(iota.T, p, "injective hull is not injective")
    rest = complement(pivots, width)
    k = len(rest)
    # C order, so that its (-1, d) reshapes here and in _down_target are views
    proj = proj.T.copy()
    # (proj e_t)[z, (b, s)] = sum_u proj[z, (b, u)] mult[t, s, u], all t in one product
    by_row = alg.left_ops.reshape(d, d, d).transpose(1, 0, 2).reshape(d, d * d)
    moved = matmul_mod(proj.reshape(-1, d), by_row, p).reshape(k, width // d, d, d)
    moved = moved.transpose(2, 0, 1, 3).reshape(d, k, width)
    if np.any(matmul_mod(moved.reshape(d * k, width), iota, p)):
        raise ArithmeticError("hull image is not closed under the action")
    section = np.eye(width, dtype=np.int64)[:, rest]
    cover = Cover(proj, None, iota, np.asarray(pivots, dtype=np.int64), section, inverse.T.copy())
    return FDModule(alg, k, moved[:, :, rest]), cover


class SyzygyTower:
    """The complete resolution of a module: W_0 = M, W_{a+1} = ker(P_a -> W_a), W_{a-1} = coker(W_a -> I_a).

    ``modules[a]`` is W_a, as far as built, and ``covers[a]`` the cover
    F_a -> W_{a-1} whose kernel is W_a: the minimal cover of W_{a-1} for
    a >= 1, and the injective hull of W_a below that.
    """

    def __init__(self, module: FDModule):
        self.modules: dict[int, FDModule] = {0: module}
        self.covers: dict[int, Cover] = {}
        self._down: dict[tuple[str, int], tuple] = {}

    def module(self, i: int) -> FDModule:
        """W_i for any integer i, building the tower out to it on first use."""
        if i in self.modules:  # built indices are one range around 0; a missing i is past an end
            return self.modules[i]
        while i > (a := max(self.modules)):
            try:
                self.modules[a + 1] = syzygy_step(self.modules[a])
            except ArithmeticError as exc:
                raise ArithmeticError(f"tower step W_{a} -> W_{a + 1}: {exc}") from exc
            self.covers[a + 1] = minimal_cover(self.modules[a])
        while i < (a := min(self.modules)):
            try:
                self.modules[a - 1], self.covers[a] = cosyzygy_step(self.modules[a])
            except ArithmeticError as exc:
                raise ArithmeticError(f"tower step W_{a} -> W_{a - 1}: {exc}") from exc
        return self.modules[i]

    def cover(self, a: int) -> Cover:
        """The cover F_a -> W_{a-1} whose kernel is W_a."""
        self.module(a if a > 0 else a - 1)
        return self.covers[a]

    def ranks(self, count: int) -> list[int]:
        """Generator counts of the covers of W_0 .. W_{count-1} (Betti-number shadow)."""
        return [len(minimal_cover(self.module(a)).gens) for a in range(count)]


def omega_lift(tower: SyzygyTower, mat: np.ndarray, a: int, b: int) -> np.ndarray:
    """Shift module maps W_a -> W_b one step up the tower, to W_{a+1} -> W_{b+1}.

    ``mat`` is one map (dim W_b, dim W_a) or a stack of them (k, dim W_b,
    dim W_a), lifted together; the result has the same layout.  The maps'
    values on W_a's cover generators (the basis vectors ``gens``) are
    lifted through the cover of W_b by its section, extended freely to
    P_a -> P_b (every e_s applied to the lifted values at once), and
    restricted to the syzygies along their inclusions (a, b >= 0).
    """
    alg = tower.module(0).algebra
    p, d = alg.p, alg.dim
    ca, cb = tower.cover(a + 1), tower.cover(b + 1)
    iota_a, iota_b = ca.kernel, cb.kernel
    maps = np.asarray(mat, dtype=np.int64)
    k = maps.shape[0] if maps.ndim == 3 else 1
    n_b, m_a = maps.shape[-2:]
    r_a, width = len(ca.gens), cb.section.shape[0]
    values = maps.reshape(k, n_b, m_a)[:, :, list(ca.gens)].transpose(1, 0, 2).reshape(n_b, k * r_a)
    lifted = matmul_mod(cb.section, values, p)
    free_map = _free_action(alg, lifted).reshape(d, width, k, r_a).transpose(2, 1, 3, 0)
    moved = matmul_mod(free_map.reshape(k * width, r_a * d), iota_a, p).reshape(k, width, iota_a.shape[1])
    out = moved[:, cb.kernel_rows]
    if not np.array_equal(matmul_mod(iota_b, _side_by_side(out), p), _side_by_side(moved)):
        raise ArithmeticError(f"omega lift of W_{a} -> W_{b}: lifted map does not preserve kernels")
    return out if maps.ndim == 3 else out[0]


def _down_source(tower: SyzygyTower, a: int) -> tuple:
    """W_a's matrices as the source of down-lifts, built once per tower index.

    ``extend`` (dim W_a, d * dim W_{a-1}) takes functionals nu on the free
    module, read on the rows of iota_a's left inverse (the cover's
    ``inverse``), to the values nu(e_t s(x)) on the cover's section s;
    ``action`` (dim W_a, d * dim W_a) takes functionals mu on W_a to the mu(e_t x).
    """
    key = ("source", a)
    if key not in tower._down:
        module, cover = tower.module(a), tower.cover(a)
        m = module.dim
        extend = _free_action(module.algebra, cover.section)[:, cover.kernel_rows, :]
        action = module.action.transpose(1, 0, 2).reshape(m, -1)
        tower._down[key] = (cover.inverse, extend.transpose(1, 0, 2).reshape(m, -1), action)
    return tower._down[key]


def _down_target(tower: SyzygyTower, b: int) -> tuple:
    """W_b's matrices as the target of down-lifts, built once per tower index.

    ``paired`` (r * d, dim W_b) reads lam(e_t iota_b(y)_c) off each free
    component c of iota_b, and ``pushdown`` (dim W_{b-1}, r * d) is the
    quotient projection after the dual basis, so that a map into A^r given
    by its functionals lands in W_{b-1}.
    """
    key = ("target", b)
    if key not in tower._down:
        alg = tower.module(0).algebra
        p, d = alg.p, alg.dim
        cover = tower.cover(b)
        iota, proj = cover.kernel, cover.pi
        width, n = iota.shape
        # dual_basis validates the form first, which keeps its Gram matrix
        pushdown = matmul_mod(proj.reshape(-1, d), alg.dual_basis(), p).reshape(proj.shape)
        paired = matmul_mod(alg._gram, _blocks_side_by_side(iota, d), p)
        paired = paired.reshape(d, width // d, n).transpose(1, 0, 2).reshape(width, n)
        tower._down[key] = (paired, pushdown)
    return tower._down[key]


def omega_inverse_lift(tower: SyzygyTower, mat: np.ndarray, a: int, b: int) -> np.ndarray:
    """Shift module maps W_a -> W_b one step down the tower, to W_{a-1} -> W_{b-1}.

    ``mat`` is one map (dim W_b, dim W_a) or a stack of them, lifted
    together; the result has the same layout.  Each W_{c-1} is the quotient
    of the free module F_c that W_c embeds in by iota_c (tower.cover).
    The free module is injective, so iota_b f extends along iota_a to
    g: F_a -> F_b, which passes to the quotients.  A map phi into A is
    x |-> sum_t lam(phi(e_t x)) e_t^dual, so g is read off the functionals
    lam o iota_b f extended linearly by a left inverse of iota_a: matrix
    products only, through the matrices _down_source and _down_target
    build once per tower index.  The restriction of g to W_a is iota_b f exactly
    when lam(iota_b f(e_t x)) = lam(e_t iota_b f(x)) for every t, which is
    checked.
    """
    alg = tower.module(0).algebra
    p, d = alg.p, alg.dim
    inverse, extend, action = _down_source(tower, a)
    paired, pushdown = _down_target(tower, b)
    maps = np.asarray(mat, dtype=np.int64)
    k = maps.shape[0] if maps.ndim == 3 else 1
    n_b, m_a = maps.shape[-2:]
    r_b, n_out, m_out = paired.shape[0] // d, pushdown.shape[0], extend.shape[1] // d
    seen = matmul_mod(paired, _side_by_side(maps.reshape(k, n_b, m_a)), p)  # lam(e_t (iota_b f x)_c)
    mu = matmul_mod(alg.unit[None, :], _blocks_side_by_side(seen, d), p)
    mu = mu.reshape(r_b, k, m_a).transpose(1, 0, 2).reshape(k * r_b, m_a)
    seen = seen.reshape(r_b, d, k, m_a).transpose(2, 0, 1, 3).reshape(k * r_b, d * m_a)
    if not np.array_equal(matmul_mod(mu, action, p), seen):
        raise ArithmeticError(f"omega inverse lift of W_{a} -> W_{b}: extended map does not restrict to the maps")
    nu = mu if inverse is None else matmul_mod(mu, inverse, p)
    values = matmul_mod(nu, extend, p).reshape(k, r_b * d, m_out)
    out = matmul_mod(pushdown, _side_by_side(values), p).reshape(n_out, k, m_out).transpose(1, 0, 2)
    return out if maps.ndim == 3 else out[0]


# ---------------------------------------------------------------------------
# stable homs
# ---------------------------------------------------------------------------


def _free_values(cols: np.ndarray, target: FDModule) -> np.ndarray:
    """Values of the maps A^r -> target on the free-module elements ``cols``.

    A map sending free generator c to u_c sends an element y to
    sum_c rho_T(y_c) u_c.  Returns the (k*n, r*n) matrix taking the stacked
    u_c (row c*n + j) to the stacked values on the k columns of ``cols``
    (row y*n + i).
    """
    p, d, n = target.p, target.algebra.dim, target.dim
    width, k = cols.shape
    r = width // d
    coeffs = cols.reshape(r, d, k).transpose(2, 0, 1).reshape(k * r, d)
    vals = matmul_mod(coeffs, target.action.reshape(d, n * n), p)
    return vals.reshape(k, r, n, n).transpose(0, 2, 1, 3).reshape(k * n, r * n)


def _generator_columns(values: np.ndarray) -> np.ndarray:
    """Generator coordinates of maps given by their values on the cover generators.

    ``values`` is (..., n, r), the map's column b being its value on
    generator b; the result has one column per map (lead axes flattened in
    C order) holding generator b's value at rows b*n .. b*n+n-1.
    """
    n, r = values.shape[-2:]
    axes = (values.ndim - 1, values.ndim - 2, *range(values.ndim - 2))
    return values.transpose(axes).reshape(r * n, int(np.prod(values.shape[:-2])))


def hom_space(source: FDModule, target: FDModule) -> np.ndarray:
    """Column basis (vec'd row-major) of the module maps source -> target.

    A map is fixed by its values v_b on the generators of the source's
    minimal cover, and values define a map exactly when every kernel column
    y of the cover goes to 0: sum_b rho_T(y_b) v_b = 0.  So Hom is the
    kernel of a relation matrix in r*n unknowns.  Its vec'd basis is
    kernel_mod's canonical one for the constraint system of the maps: the
    basis that is the identity on the coordinates where some map has its
    last nonzero entry, read off one reduction of the reversed maps.
    """
    p = source.p
    m, n = source.dim, target.dim
    if m == 0 or n == 0:
        return np.zeros((n * m, 0), dtype=np.int64)
    cover = minimal_cover(source)
    values = kernel_mod(_free_values(cover.kernel, target), p)
    extend = _free_values(cover.section, target).reshape(m, n, -1).transpose(1, 0, 2).reshape(n * m, -1)
    maps = matmul_mod(extend, values, p)
    red, _ = rref(maps[::-1].T, p)
    return red[::-1, ::-1].T.copy()


def projective_factor_columns(source: FDModule, target: FDModule) -> np.ndarray:
    """Spanning columns, in generator coordinates, of the maps source -> target through a projective.

    Over a self-injective algebra these are the restrictions of the maps
    P -> target along an embedding of the source into a free module P
    (_free_embedding): the values on the source's generators of the free
    maps, with no elimination.
    """
    gens = list(minimal_cover(source).gens)
    return _free_values(_free_embedding(source)[:, gens], target)


@dataclass(eq=False)
class StableHom:
    """Hom modulo maps factoring through a projective, with chosen representatives.

    ``basis`` is a stack (dim, target.dim, source.dim) of maps whose classes
    form a basis of the stable hom space; ``pf_gen`` spans the
    projectively-factoring maps in generator coordinates (the layout of
    _generator_columns).  A lifted basis leaves it None until its first
    solve, so a basis that is only ever a factor never builds it.
    """

    source: FDModule
    target: FDModule
    basis: np.ndarray
    pf_gen: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients of module maps' stable classes in the chosen basis.

        ``mat`` is one map (target.dim, source.dim) or a stack of them
        (..., target.dim, source.dim); the result has shape (..., dim).
        A module map is fixed by its values on the source's cover
        generators, so this is generator_coordinates of those columns.
        """
        gens = list(minimal_cover(self.source).gens)
        return self.generator_coordinates(np.asarray(mat, dtype=np.int64)[..., gens])

    def generator_coordinates(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of module maps' stable classes, from their values on the cover generators.

        ``values`` is (..., target.dim, r): column b of each map is its
        value on the source's cover generator b.  The result has shape
        (..., dim).  Evaluation on the generators is injective on module
        maps, so the whole stack is one solve of [basis | pf_gen] on r*n
        rows; a stack outside that span raises ArithmeticError.
        """
        values = np.asarray(values, dtype=np.int64)
        if self.pf_gen is None:
            self.pf_gen = projective_factor_columns(self.source, self.target)
        gens = list(minimal_cover(self.source).gens)
        system = np.hstack([_generator_columns(self.basis[:, :, gens]), self.pf_gen])
        sol = solve_mod(system, _generator_columns(values), self.source.p)
        if sol is None:
            raise ArithmeticError(
                "map is not in the span of the stable basis and the projectively-factoring "
                "maps; the algebra is likely not self-injective"
            )
        return sol[: self.dim].T.reshape(*values.shape[:-2], self.dim)


def stable_hom(source: FDModule, target: FDModule) -> StableHom:
    """Stable hom space with a deterministic choice of basis representatives.

    The projective-factor maps (restrictions along an embedding into a
    free module) rest on self-injectivity, so the algebra needs a validated
    symmetrizing form.  Representatives are the canonical hom_space columns
    that grow the span beyond the projectively factoring maps, scanned left
    to right: the pivot columns of one reduction of [pf | hom] in generator
    coordinates that lie in the hom block.  These depend only on the two
    spans, so they are the same as for the vec'd maps.  The pivot columns in
    the pf block are a basis of the projective-factor span; pf_gen keeps
    just those.
    """
    p = source.p
    source.algebra.dual_basis()
    n, m = target.dim, source.dim
    hom = hom_space(source, target)
    pf = projective_factor_columns(source, target)
    gens = list(minimal_cover(source).gens)
    hom_gen = _generator_columns(hom.T.reshape(hom.shape[1], n, m)[:, :, gens])
    _, pivots = rref(np.hstack([pf, hom_gen]), p)
    n_pf = pf.shape[1]
    kept = [c - n_pf for c in pivots if c >= n_pf]
    return StableHom(source, target, hom[:, kept].T.reshape(len(kept), n, m), pf[:, [c for c in pivots if c < n_pf]])


# ---------------------------------------------------------------------------
# Tate extensions
# ---------------------------------------------------------------------------


def tate_ext(module: FDModule, i: int, tower: SyzygyTower | None = None) -> StableHom:
    """Degree-i stable self-extensions as stable maps W_{i+t} -> W_t, t = max(0, -i).

    That is W_i -> M for i >= 0 and M -> W_{-i} below, over module.algebra.
    Like stable_hom it needs a validated symmetrizing form.
    """
    if tower is None:
        tower = SyzygyTower(module)
    t = max(0, -i)
    return stable_hom(tower.module(i + t), tower.module(t))


class _TateWorkspace:
    """One Tate-ring computation: the tower and a StableHom per (degree, shift)."""

    def __init__(self, module: FDModule):
        self.module = module
        self.tower = SyzygyTower(module)
        self.homs: dict[tuple[int, int], StableHom] = {}

    def hom_at(self, d: int, shift: int) -> StableHom:
        """Degree d as stable maps W_{shift+d} -> W_{shift}.

        At the home shift max(0, -d) this is tate_ext; above it the basis is
        the omega lift of the one a shift below, and below it the omega
        inverse lift of the one a shift above, each lifted in one call.
        """
        key = (d, shift)
        if key in self.homs:
            return self.homs[key]
        home = max(0, -d)
        near = None if shift == home else self.hom_at(d, shift - 1 if shift > home else shift + 1)
        try:
            if near is None:
                hom = tate_ext(self.module, d, self.tower)
            else:
                if shift > home:
                    lifted = omega_lift(self.tower, near.basis, shift - 1 + d, shift - 1)
                else:
                    lifted = omega_inverse_lift(self.tower, near.basis, shift + 1 + d, shift + 1)
                hom = StableHom(self.tower.module(shift + d), self.tower.module(shift), lifted)
        except ArithmeticError as exc:
            raise ArithmeticError(f"stable basis in degree {d} at shift {shift}: {exc}") from exc
        self.homs[key] = hom
        return hom

    def coordinates_at(self, d: int, shift: int, values: np.ndarray) -> np.ndarray:
        """Coefficients of maps W_{shift+d} -> W_{shift} in the lifted basis.

        ``values`` holds the maps' values on the cover generators of
        W_{shift+d}, (..., dim W_shift, r), as StableHom.generator_coordinates
        takes them; the result has shape (..., dim).
        """
        hom = self.hom_at(d, shift)
        try:
            return hom.generator_coordinates(values)
        except ArithmeticError as exc:
            raise ArithmeticError(f"product solve in degree {d} at shift {shift}: {exc}") from exc


# A product block (i, j) with i < 0 < j is solved at the home shift
# max(0, -i-j) of its degree, below the shift -i where both factors have
# nonnegative indices, when its system there has at least this many times
# dim A fewer rows.  The inverse lifts that bring both factors down cost more
# than a small saving: the blocks of the k[x]/(x^6) bimodule ring save 2/3 of
# dim A rows each, and moving them made it 1.7 times slower, while the
# Klein-four ring on [-7, 7] is as fast with 1, 2 or 3 here.
HOME_SHIFT_ROW_SAVING = 2


def tate_ring(module: FDModule, window: tuple[int, int]) -> WindowedGradedAlgebra:
    """The stable self-extension algebra of a module over module.algebra, windowed by degree.

    Requires a symmetrizing functional passing validate_symmetric (products
    in negative degrees live off self-injectivity); raises PreconditionError
    otherwise.  The degree-d component is tate_ext(module, d); the products
    of classes in degrees i and j are computed at a common shift s: the left
    factor as maps W_{s+i} -> W_s, the right one as W_{s+i+j} -> W_{s+i},
    composed after it.  Only the values on the cover generators of
    W_{s+i+j} are composed, since they fix a module map.  The shift is
    max(0, -i-j, -i), where no factor needs a cosyzygy, except that a block
    with i < 0 < j moves to the home shift max(0, -i-j) of its degree when
    that system, dim W_s rows per cover generator of W_{s+i+j}, is smaller
    by HOME_SHIFT_ROW_SAVING * dim A rows: its factors are then brought down
    the complete resolution by omega inverse lifts.  The stable class of a
    product, and so its coordinates, does not depend on the shift.  The
    blocks sharing a system, one (degree i+j, shift s) pair, are grouped,
    and each system is composed and solved in one pass: one coordinates_at
    call against the equally lifted stable basis of degree i+j.  A degree
    whose dimension passes graded.DIM_BOUND, the ring-file cap, raises
    AlgebraFormatError before any product is composed.
    """
    lo, hi = int(window[0]), int(window[1])
    if not lo <= 0 <= hi:
        raise ValueError(f"window [{lo}, {hi}] must contain 0")
    alg = module.algebra
    alg.dual_basis()  # the stable homs need it; fail before building the tower
    ws = _TateWorkspace(module)

    dims = {d: check_degree_dim(d, ws.hom_at(d, max(0, -d)).dim) for d in range(lo, hi + 1)}
    blocks = [(i, j) for i in range(lo, hi + 1) for j in range(lo, hi + 1)
              if lo <= i + j <= hi and dims[i] and dims[j] and dims[i + j]]

    def rows(k: int, s: int) -> int:
        return ws.tower.module(s).dim * len(minimal_cover(ws.tower.module(s + k)).gens)

    systems: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in blocks:
        k, s = i + j, max(0, -i - j, -i)
        home = max(0, -k)
        if s > home and rows(k, home) + HOME_SHIFT_ROW_SAVING * alg.dim <= rows(k, s):
            s = home
        systems.setdefault((k, s), []).append((i, j))
    mult: dict[tuple[int, int], np.ndarray] = {}
    for (k, s), members in systems.items():
        gens = list(minimal_cover(ws.tower.module(s + k)).gens)
        r, values = len(gens), []
        for i, j in members:
            left = ws.hom_at(i, s).basis  # (di, dim W_s, dim W_{s+i})
            right = ws.hom_at(j, s + i).basis  # (dj, dim W_{s+i}, dim W_{s+i+j})
            (di, a, b), dj = left.shape, right.shape[0]
            comps = matmul_mod(left.reshape(di * a, b), _side_by_side(right[:, :, gens]), alg.p)
            values.append(comps.reshape(di, a, dj, r).transpose(0, 2, 1, 3).reshape(di * dj, a, r))
        # C order, so that each block below is a view the ring takes over without a copy
        coords, at = np.ascontiguousarray(ws.coordinates_at(k, s, np.concatenate(values))), 0
        for i, j in members:
            mult[(i, j)] = coords[at : at + dims[i] * dims[j]].reshape(dims[i], dims[j], dims[k])
            at += dims[i] * dims[j]

    unit = ws.hom_at(0, 0).coordinates(np.eye(module.dim, dtype=np.int64))
    return WindowedGradedAlgebra(alg.field, (lo, hi), dims, mult, unit, copy=False)

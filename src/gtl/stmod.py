"""Finite-dimensional local algebras, stable module theory, and Tate rings.

An FDAlgebra is a based algebra over a prime field with an explicit radical
basis; modules are based too, as one action matrix per algebra basis vector.
Syzygies come from minimal free covers (generators = a complement of J*M),
and stable homs from the commuting-constraint kernel modulo the maps that
factor through a projective.  For a symmetric algebra those are the relative
traces sum_s e_s f e_s^dual of linear maps f, where e_s^dual is the dual basis
under the symmetrizing form (Higman's criterion), so stable homs need a
symmetrizing form that passes validate_symmetric.

The Tate construction turns the window of stable self-extensions of a module
into a degree-windowed algebra: the degree-d component is represented by
stable maps W_{d+t} -> W_t down the syzygy tower with t = max(0, -d), and
products are computed by lifting both factors to a common shift (the right
factor is lifted above the left one, then composed after it) and solving for
coordinates against the lifted stable basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exactlin import PrimeField, kernel_mod, matmul_mod, rank_mod, rref, solve_mod
from .graded import AlgebraFormatError, WindowedGradedAlgebra, col_echelon
from .report import FAIL, PASS, CertifiedReport, PreconditionError

ROOT_SEARCH_MAX_CHAR = 1009


def _pivot_rows(cols: np.ndarray, p: int) -> tuple[int, ...]:
    """Row indices where a column span has pivots (pivot columns of rref^T)."""
    _, pivots = rref(cols.T % p, p)
    return pivots


def _kron(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.kron(a % p, b % p) % p


def _nilpotent(mat: np.ndarray, p: int) -> bool:
    """Is the square matrix nilpotent over F_p?  (Checks M^(2^k) = 0, 2^k >= n.)"""
    n = mat.shape[0]
    cur = mat % p
    size = 1
    while size < n:
        cur = matmul_mod(cur, cur, p)
        size *= 2
    return not np.any(cur)


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
        self.mult.setflags(write=False)
        self.unit.setflags(write=False)
        self.radical.setflags(write=False)
        self._generators: np.ndarray | None = None
        self._dual_basis: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.field.p

    # -- actions ----------------------------------------------------------

    def left_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of a * (-) in the basis."""
        flat = matmul_mod(np.asarray(vec, dtype=np.int64)[None, :], self.mult.reshape(self.dim, -1), self.p)
        return flat.reshape(self.dim, self.dim).T

    def right_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of (-) * a in the basis."""
        mid = self.mult.transpose(1, 0, 2)
        flat = matmul_mod(np.asarray(vec, dtype=np.int64)[None, :], mid.reshape(self.dim, -1), self.p)
        return flat.reshape(self.dim, self.dim).T

    def op(self) -> FDAlgebra:
        """Opposite algebra; the radical and symmetrizing functional carry over."""
        return FDAlgebra(
            self.field,
            self.dim,
            self.mult.transpose(1, 0, 2),
            self.unit,
            self.radical,
            self.symmetrizing,
            self.labels,
        )

    def generator_vectors(self) -> np.ndarray:
        """Unit plus lifts of a basis of J/J^2: a generating set of the algebra."""
        if self._generators is not None:
            return self._generators
        p = self.p
        jj_cols = []
        for c in range(self.radical.shape[1]):
            jj_cols.append(matmul_mod(self.left_matrix(self.radical[:, c]), self.radical, p))
        jj = col_echelon(np.hstack(jj_cols), p) if jj_cols else np.zeros((self.dim, 0), dtype=np.int64)
        coords = solve_mod(self.radical, jj, p)
        if coords is None:
            raise AlgebraFormatError("radical is not closed under multiplication")
        pivots = set(_pivot_rows(coords.reshape(self.radical.shape[1], -1), p))
        complement = [self.radical[:, c] for c in range(self.radical.shape[1]) if c not in pivots]
        cols = [self.unit] + complement
        self._generators = np.stack(cols, axis=1)
        return self._generators

    # -- validation -------------------------------------------------------

    def validate(self) -> CertifiedReport:
        """Unit law, associativity, and the local-radical axioms."""
        p, d = self.p, self.dim
        rep = CertifiedReport(check="fd_algebra")
        left_unit = self.left_matrix(self.unit)
        right_unit = self.right_matrix(self.unit)
        eye = np.eye(d, dtype=np.int64)
        if np.array_equal(left_unit, eye) and np.array_equal(right_unit, eye):
            rep.add("unit", PASS)
        else:
            bad = np.argwhere((left_unit - eye) % p) if not np.array_equal(left_unit, eye) else np.argwhere((right_unit - eye) % p)
            rep.add("unit", FAIL, {"entry": tuple(int(v) for v in bad[0])})

        defect = None
        flat_right = self.mult.reshape(d, d * d)
        flat_left = self.mult.reshape(d * d, d)
        for s in range(d):
            lhs = matmul_mod(self.mult[s], flat_right, p).reshape(d, d, d)
            rhs = matmul_mod(flat_left, self.mult[s], p).reshape(d, d, d)
            if not np.array_equal(lhs, rhs):
                t, u, v = (int(x) for x in np.argwhere((lhs - rhs) % p)[0])
                defect = (s, t, u)
                break
        rep.add("associativity", PASS if defect is None else FAIL,
                None if defect is None else {"triple": defect})

        r = self.radical
        ideal_ok = True
        for c in range(r.shape[1]):
            prods = np.hstack([self.left_matrix(r[:, c]), self.right_matrix(r[:, c])])
            if solve_mod(r, prods, p) is None:
                ideal_ok = False
                break
        rep.add("radical_ideal", PASS if ideal_ok else FAIL)

        span = r
        nil_ok = False
        for _ in range(d + 1):
            if span.shape[1] == 0:
                nil_ok = True
                break
            cols = [matmul_mod(self.left_matrix(r[:, c]), span, p) for c in range(r.shape[1])]
            span = col_echelon(np.hstack(cols), p) if cols else np.zeros((d, 0), dtype=np.int64)
        rep.add("radical_nilpotent", PASS if nil_ok else FAIL)

        codim_ok = rank_mod(r, p) == d - 1 and solve_mod(r, self.unit, p) is None
        rep.add("radical_codim_one", PASS if codim_ok else FAIL)
        return rep

    def validate_symmetric(self) -> CertifiedReport:
        """The symmetrizing functional induces a symmetric nondegenerate form."""
        rep = CertifiedReport(check="symmetric_form")
        if self.symmetrizing is None:
            rep.add("present", FAIL, {"reason": "no symmetrizing functional"})
            return rep
        rep.add("present", PASS)
        p, d = self.p, self.dim
        gram = self._gram()
        if np.array_equal(gram, gram.T):
            rep.add("symmetric", PASS)
        else:
            s, t = (int(v) for v in np.argwhere((gram - gram.T) % p)[0])
            rep.add("symmetric", FAIL, {"entry": (s, t)})
        r = rank_mod(gram, p)
        if r == d:
            rep.add("nondegenerate", PASS)
        else:
            rep.add("nondegenerate", FAIL, {"rank": int(r), "kernel": kernel_mod(gram, p)[:, 0].tolist()})
        return rep

    def _gram(self) -> np.ndarray:
        """gram[s, t] = lam(e_s e_t) for the symmetrizing functional lam."""
        d = self.dim
        return matmul_mod(self.mult.reshape(d * d, d), self.symmetrizing[:, None], self.p).reshape(d, d)

    def dual_basis(self) -> np.ndarray:
        """Column t holds e_t^dual, the basis with lam(e_s e_t^dual) = delta_st.

        That is the C with gram @ C = I.  Raises PreconditionError, naming
        the failing clauses, unless validate_symmetric passes.
        """
        if self._dual_basis is None:
            rep = self.validate_symmetric()
            if not rep.passed:
                clauses = ", ".join(str(f.key) for f in rep.failures())
                raise PreconditionError(f"algebra has no validated symmetrizing form ({clauses} failed)")
            self._dual_basis = solve_mod(self._gram(), np.eye(self.dim, dtype=np.int64), self.p)
        return self._dual_basis

    # -- constructions ----------------------------------------------------

    def enveloping(self) -> FDAlgebra:
        """A tensor A^op, whose left modules are the (A, A)-bimodules.

        Basis pairs (s, t) are flattened row-major; (s, t) acts on a
        bimodule by e_s * (-) * e_t.
        """
        p, d = self.p, self.dim
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
    element comes from trace(L_x)/dim when p does not divide dim, otherwise
    from trying every c in F_p (refused for large characteristic).
    """
    p = field.p
    d = unit.shape[0]
    chars = np.zeros(d, dtype=np.int64)
    eye = np.eye(d, dtype=np.int64)
    flat = np.asarray(mult, dtype=np.int64).reshape(d, d * d) % p
    if d % p != 0:
        inv_d = pow(d % p, -1, p)
        for s in range(d):
            left = flat[s].reshape(d, d).T
            chars[s] = int(np.trace(left) % p) * inv_d % p
    else:
        if p > ROOT_SEARCH_MAX_CHAR:
            raise AlgebraFormatError(
                "cannot derive the radical: characteristic divides the dimension "
                f"and exceeds the root-search bound {ROOT_SEARCH_MAX_CHAR}"
            )
        for s in range(d):
            left = flat[s].reshape(d, d).T
            found = None
            for c in range(p):
                if _nilpotent((left - c * eye) % p, p):
                    found = c
                    break
            if found is None:
                raise AlgebraFormatError(f"basis element {s} has no nilpotent shift; algebra is not local")
            chars[s] = found
    rad = kernel_mod(chars[None, :], p)
    if rad.shape[1] != d - 1:
        raise AlgebraFormatError("derived character does not cut out a codimension-one radical")
    return rad


def _int_array(payload: dict, key: str) -> np.ndarray:
    """payload[key] as an int64 array; missing, ragged or out-of-range data is a format error."""
    try:
        return np.asarray(payload[key], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise AlgebraFormatError(f"missing or malformed {key}: {exc}") from exc


def fd_algebra_from_json_dict(payload: dict) -> FDAlgebra:
    """Parse the explicit based-algebra format, deriving the radical if absent."""
    if not isinstance(payload, dict):
        raise AlgebraFormatError("algebra payload must be an object")
    try:
        p = int(payload["field_char"])
        dim = int(payload["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"missing or malformed algebra field: {exc}") from exc
    mult = _int_array(payload, "mult")
    unit = _int_array(payload, "unit")
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
        radical = _int_array(payload, "radical")
        if radical.ndim != 2 or radical.shape[0] != dim:
            raise AlgebraFormatError("radical must be a dim-row matrix of basis columns")
    else:
        radical = derive_radical(mult, unit % p, pf)
    lam = None
    if payload.get("symmetrizing") is not None:
        lam = _int_array(payload, "symmetrizing")
        if lam.shape != (dim,):
            raise AlgebraFormatError("symmetrizing must be a vector of length dim")
    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise AlgebraFormatError("labels must be a list of names")
        labels = tuple(str(x) for x in labels)
    return FDAlgebra(pf, dim, mult, unit, radical, lam, labels)


def fd_algebra_from_json(text: str) -> FDAlgebra:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"invalid JSON: {exc}") from exc
    return fd_algebra_from_json_dict(payload)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FDModule:
    """Left module over an FDAlgebra: one action matrix per basis element."""

    algebra: FDAlgebra
    dim: int
    action: np.ndarray  # (algebra.dim, dim, dim)

    def __post_init__(self) -> None:
        self.action = np.asarray(self.action, dtype=np.int64) % self.algebra.p
        if self.action.shape != (self.algebra.dim, self.dim, self.dim):
            raise AlgebraFormatError(
                f"action must have shape ({self.algebra.dim}, {self.dim}, {self.dim})"
            )
        self.action.setflags(write=False)

    @property
    def p(self) -> int:
        return self.algebra.p

    def action_of(self, vec: np.ndarray) -> np.ndarray:
        """Matrix by which the algebra element with coefficients vec acts."""
        m = self.dim
        flat = matmul_mod(np.asarray(vec, dtype=np.int64)[None, :],
                          self.action.reshape(self.algebra.dim, m * m), self.p)
        return flat.reshape(m, m)

    def validate(self) -> CertifiedReport:
        rep = CertifiedReport(check="fd_module")
        p, d, m = self.p, self.algebra.dim, self.dim
        eye = np.eye(m, dtype=np.int64)
        if np.array_equal(self.action_of(self.algebra.unit), eye):
            rep.add("unit", PASS)
        else:
            rep.add("unit", FAIL)
        expected = matmul_mod(self.algebra.mult.reshape(d * d, d), self.action.reshape(d, m * m), p)
        defect = None
        for s in range(d):
            got = matmul_mod(self.action[s], self.action.transpose(1, 0, 2).reshape(m, d * m), p)
            got = got.reshape(m, d, m).transpose(1, 0, 2).reshape(d, m * m)
            if not np.array_equal(got, expected[s * d:(s + 1) * d]):
                t = int(np.argwhere(np.any((got - expected[s * d:(s + 1) * d]) % p, axis=1))[0][0])
                defect = (s, t)
                break
        rep.add("multiplicativity", PASS if defect is None else FAIL,
                None if defect is None else {"pair": defect})
        return rep

    def dual(self) -> FDModule:
        """Linear dual, a module over the opposite algebra (transposed actions)."""
        return FDModule(self.algebra.op(), self.dim, self.action.transpose(0, 2, 1))


def free_module(alg: FDAlgebra, rank: int) -> FDModule:
    """Direct sum of ``rank`` copies of the left regular module."""
    d, p = alg.dim, alg.p
    eye = np.eye(rank, dtype=np.int64)
    action = np.stack([_kron(eye, alg.left_matrix(np.eye(d, dtype=np.int64)[s]), p) for s in range(d)]) \
        if rank else np.zeros((d, 0, 0), dtype=np.int64)
    return FDModule(alg, rank * d, action)


def free_generator_matrix(alg: FDAlgebra, rank: int) -> np.ndarray:
    """Columns holding the canonical module generators of a rank-r free module."""
    return _kron(np.eye(rank, dtype=np.int64), alg.unit[:, None], alg.p)


def trivial_module(alg: FDAlgebra) -> FDModule:
    """The one-dimensional module through the unique character of a local algebra."""
    p, d = alg.p, alg.dim
    basis = np.hstack([alg.unit[:, None], alg.radical])
    if basis.shape[1] != d:
        raise AlgebraFormatError("algebra is not local: unit plus radical is not a basis")
    coords = solve_mod(basis, np.eye(d, dtype=np.int64), p)
    if coords is None:
        raise AlgebraFormatError("algebra is not local: unit plus radical is not a basis")
    chars = coords[0]
    return FDModule(alg, 1, chars.reshape(d, 1, 1))


def regular_bimodule(alg: FDAlgebra) -> tuple[FDAlgebra, FDModule]:
    """The algebra as a module over its enveloping algebra (s, t): a -> e_s a e_t."""
    env = alg.enveloping()
    d, p = alg.dim, alg.p
    eye = np.eye(d, dtype=np.int64)
    mats = []
    for s in range(d):
        ls = alg.left_matrix(eye[s])
        for t in range(d):
            mats.append(matmul_mod(ls, alg.right_matrix(eye[t]), p))
    return env, FDModule(env, d, np.stack(mats))


# ---------------------------------------------------------------------------
# covers and syzygies
# ---------------------------------------------------------------------------


@dataclass
class Cover:
    """Minimal free cover pi: free -> module (pi is (module.dim, rank*D))."""

    module: FDModule
    free: FDModule
    rank: int
    pi: np.ndarray


@dataclass
class SyzygyStep:
    """One tower step: 0 -> syzygy --iota--> free --pi--> module -> 0."""

    cover: Cover
    syzygy: FDModule
    iota: np.ndarray


def minimal_cover(module: FDModule) -> Cover:
    """Free cover on generators completing an echelon basis of J*module."""
    alg = module.algebra
    p, d, m = module.p, alg.dim, module.dim
    if m == 0:
        return Cover(module, free_module(alg, 0), 0, np.zeros((0, 0), dtype=np.int64))
    jm_cols = [module.action_of(alg.radical[:, c]) for c in range(alg.radical.shape[1])]
    jm = col_echelon(np.hstack(jm_cols), p) if jm_cols else np.zeros((m, 0), dtype=np.int64)
    pivots = set(_pivot_rows(jm, p))
    gens = [i for i in range(m) if i not in pivots]
    rank = len(gens)
    free = free_module(alg, rank)
    pi = np.zeros((m, rank * d), dtype=np.int64)
    for b, g in enumerate(gens):
        block = matmul_mod(module.action.reshape(d * m, m), np.eye(m, dtype=np.int64)[:, g:g + 1], p)
        pi[:, b * d:(b + 1) * d] = block.reshape(d, m).T
    if rank_mod(pi, p) != m:
        raise ArithmeticError("cover is not surjective; the radical data is inconsistent")
    return Cover(module, free, rank, pi)


def syzygy_step(module: FDModule) -> SyzygyStep:
    """Kernel of the minimal cover, as a module with its inclusion."""
    cover = minimal_cover(module)
    p = module.p
    iota = kernel_mod(cover.pi, p)
    k = iota.shape[1]
    mats = []
    for s in range(module.algebra.dim):
        moved = matmul_mod(cover.free.action[s], iota, p)
        sol = solve_mod(iota, moved, p)
        if sol is None:
            raise ArithmeticError("syzygy is not closed under the action")
        mats.append(sol)
    syz = FDModule(module.algebra, k,
                   np.stack(mats) if mats else np.zeros((module.algebra.dim, 0, 0), dtype=np.int64))
    return SyzygyStep(cover, syz, iota)


class SyzygyTower:
    """Iterated minimal covers W_0 = M, W_{s+1} = ker(P_s -> W_s)."""

    def __init__(self, module: FDModule):
        self.base = module
        self.steps: list[SyzygyStep] = []

    def ensure_steps(self, count: int) -> None:
        while len(self.steps) < count:
            self.steps.append(syzygy_step(self.module(len(self.steps))))

    def module(self, i: int) -> FDModule:
        if i == 0:
            return self.base
        self.ensure_steps(i)
        return self.steps[i - 1].syzygy

    def step(self, i: int) -> SyzygyStep:
        self.ensure_steps(i + 1)
        return self.steps[i]

    def ranks(self, count: int) -> list[int]:
        """Generator counts of the first ``count`` covers (Betti-number shadow)."""
        self.ensure_steps(count)
        return [self.steps[i].cover.rank for i in range(count)]


def omega_lift(tower: SyzygyTower, mat: np.ndarray, a: int, b: int) -> np.ndarray:
    """Shift a module map W_a -> W_b one step up the tower, to W_{a+1} -> W_{b+1}.

    The map is composed with the cover of W_a, lifted through the cover of
    W_b on the free generators, extended freely, and restricted to kernels.
    """
    alg = tower.base.algebra
    p, d = alg.p, alg.dim
    sa, sb = tower.step(a), tower.step(b)
    gens = free_generator_matrix(alg, sa.cover.rank)
    rhs = matmul_mod(mat, matmul_mod(sa.cover.pi, gens, p), p)
    lifted_gens = solve_mod(sb.cover.pi, rhs, p)
    if lifted_gens is None:
        raise ArithmeticError(f"omega lift of W_{a} -> W_{b}: cover of the target is not surjective on the lift")
    mb = sb.cover.free.dim
    big = np.zeros((mb, sa.cover.rank * d), dtype=np.int64)
    for i in range(sa.cover.rank):
        block = matmul_mod(sb.cover.free.action.reshape(d * mb, mb), lifted_gens[:, i:i + 1], p)
        big[:, i * d:(i + 1) * d] = block.reshape(d, mb).T
    moved = matmul_mod(big, sa.iota, p)
    out = solve_mod(sb.iota, moved, p)
    if out is None:
        raise ArithmeticError(f"omega lift of W_{a} -> W_{b}: lifted map does not preserve kernels")
    return out


# ---------------------------------------------------------------------------
# stable homs
# ---------------------------------------------------------------------------


def hom_space(source: FDModule, target: FDModule) -> np.ndarray:
    """Column basis (vec'd row-major) of the module maps source -> target.

    Commuting constraints are imposed for a generating set of the algebra;
    maps commuting with generators commute with everything.
    """
    alg = source.algebra
    p = alg.p
    m, n = source.dim, target.dim
    if m == 0 or n == 0:
        return np.zeros((n * m, 0), dtype=np.int64)
    gens = alg.generator_vectors()
    rows = []
    eye_n = np.eye(n, dtype=np.int64)
    eye_m = np.eye(m, dtype=np.int64)
    for c in range(gens.shape[1]):
        rho_s = source.action_of(gens[:, c])
        rho_t = target.action_of(gens[:, c])
        rows.append((_kron(eye_n, rho_s.T, p) - _kron(rho_t, eye_m, p)) % p)
    return kernel_mod(np.vstack(rows), p)


def projective_factor_columns(source: FDModule, target: FDModule) -> np.ndarray:
    """Echelon columns (vec'd row-major) of the maps source -> target that factor through a projective.

    Higman's criterion: over a symmetric algebra these maps are exactly the
    relative traces Tr(f) = sum_s rho_T(e_s) f rho_S(e_s^dual) of the linear
    maps f, so they are the column span of the matrix
    sum_s rho_T(e_s) (x) rho_S(e_s^dual)^T acting on vec'd maps.  Raises
    PreconditionError when the algebra has no validated symmetrizing form.
    """
    alg = source.algebra
    p, d = alg.p, alg.dim
    m, n = source.dim, target.dim
    if m == 0 or n == 0:
        return np.zeros((n * m, 0), dtype=np.int64)
    dual_actions = matmul_mod(alg.dual_basis().T, source.action.reshape(d, m * m), p)
    trace = matmul_mod(target.action.reshape(d, n * n).T, dual_actions, p)
    trace = trace.reshape(n, n, m, m).transpose(0, 3, 1, 2).reshape(n * m, n * m)
    return col_echelon(trace, p)


@dataclass
class StableHom:
    """Hom modulo maps factoring through a projective, with chosen representatives.

    ``basis`` holds matrices whose classes form a basis of the stable hom
    space; ``pf_columns`` spans the projectively-factoring maps (vec'd).
    """

    source: FDModule
    target: FDModule
    basis: list[np.ndarray]
    pf_columns: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients of module maps' stable classes in the chosen basis.

        ``mat`` is one map (target.dim, source.dim) or a stack of them
        (..., target.dim, source.dim); the result has shape (..., dim), and
        the whole stack is one solve.
        """
        p = self.source.p
        maps = np.asarray(mat, dtype=np.int64)
        lead = maps.shape[:-2]
        rhs = maps.reshape(int(np.prod(lead)), self.target.dim * self.source.dim).T
        cols = np.hstack([b.reshape(-1, 1) for b in self.basis] + [self.pf_columns])
        sol = solve_mod(cols, rhs, p)
        if sol is None:
            raise ArithmeticError(
                "map is not in the span of the stable basis and the projectively-factoring "
                "maps; the algebra is likely not self-injective"
            )
        return sol[: self.dim].T.reshape(*lead, self.dim)

    def is_stably_zero(self, mat: np.ndarray) -> bool:
        return not np.any(self.coordinates(mat))


def stable_hom(source: FDModule, target: FDModule) -> StableHom:
    """Stable hom space with a deterministic choice of basis representatives.

    The maps factoring through a projective are the relative traces given by
    projective_factor_columns (Higman's criterion), so the algebra needs a
    validated symmetrizing form.  Representatives are the canonical
    hom-space kernel columns that grow the span beyond those maps, scanned
    left to right: the pivot columns of one reduction of [pf | hom] that lie
    in the hom block.
    """
    p = source.p
    hom = hom_space(source, target)
    pf = projective_factor_columns(source, target)
    _, pivots = rref(np.hstack([pf, hom]), p)
    n_pf = pf.shape[1]
    kept = [hom[:, c - n_pf].reshape(target.dim, source.dim) for c in pivots if c >= n_pf]
    return StableHom(source, target, kept, pf)


# ---------------------------------------------------------------------------
# Tate extensions
# ---------------------------------------------------------------------------


def tate_ext(alg: FDAlgebra, module: FDModule, i: int, tower: SyzygyTower | None = None) -> StableHom:
    """Degree-i stable self-extensions as stable maps W_{i+t} -> W_t, t = max(0, -i).

    That is W_i -> M for i >= 0 and M -> W_{-i} below.  Like stable_hom it
    needs a validated symmetrizing form.
    """
    if tower is None:
        tower = SyzygyTower(module)
    t = max(0, -i)
    return stable_hom(tower.module(i + t), tower.module(t))


class _TateWorkspace:
    """One Tate-ring computation: the tower and a StableHom per (degree, shift)."""

    def __init__(self, alg: FDAlgebra, module: FDModule, depth: int):
        self.alg = alg
        self.module = module
        self.tower = SyzygyTower(module)
        self.tower.ensure_steps(depth)
        self.homs: dict[tuple[int, int], StableHom] = {}

    def hom_at(self, d: int, shift: int) -> StableHom:
        """Degree d as stable maps W_{shift+d} -> W_{shift}.

        At the home shift max(0, -d) this is tate_ext; above it the basis is
        the omega lift of the one a shift below.
        """
        key = (d, shift)
        if key in self.homs:
            return self.homs[key]
        if shift == max(0, -d):
            hom = tate_ext(self.alg, self.module, d, self.tower)
        else:
            below = self.hom_at(d, shift - 1)
            src = self.tower.module(shift + d)
            lifted = [omega_lift(self.tower, m, shift - 1 + d, shift - 1) for m in below.basis]
            target = self.tower.module(shift)
            hom = StableHom(src, target, lifted, projective_factor_columns(src, target))
        self.homs[key] = hom
        return hom

    def coordinates_at(self, d: int, shift: int, mat: np.ndarray) -> np.ndarray:
        """Coefficients of maps W_{shift+d} -> W_{shift} (one or a stack) in the lifted basis."""
        try:
            return self.hom_at(d, shift).coordinates(mat)
        except ArithmeticError as exc:
            raise ArithmeticError(f"product solve in degree {d} at shift {shift}: {exc}") from exc


def tate_ring(
    alg: FDAlgebra,
    module: FDModule,
    window: tuple[int, int],
    tower_depth: int | None = None,
) -> WindowedGradedAlgebra:
    """The stable self-extension algebra of a module, windowed by degree.

    Requires a symmetrizing functional passing validate_symmetric (products
    in negative degrees live off self-injectivity); raises PreconditionError
    otherwise.  The degree-d component is tate_ext(alg, module, d); the
    products of classes in degrees i and j are computed at the common shift
    s = max(0, -i-j, -i): the right factors are lifted above the left
    factors and composed after them, and all di*dj composites are solved at
    once against the equally lifted stable basis of degree i+j.
    """
    lo, hi = int(window[0]), int(window[1])
    if not lo <= 0 <= hi:
        raise ValueError(f"window [{lo}, {hi}] must contain 0")
    alg.dual_basis()  # the stable homs need it; fail before building the tower
    radius = max(-lo, hi)
    depth = tower_depth if tower_depth is not None else radius + 2
    ws = _TateWorkspace(alg, module, depth)

    dims = {d: ws.hom_at(d, max(0, -d)).dim for d in range(lo, hi + 1)}
    mult: dict[tuple[int, int], np.ndarray] = {}
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            if not lo <= i + j <= hi:
                continue
            di, dj, dk = dims[i], dims[j], dims[i + j]
            if di == 0 or dj == 0 or dk == 0:
                continue
            s = max(0, -i - j, -i)
            left = np.stack(ws.hom_at(i, s).basis)  # (di, dim W_s, dim W_{s+i})
            right = np.stack(ws.hom_at(j, s + i).basis)  # (dj, dim W_{s+i}, dim W_{s+i+j})
            a, b, c = left.shape[1], left.shape[2], right.shape[2]
            comps = matmul_mod(left.reshape(di * a, b), right.transpose(1, 0, 2).reshape(b, dj * c), alg.p)
            comps = comps.reshape(di, a, dj, c).transpose(0, 2, 1, 3)
            mult[(i, j)] = ws.coordinates_at(i + j, s, comps)

    unit = ws.hom_at(0, 0).coordinates(np.eye(module.dim, dtype=np.int64))
    return WindowedGradedAlgebra(alg.field, (lo, hi), dims, mult, unit)

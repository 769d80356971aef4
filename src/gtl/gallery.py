"""Worked examples: truncated polynomial algebras, trivial extensions,
Laurent lines, and closed-form expected dimensions to compare runs against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .exactlin import PrimeField
from .graded import AlgebraFormatError, WindowedGradedAlgebra, int_array
from .stmod import FDAlgebra, fd_algebra_from_json_dict


def _monomials_bounded(exponents: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All exponent tuples below the bounds, row-major (last variable fastest)."""
    return list(itertools.product(*(range(a) for a in exponents)))


def _monomials_total(nvars: int, total: int) -> list[tuple[int, ...]]:
    """Exponent tuples with the given total degree, in lexicographic order."""
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _monomials_total(nvars - 1, total - first))
    return out


def _monomial_label(alpha: tuple[int, ...], var: str) -> str:
    parts = []
    for i, e in enumerate(alpha):
        if e == 1:
            parts.append(f"{var}{i + 1}")
        elif e > 1:
            parts.append(f"{var}{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def build_truncated_ci(exponents, p: int) -> FDAlgebra:
    """k[x_1..x_c]/(x_1^{a_1}, ..., x_c^{a_c}) on its monomial basis.

    Local with radical the non-unit monomials; the symmetrizing functional
    is dual to the socle monomial (all exponents maximal), which makes the
    algebra symmetric.
    """
    exponents = tuple(int(a) for a in exponents)
    if not exponents or any(a < 1 for a in exponents):
        raise AlgebraFormatError("exponents must be positive integers")
    field = PrimeField(p)
    monos = _monomials_bounded(exponents)
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    mult = np.zeros((dim, dim, dim), dtype=np.int64)
    for s, alpha in enumerate(monos):
        for t, beta in enumerate(monos):
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            if all(g < bound for g, bound in zip(gamma, exponents)):
                mult[s, t, index[gamma]] = 1
    unit = np.zeros(dim, dtype=np.int64)
    unit[index[tuple(0 for _ in exponents)]] = 1
    radical = np.eye(dim, dtype=np.int64)[:, [i for i, m in enumerate(monos) if any(m)]]
    lam = np.zeros(dim, dtype=np.int64)
    lam[index[tuple(a - 1 for a in exponents)]] = 1
    labels = tuple(_monomial_label(m, "x") for m in monos)
    return FDAlgebra(field, dim, mult, unit, radical, lam, labels)


def build_trivial_extension(nvars: int, window: tuple[int, int], p: int = 2) -> WindowedGradedAlgebra:
    """Polynomial ring in ``nvars`` variables glued to its shifted dual.

    Non-negative degree i carries the degree-i monomials in w_1..w_nvars;
    degree -1-m carries functionals dual to the degree-m monomials.  A
    monomial acts on a functional by dividing: w^b . d(w^a) = d(w^{a-b})
    when a >= b componentwise and 0 otherwise (same on both sides), and
    products of two functionals vanish.
    """
    lo, hi = int(window[0]), int(window[1])
    if nvars < 1:
        raise AlgebraFormatError("need at least one variable")
    field = PrimeField(p)
    basis: dict[int, list[tuple[int, ...]]] = {}
    labels: dict[int, list[str]] = {}
    for d in range(lo, hi + 1):
        if d >= 0:
            basis[d] = _monomials_total(nvars, d)
            labels[d] = [_monomial_label(m, "w") for m in basis[d]]
        else:
            basis[d] = _monomials_total(nvars, -1 - d)
            labels[d] = [f"d:{_monomial_label(m, 'w')}" for m in basis[d]]
    dims = {d: len(basis[d]) for d in basis}
    index = {d: {m: i for i, m in enumerate(basis[d])} for d in basis}

    mult: dict[tuple[int, int], np.ndarray] = {}

    def divides(b, a):
        return all(x <= y for x, y in zip(b, a))

    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            k = i + j
            if not lo <= k <= hi:
                continue
            block = np.zeros((dims[i], dims[j], dims[k]), dtype=np.int64)
            if i >= 0 and j >= 0:
                for s, alpha in enumerate(basis[i]):
                    for t, beta in enumerate(basis[j]):
                        gamma = tuple(a + b for a, b in zip(alpha, beta))
                        block[s, t, index[k][gamma]] = 1
            elif i >= 0 and j < 0:
                for s, beta in enumerate(basis[i]):
                    for t, alpha in enumerate(basis[j]):
                        if divides(beta, alpha):
                            rem = tuple(a - b for a, b in zip(alpha, beta))
                            block[s, t, index[k][rem]] = 1
            elif i < 0 and j >= 0:
                for s, alpha in enumerate(basis[i]):
                    for t, beta in enumerate(basis[j]):
                        if divides(beta, alpha):
                            rem = tuple(a - b for a, b in zip(alpha, beta))
                            block[s, t, index[k][rem]] = 1
            mult[(i, j)] = block

    unit = np.zeros(dims[0], dtype=np.int64)
    unit[index[0][tuple(0 for _ in range(nvars))]] = 1
    return WindowedGradedAlgebra(field, (lo, hi), dims, mult, unit, labels)


def build_laurent(p: int, window: tuple[int, int]) -> WindowedGradedAlgebra:
    """Laurent line k[w, w^-1]: one basis element per degree, all products 1."""
    lo, hi = int(window[0]), int(window[1])
    field = PrimeField(p)
    dims = {d: 1 for d in range(lo, hi + 1)}
    mult = {
        (i, j): np.ones((1, 1, 1), dtype=np.int64)
        for i in range(lo, hi + 1)
        for j in range(lo, hi + 1)
        if lo <= i + j <= hi
    }
    labels = {d: [f"w^{d}"] for d in range(lo, hi + 1)}
    return WindowedGradedAlgebra(field, (lo, hi), dims, mult, [1], labels)


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------


def expected_tate_hh_dim(a: int, p: int) -> int:
    """Stable Hochschild dimension, any degree, for k[x]/(x^a) over F_p."""
    return a if a % p == 0 else a - 1


def expected_ext_dim_ci(nvars: int, n: int) -> int:
    """Coefficient of t^n in (1+t)^c / (1-t^2)^c: self-extensions of the
    one-dimensional module over a c-variable truncated polynomial algebra."""
    if n < 0:
        raise ValueError("series coefficients are indexed by n >= 0")
    total = 0
    for k in range(0, n // 2 + 1):
        r = n - 2 * k
        if r <= nvars:
            total += math.comb(nvars, r) * math.comb(k + nvars - 1, nvars - 1)
    return total


def expected_hh0_dim(exponents, p: int) -> int:
    """Dimension of the degree-0 stable Hochschild space of a truncated
    polynomial algebra: the full dimension if p divides some exponent,
    one less otherwise."""
    exponents = tuple(int(a) for a in exponents)
    prod = 1
    for a in exponents:
        prod *= a
    return prod if any(a % p == 0 for a in exponents) else prod - 1


def fd_algebra_from_payload(payload: dict) -> FDAlgebra:
    """Parse either the explicit based-algebra format or the
    {"truncated_polynomial": {"exponents": [...], "field_char": p}} shorthand."""
    if not isinstance(payload, dict):
        raise AlgebraFormatError("algebra payload must be an object")
    if "truncated_polynomial" in payload:
        spec = payload["truncated_polynomial"]
        if not isinstance(spec, dict) or "exponents" not in spec or "field_char" not in spec:
            raise AlgebraFormatError(
                "truncated_polynomial needs exponents and field_char"
            )
        try:
            exponents = int_array(spec["exponents"], "exponents", ndim=1).tolist()
            return build_truncated_ci(exponents, int(int_array(spec["field_char"], "field_char", ndim=0)))
        except (TypeError, ValueError) as exc:
            raise AlgebraFormatError(str(exc)) from exc
    return fd_algebra_from_json_dict(payload)

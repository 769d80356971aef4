"""Worked examples: truncated polynomial algebras, trivial extensions,
Laurent lines, and closed-form expected dimensions to compare runs against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .exactlin import PrimeField
from .graded import AlgebraFormatError, WindowedGradedAlgebra, int_array
from .stmod import FDAlgebra, check_fd_dim, fd_algebra_from_json_dict


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
    check_fd_dim(math.prod(exponents), "truncated polynomial algebra")
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
    total = {d: d if d >= 0 else -1 - d for d in range(lo, hi + 1)}
    monomials = {d: _monomials_total(nvars, total[d]) for d in total}
    labels = {d: [("" if d >= 0 else "d:") + _monomial_label(m, "w") for m in monomials[d]] for d in total}
    dims = {d: len(monomials[d]) for d in total}
    exponents = {d: np.array(monomials[d], dtype=np.int64).reshape(-1, nvars) for d in total}
    # a monomial's key is its exponents read as digits in base ``base``: the key
    # of a product (or a quotient) is the sum (or difference) of the keys, and
    # each degree lists its monomials in increasing key order
    base = max(total.values()) + 1
    weights = np.array([base**e for e in reversed(range(nvars))], dtype=np.int64 if base**nvars < 2**63 else object)
    keys = {d: exponents[d] @ weights for d in total}

    mult: dict[tuple[int, int], np.ndarray] = {}
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            k = i + j
            if not lo <= k <= hi:
                continue
            block = np.zeros((dims[i], dims[j], dims[k]), dtype=np.int64)
            if i >= 0 and j >= 0:
                s, t = np.indices((dims[i], dims[j]))
                block[s, t, np.searchsorted(keys[k], keys[i][:, None] + keys[j])] = 1
            elif (i >= 0) != (j >= 0):
                # the monomial factor's axis first, whichever side it is on
                acts = block if i >= 0 else block.transpose(1, 0, 2)
                mono, func = max(i, j), min(i, j)
                s, t = np.nonzero((exponents[mono][:, None] <= exponents[func]).all(axis=2))
                acts[s, t, np.searchsorted(keys[k], keys[func][t] - keys[mono][s])] = 1
            mult[(i, j)] = block
    return WindowedGradedAlgebra(field, (lo, hi), dims, mult, [1], labels)


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
    if nvars == 0:  # the field itself: the series is 1
        return int(n == 0)
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

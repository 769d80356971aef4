"""Graded pairings, non-degeneracy, and shifted selfduality.

Everything here is functional-free in the sense that a pairing of degree n is
induced by a linear functional on A^n: <a, b> = lam(pi_n(a*b)).  Per-degree
non-degeneracy is decided by exact ranks of flattened multiplication tensors;
degrees whose partner n-i leaves the window are reported unchecked, never
guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import util
from .exactlin import kernel_mod, matmul_mod, rank_mod
from .graded import GradedElement, WindowedGradedAlgebra
from .report import FAIL, PASS, CertifiedReport


@dataclass(frozen=True)
class PairingVerdict:
    i: int
    left: str
    right: str
    witness: object = None

    @property
    def verdict(self) -> str:
        return PASS if self.left == PASS and self.right == PASS else FAIL


@dataclass
class NondegeneracyReport:
    """Left/right non-degeneracy of the degree-n products, per degree."""

    n: int
    entries: list[PairingVerdict] = field(default_factory=list)
    unchecked: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.verdict == PASS for e in self.entries)

    def verdict_for(self, i: int) -> PairingVerdict | None:
        for e in self.entries:
            if e.i == i:
                return e
        return None

    def to_json_dict(self) -> dict:
        return {
            "check": "nondegenerate_products",
            "n": self.n,
            "per_degree": [
                {
                    "i": e.i,
                    "left": e.left,
                    "right": e.right,
                    **({"witness": e.witness} if e.witness is not None else {}),
                }
                for e in self.entries
            ],
            "unchecked_degrees": list(self.unchecked),
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] nondegenerate_products (n={self.n})"]
        for e in self.entries:
            lines.append(f"  {e.i}: left {e.left} / right {e.right}")
        if self.unchecked:
            lines.append(f"  unchecked: {self.unchecked}")
        return "\n".join(lines)


def nondegenerate_products(alg: WindowedGradedAlgebra, n: int) -> NondegeneracyReport:
    """Rank test of a -> (b -> pi_n(ab)) and its right-handed mirror.

    At degree i the left map is the flattened dims(i) x (dims(n-i)*dims(n))
    tensor slice; left non-degeneracy at i means its rank is dims(i).
    """
    if not alg.in_window(n):
        raise ValueError(f"pairing degree {n} outside window {alg.window}")
    report = NondegeneracyReport(n=n)

    def check(i: int):
        j = n - i
        if not alg.in_window(j):
            return ("unchecked", i)
        di, dj, dn = alg.dim(i), alg.dim(j), alg.dim(n)
        left_flat = alg.mult_block(i, j).reshape(di, dj * dn)
        right_flat = alg.mult_block(j, i).transpose(1, 0, 2).reshape(di, dj * dn)
        left = PASS if rank_mod(left_flat, alg.p) == di else FAIL
        right = PASS if rank_mod(right_flat, alg.p) == di else FAIL
        witness = None
        if left == FAIL:
            witness = {"side": "left", "kernel": kernel_mod(left_flat.T, alg.p)[:, 0].tolist()}
        elif right == FAIL:
            witness = {"side": "right", "kernel": kernel_mod(right_flat.T, alg.p)[:, 0].tolist()}
        return ("entry", PairingVerdict(i, left, right, witness))

    for kind, value in util.sweep(check, list(alg.degrees())):
        if kind == "unchecked":
            report.unchecked.append(value)
        else:
            report.entries.append(value)
    return report


@dataclass(frozen=True)
class GradedForm:
    """Degree-n pairing <a, b> = lam(pi_n(a*b)) induced by a functional."""

    algebra: WindowedGradedAlgebra
    n: int
    functional: np.ndarray

    def pairing(self, a: GradedElement, b: GradedElement) -> int:
        """Scalar <a, b>; occupied degree pairs must multiply inside the window."""
        prod = self.algebra.multiply(a, b)
        comp = prod.components.get(self.n)
        if comp is None:
            return 0
        val = matmul_mod(comp[None, :], self.functional[:, None], self.algebra.p)
        return int(val[0, 0])

    def gram(self, i: int) -> np.ndarray:
        """Gram matrix of A^i x A^{n-i} in the standard bases."""
        j = self.n - i
        tensor = self.algebra.mult_block(i, j)
        di, dj, dn = tensor.shape
        flat = matmul_mod(tensor.reshape(di * dj, dn), self.functional[:, None], self.algebra.p)
        return flat.reshape(di, dj)


def form_from_functional(
    alg: WindowedGradedAlgebra, n: int, lam, spot_checks: int = 200, seed: int = 0
) -> GradedForm:
    """Build the induced form and spot-verify <ab,c> = <a,bc> on random triples.

    Associativity of the form follows from associativity of the algebra, so
    the random sweep is a data integrity check, not a proof obligation.
    """
    if not alg.in_window(n):
        raise ValueError(f"pairing degree {n} outside window {alg.window}")
    vec = alg.field.reduce(list(lam))
    if vec.shape != (alg.dim(n),):
        raise ValueError(f"functional must have dims({n})={alg.dim(n)} coefficients")
    form = GradedForm(alg, n, vec)

    rng = np.random.default_rng(seed)
    triples = [
        (i, j, n - i - j)
        for i in alg.degrees()
        for j in alg.degrees()
        if alg.in_window(i + j) and alg.in_window(n - i - j) and alg.in_window(j + (n - i - j))
        and alg.dim(i) and alg.dim(j) and alg.dim(n - i - j)
    ]
    if triples:
        for _ in range(spot_checks):
            i, j, k = triples[int(rng.integers(0, len(triples)))]
            a = GradedElement(alg, {i: rng.integers(0, alg.p, size=alg.dim(i))})
            b = GradedElement(alg, {j: rng.integers(0, alg.p, size=alg.dim(j))})
            c = GradedElement(alg, {k: rng.integers(0, alg.p, size=alg.dim(k))})
            if form.pairing(alg.multiply(a, b), c) != form.pairing(a, alg.multiply(b, c)):
                raise ArithmeticError(
                    f"form associativity violated at degrees ({i}, {j}, {k}); "
                    "algebra data is inconsistent"
                )
    return form


def selfdual_check(alg: WindowedGradedAlgebra, n: int, lam) -> CertifiedReport:
    """n-shifted selfduality: dims(i) = dims(n-i) = rank of the Gram matrix.

    Degrees whose partner n-i leaves the window are unchecked.
    """
    form = form_from_functional(alg, n, lam, spot_checks=0)

    def check(i: int):
        j = n - i
        if not alg.in_window(j):
            return None
        di, dj = alg.dim(i), alg.dim(j)
        if di != dj:
            return FAIL, {"reason": "dimension mismatch", "dims": (di, dj)}
        gram = form.gram(i)
        r = rank_mod(gram, alg.p)
        if r != di:
            return FAIL, {"reason": "degenerate", "rank": r, "kernel": kernel_mod(gram, alg.p)[:, 0].tolist()}
        return PASS, None

    return CertifiedReport.sweep("selfdual_check", alg.degrees(), check, n=n)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a selfdual-functional search.

    ``functional`` is None when no candidate passed within the budget; that
    means "not found", never "does not exist".
    """

    functional: np.ndarray | None
    tried: int
    strategy: str

    @property
    def found(self) -> bool:
        return self.functional is not None


EXHAUSTIVE_LIMIT = 10**6


def find_selfdual_functional(
    alg: WindowedGradedAlgebra,
    n: int,
    strategy: str = "auto",
    seed: int = 0,
    samples: int = 200,
) -> SearchResult:
    """First functional on A^n whose induced form passes selfdual_check.

    Exhaustive enumeration walks candidate indices 1 .. p^dims(n)-1 in base-p
    digit order (lowest index wins); it is rejected when the space exceeds
    10^6 candidates.  The randomized strategy draws ``samples`` seeded
    vectors and the lowest passing sample index wins.  No canonicity is
    claimed for the winner.
    """
    if not alg.in_window(n):
        raise ValueError(f"pairing degree {n} outside window {alg.window}")
    d = alg.dim(n)
    p = alg.p
    if strategy not in ("auto", "exhaustive", "randomized"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if d == 0:
        return SearchResult(None, 0, strategy)
    space = p**d
    if strategy == "exhaustive" and space > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive search over {space} candidates exceeds limit {EXHAUSTIVE_LIMIT}"
        )
    if strategy == "auto":
        strategy = "exhaustive" if space <= EXHAUSTIVE_LIMIT else "randomized"

    if strategy == "exhaustive":
        tried = 0
        for index in range(1, space):
            digits = np.array([(index // p**k) % p for k in range(d)], dtype=np.int64)
            tried += 1
            if selfdual_check(alg, n, digits).passed:
                return SearchResult(digits, tried, "exhaustive")
        return SearchResult(None, tried, "exhaustive")

    rng = np.random.default_rng(seed)
    tried = 0
    for _ in range(samples):
        cand = rng.integers(0, p, size=d)
        if not np.any(cand):
            continue
        tried += 1
        if selfdual_check(alg, n, cand).passed:
            return SearchResult(cand.astype(np.int64), tried, "randomized")
    return SearchResult(None, tried, "randomized")

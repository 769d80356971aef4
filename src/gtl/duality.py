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
from .graded import WindowedGradedAlgebra
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


def functional(alg: WindowedGradedAlgebra, n: int, lam) -> np.ndarray:
    """``lam`` as a vector on A^n reduced mod p; ValueError outside the window or off dims(n)."""
    if not alg.in_window(n):
        raise ValueError(f"pairing degree {n} outside window {alg.window}")
    vec = alg.field.reduce(list(lam))
    if vec.shape != (alg.dim(n),):
        raise ValueError(f"functional must have dims({n})={alg.dim(n)} coefficients")
    return vec


def gram(alg: WindowedGradedAlgebra, n: int, vec: np.ndarray, i: int) -> np.ndarray:
    """Gram block of <a, b> = vec(pi_n(ab)) on A^i x A^{n-i}, in the standard bases."""
    tensor = alg.mult_block(i, n - i)
    di, dj, dn = tensor.shape
    return matmul_mod(tensor.reshape(di * dj, dn), vec[:, None], alg.p).reshape(di, dj)


def selfdual_check(alg: WindowedGradedAlgebra, n: int, lam) -> CertifiedReport:
    """n-shifted selfduality: dims(i) = dims(n-i) = rank of the Gram matrix.

    Degrees whose partner n-i leaves the window are unchecked.
    """
    vec = functional(alg, n, lam)

    def check(i: int):
        j = n - i
        if not alg.in_window(j):
            return None
        di, dj = alg.dim(i), alg.dim(j)
        if di != dj:
            return FAIL, {"reason": "dimension mismatch", "dims": (di, dj)}
        block = gram(alg, n, vec, i)
        r = rank_mod(block, alg.p)
        if r != di:
            return FAIL, {"reason": "degenerate", "rank": r, "kernel": kernel_mod(block, alg.p)[:, 0].tolist()}
        return PASS, None

    return CertifiedReport.sweep("selfdual_check", alg.degrees(), check, n=n)


@dataclass(frozen=True, eq=False)
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
    seed: int = 0,
    samples: int = 200,
) -> SearchResult:
    """First functional on A^n whose induced form passes selfdual_check.

    When the space has at most ``EXHAUSTIVE_LIMIT`` candidates, exhaustive
    enumeration walks candidate indices 1 .. p^dims(n)-1 in base-p digit
    order (lowest index wins).  Above it, a randomized search draws
    ``samples`` seeded vectors and the lowest passing sample index wins.
    ``SearchResult.strategy`` names the search that ran.  No canonicity is
    claimed for the winner.  ``samples`` outside [1, EXHAUSTIVE_LIMIT] is a
    ValueError.
    """
    if not 1 <= samples <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"samples {samples} must lie in [1, {EXHAUSTIVE_LIMIT}]")
    if not alg.in_window(n):
        raise ValueError(f"pairing degree {n} outside window {alg.window}")
    d = alg.dim(n)
    p = alg.p
    space = p**d
    if space <= EXHAUSTIVE_LIMIT:
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

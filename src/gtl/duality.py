"""Graded pairings, non-degeneracy, and shifted selfduality.

Everything here is functional-free in the sense that a pairing of degree n is
induced by a linear functional on A^n: <a, b> = lam(pi_n(a*b)).  Per-degree
non-degeneracy is decided by exact ranks of flattened multiplication tensors;
degrees whose partner n-i leaves the window are reported unchecked, never
guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactlin import kernel_mod, matmul_mod, rank_mod
from .graded import WindowedGradedAlgebra
from .report import FAIL, PASS, CertifiedReport


class NondegeneracyReport(CertifiedReport):
    """A CertifiedReport whose JSON lists ``left`` and ``right`` per degree.

    ``perfbench/references.json`` pins those bytes; this class goes once the
    benchmark re-records its references.
    """

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["per_degree"] = [{"i": e.key, **(e.witness or {"left": PASS, "right": PASS})} for e in self.entries]
        return out


def nondegenerate_products(alg: WindowedGradedAlgebra, n: int) -> NondegeneracyReport:
    """Rank test of a -> (b -> pi_n(ab)) and its right-handed mirror.

    At degree i the left map is the flattened dims(i) x (dims(n-i)*dims(n))
    tensor slice; left non-degeneracy at i means its rank is dims(i).  A
    degenerate degree FAILs with witness {"left", "right", "witness"}: both
    sides' verdicts and a kernel vector of the first failing side.
    """
    if not alg.in_window(n):
        raise ValueError(f"pairing degree {n} outside window {alg.window}")

    def check(i: int):
        j = n - i
        if not alg.in_window(j):
            return None
        di, dj, dn = alg.dim(i), alg.dim(j), alg.dim(n)
        flats = {
            "left": alg.mult_block(i, j).reshape(di, dj * dn),
            "right": alg.mult_block(j, i).transpose(1, 0, 2).reshape(di, dj * dn),
        }
        sides = {side: PASS if rank_mod(flat, alg.p) == di else FAIL for side, flat in flats.items()}
        side = next((s for s, verdict in sides.items() if verdict == FAIL), None)
        if side is None:
            return PASS, None
        return FAIL, {**sides, "witness": {"side": side, "kernel": kernel_mod(flats[side].T, alg.p)[:, 0].tolist()}}

    return NondegeneracyReport.sweep("nondegenerate_products", alg.degrees(), check, n=n)


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

    When the space has at most ``EXHAUSTIVE_LIMIT`` candidates, the candidates
    are the indices 1 .. p^dims(n)-1 as base-p digit vectors, in order (lowest
    index wins).  Above it, they are ``samples`` seeded draws, zero draws
    skipped and not counted (lowest passing sample wins).
    ``SearchResult.strategy`` names the source that ran.  No canonicity is
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
        strategy = "exhaustive"
        candidates = (np.array([(i // p**k) % p for k in range(d)], dtype=np.int64) for i in range(1, space))
    else:
        strategy = "randomized"
        rng = np.random.default_rng(seed)
        draws = (rng.integers(0, p, size=d, dtype=np.int64) for _ in range(samples))
        candidates = (cand for cand in draws if cand.any())
    tried = 0
    for cand in candidates:
        tried += 1
        if selfdual_check(alg, n, cand).passed:
            return SearchResult(cand, tried, strategy)
    return SearchResult(None, tried, strategy)

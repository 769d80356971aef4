"""Finite-dimensional algebras, syzygy towers, and stable self-extension rings.

The Yoneda oracle at the bottom recomputes ring products by a different
route (chain maps lifted through the resolution boundaries) and must agree
with the tower-lift products used by tate_ring.  The cover oracle recomputes
the projectively-factoring maps as maps through the minimal free cover of the
target and must agree with the relative-trace (Higman) columns.  The dense
oracle solves for all n*m entries of a map, commuting with each algebra
generator, and must agree with the generator-coordinate hom spaces; the
Higman columns in turn must span the generator-coordinate projective-factor
maps, restricted along a syzygy's inclusion or the injective hull of the base
module.  The dense free module writes out the block-diagonal action matrices
of A^r that stmod never forms; the blockwise free action must agree with it.
The one-sided product shift, where no factor needs a cosyzygy, is the oracle
for the home shift that tate_ring moves mixed-sign blocks to.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gtl import graded, stmod
from gtl.exactlin import PrimeField, kernel_mod, matmul_mod, rank_mod, rref, solve_mod
from gtl.gallery import build_trivial_extension, build_truncated_ci, expected_ext_dim_ci, expected_hh0_dim
from gtl.graded import AlgebraFormatError, WindowedGradedAlgebra, algebra_from_json, algebra_to_json, col_echelon
from gtl.report import FAIL, PASS, CertifiedReport, PreconditionError
from gtl.stmod import (
    FD_DIM_BOUND,
    FDAlgebra,
    FDModule,
    SyzygyTower,
    _acting,
    _free_action,
    _free_embedding,
    _generator_columns,
    _TateWorkspace,
    derive_radical,
    fd_algebra_from_json_dict,
    hom_space,
    minimal_cover,
    omega_inverse_lift,
    omega_lift,
    projective_factor_columns,
    regular_bimodule,
    stable_hom,
    syzygy_step,
    tate_ext,
    tate_ring,
    trivial_module,
)

from conftest import free_module


# -- algebras -----------------------------------------------------------------


def test_gallery_algebras_validate(klein_alg, cubic_alg):
    for alg in (klein_alg, cubic_alg):
        assert alg.validate().passed
        assert alg.validate_symmetric().passed


def test_validate_catches_broken_associativity(cubic_alg):
    mult = cubic_alg.mult.copy()
    mult[1, 2, 0] = 1  # x * x^2 = 1 while (x * x) * x stays 0
    broken = FDAlgebra(
        cubic_alg.field, cubic_alg.dim, mult, cubic_alg.unit, cubic_alg.radical
    )
    rep = broken.validate()
    assert not rep.passed
    assert {e.key: e.verdict for e in rep.entries}["associativity"] == FAIL


def dense_associativity_defect(p: int, mult: np.ndarray):
    """The first (s, t, u) with (e_s e_t) e_u != e_s (e_t e_u), from all d^5 multiply-adds."""
    d = len(mult)
    flat_right = mult.reshape(d, d * d)
    flat_left = mult.reshape(d * d, d)
    for s in range(d):
        lhs = matmul_mod(mult[s], flat_right, p).reshape(d, d, d)
        rhs = matmul_mod(flat_left, mult[s], p).reshape(d, d, d)
        if not np.array_equal(lhs, rhs):
            t, u, _ = (int(x) for x in np.argwhere((lhs - rhs) % p)[0])
            return (s, t, u)
    return None


def associativity_defect(alg: FDAlgebra):
    """The triple FDAlgebra.validate reports: the one-degree case of graded.associativity_failures."""
    failure = graded.associativity_failures(alg.p, (0, 0), {0: alg.dim}, {(0, 0): alg.mult}).get(0)
    return None if failure is None else failure[2]


def dense_associativity_failures(p, window, dims, mult):
    """associativity_failures of a one-degree table, as FDAlgebra.validate asks it, by the dense loop."""
    assert window == (0, 0) and list(mult) == [(0, 0)]
    defect = dense_associativity_defect(p, mult[(0, 0)])
    return {} if defect is None else {0: (0, 0, defect)}


def check_validate_against_the_dense_loop(alg: FDAlgebra) -> dict:
    """validate()'s report equals the one built on the dense associativity loop; returns it."""
    got = alg.validate().to_json_dict()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stmod, "associativity_failures", dense_associativity_failures)
        want = alg.validate().to_json_dict()
    assert got == want
    return got


def test_corrupted_associativity_report_matches_the_dense_loop(cubic_alg):
    mult = cubic_alg.mult.copy()
    mult[1, 2, 0] = 1  # x * x^2 = 1: (x x) x = x^2 x = 0, but x (x x) = x x^2 = 1
    broken = FDAlgebra(cubic_alg.field, cubic_alg.dim, mult, cubic_alg.unit, cubic_alg.radical)
    report = check_validate_against_the_dense_loop(broken)
    entry = next(e for e in report["per_degree"] if e["i"] == "associativity")
    assert entry["verdict"] == FAIL and entry["witness"] == {"triple": [1, 1, 1]}


def elementary_abelian_group_algebra(rank: int) -> FDAlgebra:
    """F2[C2^rank] in the group basis: e_g e_h = e_{g xor h}, a table with no zero product."""
    d = 2**rank
    mult = np.zeros((d, d, d), dtype=np.int64)
    g = np.arange(d)
    mult[g[:, None], g[None, :], g[:, None] ^ g[None, :]] = 1
    radical = np.eye(d, dtype=np.int64)[:, 1:]
    radical[0] = 1  # the g - 1 with g != 1
    return FDAlgebra(PrimeField(2), d, mult, np.eye(d, dtype=np.int64)[0], radical)


# small tables and the larger sparse ones (x^30, the group basis, (3,3,3)),
# whose products are mostly listed term by term rather than multiplied densely
ASSOCIATIVITY_ALGEBRAS = {
    "klein-F2": lambda: build_truncated_ci((2, 2), 2),
    "x^30-F2": lambda: build_truncated_ci((30,), 2),
    "C2^4-group-F2": lambda: elementary_abelian_group_algebra(4),
    "(3,3,3)-F3": lambda: build_truncated_ci((3, 3, 3), 3),
    "cubic-F3": lambda: build_truncated_ci((3,), 3),
    "2x3-F2": lambda: build_truncated_ci((2, 3), 2),
    "x^5-F5": lambda: build_truncated_ci((5,), 5),
    "(2,2,2)-F2": lambda: build_truncated_ci((2, 2, 2), 2),
    "cubic-enveloping-F3": lambda: build_truncated_ci((3,), 3).enveloping(),
    "triangular-F3": lambda: upper_triangular(3),
    "split-F3": lambda: split(3),
}


@settings(max_examples=80)
@given(name=hst.sampled_from(sorted(ASSOCIATIVITY_ALGEBRAS)), dense=hst.booleans(), data=hst.data())
def test_associativity_matches_the_dense_loop_on_corrupted_tables(name, dense, data):
    # monomial tables leave most products structurally zero; a unitriangular
    # change of basis fills them in; up to three corrupted entries break
    # associativity somewhere
    alg = ASSOCIATIVITY_ALGEBRAS[name]()
    p, d = alg.p, alg.dim
    if dense:
        below = data.draw(hst.lists(hst.integers(0, p - 1), min_size=d * d, max_size=d * d))
        alg = rebase(alg, np.tril(np.array(below, dtype=np.int64).reshape(d, d), -1) + np.eye(d, dtype=np.int64))
    mult = alg.mult.copy()
    for _ in range(data.draw(hst.integers(0, 3))):
        index = tuple(data.draw(hst.integers(0, d - 1)) for _ in range(3))
        mult[index] = data.draw(hst.integers(0, p - 1))
    broken = FDAlgebra(alg.field, d, mult, alg.unit, alg.radical)
    defect = associativity_defect(broken)
    assert defect == dense_associativity_defect(broken.p, broken.mult)
    check_validate_against_the_dense_loop(broken)
    # the same table as a one-degree graded ring names the same triple, unless
    # a broken unit law comes first there
    failure = next(iter(WindowedGradedAlgebra(alg.field, (0, 0), {0: d}, {(0, 0): mult}, alg.unit)
                        .validate().failures()), None)
    if failure is not None and failure.witness["law"] == "unit":
        assert {e.key: e.verdict for e in broken.validate().entries}["unit"] == FAIL
    else:
        assert (None if failure is None else failure.witness["indices"]) == defect


def test_validate_symmetric_needs_a_functional(klein_alg):
    bare = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit, klein_alg.radical
    )
    rep = bare.validate_symmetric()
    assert not rep.passed
    assert {e.key: e.verdict for e in rep.entries}["present"] == FAIL


def test_validate_symmetric_rejects_degenerate_functional(klein_alg):
    lam = np.zeros(klein_alg.dim, dtype=np.int64)
    lam[0] = 1  # dual of the unit pairs every radical element to zero
    shady = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit,
        klein_alg.radical, lam,
    )
    rep = shady.validate_symmetric()
    verdicts = {e.key: e.verdict for e in rep.entries}
    assert verdicts["symmetric"] == PASS
    assert verdicts["nondegenerate"] == FAIL



# -- the symmetric form: one reduction against rank, kernel and solve ---------------


def reference_symmetric_form(alg: FDAlgebra) -> tuple[dict, np.ndarray | None]:
    """validate_symmetric's report and dual_basis from rank_mod, kernel_mod and solve_mod."""
    rep = CertifiedReport(check="symmetric_form")
    if alg.symmetrizing is None:
        rep.add("present", FAIL, {"reason": "no symmetrizing functional"})
        return rep.to_json_dict(), None
    rep.add("present", PASS)
    p, d = alg.p, alg.dim
    gram = matmul_mod(alg.mult.reshape(d * d, d), alg.symmetrizing[:, None], p).reshape(d, d)
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
    dual = solve_mod(gram, np.eye(d, dtype=np.int64), p) if rep.passed else None
    return rep.to_json_dict(), dual


def with_functional(alg: FDAlgebra, lam) -> FDAlgebra:
    return FDAlgebra(alg.field, alg.dim, alg.mult, alg.unit, alg.radical, lam, alg.labels)


def check_symmetric_form_against_the_reference(alg: FDAlgebra) -> dict:
    """Report and dual basis match the reference, whether the report or the basis comes first."""
    want, dual = reference_symmetric_form(alg)
    for first in ("report", "dual_basis"):
        fresh = with_functional(alg, alg.symmetrizing)
        if first == "report":
            assert fresh.validate_symmetric().to_json_dict() == want
        if dual is None:
            with pytest.raises(PreconditionError):
                fresh.dual_basis()
        else:
            assert np.array_equal(fresh.dual_basis(), dual)
        assert fresh.validate_symmetric().to_json_dict() == want
    return want


SYMMETRIC_GALLERY = {
    "klein-F2": lambda: build_truncated_ci((2, 2), 2),
    "klein-F3": lambda: build_truncated_ci((2, 2), 3),
    "cubic-F3": lambda: build_truncated_ci((3,), 3),
    "2x3-F2": lambda: build_truncated_ci((2, 3), 2),
    "x6-F3": lambda: build_truncated_ci((6,), 3),
    "2x2x2-F2": lambda: build_truncated_ci((2, 2, 2), 2),
    "klein-enveloping": lambda: build_truncated_ci((2, 2), 2).enveloping(),
    "cubic-enveloping": lambda: build_truncated_ci((3,), 3).enveloping(),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_GALLERY))
def test_symmetric_form_matches_the_reference_on_the_gallery(name):
    assert check_symmetric_form_against_the_reference(SYMMETRIC_GALLERY[name]())["passed"]


def test_symmetric_form_matches_the_reference_when_it_fails(klein_alg):
    absent = with_functional(klein_alg, None)
    degenerate = with_functional(klein_alg, [1, 0, 0, 0])  # the unit's dual kills the radical
    triangular = upper_triangular(3)
    asymmetric = with_functional(triangular, [0, 1, 0])  # lam(e11 e12) = 1, lam(e12 e11) = 0
    verdicts = {}
    for name, alg in [("absent", absent), ("degenerate", degenerate), ("asymmetric", asymmetric)]:
        report = check_symmetric_form_against_the_reference(alg)
        verdicts[name] = {e["i"]: e["verdict"] for e in report["per_degree"]}
    assert verdicts["absent"] == {"present": FAIL}
    assert verdicts["degenerate"]["nondegenerate"] == FAIL
    assert verdicts["asymmetric"]["symmetric"] == FAIL


@settings(max_examples=60)
@given(name=hst.sampled_from(sorted(SYMMETRIC_GALLERY) + ["triangular-F3"]), data=hst.data())
def test_symmetric_form_matches_the_reference_on_random_functionals(name, data):
    alg = upper_triangular(3) if name == "triangular-F3" else SYMMETRIC_GALLERY[name]()
    lam = data.draw(hst.lists(hst.integers(0, alg.p - 1), min_size=alg.dim, max_size=alg.dim))
    check_symmetric_form_against_the_reference(with_functional(alg, lam))


# -- radical clauses: the batched checks against the per-column loops -----------


def oracle_left_matrix(alg: FDAlgebra, vec: np.ndarray) -> np.ndarray:
    d = alg.dim
    return matmul_mod(vec[None, :], alg.mult.reshape(d, d * d), alg.p).reshape(d, d).T


def oracle_right_matrix(alg: FDAlgebra, vec: np.ndarray) -> np.ndarray:
    d = alg.dim
    return matmul_mod(vec[None, :], alg.mult.transpose(1, 0, 2).reshape(d, d * d), alg.p).reshape(d, d).T


def reference_radical_clauses(alg: FDAlgebra) -> dict[str, str]:
    """The radical clauses of FDAlgebra.validate, one radical column at a time."""
    p, d, r = alg.p, alg.dim, alg.radical
    ideal_ok = True
    for c in range(r.shape[1]):
        prods = np.hstack([oracle_left_matrix(alg, r[:, c]), oracle_right_matrix(alg, r[:, c])])
        if solve_mod(r, prods, p) is None:
            ideal_ok = False
            break
    span = r
    nil_ok = False
    for _ in range(d + 1):
        if span.shape[1] == 0:
            nil_ok = True
            break
        cols = [matmul_mod(oracle_left_matrix(alg, r[:, c]), span, p) for c in range(r.shape[1])]
        span = col_echelon(np.hstack(cols), p)
    codim_ok = rank_mod(r, p) == d - 1 and solve_mod(r, alg.unit, p) is None
    return {
        "radical_ideal": PASS if ideal_ok else FAIL,
        "radical_nilpotent": PASS if nil_ok else FAIL,
        "radical_codim_one": PASS if codim_ok else FAIL,
    }


def reference_unit_clause(alg: FDAlgebra) -> tuple[str, dict | None]:
    """FDAlgebra.validate's unit clause: the first wrong entry of 1 * (-), else of (-) * 1."""
    p, eye = alg.p, np.eye(alg.dim, dtype=np.int64)
    left, right = oracle_left_matrix(alg, alg.unit), oracle_right_matrix(alg, alg.unit)
    if np.array_equal(left, eye) and np.array_equal(right, eye):
        return PASS, None
    bad = np.argwhere((left - eye) % p) if not np.array_equal(left, eye) else np.argwhere((right - eye) % p)
    return FAIL, {"entry": tuple(int(v) for v in bad[0])}


def left_zero_band(p: int) -> FDAlgebra:
    """e_s e_t = e_t on three idempotents: every e_s is a left unit and none a right unit."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[:, np.arange(3), np.arange(3)] = 1
    return FDAlgebra(PrimeField(p), 3, mult, [1, 0, 0], np.zeros((3, 0), dtype=np.int64))


@pytest.mark.parametrize("build, unit, verdict", [
    (lambda: build_truncated_ci((2, 2), 3), None, PASS),
    (lambda: build_truncated_ci((2, 2), 3), [2, 0, 0, 0], FAIL),  # both sides fail; the left one is named
    (lambda: build_truncated_ci((3,), 3), [1, 1, 0], FAIL),
    (lambda: left_zero_band(3), None, FAIL),  # only the right unit law fails
    (lambda: upper_triangular(3), [1, 0, 0], FAIL),
])
def test_unit_clause_matches_the_reference(build, unit, verdict):
    alg = build()
    if unit is not None:
        alg = FDAlgebra(alg.field, alg.dim, alg.mult, unit, alg.radical)
    entry = next(e for e in alg.validate().entries if e.key == "unit")
    assert (entry.verdict, entry.witness) == reference_unit_clause(alg)
    assert entry.verdict == verdict


def upper_triangular(p: int) -> FDAlgebra:
    """Upper triangular 2x2 matrices on e11, e12, e22: not commutative, not local."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    for s, t, u in [(0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)]:
        mult[s, t, u] = 1
    return FDAlgebra(PrimeField(p), 3, mult, [1, 0, 1], np.eye(3, dtype=np.int64)[:, [1]])


def split(p: int) -> FDAlgebra:
    """F_p x F_p on its idempotents e1, e2: commutative, semisimple, not local; radical span e1."""
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[1, 1, 1] = 1
    return FDAlgebra(PrimeField(p), 2, mult, [1, 1], [[1], [0]])


def with_radical(alg: FDAlgebra, radical) -> FDAlgebra:
    return FDAlgebra(alg.field, alg.dim, alg.mult, alg.unit, np.asarray(radical, dtype=np.int64).reshape(alg.dim, -1))


def _cols(d: int, *vectors) -> np.ndarray:
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), d).T if vectors else np.zeros((d, 0), np.int64)


# Klein four over F_2 has basis 1, x2, x1, x1*x2; T2 has e11, e12, e22.
RADICAL_CASES = {
    "klein-J": (lambda: build_truncated_ci((2, 2), 2), None, (PASS, PASS, PASS)),
    "klein-not-an-ideal": (lambda: build_truncated_ci((2, 2), 2), _cols(4, [0, 0, 1, 0]), (FAIL, PASS, FAIL)),
    "klein-J-squared": (lambda: build_truncated_ci((2, 2), 2), _cols(4, [0, 0, 0, 1]), (PASS, PASS, FAIL)),
    "klein-whole-algebra": (lambda: build_truncated_ci((2, 2), 2), np.eye(4, dtype=np.int64), (PASS, FAIL, FAIL)),
    "klein-through-a-unit": (
        lambda: build_truncated_ci((2, 2), 2), _cols(4, [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]), (FAIL, FAIL, PASS),
    ),
    "cubic-x-only": (lambda: build_truncated_ci((3,), 3), _cols(3, [0, 1, 0]), (FAIL, PASS, FAIL)),
    "field-empty-radical": (lambda: build_truncated_ci((1,), 5), _cols(1), (PASS, PASS, PASS)),
    "triangular-radical": (lambda: upper_triangular(3), None, (PASS, PASS, FAIL)),
    "triangular-left-ideal-only": (lambda: upper_triangular(3), _cols(3, [1, 0, 0]), (FAIL, FAIL, FAIL)),
    "triangular-right-ideal-only": (lambda: upper_triangular(3), _cols(3, [0, 0, 1]), (FAIL, FAIL, FAIL)),
    "split-idempotent": (lambda: split(3), None, (PASS, FAIL, PASS)),
    "split-zero": (lambda: split(3), _cols(2), (PASS, PASS, FAIL)),
    "split-through-the-unit": (lambda: split(3), _cols(2, [1, 1]), (FAIL, FAIL, FAIL)),
}


@pytest.mark.parametrize("name", sorted(RADICAL_CASES))
def test_radical_clauses_match_the_column_loops(name):
    build, radical, want = RADICAL_CASES[name]
    alg = build() if radical is None else with_radical(build(), radical)
    rep = alg.validate()
    verdicts = {e.key: e.verdict for e in rep.entries}
    got = {key: verdicts[key] for key in ("radical_ideal", "radical_nilpotent", "radical_codim_one")}
    assert got == reference_radical_clauses(alg)
    assert tuple(got.values()) == want


RADICAL_ALGEBRAS = {
    "klein-F2": lambda: build_truncated_ci((2, 2), 2),
    "klein-F3": lambda: build_truncated_ci((2, 2), 3),
    "cubic-F3": lambda: build_truncated_ci((3,), 3),
    "2x3-F2": lambda: build_truncated_ci((2, 3), 2),
    "triangular-F3": lambda: upper_triangular(3),
    "split-F3": lambda: split(3),
}


@settings(max_examples=60)
@given(name=hst.sampled_from(sorted(RADICAL_ALGEBRAS)), data=hst.data())
def test_radical_clauses_match_the_column_loops_on_random_radicals(name, data):
    alg = RADICAL_ALGEBRAS[name]()
    d, p = alg.dim, alg.p
    k = data.draw(hst.integers(0, d))
    if data.draw(hst.booleans()):  # a subset of the true radical's columns, often an ideal
        keep = data.draw(hst.lists(hst.integers(0, alg.radical.shape[1] - 1), unique=True, max_size=k))
        radical = alg.radical[:, sorted(keep)]
    else:
        entries = data.draw(hst.lists(hst.integers(0, p - 1), min_size=d * k, max_size=d * k))
        radical = np.array(entries, dtype=np.int64).reshape(d, k)
    broken = with_radical(alg, radical)
    rep = broken.validate()
    want = reference_radical_clauses(broken)
    verdicts = {e.key: e.verdict for e in rep.entries}
    assert {key: verdicts[key] for key in want} == want


@pytest.mark.parametrize("chunk", [1, 7, 2048])
@pytest.mark.parametrize("name", ["x^30-F2", "C2^4-group-F2", "(3,3,3)-F3", "cubic-enveloping-F3"])
def test_squared_radical_span_does_not_depend_on_the_chunk(monkeypatch, name, chunk):
    # reduced against the running basis a chunk at a time, or all products at once
    alg = ASSOCIATIVITY_ALGEBRAS[name]()
    p, d = alg.p, alg.dim
    monkeypatch.setattr(stmod, "_SQUARE_CHUNK", chunk)
    span = alg.radical
    for _ in range(3):
        left = matmul_mod(span.T, alg.left_ops.reshape(d, d * d), p).reshape(-1, d)
        want = col_echelon(np.hstack([matmul_mod(left[c * d:(c + 1) * d], span, p) for c in range(span.shape[1])]), p)
        span = alg._square_span(span)
        assert np.array_equal(span, want)


def test_nilpotency_stops_once_a_squaring_leaves_the_span_unchanged(monkeypatch):
    # the whole algebra as "radical": J^2 = J on the first squaring, so the
    # check fails there instead of squaring on until the power passes dim A
    alg = with_radical(build_truncated_ci((30,), 2), np.eye(30, dtype=np.int64))
    calls = []
    square = FDAlgebra._square_span

    def counting(self, span):
        calls.append(span.shape[1])
        return square(self, span)

    monkeypatch.setattr(FDAlgebra, "_square_span", counting)
    assert {e.key: e.verdict for e in alg.validate().entries}["radical_nilpotent"] == FAIL
    assert calls == [30]


def test_left_operator_stack_is_read_only_and_matches_left_matrix(klein_alg, cubic_alg):
    for alg in (klein_alg, cubic_alg, upper_triangular(3)):
        d = alg.dim
        assert not alg.left_ops.flags.writeable
        for s, e in enumerate(np.eye(d, dtype=np.int64)):
            assert np.array_equal(alg.left_ops[s * d:(s + 1) * d], oracle_left_matrix(alg, e))


@settings(max_examples=200)
@given(p=hst.sampled_from([2, 3, 5]), d=hst.integers(1, 5), rows=hst.integers(0, 4), cols=hst.integers(0, 4),
       k=hst.integers(0, 4), seed=hst.integers(0, 2**32 - 1))
@example(p=2, d=4, rows=0, cols=0, k=3, seed=0)  # a zero-dimensional module
@example(p=3, d=4, rows=2, cols=5, k=0, seed=1)  # no coefficient columns, a (d, g, m) slice
def test_acting_matches_the_einsum_reference(p, d, rows, cols, k, seed):
    rng = np.random.default_rng(seed)
    action = rng.integers(0, p, size=(d, rows, cols))
    coeffs = rng.integers(0, p, size=(d, k))
    got = _acting(action, coeffs, p)
    assert got.shape == (k, rows, cols)
    assert np.array_equal(got, np.einsum("sc,srk->crk", coeffs, action) % p)


def generator_vectors(alg: FDAlgebra) -> np.ndarray:
    """Unit plus lifts of a basis of J/J^2: a generating set of the algebra."""
    p, rad = alg.p, alg.radical
    jj_cols = [matmul_mod(oracle_left_matrix(alg, rad[:, c]), rad, p) for c in range(rad.shape[1])]
    jj = col_echelon(np.hstack(jj_cols), p) if jj_cols else np.zeros((alg.dim, 0), dtype=np.int64)
    coords = solve_mod(rad, jj, p)
    _, pivots = rref(coords.reshape(rad.shape[1], -1).T, p)
    complement = [rad[:, c] for c in range(rad.shape[1]) if c not in pivots]
    return np.stack([alg.unit] + complement, axis=1)


def test_generator_vectors(klein_alg):
    gens = generator_vectors(klein_alg)
    # unit plus x1 and x2: x1*x2 lies in J^2
    assert gens.shape == (4, 3)
    assert gens[:, 0].tolist() == klein_alg.unit.tolist()


def test_derive_radical_both_paths(klein_alg):
    # dim 4 over F_2 reads the characters off 4th powers; dim 3 over F_2 uses traces
    derived = derive_radical(klein_alg.mult, klein_alg.unit, klein_alg.field)
    assert np.array_equal(
        col_echelon(derived, 2), col_echelon(klein_alg.radical, 2)
    )
    line = build_truncated_ci((3,), 2)
    derived_line = derive_radical(line.mult, line.unit, line.field)
    assert np.array_equal(
        col_echelon(derived_line, 2), col_echelon(line.radical, 2)
    )


def shifted_line(a: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k[x]/(x^a) over F_p in the basis 1, x - 1, ..., x^(a-1) - 1: mult, unit, radical."""
    line = build_truncated_ci((a,), p)
    to_old = np.eye(a, dtype=np.int64)
    to_old[0, 1:] = p - 1  # column s holds x^s - 1
    to_new = np.eye(a, dtype=np.int64)
    to_new[0, 1:] = 1  # x^s = (x^s - 1) + 1
    mult = np.einsum("sa,tb,stu,cu->abc", to_old, to_old, line.mult, to_new, optimize=True) % p
    return mult, to_new @ line.unit % p, to_new @ line.radical % p


@pytest.mark.parametrize("a, p", [(4, 2), (9, 3), (61, 61)])
def test_derive_radical_when_the_characteristic_divides_the_dimension(a, p):
    # every basis element but 1 has character -1, so none lies in the radical
    mult, unit, radical = shifted_line(a, p)
    derived = derive_radical(mult, unit, PrimeField(p))
    assert np.array_equal(col_echelon(derived, p), col_echelon(radical, p))


def test_derive_radical_rejects_a_non_local_table():
    # F_2 x F_2: e0^2 = e0 is no scalar, so no character exists
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[1, 1, 1] = 1
    payload = {"field_char": 2, "dim": 2, "mult": mult.tolist(), "unit": [1, 1]}
    with pytest.raises(AlgebraFormatError, match="basis element 0 has no nilpotent shift; algebra is not local"):
        fd_algebra_from_json_dict(payload)
    with pytest.raises(AlgebraFormatError, match="unit is zero"):
        fd_algebra_from_json_dict({**payload, "unit": [2, 0]})


def test_fd_json_round_trip_and_derivation(klein_alg):
    payload = klein_alg.to_json_dict()
    back = fd_algebra_from_json_dict(payload)
    assert np.array_equal(back.mult, klein_alg.mult)
    assert np.array_equal(back.unit, klein_alg.unit)
    assert back.labels == klein_alg.labels
    assert np.array_equal(back.symmetrizing, klein_alg.symmetrizing)

    stripped = dict(payload)
    del stripped["radical"]
    rederived = fd_algebra_from_json_dict(stripped)
    assert np.array_equal(
        col_echelon(rederived.radical, 2), col_echelon(klein_alg.radical, 2)
    )


def test_fd_json_rejects_malformed_payloads(klein_alg):
    payload = klein_alg.to_json_dict()
    for breakage in (
        lambda d: d.pop("mult"),
        lambda d: d.update(field_char=6),
        lambda d: d.update(mult=[[0]]),
        lambda d: d.update(radical=[[1], [0]]),
        lambda d: d.update(symmetrizing=[1, 0]),
        lambda d: d.update(unit=[1]),
        lambda d: d.update(unit=[2**70, 0, 0, 0]),
        lambda d: d.update(mult=[[[2**70] * 4] * 4] * 4),
        lambda d: d.update(radical=[[2**70]] * 4),
        lambda d: d.update(labels=5),
        lambda d: d.update(labels=[1, 2, 3, 4]),
        lambda d: d.update(field_char=2.0),
        lambda d: d.update(dim=4.0),
        lambda d: d.update(mult=[[[1.9] * 4] * 4] * 4),
        lambda d: d.update(unit=[True, 0, 0, 0]),
        lambda d: d.update(radical=[[0.5, 0, 0]] * 4),
        lambda d: d.update(symmetrizing=[0, 0, 0, 1.0]),
    ):
        bad = {k: v for k, v in payload.items()}
        breakage(bad)
        with pytest.raises(AlgebraFormatError):
            fd_algebra_from_json_dict(bad)


def test_fd_json_rejects_a_payload_that_is_no_object():
    with pytest.raises(AlgebraFormatError, match="algebra payload must be an object"):
        fd_algebra_from_json_dict([1, 2])


def test_fd_constructors_reject_tables_of_the_wrong_shape():
    f2 = PrimeField(2)
    with pytest.raises(AlgebraFormatError, match="mult tensor must be 2x2x2"):
        FDAlgebra(f2, 2, np.zeros((2, 2, 1), dtype=np.int64), [1, 0], np.zeros((2, 1), dtype=np.int64))
    k = FDAlgebra(f2, 1, np.ones((1, 1, 1), dtype=np.int64), [1], np.zeros((1, 0), dtype=np.int64))
    with pytest.raises(AlgebraFormatError, match=r"action must have shape \(1, 1, 1\)"):
        FDModule(k, 1, np.zeros((1, 2, 1), dtype=np.int64))


def test_enveloping_algebra(klein_alg):
    env = klein_alg.enveloping()
    assert env.dim == 16
    assert env.validate().passed
    assert env.validate_symmetric().passed
    assert "1|x1" in env.labels


# -- modules --------------------------------------------------------------------


def test_trivial_module_kills_the_radical(klein_alg):
    k = trivial_module(klein_alg)
    assert k.validate().passed
    assert k.action[:, 0, 0].tolist() == [1, 0, 0, 0]


def test_trivial_module_rejects_a_non_local_algebra():
    # F_2 x F_2 built directly, with no radical: unit plus radical spans one of two dimensions
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[1, 1, 1] = 1
    alg = FDAlgebra(PrimeField(2), 2, mult, [1, 1], np.zeros((2, 0), dtype=np.int64))
    with pytest.raises(AlgebraFormatError, match="algebra is not local: unit plus radical is not a basis"):
        trivial_module(alg)


def dense_free_module(alg: FDAlgebra, rank: int) -> FDModule:
    """A^rank with its block-diagonal (rank*d)^2 action matrices written out."""
    d = alg.dim
    action = np.zeros((d, rank * d, rank * d), dtype=np.int64)
    for b in range(rank):
        action[:, b * d:(b + 1) * d, b * d:(b + 1) * d] = alg.mult.transpose(0, 2, 1)  # e_s * (-)
    return FDModule(alg, rank * d, action)


def free_generators(alg: FDAlgebra, rank: int) -> np.ndarray:
    """Columns holding the canonical module generators of A^rank."""
    return np.kron(np.eye(rank, dtype=np.int64), alg.unit[:, None]) % alg.p


def test_free_module_and_generators(klein_alg):
    free = free_module(klein_alg, 2)
    assert free.dim == 8
    assert free.validate().passed
    assert np.array_equal(free.action, dense_free_module(klein_alg, 2).action)
    gens = free_generators(klein_alg, 2)
    assert gens.shape == (8, 2)
    assert rank_mod(gens, 2) == 2


FREE_ACTION_ALGEBRAS = {
    "klein-F2": lambda: build_truncated_ci((2, 2), 2),
    "klein-F3": lambda: build_truncated_ci((2, 2), 3),
    "cubic-F3": lambda: build_truncated_ci((3,), 3),
    "cubic-enveloping-F3": lambda: build_truncated_ci((3,), 3).enveloping(),
}


@settings(max_examples=40)
@given(name=hst.sampled_from(sorted(FREE_ACTION_ALGEBRAS)), rank=hst.integers(1, 3),
       k=hst.integers(0, 4), data=hst.data())
def test_blockwise_free_action_matches_the_dense_free_module(name, rank, k, data):
    alg = FREE_ACTION_ALGEBRAS[name]()
    width = rank * alg.dim
    entries = data.draw(hst.lists(hst.integers(0, alg.p - 1), min_size=width * k, max_size=width * k))
    cols = np.array(entries, dtype=np.int64).reshape(width, k)
    dense = dense_free_module(alg, rank).action
    want = np.stack([matmul_mod(dense[s], cols, alg.p) for s in range(alg.dim)])
    assert np.array_equal(_free_action(alg, cols), want)


def test_module_validate_catches_wrong_action(klein_alg):
    action = np.zeros((4, 1, 1), dtype=np.int64)
    action[0, 0, 0] = 1
    action[1, 0, 0] = 1  # x1 acting as the identity is not multiplicative
    bad = FDModule(klein_alg, 1, action)
    report = check_module_validate_against_the_dense_loop(bad)
    entry = next(e for e in report["per_degree"] if e["i"] == "multiplicativity")
    assert entry["verdict"] == FAIL and entry["witness"] == {"pair": [1, 1]}


def action_of(module: FDModule, vec) -> np.ndarray:
    """The matrix by which the algebra element with coefficients vec acts, as one
    dense (d, m*m) product: the reference for FDModule.validate's unit law."""
    d, m = module.algebra.dim, module.dim
    flat = matmul_mod(np.asarray(vec, dtype=np.int64)[None, :], module.action.reshape(d, m * m), module.p)
    return flat.reshape(m, m)


def dense_module_defect(module: FDModule):
    """The first (s, t) in C order where e_s (e_t x) != (e_s e_t) x for some x,
    from the dense (d*d, m*m) product that FDModule.validate once formed."""
    p, d, m = module.p, module.algebra.dim, module.dim
    expected = matmul_mod(module.algebra.mult.reshape(d * d, d), module.action.reshape(d, m * m), p)
    for s in range(d):
        got = matmul_mod(module.action[s], module.action.transpose(1, 0, 2).reshape(m, d * m), p)
        got = got.reshape(m, d, m).transpose(1, 0, 2).reshape(d, m * m)
        if not np.array_equal(got, expected[s * d:(s + 1) * d]):
            return s, int(np.argwhere(np.any((got - expected[s * d:(s + 1) * d]) % p, axis=1))[0][0])
    return None


def check_module_validate_against_the_dense_loop(module: FDModule,
                                                 terms_per_madd=graded._SPARSE_TERMS_PER_MADD) -> dict:
    """validate()'s report, with the given sparse/dense cost ratio, equals the
    one built on the dense loop; returns it.  Meant for associative tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded, "_SPARSE_TERMS_PER_MADD", terms_per_madd)
        got = module.validate().to_json_dict()
    want = CertifiedReport(check="fd_module")
    unit_ok = np.array_equal(action_of(module, module.algebra.unit), np.eye(module.dim, dtype=np.int64))
    want.add("unit", PASS if unit_ok else FAIL)
    defect = dense_module_defect(module)
    want.add("multiplicativity", PASS if defect is None else FAIL, None if defect is None else {"pair": defect})
    assert got == want.to_json_dict()
    return got


def test_module_unit_law_sums_every_coordinate_of_the_unit():
    # the unit e11 + e22 of the triangular matrices acts through two slices
    alg = upper_triangular(3)
    action = alg.left_ops.reshape(3, 3, 3).copy()
    assert check_module_validate_against_the_dense_loop(FDModule(alg, 3, action))["passed"]
    action[2] = 0  # e22 acting as zero leaves e11 + e22 acting as e11 alone
    report = check_module_validate_against_the_dense_loop(FDModule(alg, 3, action))
    assert {e["i"]: e["verdict"] for e in report["per_degree"]}["unit"] == FAIL


def test_module_validate_holds_no_copy_of_the_action():
    # W_4 of the (2,2,2,2) trivial module: its action is a non-contiguous
    # (16, 209, 209) view of 5.3 MiB, which a ravel or reshape would copy whole
    module = SyzygyTower(trivial_module(build_truncated_ci((2, 2, 2, 2), 2))).module(4)
    assert module.dim == 209 and not module.action.flags.c_contiguous
    tracemalloc.start()
    try:
        assert module.validate().passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < module.action.nbytes / 2


def test_zero_dimensional_module_validates(klein_alg, cubic_alg):
    for alg in (klein_alg, cubic_alg, klein_alg.enveloping()):
        zero = FDModule(alg, 0, np.zeros((alg.dim, 0, 0), dtype=np.int64))
        for terms_per_madd in (0, 10**9):
            assert check_module_validate_against_the_dense_loop(zero, terms_per_madd)["passed"]


def test_default_costs_pick_the_dense_associativity_route_only_for_a_dense_table(monkeypatch):
    # The other tests force each route; this pins which one the default
    # constants pick.  In a dense basis the (2,2,2,2) table has far more terms
    # than its block products cost, so it is multiplied out densely; in the
    # monomial basis, and on the trivial extension the analyze-te3 benchmark
    # checks, the listed terms are cheaper.
    runs = {"dense": 0, "sparse": 0}

    def counting(fn, route):
        def wrapped(*args):
            runs[route] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(graded, "_dense_defect", counting(graded._dense_defect, "dense"))
    monkeypatch.setattr(graded, "_csr_expand", counting(graded._csr_expand, "sparse"))
    monomial = build_truncated_ci((2, 2, 2, 2), 2)
    rng = np.random.default_rng(0)
    g = rng.integers(0, 2, size=(16, 16))
    while rank_mod(g, 2) < 16:
        g = rng.integers(0, 2, size=(16, 16))
    for ring, dense in ((rebase(monomial, g), True), (monomial, False),
                        (build_trivial_extension(3, (-9, 8), 2), False)):
        runs.update(dense=0, sparse=0)
        assert ring.validate().passed
        assert (runs["dense"] > 0, runs["sparse"] > 0) == (dense, not dense), runs


def test_module_over_a_non_associative_table_names_the_table_triple(cubic_alg):
    # x * x^2 = x^2: (x x) x = x^2 x = 0, but x (x x) = x x^2 = x^2.  The
    # character of the trivial module kills x^2 either way, so the dense loop
    # passes the module; the associativity check fails the table first.
    mult = cubic_alg.mult.copy()
    mult[1, 2, 2] = 1
    broken = FDAlgebra(cubic_alg.field, cubic_alg.dim, mult, cubic_alg.unit, cubic_alg.radical)
    module = FDModule(broken, 1, trivial_module(cubic_alg).action)
    assert dense_module_defect(module) is None
    for terms_per_madd in (0, graded._SPARSE_TERMS_PER_MADD, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graded, "_SPARSE_TERMS_PER_MADD", terms_per_madd)
            report = module.validate().to_json_dict()
        entry = next(e for e in report["per_degree"] if e["i"] == "multiplicativity")
        assert entry["verdict"] == FAIL and entry["witness"] == {"triple": list(associativity_defect(broken))}
        assert entry["witness"] == {"triple": [1, 1, 1]}


def test_regular_bimodule(klein_alg):
    bim = regular_bimodule(klein_alg)
    assert bim.dim == klein_alg.dim and bim.algebra.dim == klein_alg.dim**2
    assert bim.validate().passed


def test_regular_bimodule_acts_by_two_sided_products(klein_alg, cubic_alg):
    # the action of (s, t) is e_s * (-) after (-) * e_t, one pair at a time; the
    # triangular matrices are the one non-commutative table
    for alg in (klein_alg, cubic_alg, build_truncated_ci((6,), 3), build_truncated_ci((2, 3), 2), upper_triangular(3)):
        eye = np.eye(alg.dim, dtype=np.int64)
        want = [
            matmul_mod(oracle_left_matrix(alg, eye[s]), oracle_right_matrix(alg, eye[t]), alg.p)
            for s in range(alg.dim)
            for t in range(alg.dim)
        ]
        assert np.array_equal(regular_bimodule(alg).action, np.stack(want))


# -- covers and towers -------------------------------------------------------------


def test_minimal_cover_of_trivial_module(klein_alg):
    cover = minimal_cover(trivial_module(klein_alg))
    assert len(cover.gens) == 1
    assert cover.pi.shape == (1, 4)
    assert rank_mod(cover.pi, 2) == 1


def test_syzygy_dims_follow_the_cover_recurrence(klein_alg):
    # dim W_{s+1} = rank_s * dim(algebra) - dim W_s, from the exact sequences
    tower = SyzygyTower(trivial_module(klein_alg))
    ranks = tower.ranks(5)
    dims = [tower.module(s).dim for s in range(6)]
    for s in range(5):
        assert dims[s + 1] == 4 * ranks[s] - dims[s]
    assert ranks == [expected_ext_dim_ci(2, s) for s in range(5)]
    assert dims == [2 * s + 1 for s in range(6)]


def test_syzygy_inclusion_is_exact(klein_alg):
    k = trivial_module(klein_alg)
    syzygy = syzygy_step(k)
    assert syzygy.dim == 3
    composite = matmul_mod(minimal_cover(k).pi, syzygy.inclusion, 2)
    assert not np.any(composite)
    assert syzygy.validate().passed


def test_cosyzygy_and_window_inverse(klein_alg):
    # the cosyzygy of k is the dual of the syzygy of its dual over the opposite
    # algebra; the Klein-four algebra is commutative and k is one-dimensional,
    # so k is its own dual
    k = trivial_module(klein_alg)
    dual_syzygy = syzygy_step(k)
    co = FDModule(klein_alg, dual_syzygy.dim, dual_syzygy.action.transpose(0, 2, 1))
    assert co.dim == 3
    assert co.validate().passed
    embed, project = minimal_cover(k).pi.T, dual_syzygy.inclusion.T
    assert not np.any(matmul_mod(project, embed, 2))
    # going back down recovers k on the nose (no free summand appears)
    back = syzygy_step(co)
    assert back.dim == 1
    assert (back.dim - k.dim) % klein_alg.dim == 0


# -- hom spaces ---------------------------------------------------------------------


def test_hom_space_dimensions(klein_alg):
    k = trivial_module(klein_alg)
    free = free_module(klein_alg, 1)
    assert hom_space(k, k).shape[1] == 1
    assert hom_space(free, k).shape[1] == 1
    assert hom_space(free, free).shape[1] == 4


def test_hom_space_columns_are_module_maps(klein_alg):
    free = free_module(klein_alg, 1)
    tower = SyzygyTower(trivial_module(klein_alg))
    w1 = tower.module(1)
    hom = hom_space(w1, free)
    eye = np.eye(4, dtype=np.int64)
    for c in range(hom.shape[1]):
        mat = hom[:, c].reshape(free.dim, w1.dim)
        for s in range(4):
            lhs = matmul_mod(free.action[s], mat, 2)
            rhs = matmul_mod(mat, w1.action[s], 2)
            assert np.array_equal(lhs, rhs)


def test_stable_hom_of_trivial_module(klein_alg):
    k = trivial_module(klein_alg)
    st = stable_hom(k, k)
    assert st.dim == 1
    assert st.coordinates(np.eye(1, dtype=np.int64)).tolist() == [1]
    assert st.coordinates(np.eye(1, dtype=np.int64)).any()


def test_maps_from_free_modules_are_stably_zero(klein_alg):
    k = trivial_module(klein_alg)
    free = free_module(klein_alg, 1)
    assert stable_hom(free, k).dim == 0
    st = stable_hom(free, free)
    assert st.dim == 0
    assert not st.coordinates(np.eye(4, dtype=np.int64)).any()
    # the tower of a free module stops at the zero module
    tower = SyzygyTower(free)
    assert tower.module(1).dim == 0 and tower.ranks(3) == [1, 0, 0]
    assert [tate_ext(tower, i).dim for i in (-1, 1, 2)] == [0, 0, 0]


def test_stable_hom_needs_a_validated_symmetrizing_form(klein_alg):
    bare = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit, klein_alg.radical
    )
    k = trivial_module(bare)
    with pytest.raises(PreconditionError, match="present"):
        stable_hom(k, k)
    lam = np.zeros(klein_alg.dim, dtype=np.int64)
    lam[0] = 1
    degenerate = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit, klein_alg.radical, lam
    )
    with pytest.raises(PreconditionError, match="nondegenerate"):
        degenerate.dual_basis()


def test_dual_basis_inverts_the_gram_matrix(klein_alg, cubic_alg):
    for alg in (klein_alg, cubic_alg, klein_alg.enveloping()):
        d, p = alg.dim, alg.p
        gram = matmul_mod(alg.mult.reshape(d * d, d), alg.symmetrizing[:, None], p).reshape(d, d)
        assert matmul_mod(gram, alg.dual_basis(), p).tolist() == np.eye(d, dtype=int).tolist()


def dense_hom_space(source: FDModule, target: FDModule) -> np.ndarray:
    """Hom as the kernel of the commuting constraints on all n*m entries, one block per generator."""
    alg = source.algebra
    p = alg.p
    m, n = source.dim, target.dim
    if m == 0 or n == 0:
        return np.zeros((n * m, 0), dtype=np.int64)
    gens = generator_vectors(alg)
    rows = []
    eye_n = np.eye(n, dtype=np.int64)
    eye_m = np.eye(m, dtype=np.int64)
    for c in range(gens.shape[1]):
        rho_s = action_of(source, gens[:, c])
        rho_t = action_of(target, gens[:, c])
        rows.append((np.kron(eye_n, rho_s.T) - np.kron(rho_t, eye_m)) % p)
    return kernel_mod(np.vstack(rows), p)


def higman_projective_factor_columns(source: FDModule, target: FDModule) -> np.ndarray:
    """Echelon columns (vec'd row-major) of the maps source -> target that factor through a projective.

    By Higman's criterion: over a symmetric algebra these maps are exactly
    the relative traces Tr(f) = sum_s rho_T(e_s) f rho_S(e_s^dual) of the
    linear maps f, so they are the column span of the (n*m)^2 matrix
    sum_s rho_T(e_s) (x) rho_S(e_s^dual)^T acting on vec'd maps.
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


def cover_projective_factor_columns(source: FDModule, target: FDModule) -> np.ndarray:
    """Echelon columns of the maps source -> target through the minimal free cover of target."""
    p = source.p
    cover = minimal_cover(target)
    lifted = dense_hom_space(source, dense_free_module(target.algebra, len(cover.gens)))
    if lifted.shape[1] == 0:
        return np.zeros((target.dim * source.dim, 0), dtype=np.int64)
    pushed = np.kron(cover.pi, np.eye(source.dim, dtype=np.int64)) % p
    return col_echelon(matmul_mod(pushed, lifted, p), p)


def unitriangular_rebase(alg: FDAlgebra) -> FDAlgebra:
    """The same algebra in the basis f_i = e_i + e_{i+1} + ... + e_{d-1}.

    Monomial bases make the Gram matrix of the symmetrizing form its own
    inverse; this basis does not, so the dual basis is exercised for real.
    """
    return rebase(alg, np.triu(np.ones((alg.dim, alg.dim), dtype=np.int64)).T)


def rebase(alg: FDAlgebra, g: np.ndarray) -> FDAlgebra:
    """The same algebra in the basis whose vector f_i is column i of the invertible g."""
    p, d = alg.p, alg.dim
    ginv = solve_mod(g, np.eye(d, dtype=np.int64), p)
    products = np.einsum("sa,tb,stu->abu", g, g, alg.mult) % p
    mult = np.einsum("abu,vu->abv", products, ginv) % p
    return FDAlgebra(
        alg.field, d, mult, ginv @ alg.unit % p, ginv @ alg.radical % p,
        None if alg.symmetrizing is None else g.T @ alg.symmetrizing % p,
    )


HIGMAN_CASES = [
    ((2, 2), 2, "trivial", False),
    ((2, 2), 3, "trivial", False),
    ((3,), 3, "trivial", False),
    ((2, 2, 2), 2, "trivial", False),
    ((3,), 3, "bimodule", False),
    ((4,), 2, "bimodule", False),
    ((2, 2), 3, "trivial", True),
    ((3,), 3, "bimodule", True),
]


@pytest.mark.parametrize("exponents, p, module, rebase", HIGMAN_CASES)
def test_higman_columns_match_the_cover_oracle(exponents, p, module, rebase):
    # maps W_a -> W_b down the tower, targets at shifts 0-3; a + b <= 4 skips
    # (2, 3), (3, 2) and (3, 3), whose oracle hom spaces take seconds for (2,2,2)
    alg = build_truncated_ci(exponents, p)
    if rebase:
        alg = unitriangular_rebase(alg)
        assert alg.validate().passed and alg.validate_symmetric().passed
        gram = matmul_mod(alg.mult.reshape(-1, alg.dim), alg.symmetrizing[:, None], p)
        assert not np.array_equal(alg.dual_basis(), gram.reshape(alg.dim, alg.dim))
    if module == "bimodule":
        mod = regular_bimodule(alg)
    else:
        mod = trivial_module(alg)
    tower = SyzygyTower(mod)
    for a in range(4):
        for b in range(min(4, 5 - a)):
            source, target = tower.module(a), tower.module(b)
            got = higman_projective_factor_columns(source, target)
            want = cover_projective_factor_columns(source, target)
            assert np.array_equal(got, want), (a, b)
            # the production span, in generator coordinates, spans the same maps
            gens = list(minimal_cover(source).gens)
            on_gens = _generator_columns(want.T.reshape(-1, target.dim, source.dim)[:, :, gens])
            span = projective_factor_columns(source, target)
            assert np.array_equal(col_echelon(span, p), col_echelon(on_gens, p)), (a, b)


def _base_module(case) -> FDModule:
    """The module at the bottom of the tower of a HIGMAN_CASES entry."""
    exponents, p, module, rebase = case
    alg = build_truncated_ci(exponents, p)
    if rebase:
        alg = unitriangular_rebase(alg)
    return regular_bimodule(alg) if module == "bimodule" else trivial_module(alg)


def _tower_pairs(case):
    """Maps W_a -> W_b down the tower of a HIGMAN_CASES entry, a, b <= 3 with a + b <= 4."""
    tower = SyzygyTower(_base_module(case))
    for a in range(4):
        for b in range(min(4, 5 - a)):
            yield (a, b), tower.module(a), tower.module(b)


def check_against_the_dense_oracle(source: FDModule, target: FDModule, where=None) -> None:
    """hom_space, the projective-factor span and stable_hom's representatives agree with the dense path."""
    p, gens = source.p, minimal_cover(source).gens
    dense = dense_hom_space(source, target)
    assert np.array_equal(hom_space(source, target), dense), where
    higman = higman_projective_factor_columns(source, target)
    on_gens = _generator_columns(higman.T.reshape(higman.shape[1], target.dim, source.dim)[:, :, list(gens)])
    span = projective_factor_columns(source, target)
    assert np.array_equal(col_echelon(span, p), col_echelon(on_gens, p)), where
    _, pivots = rref(np.hstack([higman, dense]), p)
    want = [dense[:, c - higman.shape[1]].tolist() for c in pivots if c >= higman.shape[1]]
    st = stable_hom(source, target)
    assert [b.reshape(-1).tolist() for b in st.basis] == want, where
    # pf_gen is a basis of the projective-factor span: its pivot columns only
    assert rank_mod(st.pf_gen, p) == st.pf_gen.shape[1], where
    assert np.array_equal(col_echelon(st.pf_gen, p), col_echelon(span, p)), where


def check_free_embedding(module: FDModule) -> None:
    """_free_embedding is an injective module map into A^r, r = dim soc, recorded as the inclusion."""
    alg = module.algebra
    emb = _free_embedding(module)
    assert module.inclusion is emb
    socle = kernel_mod(np.vstack([action_of(module, alg.radical[:, c]) for c in range(alg.radical.shape[1])]), alg.p)
    assert emb.shape == (socle.shape[1] * alg.dim, module.dim)
    assert rank_mod(emb, alg.p) == module.dim
    moved = _free_action(alg, emb)
    for s in range(alg.dim):
        assert np.array_equal(moved[s], matmul_mod(emb, module.action[s], alg.p)), s


@functools.cache
def _higman_tower(case) -> SyzygyTower:
    return SyzygyTower(_base_module(case))


# a cost ratio of 0 lists every run term by term, and 10**9 multiplies every
# run densely; up to three corrupted action entries break the module law
@settings(max_examples=200)
@given(case=hst.sampled_from(HIGMAN_CASES), a=hst.integers(-3, 3),
       terms_per_madd=hst.sampled_from([0, graded._SPARSE_TERMS_PER_MADD, 10**9]), data=hst.data())
def test_module_validate_matches_the_dense_loop_on_corrupted_tower_modules(case, a, terms_per_madd, data):
    module = _higman_tower(case).module(a)
    d, m, p = module.algebra.dim, module.dim, module.p
    action = module.action.copy()
    for _ in range(data.draw(hst.integers(0, 3)) if m else 0):
        s = data.draw(hst.integers(0, d - 1))
        x, y = data.draw(hst.integers(0, m - 1)), data.draw(hst.integers(0, m - 1))
        action[s, x, y] = data.draw(hst.integers(0, p - 1))
    check_module_validate_against_the_dense_loop(FDModule(module.algebra, m, action), terms_per_madd)


def test_module_validate_forms_no_dense_product_of_the_module_law(monkeypatch):
    # W_1 of the (2,2,2) bimodule: d = 64, m = 56; the dense loop's
    # (d*d, m*m) product alone is 12.8M cells
    mod = regular_bimodule(build_truncated_ci((2, 2, 2), 2))
    w1 = SyzygyTower(mod).module(1)
    d, m = mod.algebra.dim, w1.dim
    cells = []

    def counted(a, b, p):
        cells.append(a.shape[0] * b.shape[1])
        return matmul_mod(a, b, p)

    monkeypatch.setattr(stmod, "matmul_mod", counted)
    monkeypatch.setattr(graded, "matmul_mod", counted)
    assert w1.validate().passed
    assert max(cells, default=0) < d * d * m * m  # its unit law takes no product at all


@pytest.mark.parametrize("case", HIGMAN_CASES)
def test_free_embedding_is_an_injective_module_map(case):
    # the injective hulls of W_0 and the cosyzygies W_-1, W_-2 built from them
    tower = SyzygyTower(_base_module(case))
    for a in (0, -1, -2):
        check_free_embedding(tower.module(a))
        assert tower.module(a).validate().passed, a
    w1 = tower.module(1)
    assert _free_embedding(w1) is w1.inclusion


@pytest.mark.parametrize("case", HIGMAN_CASES)
def test_generator_coordinates_match_the_dense_oracle(case):
    for pair, source, target in _tower_pairs(case):
        check_against_the_dense_oracle(source, target, pair)


@settings(max_examples=40)
@given(
    case=hst.sampled_from([((2, 2), 2, "trivial"), ((2, 2), 3, "trivial"), ((3,), 3, "trivial"),
                           ((3,), 2, "bimodule")]),
    data=hst.data(),
)
def test_hom_space_matches_the_dense_oracle_in_random_bases(case, data):
    # the canonical vec'd basis is rebuilt from generator coordinates, so it
    # must not depend on where the basis puts each map's last nonzero entry
    exponents, p, module = case
    alg = build_truncated_ci(exponents, p)
    d = alg.dim
    below = data.draw(hst.lists(hst.integers(0, p - 1), min_size=d * d, max_size=d * d))
    alg = rebase(alg, np.tril(np.array(below, dtype=np.int64).reshape(d, d), -1) + np.eye(d, dtype=np.int64))
    if module == "bimodule":
        mod = regular_bimodule(alg)
    else:
        mod = trivial_module(alg)
    check_free_embedding(mod)
    tower = SyzygyTower(mod)
    source = tower.module(data.draw(hst.integers(0, 2), label="a"))
    target = tower.module(data.draw(hst.integers(0, 2), label="b"))
    check_against_the_dense_oracle(source, target)


def reference_omega_lift(tower: SyzygyTower, mat: np.ndarray, a: int, b: int) -> np.ndarray:
    """omega_lift of a single map W_a -> W_b: section lift, free extension, restriction."""
    alg = tower.module(0).algebra
    p, d = alg.p, alg.dim
    ca, cb = minimal_cover(tower.module(a)), minimal_cover(tower.module(b))
    iota_a, iota_b = tower.module(a + 1).inclusion, tower.module(b + 1).inclusion
    m_a, r_a = ca.pi.shape[0], len(ca.gens)
    on_gens = matmul_mod(ca.pi.reshape(m_a * r_a, d), alg.unit[:, None], p).reshape(m_a, r_a)
    lifted = matmul_mod(cb.section, matmul_mod(mat, on_gens, p), p)
    free_map = _free_action(alg, lifted).transpose(1, 2, 0).reshape(lifted.shape[0], r_a * d)
    moved = matmul_mod(free_map, iota_a, p)
    out = moved[cb.kernel_rows]
    assert np.array_equal(matmul_mod(iota_b, out, p), moved)
    return out


def check_batched_omega_lift(tower: SyzygyTower, a: int, b: int, where=None) -> None:
    """One omega_lift of the stack of all maps W_a -> W_b equals the per-map reference loop."""
    source, target = tower.module(a), tower.module(b)
    hom = hom_space(source, target)
    maps = hom.T.reshape(hom.shape[1], target.dim, source.dim)
    got = omega_lift(tower, maps, a, b)
    assert got.shape == (len(maps), tower.module(b + 1).dim, tower.module(a + 1).dim), where
    for x, single in enumerate(maps):
        want = reference_omega_lift(tower, single, a, b)
        assert np.array_equal(got[x], want), (where, x)


@pytest.mark.parametrize("case", HIGMAN_CASES)
def test_batched_omega_lift_matches_the_per_map_loop(case):
    tower = SyzygyTower(_base_module(case))
    for a in range(3):
        for b in range(3):
            check_batched_omega_lift(tower, a, b, (a, b))


def check_module_maps(maps: np.ndarray, source: FDModule, target: FDModule) -> None:
    """Every map of the stack (k, target.dim, source.dim) commutes with every basis element's action."""
    p = source.p
    for s in range(source.algebra.dim):
        left = np.einsum("ij,kjl->kil", target.action[s], maps) % p
        right = np.einsum("kij,jl->kil", maps, source.action[s]) % p
        assert np.array_equal(left, right), s


@pytest.mark.parametrize("case", HIGMAN_CASES)
def test_omega_and_its_inverse_undo_each_other_stably(case):
    # Omega^-1 Omega f and, on syzygies, Omega Omega^-1 f have f's stable class
    tower = SyzygyTower(_base_module(case))
    for a in range(3):
        for b in range(3):
            source, target = tower.module(a), tower.module(b)
            st = stable_hom(source, target)
            maps = np.concatenate([st.basis, hom_space(source, target).T.reshape(-1, target.dim, source.dim)])
            want = st.coordinates(maps)
            back = omega_inverse_lift(tower, omega_lift(tower, maps, a, b), a + 1, b + 1)
            assert np.array_equal(st.coordinates(back), want), (a, b)
            if a and b:
                down = omega_inverse_lift(tower, maps, a, b)
                check_module_maps(down, tower.module(a - 1), tower.module(b - 1))
                assert np.array_equal(st.coordinates(omega_lift(tower, down, a - 1, b - 1)), want), (a, b)


@pytest.mark.parametrize("case", HIGMAN_CASES)
def test_omega_inverse_lifts_carry_stable_bases_into_the_cosyzygies(case):
    # Omega^-1 is a stable equivalence: a basis of stable Hom(W_a, W_b) goes
    # to module maps whose classes are a basis of stable Hom(W_a-1, W_b-1),
    # down to W_-2
    tower = SyzygyTower(_base_module(case))
    for a in range(2):
        for b in range(2):
            maps = stable_hom(tower.module(a), tower.module(b)).basis
            for step in range(1, 3):
                maps = omega_inverse_lift(tower, maps, a - step + 1, b - step + 1)
                source, target = tower.module(a - step), tower.module(b - step)
                check_module_maps(maps, source, target)
                coords = stable_hom(source, target).coordinates(maps)
                assert coords.shape == (len(maps), len(maps))
                assert rank_mod(coords, source.p) == len(maps), (a, b, step)


@settings(max_examples=30)
@given(
    case=hst.sampled_from([((2, 2), 2, "trivial"), ((2, 2), 3, "trivial"), ((3,), 3, "trivial"),
                           ((3,), 2, "bimodule")]),
    data=hst.data(),
)
def test_batched_omega_lift_matches_the_per_map_loop_in_random_bases(case, data):
    exponents, p, module = case
    alg = build_truncated_ci(exponents, p)
    d = alg.dim
    below = data.draw(hst.lists(hst.integers(0, p - 1), min_size=d * d, max_size=d * d))
    alg = rebase(alg, np.tril(np.array(below, dtype=np.int64).reshape(d, d), -1) + np.eye(d, dtype=np.int64))
    mod = regular_bimodule(alg) if module == "bimodule" else trivial_module(alg)
    tower = SyzygyTower(mod)
    check_batched_omega_lift(tower, data.draw(hst.integers(0, 2), label="a"), data.draw(hst.integers(0, 2), label="b"))


def vec_coordinates(st, maps: np.ndarray) -> np.ndarray | None:
    """Stable coordinates of full maps by one solve on all n*m entries against the Higman columns."""
    n, m = st.target.dim, st.source.dim
    basis = st.basis.reshape(st.dim, n * m).T
    pf = higman_projective_factor_columns(st.source, st.target)
    sol = solve_mod(np.hstack([basis, pf]), maps.reshape(-1, n * m).T, st.source.p)
    return None if sol is None else sol[: st.dim].T.reshape(*maps.shape[:-2], st.dim)


@settings(max_examples=40)
@given(case=hst.sampled_from(HIGMAN_CASES), data=hst.data())
def test_coordinates_of_full_maps_equal_those_of_their_generator_columns(case, data):
    # random stacks of module maps: combinations of the stable basis and the
    # Higman columns; an added non-module map takes the stack out of the span
    ws = _TateWorkspace(_base_module(case))
    d, shift = data.draw(hst.integers(-2, 2), label="degree"), data.draw(hst.integers(0, 1), label="above home")
    st = ws.hom_at(d, max(0, -d) + shift)
    p, n, m = st.source.p, st.target.dim, st.source.dim
    gens = list(minimal_cover(st.source).gens)
    pf = higman_projective_factor_columns(st.source, st.target)
    spanning = np.concatenate([st.basis, pf.T.reshape(-1, n, m)])
    lead = tuple(data.draw(hst.lists(hst.integers(1, 3), min_size=0, max_size=2), label="lead"))
    count = int(np.prod(lead)) * len(spanning)
    coeffs = np.array(data.draw(hst.lists(hst.integers(0, p - 1), min_size=count, max_size=count)),
                      dtype=np.int64).reshape(*lead, len(spanning))
    maps = np.tensordot(coeffs, spanning, axes=1) % p
    want = vec_coordinates(st, maps)
    assert np.array_equal(want, coeffs[..., : st.dim])
    assert np.array_equal(st.coordinates(maps), want)
    assert np.array_equal(st.generator_coordinates(maps[..., gens]), want)
    extra = np.array(data.draw(hst.lists(hst.integers(0, p - 1), min_size=n * m, max_size=n * m)),
                     dtype=np.int64).reshape(n, m)
    hom = hom_space(st.source, st.target)
    hom_gen = _generator_columns(hom.T.reshape(-1, n, m)[:, :, gens])
    if rank_mod(np.hstack([hom_gen, _generator_columns(extra[:, gens])]), p) > rank_mod(hom_gen, p):
        bad = maps.copy()
        bad[(0,) * len(lead)] = (bad[(0,) * len(lead)] + extra) % p
        assert vec_coordinates(st, bad) is None
        with pytest.raises(ArithmeticError, match="not in the span"):
            st.coordinates(bad)
        with pytest.raises(ArithmeticError, match="not in the span"):
            st.generator_coordinates(bad[..., gens])


def test_stacked_coordinates_match_single_solves(klein_alg):
    ws = _TateWorkspace(trivial_module(klein_alg))
    st = ws.hom_at(1, 2)
    shape = (st.target.dim, st.source.dim)
    pf = higman_projective_factor_columns(st.source, st.target)
    pf_maps = [pf[:, c].reshape(shape) for c in range(pf.shape[1])]
    spanning = np.concatenate([st.basis, pf_maps])
    assert st.dim > 0 and pf_maps
    coeffs = np.random.default_rng(0).integers(0, 2, size=(2, 3, len(spanning)))
    stack = np.einsum("xyg,gab->xyab", coeffs, spanning) % 2
    got = ws.coordinates_at(1, 2, stack[..., list(minimal_cover(st.source).gens)])
    assert got.shape == (2, 3, st.dim)
    for x in range(2):
        for y in range(3):
            assert got[x, y].tolist() == st.coordinates(stack[x, y]).tolist()
            assert got[x, y].tolist() == coeffs[x, y, : st.dim].tolist()


def test_product_solve_errors_name_degree_and_shift(klein_alg):
    ws = _TateWorkspace(trivial_module(klein_alg))
    st = ws.hom_at(1, 2)
    not_a_module_map = np.zeros((1, st.target.dim, st.source.dim), dtype=np.int64)
    not_a_module_map[0, 0, 0] = 1
    values = not_a_module_map[..., list(minimal_cover(st.source).gens)]
    with pytest.raises(ArithmeticError, match="degree 1 at shift 2.*likely not self-injective"):
        ws.coordinates_at(1, 2, values)


@pytest.mark.parametrize("stage, shift", [("omega_lift", 1), ("tate_ext", 0)])
def test_stable_basis_errors_name_degree_and_shift(monkeypatch, klein_alg, stage, shift):
    def fail(*args, **kwargs):
        raise ArithmeticError("injected failure")

    monkeypatch.setattr(stmod, stage, fail)
    ws = _TateWorkspace(trivial_module(klein_alg))
    with pytest.raises(ArithmeticError) as info:
        # one map W_3 -> W_2 by its values on W_3's 4 cover generators
        ws.coordinates_at(1, 2, np.zeros((1, 5, 4), dtype=np.int64))
    # named once, at the step that failed, not again by the steps above it
    assert str(info.value) == f"stable basis in degree 1 at shift {shift}: injected failure"


@pytest.mark.parametrize("stage, shift", [("omega_inverse_lift", 2), ("tate_ext", 3)])
def test_stable_basis_errors_below_home_name_degree_and_shift(monkeypatch, klein_alg, stage, shift):
    # degree -3 at shift 1, two below its home shift 3, is two inverse lifts away
    ws = _TateWorkspace(trivial_module(klein_alg))
    values = np.zeros((1, 3, len(minimal_cover(ws.tower.module(-2)).gens)), dtype=np.int64)

    def fail(*args, **kwargs):
        raise ArithmeticError("injected failure")

    monkeypatch.setattr(stmod, stage, fail)
    with pytest.raises(ArithmeticError) as info:
        ws.coordinates_at(-3, 1, values)  # one map W_-2 -> W_1 by its values on W_-2's generators
    # named once, at the step that failed, not again by the steps below it
    assert str(info.value) == f"stable basis in degree -3 at shift {shift}: injected failure"


def test_omega_lift_errors_name_both_shifts(klein_alg):
    tower = SyzygyTower(trivial_module(klein_alg))
    not_a_module_map = np.zeros((tower.module(1).dim, tower.module(2).dim), dtype=np.int64)
    not_a_module_map[0, 0] = 1
    with pytest.raises(ArithmeticError, match="W_2 -> W_1"):
        omega_lift(tower, not_a_module_map[None], 2, 1)


def test_omega_inverse_lift_errors_name_both_shifts(klein_alg):
    tower = SyzygyTower(trivial_module(klein_alg))
    # W_-1 = A / soc A; sending its socle vector x2 to the generator of k is not A-linear
    not_a_module_map = np.zeros((tower.module(0).dim, tower.module(-1).dim), dtype=np.int64)
    not_a_module_map[0, 1] = 1
    with pytest.raises(ArithmeticError, match="omega inverse lift of W_-1 -> W_0: extended map does not restrict"):
        omega_inverse_lift(tower, not_a_module_map[None], -1, 0)


def _not_a_module(klein_alg, radical_acts):
    """A 2-dimensional Klein-four "module" u, v with x1 u = x2 u = v and x1*x2 u = radical_acts."""
    action = np.zeros((4, 2, 2), dtype=np.int64)
    action[0] = np.eye(2, dtype=np.int64)
    action[1, 1, 0] = action[2, 1, 0] = 1
    action[3] = radical_acts
    return FDModule(klein_alg, 2, action)


@pytest.mark.parametrize("radical_acts, message", [
    ([[0, 0], [1, 0]], "syzygy is not closed under the action"),  # x1*x2 u = v, not x1 x2 u = 0
    ([[1, 0], [0, 1]], "cover is not surjective"),  # x1*x2 acts invertibly, so J*M = M
])
def test_tower_errors_name_the_step(klein_alg, radical_acts, message):
    tower = SyzygyTower(_not_a_module(klein_alg, radical_acts))
    with pytest.raises(ArithmeticError, match=f"tower step W_0 -> W_1: {message}"):
        tower.module(1)


@pytest.mark.parametrize("radical_acts, message", [
    ([[0, 0], [1, 0]], "hull image is not closed under the action"),
    ([[1, 0], [0, 1]], "injective hull is not injective"),  # no vector is killed by J: no socle
])
def test_cosyzygy_errors_name_the_step(klein_alg, radical_acts, message):
    tower = SyzygyTower(_not_a_module(klein_alg, radical_acts))
    with pytest.raises(ArithmeticError, match=f"tower step W_0 -> W_-1: {message}"):
        tower.module(-1)


def test_fd_dimension_cap_is_checked_before_allocating(klein_alg):
    payload = klein_alg.to_json_dict()
    payload["dim"] = 10**9
    with pytest.raises(AlgebraFormatError, match=f"algebra has dimension 1000000000, above the cap of {FD_DIM_BOUND}"):
        fd_algebra_from_json_dict(payload)
    with pytest.raises(AlgebraFormatError, match="enveloping algebra has dimension 144"):
        build_truncated_ci((12,), 2).enveloping()
    assert build_truncated_ci((10,), 3).enveloping().dim == 100 <= FD_DIM_BOUND


def test_omega_lift_preserves_the_identity(klein_alg):
    tower = SyzygyTower(trivial_module(klein_alg))
    lifted = omega_lift(tower, np.eye(1, dtype=np.int64)[None], 0, 0)[0]
    w1 = tower.module(1)
    assert lifted.shape == (3, 3)
    st = stable_hom(w1, w1)
    assert st.coordinates(lifted).tolist() == st.coordinates(np.eye(3, dtype=np.int64)).tolist()


# -- Tate extensions ------------------------------------------------------------------


def test_tate_ext_dims_match_both_sides_of_zero(klein_alg):
    k = trivial_module(klein_alg)
    tower = SyzygyTower(k)
    dims = [tate_ext(tower, d).dim for d in range(-3, 4)]
    assert dims == [3, 2, 1, 1, 2, 3, 4]


def test_klein_ring_shape(klein_ring):
    assert [klein_ring.dim(d) for d in klein_ring.degrees()] == [3, 2, 1, 1, 2, 3, 4]
    assert klein_ring.validate().passed
    # duality shadow: dim in degree i equals dim in degree -1-i
    for i in range(-3, 3):
        assert klein_ring.dim(i) == klein_ring.dim(-1 - i)


def test_klein_ring_products_are_commutative(klein_ring):
    # char 2 makes graded commutativity literal symmetry of every block
    for i in klein_ring.degrees():
        for j in klein_ring.degrees():
            if not klein_ring.in_window(i + j):
                continue
            left = klein_ring.mult_block(i, j)
            right = klein_ring.mult_block(j, i).transpose(1, 0, 2)
            assert np.array_equal(left, right), (i, j)


def test_periodic_hypersurface_ring():
    alg = build_truncated_ci((2,), 2)
    ring = tate_ring(trivial_module(alg), (-3, 3))
    assert [ring.dim(d) for d in ring.degrees()] == [1] * 7
    assert ring.validate().passed
    # the degree-1 class is invertible: its negative powers multiply back up
    assert ring.mult_block(1, -1)[0, 0].tolist() == [1]
    assert ring.mult_block(-1, -1)[0, 0].tolist() == [1]


# sha256 of the emitted ring JSON; a refactor of the stable-hom path must
# leave the chosen bases, and so every structure constant, unchanged.
EMITTED_RING_SHA256 = [
    (((2, 2), 2), "trivial", (-3, 3), "f9b67b1091affbe6f55051cec5072006004d733d6acfc32f88b725b5d5782b52"),
    (((2, 2), 3), "trivial", (-3, 3), "2adfe575e773fe126690932cda64a8d07652ecdbbf63691ef3ef21376f2ed1df"),
    (((3,), 3), "trivial", (-4, 4), "84a0d9b5dd7a0ec6ace9b1323cefed5c37597daf251f4db7f9a6c18f4e93fc2e"),
    (((4,), 2), "bimodule", (-2, 2), "02789016eb64025aa862ca1996ed40d54fc64332164fc1d4886a866a858ae822"),
    (((2, 2, 2), 2), "trivial", (-3, 3), "d4704d7baa0afd6a82fbeb8f41e9768c386548fb5d5e50727528f6da5d3423a7"),
    (((2, 2), 2), "trivial", (-9, 9), "be85638553c9e48803a1147db9853d4421bc9cb38a323720b2f337fde134badd"),
    (((2, 2, 2), 2), "trivial", (-5, 5), "9666bea01c62f64fca52d241bb8ed7b50b87ee6683e8a4596534496fef2e9381"),
    (((8,), 2), "bimodule", (-2, 2), "9dce33042a0d33ac4193577191aea40c5e35a5aa1d67fad6dcaad6dd6e1f12ec"),
    (((6,), 3), "bimodule", (-2, 2), "15deb1e6a648297d8d6cf5a57f53b9954e0992019e40286af747724094f21407"),
    (((2, 2, 2), 2), "bimodule", (-2, 2), "fa74e4d7cc3d8d65870d49a964658e5871120fa0a099614a6729fafc2d315bc1"),
]


@functools.cache
def emitted_ring_text(algebra, module: str, window) -> str:
    alg = build_truncated_ci(*algebra)
    if module == "bimodule":
        mod = regular_bimodule(alg)
    else:
        mod = trivial_module(alg)
    return algebra_to_json(tate_ring(mod, window))


@pytest.mark.parametrize("algebra, module, window, digest", EMITTED_RING_SHA256)
def test_emitted_ring_bytes_are_pinned(algebra, module, window, digest):
    text = emitted_ring_text(algebra, module, window)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("algebra, module, window, digest", EMITTED_RING_SHA256)
@pytest.mark.parametrize("saving", [10**9, -(10**9)], ids=["today", "home"])
def test_emitted_ring_bytes_do_not_depend_on_the_product_shift(monkeypatch, algebra, module, window, digest, saving):
    # every mixed-sign block at the one-sided shift max(0, -i-j, -i), the
    # oracle, or at its degree's home shift max(0, -i-j) through cosyzygies
    monkeypatch.setattr(stmod, "HOME_SHIFT_ROW_SAVING", saving)
    text = emitted_ring_text.__wrapped__(algebra, module, window)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def signed_trivial_extension(p: int) -> WindowedGradedAlgebra:
    """The analyze-te3 ring over F_p with the basis of degree 1 negated.

    The constants of block (i, j) change sign when exactly one of i, j, i + j is
    1, so long tables such as (1, -9) hold -1, written p - 1.
    """
    ring = build_trivial_extension(3, (-9, 8), p)
    sign = {d: -1 if d == 1 else 1 for d in ring.degrees()}
    mult = {(i, j): table * (sign[i] * sign[j] * sign[i + j]) for (i, j), table in ring.mult.items()}
    return WindowedGradedAlgebra(ring.field, ring.window, ring.dims, mult, ring.unit, ring.labels)


def long_table_lengths(text: str) -> list[int]:
    """The length of each written table (up to its entry's "}") of _SHORT_ENTRY characters or more."""
    lengths = [text.index("}", m.end()) - m.end() for m in re.finditer('"table":', text)]
    return [n for n in lengths if n >= graded._SHORT_ENTRY]


def test_written_rings_load_with_long_tables_cut_out(monkeypatch):
    # cost guard: the writer's output must stay inside what algebra_from_json
    # reads straight from the text, or every load pays for reading its long
    # tables through json.loads.  Over p <= 7 every entry is one digit: no
    # load may fall back to the whole-text route (load_json), and json.loads
    # may see no table of _SHORT_ENTRY characters.  Over p = 11 the tables
    # holding a 10 send the text whole through load_json, once
    texts = [algebra_to_json(build_trivial_extension(3, (-9, 8), 2))]  # the analyze-te3 ring
    texts += [emitted_ring_text(algebra, module, window) for algebra, module, window, _ in EMITTED_RING_SHA256]
    assert all(json.loads(text)["field_char"] <= 7 for text in texts)
    two_digit = algebra_to_json(signed_trivial_extension(11))
    assert long_table_lengths(texts[0]) and long_table_lengths(two_digit)
    oracle = graded.algebra_from_json_dict(json.loads(two_digit))

    def refused(*args, **kwargs):
        raise AssertionError("load_json called on a ring file the writer produced over p <= 7")

    load_json, whole = graded.load_json, []
    loads, handed = json.loads, []

    def recorded_load_json(text):
        whole.append(text)
        return load_json(text)

    def recorded_loads(text, *args, **kwargs):
        handed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(graded, "load_json", refused)
    monkeypatch.setattr(graded.json, "loads", recorded_loads)
    for text in texts:
        assert algebra_to_json(algebra_from_json(text)) == text
    assert len(handed) == len(texts)
    assert not any(long_table_lengths(text) for text in handed)
    monkeypatch.setattr(graded, "load_json", recorded_load_json)
    assert algebra_from_json(two_digit) == oracle
    assert whole == [two_digit]


def test_written_rings_keep_long_tables_out_of_json_dumps(monkeypatch):
    # cost guard: algebra_to_json writes each long table of single digits by
    # filling its template, or every write pays for a list and a string per
    # entry, and each short one through json.dumps as a list, where filling
    # its template costs more.  The analyze-te3 ring and the Klein-four ring
    # on [-7, 7] both have tables of both kinds, and each goes the way its
    # length says: a long one reaches json.dumps only as a placeholder.  So
    # does the te3 ring with a label "\0", which json.dumps writes as a
    # placeholder's text, and labels that hold, escaped, the text each table
    # is spliced at; its tables still go in at their "table" keys only
    te3 = build_trivial_extension(3, (-9, 8), 2)
    klein = stmod.tate_ring(stmod.trivial_module(build_truncated_ci((2, 2), 2)), (-7, 7))
    labels = {d: list(names) for d, names in te3.labels.items()}
    labels[2][:4] = ["\0", "table", '"table":"\0"', '"table":"\\u0000"']
    labelled = WindowedGradedAlgebra(te3.field, te3.window, te3.dims, te3.mult, te3.unit, labels)
    dumps, dumped = json.dumps, []

    def recorded(payload, *args, **kwargs):
        dumped.append(payload)
        return dumps(payload, *args, **kwargs)

    monkeypatch.setattr(graded.util.json, "dumps", recorded)
    texts = [algebra_to_json(ring) for ring in (te3, klein, labelled)]
    assert len(dumped) == 3
    te3_tables = [entry["table"] for entry in dumped[0]["mult"]]
    assert "\0" in te3_tables
    assert all(np.size(table) < 256 for table in te3_tables if isinstance(table, list))
    for ring, payload in zip((te3, klein, labelled), dumped):
        short = [graded._digits_length(ring.mult[(entry["i"], entry["j"])].shape) < graded._SHORT_ENTRY for entry in payload["mult"]]
        assert [isinstance(entry["table"], list) for entry in payload["mult"]] == short
        assert [entry["table"] for entry in payload["mult"] if not isinstance(entry["table"], list)] == ["\0"] * short.count(False)
        assert any(short) and not all(short)
    monkeypatch.undo()
    assert texts[2] == graded.util.canonical_json(graded.algebra_to_json_dict(labelled))
    assert algebra_from_json(texts[2]) == labelled


def record_rref_shapes(monkeypatch) -> list[tuple[int, int]]:
    """Route every gtl binding of rref through a recorder of input shapes."""
    sizes = []

    def recording_rref(mat, p, pivot_cols=None):
        sizes.append(np.shape(mat))
        return rref(mat, p, pivot_cols)

    for name, module in list(sys.modules.items()):
        if name == "gtl" or name.startswith("gtl."):
            for key, value in list(vars(module).items()):
                if value is rref:
                    monkeypatch.setattr(module, key, recording_rref)
    return sizes


def test_tate_ring_eliminates_nothing_wider_than_a_syzygy_cover(monkeypatch):
    # generator coordinates and the Casimir embedding of the base module: on
    # k[x]/(x^6) bimodule the largest elimination is minimal_cover's J*W_1
    # reduction (35 radical columns by dim W_1 = 30), 1050 x 30
    sizes = record_rref_shapes(monkeypatch)
    mod = regular_bimodule(build_truncated_ci((6,), 3))
    tate_ring(mod, (-2, 2))
    assert sizes and max(r * c for r, c in sizes) <= 1050 * 30


def test_tate_ring_solves_each_system_once_and_lifts_each_basis_once(monkeypatch, klein_alg):
    # Klein four over F2 on [-7, 7]: 46 of the 169 nonzero product blocks move
    # to their degree's home shift, and the blocks share 18 (degree, shift)
    # systems of 124 rows in all; 49 lifted bases sit above their home shift
    # and 56 below it
    systems, lifts = [], []
    solve, up, down = _TateWorkspace.coordinates_at, stmod.omega_lift, stmod.omega_inverse_lift

    def counting_solve(ws, d, shift, values):
        systems.append((d, shift, ws.tower.module(shift).dim * values.shape[-1]))
        return solve(ws, d, shift, values)

    def counting(lift, direction):
        def counted(tower, mat, a, b):
            lifts.append(direction)
            return lift(tower, mat, a, b)
        return counted

    monkeypatch.setattr(_TateWorkspace, "coordinates_at", counting_solve)
    monkeypatch.setattr(stmod, "omega_lift", counting(up, "up"))
    monkeypatch.setattr(stmod, "omega_inverse_lift", counting(down, "down"))
    ring = tate_ring(trivial_module(klein_alg), (-7, 7))
    assert sum(1 for i in ring.degrees() for j in ring.degrees() if ring.in_window(i + j)) == 169
    assert len(systems) == len(set(systems)) == 18
    assert sum(rows for _, _, rows in systems) == 124
    assert (lifts.count("up"), lifts.count("down")) == (49, 56)


def test_tate_ring_never_builds_a_free_module(monkeypatch, klein_alg):
    # covers act on free-module columns block by block; the (r*d)^2 action
    # matrices of A^r, its free action on the identity, are never formed
    free_action = stmod._free_action

    def refuse_identity(alg, cols):
        if cols.shape[0] == cols.shape[1] and np.array_equal(cols, np.eye(len(cols), dtype=np.int64)):
            raise AssertionError(f"free module of rank {len(cols) // alg.dim} built")
        return free_action(alg, cols)

    monkeypatch.setattr(stmod, "_free_action", refuse_identity)
    ring = tate_ring(trivial_module(klein_alg), (-3, 3))
    assert [ring.dim(d) for d in ring.degrees()] == [3, 2, 1, 1, 2, 3, 4]
    mod = regular_bimodule(build_truncated_ci((3,), 3))
    tate_ring(mod, (-2, 2))


@pytest.mark.parametrize("which", ["trivial", "bimodule", "syzygy"])
def test_minimal_cover_makes_two_eliminations(monkeypatch, klein_alg, which):
    # one reduction finds the generators (J*M), one of [pi | I] gives the
    # kernel and the section
    if which == "bimodule":
        module = regular_bimodule(klein_alg)
    else:
        module = trivial_module(klein_alg)
        if which == "syzygy":
            module = SyzygyTower(module).module(2)
            module._cover = None
    sizes = record_rref_shapes(monkeypatch)
    cover = minimal_cover(module)
    assert len(sizes) == 2
    assert len(cover.gens) == {"trivial": 1, "bimodule": 1, "syzygy": 3}[which]


def test_tate_ring_requires_symmetrizing_form(klein_alg):
    bare = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit, klein_alg.radical
    )
    with pytest.raises(PreconditionError):
        tate_ring(trivial_module(bare), (-2, 2))


def test_tate_ring_window_must_contain_zero(klein_alg):
    with pytest.raises(ValueError):
        tate_ring(trivial_module(klein_alg), (1, 3))


def test_hh0_of_klein_four(klein_alg):
    bim = regular_bimodule(klein_alg)
    assert tate_ext(SyzygyTower(bim), 0).dim == expected_hh0_dim((2, 2), 2) == 4


# -- the independent Yoneda oracle ------------------------------------------------------


def extend_from_generators(target: FDModule, rank: int, gen_images: np.ndarray) -> np.ndarray:
    """Unique module map from a rank-r free module with the given generator images."""
    alg = target.algebra
    d, p = alg.dim, alg.p
    out = np.zeros((target.dim, rank * d), dtype=np.int64)
    for t in range(rank):
        moved = matmul_mod(target.action.reshape(d * target.dim, target.dim),
                           gen_images[:, t:t + 1], p)
        out[:, t * d:(t + 1) * d] = moved.reshape(d, target.dim).T
    return out


def yoneda_product(alg, tower, f: np.ndarray, g: np.ndarray, i: int, j: int) -> np.ndarray:
    """Compose Ext classes by chain-map lifting along boundary matrices.

    f and g are cocycles W_i -> k and W_j -> k.  g is pushed to a cocycle on
    the resolution, lifted i steps through the boundaries d_s = iota_{s-1} o
    pi_s, composed with f's cocycle, and factored back through pi_{i+j}.
    """
    p = alg.p
    pi = lambda s: minimal_cover(tower.module(s)).pi
    iota = lambda s: tower.module(s + 1).inclusion
    rank = lambda s: len(minimal_cover(tower.module(s)).gens)
    boundary = lambda s: matmul_mod(iota(s - 1), pi(s), p)

    g_hat = matmul_mod(g, pi(j), p)  # cocycle P_j -> k
    gens = free_generators(alg, rank(j))
    lifted_gens = solve_mod(pi(0), matmul_mod(g_hat, gens, p), p)
    chain = extend_from_generators(dense_free_module(alg, rank(0)), rank(j), lifted_gens)
    for s in range(1, i + 1):
        gens = free_generators(alg, rank(j + s))
        rhs = matmul_mod(chain, matmul_mod(boundary(j + s), gens, p), p)
        lifted_gens = solve_mod(boundary(s), rhs, p)
        assert lifted_gens is not None
        chain = extend_from_generators(dense_free_module(alg, rank(s)), rank(j + s), lifted_gens)
    cocycle = matmul_mod(matmul_mod(f, pi(i), p), chain, p)  # P_{i+j} -> k
    h = solve_mod(pi(i + j).T, cocycle.reshape(-1), p)
    assert h is not None
    return h.reshape(1, -1)


def test_products_agree_with_yoneda_composition(klein_alg, klein_ring):
    k = trivial_module(klein_alg)
    tower = SyzygyTower(k)
    tower.module(4)
    ext = {d: tate_ext(tower, d) for d in (1, 2, 3)}
    for i, j in ((1, 1), (1, 2), (2, 1)):
        block = klein_ring.mult_block(i, j)
        target = ext[i + j]
        for x, f in enumerate(ext[i].basis):
            for y, g in enumerate(ext[j].basis):
                h = yoneda_product(klein_alg, tower, f, g, i, j)
                assert target.coordinates(h).tolist() == block[x, y].tolist(), (i, j, x, y)

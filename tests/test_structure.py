"""Regularity, torsion, cut ideals, and the depth-1/depth-2 verifiers."""

from __future__ import annotations

import numpy as np
import pytest

from gtl.exactlin import kernel_mod, rank_mod, solve_mod
from gtl.gallery import build_trivial_extension
from gtl.graded import GradedSubspace, col_echelon
from gtl.report import FAIL, PASS, UNDERDETERMINED, CertifiedReport, PreconditionError
from gtl.structure import (
    check_orthogonality,
    check_periodicity,
    ideal_leq,
    is_regular_sequence2,
    kernel_of_power,
    regularity,
    tor_part,
    verify_depth1,
    verify_depth2,
)

from test_graded import quantum_plane


# -- regularity --------------------------------------------------------------


def test_regularity_passes_on_trivial_extension(t2):
    rep = regularity(t2, t2.element_by_label("w1"))
    assert rep.passed
    assert rep.failures() == []
    assert [e.key for e in rep.clauses["kernels"].entries] == [0, 1, 2]
    assert rep.clauses["kernels"].unchecked == [3]
    assert rep.notes == ["element degree 1"]


def test_regularity_catches_window_killed_element():
    # k[x]/(x^2) seen on [0, 2] with nothing in degree 2: x * x = 0 there
    from gtl.exactlin import PrimeField
    from gtl.graded import WindowedGradedAlgebra

    one = np.ones((1, 1, 1), dtype=np.int64)
    alg = WindowedGradedAlgebra(
        PrimeField(2),
        (0, 2),
        {0: 1, 1: 1, 2: 0},
        {(0, 0): one, (0, 1): one, (1, 0): one},
        [1],
        labels={0: ["1"], 1: ["x"], 2: []},
    )
    rep = regularity(alg, alg.element_by_label("x"))
    assert not rep.passed
    [bad] = rep.failures()
    assert bad.key == 1
    assert bad.witness["kernel_vector"] == [1]


def test_regularity_requires_central_element():
    alg = quantum_plane(2, 5)
    rep = regularity(alg, alg.element_by_label("x"))
    assert rep.clauses["kernels"].passed
    assert not rep.clauses["central"].passed
    assert not rep.passed


def test_regularity_rejects_nonpositive_degree(t2):
    with pytest.raises(ValueError):
        regularity(t2, t2.one())


# -- torsion -----------------------------------------------------------------


def test_tor_part_on_trivial_extension(t2):
    tor = tor_part(t2, t2.element_by_label("w1"))
    for d in t2.degrees():
        if d < 0:
            assert tor.full_at(d)
        elif d <= 1:
            assert tor.dim(d) == 0 and d not in tor.underdetermined
    assert tor.underdetermined == frozenset({2, 3})
    assert "full at power 2" in tor.notes[-2]
    assert "stabilised" in tor.notes[0]
    assert "window edge" in tor.notes[2]
    assert "no power checkable" in tor.notes[3]


def test_tor_part_on_invertible_class(cubic_ring):
    beta = cubic_ring.basis_element(2, 0)
    tor = tor_part(cubic_ring, beta)
    for d in range(-4, 1):
        assert tor.dim(d) == 0 and d not in tor.underdetermined
    assert tor.underdetermined == frozenset({1, 2, 3, 4})


def test_tor_part_is_closed_under_the_algebra_action(t2):
    tor = tor_part(t2, t2.element_by_label("w1"))
    for d in t2.degrees():
        cols = tor.vectors(d)
        for j in t2.degrees():
            if t2.dim(j) == 0 or not t2.in_window(d + j):
                continue
            if d + j in tor.underdetermined:
                continue  # only a lower bound there
            for c in range(cols.shape[1]):
                for idx in range(t2.dim(j)):
                    x = t2.element(d, cols[:, c])
                    b = t2.basis_element(j, idx)
                    assert tor.contains(x * b)
                    assert tor.contains(b * x)


def test_kernel_of_power(t2):
    w1 = t2.element_by_label("w1")
    assert kernel_of_power(t2, w1, -3, 1).shape[1] == 1
    assert kernel_of_power(t2, w1, -3, 2).shape[1] == 2
    assert kernel_of_power(t2, w1, -3, 3).shape[1] == 3
    assert kernel_of_power(t2, w1, 2, 2) is None  # needs degree 4


# -- cut ideals ---------------------------------------------------------------


def test_ideal_of_negative_part(t2):
    ideal = ideal_leq(t2, -1)
    for d in t2.degrees():
        assert ideal.dim(d) == (t2.dim(d) if d < 0 else 0)
    assert ideal.underdetermined == frozenset()


def test_ideal_with_nonnegative_cut_is_everything(t2, laurent):
    for alg in (t2, laurent):
        ideal = ideal_leq(alg, 0)
        assert all(ideal.full_at(d) for d in alg.degrees())
        assert ideal.underdetermined == frozenset()


def test_ideal_monotone_in_cutoff(t2):
    lower = ideal_leq(t2, -2)
    upper = ideal_leq(t2, -1)
    for d in t2.degrees():
        assert lower.dim(d) <= upper.dim(d)


def test_ideal_floods_when_a_unit_enters(laurent):
    # w^{-1} * w = 1, so the ideal of the negative part is the whole algebra
    ideal = ideal_leq(laurent, -1)
    assert all(ideal.full_at(d) for d in laurent.degrees())


def test_ideal_flags_degrees_reachable_from_outside():
    # On a short window the escape at degree -3 can re-enter at -3 + 3 = 0,
    # so the whole non-negative part is only a certified lower bound.
    narrow = build_trivial_extension(2, (-2, 3), 2)
    ideal = ideal_leq(narrow, -1)
    assert ideal.underdetermined == frozenset({0, 1, 2, 3})
    assert "outside the window" in ideal.notes[0]
    for d in range(-2, 0):
        assert ideal.full_at(d) and d not in ideal.underdetermined
    # the wider fixture window separates the escapes from the window
    wide = build_trivial_extension(2, (-4, 3), 2)
    assert ideal_leq(wide, -1).underdetermined == frozenset()


@pytest.mark.parametrize("n", [-5, -6, -9])
def test_ideal_with_cutoff_below_the_window_certifies_only_true_values(t2, n):
    # every degree <= n lies below the window, yet products of those
    # generators reach into it: degrees -4..-1 are full on a wide window
    wide = build_trivial_extension(2, (-14, 3), 2)
    got, want = ideal_leq(t2, n), ideal_leq(wide, n)
    for d in t2.degrees():
        assert d not in want.underdetermined
        if d not in got.underdetermined:
            assert got.dim(d) == want.dim(d), d


# -- periodicity ---------------------------------------------------------------


def test_periodicity_of_invertible_class(cubic_ring):
    rep = check_periodicity(cubic_ring, cubic_ring.basis_element(2, 0))
    assert rep.passed
    assert rep.unchecked == [3, 4]


def test_periodicity_fails_on_one_variable_extension():
    t1 = build_trivial_extension(1, (-3, 2), 2)
    rep = check_periodicity(t1, t1.element_by_label("w1"))
    assert not rep.passed
    assert [e.key for e in rep.entries if e.verdict == FAIL] == [-1]


# -- regular sequences ----------------------------------------------------------


def test_regular_sequence_pair_passes(t2):
    rep = is_regular_sequence2(t2, t2.element_by_label("w1"), t2.element_by_label("w2"))
    assert rep.passed
    assert rep.clauses["first"].passed
    assert rep.clauses["first_central"].passed
    assert rep.clauses["second_central"].passed
    assert rep.clauses["second"].passed


def test_repeated_element_is_not_a_regular_sequence(t2):
    w1 = t2.element_by_label("w1")
    rep = is_regular_sequence2(t2, w1, w1)
    assert not rep.passed
    second = rep.clauses["second"]
    assert not second.passed
    assert second.failures()[0].key == 0


def test_regular_sequence_rejects_nonpositive_degrees(t2):
    with pytest.raises(ValueError):
        is_regular_sequence2(t2, t2.one(), t2.element_by_label("w1"))


def reference_second_clause(alg, r, rt) -> CertifiedReport:
    """The "second" clause of is_regular_sequence2: two ranks, then one solve per preimage column."""
    dr, rvec = r.homogeneous_part()
    drt, rtvec = rt.homogeneous_part()
    p, d_max = alg.p, alg.window[1]

    def image_of_r(src):
        if not alg.in_window(src) or alg.dim(src) == 0:
            return np.zeros((alg.dim(src + dr), 0), dtype=np.int64)
        return col_echelon(alg.left_mult_matrix(dr, rvec, src), p)

    def regular_mod_first(i):
        if i + drt > d_max:
            return None
        di = alg.dim(i)
        if di == 0:
            return PASS, None
        lt = alg.left_mult_matrix(drt, rtvec, i)
        w = image_of_r(i + drt - dr)
        if w.shape[1]:
            ker = kernel_mod(np.hstack([lt, (-w) % p]), p)
            pre = col_echelon(ker[:di, :], p) if ker.shape[1] else np.zeros((di, 0), dtype=np.int64)
        else:
            pre = kernel_mod(lt, p)
        v = image_of_r(i - dr)
        if pre.shape[1] == 0 or rank_mod(np.hstack([v, pre]), p) == rank_mod(v, p):
            return PASS, None
        sol = None
        for c in range(pre.shape[1]):
            if v.shape[1] == 0:
                if np.any(pre[:, c]):
                    sol = pre[:, c]
                    break
            elif solve_mod(v, pre[:, c], p) is None:
                sol = pre[:, c]
                break
        return FAIL, {"witness_vector": sol.tolist()}

    return CertifiedReport.sweep("second_regular_mod_first", range(0, d_max + 1), regular_mod_first)


def test_regular_sequence_witnesses_match_the_solve_loop():
    # every pair of basis elements in degrees 1 and 2; most fail in some degree
    failing = 0
    for nvars, window, p in ((2, (-4, 3), 2), (3, (-3, 4), 2), (2, (-3, 4), 3)):
        alg = build_trivial_extension(nvars, window, p)
        elements = [alg.basis_element(d, k) for d in (1, 2) for k in range(alg.dim(d))]
        for r in elements:
            for rt in elements:
                got = is_regular_sequence2(alg, r, rt).clauses["second"].to_json_dict()
                assert got == reference_second_clause(alg, r, rt).to_json_dict()
                failing += not got["passed"]
    assert failing == 79


# -- depth-1 verifier -------------------------------------------------------------


def test_depth1_on_trivial_extension(t2):
    rep = verify_depth1(t2, t2.element_by_label("w1"), -1)
    assert rep.passed
    ann = rep.clauses["ideal_annihilates_torsion"]
    assert ann.passed
    assert all(e.verdict == PASS for e in ann.entries)
    assert any(key[0] == "ideal*tor" for key in (e.key for e in ann.entries))
    assert "regular_on_all_degrees" not in rep.clauses
    assert any("n < 0" in note for note in rep.notes)


def test_depth1_with_nonnegative_cut(laurent):
    rep = verify_depth1(laurent, laurent.element_by_label("w^1"), 0)
    assert rep.passed
    everywhere = rep.clauses["regular_on_all_degrees"]
    assert everywhere.passed
    assert everywhere.unchecked == [3]


def test_depth1_rejects_noncentral_element():
    alg = quantum_plane(2, 5)
    with pytest.raises(PreconditionError):
        verify_depth1(alg, alg.element_by_label("x"), 0)


# -- orthogonality ------------------------------------------------------------------


def test_orthogonality_underdetermined_without_hypothesis(t2):
    rep = check_orthogonality(t2, t2.element_by_label("w1"), -1, [1])
    flagged = {e.key for e in rep.entries if e.verdict == UNDERDETERMINED}
    assert flagged == {-3, -4}  # partners of the window-edge torsion degrees
    assert all(e.verdict == PASS for e in rep.entries if e.key not in flagged)


def test_orthogonality_sharp_under_regularity(t2):
    rep = check_orthogonality(t2, t2.element_by_label("w1"), -1, [1], assume_regular=True)
    assert rep.passed
    assert all(e.verdict == PASS for e in rep.entries)


def test_orthogonality_requires_selfdual_functional(t2):
    with pytest.raises(PreconditionError):
        check_orthogonality(t2, t2.element_by_label("w1"), -2, [1, 0])


# -- depth-2 verifier -----------------------------------------------------------------


DEPTH2_CLAUSES = {
    "torsion_is_negative_part",
    "pairing_degree_negative",
    "cut_ideal",
    "negative_part_ideal",
    "mutual_annihilation",
    "negative_square_zero",
}


def test_depth2_on_trivial_extension(t2):
    rep = verify_depth2(
        t2, t2.element_by_label("w1"), t2.element_by_label("w2"), -1, [1]
    )
    assert rep.passed
    assert DEPTH2_CLAUSES | {"dims_match_across_pairing", "orthogonality"} == set(rep.clauses)
    for name, clause in rep.clauses.items():
        assert clause.passed, name


def test_depth2_on_klein_ring(klein_ring):
    r = klein_ring.element(2, [1, 0, 0])
    rt = klein_ring.element(2, [0, 0, 1])
    rep = verify_depth2(klein_ring, r, rt, -1, [1])
    assert rep.passed
    assert rep.clauses["negative_square_zero"].passed


def test_depth2_without_functional_skips_duality_clauses(t2):
    rep = verify_depth2(t2, t2.element_by_label("w1"), t2.element_by_label("w2"), -1)
    assert rep.passed
    assert "orthogonality" not in rep.clauses
    assert any("no functional" in note for note in rep.notes)


def test_depth2_rejects_broken_sequence(t2):
    w1 = t2.element_by_label("w1")
    with pytest.raises(PreconditionError):
        verify_depth2(t2, w1, w1, -1, [1])


def test_depth2_clauses_fail_in_the_periodic_regime(cubic_ring):
    # k[x]/(x^3) over F_3: the degree-2 class is invertible, so (beta, beta)
    # is vacuously a regular sequence and the pairing is perfect, but the
    # negative part is not torsion and does not square to zero.
    beta = cubic_ring.basis_element(2, 0)
    rep = verify_depth2(cubic_ring, beta, beta, -1, [1])
    assert not rep.passed
    assert not rep.clauses["torsion_is_negative_part"].passed
    assert not rep.clauses["negative_square_zero"].passed
    square = rep.clauses["negative_square_zero"]
    failing = {e.key for e in square.entries if e.verdict == FAIL}
    assert (-2, -2) in failing
    assert (-1, -1) not in failing  # odd negative classes do square to zero


def test_depth2_flags_positive_pairing_degree(laurent):
    w = laurent.element_by_label("w^1")
    rep = verify_depth2(laurent, w, w, 0)
    assert not rep.passed
    assert not rep.clauses["pairing_degree_negative"].passed

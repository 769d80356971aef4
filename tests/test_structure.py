"""Regularity, torsion, cut ideals, and the depth-1/depth-2 verifiers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtl import structure
from gtl.exactlin import PrimeField, kernel_mod, matmul_mod, rank_mod, solve_mod
from gtl.gallery import build_laurent, build_trivial_extension, build_truncated_ci
from gtl.graded import GradedElement, GradedSubspace, WindowedGradedAlgebra, col_echelon
from gtl.report import FAIL, PASS, UNDERDETERMINED, CertifiedReport, PreconditionError
from gtl.stmod import tate_ring, trivial_module
from gtl.structure import (
    _detour_taint,
    _ideal_sweep,
    _tensor_zero_sweep,
    _tor_under_regularity,
    check_orthogonality,
    check_periodicity,
    ideal_leq,
    is_regular_sequence2,
    regularity,
    tor_part,
    verify_depth1,
    verify_depth2,
)

from test_graded import quantum_plane, reference_products


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


def test_regularity_of_zero_fails_with_a_kernel_witness(t2):
    # a zero element keeps its degree, and kills every degree it acts on
    rep = regularity(t2, GradedElement(t2, 1, [0, 0]))
    assert not rep.passed and rep.clauses["central"].passed
    kernels = rep.clauses["kernels"]
    assert [e.key for e in kernels.failures()] == [0, 1, 2]
    assert kernels.failures()[0].witness == {"kernel_vector": [1]}


def test_regularity_rejects_nonpositive_degree(t2):
    with pytest.raises(ValueError):
        regularity(t2, GradedElement(t2, 0, t2.unit))


# -- torsion -----------------------------------------------------------------


def test_tor_part_on_trivial_extension(t2):
    tor = tor_part(t2, t2.element_by_label("w1"))
    for d in t2.degrees():
        if d < 0:
            assert tor.dim(d) == t2.dim(d)
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
                    x = GradedElement(t2, d, cols[:, c])
                    b = t2.basis_element(j, idx)
                    assert tor.contains_vector(d + j, t2.multiply(x, b).vector)
                    assert tor.contains_vector(d + j, t2.multiply(b, x).vector)


def kernel_of_power(alg, r, d, k):
    """Kernel of r^k on A^d, or None when the window cannot express r^k there:
    r^k multiplied out from the identity, one power at a time."""
    dr, vec = r.degree, r.vector
    mat = np.eye(alg.dim(d), dtype=np.int64)
    for kk in range(1, k + 1):
        if d + kk * dr > alg.window[1]:
            return None
        mat = matmul_mod(reference_products(alg, dr, vec[:, None], d + (kk - 1) * dr, None)[:, 0], mat, alg.p)
    return kernel_mod(mat, alg.p)


def product_ring(a, b):
    """The componentwise product A x B of two graded rings on one window."""
    dims = {d: a.dim(d) + b.dim(d) for d in a.degrees()}
    mult = {}
    for i in a.degrees():
        for j in a.degrees():
            if not a.in_window(i + j):
                continue
            block = np.zeros((dims[i], dims[j], dims[i + j]), dtype=np.int64)
            block[: a.dim(i), : a.dim(j), : a.dim(i + j)] = a.mult_block(i, j)
            block[a.dim(i):, a.dim(j):, a.dim(i + j):] = b.mult_block(i, j)
            mult[(i, j)] = block
    return WindowedGradedAlgebra(PrimeField(a.p), a.window, dims, mult, np.concatenate([a.unit, b.unit]))


def test_kernel_of_power(t2):
    w1 = t2.element_by_label("w1")
    assert kernel_of_power(t2, w1, -3, 1).shape[1] == 1
    assert kernel_of_power(t2, w1, -3, 2).shape[1] == 2
    assert kernel_of_power(t2, w1, -3, 3).shape[1] == 3
    assert kernel_of_power(t2, w1, 2, 2) is None  # needs degree 4


def test_regularity_sharpens_flags_to_the_kernel_of_power_k0():
    # Laurent x trivial extension with r = (w^2, w1^2): the Laurent half keeps
    # every negative degree from filling, so degrees -1 and -3 reach the
    # window's edge at power k0 = ceil(-d/2) with a kernel that is neither 0 nor full
    te = build_trivial_extension(2, (-4, 2), 2)
    alg = product_ring(build_laurent(2, (-4, 2)), te)
    w1 = te.element_by_label("w1")
    r = GradedElement(alg, 2, np.concatenate([[1], te.multiply(w1, w1).vector]))
    assert regularity(alg, r).passed
    tor = tor_part(alg, r)
    sharp = _tor_under_regularity(alg, r, tor)
    assert not sharp.underdetermined
    unflagged = sorted(d for d in tor.underdetermined if d < 0)
    assert unflagged == [-3, -1]
    for d in unflagged:
        k0 = -(d // 2)
        want = GradedSubspace(alg, {d: kernel_of_power(alg, r, d, k0)})
        assert want.dim(d) not in (0, alg.dim(d))
        assert np.array_equal(sharp.vectors(d), want.vectors(d))
        assert sharp.notes[d] == f"exact at power {k0} under the regularity hypothesis"
    for alg, r in ((build_laurent(3, (-5, 3)), "w^3"), (build_laurent(3, (-5, 2)), "w^2")):
        r = alg.element_by_label(r)
        tor = tor_part(alg, r)
        sharp = _tor_under_regularity(alg, r, tor)
        dr = r.degree
        assert not sharp.underdetermined and min(tor.underdetermined) < 0
        for d in tor.underdetermined:
            want = np.zeros((1, 0), dtype=np.int64) if d >= 0 else kernel_of_power(alg, r, d, -(d // dr))
            assert np.array_equal(sharp.vectors(d), col_echelon(want, alg.p))


# -- cut ideals ---------------------------------------------------------------


def test_ideal_of_negative_part(t2):
    ideal = ideal_leq(t2, -1)
    for d in t2.degrees():
        assert ideal.dim(d) == (t2.dim(d) if d < 0 else 0)
    assert ideal.underdetermined == frozenset()


def test_ideal_with_nonnegative_cut_is_everything(t2, laurent):
    for alg in (t2, laurent):
        ideal = ideal_leq(alg, 0)
        assert all(ideal.dim(d) == alg.dim(d) for d in alg.degrees())
        assert ideal.underdetermined == frozenset()


def test_ideal_monotone_in_cutoff(t2):
    lower = ideal_leq(t2, -2)
    upper = ideal_leq(t2, -1)
    for d in t2.degrees():
        assert lower.dim(d) <= upper.dim(d)


def test_ideal_floods_when_a_unit_enters(laurent):
    # w^{-1} * w = 1, so the ideal of the negative part is the whole algebra
    ideal = ideal_leq(laurent, -1)
    assert all(ideal.dim(d) == laurent.dim(d) for d in laurent.degrees())


def test_ideal_flags_degrees_reachable_from_outside():
    # On a short window the escape at degree -3 can re-enter at -3 + 3 = 0,
    # so the whole non-negative part is only a certified lower bound.
    narrow = build_trivial_extension(2, (-2, 3), 2)
    ideal = ideal_leq(narrow, -1)
    assert ideal.underdetermined == frozenset({0, 1, 2, 3})
    assert "outside the window" in ideal.notes[0]
    for d in range(-2, 0):
        assert ideal.dim(d) == narrow.dim(d) and d not in ideal.underdetermined
    # the wider fixture window separates the escapes from the window
    wide = build_trivial_extension(2, (-4, 3), 2)
    assert ideal_leq(wide, -1).underdetermined == frozenset()


def reference_detour_taint(alg, n, span, escapes, step_degrees):
    """The taint search with two "deep" states for everything past the band."""
    d_min, d_max = alg.window
    width = d_max - d_min + 1
    band_lo, band_hi = d_min - width, d_max + width

    def full(d: int) -> bool:
        return span[d].shape[1] == alg.dim(d)

    tainted: set[int] = set()
    deep_low, deep_high = True, False
    work: list[int] = []

    def seed(d: int):
        nonlocal deep_low, deep_high
        if alg.in_window(d):
            if not full(d) and d not in tainted:
                tainted.add(d)
                work.append(d)
        elif band_lo <= d <= band_hi:
            if d not in tainted:
                tainted.add(d)
                work.append(d)
        elif d < band_lo:
            deep_low = True
        else:
            deep_high = True

    for d in escapes:
        seed(d)
    if n > d_max:
        for d in range(d_max + 1, min(n, band_hi) + 1):
            seed(d)
        if n > band_hi:
            deep_high = True

    while work or deep_low or deep_high:
        if deep_low:
            deep_low = False
            for d in range(band_lo, d_min):
                seed(d)
            continue
        if deep_high:
            deep_high = False
            for d in range(d_max + 1, band_hi + 1):
                seed(d)
            continue
        d = work.pop()
        for j in step_degrees:
            seed(d + j)

    flags = {d for d in tainted if alg.in_window(d) and not full(d)}
    notes = {d: "value could grow via products outside the window" for d in flags}
    return flags, notes


class _Window:
    """What the taint search reads of an algebra: its window and dimensions."""

    def __init__(self, window, dims):
        self.window, self.dims = window, dims

    def dim(self, d):
        return self.dims[d]

    def in_window(self, d):
        return self.window[0] <= d <= self.window[1]


@st.composite
def taint_inputs(draw):
    lo = draw(st.integers(-6, 2))
    hi = draw(st.integers(max(lo, -2), 6))
    width = hi - lo + 1
    degrees = range(lo, hi + 1)
    dims = {d: draw(st.integers(0, 2)) for d in degrees}
    span = {d: np.zeros((dims[d], draw(st.integers(0, dims[d]))), dtype=np.int64) for d in degrees}
    outside = st.integers(lo - 3 * width, hi + 3 * width).filter(lambda d: not lo <= d <= hi)
    escapes = draw(st.sets(outside, max_size=6))
    n = draw(st.integers(lo - 3 * width, hi + 3 * width))
    return _Window((lo, hi), dims), n, span, escapes, [d for d in degrees if dims[d]]


@settings(max_examples=200)
@given(taint_inputs())
def test_taint_search_matches_the_deep_state_search(case):
    assert _detour_taint(*case) == reference_detour_taint(*case)


def reference_ideal_leq(alg, n) -> GradedSubspace:
    """The cut ideal by a rescan fixpoint: every pass multiplies every nonzero
    span by every step degree, until a pass grows no span."""
    span = {
        d: np.eye(alg.dim(d), dtype=np.int64) if d <= n else np.zeros((alg.dim(d), 0), dtype=np.int64)
        for d in alg.degrees()
    }
    step_degrees = [j for j in alg.degrees() if alg.dim(j) > 0]
    escapes: set[int] = set()
    changed = True
    while changed:
        changed = False
        for d in alg.degrees():
            cols = span[d]
            if cols.shape[1] == 0:
                continue
            for j in step_degrees:
                if not alg.in_window(d + j):
                    escapes.add(d + j)
                    continue
                target = d + j
                if span[target].shape[1] == alg.dim(target):
                    continue
                width = alg.dim(j) * cols.shape[1]
                left = reference_products(alg, j, None, d, cols).reshape(alg.dim(target), width)
                right = reference_products(alg, d, cols, j, None).reshape(alg.dim(target), width)
                new_cols = np.hstack([span[target], left, right])
                merged = col_echelon(new_cols, alg.p)
                if merged.shape[1] > span[target].shape[1]:
                    span[target] = merged
                    changed = True
    flags, notes = _detour_taint(alg, n, span, escapes, step_degrees)
    return GradedSubspace(alg, span, underdetermined=frozenset(flags), notes=notes)


def assert_same_subspace(got: GradedSubspace, want: GradedSubspace):
    alg = want.algebra
    for d in alg.degrees():
        assert np.array_equal(got.vectors(d), want.vectors(d)), d
    assert got.underdetermined == want.underdetermined
    assert got.notes == want.notes


@st.composite
def ideal_inputs(draw):
    """On a random window: a trivial extension (1-3 variables), a Laurent line or
    their product over F_2, F_3 or F_5, or the Klein-four Tate ring; and a cut
    from below the window to above it."""
    p = draw(st.sampled_from([2, 3, 5]))
    window = (draw(st.integers(-5, 0)), draw(st.integers(0, 4)))
    kind = draw(st.sampled_from(["trivial extension", "laurent", "product", "klein four"]))
    if kind == "trivial extension":
        alg = build_trivial_extension(draw(st.integers(1, 3)), window, p)
    elif kind == "laurent":
        alg = build_laurent(p, window)
    elif kind == "product":
        alg = product_ring(build_laurent(p, window), build_trivial_extension(draw(st.integers(1, 2)), window, p))
    else:
        alg = tate_ring(trivial_module(build_truncated_ci((2, 2), 2)), window)
    width = window[1] - window[0] + 1
    return alg, draw(st.integers(window[0] - width - 1, window[1] + width + 1))


@settings(max_examples=80)
@given(ideal_inputs())
def test_worklist_ideal_matches_the_rescan_fixpoint(case):
    alg, n = case
    assert_same_subspace(ideal_leq(alg, n), reference_ideal_leq(alg, n))


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


def test_periodicity_of_a_negative_degree_element():
    # w^-1 is a unit: its image degree i - 1 leaves the window only at the
    # bottom degree, which goes unchecked
    alg = build_laurent(3, (-4, 4))
    rep = check_periodicity(alg, alg.element_by_label("w^-1"))
    assert rep.passed
    assert rep.unchecked == [-4]


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
        is_regular_sequence2(t2, GradedElement(t2, 0, t2.unit), t2.element_by_label("w1"))


def reference_second_clause(alg, r, rt) -> CertifiedReport:
    """The "second" clause of is_regular_sequence2: two ranks, then one solve per preimage column."""
    dr, rvec = r.degree, r.vector
    drt, rtvec = rt.degree, rt.vector
    p, d_max = alg.p, alg.window[1]

    def image_of_r(src):
        if src < 0 or not alg.in_window(src) or alg.dim(src) == 0:
            return np.zeros((alg.dim(src + dr), 0), dtype=np.int64)
        return col_echelon(reference_products(alg, dr, rvec[:, None], src, None)[:, 0], p)

    def regular_mod_first(i):
        if i + drt > d_max:
            return None
        di = alg.dim(i)
        if di == 0:
            return PASS, None
        lt = reference_products(alg, drt, rtvec[:, None], i, None)[:, 0]
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


def test_depth1_fails_when_the_cut_ideal_holds_the_unit(t2):
    # n = 5 lies above the window, so the cut ideal is all of t2, unit
    # included, and the unit does not annihilate the torsion (the negative
    # part); the first key pairs it with d:w2^3 in degree -4
    rep = verify_depth1(t2, t2.element_by_label("w1"), 5)
    ann = rep.clauses["ideal_annihilates_torsion"]
    assert not rep.passed and not ann.passed
    first = ann.failures()[0]
    assert (first.key, first.witness) == (("ideal*tor", 0, -4), {"left_index": 0, "right_index": 0})


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
    # verify_depth2 certifies (w1, w2) first, then sweeps its sharpened torsion part
    rep = verify_depth2(
        t2, t2.element_by_label("w1"), t2.element_by_label("w2"), -1, [1]
    ).clauses["orthogonality"]
    assert rep.passed
    assert all(e.verdict == PASS for e in rep.entries)


def test_orthogonality_fails_for_a_nilpotent_element(cubic_ring):
    # k[x]/(x^3) over F_3: the degree-1 class squares to zero, so its torsion
    # is every degree, and so is the cut ideal, which holds the invertible
    # class of degree -2; the ideal cannot be the complement of the torsion
    a = cubic_ring.basis_element(1, 0)
    rep = check_orthogonality(cubic_ring, a, -1, [1])
    witness = {"dim_ideal": 1, "dim_tor_partner": 1, "dim_partner": 1, "perp_matches": False}
    assert [(e.key, e.verdict, e.witness) for e in rep.entries] == [(i, FAIL, witness) for i in range(-4, 4)]
    assert rep.unchecked == [4]


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
    r = GradedElement(klein_ring, 2, [1, 0, 0])
    rt = GradedElement(klein_ring, 2, [0, 0, 1])
    rep = verify_depth2(klein_ring, r, rt, -1, [1])
    assert rep.passed
    assert rep.clauses["negative_square_zero"].passed


def test_depth2_walks_the_torsion_once(monkeypatch):
    te3 = build_trivial_extension(3, (-9, 8), 2)
    calls = []

    def counted(alg, r):
        calls.append(r)
        return tor_part(alg, r)

    monkeypatch.setattr(structure, "tor_part", counted)
    rep = verify_depth2(te3, te3.element_by_label("w1"), te3.element_by_label("w2"), -1, [1])
    assert rep.passed and "orthogonality" in rep.clauses
    assert len(calls) == 1


def test_depth2_without_functional_skips_duality_clauses(t2):
    rep = verify_depth2(t2, t2.element_by_label("w1"), t2.element_by_label("w2"), -1)
    assert rep.passed
    assert "orthogonality" not in rep.clauses
    assert any("no functional" in note for note in rep.notes)


def test_depth2_skips_the_duality_clauses_off_degree_minus_one(t2):
    # t2 with every negative degree d moved to d - 1.  Each stored block with a
    # negative factor lands in a negative degree and none has two, so every
    # block keeps its table; the dual part now pairs into degree -2, and
    # degree -1 is empty
    def shift(d):
        return d - 1 if d < 0 else d

    ring = WindowedGradedAlgebra(
        t2.field, (-5, 3), {shift(d): t2.dim(d) for d in t2.degrees()},
        {(shift(i), shift(j)): block for (i, j), block in t2.mult.items()}, t2.unit,
        labels={shift(d): list(names) for d, names in t2.labels.items()},
    )
    assert ring.dim(-1) == 0 and ring.validate().passed
    rep = verify_depth2(ring, ring.element_by_label("w1"), ring.element_by_label("w2"), -2, [1])
    assert rep.passed
    assert rep.notes == ["duality clause only applies when n = -1; skipped"]
    assert "orthogonality" not in rep.clauses and "dims_match_across_pairing" not in rep.clauses


def test_depth2_rejects_degenerate_products(t2):
    # (w1, w2) is a regular sequence, but the degree-0 products are degenerate
    # (A^1 pairs with A^-1 into A^0 = k only through zero products), and so are
    # those into degree -2; the message names the first degree that fails
    w1, w2 = t2.element_by_label("w1"), t2.element_by_label("w2")
    with pytest.raises(PreconditionError, match="products into degree 0 are degenerate at degree -3"):
        verify_depth2(t2, w1, w2, 0)
    with pytest.raises(PreconditionError, match="products into degree -2 are degenerate at degree -1"):
        verify_depth2(t2, w1, w2, -2)


def test_ideal_sweep_names_a_product_leaving_the_span(laurent):
    # the negative part of the Laurent line is no ideal: w^-3 w^3 = 1
    rep = _ideal_sweep(laurent, lambda d: d < 0, "negative_part_ideal")
    assert not rep.passed
    first = rep.failures()[0]
    assert (first.key, first.witness) == ((-3, 3), {"side": "right", "indices": (0, 0, 0)})
    assert {e.key for e in rep.failures()} == {(i, j) for i in (-3, -2, -1) for j in range(-i, 4)}


def test_depth2_rejects_broken_sequence(t2):
    w1 = t2.element_by_label("w1")
    with pytest.raises(PreconditionError):
        verify_depth2(t2, w1, w1, -1, [1])


def test_depth2_clauses_fail_in_the_periodic_regime(cubic_ring):
    # k[x]/(x^3) over F_3: the degree-2 class beta is invertible, so it is
    # regular, but beta does not act regularly on the non-negative quotient
    # k[beta]/(beta), so (beta, beta) is no regular sequence
    beta = cubic_ring.basis_element(2, 0)
    second = is_regular_sequence2(cubic_ring, beta, beta).clauses["second"]
    assert not second.passed and second.failures()[0].key == 0
    with pytest.raises(PreconditionError):
        verify_depth2(cubic_ring, beta, beta, -1, [1])
    # and the negative part does not square to zero
    neg = [d for d in cubic_ring.degrees() if d < 0]
    square = _tensor_zero_sweep(cubic_ring, neg, neg, "negative_square_zero")
    failing = {e.key for e in square.entries if e.verdict == FAIL}
    assert (-2, -2) in failing
    assert (-1, -1) not in failing  # odd negative classes do square to zero


def test_depth2_flags_positive_pairing_degree(laurent):
    # the Laurent line would have pairing degree 0, but it has no regular
    # sequence of length two: w is invertible, so regular, yet w does not act
    # regularly on k[w]/(w), so (w, w) fails the precondition
    w = laurent.element_by_label("w^1")
    second = is_regular_sequence2(laurent, w, w).clauses["second"]
    assert not second.passed and second.failures()[0].key == 0
    with pytest.raises(PreconditionError):
        verify_depth2(laurent, w, w, 0)

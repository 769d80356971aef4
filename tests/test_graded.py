"""Windowed graded algebras: laws, elements, subspaces, serialization."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtl import graded
from gtl.exactlin import PrimeField, matmul_mod, solve_mod
from gtl.gallery import build_laurent, build_trivial_extension, build_truncated_ci
from gtl.graded import (
    DIM_BOUND,
    AlgebraFormatError,
    GradedElement,
    GradedSubspace,
    OutOfWindowError,
    WindowedGradedAlgebra,
    algebra_from_json,
    algebra_from_json_dict,
    algebra_to_json,
    algebra_to_json_dict,
    col_echelon,
)
from gtl.report import FAIL, OUT_OF_WINDOW, PASS, CertifiedReport
from gtl.stmod import regular_bimodule, tate_ring, trivial_module
from gtl.util import canonical_json


def quantum_plane(q: int, p: int) -> WindowedGradedAlgebra:
    """k<x,y>/(yx - q xy) truncated to degrees 0..2: noncommutative for q != 1."""
    field = PrimeField(p)
    dims = {0: 1, 1: 2, 2: 3}
    mult = {
        (0, 0): np.ones((1, 1, 1), dtype=np.int64),
        (0, 1): np.eye(2, dtype=np.int64).reshape(1, 2, 2),
        (1, 0): np.eye(2, dtype=np.int64).reshape(2, 1, 2),
        (0, 2): np.eye(3, dtype=np.int64).reshape(1, 3, 3),
        (2, 0): np.eye(3, dtype=np.int64).reshape(3, 1, 3),
        (1, 1): np.array(
            [[[1, 0, 0], [0, 1, 0]], [[0, q, 0], [0, 0, 1]]], dtype=np.int64
        ),
    }
    labels = {0: ["1"], 1: ["x", "y"], 2: ["x^2", "x*y", "y^2"]}
    return WindowedGradedAlgebra(field, (0, 2), dims, mult, [1], labels)


def test_validate_passes_on_gallery_algebras(laurent, t2):
    for alg in (laurent, t2, quantum_plane(2, 5)):
        rep = alg.validate()
        assert rep.passed and not rep.failures()


def test_validate_reports_associativity_witness():
    # corrupt the Laurent line: (w * w) * w != w * (w * w)
    field = PrimeField(5)
    dims = {d: 1 for d in range(0, 4)}
    mult = {
        (i, j): np.ones((1, 1, 1), dtype=np.int64)
        for i in range(4)
        for j in range(4)
        if i + j <= 3
    }
    mult[(1, 2)] = np.full((1, 1, 1), 2, dtype=np.int64)
    alg = WindowedGradedAlgebra(field, (0, 3), dims, mult, [1])
    rep = alg.validate()
    assert not rep.passed
    bad = rep.failures()[0]
    assert bad.witness["law"] == "associativity"
    assert bad.witness["triple"] == (1, 1, 1)


def test_validate_reports_unit_witness():
    field = PrimeField(5)
    alg = WindowedGradedAlgebra(
        field,
        (0, 1),
        {0: 1, 1: 1},
        {(0, 0): np.ones((1, 1, 1), dtype=np.int64),
         (0, 1): np.ones((1, 1, 1), dtype=np.int64),
         (1, 0): np.ones((1, 1, 1), dtype=np.int64)},
        [2],
    )
    rep = alg.validate()
    assert not rep.passed
    assert rep.failures()[0].witness["law"] == "unit"


def dense_assoc_defect(alg, i, j, k):
    """Reference: both sides of (ab)c = a(bc) built densely from zero-filled blocks."""
    t_ij = alg.mult_block(i, j)
    t_ij_k = alg.mult_block(i + j, k)
    t_jk = alg.mult_block(j, k)
    t_i_jk = alg.mult_block(i, j + k)
    da, db, dx = t_ij.shape
    dc, dy = t_ij_k.shape[1], t_ij_k.shape[2]
    if 0 in (da, db, dc, dy):
        return None
    lhs = matmul_mod(t_ij.reshape(da * db, dx), t_ij_k.reshape(dx, dc * dy), alg.p)
    lhs = lhs.reshape(da, db, dc, dy)
    dz = t_jk.shape[2]
    rhs_flat = matmul_mod(
        t_jk.reshape(db * dc, dz),
        t_i_jk.transpose(1, 0, 2).reshape(dz, da * dy),
        alg.p,
    )
    rhs = rhs_flat.reshape(db, dc, da, dy).transpose(2, 0, 1, 3)
    diff = (lhs - rhs) % alg.p
    if not np.any(diff):
        return None
    a, b, c, _ = np.unravel_index(int(np.flatnonzero(diff)[0]), diff.shape)
    return (int(a), int(b), int(c))


def dense_validate(alg) -> CertifiedReport:
    """Reference for validate(): unit laws, then every in-window triple densely, in (j, k) order."""
    rep = CertifiedReport(check="validate")
    for i in alg.degrees():
        rep.add(i, *_dense_degree_verdict(alg, i))
    return rep


def _dense_degree_verdict(alg, i):
    di = alg.dims[i]
    if di == 0:
        return PASS, None
    eye = np.eye(di, dtype=np.int64)
    # Column b of the left (right) unit matrix is 1 * e_b (e_b * 1).
    for side, block, spec in (("left", alg.mult_block(0, i), "a,abc->cb"),
                              ("right", alg.mult_block(i, 0), "b,abc->ca")):
        mat = np.einsum(spec, alg.unit, block) % alg.p
        if not np.array_equal(mat, eye):
            col = int(np.flatnonzero((mat - eye) % alg.p)[0] % di)
            return FAIL, {"law": "unit", "side": side, "degree": i, "index": col}
    for j in alg.degrees():
        for k in alg.degrees():
            if alg.in_window(i + j) and alg.in_window(j + k) and alg.in_window(i + j + k):
                bad = dense_assoc_defect(alg, i, j, k)
                if bad is not None:
                    return FAIL, {"law": "associativity", "triple": (i, j, k), "indices": bad}
    return PASS, None


@st.composite
def sparse_windowed_algebras(draw, primes=(2, 3, 5, 11)):
    """Small windowed algebras whose blocks are randomly present or absent.

    Degree 0 is the field; every other degree is either in V or in W.  The
    base product sends V x V into W and kills everything else, so it is
    associative whichever of its blocks are dropped.  On top of it, ``extra``
    adds W x V blocks (defects where only (ab)c is nonzero), V x W blocks
    (only a(bc) nonzero) or arbitrary blocks, and ``bad_unit`` spoils a unit
    block.
    """
    # p = 11 writes two-digit entries, which the JSON reader decodes apart
    p = draw(st.sampled_from(primes))
    lo, hi = draw(st.integers(-3, 0)), draw(st.integers(0, 3))
    degrees = range(lo, hi + 1)
    dims = {d: 1 if d == 0 else draw(st.integers(0, 2)) for d in degrees}
    w_degrees = {d for d in degrees if d != 0 and draw(st.booleans())}
    extra = draw(st.sampled_from(["none", "left-only", "right-only", "any"]))
    bad_unit = draw(st.integers(0, 4)) == 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def random_block(i, j):
        return rng.integers(0, p, size=(dims[i], dims[j], dims[i + j]))

    mult = {}
    for d in degrees:
        mult[(0, d)] = np.eye(dims[d], dtype=np.int64).reshape(1, dims[d], dims[d])
        mult[(d, 0)] = np.eye(dims[d], dtype=np.int64).reshape(dims[d], 1, dims[d])
    for i in degrees:
        for j in degrees:
            if 0 in (i, j) or not lo <= i + j <= hi or rng.random() < 0.5:
                continue
            if (
                (i not in w_degrees and j not in w_degrees and i + j in w_degrees)
                or (extra == "left-only" and i in w_degrees and j not in w_degrees)
                or (extra == "right-only" and i not in w_degrees and j in w_degrees)
                or extra == "any"
            ):
                mult[(i, j)] = random_block(i, j)
    if bad_unit:
        d = draw(st.sampled_from(list(degrees)))
        key = draw(st.sampled_from([(0, d), (d, 0)]))
        if draw(st.booleans()):
            del mult[key]
        else:
            mult[key] = random_block(*key)
    return WindowedGradedAlgebra(PrimeField(p), (lo, hi), dims, mult, [1])


def unitriangular_rebase(alg: WindowedGradedAlgebra, rng) -> WindowedGradedAlgebra:
    """The same ring in the basis f_a = e_a + sum_{s > a} g[s, a] e_s of each degree, g random.

    A unitriangular change of basis fills in structurally zero constants.
    """
    p, change, inverse = alg.p, {}, {}
    for d in alg.degrees():
        n = alg.dims[d]
        change[d] = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        inverse[d] = solve_mod(change[d], np.eye(n, dtype=np.int64), p)
    mult = {
        (i, j): np.einsum("sa,tb,stu,vu->abv", change[i], change[j], block, inverse[i + j]) % p
        for (i, j), block in alg.mult.items()
    }
    return WindowedGradedAlgebra(alg.field, alg.window, alg.dims, mult, inverse[0] @ alg.unit % p)


def check_validate_against_the_oracle(alg, run_terms=graded._RUN_TERMS, terms_per_madd=graded._SPARSE_TERMS_PER_MADD):
    """validate() equals dense_validate() with the given run budget and sparse/dense cost ratio."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded, "_RUN_TERMS", run_terms)
        patch.setattr(graded, "_SPARSE_TERMS_PER_MADD", terms_per_madd)
        assert alg.validate().to_json_dict() == dense_validate(alg).to_json_dict()


# a run budget of 1 to 16 terms splits runs inside a degree; a cost ratio of
# 0 lists every run term by term, and 10**9 multiplies every run densely
@settings(max_examples=300)
@given(
    alg=sparse_windowed_algebras(),
    rebase_seed=st.none() | st.integers(0, 2**32 - 1),
    run_terms=st.sampled_from([1, 3, 16, graded._RUN_TERMS]),
    terms_per_madd=st.sampled_from([0, graded._SPARSE_TERMS_PER_MADD, 10**9]),
)
def test_validate_matches_the_dense_oracle(alg, rebase_seed, run_terms, terms_per_madd):
    if rebase_seed is not None:
        alg = unitriangular_rebase(alg, np.random.default_rng(rebase_seed))
    check_validate_against_the_oracle(alg, run_terms, terms_per_madd)


def test_validate_matches_the_dense_oracle_on_gallery_rings(t2, laurent, klein_ring, cubic_ring):
    broken = dict(t2.mult)
    broken[(-2, 1)] = (broken[(-2, 1)] + 1) % 2  # functionals no longer divided by w1, w2
    rings = [t2, laurent, klein_ring, cubic_ring, quantum_plane(2, 5), quantum_plane(1, 5),
             build_trivial_extension(1, (-3, 3), 3),
             WindowedGradedAlgebra(t2.field, t2.window, t2.dims, broken, t2.unit)]
    for ring in rings:
        assert ring.validate().to_json_dict() == dense_validate(ring).to_json_dict()
    assert not rings[-1].validate().passed


@pytest.fixture(scope="module")
def hh6_ring():
    """The stable Hochschild ring of k[x]/(x^6) over F_3 on [-2, 2]."""
    return tate_ring(regular_bimodule(build_truncated_ci((6,), 3)), (-2, 2))


@pytest.mark.parametrize("seed", range(8))
def test_validate_matches_the_dense_oracle_on_corrupted_tate_rings(klein_ring_7, hh6_ring, seed):
    # up to three entries of present or absent blocks changed; odd seeds split
    # the runs inside degrees, and seeds 4 and 5 rebase
    rng = np.random.default_rng(seed)
    for ring in (klein_ring_7, hh6_ring):
        if seed in (4, 5):
            ring = unitriangular_rebase(ring, rng)
        mult = {key: block.copy() for key, block in ring.mult.items()}
        keys = [(i, j) for i in ring.degrees() for j in ring.degrees()
                if ring.in_window(i + j) and ring.dims[i] and ring.dims[j] and ring.dims[i + j]]
        for _ in range(rng.integers(1, 4)):
            i, j = keys[rng.integers(len(keys))]
            block = mult.setdefault((i, j), np.zeros((ring.dims[i], ring.dims[j], ring.dims[i + j]), dtype=np.int64))
            block[tuple(rng.integers(0, n) for n in block.shape)] = rng.integers(0, ring.p)
        broken = WindowedGradedAlgebra(ring.field, ring.window, ring.dims, mult, ring.unit)
        check_validate_against_the_oracle(broken, run_terms=64 if seed % 2 else graded._RUN_TERMS)


def test_validate_multiplies_only_for_the_unit_laws(monkeypatch, klein_ring_7):
    """Cost guard: associativity is certified term by term, so validate multiplies
    matrices only for the two unit laws of each nonzero degree."""
    calls = []
    monkeypatch.setattr(graded, "matmul_mod", lambda a, b, p: calls.append(1) or matmul_mod(a, b, p))
    for ring in (build_trivial_extension(3, (-9, 8), 2), klein_ring_7):
        calls.clear()
        assert ring.validate().passed
        assert len(calls) == 2 * sum(1 for d in ring.degrees() if ring.dims[d])


def same_element(a, b) -> bool:
    return a.algebra is b.algebra and a.degree == b.degree and np.array_equal(a.vector, b.vector)


def test_multiply_and_window_overflow(laurent):
    w = laurent.element_by_label("w^1")
    w2 = laurent.multiply(w, w)
    assert same_element(w2, laurent.element_by_label("w^2"))
    with pytest.raises(OutOfWindowError) as exc:
        laurent.multiply(w2, w2)
    assert exc.value.degrees == (2, 2)


def test_out_of_window_product_raises_even_for_zero_vectors(laurent):
    # the window hides degree 4, so even 0 * 0 there is not known to vanish
    zero = laurent.element(2, [0])
    for a, b in ((zero, zero), (zero, laurent.element_by_label("w^2"))):
        with pytest.raises(OutOfWindowError) as exc:
            laurent.multiply(a, b)
        assert exc.value.degrees == (2, 2)


def test_vanishing_product_keeps_its_degree(t2):
    dual = t2.element_by_label("d:w1")
    prod = t2.multiply(dual, dual)
    assert prod.degree == -4 and prod.vector.tolist() == [0, 0, 0, 0]
    zero = t2.multiply(t2.element(1, [0, 0]), t2.element_by_label("w2"))
    assert zero.degree == 2 and not zero.vector.any()


def test_one_is_neutral(laurent, t2):
    for alg in (laurent, t2):
        one = alg.one()
        for d in alg.degrees():
            for idx in range(alg.dim(d)):
                b = alg.basis_element(d, idx)
                assert same_element(alg.multiply(one, b), b)
                assert same_element(alg.multiply(b, one), b)


def test_element_holds_one_reduced_vector_in_one_degree(t2):
    x = GradedElement(t2, 1, [3, -1])
    assert x.degree == 1 and x.vector.tolist() == [1, 1]  # char 2
    assert same_element(x, t2.element(1, [1, 1]))
    with pytest.raises(ValueError, match="degree 1 expects 2 coefficients"):
        GradedElement(t2, 1, [1, 0, 1])
    with pytest.raises(ValueError, match="outside window"):
        GradedElement(t2, 4, [1])


def test_element_validation_errors(laurent, t2):
    with pytest.raises(ValueError):
        laurent.element(1, [1, 2])  # wrong length
    with pytest.raises(ValueError):
        laurent.basis_element(1, 3)
    with pytest.raises(ValueError, match="no basis element 'nope'"):
        t2.element_by_label("nope")
    w = laurent.element_by_label("w^1")
    v = t2.element_by_label("w1")
    with pytest.raises(ValueError, match="different algebra"):
        t2.multiply(w, v)


def test_element_by_label_takes_a_label_or_a_position(t2):
    assert same_element(t2.element_by_label("1:1"), t2.element_by_label("w1"))
    assert same_element(t2.element_by_label("-1:0"), t2.element_by_label("d:1"))
    with pytest.raises(ValueError, match="outside window"):
        t2.element_by_label("9:0")


def test_is_central_flags_noncommutative_pair():
    alg = quantum_plane(2, 5)
    x = alg.element_by_label("x")
    verdicts = {e.key: e.verdict for e in alg.is_central(x).entries}
    assert verdicts[0] == PASS
    assert verdicts[1] == FAIL
    assert verdicts[2] == OUT_OF_WINDOW
    # q = 1 is the commutative specialization
    commutative = quantum_plane(1, 5)
    rep = commutative.is_central(commutative.element_by_label("x"))
    assert {e.key: e.verdict for e in rep.entries}[1] == PASS


def test_is_central_on_laurent(laurent):
    w = laurent.element_by_label("w^1")
    rep = laurent.is_central(w)
    assert all(e.verdict == PASS for e in rep.entries if e.key != 3)
    assert {e.key: e.verdict for e in rep.entries}[3] == OUT_OF_WINDOW


def reference_products(alg, i, u, j, w) -> np.ndarray:
    """The oracle for ``alg.products``: one einsum on mult_block, None standing for an identity.

    int64 is exact here while p**3 * dim i * dim j stays below 2**63, as on every test ring.
    """
    u = np.eye(alg.dim(i), dtype=np.int64) if u is None else u
    w = np.eye(alg.dim(j), dtype=np.int64) if w is None else w
    return np.einsum("abc,ax,by->cxy", alg.mult_block(i, j), u, w) % alg.p


def w_cubed() -> WindowedGradedAlgebra:
    """k[w]/(w^3) with |w| = 2 over F_3 on [-1, 4]: dimension 1 at degrees 0, 2 and 4, and 0 elsewhere."""
    one = np.ones((1, 1, 1), dtype=np.int64)
    mult = {(i, j): one for i in (0, 2, 4) for j in (0, 2, 4) if i + j <= 4}
    labels = {0: ["1"], 2: ["w"], 4: ["w^2"]}
    return WindowedGradedAlgebra(PrimeField(3), (-1, 4), {0: 1, 2: 1, 4: 1}, mult, [1], labels)


def test_left_right_mult_matrices_match_products(t2):
    """The matrices of x -> a*x and x -> x*b (None on one side of products) and
    multiply all agree with the einsum reference."""
    rng = np.random.default_rng(7)
    for i, j in [(1, 1), (1, -2), (-2, 1), (0, -3), (2, -4)]:
        vi = rng.integers(0, t2.p, size=t2.dim(i))
        vj = rng.integers(0, t2.p, size=t2.dim(j))
        want = reference_products(t2, i, vi[:, None], j, vj[:, None])[:, 0, 0].tolist()
        via_left = matmul_mod(t2.products(i, vi[:, None], j, None)[:, 0], vj[:, None], t2.p)
        via_right = matmul_mod(t2.products(i, None, j, vj[:, None])[:, :, 0], vi[:, None], t2.p)
        assert via_left[:, 0].tolist() == want
        assert via_right[:, 0].tolist() == want
        assert t2.multiply(t2.element(i, vi), t2.element(j, vj)).vector.tolist() == want


@st.composite
def product_arguments(draw, rings):
    """A ring, degrees (i, j) with i + j in its window, and for each side None or
    a matrix of zero to three columns."""
    ring = draw(st.sampled_from(rings))
    i = draw(st.sampled_from(list(ring.degrees())))
    j = draw(st.sampled_from([j for j in ring.degrees() if ring.in_window(i + j)]))

    def columns(d):
        cols = draw(st.none() | st.lists(st.lists(st.integers(0, ring.p - 1), min_size=ring.dim(d),
                                                  max_size=ring.dim(d)), max_size=3))
        return None if cols is None else np.array(cols, dtype=np.int64).reshape(len(cols), ring.dim(d)).T

    return ring, i, columns(i), j, columns(j)


@pytest.fixture(scope="module")
def product_rings(t2, klein_ring):
    return [t2, build_trivial_extension(1, (-4, 3), 3), klein_ring, w_cubed()]


@settings(max_examples=300)
@given(data=st.data())
def test_products_match_the_einsum_reference(product_rings, data):
    ring, i, u, j, w = data.draw(product_arguments(product_rings))
    got = ring.products(i, u, j, w)
    want = reference_products(ring, i, u, j, w)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_zero_dimensional_degrees_are_harmless():
    field = PrimeField(3)
    dims = {0: 1, 1: 0, 2: 1}
    mult = {
        (0, 0): np.ones((1, 1, 1), dtype=np.int64),
        (0, 2): np.ones((1, 1, 1), dtype=np.int64),
        (2, 0): np.ones((1, 1, 1), dtype=np.int64),
    }
    alg = WindowedGradedAlgebra(field, (0, 2), dims, mult, [1])
    assert alg.validate().passed
    assert alg.mult_block(1, 1).shape == (0, 0, 1)
    assert alg.dim(1) == 0


def test_multiply_by_an_element_of_an_empty_degree():
    ring = w_cubed()
    empty, w = ring.element(1, []), ring.element_by_label("w")
    for a, b, degree in ((empty, w, 3), (w, empty, 3), (ring.element(-1, []), w, 1), (empty, empty, 2)):
        product = ring.multiply(a, b)
        assert product.degree == degree
        assert product.vector.shape == (ring.dim(degree),) and not product.vector.any()
    assert ring.multiply(w, w).vector.tolist() == [1]
    assert ring.products(1, None, 2, None).shape == (0, 0, 1)
    assert ring.products(2, np.zeros((1, 0), dtype=np.int64), 2, None).shape == (1, 0, 1)


def test_subspace_canonical_form_and_membership(t2):
    p = t2.p
    a = GradedSubspace(t2, {1: np.array([[1, 1], [1, 0]])})
    b = GradedSubspace(t2, {1: np.array([[0, 1], [1, 1]])})
    assert np.array_equal(a.vectors(1), b.vectors(1))
    assert np.array_equal(a.vectors(1), col_echelon(np.array([[1, 1], [1, 0]]) % p, p))
    assert a.dim(1) == t2.dim(1)
    assert a.dim(0) == 0
    assert a.contains_vector(1, np.array([1, 1]))
    assert a.contains_vector(1, t2.element_by_label("w1").vector)
    small = GradedSubspace(t2, {1: np.array([[1], [0]])})
    assert not small.contains_vector(1, np.array([0, 1]))
    assert small.contains_vector(1, np.zeros(2, dtype=np.int64))
    assert not np.array_equal(small.vectors(1), a.vectors(1))


def test_subspace_rejects_a_basis_of_the_wrong_height(t2):
    with pytest.raises(ValueError, match="degree 1 basis must be 2 x k"):
        GradedSubspace(t2, {1: np.zeros((3, 1), dtype=np.int64)})


def test_an_empty_degree_contains_only_zero(t2):
    empty = GradedSubspace(t2, {})
    assert not empty.contains_vector(1, np.array([1, 0]))
    assert empty.contains_vector(1, np.zeros(2, dtype=np.int64))


def test_subspaces_compare_by_identity(t2):
    # the same subspace from two bases: a field-wise == would compare the
    # basis dicts of arrays and raise "truth value ... is ambiguous"
    a = GradedSubspace(t2, {1: [[1, 1], [1, 0]]})
    b = GradedSubspace(t2, {1: [[0, 1], [1, 1]]})
    assert (a == b) is False and (a == a) is True
    assert len({a, b}) == 2


def test_json_round_trip_is_canonical(t2, laurent):
    for alg in (t2, laurent):
        text = algebra_to_json(alg)
        back = algebra_from_json(text)
        assert back == alg
        assert algebra_to_json(back) == text


def test_json_rejects_malformed_payloads(t2):
    good = algebra_to_json_dict(t2)

    missing = dict(good)
    del missing["unit"]
    with pytest.raises(AlgebraFormatError):
        algebra_from_json_dict(missing)

    bad_char = dict(good, field_char=4)
    with pytest.raises(AlgebraFormatError):
        algebra_from_json_dict(bad_char)

    bad_window = dict(good, window=[2, 5])
    with pytest.raises(AlgebraFormatError):
        algebra_from_json_dict(bad_window)

    dup = dict(good, mult=good["mult"] + [good["mult"][0]])
    with pytest.raises(AlgebraFormatError):
        algebra_from_json_dict(dup)

    short_table = dict(good, mult=[dict(good["mult"][0], table=[[[0]]])])
    with pytest.raises(AlgebraFormatError):
        algebra_from_json_dict(short_table)

    bad_labels = dict(good, labels={"0": ["a", "b"]})
    with pytest.raises(AlgebraFormatError):
        algebra_from_json_dict(bad_labels)

    for labels in (["a"], {"x": ["a"]}):
        with pytest.raises(AlgebraFormatError):
            algebra_from_json_dict(dict(good, labels=labels))
    for labels in ({"0": 5}, {"0": [[1, 2]]}, {"0": [1]}):
        with pytest.raises(AlgebraFormatError, match="labels for degree 0 must be a list of strings"):
            algebra_from_json_dict(dict(good, labels=labels))

    huge_entry = dict(good, mult=[dict(good["mult"][0], table=[[[2**70]]])])
    with pytest.raises(AlgebraFormatError, match="malformed mult entry"):
        algebra_from_json_dict(huge_entry)
    float_table = json.loads(json.dumps(good["mult"][0]["table"]))
    float_table[0][0][0] = float(float_table[0][0][0])
    rest = good["mult"][1:]
    for broken in (
        dict(good, unit=[2**70]), dict(good, dims=[1]), dict(good, mult=7),
        dict(good, field_char=2.0), dict(good, window=[-4.0, 3]), dict(good, unit=[True]),
        dict(good, dims=dict(good["dims"], **{"0": True})),
        dict(good, dims=dict(good["dims"], **{"0": 1.0})),
        dict(good, mult=[dict(good["mult"][0], table=float_table)] + rest),
        dict(good, mult=[dict(good["mult"][0], i=float(good["mult"][0]["i"]))] + rest),
    ):
        with pytest.raises(AlgebraFormatError):
            algebra_from_json_dict(broken)

    with pytest.raises(AlgebraFormatError):
        algebra_from_json("{not json")


def oracle_from_json(text: str):
    """The reference reader: json.loads, then the payload parser."""
    return algebra_from_json_dict(graded.load_json(text))


def read_outcome(read, text: str):
    """The ring ``read`` builds from ``text``, or the message of its AlgebraFormatError."""
    try:
        return read(text)
    except AlgebraFormatError as exc:
        return str(exc)


def assert_reads_like_the_oracle(text: str, short_entry: int = graded._SHORT_ENTRY) -> None:
    """algebra_from_json gives the oracle's ring or message; with short_entry 0
    every mult entry is walked and every table read straight from the text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded, "_SHORT_ENTRY", short_entry)
        got = read_outcome(algebra_from_json, text)
    want = read_outcome(oracle_from_json, text)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got == want
    for ring in (got, want):
        assert ring.unit.dtype == np.int64
        assert all(table.dtype == np.int64 for table in ring.mult.values())


_SMALL_RINGS = [
    build_trivial_extension(2, (-2, 2), 2),
    build_trivial_extension(1, (-3, 2), 3),
    build_laurent(5, (-2, 2)),
    quantum_plane(2, 5),
    tate_ring(trivial_module(build_truncated_ci((2,), 2)), (-2, 2)),
]
# written as -0, which json.loads reads as 0
_NEGATIVE_ZERO = "negative zero"
_SPECIAL_ENTRIES = [
    _NEGATIVE_ZERO, 2**63 - 1, -(2**63 - 1), 10**18, -(10**18), 10**18 - 1, -(10**18 - 1),
    1234567890123456789, 2**63, 10, -10, -1,
]


@st.composite
def relaid_ring_texts(draw):
    """Gallery and small random rings, rewritten in a varied JSON layout.

    Keys are shuffled, indentation and the space around separators vary,
    some table entries become -0, 18- or 19-digit numbers or numbers beyond
    int64, and mult may be emptied.
    """
    ring = draw(st.sampled_from(_SMALL_RINGS) | sparse_windowed_algebras())
    payload = algebra_to_json_dict(ring)
    if draw(st.integers(0, 9)) == 0:
        payload["mult"] = []
    rows = [row for entry in payload["mult"] for plane in entry["table"] for row in plane]
    cells = [(row, k) for row in rows for k in range(len(row))]
    for _ in range(draw(st.integers(0, 2)) if cells else 0):
        row, k = draw(st.sampled_from(cells))
        row[k] = draw(st.sampled_from(_SPECIAL_ENTRIES))

    def shuffled(obj: dict) -> dict:
        return {key: obj[key] for key in draw(st.permutations(list(obj)))}

    payload = shuffled(dict(payload, mult=[shuffled(entry) for entry in payload["mult"]]))
    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " : "), (",\r\n", ":\n")]))
    text = json.dumps(payload, indent=indent, separators=separators)
    return draw(st.sampled_from(["", " ", "\n"])) + text.replace(f'"{_NEGATIVE_ZERO}"', "-0")


TABLE_EDIT_CHARS = "[]0123456789-,.+eE \t\n\r\""


@st.composite
def edited_text(draw, text: str, spans: list[tuple[int, int]], alphabet: str) -> str:
    """``text`` with 1-3 characters inserted, deleted or replaced inside one of ``spans``."""
    lo, hi = draw(st.sampled_from(spans))
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(lo, hi))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            chars.insert(at, draw(st.sampled_from(alphabet)))
            hi += 1
        elif at < hi and edit == "delete":
            del chars[at]
            hi -= 1
        elif at < hi:
            chars[at] = draw(st.sampled_from(alphabet))
    return "".join(chars)


def table_spans(text: str) -> list[tuple[int, int]]:
    """Where the canonical writer put each mult table (its last key, so up to the "}")."""
    return [(m.end(), text.index("}", m.end())) for m in re.finditer(r'"table":', text)]


def _with_tables(text: str):
    spans = table_spans(text)
    return st.just(text) if not spans else edited_text(text, spans, TABLE_EDIT_CHARS)


def _degree_zero_ring(table: str, keys: str = '"i":0,"j":0,', dim: int = 2) -> str:
    """A degree-0 ring of dimension ``dim`` whose one mult entry is ``keys`` and ``table``."""
    unit = json.dumps([1] + [0] * (dim - 1))
    return (
        '{"dims":{"0":' + str(dim) + '},"field_char":3,"mult":[{' + keys + '"table":' + table + "}],"
        '"unit":' + unit + ',"window":[0,0]}'
    )


@settings(max_examples=300)
@given(relaid_ring_texts(), st.sampled_from([0, graded._SHORT_ENTRY]))
def test_json_reader_matches_the_oracle_on_relaid_rings(text, short_entry):
    assert_reads_like_the_oracle(text, short_entry)


@settings(max_examples=600)
@given((st.sampled_from(_SMALL_RINGS) | sparse_windowed_algebras()).map(algebra_to_json).flatmap(_with_tables))
# texts that an earlier or a weakened direct reader misread
@example(_degree_zero_ring("[[[-1,]0,[0,1]],[[0,1],[1,0]]]"))  # a number moved across a bracket
@example(_degree_zero_ring("[[[,00],[0,1]],[[0,1],[1,0]]]"))  # an empty slot paid for by a leading zero
@example(_degree_zero_ring("[[[1,0],0[,1]],[[0,1],[1,0]]]"))  # a number moved in front of a bracket
@example(_degree_zero_ring("[[[01,0],[0,1]],[[0,1],[1,0]]]"))  # a leading zero
@example(_degree_zero_ring("[[[1 0,0],[0,1]],[[0,1],[1,0]]]"))  # a number split by a space
@example(_degree_zero_ring("[[[1,0],[0,1]],[[0,1]],[[1],[0]]]"))  # ragged, with as many numbers as slots
@example(_degree_zero_ring("[[[1,0],[0,1]],[[0,1],[1,0]]]", keys='"j":0,'))  # an entry without "i"
# texts the single-digit decoder must decline, or read as the oracle does
@example(_degree_zero_ring("[[[10,],[0,1]],[[0,1],[1,0]]]"))  # a two-digit entry beside an empty slot
@example(_degree_zero_ring("[[[1,0],[0,-1]],[[0,1],[1,0]]]"))  # a negative entry
@example(_degree_zero_ring("[[[1,0],[0,1]]1,[[0,1],[1,0]]]"))  # a digit just outside a bracket
@example(_degree_zero_ring("[[[1,0],[0,1]],[[0,1],1[1,0]]]"))  # a digit just before a bracket
@example(_degree_zero_ring("[ [[1, 0],[0,1]],\n\t[[0 ,1],[1,0] ] ]"))  # whitespace between single digits
@example(_degree_zero_ring("[[[1]]]", dim=1))  # a 1x1x1 table
@example(_degree_zero_ring("[[[7]]]", dim=1))  # a single digit above p
@example(_degree_zero_ring("[1,0,0,1,0,1,1,0]"))  # depth 1
@example(_degree_zero_ring("[[1,0,0,1],[0,1,1,0]]"))  # depth 2
@example(_degree_zero_ring("[[[]]]", dim=1))  # an empty innermost array
@example(_degree_zero_ring("[[[1,0],[0,1]],[[d,1],[1,0]]]"))  # a letter in a digit's slot
# texts with an entry of two or more digits, which the reader must decline to json.loads
@example(_degree_zero_ring("[[[1,0],[0,10]],[[0,1],[1,0]]]"))  # a two-digit entry among single digits
@example(_degree_zero_ring("[[[1,0],[0,01]],[[0,1],[1,0]]]"))  # a leading zero in a later slot
@example(_degree_zero_ring("[[[1,0],[0,00]],[[0,1],[1,0]]]"))  # 00 in a later slot
@example(_degree_zero_ring("[[[1,0],[0,9999999999999999999]],[[0,1],[1,0]]]"))  # a run of 19 digits, beyond int64
@example(_degree_zero_ring("[[[1,0],[0,1]]10,[[0,1],[1,0]]]"))  # a two-digit number just outside a bracket
def test_json_reader_matches_the_oracle_on_edited_tables(text):
    assert_reads_like_the_oracle(text, short_entry=0)


@st.composite
def relabelled(draw, ring: WindowedGradedAlgebra) -> WindowedGradedAlgebra:
    """``ring`` without labels, or with labels that hold quotes, backslashes and
    non-ASCII characters, and in some rings one that starts with NUL."""
    if draw(st.booleans()):
        return WindowedGradedAlgebra(ring.field, ring.window, ring.dims, ring.mult, ring.unit)
    name = st.text(st.sampled_from('w1"\\\u00e9\u2202\U0001d400'), max_size=4)
    labels = {d: [draw(name) for _ in range(ring.dims[d])] for d in ring.degrees()}
    named = [names for names in labels.values() if names]
    if draw(st.booleans()):
        names = draw(st.sampled_from(named))
        names[0] = "\0" + names[0]
    return WindowedGradedAlgebra(ring.field, ring.window, ring.dims, ring.mult, ring.unit, labels)


# p = 11 and 13 write two-digit entries, which keep their tables on the json.dumps route
@settings(max_examples=300)
@given(
    (st.sampled_from(_SMALL_RINGS) | sparse_windowed_algebras(primes=(2, 3, 5, 7, 11, 13))).flatmap(relabelled),
    st.sampled_from([0, graded._SHORT_ENTRY]),
)
# a table whose largest entry is 10, the first that is not one digit
@example(WindowedGradedAlgebra(PrimeField(11), (0, 1), {0: 1, 1: 2}, {(0, 1): np.full((1, 2, 2), 10)}, [1]), 0)
def test_json_writer_matches_the_oracle(ring, short_entry):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded, "_SHORT_ENTRY", short_entry)
        assert algebra_to_json(ring) == canonical_json(algebra_to_json_dict(ring))


_TABLE = "[[[1,0],[0,1]],[[0,1],[1,0]]]"
# texts where a cut-out table's placeholder could come back out of place
_PLACEHOLDER_EDGE_TEXTS = {
    "a label holding NUL": _degree_zero_ring(_TABLE).replace('"window"', '"labels":{"0":["a\\u0000","b"]},"window"'),
    "a top-level table key": '{"table":' + _TABLE + "," + _degree_zero_ring(_TABLE)[1:],
    "two table keys in one entry": _degree_zero_ring(_TABLE, keys='"i":0,"j":0,"table":' + _TABLE.replace("0", "2") + ","),
    "an entry without i": _degree_zero_ring(_TABLE, keys='"j":0,'),
    "a string table spelled like a placeholder": _degree_zero_ring('"\\u00000"'),
    "a table key nested inside i": _degree_zero_ring(_TABLE, keys='"i":{"table":' + _TABLE + '},"j":0,'),
    # the error message shows the entry, and so what stands in its nested table
    "a table key nested in a last entry without one": _degree_zero_ring(_TABLE).replace(
        "}],", '},{"j":0,"x":{"table":' + _TABLE + "}}],"
    ),
}


@pytest.mark.parametrize("text", _PLACEHOLDER_EDGE_TEXTS.values(), ids=_PLACEHOLDER_EDGE_TEXTS.keys())
@pytest.mark.parametrize("short_entry", [0, graded._SHORT_ENTRY])
def test_json_reader_matches_the_oracle_where_placeholders_could_stray(text, short_entry):
    assert_reads_like_the_oracle(text, short_entry)


def test_json_reader_declines_to_the_oracle_error_messages():
    deep = _degree_zero_ring("[" * 200_000 + "]" * 200_000)
    for text in (deep, "[" * 200_000 + "]" * 200_000, _degree_zero_ring("[[[" + "1" * 5000 + "]]]")):
        assert_reads_like_the_oracle(text, short_entry=0)
    with pytest.raises(AlgebraFormatError, match="invalid JSON: maximum recursion depth exceeded"):
        algebra_from_json(deep)
    with pytest.raises(AlgebraFormatError, match=r"invalid JSON: Exceeds the limit \(4300 digits\)") as info:
        algebra_from_json(_degree_zero_ring("[[[" + "1" * 5000 + "]]]"))
    assert "set_int_max_str_digits" not in str(info.value)


def test_json_caps_window_and_degree_dimensions():
    ring = {"field_char": 2, "window": [0, 1], "dims": {"0": 1}, "unit": [1], "mult": []}
    assert algebra_from_json_dict(dict(ring, dims={"0": 1, "1": DIM_BOUND})).dims[1] == DIM_BOUND
    with pytest.raises(AlgebraFormatError, match=f"degree 1 has dimension {DIM_BOUND + 1}"):
        algebra_from_json_dict(dict(ring, dims={"0": 1, "1": DIM_BOUND + 1}))
    assert algebra_from_json_dict(dict(ring, window=[-32, 32])).window == (-32, 32)
    with pytest.raises(AlgebraFormatError, match="stay within"):
        algebra_from_json_dict(dict(ring, window=[-33, 0]))


def test_constructor_rejects_window_without_zero():
    with pytest.raises(AlgebraFormatError):
        WindowedGradedAlgebra(PrimeField(2), (1, 3), {1: 1}, {}, [])


def test_algebra_equality(t2):
    clone = algebra_from_json(algebra_to_json(t2))
    assert clone == t2
    assert t2 != quantum_plane(2, 5)


def test_algebra_is_unequal_to_a_non_algebra(t2):
    assert t2 != 5


def test_mult_block_rejects_a_product_leaving_the_window(t2):
    # degrees 3 and 3 lie in [-4, 3]; their product's degree 6 does not
    with pytest.raises(ValueError, match=r"product degrees \(3, 3\) not fully inside window"):
        t2.mult_block(3, 3)

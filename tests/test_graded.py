"""Windowed graded algebras: laws, elements, subspaces, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from gtl.exactlin import PrimeField, matmul_mod
from gtl.graded import (
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
from gtl.report import FAIL, OUT_OF_WINDOW, PASS


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


def test_multiply_and_window_overflow(laurent):
    w = laurent.element_by_label("w^1")
    w2 = w * w
    assert w2 == laurent.element_by_label("w^2")
    with pytest.raises(OutOfWindowError) as exc:
        laurent.multiply(w2, w2)
    assert exc.value.degrees == (2, 2)
    assert laurent.multiply(laurent.zero(), w2).is_zero()


def test_one_is_neutral(laurent, t2):
    for alg in (laurent, t2):
        one = alg.one()
        for d in alg.degrees():
            for idx in range(alg.dim(d)):
                b = alg.basis_element(d, idx)
                assert one * b == b
                assert b * one == b


def test_element_arithmetic_and_shift(t2):
    a = t2.element_by_label("w1")
    b = t2.element_by_label("w2")
    s = a + b
    assert s.component(1).tolist() == [1, 1]
    assert (s - a) == b
    assert (1 * a) == a and (2 * a).is_zero()  # char 2
    mixed = a + t2.one()
    assert mixed.occupied_degrees() == [0, 1]
    with pytest.raises(ValueError):
        mixed.homogeneous_part()
    shifted = a.shift(-2)
    assert shifted.occupied_degrees() == [-1]
    assert shifted.component(-1) is a.component(1)


def test_element_validation_errors(laurent, t2):
    with pytest.raises(ValueError):
        laurent.element(1, [1, 2])  # wrong length
    with pytest.raises(ValueError):
        laurent.basis_element(1, 3)
    with pytest.raises(ValueError):
        t2.element_by_label("nope")
    w = laurent.element_by_label("w^1")
    v = t2.element_by_label("w1")
    with pytest.raises(ValueError):
        w + v  # type: ignore[operator]


def test_is_central_flags_noncommutative_pair():
    alg = quantum_plane(2, 5)
    x = alg.element_by_label("x")
    rep = alg.is_central(x)
    assert rep.verdict_for(0) == PASS
    assert rep.verdict_for(1) == FAIL
    assert rep.verdict_for(2) == OUT_OF_WINDOW
    # q = 1 is the commutative specialization
    commutative = quantum_plane(1, 5)
    assert commutative.is_central(commutative.element_by_label("x")).verdict_for(1) == PASS


def test_is_central_on_laurent(laurent):
    w = laurent.element_by_label("w^1")
    rep = laurent.is_central(w)
    assert all(e.verdict == PASS for e in rep.entries if e.key != 3)
    assert rep.verdict_for(3) == OUT_OF_WINDOW


def test_left_right_mult_matrices_match_products(t2):
    rng = np.random.default_rng(7)
    for i, j in [(1, 1), (1, -2), (-2, 1), (0, -3), (2, -4)]:
        vi = rng.integers(0, t2.p, size=t2.dim(i))
        vj = rng.integers(0, t2.p, size=t2.dim(j))
        via_tensor = t2.product_vector(i, vi, j, vj)
        via_left = matmul_mod(t2.left_mult_matrix(i, vi, j), vj.reshape(-1, 1), t2.p)
        via_right = matmul_mod(t2.right_mult_matrix(j, vj, i), vi.reshape(-1, 1), t2.p)
        assert via_tensor.tolist() == via_left.reshape(-1).tolist()
        assert via_tensor.tolist() == via_right.reshape(-1).tolist()


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


def test_subspace_canonical_form_and_membership(t2):
    p = t2.p
    a = GradedSubspace(t2, {1: np.array([[1, 1], [1, 0]])})
    b = GradedSubspace(t2, {1: np.array([[0, 1], [1, 1]])})
    assert a.equals(b)
    assert np.array_equal(a.vectors(1), col_echelon(np.array([[1, 1], [1, 0]]) % p, p))
    assert a.full_at(1)
    assert a.dim(0) == 0
    assert a.contains_vector(1, np.array([1, 1]))
    assert a.contains(t2.element_by_label("w1"))
    small = GradedSubspace(t2, {1: np.array([[1], [0]])})
    assert not small.contains_vector(1, np.array([0, 1]))
    assert small.contains_vector(1, np.zeros(2, dtype=np.int64))
    assert not small.equals(a)


def test_subspace_shift_shares_arrays(t2):
    sub = GradedSubspace(t2, {1: np.eye(2, dtype=np.int64)}, underdetermined={1})
    moved = sub.shift(-3)
    assert moved.dim(-2) == 2
    assert moved.underdetermined == frozenset({-2})
    assert moved.basis[-2] is sub.basis[1]


def test_subspace_zero_and_full(t2):
    assert GradedSubspace.zero(t2).dim(0) == 0
    full = GradedSubspace.full(t2)
    assert all(full.full_at(d) for d in t2.degrees())


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

    for labels in (["a"], {"0": 5}, {"x": ["a"]}):
        with pytest.raises(AlgebraFormatError):
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


def test_constructor_rejects_window_without_zero():
    with pytest.raises(AlgebraFormatError):
        WindowedGradedAlgebra(PrimeField(2), (1, 3), {1: 1}, {}, [])


def test_algebra_equality(t2):
    clone = algebra_from_json(algebra_to_json(t2))
    assert clone == t2
    assert t2 != quantum_plane(2, 5)

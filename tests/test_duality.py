"""Degree-n pairings: non-degeneracy ranks, Gram matrices, functional search."""

from __future__ import annotations

import numpy as np
import pytest

from gtl.duality import (
    EXHAUSTIVE_LIMIT,
    find_selfdual_functional,
    form_from_functional,
    nondegenerate_products,
    selfdual_check,
)
from gtl.exactlin import PrimeField
from gtl.graded import OutOfWindowError, WindowedGradedAlgebra
from gtl.report import FAIL, PASS


def truncated_line(p: int = 5) -> WindowedGradedAlgebra:
    """k[x]/(x^2) with deg x = 1 on the window [0, 1]."""
    one = np.ones((1, 1, 1), dtype=np.int64)
    return WindowedGradedAlgebra(
        PrimeField(p),
        (0, 1),
        {0: 1, 1: 1},
        {(0, 0): one, (0, 1): one, (1, 0): one},
        [1],
        labels={0: ["1"], 1: ["x"]},
    )


def test_laurent_products_nondegenerate_at_every_degree(laurent):
    for n in laurent.degrees():
        rep = nondegenerate_products(laurent, n)
        assert rep.passed
        for e in rep.entries:
            assert e.left == PASS and e.right == PASS
        # exactly the degrees whose partner n-i stays inside get entries
        lo, hi = laurent.window
        checkable = [i for i in laurent.degrees() if lo <= n - i <= hi]
        assert sorted(e.i for e in rep.entries) == checkable


def test_partner_outside_window_is_unchecked_not_failed():
    alg = truncated_line()
    rep = nondegenerate_products(alg, 0)
    assert rep.unchecked == [1]
    assert [e.i for e in rep.entries] == [0]
    assert rep.passed
    # at the socle degree everything is checkable
    full = nondegenerate_products(alg, 1)
    assert full.passed and full.unchecked == []


def test_nondegenerate_rejects_degree_outside_window(laurent):
    with pytest.raises(ValueError):
        nondegenerate_products(laurent, 9)


def test_nondegenerate_failure_carries_kernel_witness():
    # k[x, z]/(x^3, xz, z^2): z kills all of degree 1, so the degree-2
    # pairing on degree 1 is degenerate.
    field = PrimeField(3)
    eye2 = np.eye(2, dtype=np.int64)
    square = np.zeros((2, 2, 1), dtype=np.int64)
    square[0, 0, 0] = 1  # x * x = x^2; all other degree-1 products vanish
    alg = WindowedGradedAlgebra(
        field,
        (0, 2),
        {0: 1, 1: 2, 2: 1},
        {
            (0, 0): np.ones((1, 1, 1), dtype=np.int64),
            (0, 1): eye2.reshape(1, 2, 2),
            (1, 0): eye2.reshape(2, 1, 2),
            (0, 2): np.ones((1, 1, 1), dtype=np.int64),
            (2, 0): np.ones((1, 1, 1), dtype=np.int64),
            (1, 1): square,
        },
        [1],
    )
    assert alg.validate().passed
    rep = nondegenerate_products(alg, 2)
    assert not rep.passed
    entry = rep.verdict_for(1)
    assert entry.verdict == FAIL
    assert entry.witness["side"] == "left"
    assert entry.witness["kernel"] == [0, 1]


def test_report_json_shape(laurent):
    payload = nondegenerate_products(laurent, -1).to_json_dict()
    assert payload["check"] == "nondegenerate_products"
    assert payload["n"] == -1
    assert payload["passed"] is True
    assert {row["i"] for row in payload["per_degree"]} <= set(laurent.degrees())


def test_form_pairing_values(t2):
    form = form_from_functional(t2, -1, [1], spot_checks=500, seed=3)
    w1 = t2.element_by_label("w1")
    dual_w1 = t2.element_by_label("d:w1")
    dual_w2 = t2.element_by_label("d:w2")
    assert form.pairing(w1, dual_w1) == 1
    assert form.pairing(w1, dual_w2) == 0
    assert form.pairing(t2.one(), t2.element_by_label("d:1")) == 1
    # off-degree pairs land outside degree -1 and pair to zero
    assert form.pairing(w1, t2.one()) == 0


def test_form_pairing_respects_window(laurent):
    form = form_from_functional(laurent, -1, [1])
    top = laurent.element_by_label("w^2")
    with pytest.raises(OutOfWindowError):
        form.pairing(top, top)


def test_form_rejects_wrong_functional_length(t2):
    with pytest.raises(ValueError):
        form_from_functional(t2, -1, [1, 0])


def test_gram_matrix_is_permutation_like(t2):
    form = form_from_functional(t2, -1, [1])
    gram = form.gram(2)  # degree-2 monomials against their duals
    assert gram.shape == (3, 3)
    assert sorted(gram.sum(axis=0).tolist()) == [1, 1, 1]
    assert sorted(gram.sum(axis=1).tolist()) == [1, 1, 1]


def test_selfdual_check_passes_on_trivial_extension(t2):
    rep = selfdual_check(t2, -1, [1])
    assert rep.passed
    assert rep.unchecked == []
    assert all(e.verdict == PASS for e in rep.entries)


def test_selfdual_check_flags_dimension_mismatch(t2):
    rep = selfdual_check(t2, 0, [1])
    assert not rep.passed
    assert rep.verdict_for(1) == FAIL
    bad = next(e for e in rep.failures() if e.key == 1)
    assert bad.witness["reason"] == "dimension mismatch"
    assert tuple(bad.witness["dims"]) == (2, 1)


def test_selfdual_check_flags_degenerate_functional(laurent):
    # the zero functional induces the zero form
    rep = selfdual_check(laurent, -1, [0])
    assert not rep.passed
    assert rep.failures()[0].witness["reason"] == "degenerate"


def test_find_functional_exhaustive_on_klein_ring(klein_ring):
    res = find_selfdual_functional(klein_ring, -1)
    assert res.found and res.strategy == "exhaustive"
    assert res.functional.tolist() == [1]
    assert res.tried == 1
    assert selfdual_check(klein_ring, -1, res.functional).passed


def test_find_functional_rejects_degree_outside_window(klein_ring):
    with pytest.raises(ValueError):
        find_selfdual_functional(klein_ring, -4)


def test_find_functional_reports_not_found(t2):
    res = find_selfdual_functional(t2, 0, strategy="exhaustive")
    assert not res.found
    assert res.tried == 1  # only candidate [1] over F_2


def test_find_functional_randomized_is_seeded(laurent):
    a = find_selfdual_functional(laurent, -1, strategy="randomized", seed=11)
    b = find_selfdual_functional(laurent, -1, strategy="randomized", seed=11)
    assert a.found and b.found
    assert a.functional.tolist() == b.functional.tolist()
    assert a.tried == b.tried


def test_find_functional_exhaustive_budget():
    from gtl.gallery import build_laurent

    huge = build_laurent(2**31 - 1, (-2, 2))
    assert (2**31 - 1) ** 1 > EXHAUSTIVE_LIMIT
    with pytest.raises(ValueError):
        find_selfdual_functional(huge, -1, strategy="exhaustive")
    auto = find_selfdual_functional(huge, -1)
    assert auto.strategy == "randomized" and auto.found


def test_find_functional_unknown_strategy(laurent):
    with pytest.raises(ValueError):
        find_selfdual_functional(laurent, -1, strategy="bogus")

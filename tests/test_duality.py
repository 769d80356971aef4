"""Degree-n pairings: non-degeneracy ranks, Gram matrices, functional search."""

from __future__ import annotations

import numpy as np
import pytest

from gtl import duality
from gtl.duality import (
    EXHAUSTIVE_LIMIT,
    find_selfdual_functional,
    functional,
    gram,
    nondegenerate_products,
    selfdual_check,
)
from gtl.exactlin import PrimeField
from gtl.graded import WindowedGradedAlgebra
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


def one_sided_ring() -> WindowedGradedAlgebra:
    """Degrees 0..3 spanned by 1; x; u, v; z over F_2, whose only product off the unit is x u = z."""
    dims = {0: 1, 1: 1, 2: 2, 3: 1}
    mult = {}
    for i, di in dims.items():
        eye = np.eye(di, dtype=np.int64)
        mult[(0, i)], mult[(i, 0)] = eye[None, :, :], eye[:, None, :]
    mult[(1, 2)] = np.array([[[1], [0]]], dtype=np.int64)
    return WindowedGradedAlgebra(PrimeField(2), (0, 3), dims, mult, [1],
                                 labels={0: ["1"], 1: ["x"], 2: ["u", "v"], 3: ["z"]})


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
    entry = next(e for e in rep.entries if e.i == 1)
    assert entry.verdict == FAIL
    assert entry.witness["side"] == "left"
    assert entry.witness["kernel"] == [0, 1]


def test_nondegenerate_names_a_right_side_kernel():
    # degree 1 pairs into degree 3 on the left (x u = z) but not on the
    # right (u x = v x = 0), so the witness is the right map's kernel, x;
    # degree 2 fails on both sides, and the left witness comes first
    alg = one_sided_ring()
    assert alg.validate().passed
    rep = nondegenerate_products(alg, 3)
    got = {e.i: (e.left, e.right, e.witness) for e in rep.entries}
    assert got[1] == (PASS, FAIL, {"side": "right", "kernel": [1]})
    assert got[2][:2] == (FAIL, FAIL) and got[2][2]["side"] == "left"
    assert got[0] == got[3] == (PASS, PASS, None)


def test_report_json_shape(laurent):
    payload = nondegenerate_products(laurent, -1).to_json_dict()
    assert payload["check"] == "nondegenerate_products"
    assert payload["n"] == -1
    assert payload["passed"] is True
    assert {row["i"] for row in payload["per_degree"]} <= set(laurent.degrees())


def test_form_pairing_values(t2):
    # entries of the Gram blocks of the degree -1 form of [1]: each monomial
    # pairs to 1 with its own dual and to 0 with any other
    vec = functional(t2, -1, [1])

    def pairing(a: str, b: str) -> int:
        x, y = t2.element_by_label(a), t2.element_by_label(b)
        block = gram(t2, -1, vec, x.degree)
        assert block.shape == (t2.dim(x.degree), t2.dim(y.degree))
        return int(x.vector @ block @ y.vector)

    assert pairing("w1", "d:w1") == 1
    assert pairing("w1", "d:w2") == 0
    assert pairing("d:w2", "w2") == 1
    assert pairing("1", "d:1") == 1


def test_form_rejects_wrong_functional_length(t2):
    with pytest.raises(ValueError, match=r"functional must have dims\(-1\)=1 coefficients"):
        functional(t2, -1, [1, 0])


def test_functional_rejects_degree_outside_window(t2):
    with pytest.raises(ValueError, match=r"pairing degree 9 outside window \(-4, 3\)"):
        functional(t2, 9, [1])


def test_functional_is_reduced_mod_p(t2):
    assert functional(t2, -1, [3]).tolist() == [1]


def test_gram_matrix_is_permutation_like(t2):
    block = gram(t2, -1, functional(t2, -1, [1]), 2)  # degree-2 monomials against their duals
    assert block.shape == (3, 3)
    assert sorted(block.sum(axis=0).tolist()) == [1, 1, 1]
    assert sorted(block.sum(axis=1).tolist()) == [1, 1, 1]


def test_selfdual_check_passes_on_trivial_extension(t2):
    rep = selfdual_check(t2, -1, [1])
    assert rep.passed
    assert rep.unchecked == []
    assert all(e.verdict == PASS for e in rep.entries)


def test_selfdual_check_flags_dimension_mismatch(t2):
    rep = selfdual_check(t2, 0, [1])
    assert not rep.passed
    assert {e.key: e.verdict for e in rep.entries}[1] == FAIL
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
    res = find_selfdual_functional(t2, 0)
    assert not res.found and res.strategy == "exhaustive"
    assert res.tried == 1  # only candidate [1] over F_2


def _laurent_above_budget():
    from gtl.gallery import build_laurent

    p = 2**31 - 1
    assert p > EXHAUSTIVE_LIMIT  # dims(-1) = 1, so p candidates
    return build_laurent(p, (-2, 2))


def test_find_functional_randomized_is_seeded():
    huge = _laurent_above_budget()
    a = find_selfdual_functional(huge, -1, seed=11)
    b = find_selfdual_functional(huge, -1, seed=11)
    assert a.strategy == b.strategy == "randomized"
    assert a.found and b.found
    assert a.functional.tolist() == b.functional.tolist()
    assert a.tried == b.tried
    c = find_selfdual_functional(huge, -1, seed=12)
    assert c.found and c.functional.tolist() != a.functional.tolist()


def test_find_functional_exhaustive_budget(monkeypatch, klein_ring):
    huge = _laurent_above_budget()
    auto = find_selfdual_functional(huge, -1)
    assert auto.strategy == "randomized" and auto.found
    assert selfdual_check(huge, -1, auto.functional).passed
    # Klein-four: dims(-1) = 1 over F_2, two candidates; the budget is inclusive
    # (and bounds samples too)
    monkeypatch.setattr(duality, "EXHAUSTIVE_LIMIT", 2)
    assert find_selfdual_functional(klein_ring, -1, samples=1).strategy == "exhaustive"
    monkeypatch.setattr(duality, "EXHAUSTIVE_LIMIT", 1)
    assert find_selfdual_functional(klein_ring, -1, samples=1).strategy == "randomized"


def test_randomized_search_skips_zero_draws_and_exhausts_its_budget(monkeypatch, t2):
    # t2 has no selfdual functional of degree 3: dims(i) != dims(3 - i) at
    # every checked i, dims(0) = 1 and dims(3) = 4 among them.  Its 16 candidates
    # over F_2 exceed a budget of 8, so the search is randomized; the second
    # of seed 0's eight draws is zero and is not tried
    monkeypatch.setattr(duality, "EXHAUSTIVE_LIMIT", 8)
    rng = np.random.default_rng(0)
    draws = [rng.integers(0, 2, size=4) for _ in range(8)]
    assert [k for k, draw in enumerate(draws) if not draw.any()] == [1]
    res = find_selfdual_functional(t2, 3, seed=0, samples=8)
    assert (res.functional, res.tried, res.strategy) == (None, 7, "randomized")


@pytest.mark.parametrize("limit", [EXHAUSTIVE_LIMIT, 1], ids=["exhaustive", "randomized"])
def test_find_functional_rejects_samples_outside_the_budget(monkeypatch, klein_ring, limit):
    # a search of no samples would report found=False, tried=0, like one that found nothing
    monkeypatch.setattr(duality, "EXHAUSTIVE_LIMIT", limit)
    for samples in (0, -5, limit + 1):
        with pytest.raises(ValueError, match=rf"samples {samples} must lie in \[1, {limit}\]"):
            find_selfdual_functional(klein_ring, -1, samples=samples)
    assert find_selfdual_functional(klein_ring, -1, samples=limit).found

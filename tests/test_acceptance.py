"""Acceptance gate: the headline computations this package exists to perform.

Each test covers one numbered claim, prints a single ``[PASS]``/``[FAIL]``
line for it (visible under ``pytest -s`` and in failure reports), and uses
exact integer equality throughout — no tolerances anywhere.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gtl import duality, stmod, structure
from gtl.exactlin import as_residues, kernel_mod, matmul_mod, rank_mod
from gtl.gallery import (
    build_truncated_ci,
    expected_ext_dim_ci,
    expected_hh0_dim,
    expected_tate_hh_dim,
)

from test_graded import reference_products

# The benchmark's workloads and recorded output digests, read and never written.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@contextlib.contextmanager
def _verdict(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def hh_rings():
    """Windowed stable Hochschild rings of k[x]/(x^a) for the four (a, p)
    headline cases, on the window [-2, 2]."""
    rings = {}
    for a, p in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        alg = build_truncated_ci((a,), p)
        bimod = stmod.regular_bimodule(alg)
        rings[(a, p)] = stmod.tate_ring(bimod, (-2, 2))
    return rings


# ---------------------------------------------------------------------------
# 1. stable Hochschild dimensions of truncated lines
# ---------------------------------------------------------------------------


def test_1_stable_hochschild_dims_of_truncated_lines(hh_rings):
    expected_by_case = {(2, 2): 2, (3, 2): 2, (3, 3): 3, (4, 2): 4}
    with _verdict("stable Hochschild dims of k[x]/(x^a), window [-2, 2]"):
        for (a, p), want in expected_by_case.items():
            assert expected_tate_hh_dim(a, p) == want
            ring = hh_rings[(a, p)]
            assert [ring.dim(d) for d in ring.degrees()] == [want] * 5


# ---------------------------------------------------------------------------
# 2. degree-zero stable Hochschild space of two-variable truncations
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_2_degree_zero_stable_hochschild_two_variables():
    with _verdict("degree-0 stable Hochschild dims for two-variable truncations"):
        for exponents, p, env_dim, want in [
            ((2, 2), 2, 16, 4),
            ((3, 3), 2, 81, 8),
        ]:
            alg = build_truncated_ci(exponents, p)
            bimod = stmod.regular_bimodule(alg)
            assert bimod.algebra.dim == env_dim
            assert expected_hh0_dim(exponents, p) == want
            assert stmod.tate_ext(bimod, 0).dim == want


# ---------------------------------------------------------------------------
# 3. Klein four group algebra: negative products vanish, depth-two holds
# ---------------------------------------------------------------------------


def _negative_product_blocks(ring):
    lo, _ = ring.window
    for i in range(lo, 0):
        for j in range(lo, 0):
            if ring.in_window(i + j):
                yield i, j, ring.mult_block(i, j)


def test_3_klein_four_negative_products_vanish_and_depth_two(klein_ring_wide):
    ring = klein_ring_wide
    with _verdict("Klein four: negative x negative = 0 and depth-two verification"):
        pairs = list(_negative_product_blocks(ring))
        assert len(pairs) > 0
        for _i, _j, block in pairs:
            assert not block.any()
        g0 = ring.basis_element(1, 0)
        g1 = ring.basis_element(1, 1)
        r = ring.multiply(g0, g0)
        rt = ring.multiply(g1, g1)
        search = duality.find_selfdual_functional(ring, -1)
        assert search.found
        rep = structure.verify_depth2(ring, r, rt, -1, search.functional)
        assert rep.failures() == []
        assert rep.passed


# ---------------------------------------------------------------------------
# 4. cubic hypersurface over F_3: periodic, with nonzero negative products
# ---------------------------------------------------------------------------


def test_4_cubic_hypersurface_periodicity_and_negative_products(cubic_ring):
    ring = cubic_ring
    with _verdict("k[x]/(x^3) over F_3: degree-2 periodicity and nonzero negative products"):
        rep = structure.check_periodicity(ring, ring.basis_element(2, 0))
        assert rep.failures() == []
        assert rep.passed
        nonzero = [
            (i, j) for i, j, block in _negative_product_blocks(ring) if block.any()
        ]
        assert len(nonzero) >= 1


# ---------------------------------------------------------------------------
# 5. duality on every computed ring
# ---------------------------------------------------------------------------


def test_5_dimension_symmetry_and_selfdual_functionals(
    hh_rings, klein_ring_wide, cubic_ring
):
    rings = list(hh_rings.values()) + [klein_ring_wide, cubic_ring]
    with _verdict("all rings: dim(i) = dim(-1-i) and a self-dual functional exists"):
        for ring in rings:
            for i in ring.degrees():
                if ring.in_window(-1 - i):
                    assert ring.dim(i) == ring.dim(-1 - i)
            search = duality.find_selfdual_functional(ring, -1)
            assert search.found
            rep = duality.selfdual_check(ring, -1, search.functional)
            assert rep.failures() == []


# ---------------------------------------------------------------------------
# 6. trivial extension verifies depth two directly
# ---------------------------------------------------------------------------


def test_6_trivial_extension_depth_two(t2):
    ring = t2
    with _verdict("trivial extension of k[w1, w2]: direct depth-two verification"):
        w1 = ring.element_by_label("w1")
        w2 = ring.element_by_label("w2")
        rep = structure.verify_depth2(ring, w1, w2, -1, [1])
        assert rep.failures() == []
        assert rep.passed
        tor = structure.tor_part(ring, w1)
        for d in ring.degrees():
            if d < 0:
                assert tor.dim(d) == ring.dim(d)
            else:
                assert tor.dim(d) == 0
        for _i, _j, block in _negative_product_blocks(ring):
            assert not block.any()
        for i in ring.degrees():
            assert ring.dim(-1 - i) == ring.dim(i)


# ---------------------------------------------------------------------------
# 7. self-extension dimensions over the Klein four group algebra
# ---------------------------------------------------------------------------


def test_7_ext_dims_over_klein_four(klein_alg):
    with _verdict("Ext^n(k, k) dims over k[x,y]/(x^2, y^2) match series coefficients"):
        got = [stmod.tate_ext(stmod.trivial_module(klein_alg), n).dim
               for n in range(5)]
        assert got == [expected_ext_dim_ci(2, n) for n in range(5)]
        assert got == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# 8. property suites across the gallery
# ---------------------------------------------------------------------------


def _associativity_triples(alg, n):
    lo, hi = alg.window
    out = []
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            k = n - i - j
            if lo <= k <= hi and lo <= i + j <= hi and lo <= j + k <= hi:
                if alg.dim(i) and alg.dim(j) and alg.dim(k):
                    out.append((i, j, k))
    return out


def _random_element(alg, rng, degree):
    vec = rng.integers(0, alg.p, size=alg.dim(degree))
    return alg.element(degree, vec.tolist())


def _check_form_associativity(alg, lam, rng, rounds=500):
    """lam((ab)c) = lam(a(bc)) on random triples whose product lands in degree -1."""
    vec = duality.functional(alg, -1, lam)
    triples = _associativity_triples(alg, -1)
    assert triples
    for step in range(rounds):
        i, j, k = triples[step % len(triples)]
        a = _random_element(alg, rng, i)
        b = _random_element(alg, rng, j)
        c = _random_element(alg, rng, k)
        ab, bc = alg.multiply(a, b), alg.multiply(b, c)
        left = reference_products(alg, i + j, ab.vector[:, None], k, c.vector[:, None])[:, 0, 0]
        right = reference_products(alg, i, a.vector[:, None], j + k, bc.vector[:, None])[:, 0, 0]
        pair = [matmul_mod(side[None, :], vec[:, None], alg.p) for side in (left, right)]
        assert np.array_equal(*pair)


def _check_tor_closure(alg, r):
    tor = structure.tor_part(alg, r)
    for d in alg.degrees():
        vecs = tor.vectors(d).T
        for i in alg.degrees():
            target = i + d
            if not alg.in_window(target) or target in tor.underdetermined:
                continue
            for a_idx in range(alg.dim(i)):
                a_vec = np.eye(alg.dim(i), dtype=np.int64)[a_idx]
                left = reference_products(alg, i, a_vec[:, None], d, None)[:, 0]
                right = reference_products(alg, d, None, i, a_vec[:, None])[:, :, 0]
                for v in vecs:
                    assert tor.contains_vector(
                        target, matmul_mod(left, v.reshape(-1, 1), alg.p).reshape(-1)
                    )
                    assert tor.contains_vector(
                        target, matmul_mod(right, v.reshape(-1, 1), alg.p).reshape(-1)
                    )


def _check_full_ideal(alg):
    sub = structure.ideal_leq(alg, alg.window[1])
    assert not sub.underdetermined
    for d in alg.degrees():
        assert sub.dim(d) == alg.dim(d)


def test_8_property_suites_across_gallery(
    klein_ring_wide, cubic_ring, t2, laurent
):
    start = time.perf_counter()
    rng = np.random.default_rng(20240809)
    objects = [
        (t2, t2.element_by_label("w1"), [1]),
        (laurent, laurent.element_by_label("w^1"), [1]),
        (klein_ring_wide, klein_ring_wide.basis_element(2, 0), None),
        (cubic_ring, cubic_ring.basis_element(2, 0), None),
    ]
    with _verdict("gallery-wide property suites (axioms, forms, torsion, ideals, linear algebra)"):
        for alg, r, lam in objects:
            assert alg.validate().passed
            if lam is None:
                search = duality.find_selfdual_functional(alg, -1)
                assert search.found
                lam = search.functional
            _check_form_associativity(alg, lam, rng)
            _check_tor_closure(alg, r)
            _check_full_ideal(alg)
        for p in (2, 3, 5, 97):
            for _ in range(15):
                m = int(rng.integers(1, 7))
                n = int(rng.integers(1, 7))
                mat = as_residues(rng.integers(0, p, size=(m, n)), p)
                rk = rank_mod(mat, p)
                ker = kernel_mod(mat, p)
                assert rk + ker.shape[1] == n
                if ker.shape[1]:
                    assert not matmul_mod(mat, ker, p).any()
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 9. the benchmark's passes reproduce their recorded outputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_9_benchmark_passes_match_their_recorded_digests(name, seed, tmp_path):
    reference = workloads.load_references()[name][workloads.input_variant(seed)]
    case = workloads.WORKLOADS[name](seed, tmp_path)
    with _verdict(f"benchmark {name}, seed {seed}: output digest as recorded"):
        assert workloads.gate(case, case.run(), reference) is None

"""Tests for the example-algebra builders and their expected-value helpers."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from gtl.exactlin import PrimeField
from gtl.gallery import (
    _monomial_label,
    _monomials_total,
    build_laurent,
    build_trivial_extension,
    build_truncated_ci,
    expected_ext_dim_ci,
    expected_hh0_dim,
    expected_tate_hh_dim,
    fd_algebra_from_payload,
)
from gtl.graded import AlgebraFormatError, WindowedGradedAlgebra, algebra_to_json
from gtl.stmod import FDAlgebra


# ---------------------------------------------------------------------------
# truncated polynomial algebras
# ---------------------------------------------------------------------------


def test_truncated_ci_klein_basis_and_labels():
    alg = build_truncated_ci((2, 2), 2)
    assert alg.dim == 4
    assert alg.field.p == 2
    # row-major monomial order, last variable fastest
    assert alg.labels == ("1", "x2", "x1", "x1*x2")
    assert alg.unit.tolist() == [1, 0, 0, 0]
    # symmetrizing functional is dual to the socle monomial x1*x2
    assert alg.symmetrizing.tolist() == [0, 0, 0, 1]
    assert alg.validate().passed
    assert alg.validate_symmetric().passed


def test_truncated_ci_mixed_exponents():
    alg = build_truncated_ci((2, 3), 5)
    assert alg.dim == 6
    assert alg.labels == ("1", "x2", "x2^2", "x1", "x1*x2", "x1*x2^2")
    assert alg.validate().passed
    assert alg.validate_symmetric().passed
    # radical spans the non-unit monomials
    assert alg.radical.shape == (6, 5)
    # x1 * x2^2 lands on the socle monomial
    i1 = alg.labels.index("x1")
    i22 = alg.labels.index("x2^2")
    assert alg.mult[i1, i22].tolist() == [0, 0, 0, 0, 0, 1]
    # truncation: x2 * x2^2 = 0
    i2 = alg.labels.index("x2")
    assert not alg.mult[i2, i22].any()


def test_truncated_ci_is_commutative():
    alg = build_truncated_ci((3, 2), 3)
    assert np.array_equal(alg.mult, alg.mult.transpose(1, 0, 2))


def test_truncated_ci_single_variable():
    alg = build_truncated_ci((4,), 2)
    assert alg.dim == 4
    assert alg.labels == ("1", "x1", "x1^2", "x1^3")
    assert alg.validate().passed


@pytest.mark.parametrize("bad", [(), (0,), (2, 0), (-1,)])
def test_truncated_ci_rejects_bad_exponents(bad):
    with pytest.raises(AlgebraFormatError):
        build_truncated_ci(bad, 2)


# ---------------------------------------------------------------------------
# trivial extension of a polynomial truncation
# ---------------------------------------------------------------------------


def test_trivial_extension_dims_follow_binomials():
    ring = build_trivial_extension(3, (-4, 3), 2)
    # degree d >= 0 holds the monomials of total degree d in 3 variables
    for d in range(0, 4):
        assert ring.dim(d) == math.comb(d + 2, 2)
    # degree d < 0 holds the dual copy in degree -1-d
    for d in range(-4, 0):
        assert ring.dim(d) == math.comb(-1 - d + 2, 2)


def test_trivial_extension_labels_and_duality_prefix(t2):
    assert t2.labels[0] == ("1",)
    assert sorted(t2.labels[1]) == ["w1", "w2"]
    assert t2.labels[-1] == ("d:1",)
    assert sorted(t2.labels[-2]) == ["d:w1", "d:w2"]
    # dual labels mirror the positive ones degree by degree
    for d in range(-4, 0):
        assert t2.labels[d] == tuple(f"d:{s}" for s in t2.labels[-1 - d])


def test_trivial_extension_square_zero_negative_part(t2):
    for i in range(-4, 0):
        for j in range(-4, 0):
            if t2.in_window(i + j):
                assert not t2.mult_block(i, j).any()


def trivial_extension_by_loops(nvars: int, window: tuple[int, int], p: int) -> WindowedGradedAlgebra:
    """The oracle for build_trivial_extension: every structure constant set one at a time."""
    lo, hi = window
    basis = {d: _monomials_total(nvars, d if d >= 0 else -1 - d) for d in range(lo, hi + 1)}
    labels = {d: [("" if d >= 0 else "d:") + _monomial_label(m, "w") for m in basis[d]] for d in basis}
    dims = {d: len(basis[d]) for d in basis}
    index = {d: {m: i for i, m in enumerate(basis[d])} for d in basis}
    mult = {}
    for i, j in itertools.product(basis, repeat=2):
        k = i + j
        if not lo <= k <= hi:
            continue
        block = np.zeros((dims[i], dims[j], dims[k]), dtype=np.int64)
        if i >= 0 and j >= 0:
            for s, alpha in enumerate(basis[i]):
                for t, beta in enumerate(basis[j]):
                    block[s, t, index[k][tuple(a + b for a, b in zip(alpha, beta))]] = 1
        elif (i >= 0) != (j >= 0):
            acts = block if i >= 0 else block.transpose(1, 0, 2)
            for s, beta in enumerate(basis[max(i, j)]):
                for t, alpha in enumerate(basis[min(i, j)]):
                    if all(b <= a for a, b in zip(alpha, beta)):
                        acts[s, t, index[k][tuple(a - b for a, b in zip(alpha, beta))]] = 1
        mult[(i, j)] = block
    return WindowedGradedAlgebra(PrimeField(p), window, dims, mult, [1], labels)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("window", [(0, 0), (-1, 0), (0, 3), (-4, 0), (-3, 2), (-2, 5), (-5, 4)])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_trivial_extension_matches_the_loop_oracle(nvars, window, p):
    ring, oracle = build_trivial_extension(nvars, window, p), trivial_extension_by_loops(nvars, window, p)
    assert ring == oracle
    assert algebra_to_json(ring) == algebra_to_json(oracle)


def test_trivial_extension_keys_beyond_int64_match_the_loop_oracle():
    # 64 variables of degree at most 1 give keys up to 2**64, held as Python ints
    assert build_trivial_extension(64, (-1, 1), 3) == trivial_extension_by_loops(64, (-1, 1), 3)


def test_trivial_extension_bytes_are_pinned():
    # the analyze-te3 benchmark ring: the benchmark's recorded report digests
    # hold only while the builder writes these bytes
    text = algebra_to_json(build_trivial_extension(3, (-9, 8), 2))
    assert hashlib.sha256(text.encode()).hexdigest() == "546bb37959ac00c0c9398d95fe55ed1c74200adf3e987dd7ad1e3acfaa13d3d2"


def test_trivial_extension_default_char_is_two():
    ring = build_trivial_extension(1, (-2, 2))
    assert ring.p == 2
    assert ring.validate().passed


@pytest.mark.parametrize("nvars", [0, -1])
def test_trivial_extension_rejects_bad_nvars(nvars):
    with pytest.raises(AlgebraFormatError):
        build_trivial_extension(nvars, (-2, 2), 2)


# ---------------------------------------------------------------------------
# Laurent line
# ---------------------------------------------------------------------------


def test_laurent_everything_dimension_one(laurent):
    assert [laurent.dim(d) for d in laurent.degrees()] == [1] * 7
    assert laurent.labels[-2] == ("w^-2",)
    assert laurent.labels[3] == ("w^3",)
    assert laurent.validate().passed


def test_laurent_products_are_unital_shifts(laurent):
    a = laurent.element_by_label("w^2")
    b = laurent.element_by_label("w^-3")
    prod = laurent.multiply(a, b)
    assert (prod.degree, prod.vector.tolist()) == (-1, [1])


# ---------------------------------------------------------------------------
# expected-value helpers
# ---------------------------------------------------------------------------


def _ext_dim_by_enumeration(nvars: int, n: int) -> int:
    """Count basis monomials of an exterior algebra on nvars degree-1
    generators tensored with a polynomial algebra on nvars degree-2
    generators, in total degree n."""
    total = 0
    for eps in itertools.product((0, 1), repeat=nvars):
        rem = n - sum(eps)
        if rem < 0 or rem % 2:
            continue
        half = rem // 2
        total += sum(
            1
            for ks in itertools.product(range(half + 1), repeat=nvars)
            if sum(ks) == half
        )
    return total


def test_expected_ext_dim_ci_matches_enumeration():
    for c in (1, 2, 3):
        for n in range(0, 9):
            assert expected_ext_dim_ci(c, n) == _ext_dim_by_enumeration(c, n)


def test_expected_ext_dim_ci_two_variables_is_linear():
    assert [expected_ext_dim_ci(2, n) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_expected_ext_dim_ci_rejects_negative_degree():
    with pytest.raises(ValueError):
        expected_ext_dim_ci(2, -1)


def test_expected_tate_hh_dim_table():
    table = {
        (2, 2): 2,
        (3, 2): 2,
        (3, 3): 3,
        (4, 2): 4,
        (5, 3): 4,
        (6, 2): 6,
        (6, 3): 6,
        (5, 5): 5,
    }
    for (a, p), want in table.items():
        assert expected_tate_hh_dim(a, p) == want


def test_expected_hh0_dim_values():
    assert expected_hh0_dim((2, 2), 2) == 4
    assert expected_hh0_dim((3, 3), 2) == 8
    assert expected_hh0_dim((3, 3), 3) == 9
    assert expected_hh0_dim((2, 3), 2) == 6
    assert expected_hh0_dim((3, 5), 2) == 14


# ---------------------------------------------------------------------------
# payload parsing
# ---------------------------------------------------------------------------


def test_payload_shorthand_builds_truncation():
    alg = fd_algebra_from_payload(
        {"truncated_polynomial": {"exponents": [2, 2], "field_char": 2}}
    )
    direct = build_truncated_ci((2, 2), 2)
    assert isinstance(alg, FDAlgebra)
    assert alg.dim == direct.dim
    assert np.array_equal(alg.mult, direct.mult)
    assert alg.labels == direct.labels


def test_payload_shorthand_rejects_malformed():
    with pytest.raises(AlgebraFormatError):
        fd_algebra_from_payload({"truncated_polynomial": {"exponents": [2, 2]}})
    with pytest.raises(AlgebraFormatError):
        fd_algebra_from_payload({"truncated_polynomial": [2, 2]})
    with pytest.raises(AlgebraFormatError):
        fd_algebra_from_payload(
            {"truncated_polynomial": {"exponents": [0], "field_char": 2}}
        )
    with pytest.raises(AlgebraFormatError):
        fd_algebra_from_payload("not an object")


def test_payload_explicit_format_round_trip():
    direct = build_truncated_ci((3,), 3)
    rebuilt = fd_algebra_from_payload(direct.to_json_dict())
    assert rebuilt.dim == direct.dim
    assert np.array_equal(rebuilt.mult, direct.mult)
    assert np.array_equal(rebuilt.unit, direct.unit)

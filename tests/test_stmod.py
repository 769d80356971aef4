"""Finite-dimensional algebras, syzygy towers, and stable self-extension rings.

The Yoneda oracle at the bottom recomputes ring products by a different
route (chain maps lifted through the resolution boundaries) and must agree
with the tower-lift products used by tate_ring.  The cover oracle recomputes
the projectively-factoring maps as maps through the minimal free cover of the
target and must agree with the relative-trace (Higman) columns.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from gtl.exactlin import PrimeField, matmul_mod, rank_mod, solve_mod
from gtl.gallery import build_truncated_ci, expected_ext_dim_ci, expected_hh0_dim
from gtl.graded import AlgebraFormatError, algebra_to_json, col_echelon
from gtl.report import FAIL, PASS, PreconditionError
from gtl.stmod import (
    FDAlgebra,
    FDModule,
    SyzygyTower,
    _TateWorkspace,
    derive_radical,
    fd_algebra_from_json_dict,
    free_generator_matrix,
    free_module,
    hom_space,
    minimal_cover,
    omega_lift,
    projective_factor_columns,
    regular_bimodule,
    stable_hom,
    syzygy_step,
    tate_ext,
    tate_ring,
    trivial_module,
)


# -- algebras -----------------------------------------------------------------


def test_gallery_algebras_validate(klein_alg, cubic_alg):
    for alg in (klein_alg, cubic_alg):
        assert alg.validate().passed
        assert alg.validate_symmetric().passed
        assert alg.op().validate().passed


def test_validate_catches_broken_associativity(cubic_alg):
    mult = cubic_alg.mult.copy()
    mult[1, 2, 0] = 1  # x * x^2 = 1 while (x * x) * x stays 0
    broken = FDAlgebra(
        cubic_alg.field, cubic_alg.dim, mult, cubic_alg.unit, cubic_alg.radical
    )
    rep = broken.validate()
    assert not rep.passed
    assert rep.verdict_for("associativity") == FAIL


def test_validate_symmetric_needs_a_functional(klein_alg):
    bare = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit, klein_alg.radical
    )
    rep = bare.validate_symmetric()
    assert not rep.passed
    assert rep.verdict_for("present") == FAIL


def test_validate_symmetric_rejects_degenerate_functional(klein_alg):
    lam = np.zeros(klein_alg.dim, dtype=np.int64)
    lam[0] = 1  # dual of the unit pairs every radical element to zero
    shady = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit,
        klein_alg.radical, lam,
    )
    rep = shady.validate_symmetric()
    assert rep.verdict_for("symmetric") == PASS
    assert rep.verdict_for("nondegenerate") == FAIL


def test_generator_vectors(klein_alg):
    gens = klein_alg.generator_vectors()
    # unit plus x1 and x2: x1*x2 lies in J^2
    assert gens.shape == (4, 3)
    assert gens[:, 0].tolist() == klein_alg.unit.tolist()


def test_derive_radical_both_paths(klein_alg):
    # dim 4 over F_2 forces the root search; dim 3 over F_2 uses traces
    derived = derive_radical(klein_alg.mult, klein_alg.unit, klein_alg.field)
    assert np.array_equal(
        col_echelon(derived, 2), col_echelon(klein_alg.radical, 2)
    )
    line = build_truncated_ci((3,), 2)
    derived_line = derive_radical(line.mult, line.unit, line.field)
    assert np.array_equal(
        col_echelon(derived_line, 2), col_echelon(line.radical, 2)
    )


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


def test_free_module_and_generators(klein_alg):
    free = free_module(klein_alg, 2)
    assert free.dim == 8
    assert free.validate().passed
    gens = free_generator_matrix(klein_alg, 2)
    assert gens.shape == (8, 2)
    assert rank_mod(gens, 2) == 2


def test_module_validate_catches_wrong_action(klein_alg):
    action = np.zeros((4, 1, 1), dtype=np.int64)
    action[0, 0, 0] = 1
    action[1, 0, 0] = 1  # x1 acting as the identity is not multiplicative
    bad = FDModule(klein_alg, 1, action)
    rep = bad.validate()
    assert rep.verdict_for("multiplicativity") == FAIL


def test_dual_module_is_a_module_over_op(klein_alg):
    k = trivial_module(klein_alg)
    dual = k.dual()
    assert dual.validate().passed
    assert dual.algebra.mult.shape == klein_alg.mult.shape


def test_regular_bimodule(klein_alg):
    env, bim = regular_bimodule(klein_alg)
    assert bim.dim == klein_alg.dim
    assert bim.validate().passed


# -- covers and towers -------------------------------------------------------------


def test_minimal_cover_of_trivial_module(klein_alg):
    cover = minimal_cover(trivial_module(klein_alg))
    assert cover.rank == 1
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
    step = syzygy_step(trivial_module(klein_alg))
    assert step.syzygy.dim == 3
    composite = matmul_mod(step.cover.pi, step.iota, 2)
    assert not np.any(composite)
    assert step.syzygy.validate().passed


def test_cosyzygy_and_window_inverse(klein_alg):
    # the cosyzygy of k is the dual of the syzygy of its dual over the opposite algebra
    k = trivial_module(klein_alg)
    dual_step = syzygy_step(k.dual())
    co = FDModule(klein_alg, dual_step.syzygy.dim, dual_step.syzygy.action.transpose(0, 2, 1))
    assert co.dim == 3
    assert co.validate().passed
    embed, project = dual_step.cover.pi.T, dual_step.iota.T
    assert not np.any(matmul_mod(project, embed, 2))
    # going back down recovers k on the nose (no free summand appears)
    back = syzygy_step(co).syzygy
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
    assert not st.is_stably_zero(np.eye(1, dtype=np.int64))


def test_maps_from_free_modules_are_stably_zero(klein_alg):
    k = trivial_module(klein_alg)
    free = free_module(klein_alg, 1)
    assert stable_hom(free, k).dim == 0
    st = stable_hom(free, free)
    assert st.dim == 0
    assert st.is_stably_zero(np.eye(4, dtype=np.int64))


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


def cover_projective_factor_columns(source: FDModule, target: FDModule) -> np.ndarray:
    """Echelon columns of the maps source -> target through the minimal free cover of target."""
    p = source.p
    cover = minimal_cover(target)
    lifted = hom_space(source, cover.free)
    if lifted.shape[1] == 0:
        return np.zeros((target.dim * source.dim, 0), dtype=np.int64)
    pushed = np.kron(cover.pi, np.eye(source.dim, dtype=np.int64)) % p
    return col_echelon(matmul_mod(pushed, lifted, p), p)


def unitriangular_rebase(alg: FDAlgebra) -> FDAlgebra:
    """The same algebra in the basis f_i = e_i + e_{i+1} + ... + e_{d-1}.

    Monomial bases make the Gram matrix of the symmetrizing form its own
    inverse; this basis does not, so the dual basis is exercised for real.
    """
    p, d = alg.p, alg.dim
    g = np.triu(np.ones((d, d), dtype=np.int64)).T  # column i holds f_i
    ginv = solve_mod(g, np.eye(d, dtype=np.int64), p)
    products = np.einsum("sa,tb,stu->abu", g, g, alg.mult) % p
    mult = np.einsum("abu,vu->abv", products, ginv) % p
    return FDAlgebra(
        alg.field, d, mult, ginv @ alg.unit % p, ginv @ alg.radical % p,
        g.T @ alg.symmetrizing % p,
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
        alg, mod = regular_bimodule(alg)
    else:
        mod = trivial_module(alg)
    tower = SyzygyTower(mod)
    for a in range(4):
        for b in range(min(4, 5 - a)):
            source, target = tower.module(a), tower.module(b)
            got = projective_factor_columns(source, target)
            want = cover_projective_factor_columns(source, target)
            assert np.array_equal(got, want), (a, b)


def test_stacked_coordinates_match_single_solves(klein_alg):
    ws = _TateWorkspace(klein_alg, trivial_module(klein_alg))
    st = ws.hom_at(1, 2)
    shape = (st.target.dim, st.source.dim)
    pf_maps = [st.pf_columns[:, c].reshape(shape) for c in range(st.pf_columns.shape[1])]
    spanning = np.stack(st.basis + pf_maps)
    assert st.dim > 0 and pf_maps
    coeffs = np.random.default_rng(0).integers(0, 2, size=(2, 3, len(spanning)))
    stack = np.einsum("xyg,gab->xyab", coeffs, spanning) % 2
    got = ws.coordinates_at(1, 2, stack)
    assert got.shape == (2, 3, st.dim)
    for x in range(2):
        for y in range(3):
            assert got[x, y].tolist() == st.coordinates(stack[x, y]).tolist()
            assert got[x, y].tolist() == coeffs[x, y, : st.dim].tolist()


def test_product_solve_errors_name_degree_and_shift(klein_alg):
    ws = _TateWorkspace(klein_alg, trivial_module(klein_alg))
    st = ws.hom_at(1, 2)
    not_a_module_map = np.zeros((1, st.target.dim, st.source.dim), dtype=np.int64)
    not_a_module_map[0, 0, 0] = 1
    with pytest.raises(ArithmeticError, match="degree 1 at shift 2.*likely not self-injective"):
        ws.coordinates_at(1, 2, not_a_module_map)


def test_omega_lift_errors_name_both_shifts(klein_alg):
    tower = SyzygyTower(trivial_module(klein_alg))
    not_a_module_map = np.zeros((tower.module(1).dim, tower.module(2).dim), dtype=np.int64)
    not_a_module_map[0, 0] = 1
    with pytest.raises(ArithmeticError, match="W_2 -> W_1"):
        omega_lift(tower, not_a_module_map, 2, 1)


def test_omega_lift_preserves_the_identity(klein_alg):
    tower = SyzygyTower(trivial_module(klein_alg))
    lifted = omega_lift(tower, np.eye(1, dtype=np.int64), 0, 0)
    w1 = tower.module(1)
    assert lifted.shape == (3, 3)
    st = stable_hom(w1, w1)
    assert st.coordinates(lifted).tolist() == st.coordinates(np.eye(3, dtype=np.int64)).tolist()


# -- Tate extensions ------------------------------------------------------------------


def test_tate_ext_dims_match_both_sides_of_zero(klein_alg):
    k = trivial_module(klein_alg)
    tower = SyzygyTower(k)
    dims = [tate_ext(klein_alg, k, d, tower).dim for d in range(-3, 4)]
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
    ring = tate_ring(alg, trivial_module(alg), (-3, 3))
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
]


@pytest.mark.parametrize("algebra, module, window, digest", EMITTED_RING_SHA256)
def test_emitted_ring_bytes_are_pinned(algebra, module, window, digest):
    alg = build_truncated_ci(*algebra)
    if module == "bimodule":
        alg, mod = regular_bimodule(alg)
    else:
        mod = trivial_module(alg)
    text = algebra_to_json(tate_ring(alg, mod, window))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tate_ring_requires_symmetrizing_form(klein_alg):
    bare = FDAlgebra(
        klein_alg.field, klein_alg.dim, klein_alg.mult, klein_alg.unit, klein_alg.radical
    )
    with pytest.raises(PreconditionError):
        tate_ring(bare, trivial_module(bare), (-2, 2))


def test_tate_ring_window_must_contain_zero(klein_alg):
    with pytest.raises(ValueError):
        tate_ring(klein_alg, trivial_module(klein_alg), (1, 3))


def test_hh0_of_klein_four(klein_alg):
    env, bim = regular_bimodule(klein_alg)
    assert tate_ext(env, bim, 0).dim == expected_hh0_dim((2, 2), 2) == 4


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
    pi = lambda s: tower.step(s).cover.pi
    iota = lambda s: tower.step(s).iota
    rank = lambda s: tower.step(s).cover.rank
    boundary = lambda s: matmul_mod(iota(s - 1), pi(s), p)

    g_hat = matmul_mod(g, pi(j), p)  # cocycle P_j -> k
    gens = free_generator_matrix(alg, rank(j))
    lifted_gens = solve_mod(pi(0), matmul_mod(g_hat, gens, p), p)
    chain = extend_from_generators(tower.step(0).cover.free, rank(j), lifted_gens)
    for s in range(1, i + 1):
        gens = free_generator_matrix(alg, rank(j + s))
        rhs = matmul_mod(chain, matmul_mod(boundary(j + s), gens, p), p)
        lifted_gens = solve_mod(boundary(s), rhs, p)
        assert lifted_gens is not None
        chain = extend_from_generators(tower.step(s).cover.free, rank(j + s), lifted_gens)
    cocycle = matmul_mod(matmul_mod(f, pi(i), p), chain, p)  # P_{i+j} -> k
    h = solve_mod(pi(i + j).T, cocycle.reshape(-1), p)
    assert h is not None
    return h.reshape(1, -1)


def test_products_agree_with_yoneda_composition(klein_alg, klein_ring):
    k = trivial_module(klein_alg)
    tower = SyzygyTower(k)
    tower.ensure_steps(4)
    ext = {d: tate_ext(klein_alg, k, d, tower) for d in (1, 2, 3)}
    for i, j in ((1, 1), (1, 2), (2, 1)):
        block = klein_ring.mult_block(i, j)
        target = ext[i + j]
        for x, f in enumerate(ext[i].basis):
            for y, g in enumerate(ext[j].basis):
                h = yoneda_product(klein_alg, tower, f, g, i, j)
                assert target.coordinates(h).tolist() == block[x, y].tolist(), (i, j, x, y)

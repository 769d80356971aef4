"""Exact mod-p graded algebra with degree windows and stable module theory.

The package computes window-certified answers: every check reports, per
degree, whether it passed, failed with a witness, or could not be decided
inside the degree window.
"""

from .exactlin import PrimeField, is_prime, kernel_mod, matmul_mod, rank_mod, rref, solve_mod
from .graded import (
    AlgebraFormatError,
    GradedElement,
    GradedSubspace,
    OutOfWindowError,
    WindowedGradedAlgebra,
    algebra_from_json,
    algebra_from_json_dict,
    algebra_to_json,
    algebra_to_json_dict,
)
from .duality import (
    GradedForm,
    NondegeneracyReport,
    SearchResult,
    find_selfdual_functional,
    form_from_functional,
    nondegenerate_products,
    selfdual_check,
)
from .report import FAIL, OUT_OF_WINDOW, PASS, UNDERDETERMINED, CertifiedReport, DegreeVerdict, PreconditionError
from .structure import (
    check_orthogonality,
    check_periodicity,
    ideal_leq,
    is_regular_sequence2,
    regularity,
    tor_part,
    verify_depth1,
    verify_depth2,
)
from .stmod import (
    FDAlgebra,
    FDModule,
    StableHom,
    SyzygyTower,
    fd_algebra_from_json_dict,
    free_module,
    minimal_cover,
    regular_bimodule,
    stable_hom,
    syzygy_step,
    tate_ext,
    tate_ring,
    trivial_module,
)
from .gallery import (
    build_laurent,
    build_trivial_extension,
    build_truncated_ci,
    expected_ext_dim_ci,
    expected_hh0_dim,
    expected_tate_hh_dim,
    fd_algebra_from_payload,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

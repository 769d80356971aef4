"""Regular elements, torsion parts, degree-cut ideals, and theorem verifiers.

All claims here are window-certified: a verdict only quantifies over degrees
the window lets us compute, and anything the window hides is reported as
unchecked or UNDERDETERMINED rather than silently assumed.  Subspaces that
could only be bounded from below carry per-degree flags, and every verifier
threads those flags into its own verdicts.
"""

from __future__ import annotations

import numpy as np

from . import util
from .duality import form_from_functional, nondegenerate_products, selfdual_check
from .exactlin import kernel_mod, matmul_mod, rank_mod, rref
from .graded import GradedElement, GradedSubspace, WindowedGradedAlgebra, col_echelon
from .report import FAIL, PASS, UNDERDETERMINED, CertifiedReport, PreconditionError


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def _injectivity(alg: WindowedGradedAlgebra, r: GradedElement, degrees, check: str) -> CertifiedReport:
    """Per degree i: PASS when ker(r * -) on A^i is zero, FAIL with a kernel
    vector otherwise; degrees whose image degree leaves the window are unchecked."""
    dr, vec = r.homogeneous_part()

    def kernel(i: int):
        if i + dr > alg.window[1]:
            return None
        ker = kernel_mod(alg.left_mult_matrix(dr, vec, i), alg.p)
        return (PASS, None) if ker.shape[1] == 0 else (FAIL, {"kernel_vector": ker[:, 0].tolist()})

    return CertifiedReport.sweep(check, degrees, kernel)


def regularity(alg: WindowedGradedAlgebra, r: GradedElement) -> CertifiedReport:
    """Is r regular on the non-negative part, as far as the window can see?

    Clause ``kernels`` checks ker(r * -) = 0 on A^i for i in [0, d_max];
    clause ``central`` is the centrality report, because regularity of a
    non-central element is not a meaningful claim.  The report passes when
    neither clause fails.
    """
    dr, _ = r.homogeneous_part()
    if dr <= 0:
        raise ValueError(f"regularity needs a positive-degree element, got degree {dr}")
    kernels = _injectivity(alg, r, range(0, alg.window[1] + 1), "regularity_kernels")
    return CertifiedReport(
        check="regularity",
        clauses={"kernels": kernels, "central": alg.is_central(r)},
        notes=[f"element degree {dr}"],
    )


# ---------------------------------------------------------------------------
# torsion part
# ---------------------------------------------------------------------------


def _power_matrices(alg: WindowedGradedAlgebra, dr: int, vec: np.ndarray, d: int):
    """Yield (k, matrix of r^k acting on A^d) while d + k*dr stays in window."""
    d_max = alg.window[1]
    mat = np.eye(alg.dim(d), dtype=np.int64) % alg.p
    k = 0
    while d + (k + 1) * dr <= d_max:
        step = alg.left_mult_matrix(dr, vec, d + k * dr)
        mat = matmul_mod(step, mat, alg.p)
        k += 1
        yield k, mat


def tor_part(alg: WindowedGradedAlgebra, r: GradedElement) -> GradedSubspace:
    """Union of kernels of powers of r, degree by degree.

    Per degree the kernel chain ker r ⊆ ker r^2 ⊆ ... is walked until it
    stabilises once (K_k = K_{k+1}), fills the whole degree, or the window
    runs out of room.  A single plateau does not in general certify the
    chain has terminated (it can jump again later), so a plateau-certified
    degree records how it was certified in the notes; callers that hold a
    regularity hypothesis can do sharper certification themselves.  Degrees
    where the window ends the walk early are flagged UNDERDETERMINED and the
    stored basis is only a lower bound.
    """
    dr, vec = r.homogeneous_part()
    if dr <= 0:
        raise ValueError(f"tor_part needs a positive-degree element, got degree {dr}")
    basis: dict[int, np.ndarray] = {}
    flags: set[int] = set()
    notes: dict[int, str] = {}

    def walk(d: int):
        dim = alg.dim(d)
        if dim == 0:
            return d, np.zeros((0, 0), dtype=np.int64), False, "zero degree"
        prev = None
        last = np.zeros((dim, 0), dtype=np.int64)
        certified = False
        note = "no power checkable inside the window"
        for k, mat in _power_matrices(alg, dr, vec, d):
            ker = kernel_mod(mat, alg.p)
            last = ker
            if ker.shape[1] == dim:
                certified, note = True, f"full at power {k}"
                break
            if prev is not None and ker.shape[1] == prev:
                certified, note = True, f"kernel chain stabilised at power {k - 1}"
                break
            prev = ker.shape[1]
            note = f"window edge after power {k}"
        return d, last, certified, note

    for d, ker, certified, note in util.sweep(walk, list(alg.degrees())):
        basis[d] = ker
        notes[d] = note
        if not certified and alg.dim(d) > 0:
            flags.add(d)
    return GradedSubspace(alg, basis, underdetermined=frozenset(flags), notes=notes)


def kernel_of_power(alg: WindowedGradedAlgebra, r: GradedElement, d: int, k: int):
    """Kernel of r^k on A^d, or None when the window cannot express r^k there."""
    dr, vec = r.homogeneous_part()
    for kk, mat in _power_matrices(alg, dr, vec, d):
        if kk == k:
            return kernel_mod(mat, alg.p)
    return None


# ---------------------------------------------------------------------------
# degree-cut ideals
# ---------------------------------------------------------------------------


def _left_images(alg: WindowedGradedAlgebra, j: int, d: int, cols: np.ndarray) -> np.ndarray:
    """Columns spanning A^j * span(cols) inside A^{j+d}."""
    tensor = alg.mult_block(j, d)
    dj, dd, dc = tensor.shape
    flat = tensor.transpose(0, 2, 1).reshape(dj * dc, dd)
    prods = matmul_mod(flat, cols, alg.p)
    return prods.reshape(dj, dc, cols.shape[1]).transpose(1, 0, 2).reshape(dc, -1)


def _right_images(alg: WindowedGradedAlgebra, d: int, cols: np.ndarray, j: int) -> np.ndarray:
    """Columns spanning span(cols) * A^j inside A^{d+j}."""
    tensor = alg.mult_block(d, j)
    dd, dj, dc = tensor.shape
    flat = tensor.reshape(dd, dj * dc)
    prods = matmul_mod(cols.T, flat, alg.p)
    return prods.reshape(cols.shape[1] * dj, dc).T


def ideal_leq(alg: WindowedGradedAlgebra, n: int) -> GradedSubspace:
    """Smallest two-sided ideal containing every A^i with i <= n.

    The in-window part is grown to a fixpoint under single-sided
    multiplication.  Degrees whose value could be inflated by products that
    detour through degrees outside the window are found by a conservative
    reachability pass (multiplication steps are bounded by the window, so a
    detour can never jump across it) and flagged UNDERDETERMINED; degrees
    that are already full absorb any detour and stay certified.
    """
    d_min, d_max = alg.window
    p = alg.p
    span: dict[int, np.ndarray] = {}
    for d in alg.degrees():
        dim = alg.dim(d)
        if d <= n and dim > 0:
            span[d] = np.eye(dim, dtype=np.int64)
        else:
            span[d] = np.zeros((dim, 0), dtype=np.int64)

    step_degrees = [j for j in alg.degrees() if alg.dim(j) > 0]
    escapes: set[int] = set()

    changed = True
    while changed:
        changed = False
        for d in list(alg.degrees()):
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
                new_cols = np.hstack(
                    [span[target], _left_images(alg, j, d, cols), _right_images(alg, d, cols, j)]
                )
                merged = col_echelon(new_cols, p)
                if merged.shape[1] > span[target].shape[1]:
                    span[target] = merged
                    changed = True

    flags, notes = _detour_taint(alg, n, span, escapes, step_degrees)
    return GradedSubspace(alg, span, underdetermined=frozenset(flags), notes=notes)


def _detour_taint(alg, n, span, escapes, step_degrees):
    """Conservative set of window degrees reachable from out-of-window mass.

    Band reasoning: every multiplication step is the degree of a window
    degree with nonzero dimension, so a product chain moves in bounded hops
    and cannot cross the window without landing in it.  It therefore
    suffices to track a band of width one window on each side plus two
    "deep" states for everything past the band.  Full degrees absorb taint:
    nothing can be added to them and their onward products are already part
    of the computed fixpoint.
    """
    d_min, d_max = alg.window
    width = d_max - d_min + 1
    band_lo, band_hi = d_min - width, d_max + width

    def full(d: int) -> bool:
        return span[d].shape[1] == alg.dim(d)

    tainted: set[int] = set()
    # Degrees below both n and the window are generators the window never
    # saw, for any n, so the low band and everything past it start tainted.
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

    def expand(d: int):
        for j in step_degrees:
            seed(d + j)

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
        expand(work.pop())

    flags = {d for d in tainted if alg.in_window(d) and not full(d)}
    notes = {d: "value could grow via products outside the window" for d in flags}
    return flags, notes


# ---------------------------------------------------------------------------
# depth-1 verifier
# ---------------------------------------------------------------------------


def verify_depth1(alg: WindowedGradedAlgebra, r: GradedElement, n: int) -> CertifiedReport:
    """Depth >= 1 consequences: the cut ideal annihilates the r-torsion,
    and a non-negative pairing degree forces r to be regular everywhere.

    Preconditions: r central and regular on the non-negative part, as far
    as the window certifies; violations raise PreconditionError.
    """
    if not regularity(alg, r).passed:
        raise PreconditionError("element is not window-certified central and regular")

    report = CertifiedReport(check="verify_depth1", n=n)
    ideal = ideal_leq(alg, n)
    tor = tor_part(alg, r)

    sides = {"ideal*tor": (ideal, tor), "tor*ideal": (tor, ideal)}

    def vanish(key):
        """left^i * right^j = 0; unchecked when i + j leaves the window."""
        tag, i, j = key
        if not alg.in_window(i + j):
            return None
        left, right = sides[tag]
        u, w = left.vectors(i), right.vectors(j)
        tensor = alg.mult_block(i, j)
        di, dj, dc = tensor.shape
        nu, nw = u.shape[1], w.shape[1]
        half = matmul_mod(u.T, tensor.reshape(di, dj * dc), alg.p)
        half = half.reshape(nu, dj, dc).transpose(1, 0, 2).reshape(dj, nu * dc)
        prods = matmul_mod(w.T, half, alg.p)
        if np.any(prods):
            y, x, _ = np.argwhere(prods.reshape(nw, nu, dc)).tolist()[0]
            return FAIL, {"left_index": x, "right_index": y}
        return PASS, None

    keys = [
        (tag, i, j)
        for tag, (left, right) in sides.items()
        for i in alg.degrees() if left.dim(i)
        for j in alg.degrees() if right.dim(j)
    ]
    ann = CertifiedReport.sweep("ideal_annihilates_torsion", keys, vanish)
    touched = sorted(set(ideal.underdetermined) | set(tor.underdetermined))
    if touched:
        ann.notes.append(
            "inputs are lower bounds at degrees "
            f"{touched}; verdicts cover the certified parts only"
        )
    report.clauses["ideal_annihilates_torsion"] = ann

    if n >= 0:
        report.clauses["regular_on_all_degrees"] = _injectivity(
            alg, r, alg.degrees(), "regular_on_all_degrees"
        )
    else:
        report.notes.append("n < 0: no global regularity clause")
    return report


# ---------------------------------------------------------------------------
# duality refinements
# ---------------------------------------------------------------------------


def check_orthogonality(
    alg: WindowedGradedAlgebra,
    r: GradedElement,
    n: int,
    lam,
    assume_regular: bool = False,
) -> CertifiedReport:
    """Torsion is the orthogonal complement of the cut ideal, degreewise.

    At degree i (with n-i in the window) the claims are
    dim I^i = dims(n-i) - dim Tor^{n-i} and Tor^{n-i} = (I^i)^perp under the
    degree-n Gram pairing.  Degrees where either input subspace is only a
    lower bound come back UNDERDETERMINED unless ``assume_regular`` lets the
    torsion side be certified from the regularity hypothesis.
    """
    sd = selfdual_check(alg, n, lam)
    if not sd.passed:
        raise PreconditionError("functional does not pass selfdual_check")
    form = form_from_functional(alg, n, lam)
    ideal = ideal_leq(alg, n)
    tor = tor_part(alg, r)
    if assume_regular:
        tor = _tor_under_regularity(alg, r, tor)

    def orthogonal(i: int):
        j = n - i
        if not alg.in_window(j):
            return None
        if i in ideal.underdetermined or j in tor.underdetermined:
            return UNDERDETERMINED, None, "input subspaces are lower bounds here"
        u, t = ideal.vectors(i), tor.vectors(j)
        perp = kernel_mod(matmul_mod(u.T, form.gram(i), alg.p), alg.p)
        perp_matches = GradedSubspace(alg, {j: perp}).equals(GradedSubspace(alg, {j: t}))
        if u.shape[1] == alg.dim(j) - t.shape[1] and perp_matches:
            return PASS, None
        return FAIL, {
            "dim_ideal": u.shape[1],
            "dim_tor_partner": t.shape[1],
            "dim_partner": alg.dim(j),
            "perp_matches": perp_matches,
        }

    return CertifiedReport.sweep("orthogonality", alg.degrees(), orthogonal, n=n)


def check_periodicity(alg: WindowedGradedAlgebra, r: GradedElement) -> CertifiedReport:
    """Multiplication by r is bijective on every degree the window can check."""
    dr, vec = r.homogeneous_part()

    def bijective(i: int):
        if i + dr > alg.window[1]:
            return None
        di, dj = alg.dim(i), alg.dim(i + dr)
        rank = int(rank_mod(alg.left_mult_matrix(dr, vec, i), alg.p))
        return (PASS, None) if di == dj == rank else (FAIL, {"dims": (di, dj), "rank": rank})

    return CertifiedReport.sweep("periodicity", alg.degrees(), bijective)


# ---------------------------------------------------------------------------
# depth-2 verifier
# ---------------------------------------------------------------------------


def is_regular_sequence2(
    alg: WindowedGradedAlgebra, r: GradedElement, rt: GradedElement
) -> CertifiedReport:
    """Length-two regular sequence test on the non-negative part.

    First element: regularity(alg, r).  Second element: per degree i >= 0,
    any x in A^i with rt*x in r*A^{i+|rt|-|r|} must already lie in
    r*A^{i-|r|}; that is exactly regularity of rt on (A / rA)^{>=0}.
    """
    dr, rvec = r.homogeneous_part()
    drt, rtvec = rt.homogeneous_part()
    if dr <= 0 or drt <= 0:
        raise ValueError("regular sequence elements must have positive degree")
    rep = CertifiedReport(check="regular_sequence2")
    first = regularity(alg, r)
    rep.clauses["first"] = first.clauses["kernels"]
    rep.clauses["first_central"] = first.clauses["central"]
    rep.clauses["second_central"] = alg.is_central(rt)
    d_max = alg.window[1]

    def image_of_r(src: int) -> np.ndarray:
        """Columns spanning r*A^{src} in A^{src+dr} (zero span if src is absent)."""
        if not alg.in_window(src) or alg.dim(src) == 0:
            return np.zeros((alg.dim(src + dr), 0), dtype=np.int64)
        return col_echelon(alg.left_mult_matrix(dr, rvec, src), alg.p)

    def regular_mod_first(i: int):
        if i + drt > d_max:
            return None
        di = alg.dim(i)
        if di == 0:
            return PASS, None
        lt = alg.left_mult_matrix(drt, rtvec, i)
        w = image_of_r(i + drt - dr)
        if w.shape[1]:
            ker = kernel_mod(np.hstack([lt, (-w) % alg.p]), alg.p)
            pre = col_echelon(ker[:di, :], alg.p) if ker.shape[1] else np.zeros((di, 0), dtype=np.int64)
        else:
            pre = kernel_mod(lt, alg.p)
        if pre.shape[1] == 0:
            return PASS, None
        v = image_of_r(i - dr)
        # the first pivot right of v is the first column of pre outside r*A^{i-|r|}
        _, pivots = rref(np.hstack([v, pre]), alg.p)
        outside = [c - v.shape[1] for c in pivots if c >= v.shape[1]]
        if not outside:
            return PASS, None
        return FAIL, {"witness_vector": pre[:, outside[0]].tolist()}

    rep.clauses["second"] = CertifiedReport.sweep(
        "second_regular_mod_first", range(0, d_max + 1), regular_mod_first
    )
    return rep


def _tor_under_regularity(
    alg: WindowedGradedAlgebra, r: GradedElement, tor: GradedSubspace
) -> GradedSubspace:
    """Re-certify torsion flags using the regular-on-nonnegative hypothesis.

    Under that hypothesis Tor^d = 0 for d >= 0, and for d < 0 the chain
    ker r^k is already exhausted at k0 = ceil(-d/|r|) because r^{k0} maps
    A^d into non-negative degrees where r acts injectively.  Any flagged
    degree where k0 is reachable inside the window gets its exact value.
    """
    dr, _ = r.homogeneous_part()
    basis = {d: tor.vectors(d) for d in alg.degrees()}
    flags = set(tor.underdetermined)
    notes = dict(tor.notes)
    for d in sorted(flags):
        if d >= 0:
            basis[d] = np.zeros((alg.dim(d), 0), dtype=np.int64)
            flags.discard(d)
            notes[d] = "zero by the regularity hypothesis"
            continue
        k0 = (-d + dr - 1) // dr
        ker = kernel_of_power(alg, r, d, k0)
        if ker is not None:
            basis[d] = ker
            flags.discard(d)
            notes[d] = f"exact at power {k0} under the regularity hypothesis"
    return GradedSubspace(alg, basis, underdetermined=frozenset(flags), notes=notes)


def _tensor_zero_sweep(alg, left_degrees, right_degrees, check_name) -> CertifiedReport:
    """All in-window products A^i * A^j with i, j drawn from the given degree sets vanish."""

    def vanishes(key):
        tensor = alg.mult_block(*key)
        if np.any(tensor):
            a, b, c = (int(v) for v in np.argwhere(tensor)[0])
            return FAIL, {"left_index": a, "right_index": b, "component": c}
        return PASS, None

    keys = [
        (i, j)
        for i in left_degrees if alg.dim(i)
        for j in right_degrees if alg.dim(j) and alg.in_window(i + j)
    ]
    return CertifiedReport.sweep(check_name, keys, vanishes)


def _ideal_sweep(alg, member, check_name) -> CertifiedReport:
    """span{A^i : member(i)} is a two-sided ideal for in-window products."""

    def closed(key):
        i, j = key
        for tensor, order in ((alg.mult_block(i, j), "right"), (alg.mult_block(j, i), "left")):
            if np.any(tensor):
                a, b, c = (int(v) for v in np.argwhere(tensor)[0])
                return FAIL, {"side": order, "indices": (a, b, c)}
        return PASS, None

    keys = [
        (i, j)
        for i in alg.degrees() if member(i) and alg.dim(i)
        for j in alg.degrees() if alg.dim(j) and alg.in_window(i + j) and not member(i + j)
    ]
    return CertifiedReport.sweep(check_name, keys, closed)


def verify_depth2(
    alg: WindowedGradedAlgebra,
    r: GradedElement,
    rt: GradedElement,
    n: int,
    lam=None,
) -> CertifiedReport:
    """Depth >= 2 consequences for a degree-n selfdual algebra.

    Preconditions (PreconditionError on violation): (r, rt) is a
    window-certified regular sequence on the non-negative part, and the
    degree-n products are non-degenerate wherever checkable.

    Clauses: the r-torsion is exactly the negative part; n < 0; both the
    cut ideal A^{<=n} and the negative part are ideals annihilating each
    other; the negative part squares to zero; and when n = -1 and a
    selfdual functional is supplied, degreewise dims match across the
    pairing and torsion is the orthogonal complement of the cut ideal.
    """
    seq = is_regular_sequence2(alg, r, rt)
    if not seq.passed:
        raise PreconditionError("(r, rt) is not a window-certified regular sequence")
    nondeg = nondegenerate_products(alg, n)
    if not nondeg.passed:
        raise PreconditionError(f"degree-{n} products are degenerate at some degree")

    report = CertifiedReport(check="verify_depth2", n=n)

    tor = _tor_under_regularity(alg, r, tor_part(alg, r))

    def negative_torsion(d: int):
        """Tor^d is all of A^d for d < 0 and zero for d >= 0."""
        note, dim_tor, dim = tor.notes.get(d), tor.dim(d), alg.dim(d)
        if d in tor.underdetermined:
            return UNDERDETERMINED, None, note
        if d < 0:
            return (PASS, None, note) if dim_tor == dim else (FAIL, {"dim_tor": dim_tor, "dim": dim})
        return (PASS, None, note) if dim_tor == 0 else (FAIL, {"dim_tor": dim_tor})

    report.clauses["torsion_is_negative_part"] = CertifiedReport.sweep(
        "torsion_is_negative_part", alg.degrees(), negative_torsion
    )

    neg = CertifiedReport(check="pairing_degree_negative")
    neg.add("n", PASS if n < 0 else FAIL, None if n < 0 else {"n": n})
    report.clauses["pairing_degree_negative"] = neg

    report.clauses["cut_ideal"] = _ideal_sweep(alg, lambda d: d <= n, "cut_ideal")
    report.clauses["negative_part_ideal"] = _ideal_sweep(alg, lambda d: d < 0, "negative_part_ideal")
    neg_degrees = [d for d in alg.degrees() if d < 0]
    cut_degrees = [d for d in alg.degrees() if d <= n]
    ann = CertifiedReport(check="mutual_annihilation")
    ann.clauses["cut_times_negative"] = _tensor_zero_sweep(
        alg, cut_degrees, neg_degrees, "cut_times_negative"
    )
    ann.clauses["negative_times_cut"] = _tensor_zero_sweep(
        alg, neg_degrees, cut_degrees, "negative_times_cut"
    )
    report.clauses["mutual_annihilation"] = ann
    report.clauses["negative_square_zero"] = _tensor_zero_sweep(
        alg, neg_degrees, neg_degrees, "negative_square_zero"
    )

    if lam is not None and n == -1:
        def dims_match(i: int):
            j = -1 - i
            if not alg.in_window(j):
                return None
            di, dj = alg.dim(i), alg.dim(j)
            return (PASS, None) if di == dj else (FAIL, {"dims": (di, dj)})

        report.clauses["dims_match_across_pairing"] = CertifiedReport.sweep(
            "dims_match_across_pairing", [i for i in alg.degrees() if i >= 0], dims_match
        )
        report.clauses["orthogonality"] = check_orthogonality(
            alg, r, n, lam, assume_regular=True
        )
    elif lam is not None:
        report.notes.append("duality clause only applies when n = -1; skipped")
    else:
        report.notes.append("no functional supplied; duality clause skipped")
    return report

"""Regular elements, torsion parts, degree-cut ideals, and theorem verifiers.

All claims here are window-certified: a verdict only quantifies over degrees
the window lets us compute, and anything the window hides is reported as
unchecked or UNDERDETERMINED rather than silently assumed.  Subspaces that
could only be bounded from below carry per-degree flags, and every verifier
threads those flags into its own verdicts.
"""

from __future__ import annotations

import functools

import numpy as np

from . import util
from .duality import functional, gram, nondegenerate_products, selfdual_check
from .exactlin import kernel_mod, matmul_mod, rank_mod, rref
from .graded import GradedElement, GradedSubspace, WindowedGradedAlgebra, col_echelon
from .report import FAIL, PASS, UNDERDETERMINED, CertifiedReport, PreconditionError


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def _injectivity(alg: WindowedGradedAlgebra, r: GradedElement, degrees, check: str) -> CertifiedReport:
    """Per degree i: PASS when ker(r * -) on A^i is zero, FAIL with a kernel
    vector otherwise; degrees whose image degree leaves the window are unchecked."""
    dr, vec = r.degree, r.vector[:, None]

    def kernel(i: int):
        if i + dr > alg.window[1]:
            return None
        ker = kernel_mod(alg.products(dr, vec, i, None)[:, 0], alg.p)
        return (PASS, None) if ker.shape[1] == 0 else (FAIL, {"kernel_vector": ker[:, 0].tolist()})

    return CertifiedReport.sweep(check, degrees, kernel)


def regularity(alg: WindowedGradedAlgebra, r: GradedElement) -> CertifiedReport:
    """Is r regular on the non-negative part, as far as the window can see?

    Clause ``kernels`` checks ker(r * -) = 0 on A^i for i in [0, d_max];
    clause ``central`` is the centrality report, because regularity of a
    non-central element is not a meaningful claim.  The report passes when
    neither clause fails.
    """
    dr = r.degree
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


def tor_part(alg: WindowedGradedAlgebra, r: GradedElement) -> GradedSubspace:
    """Union of kernels of powers of r, degree by degree.

    Per degree the kernel chain ker r ⊆ ker r^2 ⊆ ... is walked until it
    stabilises once (K_k = K_{k+1}), fills the whole degree, or the window
    runs out of room.  A single plateau does not in general certify the
    chain has terminated (it can jump again later), so a plateau-certified
    degree records how it was certified in the notes; callers that hold a
    regularity hypothesis can do sharper certification themselves.  Degrees
    where the window ends the walk early are flagged UNDERDETERMINED and the
    stored basis, the kernel of the last power the window holds, is only a
    lower bound.
    """
    dr, vec = r.degree, r.vector[:, None]
    if dr <= 0:
        raise ValueError(f"tor_part needs a positive-degree element, got degree {dr}")
    d_max = alg.window[1]
    basis: dict[int, np.ndarray] = {}
    flags: set[int] = set()
    notes: dict[int, str] = {}
    # the walks of different degrees share the matrices of r
    times_r = functools.cache(lambda e: alg.products(dr, vec, e, None)[:, 0])

    def walk(d: int):
        dim = alg.dim(d)
        if dim == 0:
            return d, np.zeros((0, 0), dtype=np.int64), False, "zero degree"
        prev = None
        last = np.zeros((dim, 0), dtype=np.int64)
        mat = None
        certified = False
        note = "no power checkable inside the window"
        for k in range(1, (d_max - d) // dr + 1):
            step = times_r(d + (k - 1) * dr)
            mat = step if mat is None else matmul_mod(step, mat, alg.p)
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


# ---------------------------------------------------------------------------
# degree-cut ideals
# ---------------------------------------------------------------------------


def ideal_leq(alg: WindowedGradedAlgebra, n: int) -> GradedSubspace:
    """Smallest two-sided ideal containing every A^i with i <= n.

    The in-window part is grown to its least fixpoint under single-sided
    multiplication by a worklist.  A degree d is visited when seeded and
    again only after its span grew; a visit multiplies the span into every
    degree d + j that is not yet full and whose block (j, d) or (d, j) is
    stored (absent blocks are zero).  A visit adds only vectors the ideal
    must contain, and an empty worklist means every product of a span lies
    in its target's span, so any visiting order ends at the same least
    fixpoint, held in canonical column-echelon form.  Degrees whose value
    could be inflated by products that detour through degrees outside the
    window are found by a conservative reachability pass (multiplication
    steps are bounded by the window, so a detour can never jump across it)
    and flagged UNDERDETERMINED; degrees that are already full absorb any
    detour and stay certified.
    """
    span: dict[int, np.ndarray] = {}
    for d in alg.degrees():
        dim = alg.dim(d)
        if d <= n and dim > 0:
            span[d] = np.eye(dim, dtype=np.int64)
        else:
            span[d] = np.zeros((dim, 0), dtype=np.int64)

    step_degrees = [j for j in alg.degrees() if alg.dim(j) > 0]
    work = {d for d in alg.degrees() if span[d].shape[1]}
    while work:
        d = min(work)
        work.remove(d)
        cols = span[d]
        for j in step_degrees:
            target = d + j
            if not alg.in_window(target) or span[target].shape[1] == alg.dim(target):
                continue
            if (j, d) in alg.mult or (d, j) in alg.mult:
                # A^j * span and span * A^j, one column per product
                width = alg.dim(j) * cols.shape[1]
                left = alg.products(j, None, d, cols).reshape(alg.dim(target), width)
                right = alg.products(d, cols, j, None).reshape(alg.dim(target), width)
                merged = col_echelon(np.hstack([span[target], left, right]), alg.p)
                if merged.shape[1] > span[target].shape[1]:
                    span[target] = merged
                    work.add(target)

    escapes = {
        d + j for d in alg.degrees() if span[d].shape[1] for j in step_degrees if not alg.in_window(d + j)
    }
    flags, notes = _detour_taint(alg, n, span, escapes, step_degrees)
    return GradedSubspace(alg, span, underdetermined=frozenset(flags), notes=notes)


def _detour_taint(alg, n, span, escapes, step_degrees):
    """Conservative set of window degrees reachable from out-of-window mass.

    Every multiplication step is a window degree of nonzero dimension, so a
    product chain moves in hops shorter than the window and cannot cross it
    without landing in it.  One worklist search over the band
    [d_min - width, d_max + width] therefore suffices: a degree past a band
    edge stands for everything past it and taints that whole band side.  The
    search starts from the low band (degrees below both n and the window are
    generators the window never saw, for any n), the escapes, and the
    degrees in (d_max, n].  Full window degrees absorb taint: nothing can be
    added to them and their onward products are already part of the
    computed fixpoint.
    """
    d_min, d_max = alg.window
    width = d_max - d_min + 1
    band_lo, band_hi = d_min - width, d_max + width
    work = [band_lo - 1, *escapes, *range(d_max + 1, min(n, band_hi + 1) + 1)]
    tainted: set[int] = set()
    while work:
        d = min(max(work.pop(), band_lo - 1), band_hi + 1)
        if d in tainted or (alg.in_window(d) and span[d].shape[1] == alg.dim(d)):
            continue
        tainted.add(d)
        if d < band_lo:
            work.extend(range(band_lo, d_min))
        elif d > band_hi:
            work.extend(range(d_max + 1, band_hi + 1))
        else:
            work.extend(d + j for j in step_degrees)

    flags = {d for d in tainted if alg.in_window(d)}
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
        prods = alg.products(i, left.vectors(i), j, right.vectors(j))
        if np.any(prods):
            # the first pair in (right index, left index) order
            y, x, _ = np.argwhere(prods.transpose(2, 1, 0))[0].tolist()
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


def _selfdual_functional(alg: WindowedGradedAlgebra, n: int, lam) -> np.ndarray:
    """``lam`` as a vector on A^n; PreconditionError unless it passes selfdual_check."""
    if not selfdual_check(alg, n, lam).passed:
        raise PreconditionError("functional does not pass selfdual_check")
    return functional(alg, n, lam)


def _orthogonality(alg: WindowedGradedAlgebra, n: int, vec: np.ndarray, tor: GradedSubspace) -> CertifiedReport:
    """The orthogonality sweep of the pairing of ``vec`` over the cut ideal and a given torsion part."""
    ideal = ideal_leq(alg, n)

    def orthogonal(i: int):
        j = n - i
        if not alg.in_window(j):
            return None
        if i in ideal.underdetermined or j in tor.underdetermined:
            return UNDERDETERMINED, None, "input subspaces are lower bounds here"
        u, t = ideal.vectors(i), tor.vectors(j)
        perp = kernel_mod(matmul_mod(u.T, gram(alg, n, vec, i), alg.p), alg.p)
        perp_matches = np.array_equal(col_echelon(perp, alg.p), t)
        if u.shape[1] == alg.dim(j) - t.shape[1] and perp_matches:
            return PASS, None
        return FAIL, {
            "dim_ideal": u.shape[1],
            "dim_tor_partner": t.shape[1],
            "dim_partner": alg.dim(j),
            "perp_matches": perp_matches,
        }

    return CertifiedReport.sweep("orthogonality", alg.degrees(), orthogonal, n=n)


def check_orthogonality(alg: WindowedGradedAlgebra, r: GradedElement, n: int, lam) -> CertifiedReport:
    """Torsion is the orthogonal complement of the cut ideal, degreewise.

    At degree i (with n-i in the window) the claims are
    dim I^i = dims(n-i) - dim Tor^{n-i} and Tor^{n-i} = (I^i)^perp under the
    degree-n Gram pairing.  Degrees where either input subspace is only a
    lower bound come back UNDERDETERMINED: the torsion part is tor_part's,
    certified by the window alone.  verify_depth2 runs the same sweep on
    the torsion part its certified regular sequence sharpens.
    """
    return _orthogonality(alg, n, _selfdual_functional(alg, n, lam), tor_part(alg, r))


def check_periodicity(alg: WindowedGradedAlgebra, r: GradedElement) -> CertifiedReport:
    """Multiplication by r is bijective on every degree the window can check."""
    dr, vec = r.degree, r.vector[:, None]

    def bijective(i: int):
        if not alg.in_window(i + dr):
            return None
        di, dj = alg.dim(i), alg.dim(i + dr)
        rank = int(rank_mod(alg.products(dr, vec, i, None)[:, 0], alg.p))
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
    dr, rvec = r.degree, r.vector[:, None]
    drt, rtvec = rt.degree, rt.vector[:, None]
    if dr <= 0 or drt <= 0:
        raise ValueError("regular sequence elements must have positive degree")
    rep = CertifiedReport(check="regular_sequence2")
    first = regularity(alg, r)
    rep.clauses["first"] = first.clauses["kernels"]
    rep.clauses["first_central"] = first.clauses["central"]
    rep.clauses["second_central"] = alg.is_central(rt)
    d_max = alg.window[1]

    # the sweep asks for some spans twice, as i + |rt| - |r| and as i - |r|
    @functools.cache
    def image_of_r(src: int) -> np.ndarray:
        """Columns spanning r*A^{src} in A^{src+dr}: a zero span for src < 0,
        since the quotient is by r*A^{>=0}, or where src is absent."""
        if src < 0 or not alg.in_window(src) or alg.dim(src) == 0:
            return np.zeros((alg.dim(src + dr), 0), dtype=np.int64)
        return col_echelon(alg.products(dr, rvec, src, None)[:, 0], alg.p)

    def regular_mod_first(i: int):
        if i + drt > d_max:
            return None
        di = alg.dim(i)
        if di == 0:
            return PASS, None
        lt = alg.products(drt, rtvec, i, None)[:, 0]
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
    """Certify every one of tor_part's flags using the regular-on-nonnegative hypothesis.

    Under that hypothesis Tor^d = 0 for d >= 0, and for d < 0 the chain
    ker r^k is already exhausted at k0 = ceil(-d/|r|) because r^{k0} maps
    A^d into non-negative degrees where r acts injectively.  That degree,
    d + k0*|r|, lies in [0, |r|) and so inside the window, since r does.
    Every flagged degree therefore keeps its stored basis, which is exact.
    For d < 0 the walk ran to the window's edge without a plateau, and
    ker r^{k0} = ker r^{k0+1} would have been one, so the walk ended at
    power k0 and holds ker r^{k0}.  For d >= 0 the walk stored either no
    power or the kernel of r on A^d, and both are zero.
    """
    dr = r.degree
    notes = dict(tor.notes)
    for d in tor.underdetermined:
        notes[d] = (
            "zero by the regularity hypothesis" if d >= 0
            else f"exact at power {-(d // dr)} under the regularity hypothesis"
        )
    return GradedSubspace(alg, tor.basis, notes=notes)


def _tensor_zero_sweep(alg, left_degrees, right_degrees, check_name) -> CertifiedReport:
    """All in-window products A^i * A^j with i, j drawn from the given degree sets vanish."""

    def vanishes(key):
        tensor = alg.mult.get(key)
        if tensor is None:
            return PASS, None
        a, b, c = (int(v) for v in np.argwhere(tensor)[0])
        return FAIL, {"left_index": a, "right_index": b, "component": c}

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
        for block, order in (((i, j), "right"), ((j, i), "left")):
            if block in alg.mult:
                a, b, c = (int(v) for v in np.argwhere(alg.mult[block])[0])
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
        raise PreconditionError(f"products into degree {n} are degenerate at degree {nondeg.failures()[0].key}")

    report = CertifiedReport(check="verify_depth2", n=n)

    tor = _tor_under_regularity(alg, r, tor_part(alg, r))

    def negative_torsion(d: int):
        """Tor^d is all of A^d for d < 0 and zero for d >= 0."""
        note, dim_tor, dim = tor.notes.get(d), tor.dim(d), alg.dim(d)
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
        report.clauses["orthogonality"] = _orthogonality(alg, n, _selfdual_functional(alg, n, lam), tor)
    elif lam is not None:
        report.notes.append("duality clause only applies when n = -1; skipped")
    else:
        report.notes.append("no functional supplied; duality clause skipped")
    return report

"""Command-line interface.

Three subcommands:

* ``analyze`` runs a named check on a degree-windowed graded algebra file.
* ``tate`` builds the windowed stable self-extension ring of a module over a
  finite-dimensional local algebra file, printing dimensions and optionally
  emitting the ring in the graded-algebra JSON format.
* ``reproduce`` replays a named end-to-end computation against its expected
  values.

Exit codes: 0 all checks passed / values matched; 1 a check failed or a
value mismatched; 2 malformed input (file, format, window, arguments);
3 a verifier's mathematical preconditions were rejected.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import duality, gallery, stmod, structure, util
from .graded import (
    AlgebraFormatError,
    GradedElement,
    GradedSubspace,
    WindowedGradedAlgebra,
    algebra_from_json,
    algebra_to_json,
    check_window,
    load_json,
)
from .report import FAIL, PASS, PreconditionError

_DEGREE_INDEX = re.compile(r"^(-?\d+):(\d+)$")


def _load_graded(path: str) -> WindowedGradedAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(fh.read())


def _load_fd(path: str) -> stmod.FDAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        payload = load_json(fh.read())
    return gallery.fd_algebra_from_payload(payload)


def _element(alg: WindowedGradedAlgebra, spec: str) -> GradedElement:
    """Pick a basis element by label, or by 'degree:index'."""
    if alg.labels is not None:
        for names in alg.labels.values():
            if spec in names:
                return alg.element_by_label(spec)
    m = _DEGREE_INDEX.match(spec)
    if m:
        return alg.basis_element(int(m.group(1)), int(m.group(2)))
    raise AlgebraFormatError(f"no basis element {spec!r} (use a label or 'degree:index')")


def _lam(arg: str) -> list[int]:
    try:
        return [int(x) for x in arg.split(",")]
    except ValueError as exc:
        raise AlgebraFormatError(f"functional must be comma-separated integers: {arg!r}") from exc


def _subspace_payload(sub: GradedSubspace) -> dict:
    alg = sub.algebra
    return {
        "dims": {str(d): sub.dim(d) for d in alg.degrees()},
        "underdetermined": sorted(sub.underdetermined),
        "dropped": [],  # always empty; perfbench/references.json pins the tor/ideal bytes
        "notes": {str(d): sub.notes[d] for d in sorted(sub.notes)},
        "basis": {str(d): sub.vectors(d).tolist() for d in alg.degrees() if sub.dim(d) > 0},
    }


def _print_subspace(name: str, sub: GradedSubspace) -> None:
    print(name)
    for d in sub.algebra.degrees():
        flag = "  [UNDERDETERMINED lower bound]" if d in sub.underdetermined else ""
        note = f"  ({sub.notes[d]})" if d in sub.notes and flag == "" else ""
        print(f"  {d}: dim {sub.dim(d)}{flag}{note}")


def _emit(payload: dict, passed: bool, as_json: bool, text: str | None = None) -> int:
    if as_json:
        sys.stdout.write(util.canonical_json(payload))
    else:
        if text:
            print(text)
        print(f"RESULT: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    alg = _load_graded(args.algebra)
    check = args.check

    def need(flag: str, value):
        if value is None:
            raise AlgebraFormatError(f"--check {check} requires --{flag}")
        return value

    if check == "validate":
        rep = alg.validate()
    elif check == "central":
        rep = alg.is_central(_element(alg, need("r", args.r)))
    elif check == "nondegenerate":
        rep = duality.nondegenerate_products(alg, need("n", args.n))
    elif check == "selfdual":
        rep = duality.selfdual_check(alg, need("n", args.n), _lam(need("lam", args.lam)))
    elif check == "find-functional":
        res = duality.find_selfdual_functional(alg, need("n", args.n), seed=args.seed, samples=args.samples)
        payload = {
            "command": "find-functional",
            "n": args.n,
            "found": res.found,
            "functional": res.functional.tolist() if res.found else None,
            "tried": res.tried,
            "strategy": res.strategy,
        }
        text = (
            f"functional {res.functional.tolist()} found after {res.tried} candidates ({res.strategy})"
            if res.found
            else f"no functional found within the search budget ({res.tried} candidates, {res.strategy})"
        )
        return _emit(payload, res.found, args.json, text)
    elif check == "regularity":
        rep = structure.regularity(alg, _element(alg, need("r", args.r)))
    elif check == "tor":
        sub = structure.tor_part(alg, _element(alg, need("r", args.r)))
        payload = {"command": "tor", "subspace": _subspace_payload(sub)}
        if args.json:
            sys.stdout.write(util.canonical_json(payload))
        else:
            _print_subspace("torsion part", sub)
        return 0
    elif check == "ideal":
        sub = structure.ideal_leq(alg, need("n", args.n))
        payload = {"command": "ideal", "n": args.n, "subspace": _subspace_payload(sub)}
        if args.json:
            sys.stdout.write(util.canonical_json(payload))
        else:
            _print_subspace(f"ideal generated by degrees <= {args.n}", sub)
        return 0
    elif check == "periodicity":
        rep = structure.check_periodicity(alg, _element(alg, need("r", args.r)))
    elif check == "depth1":
        rep = structure.verify_depth1(alg, _element(alg, need("r", args.r)), need("n", args.n))
    elif check == "orthogonality":
        rep = structure.check_orthogonality(
            alg, _element(alg, need("r", args.r)), need("n", args.n), _lam(need("lam", args.lam))
        )
    elif check == "regseq2":
        rep = structure.is_regular_sequence2(
            alg, _element(alg, need("r", args.r)), _element(alg, need("rt", args.rt))
        )
    elif check == "depth2":
        lam = _lam(args.lam) if args.lam is not None else None
        rep = structure.verify_depth2(
            alg, _element(alg, need("r", args.r)), _element(alg, need("rt", args.rt)),
            need("n", args.n), lam,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise AlgebraFormatError(f"unknown check {check!r}")

    payload = {"command": check, "report": rep.to_json_dict()}
    return _emit(payload, rep.passed, args.json, rep.render_text())


# ---------------------------------------------------------------------------
# tate
# ---------------------------------------------------------------------------


def _cmd_tate(args) -> int:
    window = check_window(args.window)
    alg = _load_fd(args.algebra)
    axioms = alg.validate()
    if not axioms.passed:
        failed = ", ".join(str(f.key) for f in axioms.failures())
        raise AlgebraFormatError(f"algebra fails its axioms: {failed}")
    if args.module == "trivial":
        module = stmod.trivial_module(alg)
    else:
        _, module = stmod.regular_bimodule(alg)
    ring = stmod.tate_ring(module, window)
    validation = ring.validate()
    payload = {
        "command": "tate",
        "module": args.module,
        "window": [window[0], window[1]],
        "dims": {str(d): ring.dim(d) for d in ring.degrees()},
        "validated": validation.passed,
    }
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(algebra_to_json(ring))
        payload["emitted"] = args.emit
    lines = [f"stable self-extension dimensions over window [{window[0]}, {window[1]}]:"]
    lines.extend(f"  {d}: {ring.dim(d)}" for d in ring.degrees())
    lines.append(f"ring axioms: {'PASS' if validation.passed else 'FAIL'}")
    if args.emit:
        lines.append(f"wrote {args.emit}")
    return _emit(payload, validation.passed, args.json, "\n".join(lines))


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _step(label: str, expected, got) -> dict:
    return {"step": label, "expected": expected, "got": got, "ok": expected == got}


def _square_of_degree_one(ring: WindowedGradedAlgebra, index: int) -> GradedElement:
    b = ring.basis_element(1, index)
    return ring.multiply(b, b)


def _pipeline_selfext_depth2(exponents, p, window, expected_dims) -> list[dict]:
    alg = gallery.build_truncated_ci(exponents, p)
    ring = stmod.tate_ring(stmod.trivial_module(alg), window)
    steps = [_step("stable self-extension dims", list(expected_dims),
                   [ring.dim(d) for d in ring.degrees()])]
    search = duality.find_selfdual_functional(ring, -1)
    steps.append(_step("selfdual functional at degree -1", "found",
                       "found" if search.found else "not found"))
    if search.found:
        r = _square_of_degree_one(ring, 0)
        rt = _square_of_degree_one(ring, 1)
        rep = structure.verify_depth2(ring, r, rt, -1, search.functional)
        steps.append(_step("depth-2 verification", PASS, PASS if rep.passed else FAIL))
    return steps


def _pipeline_klein_four() -> list[dict]:
    return _pipeline_selfext_depth2((2, 2), 2, (-3, 3), [3, 2, 1, 1, 2, 3, 4])


def _pipeline_gorenstein0() -> list[dict]:
    return _pipeline_selfext_depth2((2, 2), 3, (-3, 3), [3, 2, 1, 1, 2, 3, 4])


def _pipeline_trivial_extension() -> list[dict]:
    ring = gallery.build_trivial_extension(2, (-4, 3), 2)
    steps = [_step("algebra axioms", PASS, PASS if ring.validate().passed else FAIL)]
    nondeg = duality.nondegenerate_products(ring, -1)
    steps.append(_step("degree -1 products nondegenerate", PASS,
                       PASS if nondeg.passed else FAIL))
    r = ring.element_by_label("w1")
    rt = ring.element_by_label("w2")
    rep = structure.verify_depth2(ring, r, rt, -1, [1])
    steps.append(_step("depth-2 verification", PASS, PASS if rep.passed else FAIL))
    return steps


def _pipeline_hh_truncated(exponents, p) -> list[dict]:
    alg = gallery.build_truncated_ci(exponents, p)
    _, bimod = stmod.regular_bimodule(alg)
    tower = stmod.SyzygyTower(bimod)
    hh0 = stmod.tate_ext(bimod, 0, tower).dim
    steps = [_step("degree-0 stable Hochschild dim",
                   gallery.expected_hh0_dim(exponents, p), hh0)]
    if len(exponents) == 1:
        a = exponents[0]
        expected = gallery.expected_tate_hh_dim(a, p)
        for d in (-2, -1, 1, 2):
            got = stmod.tate_ext(bimod, d, tower).dim
            steps.append(_step(f"degree {d} stable Hochschild dim", expected, got))
    return steps


def _pipeline_ci_ext_dims(exponents, p, count) -> list[dict]:
    alg = gallery.build_truncated_ci(exponents, p)
    tower = stmod.SyzygyTower(stmod.trivial_module(alg))
    got = tower.ranks(count)
    expected = [gallery.expected_ext_dim_ci(len(exponents), n) for n in range(count)]
    return [_step("minimal-cover generator counts", expected, got)]


def _pipeline_hypersurface_periodic() -> list[dict]:
    alg = gallery.build_truncated_ci((3,), 3)
    ring = stmod.tate_ring(stmod.trivial_module(alg), (-4, 4))
    steps = [_step("all dims equal one", [1] * 9, [ring.dim(d) for d in ring.degrees()])]
    odd = ring.multiply(ring.basis_element(-1, 0), ring.basis_element(-1, 0))
    steps.append(_step("odd negative square vanishes", True, not odd.components))
    even = ring.multiply(ring.basis_element(-2, 0), ring.basis_element(-2, 0))
    steps.append(_step("even negative square nonzero", True, bool(even.components)))
    per = structure.check_periodicity(ring, ring.basis_element(2, 0))
    steps.append(_step("degree-2 element acts bijectively", PASS,
                       PASS if per.passed else FAIL))
    return steps


PIPELINES = {
    "klein-four": lambda args: _pipeline_klein_four(),
    "gorenstein0": lambda args: _pipeline_gorenstein0(),
    "trivial-extension": lambda args: _pipeline_trivial_extension(),
    "hh-truncated": lambda args: _pipeline_hh_truncated(
        tuple(args.exponents or (3,)), args.p or 2
    ),
    "ci-ext-dims": lambda args: _pipeline_ci_ext_dims(
        tuple(args.exponents or (2, 2)), args.p or 2, args.count
    ),
    "hypersurface-periodic": lambda args: _pipeline_hypersurface_periodic(),
}


def _cmd_reproduce(args) -> int:
    if args.name not in PIPELINES:
        raise AlgebraFormatError(
            f"unknown computation {args.name!r}; choose from {sorted(PIPELINES)}"
        )
    steps = PIPELINES[args.name](args)
    passed = all(s["ok"] for s in steps)
    payload = {"command": "reproduce", "name": args.name, "steps": steps, "passed": passed}
    lines = [
        f"[{'PASS' if s['ok'] else 'FAIL'}] {s['step']}: expected {s['expected']}, got {s['got']}"
        for s in steps
    ]
    return _emit(payload, passed, args.json, "\n".join(lines))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_exponents(arg: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in arg.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"exponents must be comma-separated integers: {arg!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtl",
        description="Window-certified graded algebra checks and stable self-extension rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run a check on a graded algebra file")
    pa.add_argument("algebra", help="path to a degree-windowed graded algebra JSON file")
    pa.add_argument(
        "--check",
        default="validate",
        choices=[
            "validate", "central", "nondegenerate", "selfdual", "find-functional",
            "regularity", "tor", "ideal", "periodicity", "depth1", "orthogonality",
            "regseq2", "depth2",
        ],
    )
    pa.add_argument("--n", type=int, default=None, help="pairing / cutoff degree")
    pa.add_argument("--r", default=None, help="element: a basis label or 'degree:index'")
    pa.add_argument("--rt", default=None, help="second element for sequence checks")
    pa.add_argument("--lam", default=None, help="functional coefficients, comma-separated")
    pa.add_argument("--seed", type=int, default=0, help="find-functional: seed of the randomized search")
    pa.add_argument("--samples", type=int, default=200, help="find-functional: randomized search budget")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.set_defaults(fn=_cmd_analyze)

    pt = sub.add_parser("tate", help="stable self-extension ring of a module")
    pt.add_argument("algebra", help="path to a finite-dimensional algebra JSON file")
    pt.add_argument("--module", default="trivial", choices=["trivial", "bimodule"])
    pt.add_argument("--window", type=int, nargs=2, default=(-3, 3), metavar=("LO", "HI"))
    pt.add_argument("--emit", default=None, help="write the ring as graded-algebra JSON")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(fn=_cmd_tate)

    pr = sub.add_parser("reproduce", help="replay a named computation")
    pr.add_argument("name", help=f"one of {sorted(PIPELINES)}")
    pr.add_argument("--exponents", type=_parse_exponents, default=None)
    pr.add_argument("--p", type=int, default=None)
    pr.add_argument("--count", type=int, default=5)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition rejected: {exc}", file=sys.stderr)
        return 3
    except (AlgebraFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

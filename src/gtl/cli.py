"""Command-line interface.

Three subcommands:

* ``analyze`` runs a named check on a degree-windowed graded algebra file.
* ``tate`` builds the windowed stable self-extension ring of a module over a
  finite-dimensional local algebra file, printing dimensions and optionally
  emitting the ring in the graded-algebra JSON format.
* ``reproduce`` replays a named end-to-end computation against its expected
  values.

Exit codes: 0 all checks passed / values matched; 1 a check failed or a
value mismatched; 2 malformed input (file, format, window, arguments, an
``analyze`` option the check does not read, a ``reproduce`` option the
pipeline does not read) or an input too large for the memory at hand; 3 a
verifier's mathematical preconditions were rejected.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import duality, gallery, stmod, structure, util
from .graded import (
    DEGREE_INDEX,
    WINDOW_BOUND,
    AlgebraFormatError,
    GradedElement,
    GradedSubspace,
    WindowedGradedAlgebra,
    algebra_from_json,
    algebra_to_json,
    check_window,
    int_array,
    load_json,
)
from .report import FAIL, PASS, PreconditionError

_INTEGERS = re.compile(r"^-?\d+(,-?\d+)*$")
# main() joins each option here to a following value that matches its pattern
_JOINED = {"--r": DEGREE_INDEX, "--rt": DEGREE_INDEX, "--lam": _INTEGERS}


def _lam(arg: str) -> np.ndarray:
    try:
        values = [int(x) for x in arg.split(",")]
    except ValueError as exc:
        raise AlgebraFormatError(f"functional must be comma-separated integers: {arg!r}") from exc
    return int_array(values, "functional", ndim=1)


def _subspace_payload(sub: GradedSubspace) -> dict:
    alg = sub.algebra
    return {
        "dims": {str(d): sub.dim(d) for d in alg.degrees()},
        "underdetermined": sorted(sub.underdetermined),
        "dropped": [],  # always empty; perfbench/references.json pins the tor/ideal bytes
        "notes": {str(d): sub.notes[d] for d in sorted(sub.notes)},
        "basis": {str(d): sub.vectors(d).tolist() for d in alg.degrees() if sub.dim(d) > 0},
    }


def _subspace_text(name: str, sub: GradedSubspace) -> str:
    lines = [name]
    for d in sub.algebra.degrees():
        flag = "  [UNDERDETERMINED lower bound]" if d in sub.underdetermined else ""
        note = f"  ({sub.notes[d]})" if d in sub.notes and flag == "" else ""
        lines.append(f"  {d}: dim {sub.dim(d)}{flag}{note}")
    return "\n".join(lines)


def _emit(payload: dict, passed: bool | None, as_json: bool, text: str | None = None) -> int:
    """Print a result; with no verdict (None) there is no RESULT line and the exit code is 0."""
    if as_json:
        sys.stdout.write(util.canonical_json(payload))
    else:
        if text:
            print(text)
        if passed is not None:
            print(f"RESULT: {'PASS' if passed else 'FAIL'}")
    return 1 if passed is False else 0


def _bind(args, table: dict, name: str, label: str) -> dict:
    """The options that ``table[name]`` reads, each as given or else defaulted.

    A command takes the options that some entry of its table reads; a required
    option not given, or a given option this entry does not read, is bad input.
    """
    _, required, defaults = table[name]
    for opt in required:
        if getattr(args, opt) is None:
            raise AlgebraFormatError(f"{label} requires --{opt}")
    options = dict.fromkeys(opt for _, req, dflt in table.values() for opt in (*req, *dflt))
    given = {opt: getattr(args, opt) for opt in options if getattr(args, opt) is not None}
    unread = [f"--{opt}" for opt in given if opt not in required and opt not in defaults]
    if unread:
        raise AlgebraFormatError(f"{args.command} {label} does not read {', '.join(unread)}")
    return {**defaults, **given}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _find_functional(alg: WindowedGradedAlgebra, n: int, seed: int, samples: int) -> tuple:
    if not 1 <= samples <= duality.EXHAUSTIVE_LIMIT:
        raise AlgebraFormatError(f"--samples {samples} must lie in [1, {duality.EXHAUSTIVE_LIMIT}]")
    res = duality.find_selfdual_functional(alg, n, seed=seed, samples=samples)
    payload = {
        "command": "find-functional",
        "n": n,
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
    return payload, res.found, text


def _tor(alg: WindowedGradedAlgebra, r: GradedElement) -> tuple:
    sub = structure.tor_part(alg, r)
    return {"command": "tor", "subspace": _subspace_payload(sub)}, None, _subspace_text("torsion part", sub)


def _ideal(alg: WindowedGradedAlgebra, n: int) -> tuple:
    sub = structure.ideal_leq(alg, n)
    payload = {"command": "ideal", "n": n, "subspace": _subspace_payload(sub)}
    return payload, None, _subspace_text(f"ideal generated by degrees <= {n}", sub)


# Each check: its function of the algebra and its options (by keyword), the
# options it requires, and the options it reads with their defaults.  A
# function returns a report or a (payload, verdict, text) result.  The library
# function is looked up at each call, so that perfbench's tracer sees it.
CHECKS = {
    "validate": (lambda alg: alg.validate(), (), {}),
    "central": (lambda alg, r: alg.is_central(r), ("r",), {}),
    "nondegenerate": (lambda alg, **o: duality.nondegenerate_products(alg, **o), ("n",), {}),
    "selfdual": (lambda alg, **o: duality.selfdual_check(alg, **o), ("n", "lam"), {}),
    "find-functional": (_find_functional, ("n",), {"seed": 0, "samples": 200}),
    "regularity": (lambda alg, **o: structure.regularity(alg, **o), ("r",), {}),
    "tor": (_tor, ("r",), {}),
    "ideal": (_ideal, ("n",), {}),
    "periodicity": (lambda alg, **o: structure.check_periodicity(alg, **o), ("r",), {}),
    "depth1": (lambda alg, **o: structure.verify_depth1(alg, **o), ("r", "n"), {}),
    "orthogonality": (lambda alg, **o: structure.check_orthogonality(alg, **o), ("r", "n", "lam"), {}),
    "regseq2": (lambda alg, **o: structure.is_regular_sequence2(alg, **o), ("r", "rt"), {}),
    "depth2": (lambda alg, **o: structure.verify_depth2(alg, **o), ("r", "rt", "n"), {"lam": None}),
}


def _cmd_analyze(args) -> int:
    with open(args.algebra, "r", encoding="utf-8") as fh:
        alg = algebra_from_json(fh.read())
    options = _bind(args, CHECKS, args.check, f"--check {args.check}")
    for opt in ("r", "rt"):
        if opt in options:
            options[opt] = alg.element_by_label(options[opt])
    if options.get("lam") is not None:
        options["lam"] = _lam(options["lam"])
    result = CHECKS[args.check][0](alg, **options)
    if not isinstance(result, tuple):  # a report
        result = {"command": args.check, "report": result.to_json_dict()}, result.passed, result.render_text()
    payload, passed, text = result
    return _emit(payload, passed, args.json, text)


# ---------------------------------------------------------------------------
# tate
# ---------------------------------------------------------------------------

# each --module choice: the module it builds over the algebra
MODULES = {"trivial": stmod.trivial_module, "bimodule": stmod.regular_bimodule}


def _cmd_tate(args) -> int:
    window = check_window(args.window)
    with open(args.algebra, "r", encoding="utf-8") as fh:
        alg = gallery.fd_algebra_from_payload(load_json(fh.read()))
    axioms = alg.validate()
    if not axioms.passed:
        failed = ", ".join(str(f.key) for f in axioms.failures())
        raise AlgebraFormatError(f"algebra fails its axioms: {failed}")
    ring = stmod.tate_ring(MODULES[args.module](alg), window)
    validation = ring.validate()
    payload = {
        "command": "tate",
        "module": args.module,
        "window": [window[0], window[1]],
        "dims": {str(d): ring.dim(d) for d in ring.degrees()},
        "validated": validation.passed,
    }
    if args.emit:
        # the whole text first, so that a failure leaves an existing file as it was
        text = algebra_to_json(ring)
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    tower = stmod.SyzygyTower(stmod.regular_bimodule(alg))
    hh0 = stmod.tate_ext(tower, 0).dim
    steps = [_step("degree-0 stable Hochschild dim",
                   gallery.expected_hh0_dim(exponents, p), hh0)]
    if len(exponents) == 1:
        a = exponents[0]
        expected = gallery.expected_tate_hh_dim(a, p)
        for d in (-2, -1, 1, 2):
            got = stmod.tate_ext(tower, d).dim
            steps.append(_step(f"degree {d} stable Hochschild dim", expected, got))
    return steps


def _pipeline_ci_ext_dims(exponents, p, count) -> list[dict]:
    if not 1 <= count <= WINDOW_BOUND:
        raise AlgebraFormatError(f"--count {count} must lie in [1, {WINDOW_BOUND}]")
    alg = gallery.build_truncated_ci(exponents, p)
    tower = stmod.SyzygyTower(stmod.trivial_module(alg))
    got = tower.ranks(count)
    # a variable of exponent 1 is zero in the algebra: only the others count
    nvars = sum(1 for a in exponents if a >= 2)
    expected = [gallery.expected_ext_dim_ci(nvars, n) for n in range(count)]
    return [_step("minimal-cover generator counts", expected, got)]


def _pipeline_hypersurface_periodic() -> list[dict]:
    alg = gallery.build_truncated_ci((3,), 3)
    ring = stmod.tate_ring(stmod.trivial_module(alg), (-4, 4))
    steps = [_step("all dims equal one", [1] * 9, [ring.dim(d) for d in ring.degrees()])]
    odd = ring.multiply(ring.basis_element(-1, 0), ring.basis_element(-1, 0))
    steps.append(_step("odd negative square vanishes", True, not odd.vector.any()))
    even = ring.multiply(ring.basis_element(-2, 0), ring.basis_element(-2, 0))
    steps.append(_step("even negative square nonzero", True, bool(even.vector.any())))
    per = structure.check_periodicity(ring, ring.basis_element(2, 0))
    steps.append(_step("degree-2 element acts bijectively", PASS,
                       PASS if per.passed else FAIL))
    return steps


# each pipeline as a CHECKS entry: it requires no option; the two depth-2
# pipelines fix their ring, which no option changes
PIPELINES = {
    "klein-four": (functools.partial(_pipeline_selfext_depth2, (2, 2), 2, (-3, 3), [3, 2, 1, 1, 2, 3, 4]), (), {}),
    "gorenstein0": (functools.partial(_pipeline_selfext_depth2, (2, 2), 3, (-3, 3), [3, 2, 1, 1, 2, 3, 4]), (), {}),
    "trivial-extension": (_pipeline_trivial_extension, (), {}),
    "hh-truncated": (_pipeline_hh_truncated, (), {"exponents": (3,), "p": 2}),
    "ci-ext-dims": (_pipeline_ci_ext_dims, (), {"exponents": (2, 2), "p": 2, "count": 5}),
    "hypersurface-periodic": (_pipeline_hypersurface_periodic, (), {}),
}


def _cmd_reproduce(args) -> int:
    if args.name not in PIPELINES:
        raise AlgebraFormatError(f"unknown computation {args.name!r}; choose from {sorted(PIPELINES)}")
    steps = PIPELINES[args.name][0](**_bind(args, PIPELINES, args.name, args.name))
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
    pa.add_argument("--check", default="validate", choices=list(CHECKS))
    pa.add_argument("--n", type=int, default=None, help="pairing / cutoff degree")
    pa.add_argument("--r", default=None, help="element: a basis label or 'degree:index'")
    pa.add_argument("--rt", default=None, help="second element for sequence checks")
    pa.add_argument("--lam", default=None, help="functional coefficients, comma-separated")
    pa.add_argument("--seed", type=int, default=None, help="find-functional: seed of the randomized search")
    pa.add_argument("--samples", type=int, default=None, help="find-functional: randomized search budget")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.set_defaults(fn=_cmd_analyze)

    pt = sub.add_parser("tate", help="stable self-extension ring of a module")
    pt.add_argument("algebra", help="path to a finite-dimensional algebra JSON file")
    pt.add_argument("--module", default="trivial", choices=list(MODULES))
    pt.add_argument("--window", type=int, nargs=2, default=(-3, 3), metavar=("LO", "HI"))
    pt.add_argument("--emit", default=None, help="write the ring as graded-algebra JSON")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(fn=_cmd_tate)

    pr = sub.add_parser("reproduce", help="replay a named computation")
    pr.add_argument("name", help=f"one of {sorted(PIPELINES)}")
    pr.add_argument("--exponents", type=_parse_exponents, default=None)
    pr.add_argument("--p", type=int, default=None)
    pr.add_argument("--count", type=int, default=None)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    # argparse reads a negative 'degree:index' such as -1:0, or a functional
    # such as -1,1, as an option, so "--r -1:0" is passed on as "--r=-1:0"
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] in _JOINED and _JOINED[argv[k - 1]].match(argv[k]):
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition rejected: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"input error: out of memory{detail}; try a smaller window or algebra", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

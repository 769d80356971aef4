"""The benchmark's workloads: seeded inputs, one pass through ``gtl.cli.main``,
and the correctness gate every pass must clear.

A pass is what a user runs: ``gtl tate ... --emit ring.json --json`` for the
two Tate workloads, and a fixed sequence of seven ``gtl analyze ... --json``
checks for ``analyze-te3``.  ``gtl`` only ever sees the JSON files written
here.

Seeds.  Seed 0 is the gallery basis.  Any other seed relabels the basis by a
random signed permutation (signs only matter for p > 2): on the algebra basis
for the Tate workloads, within each degree for the graded ring, with labels
moving along.  The emitted bytes depend on the basis, so every relabeling has
its own recorded output hash in ``references.json``.  Seeds cycle through
``INPUT_VARIANTS`` relabelings: seed 0 is variant 0, and seed s != 0 is
variant 1 + (s - 1) mod (INPUT_VARIANTS - 1), so every non-zero seed relabels.

Dense random bases are deliberately left out: a dense change of basis took
``tate-hh6`` from 8.6 s to 180 s per pass, far beyond a run's budget.  They
are a candidate workload of their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The benchmark measures the sources next to it, never an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "gtl" / "__init__.py").is_file():
    raise ImportError(f"no gtl sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gtl import cli, gallery, stmod  # noqa: E402
from gtl.graded import WindowedGradedAlgebra, algebra_to_json  # noqa: E402

if SRC not in Path(cli.__file__).resolve().parents:
    raise ImportError(f"gtl was imported from {cli.__file__}, not from {SRC}")

INPUT_VARIANTS = 32
REFERENCES = Path(__file__).with_name("references.json")

ANALYZE_CHECKS = (
    ("--check", "validate"),
    ("--check", "nondegenerate", "--n", "-1"),
    ("--check", "find-functional", "--n", "-1"),
    ("--check", "tor", "--r", "w1"),
    ("--check", "ideal", "--n", "-1"),
    ("--check", "regseq2", "--r", "w1", "--rt", "w2"),
    ("--check", "depth2", "--r", "w1", "--rt", "w2", "--n", "-1", "--lam", "1"),
)


def input_variant(seed: int) -> int:
    """Which of the recorded relabelings a seed selects."""
    return 0 if seed == 0 else 1 + (seed - 1) % (INPUT_VARIANTS - 1)


def signed_permutation(n: int, p: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """New basis vector i is sign[i] times old basis vector perm[i]."""
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [1] * n if p == 2 else [rng.choice((1, -1)) for _ in range(n)]
    return np.array(perm, dtype=np.int64), np.array(sign, dtype=np.int64)


def relabel_fd(alg: stmod.FDAlgebra, rng: random.Random) -> stmod.FDAlgebra:
    """The same algebra in a signed-permuted basis."""
    p = alg.p
    perm, sign = signed_permutation(alg.dim, p, rng)
    mult = alg.mult[np.ix_(perm, perm, perm)] * sign[:, None, None] * sign[None, :, None] * sign[None, None, :]
    labels = None
    if alg.labels is not None:
        labels = tuple(("-" if s < 0 else "") + alg.labels[i] for i, s in zip(perm, sign))
    return stmod.FDAlgebra(
        alg.field, alg.dim, mult % p, alg.unit[perm] * sign % p,
        alg.radical[perm] * sign[:, None] % p, alg.symmetrizing[perm] * sign % p, labels,
    )


def relabel_graded(alg: WindowedGradedAlgebra, rng: random.Random) -> WindowedGradedAlgebra:
    """The same graded ring with each degree's basis signed-permuted."""
    p = alg.p
    moves = {d: signed_permutation(alg.dims[d], p, rng) for d in alg.degrees()}
    mult = {}
    for (i, j), block in alg.mult.items():
        (pi, si), (pj, sj), (pk, sk) = moves[i], moves[j], moves[i + j]
        signs = si[:, None, None] * sj[None, :, None] * sk[None, None, :]
        mult[(i, j)] = block[np.ix_(pi, pj, pk)] * signs % p
    p0, s0 = moves[0]
    labels = None
    if alg.labels is not None:
        labels = {d: [alg.labels[d][k] for k in moves[d][0]] for d in alg.labels}
    return WindowedGradedAlgebra(alg.field, alg.window, alg.dims, mult, alg.unit[p0] * s0 % p, labels)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``gtl`` invocation in-process; returns exit code and stdout.

    ``cli.main`` is looked up on every call so that a tracer's rebinding of
    it takes effect.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


@dataclass
class Case:
    """A workload's generated inputs for one seed, ready to run."""

    commands: list[list[str]]
    warmup: list[list[str]]
    # Checks a pass's results; returns (failure reason or None, output digest).
    inspect: Callable[[list[tuple[int, str]]], tuple[str | None, str]]
    # Files a pass writes; removed first so that a stale copy never passes the gate.
    emitted: tuple[Path, ...] = ()

    def run(self) -> list[tuple[int, str]]:
        for path in self.emitted:
            path.unlink(missing_ok=True)
        return [run_cli(argv) for argv in self.commands]


def _tate_workload(name, exponents, p, window, module, expected_dim, warmup_window):
    """A ``prepare(seed, workdir) -> Case`` for one ``gtl tate --emit --json`` pass."""

    def prepare(seed: int, workdir: Path) -> Case:
        alg = gallery.build_truncated_ci(exponents, p)
        variant = input_variant(seed)
        if variant:
            alg = relabel_fd(alg, random.Random(variant))
        algebra = workdir / f"{name}-algebra.json"
        ring = workdir / f"{name}-ring.json"
        algebra.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")

        def argv(win, emit):
            return ["tate", str(algebra), "--module", module, "--window", str(win[0]), str(win[1]),
                    "--emit", str(emit), "--json"]

        expected = {str(d): expected_dim(d) for d in range(window[0], window[1] + 1)}

        def inspect(results):
            (code, out), = results
            if code != 0:
                return f"gtl tate exited {code}", ""
            payload = json.loads(out)
            if payload.get("validated") is not True:
                return "emitted ring failed its axioms", ""
            if payload.get("dims") != expected:
                return f"dims {payload.get('dims')} differ from the closed form {expected}", ""
            return None, hashlib.sha256(ring.read_bytes()).hexdigest()

        warmup = argv(warmup_window, workdir / f"{name}-warmup.json")
        return Case([argv(window, ring)], [warmup], inspect, (ring,))

    return prepare


def _prepare_analyze_te3(seed: int, workdir: Path) -> Case:
    variant = input_variant(seed)
    rng = random.Random(variant)
    paths = {}
    for role, window in (("input", (-9, 8)), ("warmup", (-4, 3))):
        ring = gallery.build_trivial_extension(3, window, 2)
        if variant:
            ring = relabel_graded(ring, rng)
        paths[role] = workdir / f"analyze-te3-{role}.json"
        paths[role].write_text(algebra_to_json(ring), encoding="utf-8")

    def commands(path):
        return [["analyze", str(path), "--json", *check] for check in ANALYZE_CHECKS]

    def inspect(results):
        for check, (code, _) in zip(ANALYZE_CHECKS, results):
            if code != 0:
                return f"gtl analyze {check[1]} exited {code}", ""
        return None, hashlib.sha256("".join(out for _, out in results).encode("utf-8")).hexdigest()

    return Case(commands(paths["input"]), commands(paths["warmup"]), inspect)


def _klein_dim(d: int) -> int:
    return gallery.expected_ext_dim_ci(2, d) if d >= 0 else gallery.expected_ext_dim_ci(2, -d - 1)


# Workload name -> prepare(seed, workdir).  BENCHMARK.json says why each is here:
# klein4 is many small eliminations at p = 2, hh6 a few large ones at odd p,
# and te3 exercises the analyze checks without touching stmod.
WORKLOADS: dict[str, Callable[[int, Path], Case]] = {
    "tate-klein4": _tate_workload("tate-klein4", (2, 2), 2, (-7, 7), "trivial", _klein_dim, (-2, 2)),
    "tate-hh6": _tate_workload(
        "tate-hh6", (6,), 3, (-2, 2), "bimodule", lambda d: gallery.expected_tate_hh_dim(6, 3), (0, 0)
    ),
    "analyze-te3": _prepare_analyze_te3,
}


def load_references() -> dict[str, list[str]]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def gate(case: Case, results, reference: str) -> str | None:
    """Failure reason for a pass, or None when it is correct."""
    reason, digest = case.inspect(results)
    if reason is None and digest != reference:
        reason = f"output sha256 {digest} differs from the recorded {reference}"
    return reason

"""Outside-in tracer for gtl and the per-layer metrics it yields.

Nothing inside ``src/gtl`` knows about tracing.  ``installed`` wraps each
traced function once and rebinds *every* module-level name in ``gtl.*`` that
refers to it: ``stmod`` and ``graded`` bind ``rref`` and the solvers by name,
``structure`` binds ``nondegenerate_products``, ``selfdual_check`` and
``col_echelon``, ``stmod`` binds ``col_echelon`` and
``find_selfdual_functional``, and ``cli`` binds the JSON codecs.  Patching
``exactlin`` alone misses the ``rref`` calls made through those bindings.

Each call is one span (name, start, end, parent).  A span's self time is its
duration minus the durations of its direct children.  Metrics named
``<module>.<function>.s`` are self times, so the exact-linear-algebra numbers
add up without counting a nested ``rref`` twice; ``incl_s`` is the inclusive
time of the outermost call of that name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

RREF_BUCKETS = ((32, "lt32"), (256, "lt256"), (None, "ge256"))


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, children's duration].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.systems: set = set()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += span[2] - span[1]
            if note is not None:
                note(self, span, args, result)
            return result

        return traced

    def parent_name(self, span) -> str | None:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for name, start, end, parent, children in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self"] += (end - start) - children
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["incl"] += end - start
        return out


def _self_time(span) -> float:
    return (span[2] - span[1]) - span[4]


def _note_rref(tracer, span, args, result):
    rows, cols = np.shape(args[0])
    tracer.counts["exactlin.rref.cells"] += rows * cols
    bucket = next(label for limit, label in RREF_BUCKETS if limit is None or max(rows, cols) < limit)
    tracer.counts[f"exactlin.rref.{bucket}.calls"] += 1
    tracer.counts[f"exactlin.rref.{bucket}.s"] += _self_time(span)


def _note_matmul(tracer, span, args, result):
    a, b = args[0], args[1]
    tracer.counts["exactlin.matmul_mod.madds"] += a.shape[0] * a.shape[1] * b.shape[1]


def _note_hom_space(tracer, span, args, result):
    source, target = args[0], args[1]
    tracer.counts["stmod.hom_space.unknowns"] += source.dim * target.dim
    if tracer.parent_name(span) == "stmod.stable_hom":
        tracer.counts["stmod.stable_hom.candidates"] += result.shape[1]


def _note_stable_hom(tracer, span, args, result):
    tracer.counts["stmod.stable_hom.kept"] += result.dim


def _note_product_solve(tracer, span, args, result):
    workspace, degree, shift = args[0], args[1], args[2]
    tracer.systems.add((id(workspace), degree, shift))


def _note_search(tracer, span, args, result):
    tracer.counts["duality.find_selfdual_functional.tried"] += result.tried


# (span name, module, attribute, note).  A dotted attribute is a method.
TARGETS = (
    ("exactlin.rref", "gtl.exactlin", "rref", _note_rref),
    ("exactlin.solve_mod", "gtl.exactlin", "solve_mod", None),
    ("exactlin.kernel_mod", "gtl.exactlin", "kernel_mod", None),
    ("exactlin.rank_mod", "gtl.exactlin", "rank_mod", None),
    ("exactlin.matmul_mod", "gtl.exactlin", "matmul_mod", _note_matmul),
    ("stmod.syzygy_step", "gtl.stmod", "syzygy_step", None),
    ("stmod.hom_space", "gtl.stmod", "hom_space", _note_hom_space),
    ("stmod.projective_factor_columns", "gtl.stmod", "projective_factor_columns", None),
    ("stmod.stable_hom", "gtl.stmod", "stable_hom", _note_stable_hom),
    ("stmod.omega_lift", "gtl.stmod", "omega_lift", None),
    ("stmod.tate_ring", "gtl.stmod", "tate_ring", None),
    ("stmod.product_solve", "gtl.stmod", "_TateWorkspace.coordinates_at", _note_product_solve),
    ("graded.validate", "gtl.graded", "WindowedGradedAlgebra.validate", None),
    ("graded.col_echelon", "gtl.graded", "col_echelon", None),
    ("graded.json", "gtl.graded", "algebra_to_json", None),
    ("graded.json", "gtl.graded", "algebra_from_json", None),
    ("duality.nondegenerate_products", "gtl.duality", "nondegenerate_products", None),
    ("duality.find_selfdual_functional", "gtl.duality", "find_selfdual_functional", _note_search),
    ("duality.selfdual_check", "gtl.duality", "selfdual_check", None),
    ("structure.tor_part", "gtl.structure", "tor_part", None),
    ("structure.ideal_leq", "gtl.structure", "ideal_leq", None),
    ("structure.is_regular_sequence2", "gtl.structure", "is_regular_sequence2", None),
    ("structure.verify_depth2", "gtl.structure", "verify_depth2", None),
    ("util.sweep", "gtl.util", "sweep", None),
    ("cli.main", "gtl.cli", "main", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Route every gtl binding of the traced functions through ``tracer``."""
    patches = []
    try:
        for name, module, attr, note in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                sites = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                sites = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "gtl" or mod_name.startswith("gtl.")
                    for key, value in vars(mod).items()
                    if value is original
                ]
            wrapper = tracer.wrap(name, original, note)
            for site, key in sites:
                setattr(site, key, wrapper)
                patches.append((site, key, original))
        yield tracer
    finally:
        for site, key, original in reversed(patches):
            setattr(site, key, original)


# (name, unit, better) for every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = (
    [("exactlin.rref.calls", "count", "lower"), ("exactlin.rref.s", "s", "lower"),
     ("exactlin.rref.cells", "count", "lower")]
    + [m for _, b in RREF_BUCKETS
       for m in ((f"exactlin.rref.{b}.calls", "count", "lower"), (f"exactlin.rref.{b}.s", "s", "lower"))]
    + [m for fn in ("solve_mod", "kernel_mod", "rank_mod", "matmul_mod")
       for m in ((f"exactlin.{fn}.calls", "count", "lower"), (f"exactlin.{fn}.s", "s", "lower"))]
    + [("exactlin.matmul_mod.madds", "count", "lower")]
    + [m for fn in ("syzygy_step", "hom_space", "projective_factor_columns", "stable_hom",
                    "omega_lift", "tate_ring", "product_solve")
       for m in ((f"stmod.{fn}.calls", "count", "lower"), (f"stmod.{fn}.incl_s", "s", "lower"))]
    + [("stmod.hom_space.unknowns", "count", "lower"),
       ("stmod.stable_hom.kept", "count", "lower"),
       ("stmod.stable_hom.candidates", "count", "lower"),
       ("stmod.stable_hom.kept_ratio", "ratio", "higher"),
       ("stmod.product_solve.distinct", "count", "lower"),
       ("stmod.product_solve.distinct_ratio", "ratio", "higher"),
       ("graded.validate.calls", "count", "lower"), ("graded.validate.incl_s", "s", "lower"),
       ("graded.col_echelon.calls", "count", "lower"), ("graded.col_echelon.s", "s", "lower"),
       ("graded.json.s", "s", "lower"),
       ("duality.nondegenerate_products.incl_s", "s", "lower"),
       ("duality.find_selfdual_functional.incl_s", "s", "lower"),
       ("duality.find_selfdual_functional.tried", "count", "lower"),
       ("duality.selfdual_check.calls", "count", "lower")]
    + [(f"structure.{fn}.incl_s", "s", "lower")
       for fn in ("tor_part", "ideal_leq", "is_regular_sequence2", "verify_depth2")]
    + [("util.sweep.calls", "count", "lower"), ("util.sweep.incl_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.coverage", "ratio", "higher"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower")]
)


# Metrics the notes above accumulate directly rather than read off span statistics.
COUNTED = frozenset(
    ["exactlin.rref.cells", "exactlin.matmul_mod.madds", "stmod.hom_space.unknowns",
     "stmod.stable_hom.kept", "stmod.stable_hom.candidates", "duality.find_selfdual_functional.tried"]
    + [f"exactlin.rref.{b}.{k}" for _, b in RREF_BUCKETS for k in ("calls", "s")]
)
SPAN_STAT = {"calls": "calls", "s": "self", "self_s": "self", "incl_s": "incl"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced pass; functions never called read 0."""
    agg = tracer.aggregate()
    counts = tracer.counts
    solves = agg["stmod.product_solve"]["calls"] if "stmod.product_solve" in agg else 0
    derived = {
        "stmod.stable_hom.kept_ratio": _ratio(counts["stmod.stable_hom.kept"],
                                              counts["stmod.stable_hom.candidates"]),
        "stmod.product_solve.distinct": len(tracer.systems),
        "stmod.product_solve.distinct_ratio": _ratio(len(tracer.systems), solves),
        "trace.coverage": _ratio(sum(e["self"] for e in agg.values()), traced_wall),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
    }
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif name in COUNTED:
            values[name] = counts[name]
        else:
            values[name] = agg[span][SPAN_STAT[stat]] if span in agg else 0
    return values

"""Tests of the benchmark itself: gate, tracer, input generator, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gtl import gallery, util  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# The tate-klein4 pass on a window small enough for a unit test.
SMALL_KLEIN = workloads._tate_workload("klein-small", (2, 2), 2, (-2, 2), "trivial", workloads._klein_dim, (-1, 1))


@pytest.fixture
def small_klein(tmp_path):
    case = SMALL_KLEIN(3, tmp_path)
    reason, digest = case.inspect(case.run())
    assert reason is None
    return case, digest


def test_flipped_structure_constant_is_a_failed_pass(small_klein):
    case, reference = small_klein
    ring = case.emitted[0]
    clean_run = case.run
    passes = []

    def run_then_flip():
        results = clean_run()
        passes.append(results)
        if len(passes) == 2:
            payload = json.loads(ring.read_text())
            table = payload["mult"][0]["table"]
            table[0][0][0] = (table[0][0][0] + 1) % payload["field_char"]
            ring.write_text(util.canonical_json(payload))
        return results

    case.run = run_then_flip
    attempted, failed, walls, tracers = run.measure(case, reference, 0.0, True, [])
    assert (attempted, failed) == (2, 1)
    assert len(walls[False]) == 1 and walls[True] == [] and tracers == []
    assert workloads.gate(case, passes[1], reference) is not None


def test_pass_that_emits_no_ring_is_a_failed_pass(small_klein):
    case, reference = small_klein
    argv = case.commands[0]
    at = argv.index("--emit")
    case.commands = [argv[:at] + argv[at + 2:]]
    attempted, failed, _, _ = run.measure(case, reference, 0.0, False, [])
    assert (attempted, failed) == (1, 1)


def test_nested_spans_have_non_negative_self_times():
    tracer = spans.Tracer()
    leaf = tracer.wrap("t.leaf", lambda n: sum(range(n)))
    mid = tracer.wrap("t.mid", lambda: [leaf(1000) for _ in range(3)])
    outer = tracer.wrap("t.outer", lambda: [mid() for _ in range(2)] + [outer_leaf()])
    outer_leaf = tracer.wrap("t.leaf", lambda: leaf(10))
    outer()
    selfs = [(end - start) - children for _, start, end, _, children in tracer.spans]
    assert len(selfs) == 1 + 2 + 6 + 2 and min(selfs) >= 0
    agg = tracer.aggregate()
    assert agg["t.leaf"]["calls"] == 8
    # The leaf nested in another leaf span is not counted twice in incl.
    assert agg["t.leaf"]["incl"] <= sum(end - start for name, start, end, _, _ in tracer.spans if name == "t.leaf")
    assert sum(e["self"] for e in agg.values()) == pytest.approx(agg["t.outer"]["incl"])


def test_tracer_rebinds_every_gtl_binding_and_restores_them(small_klein):
    case, _ = small_klein

    def sites(obj):
        return {
            (name, key)
            for name, mod in sys.modules.items()
            if name == "gtl" or name.startswith("gtl.")
            for key, value in vars(mod).items()
            if value is obj
        }

    functions = [getattr(sys.modules[module], attr) for _, module, attr, _ in spans.TARGETS if "." not in attr]
    before = [sites(fn) for fn in functions]
    rref = sys.modules["gtl.exactlin"].rref
    assert {("gtl.exactlin", "rref"), ("gtl.stmod", "rref"), ("gtl.graded", "rref")} <= sites(rref)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert all(sites(fn) == set() for fn in functions)
        case.run()
    assert [sites(fn) for fn in functions] == before
    assert all(end - start - children >= 0 for _, start, end, _, children in tracer.spans)


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == list(spans.PER_LAYER)


def test_run_reports_exactly_the_declared_metrics(small_klein, monkeypatch):
    _, reference = small_klein
    monkeypatch.setitem(workloads.WORKLOADS, "klein-small", SMALL_KLEIN)
    monkeypatch.setattr(workloads, "load_references", lambda: {"klein-small": [reference] * workloads.INPUT_VARIANTS})
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run("klein-small", 3, 0.0, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1 + trace
        reported = [(name, m["unit"]) for name, m in result["metrics"].items()]
        assert reported == [(m["name"], m["unit"]) for m in DECLARED[key]]
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["stmod.tate_ring.calls"] == 1 and layers["graded.validate.calls"] == 1
    assert layers["exactlin.rref.calls"] == sum(layers[f"exactlin.rref.{b}.calls"] for _, b in spans.RREF_BUCKETS)
    assert layers["structure.tor_part.incl_s"] == 0 and layers["duality.selfdual_check.calls"] == 0


def test_relabeled_inputs_are_the_same_algebras():
    for exponents, p in (((2, 2), 2), ((6,), 3)):
        alg = workloads.relabel_fd(gallery.build_truncated_ci(exponents, p), random.Random(7))
        assert alg.validate().passed and alg.validate_symmetric().passed
    ring = gallery.build_trivial_extension(2, (-3, 3), 3)
    moved = workloads.relabel_graded(ring, random.Random(7))
    assert moved.dims == ring.dims and moved.validate().passed
    assert sorted(moved.labels[2]) == sorted(ring.labels[2])


def test_seed_zero_is_the_gallery_basis_and_other_seeds_relabel():
    assert workloads.input_variant(0) == 0
    variants = {workloads.input_variant(s) for s in range(1, 200)}
    assert variants == set(range(1, workloads.INPUT_VARIANTS))

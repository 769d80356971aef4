"""Tests for the shared helpers: canonical JSON and the sweep pool."""

from __future__ import annotations

import json

import pytest

from gtl import duality, structure
from gtl.util import canonical_json, parse_int_keys, sweep, worker_count

from test_graded import quantum_plane


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}\n'
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def test_worker_count_defaults_to_sequential(monkeypatch):
    monkeypatch.delenv("GTL_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("GTL_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("GTL_THREADS", "-2")
    assert worker_count() == 1
    monkeypatch.setenv("GTL_THREADS", "lots")
    with pytest.raises(ValueError):
        worker_count()


def test_sweep_results_keep_input_order(monkeypatch):
    items = list(range(40))
    expected = [i * i for i in items]
    monkeypatch.setenv("GTL_THREADS", "1")
    assert sweep(lambda i: i * i, items) == expected
    monkeypatch.setenv("GTL_THREADS", "4")
    assert sweep(lambda i: i * i, items) == expected


def _every_sweep_report(laurent, t2) -> list[dict]:
    """JSON of every report built per degree, passing and failing ones."""
    qp = quantum_plane(2, 5)
    w1, w2 = t2.element_by_label("w1"), t2.element_by_label("w2")
    x, y = qp.element_by_label("x"), qp.element_by_label("y")
    reports = [
        laurent.validate(),
        t2.validate(),
        t2.is_central(w1),
        qp.is_central(x),
        duality.nondegenerate_products(t2, -1),
        duality.selfdual_check(t2, -1, [1]),
        duality.selfdual_check(qp, 2, [1, 0, 1]),
        structure.regularity(t2, w1),
        structure.regularity(qp, x),
        structure.check_periodicity(t2, w1),
        structure.check_periodicity(qp, x),
        structure.check_orthogonality(t2, w1, -1, [1]),
        structure.verify_depth1(t2, w1, -1),
        structure.verify_depth1(t2, w1, 0),
        structure.is_regular_sequence2(t2, w1, w2),
        structure.is_regular_sequence2(qp, x, y),
        structure.verify_depth2(t2, w1, w2, -1, [1]),
    ]
    subspaces = [structure.tor_part(t2, w1), structure.ideal_leq(t2, -1)]
    return [rep.to_json_dict() for rep in reports] + [
        (sorted(sub.underdetermined), sub.notes, {d: sub.vectors(d).tolist() for d in t2.degrees()})
        for sub in subspaces
    ]


def test_threaded_reports_match_sequential(monkeypatch, laurent, t2):
    monkeypatch.setenv("GTL_THREADS", "1")
    sequential = _every_sweep_report(laurent, t2)
    monkeypatch.setenv("GTL_THREADS", "2")
    assert _every_sweep_report(laurent, t2) == sequential


def test_parse_int_keys():
    assert parse_int_keys({"-2": 5, "0": 1}, "dims") == {-2: 5, 0: 1}
    with pytest.raises(ValueError):
        parse_int_keys({"x": 1}, "dims")

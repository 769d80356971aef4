"""Tests for the shared helpers: canonical JSON, the sweep and degree-keyed parsing."""

from __future__ import annotations

import json
import re

import pytest

from gtl.util import canonical_json, parse_int_keys, sweep


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}\n'
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def test_sweep_results_keep_input_order():
    items = list(range(40))
    assert sweep(lambda i: i * i, items) == [i * i for i in items]
    assert sweep(lambda i: i * i, iter(items)) == [i * i for i in items]


def test_parse_int_keys():
    assert parse_int_keys({"-2": 5, "0": 1}, "dims") == {-2: 5, 0: 1}
    with pytest.raises(ValueError):
        parse_int_keys({"x": 1}, "dims")


@pytest.mark.parametrize("second", ["00", "-0", "+0", " 0", "0_0"])
def test_parse_int_keys_refuses_two_keys_for_one_degree(second):
    # the last key used to win silently: {"0": ["a"], "00": ["b"]} gave label b
    with pytest.raises(ValueError, match=re.escape(f"labels: keys '0' and {second!r} both name degree 0")):
        parse_int_keys({"0": ["a"], second: ["b"]}, "labels")

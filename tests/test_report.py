"""Check reports: verdict names and the JSON form of witnesses."""

from __future__ import annotations

import numpy as np
import pytest

from gtl.report import FAIL, CertifiedReport, DegreeVerdict


def test_unknown_verdict_is_rejected():
    with pytest.raises(ValueError, match="unknown verdict 'MAYBE'"):
        DegreeVerdict(0, "MAYBE")


def test_numpy_witnesses_serialize_as_plain_json():
    rep = CertifiedReport(check="example")
    rep.add(0, FAIL, np.array([1, 2]))
    rep.add(1, FAIL, np.int64(3))
    witnesses = [entry["witness"] for entry in rep.to_json_dict()["per_degree"]]
    assert witnesses == [[1, 2], 3]
    assert type(witnesses[0]) is list and type(witnesses[1]) is int

"""The benchmark's correctness gate as a tier-1 test.

One pass of each ``perfbench`` workload, on the gallery basis and on one
relabeled input, must reproduce the output digest recorded for it in
``perfbench/references.json``: the emitted Tate rings and the seven
``gtl analyze`` reports byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_clears_the_benchmark_gate(name, seed, tmp_path):
    case = workloads.WORKLOADS[name](seed, tmp_path)
    reference = workloads.load_references()[name][workloads.input_variant(seed)]
    assert workloads.gate(case, case.run(), reference) is None

"""The benchmark's correctness gate as a tier-1 test.

One pass of each ``perfbench`` workload, on the gallery basis and on two
relabeled inputs, must reproduce the output digest recorded for it in
``perfbench/references.json``: the emitted Tate rings and the seven
``gtl analyze`` reports byte for byte. The pass is run once per session
(``conftest.benchmark_gate``); ``test_acceptance`` reads the same verdict
for the gallery basis.
"""

from __future__ import annotations

import pytest

from conftest import workloads


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_clears_the_benchmark_gate(name, seed, benchmark_gate):
    assert benchmark_gate(name, seed) is None

"""Shared fixtures, the expensive rings built once per session, and test-wide settings."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gtl.gallery import build_laurent, build_trivial_extension, build_truncated_ci
from gtl.stmod import FDAlgebra, FDModule, _free_action, tate_ring, trivial_module

# The benchmark's workloads and recorded output digests, read and never written.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# one deadline policy for every @given test: a cold runner's first examples
# can exceed hypothesis's 200 ms default without anything being wrong
settings.register_profile("gtl", deadline=None)
settings.load_profile("gtl")


def free_module(alg: FDAlgebra, rank: int) -> FDModule:
    """Direct sum of ``rank`` copies of the left regular module, with its (rank*d)^2 action matrices."""
    width = rank * alg.dim
    return FDModule(alg, width, _free_action(alg, np.eye(width, dtype=np.int64)))


@pytest.fixture(scope="session")
def klein_alg():
    return build_truncated_ci((2, 2), 2)


@pytest.fixture(scope="session")
def klein_ring(klein_alg):
    return tate_ring(trivial_module(klein_alg), (-3, 3))


@pytest.fixture(scope="session")
def klein_ring_wide(klein_alg):
    return tate_ring(trivial_module(klein_alg), (-4, 4))


@pytest.fixture(scope="session")
def klein_ring_7(klein_alg):
    """The Klein-four Tate ring of the tate-klein4 benchmark workload."""
    return tate_ring(trivial_module(klein_alg), (-7, 7))


@pytest.fixture(scope="session")
def cubic_alg():
    return build_truncated_ci((3,), 3)


@pytest.fixture(scope="session")
def cubic_ring(cubic_alg):
    """k[x]/(x^3) over F_3: the trivial module is periodic of period 2."""
    return tate_ring(trivial_module(cubic_alg), (-4, 4))


@pytest.fixture(scope="session")
def t2():
    """Trivial extension of k[w1, w2] by its (-1)-shifted graded dual."""
    return build_trivial_extension(2, (-4, 3), 2)


@pytest.fixture(scope="session")
def laurent():
    return build_laurent(5, (-3, 3))


@pytest.fixture(scope="session")
def benchmark_gate(tmp_path_factory):
    """``benchmark_gate(name, seed)``: the benchmark gate's verdict (None when
    the output digest is as recorded) on one pass of a ``perfbench`` workload,
    run once per session however many tests ask for it."""
    verdicts = {}

    def verdict(name: str, seed: int):
        if (name, seed) not in verdicts:
            reference = workloads.load_references()[name][workloads.input_variant(seed)]
            case = workloads.WORKLOADS[name](seed, tmp_path_factory.mktemp(f"{name}-{seed}"))
            verdicts[name, seed] = workloads.gate(case, case.run(), reference)
        return verdicts[name, seed]

    return verdict

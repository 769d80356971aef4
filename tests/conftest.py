"""Shared fixtures: the expensive rings are built once per session."""

from __future__ import annotations

import pytest

from gtl import (
    build_laurent,
    build_truncated_ci,
    build_trivial_extension,
    tate_ring,
    trivial_module,
)


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

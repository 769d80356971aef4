"""Shared helpers: canonical JSON, the per-degree sweep and degree-keyed parsing."""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def sweep(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items`` in order."""
    # A named function, not inlined comprehensions: perfbench/spans.py wraps
    # gtl.util.sweep by name to time every per-degree report.
    return [fn(it) for it in items]


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_int_keys(mapping: dict, what: str) -> dict[int, int]:
    if not isinstance(mapping, dict):
        raise ValueError(f"{what} must be an object keyed by degree, not {type(mapping).__name__}")
    out: dict[int, int] = {}
    keys: dict[int, str] = {}
    for key, value in mapping.items():
        try:
            d = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"{what}: key {key!r} is not an integer") from None
        if d in keys:
            raise ValueError(f"{what}: keys {keys[d]!r} and {key!r} both name degree {d}")
        keys[d], out[d] = key, value
    return out


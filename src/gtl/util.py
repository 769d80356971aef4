"""Shared helpers: canonical JSON and the GTL_THREADS-capped sweep pool."""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Parallelism cap from GTL_THREADS; defaults to sequential."""
    raw = os.environ.get("GTL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GTL_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def sweep(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items``, in a thread pool when GTL_THREADS > 1.

    Results come back in input order, so reports are byte-identical whatever
    the schedule.
    """
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_int_keys(mapping: dict, what: str) -> dict[int, int]:
    if not isinstance(mapping, dict):
        raise ValueError(f"{what} must be an object keyed by degree, not {type(mapping).__name__}")
    out: dict[int, int] = {}
    for key, value in mapping.items():
        try:
            out[int(key)] = value
        except (TypeError, ValueError):
            raise ValueError(f"{what}: key {key!r} is not an integer") from None
    return out


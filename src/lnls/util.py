"""Small shared utilities."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_threads() -> int:
    """The number of CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_parallel(fn: Callable[[T], R], items: Sequence[T], threads: int | None = None) -> list[R]:
    """Apply ``fn`` over ``items``, preserving order.

    Cells are assumed pure, so threading never changes results - only wall
    time.  ``threads <= 1`` (or a short list) short-circuits to a plain loop.
    """
    items = list(items)
    n = default_threads() if threads is None else threads
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))

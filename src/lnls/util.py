"""Small shared utilities: the parallel map and the seeded draw source."""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

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


class Draws:
    """Seeded random draws from the stdlib Mersenne Twister ``random.Random(seed)``.

    It has the two methods of numpy's ``Generator`` that ``lnls`` draws
    with, so a profile factory takes either.  A seed fixes the random bytes
    wherever ``random.Random`` keeps its integer seeding; the normals then
    depend only on NumPy's ``log1p``, ``cos`` and ``sin``.  ``numpy.random``
    is never imported: it costs a process about 6 MB, OpenSSL included.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def standard_normal(self, size: int | Sequence[int]) -> np.ndarray:
        """Standard normal samples of shape ``size`` by Box-Muller: ``sqrt(-2 log(1 - u)) cos/sin(2 pi v)``.

        Each uniform is the top 53 bits of a little-endian random word,
        scaled into ``[0, 1)``.  The first ``ceil(n/2)`` are the ``u``, the
        rest the ``v``; the cosines fill the flat result first, then the sines.
        """
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        words = np.frombuffer(self._random.randbytes(16 * pairs), dtype="<u8")
        uniform = (words >> np.uint64(11)) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log1p(-uniform[:pairs]))
        angle = (2.0 * math.pi) * uniform[pairs:]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        """``size`` distinct integers from ``range(n)``, in draw order (``replace=False`` only)."""
        if replace:
            raise ValueError("Draws.choice draws without replacement only; pass replace=False")
        return np.array(self._random.sample(range(n), size), dtype=np.int64)

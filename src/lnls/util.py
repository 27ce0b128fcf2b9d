"""The seeded draw source of the corpora and profile factories."""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np


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
        The steps run in place in the array of the uniforms, so a draw holds
        about twice its result.
        """
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        words = np.frombuffer(self._random.randbytes(16 * pairs), dtype="<u8") >> np.uint64(11)
        # the uniforms, then the radii and angles, then the normals, all in one array
        uniform = np.multiply(words, 2.0**-53, out=words.view(np.float64))
        radius, angle = uniform[:pairs], uniform[pairs:]
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        np.multiply(-2.0, radius, out=radius)
        np.sqrt(radius, out=radius)
        angle *= 2.0 * math.pi
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        return uniform[:n].reshape(shape)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        """``size`` distinct integers from ``range(n)``, in draw order (``replace=False`` only)."""
        if replace:
            raise ValueError("Draws.choice draws without replacement only; pass replace=False")
        return np.array(self._random.sample(range(n), size), dtype=np.int64)

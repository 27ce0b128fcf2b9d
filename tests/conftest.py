"""Shared fixtures: deterministic RNGs and hypothesis settings."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "lnls",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lnls")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_addoption(parser):
    parser.addoption(
        "--memo-off",
        action="store_true",
        help="bypass the polyhedral analysis memo (tests/poly/memo_oracle.py)",
    )


def pytest_configure(config):
    if config.getoption("memo_off"):
        from tests.poly.memo_oracle import bypass_memo

        bypass_memo()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test inputs."""
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _no_experiment_cache(monkeypatch):
    """Keep experiment measurements out of the on-disk cache during tests."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")

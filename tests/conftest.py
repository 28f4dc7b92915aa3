import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def reader_threads(monkeypatch):
    """``reader_threads(k)`` runs each posterior reader map on k threads (at
    most ``_kernels.MAX_READER_THREADS``; serially for k = 1), as on a
    k-core machine, until the test ends."""
    from stratapc import _kernels

    def use(k):
        monkeypatch.setattr(_kernels, "cores", lambda: k)

    return use

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
    """``reader_threads(k)`` runs the posterior readers on a pool of their
    own with k threads (at most ``_kernels.MAX_READER_THREADS``; serially
    for k = 1), as on a k-core machine.  The process's own pool is back in
    place after the test."""
    from stratapc import _kernels

    monkeypatch.setattr(_kernels, "_pool", None)
    monkeypatch.setattr(_kernels, "_pool_pid", None)

    def use(k):
        _kernels.stop_reader_pool()
        monkeypatch.setattr(_kernels, "cores", lambda: k)

    yield use
    _kernels.stop_reader_pool()

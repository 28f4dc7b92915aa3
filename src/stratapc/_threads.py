"""BLAS thread-pool pinning.

Every dense factorization in this package is small (hundreds to a few
thousand rows), a regime where multi-threaded BLAS loses far more to pool
synchronization than it gains; on a two-core box a warm Newton step runs
about twenty times slower under the default pool.  Importing the package
pins the BLAS pools to ``STRATAPC_BLAS_THREADS`` threads (default 1); set
the variable to 0 to leave the pools untouched.  A value that is not an
integer is logged as a warning and pins the default.

The pin goes through OpenBLAS's own thread setter, called with ``ctypes``
on every OpenBLAS mapped into the process (numpy and scipy each bundle
one), so it reaches only libraries already loaded when it runs.
"""

from __future__ import annotations

import ctypes
import logging
import os
from pathlib import Path

logger = logging.getLogger(__name__)

# Exported names, first match wins: the scipy-openblas wheels prefix their
# symbols and the ILP64 build adds a ``64_`` suffix.
_NAMES = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _symbol(lib: ctypes.CDLL, verb: str):
    for name in _NAMES:
        fn = getattr(lib, name.format(verb), None)
        if fn is not None:
            return fn
    return None


def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """Each OpenBLAS mapped into this process, keyed by file name; none
    where the process map cannot be read (no ``/proc``)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
            )
    except OSError:
        return {}
    return {Path(p).name: ctypes.CDLL(p) for p in paths}


def blas_threads() -> dict[str, int]:
    """Effective thread count of each loaded OpenBLAS, read through its
    getter."""
    found = {}
    for name, lib in _openblas_libraries().items():
        getter = _symbol(lib, "get")
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            found[name] = getter()
    return found


def pin_blas_threads() -> None:
    raw = os.environ.get("STRATAPC_BLAS_THREADS", "1")
    try:
        n = int(raw.strip())
    except ValueError:
        logger.warning("STRATAPC_BLAS_THREADS=%r is not an integer; pinning to 1 thread", raw)
        n = 1
    if n <= 0:
        return
    for lib in _openblas_libraries().values():
        setter = _symbol(lib, "set")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(n)

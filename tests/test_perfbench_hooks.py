"""The benchmark's tracer patches package internals by name; installing and
removing it must work against the current source."""

from pathlib import Path

import scipy.linalg

from stratapc import inference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workload  # noqa: F401  (resolves every package name it imports)

    originals = [
        (owner, attr, getattr(owner, attr))
        for _, owners, attr in tracing.LAYERS
        for owner in owners
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert inference.sla is not scipy.linalg
    finally:
        tracer.uninstall()
    assert inference.sla is scipy.linalg
    for owner, attr, value in originals:
        assert getattr(owner, attr) is value, attr

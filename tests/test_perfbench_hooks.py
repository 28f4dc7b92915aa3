"""The benchmark's tracer patches package internals by name; installing and
removing it must work against the current source."""

import subprocess
import sys
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


def test_traced_fit_records_the_hessian_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from stratapc.core import GridSpec
    from stratapc.data import simulate_dataset

    grid = GridSpec(6, 6)
    ds, _ = simulate_dataset(grid, 3, pattern="M4", structure="exchangeable", seed=5)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        model = inference.assemble_model(grid, 3, "M6", "exchangeable")
        tracer.phase = "op"
        inference.fit_model(model, ds, n_samples=20, seed=1, budget=5)
    finally:
        tracer.phase = None
        tracer.uninstall()
    counts = {}
    for name, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
    for layer in ("inference.cholesky", "inference.weighted_gram", "inference.latent_prior"):
        assert counts.get(layer, 0) >= 1, layer
    summary = tracer.summary(1, 1.0)
    assert summary["inference.cholesky.gflop_computed"] > 0


def test_selftest_passes():
    # every workload at its tiny size, untraced and traced; writes only
    # under perfbench/out/
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--selftest"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

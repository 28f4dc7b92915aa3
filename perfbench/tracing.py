"""Span tracing of the stratapc layers, installed from outside the package.

Every layer is wrapped on the attribute its callers look up at call time
(module globals and class methods), so the package itself is not edited.
Spans (name, start, end, parent, phase, info) are kept in memory and
written out when the run ends.  Self time is a span's duration minus the
time its child spans cover; calls within one thread nest, so the children
of a span never overlap.
"""

from __future__ import annotations

import json
import statistics
import time

from stratapc import data, diagnostics, inference, selection

# (layer name, objects holding the attribute, attribute name)
LAYERS = (
    ("data.simulate", (data,), "simulate_dataset"),
    ("inference.assemble_model", (inference, selection, data), "assemble_model"),
    ("inference.likelihood", (inference.PoissonLikelihood,), "value_grad_weights"),
    ("inference.weighted_gram", (inference.LatentModel,), "weighted_gram"),
    ("inference.latent_prior", (inference.LatentModel,), "latent_prior"),
    ("inference.cholesky", (inference,), "_chol_with_jitter"),
    ("inference.conditional_mode", (inference,), "conditional_mode"),
    ("inference.laplace", (inference,), "_laplace_with_mode"),
    ("inference.optimize", (inference,), "optimize_hyperparameters"),
    ("inference.sample_posterior", (inference,), "sample_posterior"),
    ("selection.pointwise_loglik", (selection,), "pointwise_loglik"),
    ("selection.waic", (selection,), "waic"),
    ("selection.fit_entry", (selection,), "_fit_entry"),
    ("diagnostics.hindcast", (diagnostics,), "hindcast"),
    ("diagnostics.pit", (diagnostics,), "pit"),
    ("diagnostics.cross_strata_rr", (diagnostics,), "cross_strata_rr"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

# Per-layer metrics beyond calls/self_s/total_s: (metric, unit).  Operation
# counts are computed from matrix sizes, not measured by hardware counters.
EXTRA_METRICS = (
    ("inference.weighted_gram.gflop_computed", "GFLOP/op"),
    ("inference.cholesky.jitter_events", "count/op"),
    ("inference.cholesky.gflop_computed", "GFLOP/op"),
    ("inference.conditional_mode.newton_iters", "count/op"),
    ("inference.conditional_mode.lik_calls_per_iter", "ratio"),
    ("inference.conditional_mode.failures", "count/op"),
    ("inference.laplace.ms_p50", "ms"),
    ("inference.laplace.barrier_frac", "ratio"),
    ("inference.optimize.evals", "count/op"),
    ("inference.optimize.unconverged_frac", "ratio"),
    ("inference.sample_posterior.draws", "count/op"),
    ("inference.sample_posterior.gflop_computed", "GFLOP/op"),
    ("selection.fit_entry.s_p50", "s"),
    ("selection.fit_entry.s_max", "s"),
    ("selection.fit_entry.errors", "count/op"),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYER_NAMES:
        per = "setup" if name == "data.simulate" else "op"
        units[f"{name}.calls"] = f"count/{per}"
        units[f"{name}.self_s"] = f"s/{per}"
        units[f"{name}.total_s"] = f"s/{per}"
    units.update(EXTRA_METRICS)
    return units


class _CountingLinalg:
    """Stand-in for ``scipy.linalg`` inside ``inference`` that counts the
    Cholesky factorizations actually attempted (jitter retries included)."""

    def __init__(self, real):
        self._real = real
        self.attempts = 0
        self.flop = 0.0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cholesky(self, a, *args, **kwargs):
        self.attempts += 1
        self.flop += a.shape[0] ** 3 / 3.0
        return self._real.cholesky(a, *args, **kwargs)


class Tracer:
    """Records spans while ``phase`` is set ("setup" or "op"); wrappers pass
    straight through while it is None."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, info]
        self.phase: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._linalg: _CountingLinalg | None = None

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        self._linalg = _CountingLinalg(inference.sla)
        self._saved.append((inference, "sla", inference.sla))
        inference.sla = self._linalg
        for name, owners, attr in LAYERS:
            original = getattr(owners[0], attr)
            wrapper = self._wrap(name, original, _INFO.get(name))
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn, info_fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.phase, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            before = tracer._linalg.attempts, tracer._linalg.flop
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            else:
                if info_fn is not None:
                    span[5] = info_fn(args, out, tracer._linalg, before)
                return out
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # results

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "phase", "info"], "spans": self.spans},
                fh,
            )

    def summary(self, n_ops: int, op_seconds: float) -> dict[str, float]:
        """Per-layer metrics per traced operation (``data.simulate`` per
        set-up), and the share of the traced operation time that the named
        layers' self times account for."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, phase, info in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_layer: dict[str, list[int]] = {name: [] for name in LAYER_NAMES}
        for i, span in enumerate(spans):
            want = "setup" if span[0] == "data.simulate" else "op"
            if span[4] == want:
                by_layer[span[0]].append(i)
        n_setups = max(1, len(by_layer["data.simulate"]))

        out: dict[str, float] = {}
        self_total = 0.0
        for name, idx in by_layer.items():
            per = n_setups if name == "data.simulate" else n_ops
            dur = sum(spans[i][2] - spans[i][1] for i in idx)
            own = dur - sum(child_time[i] for i in idx)
            out[f"{name}.calls"] = len(idx) / per
            out[f"{name}.self_s"] = own / per
            out[f"{name}.total_s"] = dur / per
            if name != "data.simulate":
                self_total += own

        def infos(name, key):
            return [spans[i][5][key] for i in by_layer[name] if spans[i][5] and key in spans[i][5]]

        def durations(name):
            return [spans[i][2] - spans[i][1] for i in by_layer[name]]

        out["inference.weighted_gram.gflop_computed"] = sum(infos("inference.weighted_gram", "flop")) / 1e9 / n_ops
        out["inference.cholesky.jitter_events"] = sum(a > 1 for a in infos("inference.cholesky", "attempts")) / n_ops
        out["inference.cholesky.gflop_computed"] = sum(infos("inference.cholesky", "flop")) / 1e9 / n_ops

        iters = infos("inference.conditional_mode", "n_iter")
        mode_ok = {i for i in by_layer["inference.conditional_mode"] if spans[i][5] and "n_iter" in spans[i][5]}
        lik_in_mode = sum(1 for i in by_layer["inference.likelihood"] if spans[i][3] in mode_ok)
        out["inference.conditional_mode.newton_iters"] = sum(iters) / n_ops
        out["inference.conditional_mode.lik_calls_per_iter"] = lik_in_mode / sum(iters) if iters else 0.0
        out["inference.conditional_mode.failures"] = len(infos("inference.conditional_mode", "error")) / n_ops

        lap = durations("inference.laplace")
        out["inference.laplace.ms_p50"] = 1e3 * statistics.median(lap) if lap else 0.0
        searches = [i for i in by_layer["inference.optimize"] if spans[i][5] and "evals" in spans[i][5]]
        evals = sum(spans[i][5]["evals"] for i in searches)
        in_search = set(searches)
        finite = sum(
            1
            for i in by_layer["inference.laplace"]
            if spans[i][3] in in_search and spans[i][5] and spans[i][5].get("finite")
        )
        out["inference.laplace.barrier_frac"] = (evals - finite) / evals if evals else 0.0
        out["inference.optimize.evals"] = evals / n_ops
        out["inference.optimize.unconverged_frac"] = (
            sum(not spans[i][5]["converged"] for i in searches) / len(searches) if searches else 0.0
        )

        out["inference.sample_posterior.draws"] = sum(infos("inference.sample_posterior", "draws")) / n_ops
        out["inference.sample_posterior.gflop_computed"] = (
            sum(infos("inference.sample_posterior", "flop")) / 1e9 / n_ops
        )

        entries = durations("selection.fit_entry")
        out["selection.fit_entry.s_p50"] = statistics.median(entries) if entries else 0.0
        out["selection.fit_entry.s_max"] = max(entries) if entries else 0.0
        out["selection.fit_entry.errors"] = sum(infos("selection.fit_entry", "failed")) / n_ops

        out["trace.self_coverage"] = self_total / op_seconds if op_seconds > 0 else 0.0
        return out


def _gram_info(args, out, linalg, before):
    model = args[0]
    n_can = model.parts.matrix.shape[1]
    return {"flop": model.n_strata * model.grid.n_cells * n_can**2}


def _chol_info(args, out, linalg, before):
    return {"attempts": linalg.attempts - before[0], "flop": linalg.flop - before[1]}


def _laplace_info(args, out, linalg, before):
    value, _ = out
    return {"finite": bool(value == value and abs(value) != float("inf"))}


def _draws_info(args, out, linalg, before):
    n, dim = out.samples.shape
    return {"draws": n, "flop": dim**2 * n}


_INFO = {
    "inference.weighted_gram": _gram_info,
    "inference.cholesky": _chol_info,
    "inference.conditional_mode": lambda a, out, l, b: {"n_iter": out.n_iter},
    "inference.laplace": _laplace_info,
    "inference.optimize": lambda a, out, l, b: {
        "evals": out.n_evaluations,
        "converged": out.converged,
    },
    "inference.sample_posterior": _draws_info,
    "selection.fit_entry": lambda a, out, l, b: {"failed": out.error is not None},
}

"""One workload process of the stratapc end-to-end benchmark.

Started by ``perfbench/run.py`` with the BLAS thread-count variables removed
from its environment, so the package's own thread default is what runs.
It generates its inputs from ``--seed``, sets up, repeats the workload's
operation for ``--seconds``, checks every output, and prints one JSON line
of raw figures for ``run.py`` to report.  ``--setup-only`` stops after the
set-up and prints only its time.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's own OpenBLAS)

from stratapc import _kernels, data, diagnostics, inference, selection  # noqa: E402
from stratapc.core import GridSpec  # noqa: E402
from stratapc.covariance import AdjacencyGraph, CrossStrataStructure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 8

# Problem sizes.  "full" is what the benchmark measures; "tiny" runs the same
# code paths in seconds for the self-test.  The hyperparameter searches are
# capped (``budget``) so that one operation of the slowest code fits a run:
# uncapped, the criterion-8 grid takes minutes under the default BLAS pool.
SIZES = {
    "full": {
        "grid-r5": {"n_age": 17, "n_period": 18, "n_strata": 5, "budget": 20, "n_samples": 300},
        "fit-r25": {"n_age": 17, "n_period": 18, "n_strata": 25, "budget": 15, "n_samples": 1000},
        "posterior-r25": {"n_age": 17, "n_period": 18, "n_strata": 25, "n_samples": 2000},
    },
    "tiny": {
        "grid-r5": {"n_age": 6, "n_period": 6, "n_strata": 3, "budget": 8, "n_samples": 100},
        "fit-r25": {"n_age": 6, "n_period": 6, "n_strata": 3, "budget": 8, "n_samples": 100},
        "posterior-r25": {"n_age": 6, "n_period": 6, "n_strata": 3, "n_samples": 200},
    },
}
SURFACE_SEED = 8    # the criterion-8 simulation seed
EXPOSURE = 1e5
GRID_ENTRIES = 16   # M1 once, M2-M6 under three structures
SAMPLING_SEED = 88  # the criterion-8 grid seed, used for every posterior draw
REPRO_RTOL = 1e-6   # reported vs recomputed Laplace log-marginal
WAIC_RTOL_SEARCH = 2e-3  # vs reference, where the search may find another point
RTOL_FIXED = 1e-6        # vs reference, at fixed hyperparameters


def simulate(spec, seed):
    """Counts drawn with ``seed`` from one fixed simulated surface.

    Surfaces drawn from the prior differ by orders of magnitude in how badly
    the shared-block candidates fit them, and so in the work a fit does;
    fixing the surface keeps runs at different seeds comparable."""
    grid = GridSpec(n_age=spec["n_age"], n_period=spec["n_period"], interval_width=1.0)
    surface, truth = data.simulate_dataset(
        grid, spec["n_strata"], pattern="M4", structure="exchangeable",
        exposure=EXPOSURE, seed=SURFACE_SEED,
    )
    rng = np.random.default_rng(seed)
    counts = rng.poisson(surface.exposures * np.exp(truth.logrates)).astype(float)
    dataset = inference.MortalityDataset(
        counts=counts, exposures=surface.exposures, observed=surface.observed,
        grid=grid, strata=surface.strata,
    )
    return dataset, truth


def fingerprint(pattern, structure, evaluations, converged, log_marginal, waic):
    return {
        "pattern": pattern,
        "structure": structure,
        "evaluations": evaluations,
        "converged": converged,
        "log_marginal": float(log_marginal),
        "waic": float(waic),
    }


def reproduces(fit, dataset):
    """Whether the log-marginal the fit reports is the Laplace objective at
    its own hyperparameters."""
    again = inference.laplace_log_marginal(
        fit.model, fit.eta_hat, data=dataset, init=fit.latent_mean
    )
    return abs(again - fit.log_marginal) <= REPRO_RTOL * (1.0 + abs(again))


class SearchLog:
    """Evaluation count of each hyperparameter search, read from the result
    of ``inference.optimize_hyperparameters`` (called once per fit)."""

    def __init__(self):
        self.evaluations = {}
        original = inference.optimize_hyperparameters

        def logged(model, *args, **kwargs):
            result = original(model, *args, **kwargs)
            self.evaluations[(model.pattern.name, model.structure.kind)] = result.n_evaluations
            return result

        inference.optimize_hyperparameters = logged


# ---------------------------------------------------------------------------
# workloads: set-up in __init__, the timed operation in op(), checks in
# check(), which returns (fingerprints, failed units, attempted units,
# messages)


class GridR5:
    """Criterion-8 model selection: all sixteen candidates, one process.

    The timed operation is one grid entry: the median of sixteen entry
    times is far steadier on a shared machine than one grid's total."""

    search = True
    units = GRID_ENTRIES

    def __init__(self, spec, seed, log):
        self.spec, self.log = spec, log
        self.entry_times = []
        fit_entry = selection._fit_entry

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fit_entry(*args, **kwargs)
            finally:
                self.entry_times.append(time.perf_counter() - t)

        selection._fit_entry = timed
        self.data, _ = simulate(spec, seed)
        r = spec["n_strata"]
        ring = AdjacencyGraph.from_edges(r, [(i, (i + 1) % r) for i in range(r)])
        self.config = selection.GridConfig(
            structures=("independent", "exchangeable", "bym2"),
            graph=ring,
            n_samples=spec["n_samples"],
            seed=SAMPLING_SEED,
            budget=spec["budget"],
            workers=1,
        )

    def op(self):
        self.entry_times = []
        return selection.fit_grid(self.data, self.config)

    def op_times(self, seconds):
        return self.entry_times

    def check(self, result):
        prints, failed, messages = [], 0, []
        missing = max(0, GRID_ENTRIES - len(result.entries))
        if len(result.entries) != GRID_ENTRIES:
            messages.append(f"grid has {len(result.entries)} entries, not {GRID_ENTRIES}")
        for e in result.entries:
            name = f"{e.pattern}/{e.structure}"
            if not e.ok:
                failed += 1
                messages.append(f"{name}: {e.error}")
                continue
            prints.append(
                fingerprint(
                    e.pattern, e.structure, self.log.evaluations.get((e.pattern, e.structure)),
                    e.converged, e.fit.log_marginal, e.waic,
                )
            )
            problems = []
            if not math.isfinite(e.waic):
                problems.append("WAIC not finite")
            if not reproduces(e.fit, self.data):
                problems.append("log-marginal does not reproduce")
            if problems:
                failed += 1
                messages.append(f"{name}: {', '.join(problems)}")
        return prints, failed + missing, GRID_ENTRIES, messages


class FitR25:
    """One EU-scale fit, as ``stratapc fit`` runs it."""

    search = True

    def __init__(self, spec, seed, log):
        self.spec, self.log = spec, log
        self.data, _ = simulate(spec, seed)

    def op(self):
        model = inference.assemble_model(
            self.data.grid, self.data.n_strata, "M4", CrossStrataStructure(kind="exchangeable")
        )
        fit = inference.fit_model(
            model, self.data, n_samples=self.spec["n_samples"], seed=SAMPLING_SEED,
            budget=self.spec["budget"],
        )
        return fit, selection.waic(selection.pointwise_loglik(fit, self.data))

    def op_times(self, seconds):
        return [seconds]

    def check(self, result):
        fit, score = result
        prints = [
            fingerprint(
                "M4", "exchangeable", self.log.evaluations.get(("M4", "exchangeable")),
                fit.converged, fit.log_marginal, score.waic,
            )
        ]
        messages = []
        if not math.isfinite(score.waic):
            messages.append("WAIC not finite")
        if not reproduces(fit, self.data):
            messages.append("log-marginal does not reproduce")
        return prints, int(bool(messages)), 1, messages


class PosteriorR25:
    """Plug-in posterior pass at the simulation-truth hyperparameters."""

    search = False

    def __init__(self, spec, seed, log):
        self.spec = spec
        self.data, truth = simulate(spec, seed)
        self.eta = truth.eta
        self.model = inference.assemble_model(
            self.data.grid, self.data.n_strata, "M4", CrossStrataStructure(kind="exchangeable")
        )
        self.cells = np.argwhere(self.data.observed)
        self.counts = self.data.counts[self.data.observed]

    def op(self):
        mode = inference.conditional_mode(self.model, self.eta, data=self.data)
        fit = inference.sample_posterior(
            self.model, self.eta, data=self.data, n=self.spec["n_samples"],
            seed=SAMPLING_SEED, mode=mode,
        )
        score = selection.waic(selection.pointwise_loglik(fit, self.data))
        counts = diagnostics.hindcast(fit, self.cells, self.data.exposures, seed=SAMPLING_SEED + 1)
        calibration = diagnostics.pit(counts.samples, self.counts)
        rr = diagnostics.cross_strata_rr(fit, "period", 0, self.data.n_strata - 1)
        return fit, score, calibration, rr

    def op_times(self, seconds):
        return [seconds]

    def check(self, result):
        fit, score, calibration, rr = result
        prints = [fingerprint("M4", "exchangeable", 0, None, fit.log_marginal, score.waic)]
        messages = []
        if not math.isfinite(score.waic):
            messages.append("WAIC not finite")
        if not reproduces(fit, self.data):
            messages.append("log-marginal does not reproduce")
        if not (np.all(calibration.values >= 0.0) and np.all(calibration.values <= 1.0)):
            messages.append("PIT values outside [0, 1]")
        if not (rr.indices[0] == 1 and rr.median[0] == 1.0):
            messages.append("RR curve is not 1 at its first index")
        return prints, int(bool(messages)), 1, messages


WORKLOADS = {"grid-r5": GridR5, "fit-r25": FitR25, "posterior-r25": PosteriorR25}


def reference_mismatches(workload, search, prints):
    """Differences from the fingerprints recorded at the default seed; where
    a search runs, a higher log-marginal than the reference is no mismatch."""
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None:
        return ["no reference recorded"]
    got = {(p["pattern"], p["structure"]): p for p in prints}
    want = {(p["pattern"], p["structure"]): p for p in ref}
    out = []
    if set(got) != set(want):
        out.append(f"candidates differ from the reference: {sorted(set(got) ^ set(want))}")
    waic_rtol = WAIC_RTOL_SEARCH if search else RTOL_FIXED
    for key in sorted(set(got) & set(want)):
        g, w = got[key], want[key]
        lm_tol = RTOL_FIXED * (1.0 + abs(w["log_marginal"]))
        low = g["log_marginal"] < w["log_marginal"] - lm_tol
        high = not search and g["log_marginal"] > w["log_marginal"] + lm_tol
        if low or high:
            out.append(f"{key}: log-marginal {g['log_marginal']!r} vs reference {w['log_marginal']!r}")
        if not abs(g["waic"] - w["waic"]) <= waic_rtol * abs(w["waic"]):
            out.append(f"{key}: WAIC {g['waic']!r} vs reference {w['waic']!r}")
    return out


# ---------------------------------------------------------------------------
# environment


def openblas_threads():
    """Effective thread count of each OpenBLAS loaded in this process, read
    through its getter; nothing is set."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
    getters = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in getters:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment():
    source = ROOT / "src" / "stratapc"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "kernel_backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "source_lines": sum(len(p.read_text().splitlines()) for p in sorted(source.glob("*.py"))),
    }


def layer_metrics(tracer, out):
    """The traced run's metrics: per-layer figures, the tracing overhead and
    the BLAS threads in effect."""
    import tracing

    untraced = statistics.median(out["op_s"])
    traced = statistics.median(out["op_s_traced"])
    values = tracer.summary(len(out["op_s_traced"]), sum(out["op_s_traced"]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.layer_metric_units().items()}
    metrics.update(
        {
            "trace.self_coverage": {"value": values["trace.self_coverage"], "unit": "ratio"},
            "trace.op_s_untraced": {"value": untraced, "unit": "s"},
            "trace.op_s_traced": {"value": traced, "unit": "s"},
            "trace.overhead_s": {"value": traced - untraced, "unit": "s"},
            "env.blas_threads": {
                "value": max(out["environment"]["openblas_threads"].values(), default=0),
                "unit": "count",
            },
            "env.cores": {"value": out["environment"]["cores"], "unit": "count"},
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# the run


def run_ops(workload, seconds, tally, tracer=None):
    """Call the workload as often as whole calls fit in ``seconds`` (at
    least once), taking the last call's length as the next one's; return
    the wall time of each call and of each operation within the calls.
    Checks run outside the timed region."""
    calls, times = [], []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start + calls[-1] <= seconds:
        if tracer is not None:
            tracer.phase = "op"
        t = time.perf_counter()
        try:
            result = workload.op()
        except Exception as exc:  # one failed operation must not end the run
            calls.append(time.perf_counter() - t)
            times.append(calls[-1])
            tally.record([], tally.units, tally.units, [f"{type(exc).__name__}: {exc}"])
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.phase = None
        calls.append(time.perf_counter() - t)
        times.extend(workload.op_times(calls[-1]))
        tally.record(*workload.check(result))
    return calls, times


class Tally:
    def __init__(self, units):
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.fingerprints = None

    def record(self, prints, failed, attempted, messages):
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)
        if self.fingerprints is None and prints:
            self.fingerprints = prints


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's fingerprints as the workload's reference")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    spec = SIZES[args.size][args.workload]
    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = "setup"
    log = SearchLog()
    workload = cls(spec, args.seed, log)
    setup_s = time.perf_counter() - _T0
    if tracer is not None:
        tracer.phase = None
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally(getattr(cls, "units", 1))
    out = {"setup_s": setup_s, "environment": environment()}
    if tracer is None:
        out["call_s"], out["op_s"] = run_ops(workload, args.seconds, tally)
    else:
        run_ops(workload, 0, tally)  # warm-up, so neither half pays first-call costs
        out["call_s"], out["op_s"] = run_ops(workload, args.seconds / 2, tally)
        _, out["op_s_traced"] = run_ops(workload, args.seconds / 2, tally, tracer)
        out["layers"] = layer_metrics(tracer, out)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")
        tracer.uninstall()

    prints = tally.fingerprints or []
    if args.write_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = prints
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED and args.size == "full":
        mismatches = reference_mismatches(args.workload, cls.search, prints)
        if mismatches:
            tally.failed += 1
            tally.messages.extend(f"reference: {m}" for m in mismatches)
    converged = [p["converged"] for p in prints if p["converged"] is not None]
    out.update(
        attempted=tally.attempted,
        failed=min(tally.failed, tally.attempted),
        messages=tally.messages,
        fingerprints=prints,
        laplace_objective_sum=sum(p["log_marginal"] for p in prints),
        unconverged_frac=(sum(not c for c in converged) / len(converged)) if converged else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

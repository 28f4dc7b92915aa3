"""End-to-end benchmark of stratapc.

    python3 perfbench/run.py --workload grid-r5 --seed 8 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 8          # all three workloads
    python3 perfbench/run.py --selftest

Runs one workload (see BENCHMARK.json and perfbench/README.md), or without
``--workload`` each in turn, in a child process whose environment has no
BLAS thread-count variables, so the package's own default is measured.  The set-up is timed in that process and
in two more that only set up; ``setup_s`` is their median.

Standard output holds a JSON report per workload (environment, per-fit
fingerprints, failure messages, every metric with its unit) and ends with
the result, ``{"correct", "attempted", "failed", "metrics"}`` (without
``--workload``: those results keyed by workload).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
operation runs once to warm up, untraced for half of the time and traced
for the other half, and the metrics are the per-layer ones plus the tracing
overhead.

``--selftest`` runs every workload at a tiny size, untraced and traced, and
checks each result's shape and correctness.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-r5", "fit-r25", "posterior-r25")
SCRUBBED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STRATAPC_BLAS_THREADS")
SETUP_PROBES = 2   # set-up-only processes besides the measured one
TIME_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run the workload process; return the JSON of its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(child: dict, setups: list[float]) -> dict:
    return {
        "op_s": {"value": statistics.median(child["op_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        "neg_laplace_objective_sum": {"value": -child["laplace_objective_sum"], "unit": "nat"},
    }


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> tuple[dict, dict]:
    """Run one workload; return (report, result)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"])
    child = run_child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(child["setup_s"])
    metrics = child["layers"] if trace else end_to_end(child, setups)
    attempted = child["attempted"]
    report = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "environment": child["environment"],
        "op_count": len(child["op_s"]),
        "op_s_all": child["op_s"],
        "call_s_all": child["call_s"],
        "setup_s_all": setups,
        "failed_frac": child["failed"] / attempted if attempted else 1.0,
        "unconverged_frac": child["unconverged_frac"],
        "failures": child["messages"],
        "fingerprints": child["fingerprints"],
        "metrics": metrics,
    }
    result = {
        "correct": attempted > 0 and child["failed"] == 0,
        "attempted": attempted,
        "failed": child["failed"],
        "metrics": metrics,
    }
    return report, result


def selftest() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json names other workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            report, result = run(workload, 1, 0.1, trace, size="tiny")
            label = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: incorrect: {report['failures']}")
            if set(result["metrics"]) != want[trace]:
                problems.append(f"{label}: metrics differ by {sorted(set(result['metrics']) ^ want[trace])}")
            if trace and not report["metrics"]["trace.self_coverage"]["value"] >= 0.9:
                problems.append(f"{label}: layers cover under 90% of the traced operation")
            print(f"{label}: {len(result['metrics'])} metrics, {result['attempted']} attempted, "
                  f"{result['failed']} failed", file=sys.stderr)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stratapc" / "__init__.py").is_file():
        print(f"stratapc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        report, result = run(workload, args.seed, args.seconds, args.trace)
        print(f"== {workload} (seed {args.seed}, trace {args.trace})", file=sys.stderr)
        for name, m in report["metrics"].items():
            print(f"{name:52s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        for name in ("failed_frac", "unconverged_frac"):
            print(f"{name:52s} {report[name]} ratio", file=sys.stderr)
        print(json.dumps(report))
        results[workload] = result
    # one workload: its result; all of them: the results by workload
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

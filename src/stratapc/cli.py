"""Command-line interface.

Subcommands: ``simulate`` (synthetic data generator), ``fit`` (one model),
``grid`` (the full model grid with WAIC), ``prior-check`` (prior-predictive
summary), ``hindcast`` (masked-cell prediction with PIT), and ``rr``
(cross-strata relative-risk curves).  Outputs are CSV tables and JSON
summaries with provenance (config hash, seed, versions, cores, BLAS threads
and posterior-reader threads); exit status is 0 on success, 1 on usage
errors, 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from . import _kernels
from .config import ConfigError, RunConfig
from .core import GridSpec, unflatten_surface
from .covariance import DisconnectedGraphError
from .data import (
    DataFormatError,
    GridWindow,
    aggregate,
    load_graph,
    read_series_csv,
    simulate_dataset,
    write_graph_csv,
    write_series_csv,
)
from .diagnostics import MIN_PIT_SAMPLES, cross_strata_rr, hindcast, pit
from .inference import ModeError, MortalityDataset, pattern_names
from .priors import sample_prior_predictive
from .report import provenance, svg_line_plot, write_csv, write_json
from .selection import (
    STRUCTURES,
    GridConfig,
    candidate_model,
    fit_candidate,
    fit_grid,
    pointwise_loglik,
    waic,
)


class UsageError(ValueError):
    pass


def _ranged(cast, ok, need: str):
    """An argument type: ``cast`` of the text, which must be ``need``."""

    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")

    return parse


def _at_least(n: int):
    return _ranged(int, lambda v: v >= n, f"an integer of at least {n}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratapc",
        description="Stratified age-period-cohort models for event-count surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--data", required=True, help="long-format series CSV")
        p.add_argument("--graph", help="adjacency CSV (from,to[,augmented])")
        p.add_argument("--seed", type=_at_least(0), help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    pattern_arg = {"type": str.upper, "choices": pattern_names()}

    p = sub.add_parser("simulate", help="generate synthetic data from a specified model")
    p.add_argument("--out", required=True)
    p.add_argument("--n-age", type=_at_least(3), default=10)
    p.add_argument("--n-period", type=_at_least(3), default=10)
    p.add_argument("--n-strata", type=_at_least(1), default=4)
    p.add_argument("--pattern", default="M4", **pattern_arg)
    p.add_argument("--structure", default="independent",
                   choices=["independent", "exchangeable"])
    p.add_argument("--exposure", default=1e5,
                   type=_ranged(float, lambda v: 0.0 < v < np.inf, "finite and above 0"))
    p.add_argument("--missing", default=0.0,
                   type=_ranged(float, lambda v: 0.0 <= v < 1.0, "at least 0 and below 1"))
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--emit-graph", action="store_true",
                   help="also write a ring adjacency over the strata")

    p = sub.add_parser("fit", help="fit one (pattern, structure) model")
    io_args(p)
    p.add_argument("--pattern", required=True, **pattern_arg)
    p.add_argument("--structure", required=True, choices=STRUCTURES)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("grid", help="fit the model grid and rank by WAIC")
    io_args(p)
    p.add_argument("--models", help="comma-separated pattern subset")
    p.add_argument("--structures", help="comma-separated structure subset")
    p.add_argument("--workers", type=_at_least(1), default=1)

    p = sub.add_parser("prior-check", help="prior-predictive extrema summary")
    io_args(p)
    p.add_argument("--pattern", default="M6", **pattern_arg)
    p.add_argument("--structure", default="independent", choices=STRUCTURES)
    p.add_argument("--sims", type=_at_least(1), default=200)

    p = sub.add_parser("hindcast", help="mask cells, refit, predict, PIT")
    io_args(p)
    p.add_argument("--pattern", required=True, **pattern_arg)
    p.add_argument("--structure", required=True, choices=STRUCTURES)
    p.add_argument("--mask-stratum", required=True)
    p.add_argument("--mask-year-from", type=int, required=True)
    p.add_argument("--mask-year-to", type=int, required=True,
                   help="exclusive upper year bound of the mask")
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("rr", help="cross-strata relative-risk curve")
    io_args(p)
    p.add_argument("--pattern", required=True, **pattern_arg)
    p.add_argument("--structure", required=True, choices=STRUCTURES)
    p.add_argument("--block", required=True, choices=["period", "cohort"])
    p.add_argument("--r1", required=True, help="stratum label (numerator)")
    p.add_argument("--r2", required=True, help="stratum label (denominator)")
    return parser


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> tuple[RunConfig, MortalityDataset, GridConfig, dict]:
    """The run configuration, the aggregated data, the fit settings every
    subcommand fits with, and the provenance block of the outputs."""
    config = RunConfig.from_file(args.config)
    seed = config.fit.seed if args.seed is None else args.seed
    raw = read_series_csv(args.data)
    dataset, agg_report = aggregate(raw, config.window)
    graph = None
    if args.graph:
        graph, _ = load_graph(args.graph, strata=dataset.strata)
    # the structures named by --structure, or by grid's --structures
    elif "bym2" in (getattr(args, "structure", None) or args.structures or "").split(","):
        raise UsageError("structure bym2 requires --graph")
    fit_config = dataclasses.replace(config.fit, seed=seed, graph=graph)
    meta = {
        "provenance": provenance(config.canonical_dict(), seed),
        "aggregation": {
            "strata": list(dataset.strata),
            "n_rows": agg_report.n_rows,
            "n_dropped": agg_report.n_dropped,
            "n_partial_cells": len(agg_report.partial_cells),
        },
        "seed": seed,
    }
    return config, dataset, fit_config, meta


def _stratum_index(dataset: MortalityDataset, label: str) -> int:
    try:
        return dataset.strata.index(label)
    except ValueError:
        raise UsageError(f"unknown stratum {label!r}; have {', '.join(dataset.strata)}")


def _eta_jsonable(eta) -> dict:
    return {
        "tau": dict(eta.taus),
        "rho": dict(eta.rhos),
        "nu0": eta.nu0.tolist() if eta.nu0 is not None else None,
    }


def _axis_labels(window: GridWindow):
    ages = [window.age_start + i * window.bin_width for i in range(window.n_age)]
    years = [window.year_start + j * window.bin_width for j in range(window.n_period)]
    return ages, years


# ---------------------------------------------------------------------------
# handlers

def _cmd_simulate(args) -> int:
    grid = GridSpec(n_age=args.n_age, n_period=args.n_period, interval_width=1.0)
    try:
        dataset, truth = simulate_dataset(
            grid, args.n_strata, pattern=args.pattern, structure=args.structure,
            exposure=args.exposure, seed=args.seed, missing_fraction=args.missing,
        )
    except ValueError as exc:  # e.g. a structure the pattern or strata cannot carry
        raise UsageError(str(exc)) from None
    out = _outdir(args.out)
    window = GridWindow(
        age_start=0, age_end=grid.n_age - 1, year_start=0, year_end=grid.n_period, bin_width=1
    )
    write_series_csv(out / "data.csv", dataset, window)
    rows = [(label, i, j, truth.logrates[r, i, j]) for r, label in enumerate(dataset.strata)
            for i in range(grid.n_age) for j in range(grid.n_period)]
    write_csv(out / "truth.csv", ["stratum", "age", "year", "log_rate"], rows)
    config_dict = {"grid": dataclasses.asdict(window), "seed": args.seed}
    write_json(out / "config.json", config_dict)
    if args.emit_graph:
        labels = dataset.strata
        ring = [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
        write_graph_csv(out / "graph.csv", ring)
    write_json(
        out / "provenance.json",
        {
            "provenance": provenance(config_dict, args.seed),
            "truth_eta": _eta_jsonable(truth.eta),
            "pattern": args.pattern,
            "structure": args.structure,
        },
    )
    return 0


def _lograte_percentiles(fit) -> np.ndarray:
    """2.5%, 50% and 97.5% posterior log-rate percentiles, (3, R, A, T),
    built one stratum at a time."""
    model = fit.model
    g = model.grid
    out = np.empty((3, model.n_strata, g.n_age, g.n_period))
    for r in range(model.n_strata):
        q = _kernels.percentiles(model.stratum_logrates(fit.samples, r), [2.5, 50.0, 97.5])
        out[:, r] = unflatten_surface(q, g)
    return out


def _cmd_fit(args) -> int:
    config, dataset, fit_config, meta = _load(args)
    out = _outdir(args.out)
    fit = fit_candidate(dataset, fit_config, args.pattern, args.structure, fit_config.seed)
    score = waic(pointwise_loglik(fit, dataset))
    lower, median, upper = _lograte_percentiles(fit)
    ages, years = _axis_labels(config.window)

    rows = []
    for r, label in enumerate(dataset.strata):
        for i, age in enumerate(ages):
            for j, year in enumerate(years):
                obs = dataset.observed[r, i, j]
                crude = (
                    np.log(dataset.counts[r, i, j] / dataset.exposures[r, i, j])
                    if obs and dataset.counts[r, i, j] > 0
                    else np.nan
                )
                rows.append(
                    (label, age, year, int(obs), crude, median[r, i, j],
                     lower[r, i, j], upper[r, i, j])
                )
    write_csv(
        out / "logrates.csv",
        ["stratum", "age", "year", "observed", "crude_log_rate",
         "median", "lower", "upper"],
        rows,
    )

    j_mid = dataset.grid.n_period // 2
    i_mid = dataset.grid.n_age // 2
    write_csv(
        out / "age_curves.csv",
        ["stratum", "age", "median_log_rate"],
        [
            (label, ages[i], median[r, i, j_mid])
            for r, label in enumerate(dataset.strata)
            for i in range(dataset.grid.n_age)
        ],
    )
    write_csv(
        out / "drift_curves.csv",
        ["stratum", "year", "median_log_rate"],
        [
            (label, years[j], median[r, i_mid, j])
            for r, label in enumerate(dataset.strata)
            for j in range(dataset.grid.n_period)
        ],
    )
    if args.svg:
        svg_line_plot(
            out / "age_curves.svg",
            np.asarray(ages, dtype=float),
            {label: median[r, :, j_mid] for r, label in enumerate(dataset.strata)},
            title=f"fitted log rates by age, period {years[j_mid]}",
        )
        svg_line_plot(
            out / "drift_curves.svg",
            np.asarray(years, dtype=float),
            {label: median[r, i_mid, :] for r, label in enumerate(dataset.strata)},
            title=f"fitted log rates over time, age {ages[i_mid]}",
        )
    write_json(
        out / "fit.json",
        {
            **meta,
            "pattern": args.pattern,
            "structure": args.structure,
            "eta_hat": _eta_jsonable(fit.eta_hat),
            "log_marginal": fit.log_marginal,
            "converged": fit.converged,
            "waic": score.waic,
            "lppd": score.lppd,
            "p_waic": score.p_waic,
        },
    )
    return 0


def _subset(config: GridConfig, flag: str, value: str | None, field: str) -> GridConfig:
    """``config`` with the names of a comma-separated grid subset flag as
    its ``field``."""
    if not value:
        return config
    try:
        return dataclasses.replace(config, **{field: tuple(value.split(","))})
    except ValueError as exc:  # GridConfig's check of the names
        raise UsageError(f"{flag}: {exc}") from None


def _cmd_grid(args) -> int:
    _, dataset, grid_config, meta = _load(args)
    grid_config = _subset(grid_config, "--models", args.models, "patterns")
    grid_config = _subset(grid_config, "--structures", args.structures, "structures")
    structures = grid_config.structures
    if grid_config.graph is None:  # _load rejected bym2 named by --structures
        structures = tuple(s for s in structures if s != "bym2")
    out = _outdir(args.out)
    grid_config = dataclasses.replace(grid_config, structures=structures, workers=args.workers)
    result = fit_grid(dataset, grid_config)
    rows = [
        (e["pattern"], e["structure"], e["waic"], e["lppd"], e["p_waic"],
         int(e["converged"]), e["error"])
        for e in result.table_rows()
    ]
    write_csv(
        out / "grid.csv",
        ["pattern", "structure", "waic", "lppd", "p_waic", "converged", "error"],
        rows,
    )
    best = next((e for e in result.ranked() if e.ok), None)
    write_json(
        out / "grid.json",
        {
            **meta,
            "n_entries": len(result.entries),
            "best": {"pattern": best.pattern, "structure": best.structure, "waic": best.waic}
            if best
            else None,
            "entries": result.table_rows(),
        },
    )
    return 0


def _cmd_prior_check(args) -> int:
    _, dataset, fit_config, meta = _load(args)
    out = _outdir(args.out)
    summary = sample_prior_predictive(
        candidate_model(dataset, fit_config, args.pattern, args.structure),
        dataset,
        n_sims=args.sims,
        seed=fit_config.seed,
    )
    q = [2.5, 50.0, 97.5]
    write_json(
        out / "prior_check.json",
        {
            **meta,
            "pattern": args.pattern,
            "structure": args.structure,
            "n_sims": summary.n_sims,
            "n_degenerate": summary.n_degenerate,
            "max_count_quantiles": np.percentile(summary.max_counts, q).tolist()
            if summary.max_counts.size
            else None,
            "min_count_quantiles": np.percentile(summary.min_counts, q).tolist()
            if summary.min_counts.size
            else None,
            "frac_max_exceeds_observed": summary.frac_max_exceeds_observed,
            "frac_min_below_observed": summary.frac_min_below_observed,
            "observed_max": float(dataset.counts[dataset.observed].max()),
            "observed_min": float(dataset.counts[dataset.observed].min()),
        },
    )
    return 0


def _cmd_hindcast(args) -> int:
    config, dataset, fit_config, meta = _load(args)
    if fit_config.n_samples < MIN_PIT_SAMPLES:
        raise UsageError(
            f"hindcast PIT needs inference.n_samples >= {MIN_PIT_SAMPLES}, "
            f"got {fit_config.n_samples}"
        )
    r = _stratum_index(dataset, args.mask_stratum)
    window = config.window
    j_from = (args.mask_year_from - window.year_start) // window.bin_width
    j_to = (args.mask_year_to - window.year_start) // window.bin_width
    j_from = max(j_from, 0)
    j_to = min(j_to, dataset.grid.n_period)
    if j_to <= j_from:
        raise UsageError("mask year range selects no periods")

    mask = np.zeros_like(dataset.observed)
    mask[r, :, j_from:j_to] = dataset.observed[r, :, j_from:j_to]
    if not mask.any():
        raise UsageError("mask selects no observed cells")
    out = _outdir(args.out)
    train = MortalityDataset(
        counts=np.where(mask, 0.0, dataset.counts),
        exposures=np.where(mask, 0.0, dataset.exposures),
        observed=dataset.observed & ~mask,
        grid=dataset.grid,
        strata=dataset.strata,
    )
    fit = fit_candidate(train, fit_config, args.pattern, args.structure, fit_config.seed)
    targets = np.argwhere(mask)
    result = hindcast(fit, targets, dataset.exposures, seed=fit_config.seed)
    pit_result = pit(
        result.samples, dataset.counts[targets[:, 0], targets[:, 1], targets[:, 2]]
    )
    ages, years = _axis_labels(window)
    rows = []
    covered = 0
    for t, (rr_, i, j) in enumerate(targets):
        y_true = dataset.counts[rr_, i, j]
        lo, med, hi = result.lower[t], result.median[t], result.upper[t]
        covered += int(lo <= y_true <= hi)
        rows.append(
            (dataset.strata[rr_], ages[i], years[j], y_true, med, lo, hi,
             pit_result.values[t])
        )
    write_csv(
        out / "hindcast.csv",
        ["stratum", "age", "year", "observed", "median", "lower", "upper", "pit"],
        rows,
    )
    write_csv(
        out / "pit_density.csv",
        ["u", "density"],
        list(zip(pit_result.density_grid, pit_result.density)),
    )
    if args.svg:
        svg_line_plot(
            out / "pit_density.svg",
            pit_result.density_grid,
            {"pit density": pit_result.density, "uniform": np.ones_like(pit_result.density_grid)},
            title="hindcast PIT density",
        )
    write_json(
        out / "hindcast.json",
        {
            **meta,
            "pattern": args.pattern,
            "structure": args.structure,
            "masked_stratum": args.mask_stratum,
            "mask_years": [args.mask_year_from, args.mask_year_to],
            "n_masked_cells": int(targets.shape[0]),
            "coverage_95": covered / targets.shape[0],
        },
    )
    return 0


def _cmd_rr(args) -> int:
    _, dataset, fit_config, meta = _load(args)
    out = _outdir(args.out)
    r1 = _stratum_index(dataset, args.r1)
    r2 = _stratum_index(dataset, args.r2)
    fit = fit_candidate(dataset, fit_config, args.pattern, args.structure, fit_config.seed)
    result = cross_strata_rr(fit, args.block, r1, r2)
    write_csv(
        out / "rr.csv",
        ["index", "median", "lower", "upper"],
        list(zip(result.indices, result.median, result.lower, result.upper)),
    )
    write_json(
        out / "rr.json",
        {
            **meta,
            "pattern": args.pattern,
            "structure": args.structure,
            "block": args.block,
            "r1": args.r1,
            "r2": args.r2,
            "licensed_by_shared_block": result.licensed_by,
            "normalization": "first index = 1",
            "ambiguity": result.note,
        },
    )
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "grid": _cmd_grid,
    "prior-check": _cmd_prior_check,
    "hindcast": _cmd_hindcast,
    "rr": _cmd_rr,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ConfigError, DataFormatError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModeError, sla.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

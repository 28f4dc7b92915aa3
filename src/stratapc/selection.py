"""Model-grid orchestration and WAIC scoring.

The candidate grid crosses the six sharing patterns with the cross-strata
structures: the fully shared pattern is fit once (it admits no structure),
every other pattern under independent, exchangeable and, when an adjacency
graph is supplied, bym2 -- sixteen candidates in the full grid.  Entries fit
independently; per-entry failures are recorded without aborting the grid.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import _kernels
from .covariance import STRUCTURES, AdjacencyGraph, CrossStrataStructure
from .core import BaselineSpec
from .inference import (
    LatentModel,
    ModeError,
    MortalityDataset,
    PosteriorFit,
    SharingPattern,
    assemble_model,
    fit_model,
    pattern_names,
)
from .priors import PriorConfig


@dataclass(frozen=True)
class WaicResult:
    waic: float
    lppd: float
    p_waic: float
    flagged_cells: np.ndarray

    def as_tuple(self) -> tuple[float, float, float]:
        return self.waic, self.lppd, self.p_waic


def waic(loglik_samples: np.ndarray) -> WaicResult:
    """Widely applicable information criterion from per-sample pointwise
    log likelihoods (rows: posterior samples, columns: cells).

    lppd sums log mean predictive density per cell (log-sum-exp for
    stability); the penalty is the per-cell sample variance of the log
    likelihood; waic = -2 (lppd - p_waic).  Cells with non-finite entries
    (e.g. all-zero predictive mass) are flagged, excluded from the sums, and
    reported.

    Both terms are per cell, so they are computed over column blocks, one
    ``_kernels.parallel_map`` task each, with ``_kernels.logsumexp_columns``.
    Every cell reduces over one contiguous column, so its terms depend on
    neither the block width nor the thread count: a block of the
    column-major matrix that ``pointwise_loglik`` returns is read in place,
    and only a row-major input is copied, block by block, to Fortran order.
    """
    ll = np.asarray(loglik_samples, dtype=float)
    if ll.ndim != 2 or ll.shape[0] < 2:
        raise ValueError("need a (n_samples >= 2, n_cells) matrix")
    n, cells = ll.shape
    finite = np.empty(cells, dtype=bool)
    lse = np.empty(cells)
    var = np.empty(cells)

    def column_block(cols):
        block = np.asfortranarray(ll[:, cols])
        keep = np.all(np.isfinite(block), axis=0)
        finite[cols] = keep
        if not keep.all():
            block = block[:, keep]
        lse[cols][keep] = _kernels.logsumexp_columns(block)
        var[cols][keep] = np.var(block, axis=0, ddof=1)

    _kernels.parallel_map(column_block, _kernels.blocks(cells, n))
    flagged = np.flatnonzero(~finite)
    if flagged.size:
        warnings.warn(
            f"{flagged.size} cells with non-finite log likelihoods excluded from WAIC",
            RuntimeWarning,
        )
    lppd = float(np.sum(lse[finite] - np.log(n)))
    p_waic = float(np.sum(var[finite]))
    return WaicResult(
        waic=-2.0 * (lppd - p_waic), lppd=lppd, p_waic=p_waic, flagged_cells=flagged
    )


def pointwise_loglik(fit: PosteriorFit, data: MortalityDataset) -> np.ndarray:
    """Per-posterior-sample, per-observed-cell Poisson log likelihoods of
    ``data`` (a dataset of the fit's (R, A, T), or its ``PoissonLikelihood``),
    (n_samples, n_observed) in the model's cell order, column-major
    (Fortran order), so that each cell's samples are contiguous for the
    per-cell readers (``waic``).

    The draws are mapped to log rates one stratum at a time, one
    ``_kernels.parallel_map`` task each; the kernel turns the stratum's
    observed log rates into log likelihoods in place, and one copy moves
    them into the stratum's contiguous chunk of the output, so no
    (n_samples, R * cells) log-rate matrix is built.
    """
    model = fit.model
    lik = model.likelihood(data)
    y = lik.y[lik.observed]
    exposure = lik.exposure[lik.observed]
    out = np.empty((fit.n_samples, y.shape[0]), order="F")
    keeps = lik.observed.reshape(model.n_strata, -1)
    bounds = np.concatenate(([0], np.cumsum(np.count_nonzero(keeps, axis=1))))

    def stratum(r):
        keep = keeps[r]
        cols = slice(bounds[r], bounds[r + 1])
        logrates = model.stratum_logrates(fit.samples, r)
        out[:, cols] = _kernels.pointwise_poisson_ll(
            logrates if keep.all() else logrates[:, keep],
            y[cols],
            exposure[cols],
            lik.cell_constants[cols],
        )

    _kernels.parallel_map(stratum, range(model.n_strata))
    return out


@dataclass
class GridEntry:
    pattern: str
    structure: str
    waic: float = np.nan
    lppd: float = np.nan
    p_waic: float = np.nan
    converged: bool = False
    fit: PosteriorFit | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ModelGridResult:
    entries: list[GridEntry]

    def ranked(self) -> list[GridEntry]:
        good = sorted((e for e in self.entries if e.ok), key=lambda e: e.waic)
        bad = [e for e in self.entries if not e.ok]
        return good + bad

    def entry(self, pattern: str, structure: str) -> GridEntry:
        for e in self.entries:
            if e.pattern == pattern and e.structure == structure:
                return e
        raise KeyError(f"no entry ({pattern}, {structure})")

    def table_rows(self) -> list[dict]:
        return [
            {
                "pattern": e.pattern,
                "structure": e.structure,
                "waic": e.waic,
                "lppd": e.lppd,
                "p_waic": e.p_waic,
                "converged": e.converged,
                "error": e.error or "",
            }
            for e in self.ranked()
        ]


@dataclass
class GridConfig:
    """Settings for one grid run; patterns/structures default to the full
    sixteen-candidate grid when a graph is available, and an unknown name
    in either is an error."""

    patterns: tuple[str, ...] = field(default_factory=pattern_names)
    structures: tuple[str, ...] = STRUCTURES
    graph: AdjacencyGraph | None = None
    prior_config: PriorConfig = field(default_factory=PriorConfig)
    baseline_spec: BaselineSpec | None = None
    n_samples: int = 1000
    seed: int = 0
    budget: int = 2000
    rel_tol: float = 1e-6
    workers: int = 1

    def __post_init__(self) -> None:
        for kind, names, known in (
            ("pattern", self.patterns, pattern_names()),
            ("structure", self.structures, STRUCTURES),
        ):
            unknown = [n for n in names if n not in known]
            if unknown:
                raise ValueError(
                    f"unknown {kind} {', '.join(map(repr, unknown))}; use {', '.join(known)}"
                )


def _entry_specs(data: MortalityDataset, config: GridConfig) -> list[tuple[str, str]]:
    structures = tuple(s for s in STRUCTURES if s in config.structures)
    if "bym2" in structures and config.graph is None:
        raise ValueError("bym2 entries require an adjacency graph")
    specs: list[tuple[str, str]] = []
    for name in pattern_names():
        if name not in config.patterns:
            continue
        pattern = SharingPattern.from_name(name)
        if data.n_strata == 1 and name != "M1":
            continue
        if not pattern.varying:
            if "independent" in structures:
                specs.append((name, "independent"))
            continue
        for s in structures:
            specs.append((name, s))
    return specs


def candidate_model(
    data: MortalityDataset, config: GridConfig, pattern: str, structure_kind: str
) -> LatentModel:
    """The latent model of one (pattern, structure) candidate under the
    run's priors and baseline; bym2 takes the configured graph."""
    structure = CrossStrataStructure(
        kind=structure_kind,
        graph=config.graph if structure_kind == "bym2" else None,
    )
    return assemble_model(
        data.grid,
        data.n_strata,
        pattern,
        structure,
        baseline_spec=config.baseline_spec,
        prior_config=config.prior_config,
    )


def fit_candidate(
    data: MortalityDataset, config: GridConfig, pattern: str, structure_kind: str, seed: int
) -> PosteriorFit:
    """Build one candidate and fit it with the run's sampling and search
    settings; the one path from settings to a fitted model."""
    return fit_model(
        candidate_model(data, config, pattern, structure_kind),
        data,
        n_samples=config.n_samples,
        seed=seed,
        budget=config.budget,
        rel_tol=config.rel_tol,
    )


def _fit_entry(
    data: MortalityDataset, config: GridConfig, spec: tuple[str, str], seed: int
) -> GridEntry:
    pattern, structure_kind = spec
    entry = GridEntry(pattern=pattern, structure=structure_kind)
    try:
        fit = fit_candidate(data, config, pattern, structure_kind, seed)
        score = waic(pointwise_loglik(fit, data))
        entry.waic, entry.lppd, entry.p_waic = score.as_tuple()
        entry.converged = fit.converged
        entry.fit = fit
    except (ModeError, ValueError, sla.LinAlgError) as exc:
        entry.error = f"{type(exc).__name__}: {exc}"
    return entry


def fit_grid(data: MortalityDataset, config: GridConfig) -> ModelGridResult:
    """Fit every (pattern, structure) candidate and score it by WAIC.

    Entry seeds derive from the grid seed in canonical entry order, so the
    result is independent of fit order and worker count.  No reader thread
    is running when the worker processes are forked: each
    ``_kernels.parallel_map`` joins its threads before it returns.
    """
    specs = _entry_specs(data, config)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.seed).spawn(len(specs))]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            entries = list(
                pool.map(_fit_entry, [data] * len(specs), [config] * len(specs), specs, seeds)
            )
    else:
        entries = [_fit_entry(data, config, spec, seed) for spec, seed in zip(specs, seeds)]
    return ModelGridResult(entries=entries)

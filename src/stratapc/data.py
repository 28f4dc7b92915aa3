"""Data ingestion and synthetic-data generation.

Long-format event series (stratum, age, year, deaths, exposure) aggregate
into age x period bins per stratum.  Age bounds name the first and last bin
starts (inclusive); year bounds cover [year_start, year_end) with the upper
edge exclusive.  Adjacency graphs load from headed CSV edge lists whose
optional ``augmented`` column marks manually added connectivity links, so
the augmentation is auditable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariance import AdjacencyGraph
from .core import BaselineSpec, GridSpec, unflatten_surface
from .inference import LatentModel, MortalityDataset, assemble_model
from .priors import HyperParameters, PriorConfig


class DataFormatError(ValueError):
    """A data file does not match the documented format."""


@dataclass(frozen=True)
class RawSeries:
    """Long-format rows keyed by (stratum, age, year); deaths are counts,
    exposure is person-years."""

    stratum: np.ndarray
    age: np.ndarray
    year: np.ndarray
    deaths: np.ndarray
    exposure: np.ndarray

    def __post_init__(self) -> None:
        n = self.stratum.shape[0]
        for name in ("age", "year", "deaths", "exposure"):
            if getattr(self, name).shape[0] != n:
                raise DataFormatError(f"column {name} length mismatch")
        if np.any(self.deaths < 0):
            raise DataFormatError("deaths must be nonnegative")
        if np.any(self.exposure < 0):
            raise DataFormatError("exposure must be nonnegative")
        if np.any((self.deaths > 0) & (self.exposure <= 0)):
            raise DataFormatError("rows with deaths > 0 need positive exposure")
        keys = set()
        for s, a, y in zip(self.stratum, self.age, self.year):
            key = (s, int(a), int(y))
            if key in keys:
                raise DataFormatError(f"duplicate (stratum, age, year) key {key}")
            keys.add(key)

    @property
    def n_rows(self) -> int:
        return self.stratum.shape[0]


def read_series_csv(path: str | Path) -> RawSeries:
    """Read a headed CSV with columns stratum, age, year, deaths, exposure."""
    required = ["stratum", "age", "year", "deaths", "exposure"]
    stratum, age, year, deaths, exposure = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise DataFormatError(
                f"{path}: expected header with columns {', '.join(required)}"
            )
        for row in reader:
            stratum.append(row["stratum"])
            age.append(int(float(row["age"])))
            year.append(int(float(row["year"])))
            deaths.append(float(row["deaths"]))
            exposure.append(float(row["exposure"]))
    return RawSeries(
        stratum=np.asarray(stratum, dtype=object),
        age=np.asarray(age, dtype=int),
        year=np.asarray(year, dtype=int),
        deaths=np.asarray(deaths, dtype=float),
        exposure=np.asarray(exposure, dtype=float),
    )


@dataclass(frozen=True)
class GridWindow:
    """Aggregation window.  ``age_start``..``age_end`` are the first and
    last age-bin starts (both inclusive); years cover [year_start, year_end)
    with the upper edge exclusive.  Both spans must divide the bin width."""

    age_start: int
    age_end: int
    year_start: int
    year_end: int
    bin_width: int

    def __post_init__(self) -> None:
        if self.bin_width < 1:
            raise ValueError("bin_width must be a positive integer")
        if (self.age_end - self.age_start) % self.bin_width != 0:
            raise ValueError(
                f"age range {self.age_start}..{self.age_end} is not divisible "
                f"by bin_width={self.bin_width}"
            )
        if (self.year_end - self.year_start) % self.bin_width != 0:
            raise ValueError(
                f"year range {self.year_start}..{self.year_end} is not divisible "
                f"by bin_width={self.bin_width}"
            )
        if self.n_age < 3 or self.n_period < 3:
            raise ValueError("window must give at least 3 age groups and 3 periods")

    @property
    def n_age(self) -> int:
        return (self.age_end - self.age_start) // self.bin_width + 1

    @property
    def n_period(self) -> int:
        return (self.year_end - self.year_start) // self.bin_width

    def grid(self) -> GridSpec:
        return GridSpec(
            n_age=self.n_age, n_period=self.n_period, interval_width=float(self.bin_width)
        )


@dataclass(frozen=True)
class AggregationReport:
    strata: tuple[str, ...]
    n_rows: int
    n_dropped: int
    partial_cells: tuple[tuple[str, int, int], ...]  # (stratum, age idx, period idx)


def aggregate(raw: RawSeries, window: GridWindow) -> tuple[MortalityDataset, AggregationReport]:
    """Sum deaths and exposures into bins.

    Cells with no underlying rows are marked missing; cells covering only
    part of a bin are kept and flagged.  Rows outside the window are dropped
    and counted.
    """
    strata = tuple(sorted(set(raw.stratum.tolist())))
    index = {s: i for i, s in enumerate(strata)}
    a_n, t_n = window.n_age, window.n_period
    counts = np.zeros((len(strata), a_n, t_n))
    exposures = np.zeros_like(counts)
    cover = np.zeros_like(counts)

    width = window.bin_width
    in_age = (raw.age >= window.age_start) & (raw.age < window.age_end + width)
    in_year = (raw.year >= window.year_start) & (raw.year < window.year_end)
    keep = in_age & in_year
    n_dropped = int(np.sum(~keep))

    for s, a, y, d, n in zip(
        raw.stratum[keep], raw.age[keep], raw.year[keep], raw.deaths[keep], raw.exposure[keep]
    ):
        r = index[s]
        i = (int(a) - window.age_start) // width
        j = (int(y) - window.year_start) // width
        counts[r, i, j] += d
        exposures[r, i, j] += n
        cover[r, i, j] += 1

    observed = (cover > 0) & (exposures > 0)
    partial = (cover > 0) & (cover < width * width)
    partial_cells = tuple(
        (strata[r], int(i), int(j)) for r, i, j in np.argwhere(partial)
    )
    dataset = MortalityDataset(
        counts=np.where(observed, counts, 0.0),
        exposures=np.where(observed, exposures, 0.0),
        observed=observed,
        grid=window.grid(),
        strata=strata,
    )
    report = AggregationReport(
        strata=strata,
        n_rows=raw.n_rows,
        n_dropped=n_dropped,
        partial_cells=partial_cells,
    )
    return dataset, report


def write_series_csv(path: str | Path, dataset: MortalityDataset, window: GridWindow) -> None:
    """Write a dataset back to the long format, one row per observed bin
    (ages and years labelled by their bin starts)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stratum", "age", "year", "deaths", "exposure"])
        for r, label in enumerate(dataset.strata):
            for i in range(dataset.grid.n_age):
                for j in range(dataset.grid.n_period):
                    if not dataset.observed[r, i, j]:
                        continue
                    writer.writerow(
                        [
                            label,
                            window.age_start + i * window.bin_width,
                            window.year_start + j * window.bin_width,
                            f"{dataset.counts[r, i, j]:.17g}",
                            f"{dataset.exposures[r, i, j]:.17g}",
                        ]
                    )


# ---------------------------------------------------------------------------
# adjacency graphs

@dataclass(frozen=True)
class GraphReport:
    strata: tuple[str, ...]
    n_components_before: int
    n_components_after: int
    augmented_edges: tuple[tuple[str, str], ...]


def load_graph(
    path: str | Path, strata: tuple[str, ...] | None = None
) -> tuple[AdjacencyGraph, GraphReport]:
    """Load a headed CSV edge list (columns: from, to, optional augmented).

    Augmented rows are manually added connectivity links; the report gives
    component counts with and without them.  When ``strata`` is supplied the
    node universe and ordering are taken from it and unknown ids are errors;
    otherwise nodes are the sorted ids appearing in the file.
    """
    base_edges: list[tuple[str, str]] = []
    aug_edges: list[tuple[str, str]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "from" not in reader.fieldnames or "to" not in reader.fieldnames:
            raise DataFormatError(f"{path}: expected header with columns from, to[, augmented]")
        for row in reader:
            u, v = row["from"], row["to"]
            if u == v:
                raise DataFormatError(f"{path}: self-loop on stratum {u!r}")
            flag = str(row.get("augmented", "") or "").strip().lower()
            (aug_edges if flag in ("1", "true", "yes") else base_edges).append((u, v))

    if strata is None:
        ids = sorted({u for u, v in base_edges + aug_edges} | {v for u, v in base_edges + aug_edges})
        strata = tuple(ids)
    index = {s: i for i, s in enumerate(strata)}
    for u, v in base_edges + aug_edges:
        if u not in index or v not in index:
            unknown = u if u not in index else v
            raise DataFormatError(f"{path}: unknown stratum id {unknown!r}")

    def as_graph(pairs: list[tuple[str, str]]) -> AdjacencyGraph:
        return AdjacencyGraph.from_edges(
            len(strata), [(index[u], index[v]) for u, v in pairs]
        )

    before = as_graph(base_edges)
    graph = as_graph(base_edges + aug_edges)
    report = GraphReport(
        strata=strata,
        n_components_before=before.n_components,
        n_components_after=graph.n_components,
        augmented_edges=tuple(aug_edges),
    )
    return graph, report


def write_graph_csv(path: str | Path, edges, augmented=()) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "augmented"])
        for u, v in edges:
            writer.writerow([u, v, "false"])
        for u, v in augmented:
            writer.writerow([u, v, "true"])


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class SimulationTruth:
    eta: HyperParameters
    xi: np.ndarray
    logrates: np.ndarray  # (R, A, T)


def default_simulation_eta(model: LatentModel) -> HyperParameters:
    """Hyperparameters giving plausibly sized mortality surfaces: moderate
    curvature spread per block and mid-range correlations."""
    sds = {"age": 0.4, "period": 0.1, "cohort": 0.05, "baseline": 0.12}
    taus = {b: 1.0 / sds[b] ** 2 for b in model.prior_model.tau_blocks}
    rhos = {b: 0.5 for b in model.prior_model.rho_blocks}
    nu0 = model.prior_model.baseline_mean.mean.copy() if model.prior_model.nu0_active else None
    return HyperParameters(taus=taus, rhos=rhos, nu0=nu0)


_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10  # numpy's cap


def simulate_dataset(
    grid: GridSpec,
    n_strata: int,
    pattern: str = "M4",
    structure: str | object = "independent",
    eta: HyperParameters | None = None,
    exposure: float = 1e5,
    seed: int = 0,
    missing_fraction: float = 0.0,
    baseline_spec: BaselineSpec | None = None,
    prior_config: PriorConfig | None = None,
) -> tuple[MortalityDataset, SimulationTruth]:
    """Generate a dataset from a specified model: latent coordinates drawn
    from the prior at ``eta`` (defaults to plausible mortality scales),
    counts Poisson with constant exposure, optionally masking a random
    fraction of cells."""
    model = assemble_model(
        grid,
        n_strata,
        pattern,
        structure,
        baseline_spec=baseline_spec,
        prior_config=prior_config,
    )
    if eta is None:
        eta = default_simulation_eta(model)
    rng = np.random.default_rng(seed)
    xi = model.sample_latent_prior(eta, rng)
    mu = model.logrates_flat(xi)
    cube = unflatten_surface(mu.reshape(n_strata, -1), grid)
    exposures = np.full(cube.shape, float(exposure))
    with np.errstate(over="ignore", invalid="ignore"):
        lam = exposures * np.exp(cube)
        if not np.all(lam <= _POISSON_LAM_MAX):  # also catches inf and nan
            raise ValueError(f"exposure {exposure:g} times the largest simulated rate "
                             f"{np.exp(cube.max()):.3g} passes numpy's Poisson limit {_POISSON_LAM_MAX:.3g}")
    counts = rng.poisson(lam).astype(float)
    observed = np.ones(cube.shape, dtype=bool)
    if missing_fraction > 0:
        observed = rng.uniform(size=cube.shape) >= missing_fraction
    dataset = MortalityDataset(
        counts=np.where(observed, counts, 0.0),
        exposures=np.where(observed, exposures, 0.0),
        observed=observed,
        grid=grid,
        strata=tuple(f"s{i}" for i in range(n_strata)),
    )
    return dataset, SimulationTruth(eta=eta, xi=xi, logrates=cube)

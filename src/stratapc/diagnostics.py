"""Posterior-predictive diagnostics: PIT calibration, hindcasting of missing
cells, and cross-strata relative-risk curves with explicit ambiguity
handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import cell_index, curvature_basis, linear_coordinates
from .inference import PosteriorFit

RR_AMBIGUITY_NOTE = (
    "cross-strata relative risks are identified only up to a multiplicative "
    "constant; the curve is normalized to 1 at its first index and only its "
    "shape, not its level, is interpretable"
)


@dataclass(frozen=True)
class PITResult:
    """Per-cell probability integral transform values with a histogram and a
    boundary-reflected kernel density for plotting."""

    values: np.ndarray
    bin_edges: np.ndarray
    bin_density: np.ndarray
    density_grid: np.ndarray
    density: np.ndarray


# fewest predictive draws per cell that ``pit`` accepts
MIN_PIT_SAMPLES = 100
_PIT_BINS = 20  # histogram bins over [0, 1]


def pit(count_samples: np.ndarray, observed: np.ndarray) -> PITResult:
    """Nonrandomized PIT for counts: 0.5 * (F(y) + F(y-1)) with F the
    empirical CDF of the predictive draws per cell (columns) and F(-1) = 0.

    Needs at least MIN_PIT_SAMPLES predictive samples per cell.  The plotted density is a
    Gaussian kernel estimate with Silverman's bandwidth, reflected at 0 and 1.
    The CDF counts run over column blocks of the draws and the density over
    blocks of grid points (``_kernels.blocks``), so neither holds a
    whole-matrix temporary; column-major draws (``hindcast``'s) are read
    without a stride.
    """
    samples = np.asarray(count_samples, dtype=float)
    y = np.asarray(observed, dtype=float).ravel()
    if samples.ndim != 2 or samples.shape[1] != y.shape[0]:
        raise ValueError("count_samples must be (n_samples, n_cells) matching observed")
    if samples.shape[0] < MIN_PIT_SAMPLES:
        raise ValueError(f"need at least {MIN_PIT_SAMPLES} predictive samples per cell")
    values = _kernels.pit_mean_cdf(samples, y)
    edges = np.linspace(0.0, 1.0, _PIT_BINS + 1)
    density_hist, _ = np.histogram(values, bins=edges, density=True)
    grid = np.linspace(0.0, 1.0, 201)
    density = _reflected_kde(values, grid)
    return PITResult(
        values=values,
        bin_edges=edges,
        bin_density=density_hist,
        density_grid=grid,
        density=density,
    )


def _reflected_kde(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    std = float(np.std(values))
    iqr = float(np.subtract(*np.percentile(values, [75, 25])))
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    bw = 0.9 * spread * n ** (-0.2)
    if not np.isfinite(bw) or bw <= 0:
        bw = 0.05
    # reflect mass escaping past 0 and 1 back into the unit interval
    points = np.concatenate([values, -values, 2.0 - values])
    kernel_sums = np.empty(grid.shape[0])

    def grid_block(rows):
        z = (grid[rows, None] - points[None, :]) / bw
        kernel_sums[rows] = np.exp(-0.5 * z**2).sum(axis=1)

    _kernels.parallel_map(grid_block, _kernels.blocks(grid.shape[0], points.shape[0]))
    return kernel_sums / (n * bw * np.sqrt(2.0 * np.pi))


def ks_distance_from_uniform(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the values from the uniform on [0, 1]."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.shape[0]
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(ecdf_hi - v), np.abs(v - ecdf_lo))))


@dataclass(frozen=True)
class HindcastResult:
    """Posterior-predictive count draws for target cells, with medians and
    central 95% intervals.  ``samples`` is column-major (Fortran order):
    each target's draws are contiguous."""

    targets: np.ndarray       # (n_targets, 3) of (stratum, age, period), 0-based
    samples: np.ndarray       # (n_posterior_samples, n_targets), Fortran order
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def hindcast(
    fit: PosteriorFit,
    targets: np.ndarray,
    exposures: np.ndarray,
    seed: int = 0,
) -> HindcastResult:
    """Draw counts Poisson(N exp(mu)) per posterior log-rate sample at the
    target cells (which may be unobserved; the latent model defines their
    rates).  Exposures are required, as the (R, A, T) cube of the dataset.

    Each stratum holding targets is one ``_kernels.parallel_map`` task with
    its own Poisson stream: stratum r draws from
    ``default_rng(SeedSequence(seed).spawn(model.n_strata)[r])``, consumed
    in C order over its (n_samples, targets in r) submatrix with the
    targets in their given order.  The task maps the stratum's log rates,
    then replaces them by counts over row blocks, which consume the stream
    as one whole-submatrix draw would; so the draws depend on neither
    ``_kernels.BLOCK`` nor the thread count.  The percentiles sort each
    column block once (``_kernels.percentiles``)."""
    targets = np.atleast_2d(np.asarray(targets, dtype=int))
    if targets.shape[1] != 3:
        raise ValueError("targets must be rows of (stratum, age_index, period_index)")
    model = fit.model
    grid = model.grid
    bounds = (model.n_strata, grid.n_age, grid.n_period)
    outside = np.any((targets < 0) | (targets >= bounds), axis=1)
    if outside.any():
        first = tuple(int(x) for x in targets[np.argmax(outside)])
        raise IndexError(f"target cell {first} outside the grid")
    exposures = np.asarray(exposures, dtype=float)
    if exposures.shape != bounds:
        raise ValueError(
            f"exposures must have shape (R, A, T) = {bounds}, got {exposures.shape}"
        )
    n_target = exposures[targets[:, 0], targets[:, 1], targets[:, 2]]
    if np.any(~np.isfinite(n_target)) or np.any(n_target <= 0):
        raise ValueError("target exposures must be positive and finite")

    n, n_targets = fit.n_samples, targets.shape[0]
    cell = cell_index(targets[:, 1], targets[:, 2], grid.n_age)
    samples = np.empty((n, n_targets), order="F")
    streams = np.random.SeedSequence(seed).spawn(model.n_strata)

    def stratum(r):
        at = np.flatnonzero(targets[:, 0] == r)
        counts = model.stratum_logrates(fit.samples, r)[:, cell[at]]
        exposure = n_target[at]
        rng = np.random.default_rng(streams[r])
        for rows in _kernels.blocks(n, at.size):
            rate = np.exp(counts[rows])
            rate *= exposure
            counts[rows] = rng.poisson(rate)
        samples[:, at] = counts

    _kernels.parallel_map(stratum, np.unique(targets[:, 0]))
    lower, median, upper = _kernels.percentiles(samples, [2.5, 50.0, 97.5])
    return HindcastResult(
        targets=targets, samples=samples, median=median, lower=lower, upper=upper
    )


@dataclass(frozen=True)
class RRResult:
    """Posterior summaries of a normalized cross-strata relative-risk curve."""

    block: str
    r1: int
    r2: int
    indices: np.ndarray
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    licensed_by: str
    note: str


def contrast_curve_from_canonical(
    canon_r1: np.ndarray,
    canon_r2: np.ndarray,
    parts,
    block: str,
    shared: frozenset,
) -> np.ndarray:
    """Log contrast curve of one effect block between two strata, from
    canonical coordinate rows (n, n_canonical).

    The curvature difference is integrated with zero anchors and the linear
    slope is recovered from the baseline coordinates: with shared age
    curvature the unique decomposition of the surface difference into
    period-plus-cohort parts applies; with the opposite time scale shared,
    the two-way decomposition applies.  The returned curve is identified up
    to an additive constant only.
    """
    grid = parts.grid
    canon_r1 = np.atleast_2d(np.asarray(canon_r1, dtype=float))
    canon_r2 = np.atleast_2d(np.asarray(canon_r2, dtype=float))
    sizes = {"age": grid.n_age, "period": grid.n_period, "cohort": grid.n_cohort}

    t1 = np.atleast_2d(linear_coordinates(canon_r1, parts))
    t2 = np.atleast_2d(linear_coordinates(canon_r2, parts))
    dt = t1 - t2  # columns: (c0, age slope, period slope)

    h = curvature_basis(sizes[block])
    cols = grid.block_slices[block]
    dcurv = (canon_r1[:, cols] - canon_r2[:, cols]) @ h.T

    if block == "period":
        slope = dt[:, 2] + dt[:, 1] if "age" in shared else dt[:, 2]
    elif block == "cohort":
        slope = -dt[:, 1] if "age" in shared else dt[:, 2]
    else:
        raise ValueError("contrast curves are defined for the period and cohort blocks")
    return dcurv + np.arange(sizes[block])[None, :] * slope[:, None]


def cross_strata_rr(
    fit: PosteriorFit, block: str, r1: int, r2: int
) -> RRResult:
    """Normalized relative-risk curve exp(block effect contrast) between two
    strata.

    Licensed only when another time-scale block is shared under the fitted
    pattern (sharing pins the common linear trend); the curve is normalized
    so its first index equals 1 because the level is not identified.
    """
    if block not in ("period", "cohort"):
        raise ValueError("block must be 'period' or 'cohort'")
    model = fit.model
    if not (0 <= r1 < model.n_strata and 0 <= r2 < model.n_strata):
        raise IndexError("stratum index outside the data")
    shared = model.pattern.shared
    others = ({"age", "period", "cohort"} - {block}) & shared
    if not others:
        raise ValueError(
            f"pattern {model.pattern.name} shares none of the complementary "
            f"time scales, so the {block} contrast between strata is not "
            "identified and the operation refuses"
        )
    licensed_by = "age" if "age" in others else sorted(others)[0]

    canon_r1 = fit.samples[:, model.col_index[r1]]
    canon_r2 = fit.samples[:, model.col_index[r2]]
    log_contrast = contrast_curve_from_canonical(
        canon_r1, canon_r2, model.parts, block, shared
    )
    rr = np.exp(log_contrast - log_contrast[:, [0]])
    lower, median, upper = _kernels.percentiles(rr, [2.5, 50.0, 97.5])
    return RRResult(
        block=block,
        r1=r1,
        r2=r2,
        indices=np.arange(1, rr.shape[1] + 1),
        median=median,
        lower=lower,
        upper=upper,
        licensed_by=licensed_by,
        note=RR_AMBIGUITY_NOTE,
    )

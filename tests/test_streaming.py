"""The streamed posterior readers against their one-shot formulas.

``pointwise_loglik``, ``waic``, ``hindcast``, ``pit``, the relative-risk
curves and the CLI's log-rate percentiles work per stratum or over blocks of
``_kernels.BLOCK`` elements, as tasks of ``_kernels.parallel_map``.
The one-shot formulas they replaced are kept here as oracles.  With the
block constant patched small, every blocked path crosses several block
boundaries (width-one blocks, and a ragged last block) and must still
reproduce its oracle bit for bit, and give the same bits on one thread and
on several.  The memory guards check that the readers hold no whole-matrix
temporaries.
"""

import logging
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import logsumexp

from stratapc import _kernels
from stratapc.cli import _lograte_percentiles
from stratapc.core import GridSpec
from stratapc.diagnostics import (
    _reflected_kde,
    contrast_curve_from_canonical,
    cross_strata_rr,
    hindcast,
    pit,
)
from stratapc.inference import (
    MortalityDataset,
    PoissonLikelihood,
    PosteriorFit,
    _gaussian_draws,
    assemble_model,
    conditional_mode,
)
from stratapc.selection import pointwise_loglik, waic

# 50 draws over 90 cells: column blocks of 1, 7 and 20 cells, and row
# blocks that leave a ragged last block in every reader below
N_DRAWS = 50
SHAPE = (3, 5, 6)


@pytest.fixture(params=[1, 350, 1000])
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK", request.param)
    return request.param


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    exposures = rng.uniform(500.0, 5000.0, size=SHAPE)
    counts = rng.poisson(exposures * 0.02).astype(float)
    observed = rng.uniform(size=SHAPE) > 0.25
    return MortalityDataset.from_arrays(counts, exposures, observed=observed)


def draws_fit(model, n, seed=0, scale=0.05):
    """A posterior fit holding random latent draws around log rate -4."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, scale, size=(n, model.free_dim))
    samples[:, model.col_index[:, 0]] += -4.0  # the intercept column of every stratum
    return PosteriorFit(
        model=model,
        eta_hat=model.prior_model.default(),
        latent_mean=samples.mean(axis=0),
        samples=samples,
        log_marginal=0.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def fit(dataset):
    model = assemble_model(dataset.grid, dataset.n_strata, "M6", "exchangeable")
    return draws_fit(model, N_DRAWS)


# ----------------------------------------------------------------------
# one-shot oracles: the whole-matrix formulas the streamed readers replaced


def whole_matrix_pointwise(data, logrates):
    lik = PoissonLikelihood(data)
    mu = np.ascontiguousarray(logrates[:, lik.observed])
    y = lik.y[lik.observed]
    exposure = lik.exposure[lik.observed]
    return y[None, :] * mu - exposure[None, :] * np.exp(mu) + lik.cell_constants[None, :]


def whole_matrix_waic(ll):
    finite = np.all(np.isfinite(ll), axis=0)
    use = ll[:, finite]
    n = ll.shape[0]
    lppd = float(np.sum(logsumexp(use, axis=0) - np.log(n)))
    p_waic = float(np.sum(np.var(use, axis=0, ddof=1)))
    return -2.0 * (lppd - p_waic), lppd, p_waic, np.flatnonzero(~finite)


def whole_matrix_kde(values, grid):
    n = values.shape[0]
    std = float(np.std(values))
    iqr = float(np.subtract(*np.percentile(values, [75, 25])))
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    bw = 0.9 * spread * n ** (-0.2)
    points = np.concatenate([values, -values, 2.0 - values])
    z = (grid[:, None] - points[None, :]) / bw
    return np.exp(-0.5 * z**2).sum(axis=1) / (n * bw * np.sqrt(2.0 * np.pi))


# ----------------------------------------------------------------------


@pytest.mark.parametrize("length,width", [(90, 50), (7, 1), (0, 3), (5, 10**9)])
def test_blocks_tile_the_range(length, width):
    parts = _kernels.blocks(length, width)
    covered = np.concatenate([np.arange(length)[s] for s in parts]) if parts else np.arange(0)
    assert np.array_equal(covered, np.arange(length))
    step = max(1, _kernels.BLOCK // width)
    assert all(s.stop - s.start == step for s in parts[:-1])


def test_pointwise_loglik_matches_whole_matrix(fit, dataset):
    ll = pointwise_loglik(fit, dataset)
    assert ll.shape == (N_DRAWS, int(dataset.observed.sum()))
    assert np.array_equal(ll, whole_matrix_pointwise(dataset, fit.lograte_samples))


def test_pointwise_loglik_fully_observed_matches_whole_matrix(dataset):
    # every stratum's cells observed: no column selection; the kernel
    # overwrites the stratum's log rates in place and one copy moves them out
    full = MortalityDataset.from_arrays(
        dataset.counts, dataset.exposures, observed=np.ones(SHAPE, dtype=bool)
    )
    model = assemble_model(full.grid, full.n_strata, "M6", "exchangeable")
    fit = draws_fit(model, N_DRAWS, seed=1)
    ll = pointwise_loglik(fit, full)
    assert ll.shape == (N_DRAWS, full.observed.size)
    assert np.array_equal(ll, whole_matrix_pointwise(full, fit.lograte_samples))


def test_lograte_cube_matches_stratum_logrates(fit):
    cube = fit.lograte_cube()
    model = fit.model
    g = model.grid
    assert cube.shape == (N_DRAWS, *SHAPE)
    for r in range(model.n_strata):
        stratum = model.stratum_logrates(fit.samples, r)
        for i, j in np.ndindex(g.n_age, g.n_period):
            assert np.array_equal(cube[:, r, i, j], stratum[:, j * g.n_age + i])


@pytest.mark.parametrize("bad_cells", [(), (0, 13, 14, 89)])
def test_waic_matches_whole_matrix(small_blocks, bad_cells, rng, caplog):
    ll = rng.normal(-3.0, 1.5, size=(N_DRAWS, 90))
    for cell, value in zip(bad_cells, (-np.inf, np.nan, np.inf, -np.inf)):
        ll[rng.integers(N_DRAWS), cell] = value
    *expected, flagged = whole_matrix_waic(ll)
    with caplog.at_level(logging.WARNING, logger="stratapc.selection"):
        result = waic(ll)
    excluded = ["4 cells with non-finite log likelihoods excluded from WAIC"] if bad_cells else []
    assert [r.getMessage() for r in caplog.records] == excluded
    assert result.as_tuple() == tuple(expected)
    assert np.array_equal(result.flagged_cells, flagged)
    assert np.array_equal(result.flagged_cells, np.array(bad_cells, dtype=int))


def test_hindcast_matches_whole_matrix(small_blocks, fit, dataset):
    rng = np.random.default_rng(3)
    cells = np.argwhere(np.ones(SHAPE, dtype=bool))
    # unsorted, spanning every stratum, observed and unobserved cells
    targets = cells[rng.choice(len(cells), size=23, replace=False)]
    assert len(set(targets[:, 0])) == SHAPE[0]
    assert not dataset.observed[tuple(targets.T)].all()
    result = hindcast(fit, targets, dataset.exposures, seed=11)

    # one Poisson stream per stratum, each drawn over its whole
    # (n_samples, targets in r) submatrix at once
    g = dataset.grid
    flat = targets[:, 0] * g.n_cells + targets[:, 2] * g.n_age + targets[:, 1]
    exposure = dataset.exposures[tuple(targets.T)]
    streams = np.random.SeedSequence(11).spawn(SHAPE[0])
    draws = np.empty((N_DRAWS, len(targets)))
    for r in range(SHAPE[0]):
        at = np.flatnonzero(targets[:, 0] == r)
        draws[:, at] = np.random.default_rng(streams[r]).poisson(
            exposure[None, at] * np.exp(fit.lograte_samples[:, flat[at]])
        )
    lower, median, upper = np.percentile(draws, [2.5, 50.0, 97.5], axis=0)
    assert np.array_equal(result.samples, draws)
    assert np.array_equal(result.lower, lower)
    assert np.array_equal(result.median, median)
    assert np.array_equal(result.upper, upper)


def test_pit_matches_whole_matrix(small_blocks, rng):
    # 131 draws over 70 cells; 210 reflected KDE points against 201 grid rows
    samples = rng.poisson(8.0, size=(131, 70)).astype(float)
    y = rng.poisson(8.0, size=70).astype(float)
    result = pit(samples, y)
    values = 0.5 * (
        np.mean(samples <= y[None, :], axis=0) + np.mean(samples <= (y - 1)[None, :], axis=0)
    )
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.density, whole_matrix_kde(values, result.density_grid))
    assert np.array_equal(_reflected_kde(values, result.density_grid), result.density)


def test_pointwise_and_hindcast_are_column_major(fit, dataset):
    assert pointwise_loglik(fit, dataset).flags.f_contiguous
    targets = np.argwhere(np.ones(SHAPE, dtype=bool))[::-1]
    assert hindcast(fit, targets, dataset.exposures, seed=11).samples.flags.f_contiguous


def test_pit_is_the_same_on_either_layout(small_blocks, rng):
    samples = rng.poisson(8.0, size=(131, 70)).astype(float)
    y = rng.poisson(8.0, size=70).astype(float)
    rows, cols = pit(samples, y), pit(np.asfortranarray(samples), y)
    assert np.array_equal(rows.values, cols.values)
    assert np.array_equal(rows.density, cols.density)


def test_fit_percentiles_match_lograte_cube(fit):
    whole = np.percentile(fit.lograte_cube(), [2.5, 50.0, 97.5], axis=0)
    assert np.array_equal(_lograte_percentiles(fit), whole)


def test_rr_percentiles_match_numpy(dataset):
    model = assemble_model(dataset.grid, dataset.n_strata, "M4", "exchangeable")
    fit = draws_fit(model, N_DRAWS, seed=2)
    result = cross_strata_rr(fit, "period", 0, 2)
    curve = contrast_curve_from_canonical(
        fit.samples[:, model.col_index[0]], fit.samples[:, model.col_index[2]],
        model.parts, "period", model.pattern.shared,
    )
    rr = np.exp(curve - curve[:, [0]])
    lower, median, upper = np.percentile(rr, [2.5, 50.0, 97.5], axis=0)
    assert np.array_equal(result.lower, lower)
    assert np.array_equal(result.median, median)
    assert np.array_equal(result.upper, upper)


def test_gaussian_draws_match_whole_formula(dataset):
    model = assemble_model(dataset.grid, dataset.n_strata, "M4", "exchangeable")
    mode = conditional_mode(model, model.prior_model.default(), data=dataset)
    draws = _gaussian_draws(mode, 40, np.random.default_rng(3))
    z = np.random.default_rng(3).standard_normal((model.free_dim, 40))
    delta = sla.solve_triangular(mode.chol, z, lower=True, trans="T")
    assert np.array_equal(draws, (mode.xi[:, None] + delta).T)


# ----------------------------------------------------------------------
# thread count: every reader gives the same bits on one thread and on several


def reader_outputs(dataset):
    """Every output of the streamed readers, on 120 draws (pit needs 100)."""
    model = assemble_model(dataset.grid, dataset.n_strata, "M4", "exchangeable")
    fit = draws_fit(model, 120, seed=4)
    targets = np.argwhere(np.ones(SHAPE, dtype=bool))[::-1]  # every cell, reversed
    ll = pointwise_loglik(fit, dataset)
    score = waic(ll)
    counts = hindcast(fit, targets, dataset.exposures, seed=11)
    calibration = pit(counts.samples, dataset.counts[tuple(targets.T)])
    rr = cross_strata_rr(fit, "period", 0, 2)
    return {
        "pointwise_loglik": ll,
        "waic": np.array(score.as_tuple()),
        "hindcast": np.stack([counts.lower, counts.median, counts.upper]),
        "hindcast_samples": counts.samples,
        "pit": calibration.values,
        "pit_density": calibration.density,
        "cross_strata_rr": np.stack([rr.lower, rr.median, rr.upper]),
        "lograte_percentiles": _lograte_percentiles(fit),
    }


def test_thread_count_changes_no_bit(small_blocks, dataset, reader_threads, monkeypatch):
    reader_threads(1)
    serial = reader_outputs(dataset)

    pool_threads = set()

    class Spy(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            def task(*a, **kw):
                pool_threads.add(threading.current_thread().name)
                return fn(*a, **kw)

            return super().submit(task, *args, **kwargs)

    # more threads than cores, switching often: a task writing outside its
    # own slice, or sharing a generator, would show as changed bits
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", Spy)
    reader_threads(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = reader_outputs(dataset)
    finally:
        sys.setswitchinterval(interval)
    assert pool_threads and all(n.startswith("stratapc-reader") for n in pool_threads)
    for name, value in serial.items():
        assert np.array_equal(threaded[name], value), name


# ----------------------------------------------------------------------
# memory guards: peaks traced by tracemalloc, at the default block size


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_waic_allocates_a_fraction_of_its_input(rng):
    ll = rng.normal(-3.0, 1.0, size=(2000, 4000))
    _, peak = traced_peak(lambda: waic(ll))
    assert peak < ll.nbytes / 4


def test_waic_reads_a_column_major_input_without_copies(reader_threads, rng):
    # on one thread, so that the peaks compare one block's temporaries: a
    # row-major input adds a Fortran-order copy of each block, a
    # column-major one is read in place
    reader_threads(1)
    rows = rng.normal(-3.0, 1.0, size=(2000, 4000))
    cols = np.asfortranarray(rows)
    by_rows, rows_peak = traced_peak(lambda: waic(rows))
    by_cols, cols_peak = traced_peak(lambda: waic(cols))
    assert by_cols.as_tuple() == by_rows.as_tuple()
    block = cols[:, _kernels.blocks(4000, 2000)[0]]
    assert rows_peak - cols_peak > 0.9 * block.nbytes


def test_hindcast_peak_is_near_its_output():
    grid = GridSpec(10, 10)
    model = assemble_model(grid, 40, "M4", "exchangeable")
    fit = draws_fit(model, 2000, scale=0.01)
    exposures = np.full((40, 10, 10), 1e4)
    rng = np.random.default_rng(5)
    cells = np.argwhere(np.ones(exposures.shape, dtype=bool))
    targets = cells[rng.permutation(len(cells))]
    assert len(targets) == 4000
    result, peak = traced_peak(lambda: hindcast(fit, targets, exposures, seed=1))
    assert peak < 1.3 * result.samples.nbytes


def test_memory_guards_hold_on_many_cores(reader_threads, rng):
    # the map's thread cap keeps the memory the readers hold at once from
    # growing with the core count
    reader_threads(64)
    assert _kernels.reader_threads() == _kernels.MAX_READER_THREADS
    test_waic_allocates_a_fraction_of_its_input(rng)
    test_hindcast_peak_is_near_its_output()

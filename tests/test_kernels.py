import json
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from stratapc import _kernels, _threads
from stratapc.core import GridSpec
from stratapc.data import simulate_dataset
from stratapc.inference import (
    MortalityDataset,
    PoissonLikelihood,
    PosteriorFit,
    assemble_model,
    conditional_mode,
    flatten_cells,
)
from stratapc.selection import pointwise_loglik


@pytest.fixture
def poisson_case(rng):
    n = 400
    mu = rng.normal(-3.0, 0.8, size=n)
    y = rng.poisson(50 * np.exp(mu)).astype(float)
    exposure = np.full(n, 50.0)
    observed = rng.uniform(size=n) > 0.2
    return mu, y, exposure, observed


@pytest.fixture
def likelihood_case(rng):
    shape = (3, 5, 4)
    exposures = rng.uniform(50.0, 500.0, size=shape)
    counts = rng.poisson(exposures * 0.02).astype(float)
    observed = rng.uniform(size=shape) > 0.25
    ds = MortalityDataset.from_arrays(counts, exposures, observed=observed)
    obs = flatten_cells(observed).astype(bool)
    return ds, flatten_cells(counts)[obs], flatten_cells(exposures)[obs], obs


class TestPaths:
    """Each kernel, through its caller, against an independent oracle."""

    def test_value_and_gradient_match_scipy(self, likelihood_case, rng):
        ds, y, exposure, obs = likelihood_case
        mu = rng.normal(np.log(0.02), 0.3, size=obs.size)
        ll, grad, w = PoissonLikelihood(ds).value_grad_weights(mu)
        mean = exposure * np.exp(mu[obs])
        assert ll == pytest.approx(np.sum(poisson.logpmf(y, mean)), rel=1e-12)
        assert np.allclose(grad[obs], y - mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(w[obs], mean, rtol=1e-12)

    def test_pointwise_matches_scipy(self, likelihood_case, rng):
        ds, y, exposure, obs = likelihood_case
        model = assemble_model(ds.grid, ds.n_strata, "M6", "independent")
        samples = rng.normal(0.0, 0.1, size=(30, model.free_dim))
        samples[:, model.col_index[:, 0]] += np.log(0.02)  # each stratum's intercept
        fit = PosteriorFit(model, model.prior_model.default(), samples[0], samples, 0.0, 0)
        ll = pointwise_loglik(fit, ds)
        logrates = fit.lograte_samples
        expected = poisson.logpmf(y[None, :], exposure[None, :] * np.exp(logrates[:, obs]))
        assert ll.shape == (30, obs.sum())
        assert np.allclose(ll, expected, rtol=1e-10, atol=1e-10)

    def test_unobserved_cells_contribute_nothing(self, poisson_case):
        mu, y, exposure, observed = poisson_case
        ll, grad, w = _kernels.poisson_ll_grad_w(mu, y, exposure, observed)
        assert np.all(grad[~observed] == 0.0)
        assert np.all(w[~observed] == 0.0)
        ll2, _, _ = _kernels.poisson_ll_grad_w(
            mu[observed], y[observed], exposure[observed], observed[observed]
        )
        assert ll == pytest.approx(ll2, rel=1e-12)

    def test_pit_hand_computed_cell(self):
        # draws 0..3 and y = 2: F(2) = 3/4, F(1) = 2/4
        samples = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert _kernels.pit_mean_cdf(samples, np.array([2.0]))[0] == 0.625

    def test_pit_matches_empirical_cdf(self, rng):
        samples = rng.poisson(8.0, size=(300, 40)).astype(float)
        y = rng.poisson(8.0, size=40).astype(float)

        def cdf(draws, k):
            return sum(d <= k for d in draws) / len(draws)

        expected = [
            0.5 * (cdf(samples[:, c], y[c]) + cdf(samples[:, c], y[c] - 1))
            for c in range(samples.shape[1])
        ]
        assert np.allclose(_kernels.pit_mean_cdf(samples, y), expected, rtol=0, atol=1e-15)


class TestPercentiles:
    """``_kernels.percentiles`` against ``np.percentile`` to the bit."""

    Q = [0.0, 2.5, 50.0, 97.5, 100.0]

    @staticmethod
    def with_ties(rng, n):
        # continuous columns, small counts (many ties) and a constant column
        return np.column_stack([
            rng.normal(size=(n, 12)),
            rng.poisson(2.0, size=(n, 12)).astype(float),
            np.full(n, 3.0),
        ])

    @pytest.mark.parametrize("block", [1, 350, 1 << 16])
    @pytest.mark.parametrize("n", [2, 3, 2000])
    def test_equals_numpy(self, block, n, monkeypatch, rng):
        monkeypatch.setattr(_kernels, "BLOCK", block)
        a = self.with_ties(rng, n)
        assert np.array_equal(_kernels.percentiles(a, self.Q), np.percentile(a, self.Q, axis=0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("block", [1, 350])
    def test_nan_and_inf_columns(self, block, monkeypatch, rng):
        monkeypatch.setattr(_kernels, "BLOCK", block)
        a = self.with_ties(rng, 50)
        a[17, 3] = np.nan
        a[5, 20] = np.inf  # numpy's 100th percentile of this column is NaN
        got = _kernels.percentiles(a, self.Q)
        assert np.isnan(got[:, 3]).all()
        assert np.array_equal(got, np.percentile(a, self.Q, axis=0), equal_nan=True)


class TestOverflow:
    """A trial point whose exp overflows is rejected without a numpy
    warning, with one DEBUG line on ``stratapc.inference`` instead."""

    def test_likelihood_rejects_overflow_quietly(self, likelihood_case):
        ds = likelihood_case[0]
        mu = np.full(flatten_cells(ds.observed).size, 800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, _, _ = PoissonLikelihood(ds).value_grad_weights(mu)
        assert ll == -np.inf

    def test_mode_is_unchanged_with_warnings_as_errors(self, caplog):
        # on this surface Newton steps from the default start overshoot
        # into exp overflow, as on the posterior benchmark surface
        grid = GridSpec(n_age=17, n_period=18, interval_width=1.0)
        ds, truth = simulate_dataset(
            grid, 3, pattern="M4", structure="exchangeable", exposure=1e5, seed=8
        )
        model = assemble_model(grid, 3, "M4", "exchangeable")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = conditional_mode(model, truth.eta, data=ds)
        with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="stratapc.inference"):
            warnings.simplefilter("error")
            strict = conditional_mode(model, truth.eta, data=ds)
        assert np.array_equal(strict.xi, quiet.xi)
        assert strict.objective == quiet.objective and strict.n_iter == quiet.n_iter
        rejected = [r for r in caplog.records if "not finite" in r.getMessage()]
        assert rejected
        assert all(r.name == "stratapc.inference" and r.levelno == logging.DEBUG for r in rejected)


# Reads each loaded OpenBLAS's thread count without importing the package
# (which pins on import): ``_threads`` is loaded straight from its file.
_THREADS_FILE = os.path.join(os.path.dirname(_kernels.__file__), "_threads.py")
_PRINT_THREADS = (
    "import importlib.util, json\n"
    f"spec = importlib.util.spec_from_file_location('threads', {_THREADS_FILE!r})\n"
    "threads = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(threads)\n"
    "print(json.dumps(threads.blas_threads()))\n"
)


def _run(code, blas_threads=None):
    """Run ``code`` in a fresh interpreter with no BLAS thread variables
    set, except ``STRATAPC_BLAS_THREADS`` when given; return its last
    output line parsed as JSON."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "STRATAPC_BLAS_THREADS")
    }
    if blas_threads is not None:
        env["STRATAPC_BLAS_THREADS"] = str(blas_threads)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestEnvFlag:
    def test_default_backend_reported(self):
        assert _kernels.BACKEND == "numpy"

    def test_import_pins_every_openblas_to_one_thread(self):
        threads = _run("import stratapc\n" + _PRINT_THREADS)
        assert threads and set(threads.values()) == {1}

    def test_blas_pin_opt_out(self):
        # with the pin off, each pool keeps the size numpy and scipy gave it
        plain = _run("import numpy, scipy.linalg\n" + _PRINT_THREADS)
        opted_out = _run("import stratapc\n" + _PRINT_THREADS, blas_threads=0)
        assert opted_out == plain

    @pytest.mark.parametrize("raw", ["x", "", "1.5"])
    def test_bad_thread_count_warns_and_pins_one(self, raw, monkeypatch, caplog):
        monkeypatch.setenv("STRATAPC_BLAS_THREADS", "2")
        _threads.pin_blas_threads()
        assert set(_threads.blas_threads().values()) == {2}
        monkeypatch.setenv("STRATAPC_BLAS_THREADS", raw)
        try:
            with caplog.at_level(logging.WARNING, logger="stratapc._threads"):
                _threads.pin_blas_threads()
            threads = _threads.blas_threads()
        finally:
            monkeypatch.delenv("STRATAPC_BLAS_THREADS")
            _threads.pin_blas_threads()  # back to the default
        assert threads and set(threads.values()) == {1}
        warned = [r for r in caplog.records if r.name == "stratapc._threads"]
        assert len(warned) == 1 and warned[0].levelno == logging.WARNING
        assert repr(raw) in warned[0].getMessage()

    def test_mode_and_laplace_do_not_depend_on_blas_threads(self):
        code = (
            "import json\n"
            "from stratapc import GridSpec, assemble_model, conditional_mode, "
            "laplace_log_marginal, simulate_dataset\n"
            "grid = GridSpec(6, 6)\n"
            "ds, _ = simulate_dataset(grid, 3, pattern='M4', structure='exchangeable', seed=5)\n"
            "model = assemble_model(grid, 3, 'M4', 'exchangeable')\n"
            "eta = model.prior_model.default()\n"
            "mode = conditional_mode(model, eta, ds)\n"
            "print(json.dumps({'xi': mode.xi.tolist(), "
            "'laplace': laplace_log_marginal(model, eta, ds)}))\n"
        )
        one, two = _run(code, blas_threads=1), _run(code, blas_threads=2)
        xi_one, xi_two = np.array(one["xi"]), np.array(two["xi"])
        assert np.linalg.norm(xi_one - xi_two) <= 1e-10 * np.linalg.norm(xi_one)
        assert one["laplace"] == pytest.approx(two["laplace"], rel=1e-10)


@pytest.mark.parametrize("module", ["stratapc", "stratapc.cli"])
def test_import_leaves_scipy_stats_out(module):
    # a fresh interpreter: the test process itself imports scipy.stats
    loaded = _run(f"import json, sys, {module}\nprint(json.dumps(sorted(sys.modules)))\n")
    assert module in loaded and "scipy.special" in loaded and "scipy.optimize" in loaded
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]

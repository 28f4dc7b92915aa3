import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import poisson

from stratapc import _kernels
from stratapc.inference import MortalityDataset, PoissonLikelihood, flatten_cells


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
        logrates = rng.normal(np.log(0.02), 0.3, size=(30, obs.size))
        ll = PoissonLikelihood(ds).pointwise(logrates)
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


class TestEnvFlag:
    def test_default_backend_reported(self):
        assert _kernels.BACKEND == "numpy"

    def test_blas_pin_opt_out(self):
        code = (
            "import os; os.environ['STRATAPC_BLAS_THREADS'] = '0'; "
            "import stratapc; print('ok')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "ok"

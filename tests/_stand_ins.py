"""Test-only stand-ins and Monte Carlo checks that the package does not use.

``GaussianPseudoLikelihood`` is a likelihood with a Gaussian observation
model, under which the Laplace approximation is exact; tests pass it as
the ``data`` argument of the inference entry points in place of a
``MortalityDataset``.  ``prediction_residual_coverage`` checks the
precision-prior elicitation formula by simulation.
"""

from __future__ import annotations

import numpy as np

from stratapc.priors import PrecisionElicitation


class GaussianPseudoLikelihood:
    """Gaussian stand-in likelihood on the observed cells, used to validate
    the Laplace approximation where it is exact."""

    def __init__(self, z: np.ndarray, noise_variance: float, observed: np.ndarray | None = None):
        self.z = np.asarray(z, dtype=float).ravel()
        self.noise_variance = float(noise_variance)
        if observed is None:
            observed = np.ones_like(self.z, dtype=bool)
        self.observed = np.asarray(observed, dtype=bool).ravel()
        n_obs = int(self.observed.sum())
        self.constant = -0.5 * n_obs * np.log(2.0 * np.pi * self.noise_variance)

    def value_grad_weights(self, mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        if not np.all(np.isfinite(mu)):
            return -np.inf, np.zeros_like(mu), np.zeros_like(mu)
        resid = np.where(self.observed, self.z - mu, 0.0)
        ll = self.constant - 0.5 * float(np.sum(resid**2)) / self.noise_variance
        grad = resid / self.noise_variance
        w = np.where(self.observed, 1.0 / self.noise_variance, 0.0)
        return ll, grad, w


def prediction_residual_coverage(
    e: PrecisionElicitation, n_draws: int, seed: int
) -> float:
    """Monte Carlo check of the elicitation formula.

    Draws tau from the elicited exponential prior and a residual with
    conditional variance 2/tau; returns the fraction with |residual| <=
    epsilon, which should match 1 - q.
    """
    rng = np.random.default_rng(seed)
    rate = e.rate
    tau = rng.exponential(scale=1.0 / rate, size=n_draws)
    residual = rng.standard_normal(n_draws) * np.sqrt(2.0 / tau)
    return float(np.mean(np.abs(residual) <= e.epsilon))

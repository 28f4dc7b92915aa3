"""Hot numeric kernels in plain numpy.

These sit at the bottom of every likelihood evaluation, posterior scoring
pass, and calibration scan.  ``perfbench/`` times them in place, inside the
likelihood, pointwise-scoring and PIT layers of its end-to-end workloads.
"""

from __future__ import annotations

import numpy as np

# reported in the environment block of perfbench/workload.py
BACKEND = "numpy"


def poisson_ll_grad_w(mu, y, exposure, observed):
    """Core Poisson terms over flat cells: sum of y*mu - N*exp(mu) on the
    observed cells, plus per-cell gradient (y - N e^mu) and weight N e^mu
    (zero on unobserved cells)."""
    rate = exposure * np.exp(mu)
    w = np.where(observed, rate, 0.0)
    grad = np.where(observed, y - rate, 0.0)
    ll = float(np.sum(np.where(observed, y * mu - rate, 0.0)))
    return ll, grad, w


def pointwise_poisson_ll(logrates, y, exposure, const):
    """Per-sample per-cell Poisson log pmf: ll[s, c] = y_c * mu_sc
    - N_c exp(mu_sc) + const_c for observed-cell arrays."""
    return y[None, :] * logrates - exposure[None, :] * np.exp(logrates) + const[None, :]


def pit_mean_cdf(count_samples, y):
    """Nonrandomized count PIT 0.5 * (F(y) + F(y-1)) from predictive draws,
    with F the empirical CDF per cell (columns) and F(-1) = 0."""
    at = np.mean(count_samples <= y[None, :], axis=0)
    below = np.mean(count_samples <= (y - 1)[None, :], axis=0)
    return 0.5 * (at + below)

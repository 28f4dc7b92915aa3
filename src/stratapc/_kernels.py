"""Hot numeric kernels in plain numpy.

These sit at the bottom of every likelihood evaluation, posterior scoring
pass, and calibration scan.  ``perfbench/`` times them in place, inside the
likelihood, pointwise-scoring and PIT layers of its end-to-end workloads.

The posterior readers (pointwise scoring, WAIC, hindcasting, PIT) stream
their (n_samples, cells) inputs through ``blocks``: each temporary holds
about ``BLOCK`` elements, never a whole (n_samples, cells) matrix.
"""

from __future__ import annotations

import numpy as np

# reported in the environment block of perfbench/workload.py
BACKEND = "numpy"

# elements per temporary of a streamed posterior reader: 2**16 doubles
# (512 KB), so that a block and the few temporaries made from it stay
# within a core's L2 cache
BLOCK = 1 << 16


def blocks(length: int, width: int) -> list[slice]:
    """Consecutive slices covering range(length), each of BLOCK // width
    items (at least one) so that a block of ``width``-element rows or
    columns holds about BLOCK elements; the last slice may be shorter."""
    step = max(1, BLOCK // max(1, width))
    return [slice(start, min(start + step, length)) for start in range(0, length, step)]


def poisson_ll_grad_w(mu, y, exposure, observed):
    """Core Poisson terms over flat cells: sum of y*mu - N*exp(mu) on the
    observed cells, plus per-cell gradient (y - N e^mu) and weight N e^mu
    (zero on unobserved cells)."""
    rate = exposure * np.exp(mu)
    w = np.where(observed, rate, 0.0)
    grad = np.where(observed, y - rate, 0.0)
    ll = float(np.sum(np.where(observed, y * mu - rate, 0.0)))
    return ll, grad, w


def pointwise_poisson_ll(logrates, y, exposure, const, out):
    """Per-sample per-cell Poisson log pmf: ll[s, c] = y_c * mu_sc
    - N_c exp(mu_sc) + const_c for observed-cell arrays, written into
    ``out``."""
    rate = np.exp(logrates)
    rate *= exposure
    out = np.multiply(logrates, y, out=out)
    out -= rate
    out += const
    return out


def pit_mean_cdf(count_samples, y):
    """Nonrandomized count PIT 0.5 * (F(y) + F(y-1)) from predictive draws,
    with F the empirical CDF per cell (columns) and F(-1) = 0.  The counts
    of draws at or below y and y - 1 accumulate over row blocks; they are
    exact integers, so the blocking does not change the result."""
    n, cells = count_samples.shape
    at = np.zeros(cells, dtype=np.intp)
    below = np.zeros(cells, dtype=np.intp)
    for rows in blocks(n, cells):
        draws = count_samples[rows]
        at += np.count_nonzero(draws <= y, axis=0)
        below += np.count_nonzero(draws <= y - 1, axis=0)
    return 0.5 * (at / n + below / n)

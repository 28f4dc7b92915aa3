"""Hot numeric kernels in plain numpy, and the posterior readers' thread map.

These sit at the bottom of every likelihood evaluation, posterior scoring
pass, and calibration scan.  ``perfbench/`` times them in place, inside the
likelihood, pointwise-scoring and PIT layers of its end-to-end workloads.

The posterior readers (pointwise scoring, WAIC, hindcasting, PIT and the
percentiles) stream their (n_samples, cells) inputs through ``blocks``:
each temporary holds about ``BLOCK`` elements, never a whole
(n_samples, cells) matrix.  They hand their strata or column blocks to
``parallel_map``, which runs them on a thread pool made per call, one
Python thread per core up to ``MAX_READER_THREADS``, and joins it before
it returns; numpy releases the GIL in the element-wise functions, the
reductions, the sorts, the Poisson draws and the (single-threaded, see
``_threads``) BLAS calls.  Each task writes its own slice of the output
with the operations a serial loop would run, so the thread count changes
no bit of any result.

Layout: the (n_samples, cells) matrices that ``pointwise_loglik`` and
``hindcast`` return are column-major (Fortran order).  Every reader of
them reduces per cell, down a column, so a block of columns is one
contiguous chunk of memory: WAIC reads its blocks in place, ``percentiles``
copies a block with one contiguous copy, and the PIT counts read columns
without a stride.  The readers accept row-major input too and give the
same values, at the cost of a gather per block.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


# Most threads a map runs on: each task holds about BLOCK elements of
# temporaries (a hindcast task, one stratum's draws), so the cap keeps the
# readers' memory in flight from growing with the core count.
MAX_READER_THREADS = 4


def cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def reader_threads() -> int:
    """Threads ``parallel_map`` runs on: one per core, at most
    ``MAX_READER_THREADS``."""
    return min(cores(), MAX_READER_THREADS)


def parallel_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on a pool of
    ``min(len(items), reader_threads())`` threads that the call makes and
    joins before it returns or raises.

    The map runs serially on the calling thread when that count is 0 or
    1.  A map called from a task gets a pool of its own.  Tasks must not
    call the layers that ``perfbench`` traces (its span stack belongs to
    the calling thread)."""
    items = list(items)
    threads = min(len(items), reader_threads())
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(threads, thread_name_prefix="stratapc-reader") as pool:
        return list(pool.map(fn, items))


def percentiles(a, q):
    """``np.percentile(a, q, axis=0)`` of a float (n, m) matrix for a
    sequence ``q`` of percentiles in [0, 100], (len(q), m), equal to it
    element for element, with one sort per column block; a percentile
    outside [0, 100] raises numpy's ``ValueError``.

    Each block of columns is copied so that a column is one contiguous row
    (one contiguous copy of a column-major ``a``, a transposed gather of a
    row-major one) and sorted in place.  The interpolation is numpy's
    default (linear) method step by step: virtual index (n - 1) q / 100,
    the rows at its floor and floor + 1 (the last row at most), and
    numpy's ``_lerp``, which counts back from the upper value when the
    weight is 0.5 or more.  (numpy takes the last row for both neighbours
    at q = 100 and weights them by n; the two rows are equal there, so the
    value is the same.)  A block holding NaN goes through
    ``np.percentile``, which returns NaN for the columns that hold one.
    The column blocks are ``parallel_map`` tasks."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(q >= 0) and np.all(q <= 100)):
        raise ValueError("Percentiles must be in the range [0, 100]")
    n, m = a.shape
    virtual = (n - 1) * (q / 100)
    lo = np.floor(virtual).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    t = (virtual - lo)[:, None]
    upper_half = t >= 0.5
    out = np.empty((virtual.size, m))

    def column_block(cols):
        block = a[:, cols].T.copy(order="C")
        block.sort(axis=1)
        if np.isnan(block[:, -1]).any():
            out[:, cols] = np.percentile(a[:, cols], q, axis=0)
            return
        below, above = block[:, lo].T, block[:, hi].T
        diff = above - below
        res = np.add(below, diff * t, out=out[:, cols])
        np.subtract(above, diff * (1 - t), out=res, where=upper_half)

    parallel_map(column_block, blocks(m, n))
    return out


def logsumexp_columns(a):
    """``scipy.special.logsumexp(a, axis=0)`` of a finite float (n, m)
    matrix, (m,), equal to SciPy 1.17's result bit for bit.

    It runs SciPy's real-input formula with none of its complex, weighted
    or non-finite branches: with ``top`` the column maximum and ``ties``
    the count of entries equal to it, every tied entry is left out of
    s = sum exp(a - top), and the result is
    log1p(s / ties) + log(ties) + top.  The shifted exponentials keep the
    layout of ``a``, so a column-major block sums each column as one
    contiguous (pairwise) reduction, as SciPy does on the same block."""
    a = np.asarray(a, dtype=float)
    top = a.max(axis=0)
    tied = a == top
    ties = np.count_nonzero(tied, axis=0).astype(float)
    terms = np.subtract(a, top)
    np.copyto(terms, -np.inf, where=tied)
    np.exp(terms, out=terms)
    s = terms.sum(axis=0)
    s /= ties
    return np.log1p(s) + np.log(ties) + top


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
    - N_c exp(mu_sc) + const_c for observed-cell arrays, written over
    ``logrates`` (a temporary of the caller's) and returned."""
    rate = np.exp(logrates)
    rate *= exposure
    ll = np.multiply(logrates, y, out=logrates)
    ll -= rate
    ll += const
    return ll


def pit_mean_cdf(count_samples, y):
    """Nonrandomized count PIT 0.5 * (F(y) + F(y-1)) from predictive draws,
    with F the empirical CDF per cell (columns) and F(-1) = 0.  The counts
    of draws at or below y and y - 1 are taken over column blocks, one
    ``parallel_map`` task each, which read a column-major matrix
    contiguously; they are exact integers, so neither the blocking nor the
    layout changes the result."""
    n, cells = count_samples.shape
    values = np.empty(cells)

    def column_block(cols):
        draws, y_block = count_samples[:, cols], y[cols]
        at = np.count_nonzero(draws <= y_block, axis=0)
        below = np.count_nonzero(draws <= y_block - 1, axis=0)
        values[cols] = 0.5 * (at / n + below / n)

    parallel_map(column_block, blocks(cells, n))
    return values

"""Matrix-normal density and cross-strata covariance structures.

Three cross-strata structures are supported for the latent blocks:
independent, exchangeable (common correlation on an open interval), and a
graph-based mixture of independent and scaled intrinsic-CAR components
(bym2).  Separable (row x column) covariances are handled without ever
materializing the Kronecker product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np
import scipy.linalg as sla

logger = logging.getLogger(__name__)
StructureKind = Literal["independent", "exchangeable", "bym2"]
STRUCTURES: tuple[StructureKind, ...] = get_args(StructureKind)

# relative eigenvalue cutoff for the ICAR null space
_NULL_EIG_RTOL = 1e-10


class DisconnectedGraphError(ValueError):
    """The adjacency graph has more than one connected component."""


@dataclass(frozen=True)
class AdjacencyGraph:
    """Symmetric adjacency over strata 0..n_strata-1, no self-loops.

    Connectivity is reported, not required; operations that need a single
    component check for themselves.
    """

    n_strata: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n_strata: int, pairs) -> "AdjacencyGraph":
        norm = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on stratum {u}")
            if not (0 <= u < n_strata and 0 <= v < n_strata):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n_strata - 1}")
            norm.add((min(u, v), max(u, v)))
        return cls(n_strata=n_strata, edges=frozenset(norm))

    def adjacency_matrix(self) -> np.ndarray:
        w = np.zeros((self.n_strata, self.n_strata))
        for u, v in self.edges:
            w[u, v] = 1.0
            w[v, u] = 1.0
        return w

    def component_labels(self) -> np.ndarray:
        """Connected-component label per stratum (0-based, numbered in order
        of each component's first stratum)."""
        from scipy.sparse.csgraph import connected_components  # only graphs pay its import

        return connected_components(self.adjacency_matrix(), directed=False)[1]

    @property
    def n_components(self) -> int:
        return int(self.component_labels().max()) + 1


@dataclass(frozen=True)
class CrossStrataStructure:
    """Cross-strata correlation family of the strata-varying blocks.

    Its parameter rho is a hyperparameter, one per block: for exchangeable it
    lies strictly inside (-1/(R-1), 1), for bym2 strictly inside (0, 1).
    """

    kind: StructureKind
    graph: AdjacencyGraph | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURES:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        if self.kind == "bym2" and self.graph is None:
            raise ValueError("bym2 structure requires an adjacency graph")


@dataclass(frozen=True)
class MatrixNormalParams:
    """Mean and separable (row, column) covariances; factorized eagerly so a
    shared instance is read-only afterwards."""

    mean: np.ndarray
    row_cov: np.ndarray
    col_cov: np.ndarray
    _row_chol: np.ndarray = field(init=False, repr=False)
    _col_chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.atleast_2d(np.asarray(self.mean, dtype=float))
        row_cov = np.atleast_2d(np.asarray(self.row_cov, dtype=float))
        col_cov = np.atleast_2d(np.asarray(self.col_cov, dtype=float))
        n_r, n_c = mean.shape
        if row_cov.shape != (n_r, n_r) or col_cov.shape != (n_c, n_c):
            raise ValueError(
                f"covariance shapes {row_cov.shape}, {col_cov.shape} do not "
                f"match mean {mean.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "row_cov", row_cov)
        object.__setattr__(self, "col_cov", col_cov)
        object.__setattr__(self, "_row_chol", sla.cholesky(row_cov, lower=True))
        object.__setattr__(self, "_col_chol", sla.cholesky(col_cov, lower=True))


def matrix_normal_logpdf(x: np.ndarray, params: MatrixNormalParams) -> float:
    """Log density of the matrix normal with separable covariance.

    Equals the multivariate-normal log density of vec(X) under the Kronecker
    covariance col_cov (x) row_cov, computed from the two small factors only.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_r, n_c = params.mean.shape
    if x.shape != (n_r, n_c):
        raise ValueError(f"X has shape {x.shape}, expected {(n_r, n_c)}")
    resid = x - params.mean
    lr, lc = params._row_chol, params._col_chol
    # trace term: tr(col^-1 resid' row^-1 resid)
    s1 = sla.cho_solve((lr, True), resid)
    s2 = sla.cho_solve((lc, True), resid.T).T
    trace = float(np.sum(s1 * s2))
    logdet_row = 2.0 * float(np.sum(np.log(np.diag(lr))))
    logdet_col = 2.0 * float(np.sum(np.log(np.diag(lc))))
    return -0.5 * (
        n_r * n_c * np.log(2.0 * np.pi) + n_r * logdet_col + n_c * logdet_row + trace
    )


def exchangeable_corr(n_strata: int, rho: float) -> np.ndarray:
    """Correlation matrix with unit diagonal and constant off-diagonal rho.

    Positive definite exactly for rho strictly inside (-1/(R-1), 1); the open
    boundary is enforced.
    """
    if n_strata < 2:
        raise ValueError("exchangeable correlation needs at least 2 strata")
    lo = -1.0 / (n_strata - 1)
    if not (lo < rho < 1.0):
        raise ValueError(f"rho={rho} outside the open interval ({lo}, 1)")
    out = np.full((n_strata, n_strata), rho)
    np.fill_diagonal(out, 1.0)
    return out


def icar_precision(graph: AdjacencyGraph) -> np.ndarray:
    """Intrinsic-CAR precision Q = D - W; rows sum to zero, rank deficiency
    equals the number of connected components."""
    if graph.n_strata < 2:
        raise ValueError("need at least 2 strata")
    w = graph.adjacency_matrix()
    return np.diag(w.sum(axis=1)) - w


def scaled_generalized_inverse(q: np.ndarray) -> np.ndarray:
    """Pseudoinverse of an ICAR precision, scaled so the geometric mean of
    its diagonal is one.

    The graph must be connected (exactly one zero eigenvalue); disconnected
    precisions are rejected so callers can augment connectivity first.
    """
    q = np.asarray(q, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(q)
    cutoff = _NULL_EIG_RTOL * float(eigvals.max())
    null_count = int(np.sum(eigvals <= cutoff))
    if null_count != 1:
        raise DisconnectedGraphError(
            f"precision has {null_count} (near-)zero eigenvalues; expected "
            "exactly one, i.e. a single connected component"
        )
    if eigvals[1] < 1e-8 * eigvals.max():
        logger.warning(
            "second-smallest ICAR eigenvalue is nearly zero; the scaled "
            "generalized inverse is ill-conditioned"
        )
    inv_vals = np.zeros_like(eigvals)
    keep = eigvals > cutoff
    inv_vals[keep] = 1.0 / eigvals[keep]
    qinv = (eigvecs * inv_vals) @ eigvecs.T
    qinv = 0.5 * (qinv + qinv.T)
    sigma2_ref = float(np.exp(np.mean(np.log(np.diag(qinv)))))
    return qinv / sigma2_ref


def bym2_corr(rho: float, scaled_qinv: np.ndarray) -> np.ndarray:
    """Cross-strata covariance (1-rho) I + rho Q*^-, rho strictly in (0, 1).

    Mixing the identity with the scaled generalized inverse keeps the matrix
    positive definite over the whole open interval.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho={rho} outside the open interval (0, 1)")
    scaled_qinv = np.asarray(scaled_qinv, dtype=float)
    return (1.0 - rho) * np.eye(scaled_qinv.shape[0]) + rho * scaled_qinv

"""Stratified latent Gaussian model assembly and posterior inference.

A latent model stacks one canonical design per stratum, with parameter
blocks (baseline, age, period, cohort curvatures) either shared across
strata or stratum-specific with a matrix-normal prior.  Inference is
empirical-Bayes: a Newton/IRLS conditional mode, cold-started by one
penalized weighted least-squares solve (``LatentModel.default_init``), and
its Gaussian (Laplace) approximation at each hyperparameter value, a
derivative-free simplex search maximizing the Laplace approximation of the
hyperparameter posterior, and Gaussian posterior sampling at the optimum.
``mcmc.py`` provides a sampling oracle for validating this pipeline on
small instances.

The Laplace Hessian is never formed densely in the search.  The Poisson
Gram couples coordinates only within a stratum and a strata-varying
block's prior precision is Sigma^-1 (x) diag(tau), so ``StructuredHessian``
factors one block per stratum (one LAPACK Cholesky each), an arrow to the shared
blocks, and the low-rank exchangeable coupling (Sigma^-1 = a I + b 11'):
O(R n_local^3 + n_global^3) per factorization, with n_global at most the
canonical design's column count, in place of O(free_dim^3).  Under bym2
Sigma^-1 is dense, so every coordinate is global and each factorization
is the dense one.  The dense Hessian and its Cholesky factor are built
only when posterior draws are taken.

A dataset meets a model in one place, ``LatentModel.likelihood``, which
rejects one whose (R, A, T) is not the model's.  Cell vectorization is
stratum-major, column-major by period within each stratum:
``core.flatten_surface`` of the (R, A, T) cube.  All sampling is
seed-driven; identical inputs and seeds produce identical outputs on one
platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln

from . import _kernels
from .core import (
    BLOCKS,
    BaselineSpec,
    DesignParts,
    GridSpec,
    default_baseline_spec,
    design_parts,
    flatten_surface,
    unflatten_surface,
)
from .covariance import (
    CrossStrataStructure,
    bym2_corr,
    exchangeable_corr,
    icar_precision,
    scaled_generalized_inverse,
)
from .priors import HyperParameters, PCPriorBYM2, PriorConfig, PriorModel

logger = logging.getLogger(__name__)

_MODE_TOL = 1e-8  # the Newton mode is found below this gradient max-norm
_MAX_HALVINGS = 30  # step halvings per Newton line search
_MAX_NEWTON_ITERS = 100  # Newton iterations before the mode search gives up

_SHARING_TABLE: dict[str, frozenset[str]] = {
    "M1": frozenset({"baseline", "age", "period", "cohort"}),
    "M2": frozenset({"baseline", "age", "period"}),
    "M3": frozenset({"baseline", "age", "cohort"}),
    "M4": frozenset({"baseline", "age"}),
    "M5": frozenset({"baseline"}),
    "M6": frozenset(),
}


class ModeError(RuntimeError):
    """Conditional mode finding failed; ``.last`` holds the final iterate
    when one is available."""

    def __init__(self, message: str, last: np.ndarray | None = None):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class SharingPattern:
    """Which parameter blocks are constant across strata (one of the six
    named patterns, from everything shared down to nothing shared)."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _SHARING_TABLE:
            raise ValueError(f"unknown pattern {self.name!r}; use M1..M6")

    @classmethod
    def from_name(cls, name: str) -> "SharingPattern":
        return cls(name.upper())

    @property
    def shared(self) -> frozenset[str]:
        return _SHARING_TABLE[self.name]

    def is_shared(self, block: str) -> bool:
        return block in self.shared

    @property
    def varying(self) -> tuple[str, ...]:
        return tuple(b for b in BLOCKS if b not in self.shared)


def pattern_names() -> tuple[str, ...]:
    return tuple(_SHARING_TABLE)


@dataclass(frozen=True)
class MortalityDataset:
    """Event counts and person-years at risk on an age x period x stratum
    grid, with a mask for the observed cells.  Missing cells are excluded
    from every likelihood sum; the latent model still defines their rates."""

    counts: np.ndarray      # (R, A, T)
    exposures: np.ndarray   # (R, A, T)
    observed: np.ndarray    # (R, A, T) bool
    grid: GridSpec
    strata: tuple[str, ...]

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        exposures = np.asarray(self.exposures, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        shape = (len(self.strata), self.grid.n_age, self.grid.n_period)
        for name, arr in (("counts", counts), ("exposures", exposures), ("observed", observed)):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if np.any(counts[observed] < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(counts[observed] != np.round(counts[observed])):
            raise ValueError("counts must be integers")
        if np.any(exposures[observed] <= 0):
            raise ValueError("observed cells need strictly positive exposure")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "exposures", exposures)
        object.__setattr__(self, "observed", observed)

    @classmethod
    def from_arrays(
        cls,
        counts: np.ndarray,
        exposures: np.ndarray,
        observed: np.ndarray | None = None,
        strata: Sequence[str] | None = None,
        interval_width: float = 5.0,
    ) -> "MortalityDataset":
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 3:
            raise ValueError("counts must be (n_strata, n_age, n_period)")
        r, a, t = counts.shape
        grid = GridSpec(n_age=a, n_period=t, interval_width=interval_width)
        if observed is None:
            observed = np.ones_like(counts, dtype=bool)
        if strata is None:
            strata = tuple(f"s{i}" for i in range(r))
        return cls(
            counts=counts,
            exposures=np.asarray(exposures, dtype=float),
            observed=np.asarray(observed, dtype=bool),
            grid=grid,
            strata=tuple(strata),
        )

    @property
    def n_strata(self) -> int:
        return len(self.strata)


class PoissonLikelihood:
    """Poisson likelihood on the observed cells, flattened to the model's
    cell order, with the constant terms precomputed."""

    def __init__(self, data: MortalityDataset):
        self.shape = data.counts.shape  # (R, A, T)
        self.y = flatten_surface(data.counts).ravel()
        self.exposure = flatten_surface(data.exposures).ravel()
        self.observed = flatten_surface(data.observed).ravel()
        y_obs = self.y[self.observed]
        n_obs = self.exposure[self.observed]
        # per-observed-cell constants, for pointwise scoring
        # (``selection.pointwise_loglik``)
        self.cell_constants = y_obs * np.log(n_obs) - gammaln(y_obs + 1.0)
        self.constant = float(np.sum(self.cell_constants))

    def value_grad_weights(self, mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        if not np.all(np.isfinite(mu)):
            return -np.inf, np.zeros_like(mu), np.zeros_like(mu)
        # a Newton trial step can overshoot to a finite mu whose exp
        # overflows; the -inf value rejects the step, so say so in the log
        # rather than as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            core, grad, w = _kernels.poisson_ll_grad_w(mu, self.y, self.exposure, self.observed)
        if not np.isfinite(core):
            logger.debug("Poisson log likelihood not finite (exp overflowed): point rejected")
            return -np.inf, grad, w
        return core + self.constant, grad, w


class LatentPrior:
    """Gaussian prior over the free latent vector of ``model`` at ``eta``:
    the one walk over the blocks that decides each one's mean, within-stratum
    precision and cross-strata form.  ``blocks`` holds (slice, within,
    Sigma, mean) per block; its vec precision is Sigma^-1 (x) diag(within),
    and Sigma is None where it is the identity (shared blocks, independent).
    ``within`` and ``rho`` hold each free coordinate's within-stratum
    precision and exchangeable rho (0 where there is none).
    """

    def __init__(self, model: "LatentModel", eta: HyperParameters):
        free_dim = model.free_dim
        self.mean = np.zeros(free_dim)
        self.within = np.zeros(free_dim)
        self.rho = np.zeros(free_dim)
        self._diagonal = np.zeros(free_dim)  # within where Sigma = I, else 0
        self.logdet = 0.0
        self.dim = free_dim
        self.blocks: list[tuple[slice, np.ndarray, np.ndarray | None, np.ndarray]] = []
        exchangeable = []
        # blocks with any other Sigma (bym2) apply Sigma^-1 as a matrix
        self._dense: list[tuple[slice, np.ndarray, np.ndarray]] = []
        for name in BLOCKS:
            offset, length, shared = model.blocks[name]
            copies = 1 if shared else model.n_strata
            sl = slice(offset, offset + length * copies)
            if shared and name == "baseline":
                baseline = model.prior_model.baseline_mean
                within, block_mean = 1.0 / baseline.variances, baseline.mean.copy()
            elif name == "baseline" and eta.nu0 is None:
                raise ValueError("varying baseline needs nu0 in eta")
            else:  # a varying baseline is centred on nu0, every other block on 0
                within = np.full(length, eta.taus[name])
                centre = eta.nu0 if name == "baseline" else np.zeros(length)
                block_mean = np.tile(np.asarray(centre, dtype=float), copies)
            self.logdet += copies * float(np.sum(np.log(within)))
            self.mean[sl] = block_mean
            self.within[sl].reshape(copies, -1)[:] = within
            kind = "independent" if shared else model.structure.kind
            sigma = None
            if kind == "exchangeable":
                rho = eta.rhos[name]
                sigma = exchangeable_corr(copies, rho)
                # closed form, accurate as rho -> 1 where a factor of Sigma is not
                r1 = copies - 1
                logdet_sigma = r1 * np.log1p(-rho) + np.log1p(r1 * rho)
                self.rho[sl] = rho
                exchangeable.append(np.arange(sl.start, sl.stop).reshape(copies, -1))
            elif kind == "bym2":
                sigma = bym2_corr(eta.rhos[name], model.scaled_qinv)
                chol = sla.cholesky(sigma, lower=True)
                inv = sla.cho_solve((chol, True), np.eye(copies))
                logdet_sigma = 2.0 * float(np.sum(np.log(np.diag(chol))))
                self._dense.append((sl, within, 0.5 * (inv + inv.T)))
            else:
                self._diagonal[sl] = self.within[sl]
            if sigma is not None:
                self.logdet -= length * float(logdet_sigma)
            self.blocks.append((sl, within, sigma, block_mean))
        # every exchangeable coordinate as (stratum, column): Sigma^-1 is
        # a (I - 11'/R) + c 11'/R with a = 1/(1-rho), c = 1/(1+(R-1)rho)
        self._exch = np.concatenate(exchangeable, axis=1) if exchangeable else None
        if self._exch is not None:
            col = self._exch[0]
            r1 = self._exch.shape[0] - 1
            self._exch_a = self.within[col] / (1.0 - self.rho[col])
            self._exch_c = self.within[col] / (1.0 + r1 * self.rho[col])

    def _apply(self, resid: np.ndarray) -> np.ndarray:
        """Precision @ resid."""
        out = resid * self._diagonal
        if self._exch is not None:
            x = resid[self._exch]
            centre = x.mean(axis=0)
            out[self._exch] = (x - centre) * self._exch_a + centre * self._exch_c
        for sl, within, sigma_inv in self._dense:
            out[sl] = ((sigma_inv @ resid[sl].reshape(-1, within.shape[0])) * within).ravel()
        return out

    def logpdf(self, xi: np.ndarray) -> float:
        """Log density; the exchangeable quadratic form is summed as
        a |x - mean|^2 + c R |mean|^2, whose terms do not cancel."""
        resid = xi - self.mean
        quad = float((resid * resid) @ self._diagonal)
        if self._exch is not None:
            x = resid[self._exch]
            centre = x.mean(axis=0)
            dev = np.sum((x - centre) ** 2, axis=0)
            quad += float(dev @ self._exch_a + (x.shape[0] * centre**2) @ self._exch_c)
        for sl, within, sigma_inv in self._dense:
            x = resid[sl].reshape(-1, within.shape[0])
            quad += float(np.sum(x * (sigma_inv @ x), axis=0) @ within)
        return -0.5 * (self.dim * np.log(2.0 * np.pi) - self.logdet + quad)

    def grad(self, xi: np.ndarray) -> np.ndarray:
        return -self._apply(xi - self.mean)

    @property
    def precision(self) -> np.ndarray:
        """The dense precision, built on each read (tests and draws)."""
        precision = np.diag(self._diagonal)
        if self._exch is not None:
            # Sigma^-1 = a I - rho a c 11' per column, times within
            idx = self._exch
            rho = self.rho[idx[0]]
            a = 1.0 / (1.0 - rho)
            c = 1.0 / (1.0 + (idx.shape[0] - 1) * rho)
            sigma_inv = a * np.eye(idx.shape[0])[:, :, None] - rho * a * c
            precision[idx[:, None, :], idx[None, :, :]] = sigma_inv * self.within[idx[0]]
        for sl, within, sigma_inv in self._dense:
            precision[sl, sl] = np.kron(sigma_inv, np.diag(within))
        return precision


@dataclass
class LatentModel:
    """Assembled stratified model for one (sharing pattern, structure) pair.

    ``col_index[r]`` maps the single-stratum design columns onto positions in
    the free latent vector for stratum r; shared blocks map every stratum to
    the same positions.
    """

    grid: GridSpec
    n_strata: int
    pattern: SharingPattern
    structure: CrossStrataStructure
    baseline_spec: BaselineSpec
    parts: DesignParts
    prior_model: PriorModel
    blocks: dict[str, tuple[int, int, bool]]  # name -> (offset, per-stratum length, shared)
    col_index: np.ndarray                     # (R, n_canonical) int
    free_dim: int
    scaled_qinv: np.ndarray | None = None

    # ------------------------------------------------------------------
    # design application

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells * self.n_strata

    def likelihood(self, data):
        """The likelihood of ``data`` under this model, the one place a
        dataset meets a model: a ``PoissonLikelihood`` built from a
        ``MortalityDataset``, or ``data`` itself when it is already a
        likelihood, i.e. it has ``value_grad_weights(mu) -> (value, grad,
        weights)``.  A dataset or ``PoissonLikelihood`` must have the model's
        (R, A, T); the grids' interval widths are not compared."""
        if isinstance(data, MortalityDataset):
            data = PoissonLikelihood(data)
        elif not callable(getattr(data, "value_grad_weights", None)):
            raise TypeError(
                "data must be a MortalityDataset or a likelihood with "
                f"value_grad_weights(mu), not {type(data).__name__}"
            )
        shape = (self.n_strata, self.grid.n_age, self.grid.n_period)
        if isinstance(data, PoissonLikelihood) and data.shape != shape:
            raise ValueError(f"data has (R, A, T) = {data.shape}, the model {shape}")
        return data

    def logrates_matrix(self, xi: np.ndarray) -> np.ndarray:
        """Log rates as (R, n_cells_per_stratum)."""
        return xi[self.col_index] @ self.parts.matrix.T

    def logrates_flat(self, xi: np.ndarray) -> np.ndarray:
        return self.logrates_matrix(xi).ravel()

    def stratum_logrates(self, xi_samples: np.ndarray, r: int) -> np.ndarray:
        """Map (n, free_dim) latent samples to stratum r's (n, cells) log
        rates: the one draws-to-rates mapping every posterior reader uses.
        Taking a subset of the design rows instead changes the last bits,
        because OpenBLAS picks its kernel by matrix shape."""
        return xi_samples[:, self.col_index[r]] @ self.parts.matrix.T

    def logrates_samples(self, xi_samples: np.ndarray) -> np.ndarray:
        """Map (n, free_dim) latent samples to (n, R * cells) log rates."""
        out = [self.stratum_logrates(xi_samples, r) for r in range(self.n_strata)]
        return np.concatenate(out, axis=1)

    def design_transpose_apply(self, v_flat: np.ndarray) -> np.ndarray:
        """Design' @ v for a flat cell vector, accumulated over strata."""
        mt_v = v_flat.reshape(self.n_strata, self.grid.n_cells) @ self.parts.matrix
        return np.bincount(self.col_index.ravel(), weights=mt_v.ravel(), minlength=self.free_dim)

    @cached_property
    def _effect_pairs(self) -> np.ndarray:
        """Where each cell's weight lands in the stacked (R, d, d) effect
        Grams U_r = Y' diag(w_r) Y: the 9 (row, column) pairs of its age,
        period and cohort rows, stratum-major, as flat indices."""
        rows = self.parts.effect_rows
        d = self.parts.loadings.shape[0]
        pairs = (rows[:, :, None] * d + rows[:, None, :]).reshape(rows.shape[0], 9)
        return (d * d * np.arange(self.n_strata)[:, None, None] + pairs).ravel()

    def weighted_gram(self, w_flat: np.ndarray) -> np.ndarray:
        """Per-stratum M' diag(w_r) M over the canonical columns, stacked
        (R, n_canonical, n_canonical).

        With the design factored as M = Y F by effect (``DesignParts``), each
        Gram is F' U_r F, where U_r = Y' diag(w_r) Y over the d = A + T + K
        effect rows is one scatter of the cells' weights.  That costs
        O(R (d^2 n + d n^2)) in place of O(R cells n^2), and sums only
        non-negative weights before the products, so nothing cancels."""
        f = self.parts.loadings
        d = f.shape[0]
        weights = np.repeat(w_flat, 9)  # one per pair, in ``_effect_pairs`` order
        u = np.bincount(self._effect_pairs, weights=weights, minlength=self.n_strata * d * d)
        return f.T @ (u.reshape(self.n_strata, d, d) @ f)

    def dense_gram(self, grams: np.ndarray) -> np.ndarray:
        """Design' diag(w) Design over the free vector: the stacked
        per-stratum Grams scattered by ``col_index`` and summed in stratum
        order.  The dense oracle of the structured Hessian."""
        n = self.free_dim
        flat = (self.col_index[:, :, None] * n + self.col_index[:, None, :]).ravel()
        return np.bincount(flat, weights=grams.ravel(), minlength=n * n).reshape(n, n)

    @cached_property
    def hessian_layout(self) -> "HessianLayout":
        """Which canonical columns stay local to a stratum in the Laplace
        Hessian and which join the global system: strata-varying blocks are
        local except under bym2 (dense Sigma^-1), shared blocks are global."""
        lengths = [self.blocks[name][1] for name in BLOCKS]
        shared = np.repeat([self.blocks[name][2] for name in BLOCKS], lengths)
        local = ~shared if self.structure.kind != "bym2" else np.zeros_like(shared)
        loc_cols, glob_cols = np.flatnonzero(local), np.flatnonzero(~local)
        if loc_cols.size:  # global columns are shared: the same slots in every stratum
            glob_index = self.col_index[0, glob_cols]
        else:
            glob_index = np.arange(self.free_dim)
        return HessianLayout(
            loc_cols=loc_cols,
            glob_cols=glob_cols,
            loc_index=self.col_index[:, loc_cols],
            glob_index=glob_index,
        )

    # ------------------------------------------------------------------
    # latent prior

    def latent_prior(self, eta: HyperParameters) -> LatentPrior:
        return LatentPrior(self, eta)

    def sample_latent_prior(self, eta: HyperParameters, rng: np.random.Generator) -> np.ndarray:
        """One draw of the free latent vector from its prior at eta."""
        xi = np.zeros(self.free_dim)
        for sl, within, sigma, mean in self.latent_prior(eta).blocks:
            z = rng.standard_normal((within.shape[0], mean.shape[0] // within.shape[0]))
            x = z / np.sqrt(within)[:, None]
            if sigma is not None:
                x = x @ sla.cholesky(sigma, lower=True).T
            xi[sl] = mean + x.T.ravel()
        return xi

    # ------------------------------------------------------------------

    def default_init(self, likelihood, prior: LatentPrior) -> np.ndarray:
        """The Newton mode's cold start: for a ``PoissonLikelihood`` the
        penalized weighted least-squares solve (M'WM + Q) xi = M'W z + Q m from
        the saturated model, W = y + 1/2 and z = log(y + 1/2) - log N on the
        observed cells (zero weight elsewhere), Q and m the prior's precision
        and mean; the prior mean for any other likelihood.  z is a difference
        of logs, finite where y / N is not.  Raises ``LinAlgError`` when the
        system does not factor."""
        if not isinstance(likelihood, PoissonLikelihood):
            return prior.mean.copy()
        obs = likelihood.observed
        w, wz = np.zeros(self.n_cells), np.zeros(self.n_cells)
        w[obs] = likelihood.y[obs] + 0.5
        wz[obs] = w[obs] * (np.log(w[obs]) - np.log(likelihood.exposure[obs]))
        rhs = self.design_transpose_apply(wz) + prior.grad(np.zeros(self.free_dim))
        return StructuredHessian(self, self.weighted_gram(w), prior).solve(rhs)


def assemble_model(
    grid: GridSpec,
    n_strata: int,
    pattern: SharingPattern | str,
    structure: CrossStrataStructure | str,
    baseline_spec: BaselineSpec | None = None,
    prior_config: PriorConfig | None = None,
) -> LatentModel:
    """Build the latent model for one (sharing pattern, structure) pair.

    Fully-shared patterns admit no correlation structure; bym2 requires a
    connected adjacency graph covering exactly the data's strata.
    """
    if isinstance(pattern, str):
        pattern = SharingPattern.from_name(pattern)
    if isinstance(structure, str):
        structure = CrossStrataStructure(kind=structure)
    if prior_config is None:
        prior_config = PriorConfig()
    if baseline_spec is None:
        baseline_spec = default_baseline_spec(grid)
    if baseline_spec.form != "point-plus-two-slopes":
        raise ValueError(
            f"baseline form {baseline_spec.form!r} is not fitted: the baseline prior "
            "is stated in point-plus-two-slopes coordinates"
        )
    if n_strata < 1:
        raise ValueError("need at least one stratum")
    if not pattern.varying and structure.kind != "independent":
        raise ValueError(
            f"pattern {pattern.name} has no strata-varying block and admits "
            "no correlation structure; fit it under the independent label"
        )
    scaled_qinv = None
    if structure.kind == "bym2":
        if structure.graph.n_strata != n_strata:
            raise ValueError(
                f"graph covers {structure.graph.n_strata} strata, data has {n_strata}"
            )
        scaled_qinv = scaled_generalized_inverse(icar_precision(structure.graph))
    if structure.kind != "independent" and pattern.varying and n_strata < 2:
        raise ValueError("correlation structures need at least 2 strata")

    parts = design_parts(grid, baseline_spec)
    blocks: dict[str, tuple[int, int, bool]] = {}
    col_index = np.zeros((n_strata, grid.n_canonical), dtype=int)
    offset = 0
    for name, cols in grid.block_slices.items():
        length, shared = cols.stop - cols.start, pattern.is_shared(name)
        blocks[name] = (offset, length, shared)
        # a shared block maps every stratum to the same positions
        strata = 0 if shared else length * np.arange(n_strata)[:, None]
        col_index[:, cols] = offset + strata + np.arange(length)
        offset += length if shared else length * n_strata
    free_dim = offset

    tau_blocks = tuple(
        b for b in BLOCKS if b != "baseline" or not pattern.is_shared("baseline")
    )
    rho_blocks = pattern.varying if structure.kind != "independent" else ()
    prior_model = PriorModel(
        n_strata=n_strata,
        structure_kind=structure.kind,
        tau_blocks=tau_blocks,
        rho_blocks=tuple(rho_blocks),
        rates={b: prior_config.rate(b) for b in tau_blocks},
        baseline_mean=prior_config.baseline_mean,
        exchangeable_variance=prior_config.exchangeable_variance,
        pc_prior=PCPriorBYM2(scaled_qinv) if scaled_qinv is not None else None,
    )
    return LatentModel(
        grid=grid,
        n_strata=n_strata,
        pattern=pattern,
        structure=structure,
        baseline_spec=baseline_spec,
        parts=parts,
        prior_model=prior_model,
        blocks=blocks,
        col_index=col_index,
        free_dim=free_dim,
        scaled_qinv=scaled_qinv,
    )


def poisson_loglik(
    xi: np.ndarray, model: LatentModel, data
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log likelihood of ``data`` (see ``LatentModel.likelihood``) with its
    gradient (w.r.t. the free latent vector) and the per-cell Fisher weights,
    N exp(mu) for a dataset."""
    lik = model.likelihood(data)
    mu = model.logrates_flat(xi)
    ll, grad_mu, w = lik.value_grad_weights(mu)
    return ll, model.design_transpose_apply(grad_mu), w


@dataclass(frozen=True)
class HessianLayout:
    """Where a stratum's canonical columns go in the structured Hessian:
    ``loc_index[r]`` holds the free positions of stratum r's local
    coordinates (columns ``loc_cols``), ``glob_index`` the free positions of
    the global ones.  With no local coordinates (bym2, or every block
    shared) the global system is the whole Hessian in free order."""

    loc_cols: np.ndarray
    glob_cols: np.ndarray
    loc_index: np.ndarray
    glob_index: np.ndarray

    @property
    def whole(self) -> bool:
        return not self.loc_cols.size


def _factor(a: np.ndarray) -> np.ndarray:
    chol = _chol_with_jitter(a)
    if chol is None:
        raise sla.LinAlgError("Hessian factorization failed")
    return chol


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L')^-1 b for a lower factor L, straight through LAPACK: the
    systems here are small and are solved on every Newton step."""
    return sla.lapack.dpotrs(chol, b, lower=1)[0]


def _logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1))))


class StructuredHessian:
    """The Laplace Hessian H = sum_r P_r' G_r P_r + Q (G_r the weighted Gram
    of stratum r, Q the latent prior precision), factored by its structure.

    Order the free vector as each stratum's local coordinates x_r (its
    strata-varying blocks), then the global ones s (the shared blocks).  An
    exchangeable block has Sigma^-1 = a I + b 11' with a = 1/(1-rho) and
    b = -rho a c, c = 1/(1+(R-1)rho), so

        H = [[K, B], [B', C]] + (1_R (x) I) diag(mu) (1_R (x) I)',

    K = blockdiag(K_r), K_r = G_r[loc, loc] + diag(a within), B stacks the
    G_r[loc, glob], C is the summed global Grams plus the shared blocks'
    prior, mu = b within.  The coupling is handled by its sign:

    * rho > 0 (b < 0): x_r = m + e_r with a shared mean m ~ N(0, rho /
      within) and e_r ~ N(0, (1 - rho) / within) independent over strata.
      The joint precision of (x, m, s) is an arrow H_0; its Schur complement
      S on (m, s) has the m block diag(within / rho) + a within sum_r
      K_r^-1 G_r[loc, loc], which stays accurate as rho -> 1, and
      det H = det K det S / prod((R a + 1/rho) within).
    * rho < 0 (b > 0): Woodbury on the arrow with M = diag(mu) > 0 and
      Y = 1_R (x) I on the locals: Cap = M^-1 + Y' H_0^-1 Y,
      det H = det H_0 det M det Cap, H^-1 = H_0^-1 - H_0^-1 Y Cap^-1 Y' H_0^-1.
      M only shrinks as rho -> 0 and grows as rho -> -1/(R-1), and Cap
      stays well conditioned either way.
    * rho = 0 and the independent structure: no coupling.

    One Cholesky per K_r, then global systems of at most
    n_canonical rows, so a factorization costs O(R n_local^3 + n_global^3).
    Under bym2 Sigma^-1 is dense: every coordinate is global and S is the
    dense Hessian itself.
    """

    def __init__(self, model: "LatentModel", grams: np.ndarray, prior: LatentPrior):
        self.model, self.grams, self.prior = model, grams, prior
        lay = self.layout = model.hessian_layout
        gc, lc = lay.glob_cols, lay.loc_cols
        n_strata, n_loc, n_s = model.n_strata, lc.shape[0], lay.glob_index.shape[0]
        self.logdet = 0.0
        self.l_cap = None
        if lay.whole:
            self.l_s = _factor(self.dense())
            self.logdet = _logdet(self.l_s)
            return
        glob = grams[:, gc[:, None], gc].sum(axis=0)  # the same slots in every stratum
        glob[np.diag_indices(n_s)] += prior.within[lay.glob_index]
        d, rho = prior.within[lay.loc_index[0]], prior.rho[lay.loc_index[0]]
        a = 1.0 / (1.0 - rho)
        q = a * d
        g_loc = grams[:, lc[:, None], lc]
        l_k = _factor(g_loc + np.diag(q))
        self.logdet += _logdet(l_k)
        # Schur complements are taken as W'W with W = L^-1 (...), not as
        # B' K^-1 B, which loses digits when a K_r is ill conditioned
        self.l_inv = l_inv = np.stack([sla.lapack.dtrtri(block, lower=1)[0] for block in l_k])

        # globals (m, s): a mean m for each rho > 0 coordinate
        pos_rho = np.flatnonzero(rho > 0)
        self.n_m = n_m = pos_rho.shape[0]
        pos_rho = slice(None) if n_m == n_loc else pos_rho  # a view when every local is
        q_m = q[pos_rho]
        h_mm = (n_strata * a[pos_rho] + 1.0 / rho[pos_rho]) * d[pos_rho]
        self.logdet -= float(np.sum(np.log(h_mm)))
        # W_r = L_r^-1 [H_lm, B_r], H_lm holding -q at (j, slot of j)
        l_pos_rho = l_inv[:, :, pos_rho]
        self.w = np.concatenate([-l_pos_rho * q_m, l_inv @ grams[:, lc[:, None], gc]], axis=2)
        # only the (s, m) and (s, s) rows of -sum_r W_r'W_r: S_mm is formed below
        s = np.empty((n_m + n_s, n_m + n_s))
        s[n_m:] = -(self.w[:, :, n_m:].swapaxes(1, 2) @ self.w).sum(axis=0)
        s[n_m:, n_m:] += glob
        if n_m:
            # S_mm = diag(h_mm) - sum_r q K_r^-1 q, written as
            # diag(d / rho) + q sum_r K_r^-1 G_r, free of the cancellation as rho -> 1
            k_inv_g = (l_pos_rho.swapaxes(1, 2) @ (l_inv @ g_loc[:, :, pos_rho])).sum(axis=0)
            k_inv_g *= q_m[:, None]
            s[:n_m, :n_m] = np.diag(d[pos_rho] / rho[pos_rho]) + 0.5 * (k_inv_g + k_inv_g.T)
            s[:n_m, n_m:] = s[n_m:, :n_m].T
        self.l_s = _factor(s) if s.shape[0] else None
        if self.l_s is not None:
            self.logdet += _logdet(self.l_s)

        # Woodbury for the rho < 0 coordinates
        self.neg_rho = np.flatnonzero(rho < 0)
        if self.neg_rho.shape[0]:
            mu = (-rho * a / (1.0 + (n_strata - 1) * rho) * d)[self.neg_rho]
            l_neg_rho = l_inv[:, :, self.neg_rho].swapaxes(1, 2)
            # sum_r K_r^-1[neg_rho, neg_rho]
            cap = (l_neg_rho @ l_neg_rho.swapaxes(1, 2)).sum(axis=0)
            if self.l_s is not None:
                f = (l_neg_rho @ self.w).sum(axis=0)  # sum_r K_r^-1[neg_rho, :] [H_lm, B_r]
                cap += f @ _cho_solve(self.l_s, f.T)
            cap = 0.5 * (cap + cap.T) + np.diag(1.0 / mu)
            self.l_cap = _factor(cap)
            self.logdet += float(np.sum(np.log(mu))) + _logdet(self.l_cap)

    def _arrow_solve(self, g_loc: np.ndarray, g_glob: np.ndarray):
        """H_0^-1 [g_loc; g_glob]: g_loc as (R, n_local), g_glob over (m, s)."""
        y = np.einsum("rij,rj->ri", self.l_inv, g_loc)
        x_glob = g_glob
        if self.l_s is not None:
            x_glob = _cho_solve(self.l_s, g_glob - np.einsum("rij,ri->j", self.w, y))
            y = y - self.w @ x_glob
        return np.einsum("rji,rj->ri", self.l_inv, y), x_glob

    def solve(self, g: np.ndarray) -> np.ndarray:
        """H^-1 g."""
        lay = self.layout
        if lay.whole:
            return _cho_solve(self.l_s, g)
        g_glob = np.concatenate([np.zeros(self.n_m), g[lay.glob_index]])
        x_loc, x_glob = self._arrow_solve(g[lay.loc_index], g_glob)
        if self.l_cap is not None:
            w = np.zeros(x_loc.shape[1])
            w[self.neg_rho] = _cho_solve(self.l_cap, x_loc.sum(axis=0)[self.neg_rho])
            c_loc, c_glob = self._arrow_solve(
                np.broadcast_to(w, x_loc.shape), np.zeros_like(x_glob)
            )
            x_loc, x_glob = x_loc - c_loc, x_glob - c_glob
        out = np.empty_like(g)
        out[lay.loc_index] = x_loc
        out[lay.glob_index] = x_glob[self.n_m :]
        return out

    def dense(self) -> np.ndarray:
        """The dense Hessian: the oracle of this factorization, and the
        matrix posterior draws are taken from."""
        dense = self.model.dense_gram(self.grams)
        dense += self.prior.precision
        return dense

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the dense Hessian; the global factor
        itself when the global system is the whole Hessian."""
        return self.l_s if self.layout.whole else _factor(self.dense())


@dataclass
class ModeResult:
    xi: np.ndarray
    operator: StructuredHessian  # the Hessian at the mode
    objective: float             # loglik + latent log prior at the mode
    n_iter: int

    @property
    def logdet_hessian(self) -> float:
        return self.operator.logdet

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the dense Hessian, built on first read
        (posterior draws)."""
        try:
            return self.operator.cholesky()
        except sla.LinAlgError:
            raise ModeError("Hessian factorization failed at the mode", last=self.xi) from None


def conditional_mode(
    model: LatentModel,
    eta: HyperParameters,
    data,
    init: np.ndarray | None = None,
) -> ModeResult:
    """Newton/IRLS maximization of loglik + latent log prior at fixed eta.

    ``data`` is a ``MortalityDataset`` or a likelihood already built from
    one (see ``LatentModel.likelihood``).  Converges when the gradient
    max-norm drops below ``_MODE_TOL`` or the relative objective change drops
    below 1e-12; raises ModeError (with the last iterate attached) on
    non-convergence in ``_MAX_NEWTON_ITERS`` iterations or a failed line
    search.
    """
    likelihood = model.likelihood(data)
    prior = model.latent_prior(eta)
    try:
        xi = model.default_init(likelihood, prior) if init is None else np.array(init, dtype=float)
    except sla.LinAlgError:
        raise ModeError("Hessian factorization failed at the start") from None

    def evaluate(x: np.ndarray):
        ll, grad_mu, w = likelihood.value_grad_weights(model.logrates_flat(x))
        if not np.isfinite(ll):
            return -np.inf, None, None
        return ll + prior.logpdf(x), grad_mu, w

    def hessian(w: np.ndarray, where: str) -> StructuredHessian:
        try:
            return StructuredHessian(model, model.weighted_gram(w), prior)
        except sla.LinAlgError:
            raise ModeError(f"Hessian factorization failed{where}", last=xi) from None

    obj, grad_mu, w = evaluate(xi)
    if not np.isfinite(obj):
        raise ModeError("objective not finite at the initial point", last=xi)

    for n_iter in range(1, _MAX_NEWTON_ITERS + 1):
        grad = model.design_transpose_apply(grad_mu) + prior.grad(xi)
        if np.max(np.abs(grad)) < _MODE_TOL:
            break
        delta = hessian(w, "").solve(grad)
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = xi + step * delta
            cand_obj, cand_grad_mu, cand_w = evaluate(cand)
            if np.isfinite(cand_obj) and cand_obj >= obj - 1e-12 * (1.0 + abs(obj)):
                break
            step *= 0.5
        else:
            raise ModeError(f"step halving failed after {_MAX_HALVINGS} halvings", last=xi)
        rel_change = abs(cand_obj - obj) / (1.0 + abs(obj))
        xi, obj, grad_mu, w = cand, cand_obj, cand_grad_mu, cand_w
        if rel_change < 1e-12:
            break
    else:
        raise ModeError(f"no convergence in {_MAX_NEWTON_ITERS} Newton iterations", last=xi)

    # obj and w were evaluated at the accepted xi
    return ModeResult(xi=xi, operator=hessian(w, " at the mode"), objective=obj, n_iter=n_iter)


def _chol_with_jitter(h: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``h``, or of each matrix of a stacked
    (k, n, n) ``h``; a matrix that is not numerically positive definite gets
    its mean diagonal times 1e-12, 1e-9, 1e-6 added to the diagonal until it
    factors (logged as a warning), else None."""
    if h.ndim == 3:
        # one LAPACK call per block: scipy.linalg.cholesky takes stacked
        # input only in recent releases, and there it loops in Python too
        factors = []
        for block in h:
            chol, info = sla.lapack.dpotrf(block, lower=1, clean=1)
            if info:
                chol = _chol_with_jitter(block)
                if chol is None:
                    return None
            factors.append(chol)
        return np.stack(factors)
    try:
        return sla.cholesky(h, lower=True, check_finite=False)
    except sla.LinAlgError:
        pass
    scale = float(np.mean(np.diag(h)))
    diag = np.diag_indices(h.shape[0])
    for exponent in (-12, -9, -6):
        bumped = h.copy()
        jitter = scale * 10.0**exponent
        bumped[diag] += jitter
        try:
            chol = sla.cholesky(bumped, lower=True, check_finite=False)
        except sla.LinAlgError:
            continue
        logger.warning(
            "Cholesky of a %d x %d matrix needed jitter: added %.3g to its diagonal",
            h.shape[0], h.shape[0], jitter,
        )
        return chol
    return None


def laplace_log_marginal(
    model: LatentModel,
    eta: HyperParameters,
    data,
    init: np.ndarray | None = None,
) -> float:
    """Laplace approximation of the log joint of data and hyperparameters:
    loglik + latent prior at the mode - 1/2 logdet(H) + (dim/2) log 2pi,
    plus the hyperprior log density.  ``data`` is a ``MortalityDataset`` or
    a likelihood (see ``LatentModel.likelihood``)."""
    value, _ = _laplace_with_mode(model, eta, data, init=init)
    return value


def _laplace_with_mode(
    model: LatentModel,
    eta: HyperParameters,
    data,
    init: np.ndarray | None = None,
) -> tuple[float, ModeResult]:
    """``laplace_log_marginal`` and the mode it was taken at."""
    mode = conditional_mode(model, eta, data, init=init)
    return _log_marginal(model, eta, mode), mode


def _log_marginal(model: LatentModel, eta: HyperParameters, mode: ModeResult) -> float:
    """The Laplace formula at a found mode: log joint at the mode
    - 1/2 logdet(H) + (dim/2) log 2pi + hyperprior log density."""
    return float(
        mode.objective
        - 0.5 * mode.logdet_hessian
        + 0.5 * model.free_dim * np.log(2.0 * np.pi)
        + model.prior_model.logpdf(eta)
    )


@dataclass
class OptimizationResult:
    eta_hat: HyperParameters
    objective: float
    n_evaluations: int
    converged: bool
    mode: ModeResult


def optimize_hyperparameters(
    model: LatentModel,
    data,
    init: HyperParameters | None = None,
    budget: int = 2000,
    rel_tol: float = 1e-6,
) -> OptimizationResult:
    """Maximize the Laplace objective over transformed hyperparameters
    (log precisions, transformed correlations, raw baseline means) with a
    derivative-free simplex search.  ``data`` is a ``MortalityDataset`` or
    a likelihood (see ``LatentModel.likelihood``), resolved once for the
    whole search.  Deterministic given the initial point; the search makes
    at most ``budget`` Laplace evaluations, and exhausting it returns the
    best point with ``converged`` False."""
    from scipy.optimize import minimize  # importing scipy.optimize costs ~0.1 s

    likelihood = model.likelihood(data)
    space = model.prior_model
    x0 = space.to_vector(init if init is not None else space.default())
    state: dict = {"best": None, "best_val": -np.inf, "warm": None, "n": 0}
    big = 1e30

    def negobj(x: np.ndarray) -> float:
        state["n"] += 1
        try:  # x may map to no valid eta, or the mode or its factorization fail
            val, mode = _laplace_with_mode(model, space.from_vector(x), likelihood, state["warm"])
        except (ModeError, ValueError, sla.LinAlgError):
            return big
        if not np.isfinite(val):
            return big
        state["warm"] = mode.xi
        if val > state["best_val"]:
            state["best_val"] = val
            state["best"] = (x.copy(), mode)
        return -val

    f0 = negobj(x0)
    if f0 >= big:
        raise ModeError("Laplace objective is not finite at the initial point")
    start = [f0]  # the simplex's first vertex is x0: serve it, do not evaluate it again

    def vertex(x: np.ndarray) -> float:
        return start.pop() if start and np.array_equal(x, x0) else negobj(x)

    n = x0.shape[0]
    simplex = np.vstack([x0] + [x0 + 0.5 * np.eye(n)[i] for i in range(n)])
    res = minimize(
        vertex,
        x0,
        method="Nelder-Mead",
        options={
            "maxfev": budget,
            "fatol": rel_tol * (1.0 + abs(f0)),
            "xatol": 1e-3,
            "initial_simplex": simplex,
        },
    )
    converged = bool(res.success)
    if not converged:
        logger.warning(
            "%s/%s: hyperparameter search stopped after %d evaluations without meeting "
            "the tolerance; returning the best point",
            model.pattern.name, model.structure.kind, state["n"],
        )
    best_x, best_mode = state["best"]
    return OptimizationResult(
        eta_hat=space.from_vector(best_x),
        objective=float(state["best_val"]),
        n_evaluations=int(state["n"]),
        converged=converged,
        mode=best_mode,
    )


@dataclass
class PosteriorFit:
    """Empirical-Bayes posterior: hyperparameters at the optimum, the
    Gaussian approximation of the latent field, and posterior draws."""

    model: LatentModel
    eta_hat: HyperParameters
    latent_mean: np.ndarray
    samples: np.ndarray           # (n, free_dim)
    log_marginal: float
    seed: int
    converged: bool | None = None  # the search's flag; None when no search ran

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def lograte_samples(self) -> np.ndarray:
        """(n, R * cells) log rates of the draws, computed on each read so
        that a fit holds only its latent draws.  The whole-matrix reader:
        the package's own posterior readers stream per stratum through
        ``LatentModel.stratum_logrates`` instead."""
        return self.model.logrates_samples(self.samples)

    def lograte_cube(self) -> np.ndarray:
        """(n, R, A, T) view of the log-rate samples (whole-matrix, as
        ``lograte_samples``)."""
        n = self.samples.shape[0]
        return unflatten_surface(
            self.lograte_samples.reshape(n, self.model.n_strata, -1), self.model.grid
        )


def sample_posterior(
    model: LatentModel,
    eta_hat: HyperParameters,
    data,
    n: int = 1000,
    seed: int = 0,
    mode: ModeResult | None = None,
) -> PosteriorFit:
    """Draw latent samples from the Gaussian approximation N(mode, H^-1) at
    the plugged-in hyperparameters; the fit maps them to log rates on read.
    ``data`` is a ``MortalityDataset`` or a likelihood (see
    ``LatentModel.likelihood``); ``mode``, when given, is taken as found at
    ``eta_hat``.  The reported log marginal is the Laplace value at that
    mode.
    """
    likelihood = model.likelihood(data)
    if mode is None:
        mode = conditional_mode(model, eta_hat, likelihood)
    return PosteriorFit(
        model=model,
        eta_hat=eta_hat,
        latent_mean=mode.xi,
        samples=_gaussian_draws(mode, n, np.random.default_rng(seed)),
        log_marginal=_log_marginal(model, eta_hat, mode),
        seed=seed,
    )


def _gaussian_draws(mode: ModeResult, n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.empty((0, mode.xi.shape[0]))
    z = rng.standard_normal((mode.xi.shape[0], n))
    delta = sla.solve_triangular(mode.chol, z, lower=True, trans="T")
    delta += mode.xi[:, None]
    return delta.T


def fit_model(
    model: LatentModel,
    data,
    n_samples: int = 1000,
    seed: int = 0,
    budget: int = 2000,
    rel_tol: float = 1e-6,
) -> PosteriorFit:
    """Optimize hyperparameters, then sample the posterior; the one-call
    entry point used by the model grid and the CLI.  ``data`` (a dataset
    or a likelihood, see ``LatentModel.likelihood``) is resolved once and
    passed down to both steps."""
    likelihood = model.likelihood(data)
    opt = optimize_hyperparameters(model, likelihood, budget=budget, rel_tol=rel_tol)
    fit = sample_posterior(model, opt.eta_hat, likelihood, n=n_samples, seed=seed, mode=opt.mode)
    fit.converged = opt.converged
    return fit

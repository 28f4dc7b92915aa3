"""Stratified latent Gaussian model assembly and posterior inference.

A latent model stacks one canonical design per stratum, with parameter
blocks (baseline, age, period, cohort curvatures) either shared across
strata or stratum-specific with a matrix-normal prior.  Inference is
empirical-Bayes: a Newton/IRLS conditional mode and Gaussian (Laplace)
approximation of the latent field at each hyperparameter value, a
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

Cell vectorization is stratum-major, column-major by period within each
stratum.  All sampling is seed-driven; identical inputs and seeds produce
identical outputs on one platform.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize
from scipy.special import gammaln

from . import _kernels
from .core import (
    BaselineSpec,
    DesignParts,
    GridSpec,
    default_baseline_spec,
    design_parts,
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

BLOCKS = ("baseline", "age", "period", "cohort")

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
    shared: frozenset[str]

    def __post_init__(self) -> None:
        expected = _SHARING_TABLE.get(self.name)
        if expected is None:
            raise ValueError(f"unknown pattern {self.name!r}; use M1..M6")
        if frozenset(self.shared) != expected:
            raise ValueError(
                f"pattern {self.name} shares {sorted(expected)}, got {sorted(self.shared)}"
            )

    @classmethod
    def from_name(cls, name: str) -> "SharingPattern":
        name = name.upper()
        if name not in _SHARING_TABLE:
            raise ValueError(f"unknown pattern {name!r}; use M1..M6")
        return cls(name=name, shared=_SHARING_TABLE[name])

    def is_shared(self, block: str) -> bool:
        return block in self.shared

    @property
    def varying(self) -> tuple[str, ...]:
        return tuple(b for b in BLOCKS if b not in self.shared)


def pattern_names() -> tuple[str, ...]:
    return tuple(_SHARING_TABLE)


def flatten_cells(arr: np.ndarray) -> np.ndarray:
    """(R, A, T) -> flat vector, stratum-major, column-major by period."""
    arr = np.asarray(arr)
    r = arr.shape[0]
    return arr.transpose(0, 2, 1).reshape(r, -1).ravel()


def unflatten_cells(flat: np.ndarray, n_strata: int, grid: GridSpec) -> np.ndarray:
    """Inverse of flatten_cells, back to (R, A, T)."""
    flat = np.asarray(flat)
    return flat.reshape(n_strata, grid.n_period, grid.n_age).transpose(0, 2, 1)


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
        self.y = flatten_cells(data.counts)
        self.exposure = flatten_cells(data.exposures)
        self.observed = flatten_cells(data.observed).astype(bool)
        y_obs = self.y[self.observed]
        n_obs = self.exposure[self.observed]
        self.constant = float(np.sum(y_obs * np.log(n_obs) - gammaln(y_obs + 1.0)))
        # per-observed-cell constants, for pointwise scoring
        # (``selection.pointwise_loglik``)
        self.cell_constants = y_obs * np.log(n_obs) - gammaln(y_obs + 1.0)

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


def as_likelihood(data):
    """The likelihood behind an inference entry point's ``data`` argument:
    a ``PoissonLikelihood`` built from a ``MortalityDataset``, or ``data``
    itself when it is already a likelihood, i.e. it has
    ``value_grad_weights(mu) -> (value, grad, weights)``."""
    if isinstance(data, MortalityDataset):
        return PoissonLikelihood(data)
    if callable(getattr(data, "value_grad_weights", None)):
        return data
    raise TypeError(
        "data must be a MortalityDataset or a likelihood with "
        f"value_grad_weights(mu), not {type(data).__name__}"
    )


class LatentPrior:
    """Gaussian prior over the free latent vector at fixed hyperparameters.

    A block's vec precision is Sigma^-1 (x) diag(within); where Sigma is the
    identity (shared blocks, independent) that is diag(within).  ``within``
    and ``rho`` hold each free coordinate's within-stratum precision and
    exchangeable rho (0 where there is none).
    """

    def __init__(self, blocks, free_dim: int, rhos: Sequence[float | None]):
        self.mean = np.zeros(free_dim)
        self.within = np.zeros(free_dim)
        self.rho = np.zeros(free_dim)
        self._diagonal = np.zeros(free_dim)  # within where Sigma = I, else 0
        self.logdet = 0.0
        self.dim = free_dim
        exchangeable = []
        # blocks with any other Sigma (bym2) apply Sigma^-1 as a matrix
        self._dense: list[tuple[slice, np.ndarray, np.ndarray]] = []
        for (sl, within, sigma, block_mean), rho in zip(blocks, rhos):
            copies = block_mean.shape[0] // within.shape[0]
            self.logdet += copies * float(np.sum(np.log(within)))
            self.mean[sl] = block_mean
            self.within[sl].reshape(copies, -1)[:] = within
            if rho is not None:
                # closed form, accurate as rho -> 1 where a factor of Sigma is not
                r1 = copies - 1
                logdet_sigma = r1 * np.log1p(-rho) + np.log1p(r1 * rho)
                self.rho[sl] = rho
                exchangeable.append(np.arange(sl.start, sl.stop).reshape(copies, -1))
            elif sigma is not None:
                chol = sla.cholesky(sigma, lower=True)
                inv = sla.cho_solve((chol, True), np.eye(copies))
                logdet_sigma = 2.0 * float(np.sum(np.log(np.diag(chol))))
                self._dense.append((sl, within, 0.5 * (inv + inv.T)))
            else:
                self._diagonal[sl] = self.within[sl]
                continue
            self.logdet -= within.shape[0] * float(logdet_sigma)
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
    prior_config: PriorConfig
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

    def weighted_gram(self, w_flat: np.ndarray) -> np.ndarray:
        """Per-stratum M' diag(w_r) M over the canonical columns, stacked
        (R, n_canonical, n_canonical)."""
        m = self.parts.matrix
        w = w_flat.reshape(self.n_strata, self.grid.n_cells)
        return m.T @ (w[:, :, None] * m)

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

    def _block_priors(
        self, eta: HyperParameters
    ) -> list[tuple[slice, np.ndarray, np.ndarray | None, np.ndarray]]:
        """(slice, within-stratum precision diagonal, cross-strata
        covariance Sigma, mean) per block.

        A varying block's vec precision is Sigma^-1 (x) diag(within); Sigma
        is None for shared blocks and the independent structure, where it is
        the identity.
        """
        out = []
        for name in BLOCKS:
            offset, length, shared = self.blocks[name]
            copies = 1 if shared else self.n_strata
            sl = slice(offset, offset + length * copies)
            if shared and name == "baseline":
                prior = self.prior_config.baseline_mean
                out.append((sl, 1.0 / prior.variances, None, prior.mean.copy()))
                continue
            if shared or name != "baseline":
                mean = np.zeros(length * copies)
            elif eta.nu0 is None:
                raise ValueError("varying baseline needs nu0 in eta")
            else:
                mean = np.tile(np.asarray(eta.nu0, dtype=float), copies)
            sigma = None
            if not shared and self.structure.kind == "exchangeable":
                sigma = exchangeable_corr(copies, eta.rhos[name])
            elif not shared and self.structure.kind == "bym2":
                sigma = bym2_corr(eta.rhos[name], self.scaled_qinv)
            out.append((sl, np.full(length, eta.taus[name]), sigma, mean))
        return out

    def latent_prior(self, eta: HyperParameters) -> LatentPrior:
        exchangeable = self.structure.kind == "exchangeable"
        rhos = [
            eta.rhos[name] if exchangeable and not self.blocks[name][2] else None
            for name in BLOCKS
        ]
        return LatentPrior(self._block_priors(eta), self.free_dim, rhos)

    def sample_latent_prior(self, eta: HyperParameters, rng: np.random.Generator) -> np.ndarray:
        """One draw of the free latent vector from its prior at eta."""
        xi = np.zeros(self.free_dim)
        for sl, within, sigma, mean in self._block_priors(eta):
            z = rng.standard_normal((within.shape[0], mean.shape[0] // within.shape[0]))
            x = z / np.sqrt(within)[:, None]
            if sigma is not None:
                x = x @ sla.cholesky(sigma, lower=True).T
            xi[sl] = mean + x.T.ravel()
        return xi

    # ------------------------------------------------------------------
    # hyperparameter layout and transforms

    @property
    def eta_layout(self) -> tuple[tuple[str, str], ...]:
        layout: list[tuple[str, str]] = []
        for block in self.prior_model.tau_blocks:
            layout.append(("tau", block))
        for block in self.prior_model.rho_blocks:
            layout.append(("rho", block))
        if self.prior_model.nu0_active:
            for i in range(3):
                layout.append(("nu0", str(i)))
        return tuple(layout)

    def default_eta(self) -> HyperParameters:
        taus = {b: 1.0 / self.prior_config.rate(b) for b in self.prior_model.tau_blocks}
        rhos = {}
        for b in self.prior_model.rho_blocks:
            rhos[b] = 0.0 if self.structure.kind == "exchangeable" else 0.5
        nu0 = self.prior_config.baseline_mean.mean.copy() if self.prior_model.nu0_active else None
        return HyperParameters(taus=taus, rhos=rhos, nu0=nu0)

    def eta_to_vector(self, eta: HyperParameters) -> np.ndarray:
        from .priors import zeta_from_rho

        vec = []
        for kind, block in self.eta_layout:
            if kind == "tau":
                vec.append(np.log(eta.taus[block]))
            elif kind == "rho":
                rho = eta.rhos[block]
                if self.structure.kind == "exchangeable":
                    vec.append(zeta_from_rho(rho, self.n_strata))
                else:
                    vec.append(np.log(rho / (1.0 - rho)))
            else:
                assert eta.nu0 is not None
                vec.append(float(eta.nu0[int(block)]))
        return np.asarray(vec)

    def eta_from_vector(self, vec: np.ndarray) -> HyperParameters:
        from .priors import rho_from_zeta

        vec = np.asarray(vec, dtype=float)
        taus: dict[str, float] = {}
        rhos: dict[str, float] = {}
        nu0 = np.zeros(3) if self.prior_model.nu0_active else None
        for x, (kind, block) in zip(vec, self.eta_layout):
            if kind == "tau":
                taus[block] = float(np.exp(np.clip(x, -46.0, 46.0)))
            elif kind == "rho":
                x = float(np.clip(x, -30.0, 30.0))
                if self.structure.kind == "exchangeable":
                    rhos[block] = rho_from_zeta(x, self.n_strata)
                else:
                    rhos[block] = 1.0 / (1.0 + np.exp(-x))
            else:
                assert nu0 is not None
                nu0[int(block)] = float(x)
        return HyperParameters(taus=taus, rhos=rhos, nu0=nu0)

    def transform_log_jacobian(self, vec: np.ndarray) -> float:
        """log |d eta / d vec| of the transform used by eta_from_vector."""
        from .priors import dzeta_drho, rho_from_zeta

        total = 0.0
        for x, (kind, block) in zip(np.asarray(vec, dtype=float), self.eta_layout):
            if kind == "tau":
                total += float(np.clip(x, -46.0, 46.0))
            elif kind == "rho":
                x = float(np.clip(x, -30.0, 30.0))
                if self.structure.kind == "exchangeable":
                    rho = rho_from_zeta(x, self.n_strata)
                    total += -np.log(dzeta_drho(rho, self.n_strata))
                else:
                    rho = 1.0 / (1.0 + np.exp(-x))
                    total += np.log(rho) + np.log1p(-rho)
        return float(total)

    # ------------------------------------------------------------------

    def default_init(self, likelihood) -> np.ndarray:
        """Zero start, with baseline coordinates seeded from the crude rate
        log(sum y / sum N) over the observed baseline cells of a
        ``PoissonLikelihood`` (prior mean when those cells are all missing,
        and for any other likelihood)."""
        xi = np.zeros(self.free_dim)
        offset, length, shared = self.blocks["baseline"]
        cells = self.grid.n_cells
        b_rows = self.parts.baseline_rows
        prior_mean = self.prior_config.baseline_mean.mean
        poisson = isinstance(likelihood, PoissonLikelihood)

        def crude(strata: Sequence[int]) -> np.ndarray:
            if poisson:
                rows = np.concatenate([r * cells + b_rows for r in strata])
                use = rows[likelihood.observed[rows]]
                ysum = float(likelihood.y[use].sum())
                nsum = float(likelihood.exposure[use].sum())
                if ysum > 0 and nsum > 0:
                    level = float(np.log(ysum / nsum))
                    if self.baseline_spec.form == "three-points":
                        return np.array([level, level, level])
                    return np.array([level, 0.0, 0.0])
            if self.baseline_spec.form == "three-points":
                m = prior_mean
                return np.array([m[0], m[0] + m[1], m[0] + m[2]])
            return prior_mean.copy()

        if shared:
            xi[offset : offset + 3] = crude(range(self.n_strata))
        else:
            for r in range(self.n_strata):
                xi[offset + 3 * r : offset + 3 * r + 3] = crude([r])
        return xi


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
        baseline_spec = default_baseline_spec(grid, form="point-plus-two-slopes")
    if n_strata < 1:
        raise ValueError("need at least one stratum")
    if not pattern.varying and structure.kind != "independent":
        raise ValueError(
            f"pattern {pattern.name} has no strata-varying block and admits "
            "no correlation structure; fit it under the independent label"
        )
    scaled_qinv = None
    if structure.kind == "bym2":
        assert structure.graph is not None
        if structure.graph.n_strata != n_strata:
            raise ValueError(
                f"graph covers {structure.graph.n_strata} strata, data has {n_strata}"
            )
        scaled_qinv = scaled_generalized_inverse(icar_precision(structure.graph))
    if structure.kind != "independent" and pattern.varying and n_strata < 2:
        raise ValueError("correlation structures need at least 2 strata")

    parts = design_parts(grid, baseline_spec)
    lengths = {
        "baseline": 3,
        "age": grid.n_age - 2,
        "period": grid.n_period - 2,
        "cohort": grid.n_cohort - 2,
    }
    blocks: dict[str, tuple[int, int, bool]] = {}
    offset = 0
    for name in BLOCKS:
        shared = pattern.is_shared(name)
        blocks[name] = (offset, lengths[name], shared)
        offset += lengths[name] if shared else lengths[name] * n_strata
    free_dim = offset

    n_canon = grid.n_canonical
    col_index = np.zeros((n_strata, n_canon), dtype=int)
    col = 0
    for name in BLOCKS:
        b_off, length, shared = blocks[name]
        for r in range(n_strata):
            start = b_off if shared else b_off + r * length
            col_index[r, col : col + length] = np.arange(start, start + length)
        col += length

    tau_blocks = tuple(
        b for b in BLOCKS if b != "baseline" or not pattern.is_shared("baseline")
    )
    rho_blocks = pattern.varying if structure.kind != "independent" else ()
    prior_model = PriorModel(
        n_strata=n_strata,
        structure_kind=structure.kind,
        tau_blocks=tau_blocks,
        rho_blocks=tuple(rho_blocks),
        nu0_active=not pattern.is_shared("baseline"),
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
        prior_config=prior_config,
        prior_model=prior_model,
        blocks=blocks,
        col_index=col_index,
        free_dim=free_dim,
        scaled_qinv=scaled_qinv,
    )


def poisson_loglik(
    xi: np.ndarray, model: LatentModel, data: MortalityDataset
) -> tuple[float, np.ndarray, np.ndarray]:
    """Poisson log likelihood with its gradient (w.r.t. the free latent
    vector) and the per-cell Fisher weights N exp(mu)."""
    lik = PoissonLikelihood(data)
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
        s = -(self.w.transpose(0, 2, 1) @ self.w).sum(axis=0)
        s[n_m:, n_m:] += glob
        if n_m:
            # S_mm = diag(h_mm) - sum_r q K_r^-1 q, written as
            # diag(d / rho) + q sum_r K_r^-1 G_r, free of the cancellation as rho -> 1
            k_inv_g = (l_pos_rho.transpose(0, 2, 1) @ (l_inv @ g_loc[:, :, pos_rho])).sum(axis=0)
            k_inv_g *= q_m[:, None]
            s[:n_m, :n_m] = np.diag(d[pos_rho] / rho[pos_rho]) + 0.5 * (k_inv_g + k_inv_g.T)
        self.l_s = _factor(s) if s.shape[0] else None
        if self.l_s is not None:
            self.logdet += _logdet(self.l_s)

        # Woodbury for the rho < 0 coordinates
        self.neg_rho = np.flatnonzero(rho < 0)
        if self.neg_rho.shape[0]:
            mu = (-rho * a / (1.0 + (n_strata - 1) * rho) * d)[self.neg_rho]
            l_neg_rho = l_inv[:, :, self.neg_rho].transpose(0, 2, 1)
            # sum_r K_r^-1[neg_rho, neg_rho]
            cap = (l_neg_rho @ l_neg_rho.transpose(0, 2, 1)).sum(axis=0)
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
    converged: bool

    @property
    def logdet_hessian(self) -> float:
        return self.operator.logdet

    @cached_property
    def hessian(self) -> np.ndarray:
        return self.operator.dense()

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
    tol: float = 1e-8,
    max_iter: int = 100,
    max_halvings: int = 30,
) -> ModeResult:
    """Newton/IRLS maximization of loglik + latent log prior at fixed eta.

    ``data`` is a ``MortalityDataset`` or a likelihood already built from
    one (see ``as_likelihood``).  Converges when the gradient max-norm drops
    below ``tol`` or the relative objective change drops below 1e-12;
    raises ModeError (with the last iterate attached) on non-convergence or
    a failed line search.
    """
    likelihood = as_likelihood(data)
    prior = model.latent_prior(eta)
    xi = model.default_init(likelihood) if init is None else np.array(init, dtype=float)

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

    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        grad = model.design_transpose_apply(grad_mu) + prior.grad(xi)
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        delta = hessian(w, "").solve(grad)
        step = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            cand = xi + step * delta
            cand_obj, cand_grad_mu, cand_w = evaluate(cand)
            if np.isfinite(cand_obj) and cand_obj >= obj - 1e-12 * (1.0 + abs(obj)):
                rel_change = abs(cand_obj - obj) / (1.0 + abs(obj))
                xi, grad_mu, w = cand, cand_grad_mu, cand_w
                obj = cand_obj
                accepted = True
                if rel_change < 1e-12:
                    converged = True
                break
            step *= 0.5
        if not accepted:
            raise ModeError(
                f"step halving failed after {max_halvings} halvings", last=xi
            )
        if converged:
            break
    if not converged:
        raise ModeError(f"no convergence in {max_iter} Newton iterations", last=xi)

    # refresh curvature at the accepted mode
    ll, grad_mu, w = likelihood.value_grad_weights(model.logrates_flat(xi))
    return ModeResult(
        xi=xi,
        operator=hessian(w, " at the mode"),
        objective=ll + prior.logpdf(xi),
        n_iter=n_iter,
        converged=True,
    )


def _chol_with_jitter(h: np.ndarray, attempts: int = 4) -> np.ndarray | None:
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
                chol = _chol_with_jitter(block, attempts)
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
    for k in range(1, attempts):
        bumped = h.copy()
        jitter = scale * 10.0 ** (-12 + 3 * (k - 1))
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
    a likelihood (see ``as_likelihood``)."""
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


def _laplace_at(
    model: LatentModel, x: np.ndarray, data, init: np.ndarray | None
) -> tuple[float, ModeResult] | None:
    """``_laplace_with_mode`` at transformed hyperparameters ``x``, or None
    where ``x`` maps to no valid eta or the mode or its factorization
    fails."""
    try:
        return _laplace_with_mode(model, model.eta_from_vector(x), data, init=init)
    except (ModeError, ValueError, sla.LinAlgError):
        return None


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
    a likelihood (see ``as_likelihood``), resolved once for the whole
    search.  Deterministic given the initial point; exhausting the budget
    returns the best point with a warning flag."""
    likelihood = as_likelihood(data)
    x0 = model.eta_to_vector(init if init is not None else model.default_eta())
    state: dict = {"best": None, "best_val": -np.inf, "warm": None, "n": 0}
    big = 1e30

    def negobj(x: np.ndarray) -> float:
        state["n"] += 1
        point = _laplace_at(model, x, likelihood, state["warm"])
        if point is None or not np.isfinite(point[0]):
            return big
        val, mode = point
        state["warm"] = mode.xi
        if val > state["best_val"]:
            state["best_val"] = val
            state["best"] = (x.copy(), mode)
        return -val

    f0 = negobj(x0)
    if f0 >= big:
        raise ModeError("Laplace objective is not finite at the initial point")
    n = x0.shape[0]
    simplex = np.vstack([x0] + [x0 + 0.5 * np.eye(n)[i] for i in range(n)])
    res = minimize(
        negobj,
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
        warnings.warn(
            f"hyperparameter search stopped after {state['n']} evaluations "
            "without meeting the tolerance; returning the best point",
            RuntimeWarning,
        )
    best_x, best_mode = state["best"]
    return OptimizationResult(
        eta_hat=model.eta_from_vector(best_x),
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
    converged: bool = True
    eta_grid: tuple | None = None

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
        g = self.model.grid
        return self.lograte_samples.reshape(
            n, self.model.n_strata, g.n_period, g.n_age
        ).transpose(0, 1, 3, 2)


# step of the ``eta_grid`` axial points, in transformed coordinates
_ETA_GRID_DELTA = 0.5


def sample_posterior(
    model: LatentModel,
    eta_hat: HyperParameters,
    data,
    n: int = 1000,
    seed: int = 0,
    mode: ModeResult | None = None,
    log_marginal: float | None = None,
    eta_grid: bool = False,
) -> PosteriorFit:
    """Draw latent samples from the Gaussian approximation N(mode, H^-1) at
    the plugged-in hyperparameters; the fit maps them to log rates on read.
    ``data`` is a ``MortalityDataset`` or a likelihood (see
    ``as_likelihood``); ``mode`` and ``log_marginal``, when given, are
    taken as found at ``eta_hat``.

    With ``eta_grid`` enabled, an axial grid of hyperparameter points
    ``_ETA_GRID_DELTA`` either side of the optimum on each transformed axis
    is weighted by the Laplace objective and the draw becomes a mixture over
    those points.
    """
    likelihood = as_likelihood(data)
    if mode is None:
        mode = conditional_mode(model, eta_hat, likelihood)
    if log_marginal is None:
        log_marginal = _log_marginal(model, eta_hat, mode)
    rng = np.random.default_rng(seed)

    grid_info = None
    if not eta_grid:
        samples = _gaussian_draws(mode, n, rng)
    else:
        x_hat = model.eta_to_vector(eta_hat)
        points = [(x_hat, float(log_marginal), mode)]
        for i in range(x_hat.shape[0]):
            for sgn in (-1.0, 1.0):
                x = x_hat.copy()
                x[i] += sgn * _ETA_GRID_DELTA
                point = _laplace_at(model, x, likelihood, mode.xi)
                if point is not None:
                    points.append((x, *point))
        vals = np.array([p[1] for p in points])
        weights = np.exp(vals - vals.max())
        weights /= weights.sum()
        counts = rng.multinomial(n, weights)
        chunks = [
            _gaussian_draws(p[2], int(c), rng) for p, c in zip(points, counts) if c > 0
        ]
        samples = np.concatenate(chunks, axis=0)
        grid_info = tuple(
            (model.eta_from_vector(p[0]), float(w)) for p, w in zip(points, weights)
        )

    return PosteriorFit(
        model=model,
        eta_hat=eta_hat,
        latent_mean=mode.xi,
        samples=samples,
        log_marginal=float(log_marginal),
        seed=seed,
        eta_grid=grid_info,
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
    init: HyperParameters | None = None,
    budget: int = 2000,
    rel_tol: float = 1e-6,
    eta_grid: bool = False,
) -> PosteriorFit:
    """Optimize hyperparameters, then sample the posterior; the one-call
    entry point used by the model grid and the CLI.  ``data`` (a dataset
    or a likelihood, see ``as_likelihood``) is resolved once and passed
    down to both steps."""
    likelihood = as_likelihood(data)
    opt = optimize_hyperparameters(model, likelihood, init=init, budget=budget, rel_tol=rel_tol)
    fit = sample_posterior(
        model,
        opt.eta_hat,
        likelihood,
        n=n_samples,
        seed=seed,
        mode=opt.mode,
        log_marginal=opt.objective,
        eta_grid=eta_grid,
    )
    fit.converged = opt.converged
    return fit

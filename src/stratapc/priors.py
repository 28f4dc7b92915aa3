"""Hyperprior densities and elicitation for the stratified model.

Curvature precisions get exponential priors whose rate is elicited from a
prediction-interval statement: if the one-step-ahead prediction residual for
an effect should stay within +-epsilon with probability 1-q, the exponential
rate is (epsilon / t_{1-q/2, df=2})^2 / 2.  The rate is exactly calibrated
for a residual with conditional variance 2/tau, because an exponential-rate
mixture of normals is a scaled Student-t with 2 degrees of freedom.

Cross-strata correlations get either a Gaussian prior on a log-odds-like
transform (exchangeable) or a penalized-complexity prior on the spatial
mixing weight (bym2).  The population-mean baseline gets an informative
normal prior; prior-predictive simulation checks that the implied count
distributions are not absurd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import optimize as sopt
from scipy import stats as sstats

if TYPE_CHECKING:  # pragma: no cover
    from .inference import LatentModel


@dataclass(frozen=True)
class PrecisionElicitation:
    """Half-width epsilon (log relative risk) and tail probability q of the
    prediction interval that pins down an exponential precision prior."""

    epsilon: float
    q: float = 0.05

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")

    @property
    def rate(self) -> float:
        return elicit_precision_rate(self)


def elicit_precision_rate(e: PrecisionElicitation) -> float:
    """Exponential rate (epsilon / t_{1-q/2, df=2})^2 / 2 for a curvature
    precision prior."""
    t_quantile = sstats.t.ppf(1.0 - e.q / 2.0, df=2)
    return float((e.epsilon / t_quantile) ** 2 / 2.0)


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


@dataclass(frozen=True)
class BaselineMeanPrior:
    """Independent normal prior on the three baseline coordinates."""

    mean: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        if mean.shape != (3,) or var.shape != (3,):
            raise ValueError("baseline mean prior needs 3 means and 3 variances")
        if np.any(var <= 0):
            raise ValueError("baseline prior variances must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variances", var)

    def __eq__(self, other) -> bool:
        """Equal means and variances; the generated ``__eq__`` cannot
        compare array fields."""
        return (
            isinstance(other, BaselineMeanPrior)
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.variances, other.variances)
        )

    def logpdf(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        z2 = (x - self.mean) ** 2 / self.variances
        return float(-0.5 * np.sum(np.log(2.0 * np.pi * self.variances) + z2))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + np.sqrt(self.variances) * rng.standard_normal(3)

    def interval(self, component: int, level: float = 0.95) -> tuple[float, float]:
        """Central prior interval of one coordinate on the natural scale."""
        z = sstats.norm.ppf(0.5 + level / 2.0)
        half = z * float(np.sqrt(self.variances[component]))
        center = float(self.mean[component])
        return float(np.exp(center - half)), float(np.exp(center + half))


def default_baseline_mean_prior() -> BaselineMeanPrior:
    """Mortality-scale default: baseline rate near 5 per 1000 person-years,
    a 35% age-slope increase and a 10% cohort-slope decrease."""
    return BaselineMeanPrior(
        mean=np.array([np.log(0.005), 0.3, -0.1]),
        variances=np.array([1.0, 0.1, 0.1]),
    )


@dataclass(frozen=True)
class PriorConfig:
    """All prior settings for one run.

    ``epsilons`` are the prediction-interval half-widths per block on the log
    relative-risk scale; the baseline entry applies only when the baseline
    block varies across strata.  ``exchangeable_variance`` is the variance of
    the Gaussian prior on the transformed exchangeable correlation (the
    common software default corresponds to 5).
    """

    epsilons: dict[str, float] = field(
        default_factory=lambda: {
            "age": float(np.log(1.2)),
            "period": float(np.log(1.1)),
            "cohort": float(np.log(1.01)),
            "baseline": float(np.log(1.05)),
        }
    )
    q: float = 0.05
    baseline_mean: BaselineMeanPrior = field(default_factory=default_baseline_mean_prior)
    exchangeable_variance: float = 5.0

    def elicitation(self, block: str) -> PrecisionElicitation:
        return PrecisionElicitation(epsilon=self.epsilons[block], q=self.q)

    def rate(self, block: str) -> float:
        return self.elicitation(block).rate


# ---------------------------------------------------------------------------
# exchangeable correlation transform

def zeta_from_rho(rho: float, n_strata: int) -> float:
    """Map rho in (-1/(R-1), 1) to the real line."""
    r1 = n_strata - 1
    lo = -1.0 / r1
    if not (lo < rho < 1.0):
        raise ValueError(f"rho={rho} outside ({lo}, 1)")
    return float(np.log((1.0 + rho * r1) / (1.0 - rho)))


def rho_from_zeta(zeta: float, n_strata: int) -> float:
    r1 = n_strata - 1
    e = np.exp(zeta)
    return float((e - 1.0) / (e + r1))


def dzeta_drho(rho: float, n_strata: int) -> float:
    r1 = n_strata - 1
    return float(r1 / (1.0 + rho * r1) + 1.0 / (1.0 - rho))


# ---------------------------------------------------------------------------
# penalized-complexity prior on the bym2 mixing weight

class PCPriorBYM2:
    """Penalized-complexity prior on the spatial mixing weight rho in (0, 1).

    The distance from the base model is d(rho) = sqrt(2 KLD(rho)) with KLD
    the divergence of N(0, (1-rho) I + rho Q*^-) from N(0, I); d gets an
    exponential prior with the rate fixed so that Pr(rho < 0.5) = 0.5.  The
    density includes the |d'(rho)| Jacobian, computed by central differences.
    """

    def __init__(self, scaled_qinv: np.ndarray, median: float = 0.5):
        eigvals = np.linalg.eigvalsh(np.asarray(scaled_qinv, dtype=float))
        shift = eigvals - 1.0
        # the generalized inverse has one exact null eigenvalue; snap it so
        # its divergence term can be computed exactly near rho = 1
        shift[np.abs(shift + 1.0) < 1e-10] = -1.0
        self._shift = shift[shift != -1.0]
        self._n_null = int(np.sum(shift == -1.0))
        if not (0.0 < median < 1.0):
            raise ValueError("median must lie in (0, 1)")
        self._rate = float(np.log(2.0) / self.distance(median))

    def _distance_u(self, u: float) -> float:
        """Distance as a function of u = -log(1-rho); smooth up to the
        boundary, with the null-eigenvalue term u - rho computed exactly."""
        rho = -float(np.expm1(-u))
        arg = rho * self._shift
        total = float(np.sum(arg - np.log1p(arg))) + self._n_null * (u - rho)
        return float(np.sqrt(total))

    def distance(self, rho: float) -> float:
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho={rho} outside the open interval (0, 1)")
        return self._distance_u(-float(np.log1p(-rho)))

    @property
    def rate(self) -> float:
        return self._rate

    def logpdf(self, rho: float) -> float:
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho={rho} outside the open interval (0, 1)")
        # differentiate in u = -log(1-rho), where the distance is smooth all
        # the way to the boundary, then map back: d'(rho) = (dd/du) / (1-rho)
        u = -float(np.log1p(-rho))
        d = self._distance_u(u)
        h = min(1e-6, u / 2.0)
        dd_du = (self._distance_u(u + h) - self._distance_u(u - h)) / (2.0 * h)
        log_dprime = float(np.log(abs(dd_du)) + u)
        return float(np.log(self._rate) - self._rate * d + log_dprime)

    def cdf(self, rho: float) -> float:
        return float(1.0 - np.exp(-self._rate * self.distance(rho)))

    def sample(self, rng: np.random.Generator) -> float:
        lo, hi = 1e-12, 1.0 - 1e-9
        d = rng.exponential(scale=1.0 / self._rate)
        if d <= self.distance(lo):
            return lo
        if d >= self.distance(hi):
            return hi
        return float(sopt.brentq(lambda r: self.distance(r) - d, lo, hi, xtol=1e-12))


# ---------------------------------------------------------------------------
# hyperparameter container and the joint hyperprior

@dataclass(frozen=True)
class HyperParameters:
    """Hyperparameters of one model: precisions and correlations per block,
    plus the population-mean baseline when the baseline block varies."""

    taus: dict[str, float]
    rhos: dict[str, float] = field(default_factory=dict)
    nu0: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.nu0 is not None:
            object.__setattr__(self, "nu0", np.asarray(self.nu0, dtype=float))


@dataclass(frozen=True)
class PriorModel:
    """Joint hyperprior for the active components of one latent model."""

    n_strata: int
    structure_kind: str
    tau_blocks: tuple[str, ...]
    rho_blocks: tuple[str, ...]
    nu0_active: bool
    rates: dict[str, float]
    baseline_mean: BaselineMeanPrior
    exchangeable_variance: float = 5.0
    pc_prior: PCPriorBYM2 | None = None

    def logpdf(self, eta: HyperParameters) -> float:
        total = 0.0
        for block in self.tau_blocks:
            tau = eta.taus[block]
            if tau <= 0:
                raise ValueError(f"tau[{block}] must be positive")
            rate = self.rates[block]
            total += np.log(rate) - rate * tau
        for block in self.rho_blocks:
            rho = eta.rhos[block]
            if self.structure_kind == "exchangeable":
                zeta = zeta_from_rho(rho, self.n_strata)
                var = self.exchangeable_variance
                total += -0.5 * (np.log(2.0 * np.pi * var) + zeta**2 / var)
                total += np.log(dzeta_drho(rho, self.n_strata))
            elif self.structure_kind == "bym2":
                assert self.pc_prior is not None
                total += self.pc_prior.logpdf(rho)
            else:
                raise ValueError("independent structure has no correlation prior")
        if self.nu0_active:
            if eta.nu0 is None:
                raise ValueError("nu0 is active but missing from eta")
            total += self.baseline_mean.logpdf(eta.nu0)
        return float(total)

    def sample(self, rng: np.random.Generator) -> HyperParameters:
        taus = {b: float(rng.exponential(scale=1.0 / self.rates[b])) for b in self.tau_blocks}
        rhos: dict[str, float] = {}
        for block in self.rho_blocks:
            if self.structure_kind == "exchangeable":
                zeta = float(rng.normal(0.0, np.sqrt(self.exchangeable_variance)))
                rhos[block] = rho_from_zeta(zeta, self.n_strata)
            else:
                assert self.pc_prior is not None
                rhos[block] = self.pc_prior.sample(rng)
        nu0 = self.baseline_mean.sample(rng) if self.nu0_active else None
        return HyperParameters(taus=taus, rhos=rhos, nu0=nu0)


# ---------------------------------------------------------------------------
# prior-predictive simulation

@dataclass(frozen=True)
class PriorPredictiveSummary:
    """Extrema of simulated count surfaces and exceedance fractions against
    the observed extrema (when observed counts are supplied).  Simulations
    whose log rates overflow the plausible range are counted separately."""

    n_sims: int
    n_degenerate: int
    max_counts: np.ndarray
    min_counts: np.ndarray
    frac_max_exceeds_observed: float | None
    frac_min_below_observed: float | None


def sample_prior_predictive(
    model: "LatentModel",
    exposures: np.ndarray,
    n_sims: int,
    seed: int,
    observed: np.ndarray | None = None,
    observed_counts: np.ndarray | None = None,
    fixed: HyperParameters | None = None,
    degenerate_lograte: float = 30.0,
) -> PriorPredictiveSummary:
    """Simulate count surfaces from the joint prior.

    Each replicate draws hyperparameters from the hyperprior (or uses
    ``fixed``), latent coordinates from the matrix-normal priors, and Poisson
    counts on the observed cells.  Replicates with any log rate above
    ``degenerate_lograte`` are flagged degenerate and excluded from the
    extrema; exposures must be strictly positive on observed cells.
    """
    from .inference import flatten_cells

    exposures = np.asarray(exposures, dtype=float)
    if observed is None:
        observed = np.ones_like(exposures, dtype=bool)
    obs_flat = flatten_cells(observed).astype(bool)
    exp_flat = flatten_cells(exposures)
    if np.any(exp_flat[obs_flat] <= 0):
        raise ValueError("exposures must be strictly positive on observed cells")

    seeds = np.random.SeedSequence(seed).spawn(n_sims)
    maxima: list[float] = []
    minima: list[float] = []
    n_degenerate = 0
    for s in range(n_sims):
        rng = np.random.default_rng(seeds[s])
        eta = fixed if fixed is not None else model.prior_model.sample(rng)
        xi = model.sample_latent_prior(eta, rng)
        mu = model.logrates_flat(xi)[obs_flat]
        if np.max(mu) > degenerate_lograte:
            n_degenerate += 1
            continue
        counts = rng.poisson(exp_flat[obs_flat] * np.exp(mu))
        maxima.append(float(counts.max()))
        minima.append(float(counts.min()))

    max_counts = np.asarray(maxima)
    min_counts = np.asarray(minima)
    frac_max = frac_min = None
    if observed_counts is not None and max_counts.size:
        y_flat = flatten_cells(np.asarray(observed_counts, dtype=float))[obs_flat]
        frac_max = float(np.mean(max_counts > y_flat.max()))
        frac_min = float(np.mean(min_counts < y_flat.min()))
    return PriorPredictiveSummary(
        n_sims=n_sims,
        n_degenerate=n_degenerate,
        max_counts=max_counts,
        min_counts=min_counts,
        frac_max_exceeds_observed=frac_max,
        frac_min_below_observed=frac_min,
    )

"""Adaptive Metropolis-within-blocks sampler used as a validation oracle.

Samples the joint posterior of the free latent vector and the
hyperparameters on small instances, so the Laplace/plug-in pipeline can be
checked against a method with no Gaussian approximation.  Latent updates use
the Cholesky factor of the conditional Hessian at the current
hyperparameters as a preconditioner, alternating symmetric random-walk steps
with mode-centered independence proposals (Hastings-corrected); because the
preconditioner is a function of the current hyperparameters only, both
kernels are valid.  Hyperparameter updates walk on the transformed scale
(log precisions, transformed correlations).  Step sizes adapt during burn-in
only, so the post-burn-in chain is a proper Metropolis sampler.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .inference import (
    HyperParameters,
    LatentModel,
    ModeError,
    conditional_mode,
)

logger = logging.getLogger(__name__)

_TARGET_ACCEPT = 0.234
_INDEPENDENCE_FRACTION = 0.4  # share of latent updates proposed from the mode
_ESS_THRESHOLD = 100.0  # smallest per-component effective sample size for mixing_ok


@dataclass
class McmcResult:
    xi_samples: np.ndarray            # (n_kept, free_dim)
    eta_samples: np.ndarray           # (n_kept, n_hyper) on the natural scale
    hyper_names: tuple[str, ...]
    accept_latent: float
    accept_hyper: float
    ess: np.ndarray                   # per latent component
    mixing_ok: bool


def effective_sample_size(x: np.ndarray) -> float:
    """Initial-positive-sequence estimator of the effective sample size of a
    single chain."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(np.mean(x * x))
    if var == 0.0:
        return float(n)
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    # sum pairs rho[2k+1] + rho[2k+2] while positive
    total = 1.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        total += 2.0 * pair
        k += 2
    return float(n / max(total, 1.0))


def mcmc_oracle(
    model: LatentModel,
    data,
    iterations: int = 20000,
    burn_in: int = 5000,
    seed: int = 0,
    thin: int = 5,
    init_eta: HyperParameters | None = None,
    fix_eta: bool = False,
) -> McmcResult:
    """Run the sampling oracle and return post-burn-in thinned draws.

    ``data`` is a ``MortalityDataset`` or a likelihood already built from
    one (see ``LatentModel.likelihood``).  Intended for small instances
    (free_dim up to a couple hundred).  Always returns samples; poor mixing
    is flagged through the per-component effective sample sizes rather
    than raised.
    """
    likelihood = model.likelihood(data)
    if model.free_dim > 200:
        logger.warning("mcmc_oracle on free_dim=%d; this is a small-instance oracle", model.free_dim)

    rng = np.random.default_rng(seed)
    space = model.prior_model
    eta = init_eta if init_eta is not None else space.default()
    t_vec = space.to_vector(eta)
    n_hyper = t_vec.shape[0]

    def loglik(x: np.ndarray) -> float:
        ll, _, _ = likelihood.value_grad_weights(model.logrates_flat(x))
        return ll

    def hyper_logdensity(t: np.ndarray, eta_obj: HyperParameters) -> float:
        return space.logpdf(eta_obj) + space.log_jacobian(t)

    def conditional_gaussian(eta_obj: HyperParameters, start: np.ndarray):
        """Mode and Hessian factor at the current hyperparameters; a
        deterministic function of eta, so proposals built from it are valid."""
        mode = conditional_mode(model, eta_obj, likelihood, init=start)
        return mode.xi, mode.chol, mode.logdet_hessian

    prior = model.latent_prior(eta)
    center, chol, logdet_h = conditional_gaussian(eta, None)
    xi = center.copy()
    ll_cur = loglik(xi)
    lp_cur = prior.logpdf(xi)
    hyper_cur = hyper_logdensity(t_vec, eta) if not fix_eta else 0.0

    def gauss_logq(x: np.ndarray) -> float:
        # N(center, H^-1) log density up to the shared constant; H = L L'
        delta = x - center
        quad = float(np.sum((chol.T @ delta) ** 2))
        return 0.5 * logdet_h - 0.5 * quad

    s_lat = 1.0
    s_hyp = 0.3
    acc_lat = acc_hyp = 0
    n_lat = n_hyp = 0
    kept_xi = []
    kept_eta = []

    for it in range(iterations):
        adapting = it < burn_in
        gamma = (it + 1) ** -0.6

        # latent block: mixture of a preconditioned random walk and a
        # mode-centered independence proposal (Hastings-corrected)
        use_independence = rng.uniform() < _INDEPENDENCE_FRACTION
        z = rng.standard_normal(model.free_dim)
        step = sla.solve_triangular(chol, z, lower=True, trans="T")
        if use_independence:
            cand = center + step
        else:
            cand = xi + s_lat * step
        ll_new = loglik(cand)
        lp_new = prior.logpdf(cand)
        log_ratio = (ll_new + lp_new) - (ll_cur + lp_cur)
        if use_independence:
            log_ratio += gauss_logq(xi) - gauss_logq(cand)
        n_lat += 1
        accepted = np.isfinite(log_ratio) and np.log(rng.uniform()) < log_ratio
        if accepted:
            xi, ll_cur, lp_cur = cand, ll_new, lp_new
            acc_lat += 1
        if adapting and not use_independence:
            s_lat = float(np.exp(np.log(s_lat) + gamma * ((1.0 if accepted else 0.0) - _TARGET_ACCEPT)))

        # hyperparameter block on the transformed scale
        if not fix_eta:
            t_cand = t_vec + s_hyp * rng.standard_normal(n_hyper)
            try:
                eta_cand = space.from_vector(t_cand)
                prior_cand = model.latent_prior(eta_cand)
                lp_cand = prior_cand.logpdf(xi)
                hyper_cand = hyper_logdensity(t_cand, eta_cand)
                log_ratio = (lp_cand + hyper_cand) - (lp_cur + hyper_cur)
            except (ValueError, sla.LinAlgError):
                log_ratio = -np.inf
            n_hyp += 1
            accepted = np.isfinite(log_ratio) and np.log(rng.uniform()) < log_ratio
            if accepted:
                t_vec, eta = t_cand, eta_cand
                prior, lp_cur, hyper_cur = prior_cand, lp_cand, hyper_cand
                acc_hyp += 1
                try:
                    center, chol, logdet_h = conditional_gaussian(eta, xi)
                except ModeError:
                    pass
            if adapting:
                s_hyp = float(np.exp(np.log(s_hyp) + gamma * ((1.0 if accepted else 0.0) - _TARGET_ACCEPT)))

        if it >= burn_in and (it - burn_in) % thin == 0:
            kept_xi.append(xi.copy())
            kept_eta.append(space.natural(eta))

    xi_samples = np.asarray(kept_xi)
    eta_samples = np.asarray(kept_eta)
    rate_lat = acc_lat / max(n_lat, 1)
    rate_hyp = acc_hyp / max(n_hyp, 1) if n_hyp else float("nan")
    logger.info(
        "mcmc_oracle: %d kept draws, latent acceptance %.3f, hyper acceptance %.3f",
        xi_samples.shape[0],
        rate_lat,
        rate_hyp,
    )
    ess = np.array([effective_sample_size(xi_samples[:, j]) for j in range(model.free_dim)])
    return McmcResult(
        xi_samples=xi_samples,
        eta_samples=eta_samples,
        hyper_names=tuple(f"{kind}:{block}" for kind, block in space.layout),
        accept_latent=float(rate_lat),
        accept_hyper=float(rate_hyp),
        ess=ess,
        mixing_ok=bool(ess.min() >= _ESS_THRESHOLD) if ess.size else True,
    )


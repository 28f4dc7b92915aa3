import numpy as np

from stratapc.core import GridSpec
from stratapc.data import simulate_dataset
from stratapc.inference import (
    assemble_model,
    conditional_mode,
    optimize_hyperparameters,
    sample_posterior,
)
from stratapc.mcmc import effective_sample_size, mcmc_oracle
from tests._stand_ins import GaussianPseudoLikelihood


class TestEffectiveSampleSize:
    def test_iid_chain_near_n(self, rng):
        x = rng.standard_normal(4000)
        ess = effective_sample_size(x)
        assert ess > 2500

    def test_correlated_chain_much_smaller(self, rng):
        n = 4000
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = 0.95 * x[i - 1] + rng.standard_normal()
        assert effective_sample_size(x) < n / 10

    def test_constant_chain(self):
        assert effective_sample_size(np.ones(50)) == 50.0


class TestGaussianConjugate:
    def test_posterior_matches_closed_form(self, rng):
        grid = GridSpec(4, 4)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.prior_model.default()
        prior = model.latent_prior(eta)
        sigma2 = 0.25
        z = rng.normal(size=model.n_cells)
        lik = GaussianPseudoLikelihood(z, sigma2)

        result = mcmc_oracle(
            model,
            data=lik,
            iterations=12000,
            burn_in=3000,
            seed=1,
            thin=3,
            fix_eta=True,
            init_eta=eta,
        )
        # closed-form Gaussian posterior
        design = np.zeros((model.n_cells, model.free_dim))
        cells = grid.n_cells
        for r in range(model.n_strata):
            design[r * cells : (r + 1) * cells, model.col_index[r]] = model.parts.matrix
        post_prec = prior.precision + design.T @ design / sigma2
        post_cov = np.linalg.inv(post_prec)
        post_mean = post_cov @ (prior.precision @ prior.mean + design.T @ z / sigma2)

        mc_mean = result.xi_samples.mean(axis=0)
        sd = np.sqrt(np.diag(post_cov))
        ess = np.maximum(result.ess, 10.0)
        tol = 5.0 * sd / np.sqrt(ess) + 0.01
        assert np.all(np.abs(mc_mean - post_mean) < tol)
        mc_sd = result.xi_samples.std(axis=0)
        assert np.all(np.abs(mc_sd - sd) < 0.35 * sd + 0.01)


class TestPoissonCrossMethod:
    def test_latent_means_agree_with_plugin(self):
        grid = GridSpec(5, 5)
        ds, _ = simulate_dataset(
            grid, 2, pattern="M5", structure="independent", exposure=1e5, seed=31
        )
        model = assemble_model(grid, 2, "M5", "independent")
        opt = optimize_hyperparameters(model, ds, budget=600)
        fit = sample_posterior(model, opt.eta_hat, ds, n=4000, seed=2, mode=opt.mode)

        result = mcmc_oracle(model, ds, iterations=24000, burn_in=6000, seed=3, thin=3)
        plugin_logrates = fit.lograte_samples.mean(axis=0)
        mcmc_logrates = model.logrates_samples(result.xi_samples).mean(axis=0)
        assert np.max(np.abs(plugin_logrates - mcmc_logrates)) < 0.02

    def test_doubling_iterations_stable(self):
        grid = GridSpec(4, 4)
        ds, _ = simulate_dataset(
            grid, 2, pattern="M5", structure="independent", exposure=1e4, seed=17
        )
        model = assemble_model(grid, 2, "M5", "independent")
        short = mcmc_oracle(model, ds, iterations=8000, burn_in=2000, seed=5, thin=2)
        long = mcmc_oracle(model, ds, iterations=16000, burn_in=2000, seed=5, thin=2)
        mu_short = model.logrates_samples(short.xi_samples).mean(axis=0)
        mu_long = model.logrates_samples(long.xi_samples).mean(axis=0)
        assert np.max(np.abs(mu_short - mu_long)) < 0.03

    def test_returns_diagnostics(self):
        grid = GridSpec(4, 4)
        ds, _ = simulate_dataset(
            grid, 2, pattern="M5", structure="independent", exposure=1e4, seed=9
        )
        model = assemble_model(grid, 2, "M5", "independent")
        result = mcmc_oracle(model, ds, iterations=3000, burn_in=1000, seed=7)
        assert 0.05 < result.accept_latent < 0.7
        assert 0.05 < result.accept_hyper < 0.8
        assert result.ess.shape == (model.free_dim,)
        assert result.eta_samples.shape[1] == len(result.hyper_names)

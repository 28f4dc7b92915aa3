import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import stats as sstats

from stratapc.core import GridSpec
from stratapc.covariance import (
    AdjacencyGraph,
    CrossStrataStructure,
    bym2_corr,
    exchangeable_corr,
    icar_precision,
    scaled_generalized_inverse,
)
from stratapc.data import simulate_dataset
from stratapc.inference import (
    BLOCKS,
    HyperParameters,
    ModeError,
    MortalityDataset,
    PoissonLikelihood,
    SharingPattern,
    assemble_model,
    conditional_mode,
    fit_model,
    flatten_cells,
    laplace_log_marginal,
    optimize_hyperparameters,
    pattern_names,
    poisson_loglik,
    sample_posterior,
    unflatten_cells,
)
from stratapc.mcmc import mcmc_oracle
from tests._stand_ins import GaussianPseudoLikelihood


def toy_dataset(rng, grid=None, n_strata=2, exposure=1e4, pattern="M5"):
    grid = grid or GridSpec(5, 5)
    ds, truth = simulate_dataset(
        grid, n_strata, pattern=pattern, structure="independent",
        exposure=exposure, seed=int(rng.integers(2**31)),
    )
    return ds, truth


class TestSharingPattern:
    def test_table(self):
        assert SharingPattern.from_name("M1").shared == {"baseline", "age", "period", "cohort"}
        assert SharingPattern.from_name("M4").shared == {"baseline", "age"}
        assert SharingPattern.from_name("M6").shared == frozenset()

    def test_unknown(self):
        with pytest.raises(ValueError):
            SharingPattern.from_name("M7")

    def test_mismatched_set(self):
        with pytest.raises(ValueError):
            SharingPattern(name="M5", shared=frozenset({"age"}))


class TestAssembly:
    def test_m1_free_dim(self):
        model = assemble_model(GridSpec(5, 7), 6, "M1", "independent")
        assert model.free_dim == 2 * (5 + 7) - 4

    def test_m6_application_dims(self):
        model = assemble_model(GridSpec(17, 18), 25, "M6", "exchangeable")
        assert model.free_dim == 25 * 66

    def test_m4_block_arithmetic(self):
        model = assemble_model(GridSpec(5, 5), 3, "M4", "independent")
        # shared baseline 3 + shared age 3 + per-stratum period 3*3 + cohort 3*7
        assert model.free_dim == 3 + 3 + 9 + 21

    def test_m1_rejects_structures(self):
        with pytest.raises(ValueError, match="independent"):
            assemble_model(GridSpec(5, 5), 3, "M1", "exchangeable")

    def test_bym2_needs_connected_graph(self):
        graph = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
        structure = CrossStrataStructure(kind="bym2", graph=graph)
        with pytest.raises(Exception, match="connected"):
            assemble_model(GridSpec(5, 5), 4, "M6", structure)

    def test_bym2_graph_size_mismatch(self):
        graph = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
        structure = CrossStrataStructure(kind="bym2", graph=graph)
        with pytest.raises(ValueError, match="strata"):
            assemble_model(GridSpec(5, 5), 4, "M6", structure)

    def test_design_matches_per_stratum_application(self, rng):
        model = assemble_model(GridSpec(4, 5), 3, "M4", "independent")
        xi = rng.normal(size=model.free_dim)
        mu = model.logrates_matrix(xi)
        m = model.parts.matrix
        for r in range(3):
            assert np.allclose(mu[r], m @ xi[model.col_index[r]], atol=1e-12)

    def test_shared_blocks_identical_across_strata(self, rng):
        model = assemble_model(GridSpec(4, 5), 3, "M4", "independent")
        # baseline and age columns map to the same free indices for all strata
        assert np.array_equal(model.col_index[0][:3], model.col_index[2][:3])
        assert np.array_equal(model.col_index[0][3:5], model.col_index[1][3:5])
        # period and cohort columns differ
        assert not np.array_equal(model.col_index[0][5:], model.col_index[1][5:])


class TestFlatten:
    def test_round_trip(self, rng):
        arr = rng.normal(size=(3, 4, 5))
        grid = GridSpec(4, 5)
        assert np.array_equal(unflatten_cells(flatten_cells(arr), 3, grid), arr)


class TestPoissonLoglik:
    def test_zero_counts_zero_latent(self):
        grid = GridSpec(5, 5)
        ds = MortalityDataset.from_arrays(
            np.zeros((2, 5, 5)), np.full((2, 5, 5), 7.0)
        )
        model = assemble_model(grid, 2, "M5", "independent")
        ll, grad, w = poisson_loglik(np.zeros(model.free_dim), model, ds)
        assert ll == pytest.approx(-2 * 25 * 7.0, rel=1e-12)

    def test_single_cell_at_its_mean(self):
        # one observed cell with y = 5, N = 100, mu = log(0.05)
        grid = GridSpec(3, 3)
        counts = np.zeros((1, 3, 3))
        counts[0, 0, 0] = 5
        expo = np.full((1, 3, 3), 100.0)
        observed = np.zeros((1, 3, 3), dtype=bool)
        observed[0, 0, 0] = True
        ds = MortalityDataset.from_arrays(counts, expo, observed=observed)
        model = assemble_model(grid, 1, "M1", "independent")
        lik = PoissonLikelihood(ds)
        mu = np.zeros(9)
        mu[0] = np.log(0.05)
        ll, _, _ = lik.value_grad_weights(mu)
        expected = 5 * np.log(5.0) - 5.0 - np.log(float(math.factorial(5)))
        assert ll == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_central_differences(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2, exposure=500.0)
        model = assemble_model(grid, 2, "M5", "independent")
        xi = rng.normal(scale=0.05, size=model.free_dim)
        xi[:3] = [-4.0, 0.1, -0.05]
        ll, grad, _ = poisson_loglik(xi, model, ds)
        h = 1e-6
        for j in rng.choice(model.free_dim, size=8, replace=False):
            e = np.zeros_like(xi)
            e[j] = h
            lp, _, _ = poisson_loglik(xi + e, model, ds)
            lm, _, _ = poisson_loglik(xi - e, model, ds)
            fd = (lp - lm) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_hessian_quadratic_form_matches_second_differences(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2, exposure=500.0)
        model = assemble_model(grid, 2, "M5", "independent")
        lik = PoissonLikelihood(ds)
        xi = np.zeros(model.free_dim)
        xi[:3] = [-4.0, 0.1, -0.05]
        _, _, w = lik.value_grad_weights(model.logrates_flat(xi))
        hessian = model.dense_gram(model.weighted_gram(w))
        h = 1e-4
        for _ in range(5):
            v = rng.normal(size=model.free_dim)
            v /= np.linalg.norm(v)
            lp, _, _ = poisson_loglik(xi + h * v, model, ds)
            l0, _, _ = poisson_loglik(xi, model, ds)
            lm, _, _ = poisson_loglik(xi - h * v, model, ds)
            fd = -(lp - 2 * l0 + lm) / h**2
            quad = v @ hessian @ v
            assert quad == pytest.approx(fd, rel=1e-4, abs=1e-4)

    def test_missing_cells_contribute_nothing(self, rng):
        grid = GridSpec(4, 4)
        counts = rng.poisson(5.0, size=(2, 4, 4)).astype(float)
        expo = np.full((2, 4, 4), 100.0)
        observed = np.ones((2, 4, 4), dtype=bool)
        observed[0, 1, 2] = observed[1, 3, 0] = False
        ds_masked = MortalityDataset.from_arrays(
            np.where(observed, counts, 0), np.where(observed, expo, 0), observed=observed
        )
        model = assemble_model(grid, 2, "M6", "independent")
        xi = rng.normal(scale=0.1, size=model.free_dim)
        ll, grad, w = poisson_loglik(xi, model, ds_masked)
        flat_obs = flatten_cells(observed)
        assert np.all(w[~flat_obs] == 0.0)
        # physically deleting the same cells gives the identical likelihood
        counts2 = counts.copy()
        counts2[~observed] = 0
        ds_same = MortalityDataset.from_arrays(
            counts2, np.where(observed, expo, 0), observed=observed
        )
        ll2, grad2, _ = poisson_loglik(xi, model, ds_same)
        assert ll == pytest.approx(ll2, rel=1e-13)
        assert np.allclose(grad, grad2, atol=1e-12)


def ring_graph(n_strata):
    return AdjacencyGraph.from_edges(n_strata, [(i, (i + 1) % n_strata) for i in range(n_strata)])


def prior_candidates():
    """Every grid candidate at R = 3 and 5 (bym2 on a ring), plus M1 at R = 1."""
    out = [(1, "M1", "independent")]
    for r in (3, 5):
        for name in pattern_names():
            kinds = ("independent",) if name == "M1" else ("independent", "exchangeable", "bym2")
            out.extend((r, name, kind) for kind in kinds)
    return out


def prior_model(n_strata, pattern, kind, grid=None):
    graph = ring_graph(n_strata) if kind == "bym2" else None
    structure = CrossStrataStructure(kind=kind, graph=graph)
    return assemble_model(grid or GridSpec(5, 6), n_strata, pattern, structure)


def off_default_eta(model):
    """Hyperparameters away from the defaults, so every rho is nonzero."""
    x = model.eta_to_vector(model.default_eta())
    x = x + np.random.default_rng(3).normal(scale=0.7, size=x.shape)
    return model.eta_from_vector(x)


def cross_strata_cov(model, rho):
    kind, r = model.structure.kind, model.n_strata
    if kind == "exchangeable":
        return exchangeable_corr(r, rho)
    if kind == "bym2":
        return bym2_corr(rho, scaled_generalized_inverse(icar_precision(model.structure.graph)))
    return np.eye(r)


class TestLatentPrior:
    @pytest.mark.parametrize(
        "n_strata,pattern,kind", prior_candidates(), ids=str
    )
    def test_blocks_are_kronecker_precisions(self, n_strata, pattern, kind):
        model = prior_model(n_strata, pattern, kind)
        eta = off_default_eta(model)
        prior = model.latent_prior(eta)
        blocks, means = [], []
        for name in BLOCKS:
            _, length, shared = model.blocks[name]
            if shared and name == "baseline":
                baseline = model.prior_config.baseline_mean
                blocks.append(np.diag(1.0 / baseline.variances))
                means.append(baseline.mean)
            elif shared:
                blocks.append(eta.taus[name] * np.eye(length))
                means.append(np.zeros(length))
            else:
                sigma = cross_strata_cov(model, eta.rhos.get(name))
                blocks.append(np.kron(np.linalg.inv(sigma), eta.taus[name] * np.eye(length)))
                means.append(
                    np.tile(eta.nu0, n_strata) if name == "baseline"
                    else np.zeros(length * n_strata)
                )
        expected = sla.block_diag(*blocks)
        scale = np.max(np.abs(expected))
        assert np.allclose(prior.precision, expected, rtol=1e-10, atol=1e-12 * scale)
        assert np.array_equal(prior.mean, np.concatenate(means))

    @pytest.mark.parametrize(
        "n_strata,pattern,kind", prior_candidates(), ids=str
    )
    def test_logdet_matches_dense(self, n_strata, pattern, kind):
        model = prior_model(n_strata, pattern, kind)
        prior = model.latent_prior(off_default_eta(model))
        sign, logdet = np.linalg.slogdet(prior.precision)
        assert sign == 1.0
        assert prior.logdet == pytest.approx(logdet, rel=1e-10, abs=1e-9)

    @pytest.mark.parametrize("kind", ["exchangeable", "bym2"])
    def test_draw_covariance_matches_precision(self, kind):
        model = prior_model(3, "M6", kind, grid=GridSpec(4, 4))
        eta = HyperParameters(
            taus={b: 1.0 for b in BLOCKS},
            rhos={b: 0.6 for b in BLOCKS},
            nu0=np.array([-4.0, 0.5, -0.5]),
        )
        prior = model.latent_prior(eta)
        rng = np.random.default_rng(11)
        draws = np.array([model.sample_latent_prior(eta, rng) for _ in range(20000)])
        target = np.linalg.inv(prior.precision)
        sd = np.sqrt(np.diag(target))
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - target) / np.outer(sd, sd)) < 0.05
        assert np.max(np.abs(draws.mean(axis=0) - prior.mean) / sd) < 0.05


class TestConditionalMode:
    def test_prior_dominated_limit_returns_prior_mean(self):
        grid = GridSpec(5, 5)
        observed = np.zeros((2, 5, 5), dtype=bool)
        ds = MortalityDataset.from_arrays(
            np.zeros((2, 5, 5)), np.zeros((2, 5, 5)), observed=observed
        )
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.default_eta()
        mode = conditional_mode(model, eta, ds)
        prior = model.latent_prior(eta)
        assert np.allclose(mode.xi, prior.mean, atol=1e-8)

    def test_matches_unpenalized_glm_oracle(self, rng):
        # near-zero precision priors reduce the mode to the Poisson MLE
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=1, exposure=1e5, pattern="M5")
        ds = MortalityDataset.from_arrays(
            ds.counts[:1], ds.exposures[:1], strata=("s0",),
        )
        model = assemble_model(grid, 1, "M1", "independent")
        eta = HyperParameters(taus={b: 1e-10 for b in model.prior_model.tau_blocks})
        # flatten the informative baseline prior too
        from stratapc.priors import BaselineMeanPrior, PriorConfig

        flat = PriorConfig(
            baseline_mean=BaselineMeanPrior(
                mean=np.zeros(3), variances=np.full(3, 1e10)
            )
        )
        model = assemble_model(grid, 1, "M1", "independent", prior_config=flat)
        mode = conditional_mode(model, eta, ds)

        # independent IRLS oracle on the same design
        m = model.parts.matrix
        y = flatten_cells(ds.counts)
        n = flatten_cells(ds.exposures)
        beta = np.zeros(m.shape[1])
        beta[0] = np.log(y.sum() / n.sum())
        for _ in range(50):
            mu = m @ beta
            lam = n * np.exp(mu)
            grad = m.T @ (y - lam)
            hess = m.T @ (lam[:, None] * m)
            step = np.linalg.solve(hess, grad)
            beta = beta + step
            if np.max(np.abs(grad)) < 1e-9:
                break
        assert np.allclose(mode.xi, beta, atol=1e-6)

    def test_large_count_recovery(self, rng):
        # fixed moderate rates and huge exposures: the mode reproduces the
        # generating coordinates to MLE accuracy
        grid = GridSpec(5, 5)
        model = assemble_model(grid, 1, "M1", "independent")
        xi_true = np.concatenate(
            [[-1.0, 0.05, -0.02], rng.normal(scale=0.03, size=model.free_dim - 3)]
        )
        mu = model.logrates_flat(xi_true)
        n = np.full(mu.shape, 1e8)
        y = rng.poisson(n * np.exp(mu)).astype(float)
        ds = MortalityDataset.from_arrays(
            unflatten_cells(y, 1, grid), unflatten_cells(n, 1, grid)
        )
        eta = HyperParameters(taus={b: 100.0 for b in model.prior_model.tau_blocks})
        mode = conditional_mode(model, eta, ds)
        assert np.max(np.abs(mode.xi - xi_true)) < 1e-3

    def test_nonconvergence_raises_with_last_iterate(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        with pytest.raises(ModeError) as err:
            conditional_mode(model, model.default_eta(), ds, max_iter=1)
        assert err.value.last is not None


class TestLaplace:
    def test_gaussian_conjugate_exactness(self, rng):
        # with a Gaussian pseudo-likelihood the Laplace approximation is the
        # exact marginal; compare against the closed form
        grid = GridSpec(4, 4)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.default_eta()
        prior = model.latent_prior(eta)
        sigma2 = 0.3
        z_cube = rng.normal(size=(2, 4, 4))
        lik = GaussianPseudoLikelihood(flatten_cells(z_cube), sigma2)
        value = laplace_log_marginal(model, eta, data=lik)

        design = np.zeros((model.n_cells, model.free_dim))
        m = model.parts.matrix
        cells = grid.n_cells
        for r in range(model.n_strata):
            design[r * cells : (r + 1) * cells, model.col_index[r]] = m
        prior_cov = np.linalg.inv(prior.precision)
        marg_cov = sigma2 * np.eye(model.n_cells) + design @ prior_cov @ design.T
        closed = sstats.multivariate_normal(
            mean=design @ prior.mean, cov=marg_cov
        ).logpdf(flatten_cells(z_cube))
        closed += model.prior_model.logpdf(eta)
        assert value == pytest.approx(closed, abs=1e-8)

    def test_better_fit_gives_larger_value(self, rng):
        grid = GridSpec(4, 4)
        ds, truth = toy_dataset(rng, grid=grid, n_strata=2, exposure=1e5)
        model = assemble_model(grid, 2, "M5", "independent")
        good = truth.eta
        bad = HyperParameters(
            taus={b: 1e8 for b in model.prior_model.tau_blocks}, rhos={}
        )
        # compare the data part only: same hyperprior factor is added to both,
        # so evaluate at equal prior density by construction is impossible;
        # instead check the full objective orders them as expected
        v_good = laplace_log_marginal(model, good, ds)
        v_bad = laplace_log_marginal(model, bad, ds)
        assert v_good > v_bad


class TestOptimize:
    def test_one_dimensional_tau_recovery(self, rng):
        grid = GridSpec(8, 8)
        model = assemble_model(grid, 1, "M1", "independent")
        sd = {"age": 0.3, "period": 0.3, "cohort": 0.3}
        eta_true = HyperParameters(taus={b: 1.0 / sd[b] ** 2 for b in sd})
        xi = model.sample_latent_prior(eta_true, np.random.default_rng(5))
        mu = model.logrates_flat(xi)
        n = np.full(mu.shape, 1e6)
        y = np.random.default_rng(6).poisson(n * np.exp(mu)).astype(float)
        ds = MortalityDataset.from_arrays(
            unflatten_cells(y, 1, grid), unflatten_cells(n, 1, grid)
        )
        opt = optimize_hyperparameters(model, ds, budget=800)
        # curvature vectors have ~6-17 entries per block; log tau is only
        # loosely determined, but should land in the right neighborhood
        err = abs(np.log(opt.eta_hat.taus["cohort"]) - np.log(eta_true.taus["cohort"]))
        assert err < 1.5
        assert opt.objective >= laplace_log_marginal(model, model.default_eta(), ds)

    def test_objective_at_least_init(self, rng):
        grid = GridSpec(5, 5)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        init = model.default_eta()
        opt = optimize_hyperparameters(model, ds, init=init, budget=300)
        assert opt.objective >= laplace_log_marginal(model, init, ds) - 1e-9

    def test_stratum_permutation_symmetry(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=3, exposure=1e4, pattern="M5")
        model = assemble_model(grid, 3, "M5", "exchangeable")
        opt = optimize_hyperparameters(model, ds, budget=600)
        perm = [2, 0, 1]
        ds_perm = MortalityDataset.from_arrays(
            ds.counts[perm], ds.exposures[perm], observed=ds.observed[perm]
        )
        opt_perm = optimize_hyperparameters(model, ds_perm, budget=600)
        assert opt.objective == pytest.approx(opt_perm.objective, abs=1e-4)

    def test_deterministic(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        a = optimize_hyperparameters(model, ds, budget=200)
        b = optimize_hyperparameters(model, ds, budget=200)
        assert a.objective == b.objective
        assert a.eta_hat.taus == b.eta_hat.taus


class TestSamplePosterior:
    def test_moments_match_gaussian(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2, exposure=1e4)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.default_eta()
        mode = conditional_mode(model, eta, ds)
        fit = sample_posterior(model, eta, ds, n=10000, seed=9, mode=mode)
        cov = np.linalg.inv(mode.hessian)
        sd = np.sqrt(np.diag(cov))
        mc_err = 3 * sd / np.sqrt(fit.n_samples)
        assert np.all(np.abs(fit.samples.mean(axis=0) - mode.xi) <= 4 * mc_err + 1e-12)
        sample_cov = np.cov(fit.samples.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.1

    def test_logrates_are_linear_map_of_samples(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        fit = fit_model(model, ds, n_samples=50, seed=3, budget=150)
        recon = model.logrates_samples(fit.samples)
        assert np.array_equal(recon, fit.lograte_samples)

    def test_lograte_samples_computed_on_read(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.default_eta()
        fit = sample_posterior(model, eta, ds, n=60, seed=11)
        again = sample_posterior(model, eta, ds, n=60, seed=11)
        # what a fit used to store: the linear map of its seeded draws
        stored = model.logrates_samples(again.samples)
        first = fit.lograte_samples
        assert np.array_equal(first, stored)
        per_draw = np.stack([model.logrates_flat(xi) for xi in fit.samples])
        assert np.allclose(first, per_draw, rtol=1e-12, atol=1e-12)
        first[:] = 0.0  # each read is a fresh array, not a view into the fit
        assert np.array_equal(fit.lograte_samples, stored)

    def test_fit_stores_no_lograte_matrix(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        fit = sample_posterior(model, model.default_eta(), ds, n=60, seed=11)
        lograte_shape = (fit.n_samples, model.n_cells)
        assert fit.lograte_samples.shape == lograte_shape
        for field in dataclasses.fields(fit):
            value = getattr(fit, field.name)
            assert not (isinstance(value, np.ndarray) and value.shape == lograte_shape), field.name

    def test_seed_reproducibility(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.default_eta()
        a = sample_posterior(model, eta, ds, n=100, seed=42)
        b = sample_posterior(model, eta, ds, n=100, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_eta_grid_mixture(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        opt = optimize_hyperparameters(model, ds, budget=200)
        fit = sample_posterior(
            model, opt.eta_hat, ds, n=500, seed=4, mode=opt.mode,
            log_marginal=opt.objective, eta_grid=True,
        )
        assert fit.samples.shape == (500, model.free_dim)
        weights = np.array([w for _, w in fit.eta_grid])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def _optimize_summary(model, eta, data):
    opt = optimize_hyperparameters(model, data, init=eta, budget=12)
    return np.append(model.eta_to_vector(opt.eta_hat), [opt.objective, opt.n_evaluations])


# each entry point called with ``data`` as its one data argument
DATA_ENTRY_POINTS = {
    "conditional_mode": lambda model, eta, data: conditional_mode(model, eta, data).xi,
    "laplace_log_marginal": laplace_log_marginal,
    "optimize_hyperparameters": _optimize_summary,
    "sample_posterior": lambda model, eta, data: sample_posterior(
        model, eta, data, n=40, seed=3
    ).samples,
    "mcmc_oracle": lambda model, eta, data: mcmc_oracle(
        model, data, iterations=40, burn_in=10, seed=4, thin=2, init_eta=eta
    ).xi_samples,
}


class TestDataArgument:
    """``data`` is a dataset or a likelihood already built from it, and
    both give the same bits; anything else is a TypeError."""

    @pytest.mark.filterwarnings("ignore:hyperparameter search stopped")
    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    def test_dataset_and_its_likelihood_agree(self, entry, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "exchangeable")
        eta = model.default_eta()
        call = DATA_ENTRY_POINTS[entry]
        assert np.array_equal(call(model, eta, ds), call(model, eta, PoissonLikelihood(ds)))

    @pytest.mark.parametrize("bad", [None, {"counts": np.ones((2, 4, 4))}], ids=["None", "dict"])
    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    def test_other_data_is_a_type_error(self, entry, bad):
        model = assemble_model(GridSpec(4, 4), 2, "M5", "independent")
        with pytest.raises(TypeError, match="data must be a MortalityDataset"):
            DATA_ENTRY_POINTS[entry](model, model.default_eta(), bad)

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import stats as sstats

from stratapc import inference
from stratapc.core import (
    BaselineSpec,
    GridSpec,
    default_baseline_spec,
    design_parts,
    flatten_surface,
    unflatten_surface,
)
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
    laplace_log_marginal,
    optimize_hyperparameters,
    pattern_names,
    poisson_loglik,
    sample_posterior,
)
from stratapc.mcmc import mcmc_oracle
from stratapc.priors import sample_prior_predictive
from stratapc.selection import pointwise_loglik
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
        with pytest.raises(ValueError, match="'m4'"):
            SharingPattern("m4")  # from_name is the case-insensitive constructor


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

    def test_three_points_baseline_is_rejected(self):
        # the baseline prior is stated in point-plus-two-slopes coordinates
        spec = default_baseline_spec(GridSpec(5, 5), form="three-points")
        with pytest.raises(ValueError, match="three-points"):
            assemble_model(GridSpec(5, 5), 3, "M4", "independent", baseline_spec=spec)

    def test_baseline_spec_default_form_fits(self, rng):
        grid = GridSpec(5, 5)
        ds, _ = toy_dataset(rng, grid, n_strata=2, pattern="M4")
        spec = BaselineSpec("age-cohort", ((3, 3), (4, 3), (3, 4)))
        model = assemble_model(grid, 2, "M4", "independent", baseline_spec=spec)
        fit = fit_model(model, ds, n_samples=50, seed=1, budget=300)
        assert fit.converged
        assert model.baseline_spec.form == "point-plus-two-slopes"
        assert np.isfinite(fit.log_marginal)
        assert np.all(np.isfinite(fit.samples))

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


# a skewed triple: B has determinant 3, so B^-1 is not exact in binary
SKEWED = BaselineSpec("age-period", ((1, 1), (3, 2), (2, 3)))


def sparse_dataset(n_strata, grid):
    """A small-exposure set with zero counts and a few missing cells."""
    ds, _ = simulate_dataset(
        grid, n_strata, pattern="M4", structure="exchangeable", exposure=300.0, seed=11
    )
    observed = ds.observed.copy()
    observed[0, 1, 2] = observed[n_strata - 1, 3, 0] = observed[1, 0, 4] = False
    counts = np.where(observed, ds.counts, np.nan)
    return MortalityDataset(counts, ds.exposures, observed, grid, ds.strata)


def perfbench_surface():
    """The 17x18, R = 5 surface the end-to-end benchmark fits: counts drawn
    at seed 8 from the exchangeable M4 truth simulated at seed 8."""
    grid = GridSpec(n_age=17, n_period=18, interval_width=1.0)
    surface, truth = simulate_dataset(
        grid, 5, pattern="M4", structure="exchangeable", exposure=1e5, seed=8
    )
    counts = np.random.default_rng(8).poisson(surface.exposures * np.exp(truth.logrates))
    return MortalityDataset(
        counts.astype(float), surface.exposures, surface.observed, grid, surface.strata
    )


class TestDefaultInit:
    @pytest.mark.parametrize("pattern", ["M4", "M5", "M6"])
    @pytest.mark.parametrize("kind", ["independent", "exchangeable", "bym2"])
    def test_start_solves_the_dense_normal_equations(self, pattern, kind):
        # (M'WM + Q) xi = M'W z + Q m, W = y + 1/2 and z = log(y + 1/2) - log N
        # on the observed cells
        grid = GridSpec(5, 6)
        ds = sparse_dataset(4, grid)
        lik = PoissonLikelihood(ds)
        assert np.any(lik.y[lik.observed] == 0) and not lik.observed.all()
        model = prior_model(4, pattern, kind, grid=grid)
        prior = model.latent_prior(off_default_eta(model))
        xi = model.default_init(lik, prior)
        w = np.where(lik.observed, lik.y + 0.5, 0.0)
        z = np.zeros_like(w)
        z[lik.observed] = np.log(w[lik.observed]) - np.log(lik.exposure[lik.observed])
        h = model.dense_gram(model.weighted_gram(w)) + prior.precision
        rhs = model.design_transpose_apply(w * z) + prior.precision @ prior.mean
        expected = np.linalg.solve(h, rhs)
        assert np.max(np.abs(xi - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_other_likelihoods_start_at_the_prior_mean(self, rng):
        model = assemble_model(GridSpec(4, 4), 2, "M6", "exchangeable")
        prior = model.latent_prior(off_default_eta(model))
        lik = GaussianPseudoLikelihood(rng.normal(size=model.n_cells), 0.3)
        assert np.array_equal(model.default_init(lik, prior), prior.mean)

    def test_cold_mode_takes_few_newton_iterations(self):
        # a crude-rate start (the baseline level alone) takes 11-12 here
        ds = perfbench_surface()
        candidates = [(p, k) for r, p, k in prior_candidates() if r == 5]
        assert len(candidates) == 16
        for pattern, kind in candidates:
            model = prior_model(5, pattern, kind, grid=ds.grid)
            mode = conditional_mode(model, model.prior_model.default(), data=ds)
            assert mode.n_iter <= 6, (pattern, kind, mode.n_iter)


class TestWeightedGram:
    """``weighted_gram`` builds each stratum's Gram as F' U_r F from the
    design's factorization M = Y F by effect."""

    @pytest.mark.parametrize("shape", [(17, 18), (5, 7), (6, 5), (4, 9), (3, 3)])
    @pytest.mark.parametrize("form", ["three-points", "point-plus-two-slopes"])
    def test_loadings_reproduce_the_design(self, shape, form):
        grid = GridSpec(*shape)
        parts = design_parts(grid, default_baseline_spec(grid, form=form))
        d = grid.n_age + grid.n_period + grid.n_cohort
        assert parts.loadings.shape == (d, grid.n_canonical)
        i, j = np.meshgrid(np.arange(grid.n_age), np.arange(grid.n_period))  # vec order
        k = grid.n_age - 1 - i + j
        rows = np.column_stack([i.ravel(), grid.n_age + j.ravel(), grid.n_age + grid.n_period + k.ravel()])
        assert np.array_equal(parts.effect_rows, rows)
        y = np.zeros((grid.n_cells, d))
        np.put_along_axis(y, parts.effect_rows, 1.0, axis=1)
        assert np.array_equal(y @ parts.loadings, parts.matrix)

    def test_skewed_triple_loadings_match_to_rounding(self):
        grid = GridSpec(6, 5)
        parts = design_parts(grid, SKEWED)
        yf = parts.loadings[parts.effect_rows].sum(axis=1)
        assert np.max(np.abs(yf - parts.matrix)) <= 1e-13 * np.max(np.abs(parts.matrix))

    @pytest.mark.parametrize("n_strata", [1, 3, 25])
    @pytest.mark.parametrize("shape", [(17, 18), (5, 7), (6, 5)])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_matches_the_direct_product(self, shape, n_strata, skewed, rng):
        grid = GridSpec(*shape)
        spec = SKEWED if skewed else None
        model = assemble_model(grid, n_strata, "M6", "independent", baseline_spec=spec)
        if not skewed:  # odd ages anchor on an age-cohort triple, even on age-period
            assert model.baseline_spec.coordinates == ("age-cohort" if shape[0] % 2 else "age-period")
        m = model.parts.matrix
        w = np.exp(rng.uniform(0.0, 12.0, (n_strata, grid.n_cells)))
        w[rng.random(w.shape) < 0.2] = 0.0  # unobserved cells
        w[:, :2] = 1.0, np.exp(12.0)
        grams = model.weighted_gram(w.ravel())
        assert grams.shape == (n_strata, grid.n_canonical, grid.n_canonical)
        for r in range(n_strata):
            direct = m.T @ (w[r, :, None] * m)
            err = np.max(np.abs(grams[r] - direct)) / np.max(np.abs(direct))
            assert err <= 1e-13, (r, err)

    def test_unobserved_stratum_gives_a_zero_gram(self, rng):
        grid = GridSpec(5, 7)
        model = assemble_model(grid, 3, "M6", "independent")
        w = np.exp(rng.uniform(0.0, 12.0, (3, grid.n_cells)))
        w[1] = 0.0
        grams = model.weighted_gram(w.ravel())
        assert not np.any(grams[1])
        assert np.all(np.diag(grams[0]) > 0) and np.all(np.diag(grams[2]) > 0)


class TestFlatten:
    def test_round_trip(self, rng):
        arr = rng.normal(size=(3, 4, 5))
        grid = GridSpec(4, 5)
        assert np.array_equal(unflatten_surface(flatten_surface(arr), grid), arr)


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
        flat_obs = flatten_surface(observed).ravel()
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
    x = model.prior_model.to_vector(model.prior_model.default())
    x = x + np.random.default_rng(3).normal(scale=0.7, size=x.shape)
    return model.prior_model.from_vector(x)


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
                baseline = model.prior_model.baseline_mean
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
        eta = model.prior_model.default()
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
        y = flatten_surface(ds.counts).ravel()
        n = flatten_surface(ds.exposures).ravel()
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
            unflatten_surface(y[None], grid), unflatten_surface(n[None], grid)
        )
        eta = HyperParameters(taus={b: 100.0 for b in model.prior_model.tau_blocks})
        mode = conditional_mode(model, eta, ds)
        assert np.max(np.abs(mode.xi - xi_true)) < 1e-3

    def test_nonconvergence_raises_with_last_iterate(self, rng, monkeypatch):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        monkeypatch.setattr(inference, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(ModeError) as err:
            conditional_mode(model, model.prior_model.default(), ds)
        assert err.value.last is not None


class TestLaplace:
    def test_gaussian_conjugate_exactness(self, rng):
        # with a Gaussian pseudo-likelihood the Laplace approximation is the
        # exact marginal; compare against the closed form
        grid = GridSpec(4, 4)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.prior_model.default()
        prior = model.latent_prior(eta)
        sigma2 = 0.3
        z_cube = rng.normal(size=(2, 4, 4))
        lik = GaussianPseudoLikelihood(flatten_surface(z_cube).ravel(), sigma2)
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
        ).logpdf(flatten_surface(z_cube).ravel())
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
            unflatten_surface(y[None], grid), unflatten_surface(n[None], grid)
        )
        opt = optimize_hyperparameters(model, ds, budget=800)
        # curvature vectors have ~6-17 entries per block; log tau is only
        # loosely determined, but should land in the right neighborhood
        err = abs(np.log(opt.eta_hat.taus["cohort"]) - np.log(eta_true.taus["cohort"]))
        assert err < 1.5
        assert opt.objective >= laplace_log_marginal(model, model.prior_model.default(), ds)

    def test_objective_at_least_init(self, rng):
        grid = GridSpec(5, 5)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        init = model.prior_model.default()
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

    def test_budget_caps_laplace_evaluations(self, rng, monkeypatch):
        # the simplex's first vertex is the start, whose value the search holds
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        seen, real = [], inference._laplace_with_mode

        def spy(model, eta, *args, **kwargs):
            seen.append(model.prior_model.to_vector(eta))
            return real(model, eta, *args, **kwargs)

        monkeypatch.setattr(inference, "_laplace_with_mode", spy)
        with pytest.warns(RuntimeWarning, match="after 5 evaluations"):
            opt = optimize_hyperparameters(model, ds, budget=5)
        assert len(seen) == opt.n_evaluations == 5
        assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))

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
        eta = model.prior_model.default()
        mode = conditional_mode(model, eta, ds)
        fit = sample_posterior(model, eta, ds, n=10000, seed=9, mode=mode)
        cov = np.linalg.inv(mode.operator.dense())
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
        eta = model.prior_model.default()
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
        fit = sample_posterior(model, model.prior_model.default(), ds, n=60, seed=11)
        lograte_shape = (fit.n_samples, model.n_cells)
        assert fit.lograte_samples.shape == lograte_shape
        for field in dataclasses.fields(fit):
            value = getattr(fit, field.name)
            assert not (isinstance(value, np.ndarray) and value.shape == lograte_shape), field.name

    def test_seed_reproducibility(self, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        eta = model.prior_model.default()
        a = sample_posterior(model, eta, ds, n=100, seed=42)
        b = sample_posterior(model, eta, ds, n=100, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_log_marginal_is_the_laplace_value_at_the_mode(self, rng):
        """The reported log marginal is derived from the mode the draws are
        taken at: the search's best objective for a fit, the Laplace value
        at the given hyperparameters for ``sample_posterior``."""
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "independent")
        opt = optimize_hyperparameters(model, ds, budget=200)
        fit = fit_model(model, ds, n_samples=50, seed=4, budget=200)
        assert fit.log_marginal == opt.objective
        eta = model.prior_model.default()
        want = laplace_log_marginal(model, eta, ds)
        mode = conditional_mode(model, eta, ds)
        assert sample_posterior(model, eta, ds, n=50, seed=4, mode=mode).log_marginal == want
        assert sample_posterior(model, eta, ds, n=50, seed=4).log_marginal == want


def _optimize_summary(model, eta, data):
    opt = optimize_hyperparameters(model, data, init=eta, budget=12)
    return np.append(model.prior_model.to_vector(opt.eta_hat), [opt.objective, opt.n_evaluations])


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


# (R, A, T) of a model and of a dataset with as many cells, or on its grid
MISMATCHED_SHAPES = [((2, 4, 6), (2, 6, 4)), ((2, 4, 4), (3, 4, 4))]
MISMATCH_IDS = ["4x6-vs-6x4", "R2-vs-R3"]


def ones_dataset(shape):
    return MortalityDataset.from_arrays(np.ones(shape), np.full(shape, 1e3))


def mismatched(model_shape, data_shape, form="dataset"):
    """A model of ``model_shape`` and a dataset (or its likelihood) of
    ``data_shape``."""
    r, a, t = model_shape
    model = assemble_model(GridSpec(a, t), r, "M5", "independent")
    ds = ones_dataset(data_shape)
    return model, PoissonLikelihood(ds) if form == "likelihood" else ds


def shape_message(model_shape, data_shape):
    return re.escape(f"data has (R, A, T) = {data_shape}, the model {model_shape}")


def _pointwise_loglik(model, data):
    fitted_on = ones_dataset((model.n_strata, model.grid.n_age, model.grid.n_period))
    return pointwise_loglik(sample_posterior(model, model.prior_model.default(), fitted_on, n=2), data)


# the posterior and prior readers that take a dataset besides a model or fit
DATA_READERS = {
    "poisson_loglik": lambda model, data: poisson_loglik(np.zeros(model.free_dim), model, data),
    "pointwise_loglik": _pointwise_loglik,
    "sample_prior_predictive": lambda model, data: sample_prior_predictive(model, data, 2, 0),
}


class TestDataArgument:
    """``data`` is a dataset or a likelihood already built from it, and
    both give the same bits; anything else is a TypeError, and a dataset
    or ``PoissonLikelihood`` of another (R, A, T) a ValueError."""

    @pytest.mark.filterwarnings("ignore:hyperparameter search stopped")
    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    def test_dataset_and_its_likelihood_agree(self, entry, rng):
        grid = GridSpec(4, 4)
        ds, _ = toy_dataset(rng, grid=grid, n_strata=2)
        model = assemble_model(grid, 2, "M5", "exchangeable")
        eta = model.prior_model.default()
        call = DATA_ENTRY_POINTS[entry]
        assert np.array_equal(call(model, eta, ds), call(model, eta, PoissonLikelihood(ds)))

    @pytest.mark.parametrize("bad", [None, {"counts": np.ones((2, 4, 4))}], ids=["None", "dict"])
    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    def test_other_data_is_a_type_error(self, entry, bad):
        model = assemble_model(GridSpec(4, 4), 2, "M5", "independent")
        with pytest.raises(TypeError, match="data must be a MortalityDataset"):
            DATA_ENTRY_POINTS[entry](model, model.prior_model.default(), bad)

    @pytest.mark.parametrize("form", ["dataset", "likelihood"])
    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    @pytest.mark.parametrize("model_shape, data_shape", MISMATCHED_SHAPES, ids=MISMATCH_IDS)
    def test_other_shape_is_rejected(self, entry, model_shape, data_shape, form):
        model, data = mismatched(model_shape, data_shape, form)
        with pytest.raises(ValueError, match=shape_message(model_shape, data_shape)):
            DATA_ENTRY_POINTS[entry](model, model.prior_model.default(), data)

    @pytest.mark.parametrize("form", ["dataset", "likelihood"])
    @pytest.mark.parametrize("reader", DATA_READERS)
    @pytest.mark.parametrize("model_shape, data_shape", MISMATCHED_SHAPES, ids=MISMATCH_IDS)
    def test_readers_reject_other_shape(self, reader, model_shape, data_shape, form):
        model, data = mismatched(model_shape, data_shape, form)
        with pytest.raises(ValueError, match=shape_message(model_shape, data_shape)):
            DATA_READERS[reader](model, data)

    def test_interval_width_is_not_compared(self, rng):
        ds, _ = toy_dataset(rng, grid=GridSpec(4, 4, interval_width=1.0), n_strata=2)
        model = assemble_model(GridSpec(4, 4, interval_width=5.0), 2, "M5", "independent")
        assert isinstance(model.likelihood(ds), PoissonLikelihood)


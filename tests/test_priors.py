import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats

from stratapc.covariance import (
    STRUCTURES,
    AdjacencyGraph,
    CrossStrataStructure,
    icar_precision,
    scaled_generalized_inverse,
)
from stratapc.core import GridSpec
from stratapc.inference import MortalityDataset, assemble_model, pattern_names
from stratapc.priors import (
    BaselineMeanPrior,
    HyperParameters,
    PCPriorBYM2,
    PrecisionElicitation,
    PriorConfig,
    default_baseline_mean_prior,
    dzeta_drho,
    rho_from_zeta,
    sample_prior_predictive,
    zeta_from_rho,
)
from tests._stand_ins import prediction_residual_coverage


class TestElicitation:
    def test_t_quantile_matches_published_table(self):
        # t distribution with 2 df, 97.5% point
        assert sstats.t.ppf(0.975, df=2) == pytest.approx(4.302653, abs=5e-7)

    @pytest.mark.parametrize(
        "eps,expected",
        [
            (np.log(1.1), 2.4534e-4),
            (np.log(1.2), 8.978e-4),
            (np.log(1.01), 2.674e-6),
        ],
    )
    def test_rates(self, eps, expected):
        rate = PrecisionElicitation(epsilon=eps, q=0.05).rate
        assert rate == pytest.approx(expected, rel=5e-4)

    def test_rate_positive_and_monotone(self):
        r1 = PrecisionElicitation(np.log(1.01)).rate
        r2 = PrecisionElicitation(np.log(1.2)).rate
        assert 0 < r1 < r2

    def test_domain(self):
        with pytest.raises(ValueError):
            PrecisionElicitation(epsilon=0.0)
        with pytest.raises(ValueError):
            PrecisionElicitation(epsilon=0.1, q=1.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match=f"positive and finite, got {eps!r}"):
            PrecisionElicitation(epsilon=eps)

    def test_prior_config_checks_through_its_elicitations(self):
        epsilons = {**PriorConfig().epsilons, "cohort": float("nan")}
        with pytest.raises(ValueError, match="cohort block: epsilon must be positive and finite"):
            PriorConfig(epsilons=epsilons)
        with pytest.raises(ValueError, match=r"q must lie in \(0, 1\), got nan"):
            PriorConfig(q=float("nan"))

    @pytest.mark.parametrize("q", [1e-6, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9])
    def test_rate_is_the_scipy_stats_formula_to_the_bit(self, q):
        # the formula as written with scipy.stats, which the package no
        # longer imports
        for eps in (1e-4, np.log(1.01), np.log(1.1), np.log(1.2), 0.5, 3.0):
            e = PrecisionElicitation(epsilon=eps, q=q)
            expected = float((eps / sstats.t.ppf(1.0 - q / 2.0, df=2)) ** 2 / 2.0)
            assert e.rate == expected

    def test_mixture_identity_quick(self):
        # full-size Monte Carlo runs in the acceptance suite
        e = PrecisionElicitation(epsilon=np.log(1.1), q=0.05)
        cover = prediction_residual_coverage(e, n_draws=200_000, seed=7)
        assert cover == pytest.approx(0.95, abs=0.005)


class TestBaselineMeanPrior:
    def test_default_intervals_match_stated_beliefs(self):
        prior = default_baseline_mean_prior()
        lo, hi = prior.interval(0)
        # 0.7 to 35.5 per 1000 person-years
        assert lo * 1000 == pytest.approx(0.7, abs=0.05)
        assert hi * 1000 == pytest.approx(35.5, abs=0.05)
        lo, hi = prior.interval(1)
        # -27% to +151% for the age slope
        assert (lo - 1) * 100 == pytest.approx(-27.0, abs=0.5)
        assert (hi - 1) * 100 == pytest.approx(151.0, abs=0.5)
        lo, hi = prior.interval(2)
        # -51% to +68% for the cohort slope
        assert (lo - 1) * 100 == pytest.approx(-51.0, abs=0.5)
        assert (hi - 1) * 100 == pytest.approx(68.0, abs=0.5)

    @pytest.mark.parametrize("level", [1e-6, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-12])
    def test_interval_is_the_scipy_stats_formula_to_the_bit(self, level):
        prior = BaselineMeanPrior(
            mean=np.array([np.log(0.005), 0.3, -0.1]), variances=np.array([1.0, 0.1, 2.5e-3])
        )
        z = sstats.norm.ppf(0.5 + level / 2.0)
        for k in range(3):
            half = z * float(np.sqrt(prior.variances[k]))
            center = float(prior.mean[k])
            expected = (float(np.exp(center - half)), float(np.exp(center + half)))
            assert prior.interval(k, level) == expected

    def test_logpdf_matches_scipy(self, rng):
        prior = default_baseline_mean_prior()
        x = rng.normal(size=3)
        expected = sstats.multivariate_normal(
            mean=prior.mean, cov=np.diag(prior.variances)
        ).logpdf(x)
        assert prior.logpdf(x) == pytest.approx(expected, abs=1e-12)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            BaselineMeanPrior(mean=np.zeros(2), variances=np.ones(2))
        with pytest.raises(ValueError):
            BaselineMeanPrior(mean=np.zeros(3), variances=np.array([1.0, -1.0, 1.0]))


class TestExchangeableTransform:
    def test_round_trip(self):
        for r in (2, 5, 25):
            for rho in (-0.3 / (r - 1), 0.0, 0.42, 0.9):
                z = zeta_from_rho(rho, r)
                assert rho_from_zeta(z, r) == pytest.approx(rho, abs=1e-12)

    def test_jacobian_at_zero_is_r(self):
        for r in (2, 5, 25):
            assert dzeta_drho(0.0, r) == pytest.approx(r, abs=1e-12)

    def test_jacobian_matches_finite_difference(self):
        h = 1e-7
        for rho in (-0.1, 0.0, 0.5):
            num = (zeta_from_rho(rho + h, 6) - zeta_from_rho(rho - h, 6)) / (2 * h)
            assert dzeta_drho(rho, 6) == pytest.approx(num, rel=1e-5)


@pytest.fixture(scope="module")
def pc_prior():
    graph = AdjacencyGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    )
    qinv = scaled_generalized_inverse(icar_precision(graph))
    return PCPriorBYM2(qinv)


class TestPCPrior:
    def test_distance_vanishes_at_base_model(self, pc_prior):
        assert pc_prior.distance(1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_distance_monotone(self, pc_prior):
        rhos = np.linspace(0.01, 0.99, 40)
        d = np.array([pc_prior.distance(r) for r in rhos])
        assert np.all(np.diff(d) > 0)

    def test_median_calibration(self, pc_prior):
        assert pc_prior.cdf(0.5) == pytest.approx(0.5, abs=1e-12)
        mass, _ = integrate.quad(lambda r: np.exp(pc_prior.logpdf(r)), 1e-9, 0.5, limit=200)
        assert mass == pytest.approx(0.5, abs=1e-3)

    def test_integrates_to_one(self, pc_prior):
        # the distance grows like sqrt(-log(1-rho)), so a visible sliver of
        # mass hugs rho = 1 closer than float spacing; integrate in
        # u = -log(1-rho) and add the analytic exponential tail beyond the
        # last representable point
        mass, _ = integrate.quad(
            lambda u: np.exp(pc_prior.logpdf(1.0 - np.exp(-u)) - u),
            1e-10,
            30.0,
            limit=400,
        )
        rho_hi = 1.0 - np.exp(-30.0)
        tail = 1.0 - pc_prior.cdf(rho_hi)
        assert mass + tail == pytest.approx(1.0, abs=1e-3)
        # the quadrature itself must reproduce the closed-form CDF mass,
        # which pins down the numerical Jacobian
        assert mass == pytest.approx(pc_prior.cdf(rho_hi), abs=1e-3)

    def test_boundary_rejected(self, pc_prior):
        for rho in (0.0, 1.0):
            with pytest.raises(ValueError):
                pc_prior.logpdf(rho)

    def test_sampling_matches_cdf(self, pc_prior, rng):
        draws = np.array([pc_prior.sample(rng) for _ in range(4000)])
        assert np.mean(draws < 0.5) == pytest.approx(0.5, abs=0.03)


class TestHyperpriorLogpdf:
    def _model(self, structure="exchangeable", pattern="M5", n_strata=4):
        return assemble_model(GridSpec(5, 5), n_strata, pattern, structure)

    def test_tau_at_prior_mean(self):
        model = self._model(structure="independent")
        pm = model.prior_model
        rate = pm.rates["age"]
        eta_base = {b: 1.0 / pm.rates[b] for b in pm.tau_blocks}
        base = pm.logpdf(HyperParameters(taus=eta_base))
        # an exponential at its mean contributes log(rate) - 1
        eta_moved = dict(eta_base)
        eta_moved["age"] = 2.0 / rate
        moved = pm.logpdf(HyperParameters(taus=eta_moved))
        assert base - moved == pytest.approx(1.0, abs=1e-12)
        contribution = np.log(rate) - 1.0
        others = sum(np.log(pm.rates[b]) - 1.0 for b in pm.tau_blocks if b != "age")
        assert base == pytest.approx(contribution + others, abs=1e-12)

    def test_exchangeable_rho_zero_closed_form(self):
        model = self._model()
        pm = model.prior_model
        taus = {b: 1.0 / pm.rates[b] for b in pm.tau_blocks}
        at_zero = pm.logpdf(
            HyperParameters(taus=taus, rhos={b: 0.0 for b in pm.rho_blocks})
        )
        tau_part = sum(np.log(pm.rates[b]) - 1.0 for b in pm.tau_blocks)
        # at rho = 0 the transform is 0 and the Jacobian is R
        rho_part = len(pm.rho_blocks) * (
            -0.5 * np.log(2 * np.pi * 5.0) + np.log(model.n_strata)
        )
        assert at_zero == pytest.approx(tau_part + rho_part, abs=1e-12)

    def test_additive_over_components(self, rng):
        model = self._model(pattern="M6")
        pm = model.prior_model
        taus = {b: float(rng.exponential(1.0 / pm.rates[b])) for b in pm.tau_blocks}
        rhos = {b: float(rng.uniform(-0.2, 0.8)) for b in pm.rho_blocks}
        nu0 = rng.normal(size=3)
        eta = HyperParameters(taus=taus, rhos=rhos, nu0=nu0)
        total = pm.logpdf(eta)
        expected = 0.0
        for b in pm.tau_blocks:
            expected += np.log(pm.rates[b]) - pm.rates[b] * taus[b]
        for b in pm.rho_blocks:
            z = zeta_from_rho(rhos[b], model.n_strata)
            expected += sstats.norm(0, np.sqrt(5.0)).logpdf(z) + np.log(
                dzeta_drho(rhos[b], model.n_strata)
            )
        expected += pm.baseline_mean.logpdf(nu0)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_domain_violations(self):
        model = self._model(structure="independent")
        pm = model.prior_model
        with pytest.raises(ValueError):
            pm.logpdf(HyperParameters(taus={b: -1.0 for b in pm.tau_blocks}))


def codec_model(n_strata, pattern, kind):
    graph = None
    if kind == "bym2":  # a ring over the strata
        graph = AdjacencyGraph.from_edges(
            n_strata, [(i, (i + 1) % n_strata) for i in range(n_strata)]
        )
    return assemble_model(
        GridSpec(4, 4), n_strata, pattern, CrossStrataStructure(kind=kind, graph=graph)
    )


CANDIDATES = [
    (n_strata, pattern, kind)
    for n_strata in (3, 5)
    for pattern in pattern_names()
    for kind in STRUCTURES
    if pattern != "M1" or kind == "independent"
]


class TestCodec:
    """``PriorModel``'s map between hyperparameters and the transformed
    vector the search and the oracle walk on."""

    @pytest.mark.parametrize("n_strata, pattern, kind", CANDIDATES)
    def test_round_trip(self, n_strata, pattern, kind):
        space = codec_model(n_strata, pattern, kind).prior_model
        rng = np.random.default_rng(n_strata)
        for eta in [space.default()] + [space.sample(rng) for _ in range(5)]:
            x = space.to_vector(eta)
            assert x.shape == (len(space.layout),)
            back = space.from_vector(x)
            assert (back.taus.keys(), back.rhos.keys()) == (eta.taus.keys(), eta.rhos.keys())
            assert (back.nu0 is None) == (eta.nu0 is None)
            np.testing.assert_allclose(
                space.natural(back), space.natural(eta), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("kind", ["exchangeable", "bym2"])
    def test_default_is_zero_correlation_coordinate(self, kind):
        space = codec_model(4, "M6", kind).prior_model
        x = space.to_vector(space.default())
        rho_x = [v for v, (k, _) in zip(x, space.layout) if k == "rho"]
        assert rho_x == [0.0] * 4

    # step and tolerance: near the clip a correlation sits within about
    # 1e-11 of its end, where its float spacing needs a wide step
    @pytest.mark.parametrize(
        "rho_x, step, tol",
        [(-25.0, 1e-2, 2e-3), (-2.0, 1e-5, 1e-7), (0.0, 1e-5, 1e-7),
         (0.7, 1e-5, 1e-7), (3.0, 1e-5, 1e-7), (25.0, 1e-2, 2e-3)],
    )
    @pytest.mark.parametrize("kind", ["exchangeable", "bym2"])
    def test_log_jacobian_matches_central_differences(self, kind, rho_x, step, tol):
        space = codec_model(4, "M6", kind).prior_model
        x = space.to_vector(space.default())
        kinds = [k for k, _ in space.layout]
        x[[i for i, k in enumerate(kinds) if k == "tau"]] += np.linspace(-0.6, 0.6, 4)
        x[[i for i, k in enumerate(kinds) if k == "rho"]] = rho_x + np.array([0.0, 0.1, -0.1, 0.2])
        x[[i for i, k in enumerate(kinds) if k == "nu0"]] += 0.3
        eye = np.eye(x.shape[0])
        jac = np.column_stack([
            space.natural(space.from_vector(x + step * e))
            - space.natural(space.from_vector(x - step * e))
            for e in eye
        ]) / (2.0 * step)
        sign, logdet = np.linalg.slogdet(jac)
        assert sign != 0
        assert space.log_jacobian(x) == pytest.approx(logdet, abs=tol)


class TestPriorPredictive:
    def test_degenerate_prior_collapses_to_poisson(self):
        grid = GridSpec(5, 5)
        model = assemble_model(grid, 2, "M5", "independent")
        log_rate = -3.0
        fixed = HyperParameters(
            taus={b: 1e12 for b in model.prior_model.tau_blocks}, rhos={}
        )
        # pin the baseline prior at (log m, 0, 0) with negligible spread
        tight = PriorConfig(
            baseline_mean=BaselineMeanPrior(
                mean=np.array([log_rate, 0.0, 0.0]),
                variances=np.array([1e-18, 1e-18, 1e-18]),
            )
        )
        model = assemble_model(grid, 2, "M5", "independent", prior_config=tight)
        exposure = np.full((2, 5, 5), 50.0)
        data = MortalityDataset.from_arrays(np.zeros_like(exposure), exposure)
        out = sample_prior_predictive(model, data, n_sims=400, seed=3, fixed=fixed)
        assert out.n_degenerate == 0
        lam = 50.0 * np.exp(log_rate)
        # the max of 50 iid Poisson(2.49) draws concentrates near 7-8
        assert 5.0 <= out.max_counts.mean() <= 11.0
        assert out.min_counts.mean() <= 1.0

    def test_determinism(self):
        grid = GridSpec(4, 4)
        model = assemble_model(grid, 2, "M6", "independent")
        exposure = np.full((2, 4, 4), 100.0)
        data = MortalityDataset.from_arrays(np.zeros_like(exposure), exposure)
        a = sample_prior_predictive(model, data, n_sims=50, seed=11)
        b = sample_prior_predictive(model, data, n_sims=50, seed=11)
        assert np.array_equal(a.max_counts, b.max_counts)
        assert a.n_degenerate == b.n_degenerate

    def test_exceedance_fractions_against_observed(self, rng):
        grid = GridSpec(4, 4)
        model = assemble_model(grid, 2, "M5", "independent")
        exposure = np.full((2, 4, 4), 100.0)
        counts = rng.poisson(100.0 * 0.005, size=(2, 4, 4)).astype(float)
        data = MortalityDataset.from_arrays(counts, exposure)
        out = sample_prior_predictive(model, data, n_sims=60, seed=5)
        assert out.frac_max_exceeds_observed is not None
        assert 0.0 <= out.frac_max_exceeds_observed <= 1.0
        assert 0.0 <= out.frac_min_below_observed <= 1.0

    def test_nonpositive_exposure_rejected(self):
        grid = GridSpec(4, 4)
        model = assemble_model(grid, 2, "M5", "independent")
        exposure = np.zeros((2, 4, 4))
        with pytest.raises(ValueError):
            data = MortalityDataset.from_arrays(np.zeros_like(exposure), exposure)
            sample_prior_predictive(model, data, n_sims=5, seed=1)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed seeds; stated runtime budgets are asserted where the criterion pins
one.  The end-to-end criterion drives the installed CLI.
"""

import json
import time
import warnings

import numpy as np
from scipy import integrate
from scipy import stats as sstats

from stratapc.cli import main as cli_main
from stratapc.core import (
    APCEffects,
    GridSpec,
    GroupElement,
    apply_group,
    build_design_matrix,
    canonical_from_effects,
    default_baseline_spec,
    flatten_surface,
    log_rates,
)
from stratapc.covariance import (
    MatrixNormalParams,
    exchangeable_corr,
    icar_precision,
    matrix_normal_logpdf,
    scaled_generalized_inverse,
)
from stratapc.data import simulate_dataset
from stratapc.diagnostics import hindcast, ks_distance_from_uniform, pit
from stratapc.inference import (
    MortalityDataset,
    PoissonLikelihood,
    assemble_model,
    fit_model,
    laplace_log_marginal,
    optimize_hyperparameters,
    poisson_loglik,
    sample_posterior,
)
from stratapc.mcmc import mcmc_oracle
from stratapc.priors import (
    PCPriorBYM2,
    PrecisionElicitation,
    default_baseline_mean_prior,
)
from stratapc.report import read_csv
from stratapc.selection import GridConfig, fit_grid
from tests._stand_ins import GaussianPseudoLikelihood, prediction_residual_coverage
from tests.test_covariance import dense_kron_logpdf, random_connected_graph, random_spd


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} - {detail}")


def test_criterion_1_identifiability():
    start = time.time()
    rng = np.random.default_rng(101)
    max_mu_err = 0.0
    max_curv_err = 0.0
    for _ in range(1000):
        a = int(rng.integers(3, 11))
        t = int(rng.integers(3, 11))
        grid = GridSpec(a, t)
        eff = APCEffects(
            delta=float(rng.normal()),
            alpha=rng.normal(size=a),
            beta=rng.normal(size=t),
            gamma=rng.normal(size=grid.n_cohort),
        )
        g = GroupElement(*rng.normal(size=4))
        eff_g = apply_group(eff, g, grid)
        max_mu_err = max(
            max_mu_err, float(np.max(np.abs(log_rates(eff_g, grid) - log_rates(eff, grid))))
        )
        c0 = canonical_from_effects(eff, grid)
        c1 = canonical_from_effects(eff_g, grid)
        for attr in ("curv_age", "curv_period", "curv_cohort"):
            max_curv_err = max(
                max_curv_err, float(np.max(np.abs(getattr(c0, attr) - getattr(c1, attr))))
            )
    elapsed = time.time() - start
    ok = max_mu_err < 1e-12 and max_curv_err < 1e-12 and elapsed < 10.0
    report(
        1,
        "identifiability",
        ok,
        f"1000 pairs, max surface err {max_mu_err:.2e}, max curvature err "
        f"{max_curv_err:.2e}, {elapsed:.1f}s",
    )
    assert max_mu_err < 1e-12
    assert max_curv_err < 1e-12
    assert elapsed < 10.0


def test_criterion_2_design_matrix():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_recon = 0.0
    all_full_rank = True
    for a in range(3, 13):
        for t in range(3, 13):
            grid = GridSpec(a, t)
            for form in ("three-points", "point-plus-two-slopes"):
                spec = default_baseline_spec(grid, form=form)
                m = build_design_matrix(grid, spec)
                if np.linalg.matrix_rank(m) != grid.n_canonical:
                    all_full_rank = False
                eff = APCEffects(
                    delta=float(rng.normal()),
                    alpha=rng.normal(size=a),
                    beta=rng.normal(size=t),
                    gamma=rng.normal(size=grid.n_cohort),
                )
                xi = canonical_from_effects(eff, grid, spec)
                err = float(
                    np.max(np.abs(m @ xi.vector - flatten_surface(log_rates(eff, grid))))
                )
                worst_recon = max(worst_recon, err)
    app = GridSpec(17, 18)
    m_app = build_design_matrix(app, default_baseline_spec(app, form="three-points"))
    shape_ok = m_app.shape == (306, 66)
    elapsed = time.time() - start
    ok = all_full_rank and worst_recon < 1e-10 and shape_ok and elapsed < 30.0
    report(
        2,
        "design matrix",
        ok,
        f"A,T in 3..12 both forms: full rank {all_full_rank}, worst round-trip "
        f"{worst_recon:.2e}, 17x18 shape {m_app.shape}, {elapsed:.1f}s",
    )
    assert all_full_rank
    assert worst_recon < 1e-10
    assert shape_ok
    assert elapsed < 30.0


def test_criterion_3_covariance():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        n_r, n_c = rng.integers(1, 6, size=2)
        params = MatrixNormalParams(
            mean=rng.normal(size=(n_r, n_c)),
            row_cov=random_spd(rng, int(n_r)),
            col_cov=random_spd(rng, int(n_c)),
        )
        x = rng.normal(size=(int(n_r), int(n_c)))
        worst = max(
            worst, abs(matrix_normal_logpdf(x, params) - dense_kron_logpdf(x, params))
        )

    worst_geo = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 26))
        graph = random_connected_graph(rng, n)
        out = scaled_generalized_inverse(icar_precision(graph))
        worst_geo = max(worst_geo, abs(np.exp(np.mean(np.log(np.diag(out)))) - 1.0))

    boundary_exact = True
    for r in (2, 3, 10):
        lo = -1.0 / (r - 1)
        for rho in (lo, 1.0):
            try:
                exchangeable_corr(r, rho)
                boundary_exact = False
            except ValueError:
                pass
        for rho in (lo + 1e-9, 1.0 - 1e-9):
            if np.linalg.eigvalsh(exchangeable_corr(r, rho)).min() <= 0:
                boundary_exact = False

    ok = worst < 1e-10 and worst_geo < 1e-8 and boundary_exact
    report(
        3,
        "covariance",
        ok,
        f"kron logpdf err {worst:.2e} (200 cases), geo-mean err {worst_geo:.2e} "
        f"(20 graphs), exchangeable boundary exact {boundary_exact}",
    )
    assert worst < 1e-10
    assert worst_geo < 1e-8
    assert boundary_exact


def test_criterion_4_priors():
    coverages = []
    for i, eps in enumerate((np.log(1.01), np.log(1.1), np.log(1.2))):
        e = PrecisionElicitation(epsilon=float(eps), q=0.05)
        coverages.append(prediction_residual_coverage(e, n_draws=1_000_000, seed=40 + i))
    mc_ok = all(abs(c - 0.95) <= 0.01 for c in coverages)

    prior = default_baseline_mean_prior()
    lo0, hi0 = prior.interval(0)
    lo1, hi1 = prior.interval(1)
    lo2, hi2 = prior.interval(2)
    intervals_ok = (
        abs(lo0 * 1000 - 0.7) < 0.05
        and abs(hi0 * 1000 - 35.5) < 0.05
        and abs((lo1 - 1) * 100 + 27) < 0.5
        and abs((hi1 - 1) * 100 - 151) < 0.5
        and abs((lo2 - 1) * 100 + 51) < 0.5
        and abs((hi2 - 1) * 100 - 68) < 0.5
    )

    rng = np.random.default_rng(404)
    graph = random_connected_graph(rng, 8)
    pc = PCPriorBYM2(scaled_generalized_inverse(icar_precision(graph)))
    mass, _ = integrate.quad(
        lambda u: np.exp(pc.logpdf(1.0 - np.exp(-u)) - u), 1e-10, 30.0, limit=400
    )
    rho_hi = 1.0 - np.exp(-30.0)
    total = mass + (1.0 - pc.cdf(rho_hi))
    half, _ = integrate.quad(
        lambda u: np.exp(pc.logpdf(1.0 - np.exp(-u)) - u), 1e-10, np.log(2.0), limit=400
    )
    pc_ok = abs(total - 1.0) <= 1e-3 and abs(half - 0.5) <= 1e-3

    ok = mc_ok and intervals_ok and pc_ok
    report(
        4,
        "priors",
        ok,
        f"t(2)-mixture coverage {[round(c, 4) for c in coverages]}, baseline "
        f"intervals ok {intervals_ok}, pc integral {total:.5f}, "
        f"pc mass below 0.5 = {half:.5f}",
    )
    assert mc_ok
    assert intervals_ok
    assert pc_ok


def test_criterion_5_inference():
    start = time.time()
    rng = np.random.default_rng(505)

    # (a) gradient and Hessian against finite differences
    grid = GridSpec(4, 4)
    ds, _ = simulate_dataset(grid, 2, pattern="M5", structure="independent",
                             exposure=500.0, seed=51)
    model = assemble_model(grid, 2, "M5", "independent")
    xi = rng.normal(scale=0.05, size=model.free_dim)
    xi[:3] = [-4.0, 0.1, -0.05]
    _, grad, _ = poisson_loglik(xi, model, ds)
    h = 1e-6
    grad_ok = True
    for j in rng.choice(model.free_dim, size=10, replace=False):
        e = np.zeros_like(xi)
        e[j] = h
        lp, _, _ = poisson_loglik(xi + e, model, ds)
        lm, _, _ = poisson_loglik(xi - e, model, ds)
        fd = (lp - lm) / (2 * h)
        if abs(grad[j] - fd) > 1e-6 * max(1.0, abs(fd)):
            grad_ok = False
    lik = PoissonLikelihood(ds)
    _, _, w = lik.value_grad_weights(model.logrates_flat(xi))
    hess = model.dense_gram(model.weighted_gram(w))
    hess_ok = True
    h2 = 1e-4
    for _ in range(5):
        v = rng.normal(size=model.free_dim)
        v /= np.linalg.norm(v)
        lp, _, _ = poisson_loglik(xi + h2 * v, model, ds)
        l0, _, _ = poisson_loglik(xi, model, ds)
        lm, _, _ = poisson_loglik(xi - h2 * v, model, ds)
        fd = -(lp - 2 * l0 + lm) / h2**2
        if abs(v @ hess @ v - fd) > 1e-4 * max(1.0, abs(fd)):
            hess_ok = False

    # (b) Gaussian-conjugate instance: Laplace is exact
    model_g = assemble_model(grid, 2, "M5", "independent")
    eta_g = model_g.prior_model.default()
    prior_g = model_g.latent_prior(eta_g)
    sigma2 = 0.3
    z = rng.normal(size=model_g.n_cells)
    lik_g = GaussianPseudoLikelihood(z, sigma2)
    value = laplace_log_marginal(model_g, eta_g, data=lik_g)
    design = np.zeros((model_g.n_cells, model_g.free_dim))
    cells = grid.n_cells
    for r in range(model_g.n_strata):
        design[r * cells : (r + 1) * cells, model_g.col_index[r]] = model_g.parts.matrix
    marg_cov = sigma2 * np.eye(model_g.n_cells) + design @ np.linalg.inv(prior_g.precision) @ design.T
    closed = sstats.multivariate_normal(mean=design @ prior_g.mean, cov=marg_cov).logpdf(z)
    closed += model_g.prior_model.logpdf(eta_g)
    laplace_err = abs(value - closed)

    # (c) Poisson instance: plug-in vs MCMC oracle
    grid5 = GridSpec(5, 5)
    ds5, _ = simulate_dataset(grid5, 2, pattern="M5", structure="independent",
                              exposure=1e5, seed=31)
    model5 = assemble_model(grid5, 2, "M5", "independent")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        opt = optimize_hyperparameters(model5, ds5, budget=600)
    fit5 = sample_posterior(model5, opt.eta_hat, ds5, n=4000, seed=2, mode=opt.mode)
    oracle = mcmc_oracle(model5, ds5, iterations=24000, burn_in=6000, seed=3, thin=3)
    cross_err = float(
        np.max(
            np.abs(
                fit5.lograte_samples.mean(axis=0)
                - model5.logrates_samples(oracle.xi_samples).mean(axis=0)
            )
        )
    )

    # (d) coverage over 50 synthetic replications
    grid6 = GridSpec(6, 6)
    covered = total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(50):
            ds_r, truth = simulate_dataset(
                grid6, 3, pattern="M4", structure="independent", exposure=1e4,
                seed=500 + rep,
            )
            model_r = assemble_model(grid6, 3, "M4", "independent")
            fit_r = fit_model(model_r, ds_r, n_samples=400, seed=rep, budget=300)
            cube = fit_r.lograte_cube()
            lo, hi = np.percentile(cube, [2.5, 97.5], axis=0)
            covered += int(np.sum((truth.logrates >= lo) & (truth.logrates <= hi)))
            total += truth.logrates.size
    coverage = covered / total

    elapsed = time.time() - start
    ok = (
        grad_ok and hess_ok and laplace_err < 1e-8 and cross_err < 0.02
        and coverage >= 0.85 and elapsed < 600.0
    )
    report(
        5,
        "inference",
        ok,
        f"grad fd {grad_ok}, hessian fd {hess_ok}, laplace exactness err "
        f"{laplace_err:.2e}, plugin-vs-mcmc {cross_err:.4f}, coverage "
        f"{coverage:.3f} over 50 reps, {elapsed:.0f}s",
    )
    assert grad_ok and hess_ok
    assert laplace_err < 1e-8
    assert cross_err < 0.02
    assert coverage >= 0.85
    assert elapsed < 600.0


def test_criterion_6_model_selection():
    start = time.time()
    grid = GridSpec(10, 10)
    wins = 0
    n_reps = 20
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(n_reps):
            ds, _ = simulate_dataset(
                grid, 6, pattern="M4", structure="exchangeable", exposure=1e5,
                seed=600 + rep,
            )
            config = GridConfig(
                structures=("independent", "exchangeable"),
                n_samples=250, budget=400, seed=rep,
            )
            result = fit_grid(ds, config)
            w = {(e.pattern, e.structure): e.waic for e in result.entries if e.ok}
            rich = min(
                (v for (p, _), v in w.items() if p in ("M4", "M5", "M6")),
                default=np.inf,
            )
            m1 = w.get(("M1", "independent"), np.inf)
            m2 = min((v for (p, _), v in w.items() if p == "M2"), default=np.inf)
            m3 = min((v for (p, _), v in w.items() if p == "M3"), default=np.inf)
            wins += int(rich < m1 and rich < m2 and rich < m3)
    frac = wins / n_reps
    elapsed = time.time() - start
    ok = frac >= 0.8 and elapsed < 1200.0
    report(
        6,
        "model selection",
        ok,
        f"richer-than-M1/M2/M3 in {wins}/{n_reps} replications, {elapsed:.0f}s",
    )
    assert frac >= 0.8
    assert elapsed < 1200.0


def test_criterion_7_calibration():
    rng = np.random.default_rng(707)
    # PIT self-calibration: fit once, then repeatedly draw data from the
    # model's own posterior predictive
    grid = GridSpec(6, 8)
    ds, _ = simulate_dataset(grid, 2, pattern="M4", structure="independent",
                             exposure=1e4, seed=71)
    model = assemble_model(grid, 2, "M4", "independent")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_model(model, ds, n_samples=600, seed=1, budget=300)
    targets = np.argwhere(ds.observed)
    predictive = hindcast(fit, targets, ds.exposures, seed=5)
    n_cells = targets.shape[0]
    threshold = 1.36 / np.sqrt(n_cells) * 1.5
    passes = 0
    n_reps = 50
    exp_targets = ds.exposures[targets[:, 0], targets[:, 1], targets[:, 2]]
    cells_flat = model.grid.n_cells
    flat_idx = targets[:, 0] * cells_flat + targets[:, 2] * grid.n_age + targets[:, 1]
    for rep in range(n_reps):
        s = int(rng.integers(fit.n_samples))
        lam = exp_targets * np.exp(fit.lograte_samples[s, flat_idx])
        y_rep = rng.poisson(lam).astype(float)
        out = pit(predictive.samples, y_rep)
        passes += int(ks_distance_from_uniform(out.values) < threshold)
    pit_frac = passes / n_reps

    # masked-cell hindcast coverage over 20 replications
    grid6 = GridSpec(6, 6)
    covered = total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(20):
            ds_full, _ = simulate_dataset(
                grid6, 3, pattern="M4", structure="independent", exposure=1e4,
                seed=900 + rep,
            )
            mask = np.random.default_rng(rep).uniform(size=ds_full.counts.shape) < 0.1
            train = MortalityDataset(
                counts=np.where(mask, 0.0, ds_full.counts),
                exposures=np.where(mask, 0.0, ds_full.exposures),
                observed=~mask,
                grid=grid6,
                strata=ds_full.strata,
            )
            model_r = assemble_model(grid6, 3, "M4", "independent")
            fit_r = fit_model(model_r, train, n_samples=800, seed=rep, budget=300)
            t_r = np.argwhere(mask)
            hc = hindcast(fit_r, t_r, ds_full.exposures, seed=rep)
            y_true = ds_full.counts[t_r[:, 0], t_r[:, 1], t_r[:, 2]]
            covered += int(np.sum((y_true >= hc.lower) & (y_true <= hc.upper)))
            total += len(y_true)
    hc_coverage = covered / total

    # hindcast-procedure reproduction: mask one stratum's early periods,
    # refit, predict the masked block, PIT against the held-out counts
    ds_g, _ = simulate_dataset(grid, 3, pattern="M4", structure="independent",
                               exposure=1e4, seed=77)
    mask_g = np.zeros_like(ds_g.observed)
    mask_g[1, :, :3] = True
    train_g = MortalityDataset(
        counts=np.where(mask_g, 0.0, ds_g.counts),
        exposures=np.where(mask_g, 0.0, ds_g.exposures),
        observed=ds_g.observed & ~mask_g,
        grid=grid,
        strata=ds_g.strata,
    )
    model_g = assemble_model(grid, 3, "M4", "independent")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit_g = fit_model(model_g, train_g, n_samples=600, seed=9, budget=300)
    t_g = np.argwhere(mask_g)
    hc_g = hindcast(fit_g, t_g, ds_g.exposures, seed=9)
    pit_g = pit(hc_g.samples, ds_g.counts[t_g[:, 0], t_g[:, 1], t_g[:, 2]])
    procedure_ok = (
        pit_g.values.shape == (t_g.shape[0],)
        and np.all((pit_g.values >= 0) & (pit_g.values <= 1))
        and pit_g.density.shape == pit_g.density_grid.shape
    )

    ok = pit_frac >= 0.9 and hc_coverage >= 0.85 and procedure_ok
    report(
        7,
        "calibration",
        ok,
        f"PIT self-calibration {passes}/{n_reps}, hindcast coverage "
        f"{hc_coverage:.3f}, stratum-mask procedure ok {procedure_ok}",
    )
    assert pit_frac >= 0.9
    assert hc_coverage >= 0.85
    assert procedure_ok


def test_criterion_8_end_to_end(tmp_path):
    start = time.time()
    sim_dir = tmp_path / "sim"
    rc = cli_main(
        [
            "simulate", "--out", str(sim_dir), "--n-age", "17", "--n-period", "18",
            "--n-strata", "5", "--pattern", "M4", "--structure", "exchangeable",
            "--exposure", "100000", "--seed", "8", "--emit-graph",
        ]
    )
    assert rc == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "grid": {"age_start": 0, "age_end": 16, "year_start": 0,
                         "year_end": 18, "bin_width": 1},
                "inference": {"n_samples": 300, "budget": 800},
                "seed": 88,
            }
        )
    )
    grid_dir = tmp_path / "grid"
    rc = cli_main(
        [
            "grid", "--config", str(config_path), "--data", str(sim_dir / "data.csv"),
            "--graph", str(sim_dir / "graph.csv"), "--out", str(grid_dir),
        ]
    )
    assert rc == 0
    header, rows = read_csv(grid_dir / "grid.csv")
    grid_rows_ok = len(rows) == 16

    hc_dir = tmp_path / "hindcast"
    rc = cli_main(
        [
            "hindcast", "--config", str(config_path), "--data", str(sim_dir / "data.csv"),
            "--out", str(hc_dir), "--pattern", "M4", "--structure", "exchangeable",
            "--mask-stratum", "s2", "--mask-year-from", "0", "--mask-year-to", "5",
            "--svg",
        ]
    )
    assert rc == 0
    pit_ok = (hc_dir / "pit_density.csv").exists()

    rr_dir = tmp_path / "rr"
    rc = cli_main(
        [
            "rr", "--config", str(config_path), "--data", str(sim_dir / "data.csv"),
            "--out", str(rr_dir), "--pattern", "M4", "--structure", "exchangeable",
            "--block", "period", "--r1", "s0", "--r2", "s4",
        ]
    )
    assert rc == 0
    meta = json.loads((rr_dir / "rr.json").read_text())
    rr_ok = "multiplicative" in meta["ambiguity"]
    _, rr_rows = read_csv(rr_dir / "rr.csv")
    rr_ok = rr_ok and float(rr_rows[0][1]) == 1.0

    elapsed = time.time() - start
    ok = grid_rows_ok and pit_ok and rr_ok and elapsed < 900.0
    report(
        8,
        "end to end",
        ok,
        f"grid rows {len(rows)}, pit density emitted {pit_ok}, rr disclaimer "
        f"{rr_ok}, {elapsed:.0f}s",
    )
    assert grid_rows_ok
    assert pit_ok
    assert rr_ok
    assert elapsed < 900.0

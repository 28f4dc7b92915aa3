"""The structured Laplace Hessian against its dense oracle: the free_dim^2
matrix ``dense_gram(weighted_gram(w)) + latent_prior(eta).precision``,
factored with ``scipy.linalg.cholesky``."""

import itertools
import logging

import numpy as np
import pytest
import scipy.linalg as sla

from stratapc import inference
from stratapc.core import GridSpec
from stratapc.covariance import AdjacencyGraph, CrossStrataStructure
from stratapc.data import simulate_dataset
from stratapc.inference import (
    LatentModel,
    LatentPrior,
    ModeError,
    PoissonLikelihood,
    StructuredHessian,
    assemble_model,
    conditional_mode,
    fit_model,
    laplace_log_marginal,
    optimize_hyperparameters,
    pattern_names,
)

GRID = GridSpec(5, 6)


def candidates():
    """Every grid candidate at R = 3 and 5 (bym2 on a ring), plus M1 at R = 1."""
    out = [(1, "M1", "independent")]
    for r in (3, 5):
        for name in pattern_names():
            kinds = ("independent",) if name == "M1" else ("independent", "exchangeable", "bym2")
            out.extend((r, name, kind) for kind in kinds)
    return out


# per-block zeta, taken in block order: each case puts a positive and a
# negative rho side by side (Schur mean and Woodbury terms together), most
# with a block at exactly rho = 0
MIXED_ZETAS = [(2.0, -2.0, 0.0, 8.0), (-2.0, 8.0, 0.0, 2.0), (8.0, -2.0, 2.0, 0.0)]


def candidate_etas(n_strata, pattern, kind):
    """(label, rho-scale value) pairs: the exchangeable zeta and the bym2
    logit values under test; the independent structure has none.  Patterns
    with several exchangeable blocks also get mixed-sign zetas."""
    if kind == "exchangeable":
        mixed = [("mixed", z) for z in MIXED_ZETAS] if pattern in ("M4", "M5", "M6") else []
        return [("zeta", z) for z in (-2.0, 0.0, 2.0, 8.0)] + mixed
    if kind == "bym2":
        return [("logit", v) for v in (-2.0, 0.0, 2.0)]
    return [("none", 0.0)]


CASES = [
    (r, p, k, label, value)
    for r, p, k in candidates()
    for label, value in candidate_etas(r, p, k)
]


_DATA: dict[int, object] = {}


def dataset(n_strata):
    if n_strata not in _DATA:
        _DATA[n_strata], _ = simulate_dataset(
            GRID, n_strata, pattern="M4", structure="independent", exposure=2e4, seed=5
        )
    return _DATA[n_strata]


def model_for(n_strata, pattern, kind, grid=GRID):
    graph = None
    if kind == "bym2":
        graph = AdjacencyGraph.from_edges(
            n_strata, [(i, (i + 1) % n_strata) for i in range(n_strata)]
        )
    return assemble_model(grid, n_strata, pattern, CrossStrataStructure(kind=kind, graph=graph))


def eta_at(model, rho_value):
    """Off-default precisions (log tau shifted by -0.6 .. +0.6) and every
    rho at the given transformed value, or at a tuple's values in block
    order."""
    values = itertools.cycle(rho_value if isinstance(rho_value, tuple) else (rho_value,))
    x = model.prior_model.to_vector(model.prior_model.default())
    for i, (kind, _) in enumerate(model.prior_model.layout):
        if kind == "tau":
            x[i] += 0.6 * ((i % 3) - 1)
        elif kind == "rho":
            x[i] = next(values)
    return model.prior_model.from_vector(x)


def dense_hessian(model, w, prior):
    return model.dense_gram(model.weighted_gram(w)) + prior.precision


def dense_mode(model, eta, likelihood, tol=1e-8, max_iter=100, max_halvings=30):
    """The Newton iteration of ``conditional_mode`` with dense solves; returns
    the mode and the Laplace log-marginal from the dense log-determinant."""
    prior = model.latent_prior(eta)
    xi = model.default_init(likelihood, prior)

    def evaluate(x):
        ll, grad_mu, w = likelihood.value_grad_weights(model.logrates_flat(x))
        return ll + prior.logpdf(x), grad_mu, w

    obj, grad_mu, w = evaluate(xi)
    for _ in range(max_iter):
        grad = model.design_transpose_apply(grad_mu) + prior.grad(xi)
        if np.max(np.abs(grad)) < tol:
            break
        chol = sla.cholesky(dense_hessian(model, w, prior), lower=True)
        delta = sla.cho_solve((chol, True), grad)
        step = 1.0
        for _ in range(max_halvings + 1):
            cand_obj, cand_grad_mu, cand_w = evaluate(xi + step * delta)
            if np.isfinite(cand_obj) and cand_obj >= obj - 1e-12 * (1.0 + abs(obj)):
                break
            step *= 0.5
        else:
            raise ModeError("step halving failed")
        rel_change = abs(cand_obj - obj) / (1.0 + abs(obj))
        xi, obj, grad_mu, w = xi + step * delta, cand_obj, cand_grad_mu, cand_w
        if rel_change < 1e-12:
            break
    else:
        raise ModeError("no convergence")
    ll, _, w = likelihood.value_grad_weights(model.logrates_flat(xi))
    chol = sla.cholesky(dense_hessian(model, w, prior), lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    value = (
        ll + prior.logpdf(xi) - 0.5 * logdet
        + 0.5 * model.free_dim * np.log(2.0 * np.pi)
        + model.prior_model.logpdf(eta)
    )
    return xi, value


def operator_case(n_strata, pattern, kind, value):
    """The structured operator and its dense oracle at a point off the mode."""
    model = model_for(n_strata, pattern, kind)
    eta = eta_at(model, value)
    likelihood = PoissonLikelihood(dataset(n_strata))
    rng = np.random.default_rng(1)
    prior = model.latent_prior(eta)
    xi = model.default_init(likelihood, prior) + 0.05 * rng.normal(size=model.free_dim)
    _, _, w = likelihood.value_grad_weights(model.logrates_flat(xi))
    op = StructuredHessian(model, model.weighted_gram(w), prior)
    return model, eta, likelihood, op, dense_hessian(model, w, prior)


def rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(np.asarray(b))


@pytest.mark.parametrize("n_strata,pattern,kind,label,value", CASES, ids=str)
def test_logdet_and_solve_match_dense(n_strata, pattern, kind, label, value):
    model, _, _, op, dense = operator_case(n_strata, pattern, kind, value)
    if label == "mixed":
        assert (op.prior.rho > 0).any() and (op.prior.rho < 0).any()
    chol = sla.cholesky(dense, lower=True)
    assert op.logdet == pytest.approx(2.0 * np.sum(np.log(np.diag(chol))), rel=1e-10)
    g = np.random.default_rng(2).normal(size=(model.free_dim, 3))
    want = sla.cho_solve((chol, True), g)
    got = np.stack([op.solve(col) for col in g.T], axis=1)
    assert rel(got, want) < 1e-10
    assert np.array_equal(op.dense(), dense)


@pytest.mark.parametrize("n_strata,pattern,kind,label,value", CASES, ids=str)
def test_mode_and_laplace_match_dense(n_strata, pattern, kind, label, value):
    model = model_for(n_strata, pattern, kind)
    eta = eta_at(model, value)
    likelihood = PoissonLikelihood(dataset(n_strata))
    xi, value_dense = dense_mode(model, eta, likelihood)
    mode = conditional_mode(model, eta, data=likelihood)
    assert rel(mode.xi, xi) < 1e-10
    assert laplace_log_marginal(model, eta, data=likelihood) == pytest.approx(
        value_dense, rel=1e-10
    )


@pytest.mark.parametrize("pattern", ["M2", "M4", "M6"])
@pytest.mark.parametrize("n_strata", [3, 5])
@pytest.mark.parametrize("zeta", [-25.0, -20.0, 20.0, 25.0])
def test_near_the_zeta_clip_paths_agree(n_strata, pattern, zeta):
    model = model_for(n_strata, pattern, "exchangeable")
    eta = eta_at(model, zeta)
    likelihood = PoissonLikelihood(dataset(n_strata))
    try:
        _, value_dense = dense_mode(model, eta, likelihood)
    except (ModeError, sla.LinAlgError):
        value_dense = None
    try:
        value = laplace_log_marginal(model, eta, data=likelihood)
    except (ModeError, sla.LinAlgError):
        value = None
    assert (value is None) == (value_dense is None)
    if value is not None:
        assert value == pytest.approx(value_dense, rel=1e-6)


@pytest.mark.parametrize("pattern", ["M4", "M6"])
@pytest.mark.parametrize("zeta", [-30.0, 30.0])
def test_logdet_at_the_clip_matches_extended_precision(pattern, zeta):
    # at |zeta| = 30 the dense Cholesky itself is off by ~1e-2 nats; the
    # structured log-determinant matches the determinant taken in 40 digits
    mpmath = pytest.importorskip("mpmath")
    grid = GridSpec(4, 4)
    ds, _ = simulate_dataset(grid, 3, pattern="M4", structure="independent", exposure=2e4, seed=5)
    model = model_for(3, pattern, "exchangeable", grid=grid)
    eta = eta_at(model, zeta)
    likelihood = PoissonLikelihood(ds)
    prior = model.latent_prior(eta)
    xi = model.default_init(likelihood, prior)
    _, _, w = likelihood.value_grad_weights(model.logrates_flat(xi))
    grams = model.weighted_gram(w)
    op = StructuredHessian(model, grams, prior)
    with mpmath.workdps(40):
        h = mpmath.matrix(model.dense_gram(grams).tolist())
        for sl, within, sigma, _ in prior.blocks:
            length = within.shape[0]
            copies = (sl.stop - sl.start) // length
            rho = prior.rho[sl.start]
            if sigma is None:
                for j in range(sl.start, sl.stop):
                    h[j, j] += mpmath.mpf(within[(j - sl.start) % length])
                continue
            sigma = mpmath.matrix(copies, copies)
            for r in range(copies):
                for s in range(copies):
                    sigma[r, s] = 1 if r == s else mpmath.mpf(rho)
            sigma_inv = sigma**-1
            for r in range(copies):
                for s in range(copies):
                    for i in range(length):
                        h[sl.start + r * length + i, sl.start + s * length + i] += (
                            sigma_inv[r, s] * mpmath.mpf(within[i])
                        )
        exact = float(mpmath.log(mpmath.det(h)))
    assert op.logdet == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("pattern,kind", [("M4", "independent"), ("M4", "exchangeable")])
def test_ill_conditioned_strata_keep_logdet_and_solve(pattern, kind):
    # counts in the millions make each stratum's block badly conditioned;
    # Schur complements taken as B' K^-1 B lost 1e-8 of the log-determinant
    grid = GridSpec(10, 10)
    ds, _ = simulate_dataset(
        grid, 6, pattern="M4", structure="exchangeable", exposure=1e5, seed=601
    )
    model = model_for(6, pattern, kind, grid=grid)
    eta = eta_at(model, 1.0)
    likelihood = PoissonLikelihood(ds)
    mode = conditional_mode(model, eta, data=likelihood)
    dense = mode.operator.dense()
    assert np.linalg.cond(dense) > 1e7
    sign, logdet = np.linalg.slogdet(dense)
    assert sign == 1.0 and mode.logdet_hessian == pytest.approx(logdet, rel=1e-12)
    g = np.random.default_rng(3).normal(size=model.free_dim)
    want = sla.cho_solve((sla.cholesky(dense, lower=True), True), g)
    assert rel(mode.operator.solve(g), want) < 1e-8


class TestDenseOnlyForDraws:
    @pytest.mark.parametrize(
        "pattern,kind", [("M4", "exchangeable"), ("M6", "independent"), ("M5", "exchangeable")]
    )
    def test_search_builds_no_free_dim_square_matrix(self, pattern, kind, monkeypatch):
        ds, _ = simulate_dataset(
            GridSpec(6, 6), 3, pattern="M4", structure="independent", exposure=2e4, seed=5
        )
        model = model_for(3, pattern, kind, grid=GridSpec(6, 6))
        factored = []
        real_chol = inference._chol_with_jitter

        def spy_chol(h, *args, **kwargs):
            factored.append(h.shape)
            return real_chol(h, *args, **kwargs)

        dense_reads = []
        real_precision = LatentPrior.precision.fget
        real_dense_gram = LatentModel.dense_gram

        def spy_precision(prior):
            dense_reads.append("precision")
            return real_precision(prior)

        def spy_dense_gram(self, grams):
            dense_reads.append("dense_gram")
            return real_dense_gram(self, grams)

        monkeypatch.setattr(inference, "_chol_with_jitter", spy_chol)
        monkeypatch.setattr(LatentPrior, "precision", property(spy_precision))
        monkeypatch.setattr(LatentModel, "dense_gram", spy_dense_gram)
        opt = optimize_hyperparameters(model, ds, budget=12)
        assert factored and dense_reads == []
        assert all(model.free_dim not in shape for shape in factored)
        assert max(shape[-1] for shape in factored) <= model.grid.n_canonical

        # the one dense factorization: the Hessian at the optimum, for draws;
        # the prior precision is added into the dense Gram, never formed
        factored.clear()
        fit = inference.sample_posterior(model, opt.eta_hat, ds, n=20, seed=1, mode=opt.mode)
        assert fit.samples.shape == (20, model.free_dim)
        assert factored == [(model.free_dim, model.free_dim)]
        assert dense_reads == ["dense_gram"]

    @pytest.mark.parametrize("pattern,kind", [("M4", "bym2"), ("M1", "independent")])
    def test_whole_layout_mode_never_forms_the_prior_precision(self, pattern, kind, monkeypatch):
        # bym2 and every-block-shared models factor the dense Hessian on
        # every Newton step; its prior part comes from the per-block terms
        model = model_for(3, pattern, kind)
        eta = eta_at(model, 1.0)
        reads = []
        real_precision = LatentPrior.precision.fget

        def spy_precision(prior):
            reads.append("precision")
            return real_precision(prior)

        monkeypatch.setattr(LatentPrior, "precision", property(spy_precision))
        mode = conditional_mode(model, eta, PoissonLikelihood(dataset(3)))
        assert mode.n_iter >= 1 and reads == []

    def test_draws_come_from_the_dense_factor(self):
        ds, _ = simulate_dataset(
            GridSpec(6, 6), 3, pattern="M4", structure="independent", exposure=2e4, seed=5
        )
        model = model_for(3, "M4", "exchangeable", grid=GridSpec(6, 6))
        eta = eta_at(model, 1.0)
        mode = conditional_mode(model, eta, ds)
        assert "chol" not in vars(mode)
        fit = inference.sample_posterior(model, eta, ds, n=50, seed=4, mode=mode)
        z = np.random.default_rng(4).standard_normal((model.free_dim, 50))
        chol = sla.cholesky(mode.operator.dense(), lower=True)
        expected = mode.xi + sla.solve_triangular(chol, z, lower=True, trans="T").T
        assert np.allclose(fit.samples, expected, rtol=0, atol=1e-12)


class _TwoDimensionalCholesky:
    """``scipy.linalg`` as releases without stacked input see it: its
    ``cholesky`` refuses a 3-D array."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cholesky(self, a, *args, **kwargs):
        if np.ndim(a) != 2:
            raise ValueError("expected square matrix")
        return self._real.cholesky(a, *args, **kwargs)


@pytest.mark.parametrize(
    "pattern,kind", [("M4", "independent"), ("M6", "exchangeable"), ("M5", "exchangeable")]
)
def test_laplace_needs_no_stacked_scipy_cholesky(pattern, kind, monkeypatch):
    model = model_for(3, pattern, kind)
    eta = eta_at(model, MIXED_ZETAS[0])
    likelihood = PoissonLikelihood(dataset(3))
    want = laplace_log_marginal(model, eta, data=likelihood)
    monkeypatch.setattr(inference, "sla", _TwoDimensionalCholesky(sla))
    assert laplace_log_marginal(model, eta, data=likelihood) == want


class TestJitter:
    def test_singular_matrix_is_jittered_and_logged(self, caplog):
        singular = np.ones((4, 4))
        with caplog.at_level(logging.WARNING, logger="stratapc.inference"):
            chol = inference._chol_with_jitter(singular)
        assert chol is not None
        records = [r for r in caplog.records if r.name == "stratapc.inference"]
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "4 x 4" in message and "1e-12" in message
        assert np.allclose(chol @ chol.T, singular + 1e-12 * np.eye(4), atol=1e-15)

    def test_one_block_of_a_stack_is_jittered_and_logged(self, caplog):
        good = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        stack = np.stack([good, np.ones((3, 3)), 2.0 * good])
        with caplog.at_level(logging.WARNING, logger="stratapc.inference"):
            chol = inference._chol_with_jitter(stack)
        assert chol.shape == (3, 3, 3)
        assert np.array_equal(chol[0], sla.cholesky(good, lower=True))
        assert np.array_equal(chol[2], sla.cholesky(2.0 * good, lower=True))
        records = [r for r in caplog.records if r.name == "stratapc.inference"]
        assert len(records) == 1 and "3 x 3" in records[0].getMessage()

    def test_clean_factorization_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stratapc.inference"):
            inference._chol_with_jitter(np.stack([np.eye(3), 2.0 * np.eye(3)]))
        assert not [r for r in caplog.records if r.name == "stratapc.inference"]


def test_fit_uses_the_structured_operator():
    ds, _ = simulate_dataset(
        GridSpec(6, 6), 3, pattern="M4", structure="independent", exposure=2e4, seed=5
    )
    model = model_for(3, "M4", "exchangeable", grid=GridSpec(6, 6))
    fit = fit_model(model, ds, n_samples=30, seed=2, budget=10)
    opt_mode = conditional_mode(model, fit.eta_hat, ds, init=fit.latent_mean)
    assert isinstance(opt_mode.operator, StructuredHessian)
    assert opt_mode.logdet_hessian == pytest.approx(
        np.linalg.slogdet(opt_mode.operator.dense())[1], rel=1e-10
    )

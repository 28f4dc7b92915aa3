import re

import numpy as np
import pytest

from stratapc.core import (
    APCEffects,
    GridSpec,
    canonical_from_effects,
    default_baseline_spec,
    design_parts,
)
from stratapc.data import simulate_dataset
from stratapc.diagnostics import (
    RR_AMBIGUITY_NOTE,
    contrast_curve_from_canonical,
    cross_strata_rr,
    hindcast,
    ks_distance_from_uniform,
    pit,
)
from stratapc.inference import assemble_model, fit_model


@pytest.fixture(scope="module")
def m4_fit():
    grid = GridSpec(5, 6)
    ds, _ = simulate_dataset(grid, 3, pattern="M4", structure="independent",
                             exposure=1e4, seed=12)
    model = assemble_model(grid, 3, "M4", "independent")
    return ds, fit_model(model, ds, n_samples=400, seed=5, budget=200)


class TestPit:
    def test_mass_above_observation_gives_zero(self):
        samples = np.full((200, 3), 50.0)
        y = np.array([10.0, 20.0, 30.0])
        out = pit(samples, y)
        assert np.all(out.values == 0.0)

    def test_median_observation_near_half(self, rng):
        samples = rng.poisson(1000.0, size=(5000, 1)).astype(float)
        y = np.array([1000.0])
        out = pit(samples, y)
        assert out.values[0] == pytest.approx(0.5, abs=0.05)

    def test_values_in_unit_interval(self, rng):
        samples = rng.poisson(7.0, size=(300, 50)).astype(float)
        y = rng.poisson(7.0, size=50).astype(float)
        out = pit(samples, y)
        assert np.all((out.values >= 0) & (out.values <= 1))
        assert out.values.shape == (50,)

    def test_needs_enough_samples(self, rng):
        with pytest.raises(ValueError, match="100"):
            pit(np.zeros((50, 3)), np.zeros(3))

    def test_self_calibration(self, rng):
        # observations drawn from the predictive itself pass a KS check
        n_cells = 150
        threshold = 1.36 / np.sqrt(n_cells) * 1.5
        passes = 0
        lam = rng.uniform(3.0, 40.0, size=n_cells)
        samples = rng.poisson(lam[None, :], size=(400, n_cells)).astype(float)
        for rep in range(20):
            y = rng.poisson(lam).astype(float)
            out = pit(samples, y)
            passes += ks_distance_from_uniform(out.values) < threshold
        assert passes >= 18

    def test_density_integrates_to_one(self, rng):
        samples = rng.poisson(9.0, size=(500, 120)).astype(float)
        y = rng.poisson(9.0, size=120).astype(float)
        out = pit(samples, y)
        mass = np.trapezoid(out.density, out.density_grid)
        assert mass == pytest.approx(1.0, abs=0.05)


class TestHindcast:
    def test_determinism(self, m4_fit):
        ds, fit = m4_fit
        targets = np.array([[0, 1, 2], [2, 3, 4]])
        a = hindcast(fit, targets, ds.exposures, seed=11)
        b = hindcast(fit, targets, ds.exposures, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_mean_matches_rate_weighted_exposure(self, m4_fit):
        ds, fit = m4_fit
        targets = np.array([[0, 2, 3]])
        out = hindcast(fit, targets, ds.exposures, seed=2)
        cells = ds.grid.n_cells
        flat = 0 * cells + 3 * ds.grid.n_age + 2
        expected = float(np.mean(ds.exposures[0, 2, 3] * np.exp(fit.lograte_samples[:, flat])))
        se = out.samples[:, 0].std() / np.sqrt(out.samples.shape[0])
        assert out.samples[:, 0].mean() == pytest.approx(expected, abs=4 * se + 1e-9)

    def test_requires_exposures(self, m4_fit):
        _, fit = m4_fit
        with pytest.raises(ValueError):
            hindcast(fit, np.array([[0, 0, 0]]), None)

    def test_target_outside_grid(self, m4_fit):
        ds, fit = m4_fit
        with pytest.raises(IndexError):
            hindcast(fit, np.array([[0, 99, 0]]), ds.exposures)

    @pytest.mark.parametrize(
        "bad, first",
        [
            ([[0, 1, 1], [1, -1, 0], [5, 0, 0]], "(1, -1, 0)"),
            ([[0, 1, 1], [0, 0, 6]], "(0, 0, 6)"),
            ([[3, 0, 0], [0, 0, 0]], "(3, 0, 0)"),
            ([[0, 5, 0]], "(0, 5, 0)"),
        ],
    )
    def test_outside_grid_names_first_bad_target(self, m4_fit, bad, first):
        ds, fit = m4_fit
        assert (fit.model.n_strata, ds.grid.n_age, ds.grid.n_period) == (3, 5, 6)
        with pytest.raises(IndexError, match=re.escape(f"target cell {first} outside the grid")):
            hindcast(fit, np.array(bad), ds.exposures)


def effects_pair_shared_age(grid, rng):
    """Two strata with a common age vector (and its trend), distinct period
    and cohort effects."""
    alpha = rng.normal(size=grid.n_age)
    base = dict(alpha=alpha)
    eff1 = APCEffects(delta=rng.normal(), beta=rng.normal(size=grid.n_period),
                      gamma=rng.normal(size=grid.n_cohort), **base)
    eff2 = APCEffects(delta=rng.normal(), beta=rng.normal(size=grid.n_period),
                      gamma=rng.normal(size=grid.n_cohort), **base)
    return eff1, eff2


class TestContrastCurve:
    @pytest.mark.parametrize("block", ["period", "cohort"])
    def test_recovers_effect_contrast_up_to_constant(self, block, rng):
        grid = GridSpec(6, 7)
        spec = default_baseline_spec(grid, form="point-plus-two-slopes")
        parts = design_parts(grid, spec)
        eff1, eff2 = effects_pair_shared_age(grid, rng)
        c1 = canonical_from_effects(eff1, grid, spec).vector
        c2 = canonical_from_effects(eff2, grid, spec).vector
        curve = contrast_curve_from_canonical(c1, c2, parts, block, frozenset({"age"}))[0]
        truth = (eff1.beta - eff2.beta) if block == "period" else (eff1.gamma - eff2.gamma)
        anchored = curve - curve[0]
        assert np.allclose(anchored, truth - truth[0], atol=1e-9)

    def test_period_contrast_with_shared_cohort(self, rng):
        grid = GridSpec(5, 6)
        spec = default_baseline_spec(grid, form="three-points")
        parts = design_parts(grid, spec)
        gamma = rng.normal(size=grid.n_cohort)
        eff1 = APCEffects(rng.normal(), rng.normal(size=5), rng.normal(size=6), gamma)
        eff2 = APCEffects(rng.normal(), rng.normal(size=5), rng.normal(size=6), gamma)
        c1 = canonical_from_effects(eff1, grid, spec).vector
        c2 = canonical_from_effects(eff2, grid, spec).vector
        curve = contrast_curve_from_canonical(c1, c2, parts, "period", frozenset({"cohort"}))[0]
        truth = eff1.beta - eff2.beta
        assert np.allclose(curve - curve[0], truth - truth[0], atol=1e-9)

    def test_cohort_contrast_with_shared_period(self, rng):
        grid = GridSpec(5, 6)
        spec = default_baseline_spec(grid, form="three-points")
        parts = design_parts(grid, spec)
        beta = rng.normal(size=grid.n_period)
        eff1 = APCEffects(rng.normal(), rng.normal(size=5), beta, rng.normal(size=10))
        eff2 = APCEffects(rng.normal(), rng.normal(size=5), beta, rng.normal(size=10))
        c1 = canonical_from_effects(eff1, grid, spec).vector
        c2 = canonical_from_effects(eff2, grid, spec).vector
        curve = contrast_curve_from_canonical(c1, c2, parts, "cohort", frozenset({"period"}))[0]
        truth = eff1.gamma - eff2.gamma
        assert np.allclose(curve - curve[0], truth - truth[0], atol=1e-9)

    def test_level_shift_ambiguity(self, rng):
        # at the effects level, stratum-specific level shifts multiply the
        # raw relative-risk curve by a constant, exactly
        grid = GridSpec(6, 7)
        eff1, eff2 = effects_pair_shared_age(grid, rng)
        b1, b2 = 0.8, -0.3
        raw = np.exp(eff1.beta - eff2.beta)
        shifted = np.exp((eff1.beta + b1) - (eff2.beta + b2))
        assert np.allclose(shifted, raw * np.exp(b1 - b2), rtol=1e-12)
        assert np.allclose(shifted / shifted[0], raw / raw[0], rtol=1e-12)

        # the canonical reconstruction picks a level-free representative, so
        # shifted effects give the identical normalized curve
        spec = default_baseline_spec(grid, form="point-plus-two-slopes")
        parts = design_parts(grid, spec)
        eff1_shifted = APCEffects(eff1.delta, eff1.alpha, eff1.beta + b1, eff1.gamma)
        eff2_shifted = APCEffects(eff2.delta, eff2.alpha, eff2.beta + b2, eff2.gamma)
        c1 = canonical_from_effects(eff1, grid, spec).vector
        c2 = canonical_from_effects(eff2, grid, spec).vector
        c1s = canonical_from_effects(eff1_shifted, grid, spec).vector
        c2s = canonical_from_effects(eff2_shifted, grid, spec).vector
        shared = frozenset({"age"})
        curve = contrast_curve_from_canonical(c1, c2, parts, "period", shared)[0]
        curve_s = contrast_curve_from_canonical(c1s, c2s, parts, "period", shared)[0]
        norm = np.exp(curve - curve[0])
        norm_s = np.exp(curve_s - curve_s[0])
        assert np.allclose(norm, norm_s, atol=1e-9)
        assert np.allclose(norm, raw / raw[0], atol=1e-9)


class TestCrossStrataRR:
    def test_identical_strata_curve_is_one(self, rng):
        grid = GridSpec(5, 6)
        ds, _ = simulate_dataset(grid, 2, pattern="M4", structure="independent",
                                 exposure=1e4, seed=3)
        model = assemble_model(grid, 2, "M4", "independent")
        fit = fit_model(model, ds, n_samples=300, seed=1, budget=150)
        # compare a stratum against itself: exact ones at every index
        out = cross_strata_rr(fit, "period", 1, 1)
        assert np.allclose(out.median, 1.0, atol=1e-12)

    def test_first_entry_exactly_one(self, m4_fit):
        _, fit = m4_fit
        out = cross_strata_rr(fit, "period", 0, 1)
        assert out.median[0] == 1.0
        assert out.lower[0] == 1.0 and out.upper[0] == 1.0

    def test_metadata_carries_ambiguity_note(self, m4_fit):
        _, fit = m4_fit
        out = cross_strata_rr(fit, "cohort", 0, 2)
        assert out.note == RR_AMBIGUITY_NOTE
        assert out.licensed_by == "age"

    def test_unlicensed_pattern_refuses(self):
        grid = GridSpec(5, 6)
        ds, _ = simulate_dataset(grid, 2, pattern="M5", structure="independent",
                                 exposure=1e4, seed=8)
        model = assemble_model(grid, 2, "M5", "independent")
        fit = fit_model(model, ds, n_samples=200, seed=1, budget=100)
        with pytest.raises(ValueError, match="refuses"):
            cross_strata_rr(fit, "period", 0, 1)

    def test_bad_block_and_stratum(self, m4_fit):
        _, fit = m4_fit
        with pytest.raises(ValueError):
            cross_strata_rr(fit, "age", 0, 1)
        with pytest.raises(IndexError):
            cross_strata_rr(fit, "period", 0, 9)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratapc.core import (
    APCEffects,
    BaselineSpec,
    CanonicalParams,
    CollinearBaselineError,
    GridSpec,
    GroupElement,
    apply_group,
    build_design_matrix,
    canonical_from_effects,
    cell_index,
    cohort_index,
    default_baseline_spec,
    design_parts,
    flatten_surface,
    linear_coordinates,
    log_rates,
    middle_index,
    second_differences,
    unflatten_surface,
)


def random_effects(grid, rng, scale=1.0):
    return APCEffects(
        delta=float(rng.normal(scale=scale)),
        alpha=rng.normal(scale=scale, size=grid.n_age),
        beta=rng.normal(scale=scale, size=grid.n_period),
        gamma=rng.normal(scale=scale, size=grid.n_cohort),
    )


class TestGridSpec:
    def test_cohort_count(self):
        assert GridSpec(17, 18).n_cohort == 34
        assert GridSpec(3, 3).n_canonical == 8

    @pytest.mark.parametrize("a,t", [(2, 5), (5, 2), (1, 1)])
    def test_too_small(self, a, t):
        with pytest.raises(ValueError):
            GridSpec(a, t)


class TestCohortIndex:
    def test_oldest_age_first_period(self):
        assert cohort_index(5, 1, 5) == 1

    def test_application_dimensions(self):
        assert cohort_index(1, 18, 17) == 34

    def test_direct_formula(self):
        assert cohort_index(3, 4, 5) == 6

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            cohort_index(0, 1, 5)
        with pytest.raises(IndexError):
            cohort_index(6, 1, 5)


class TestMiddleIndex:
    def test_seventeen(self):
        assert middle_index(17) == 9

    def test_three(self):
        assert middle_index(3) == 2

    def test_even_errors(self):
        with pytest.raises(ValueError, match="BaselineSpec"):
            middle_index(4)


class TestLogRates:
    def test_zero_effects(self):
        g = GridSpec(4, 5)
        eff = APCEffects(0.0, np.zeros(4), np.zeros(5), np.zeros(8))
        assert np.array_equal(log_rates(eff, g), np.zeros((4, 5)))

    def test_constant_level(self):
        g = GridSpec(4, 5)
        eff = APCEffects(1.0, np.zeros(4), np.zeros(5), np.zeros(8))
        assert np.array_equal(log_rates(eff, g), np.ones((4, 5)))

    def test_hand_cell(self, rng):
        g = GridSpec(4, 6)
        eff = random_effects(g, rng)
        mu = log_rates(eff, g)
        # cell (i=2, j=3) in 1-based indexing: k = 4 - 2 + 3 = 5
        expected = eff.delta + eff.alpha[1] + eff.beta[2] + eff.gamma[4]
        assert mu[1, 2] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        g = GridSpec(4, 5)
        eff = APCEffects(0.0, np.zeros(3), np.zeros(5), np.zeros(8))
        with pytest.raises(ValueError):
            log_rates(eff, g)


class TestGroupAction:
    def test_identity(self, rng):
        g = GridSpec(5, 4)
        eff = random_effects(g, rng)
        out = apply_group(eff, GroupElement(), g)
        assert np.array_equal(out.alpha, eff.alpha)
        assert out.delta == eff.delta

    def test_level_shifts_only(self):
        g = GridSpec(5, 5)
        eff = APCEffects(0.0, np.zeros(5), np.zeros(5), np.zeros(9))
        out = apply_group(eff, GroupElement(a=1, b=1, c=1, d=0), g)
        assert out.delta == -3.0
        assert np.all(out.alpha == 1.0) and np.all(out.beta == 1.0) and np.all(out.gamma == 1.0)
        assert np.max(np.abs(log_rates(out, g))) == 0.0

    @given(
        a=st.integers(3, 10),
        t=st.integers(3, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariance(self, a, t, seed):
        rng = np.random.default_rng(seed)
        g = GridSpec(a, t)
        eff = random_effects(g, rng)
        ge = GroupElement(*rng.normal(size=4))
        diff = log_rates(apply_group(eff, ge, g), g) - log_rates(eff, g)
        assert np.max(np.abs(diff)) < 1e-12

    def test_composition(self, rng):
        g = GridSpec(6, 5)
        eff = random_effects(g, rng)
        g1 = GroupElement(*rng.normal(size=4))
        g2 = GroupElement(*rng.normal(size=4))
        via_two = apply_group(apply_group(eff, g1, g), g2, g)
        combined = GroupElement(g1.a + g2.a, g1.b + g2.b, g1.c + g2.c, g1.d + g2.d)
        via_one = apply_group(eff, combined, g)
        assert np.allclose(via_two.alpha, via_one.alpha, atol=1e-12)
        assert np.allclose(via_two.gamma, via_one.gamma, atol=1e-12)
        assert via_two.delta == pytest.approx(via_one.delta, abs=1e-12)

    def test_curvatures_identified(self, rng):
        g = GridSpec(7, 5)
        eff = random_effects(g, rng)
        ge = GroupElement(*rng.normal(size=4))
        c1 = canonical_from_effects(eff, g)
        c2 = canonical_from_effects(apply_group(eff, ge, g), g)
        assert np.allclose(c1.curv_age, c2.curv_age, atol=1e-12, rtol=0)
        assert np.allclose(c1.curv_period, c2.curv_period, atol=1e-12, rtol=0)
        assert np.allclose(c1.curv_cohort, c2.curv_cohort, atol=1e-12, rtol=0)


class TestSecondDifferences:
    def test_linear_killed(self):
        assert np.array_equal(second_differences(np.array([1.0, 2, 3, 4])), [0.0, 0.0])

    def test_quadratic_constant(self):
        assert np.array_equal(second_differences(np.array([1.0, 4, 9, 16])), [2.0, 2.0])

    def test_alternating(self):
        assert np.array_equal(second_differences(np.array([0.0, 1, 0, 1])), [-2.0, 2.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            second_differences(np.array([1.0, 2.0]))

    @given(
        n=st.integers(3, 30),
        intercept=st.floats(-5, 5),
        slope=st.floats(-5, 5),
    )
    def test_affine_gives_zero(self, n, intercept, slope):
        v = intercept + slope * np.arange(n)
        assert np.max(np.abs(second_differences(v))) < 1e-12


class TestDesignMatrix:
    def test_three_by_three_shape_rank(self):
        m = build_design_matrix(GridSpec(3, 3))
        assert m.shape == (9, 8)
        assert np.linalg.matrix_rank(m) == 8

    def test_application_shape(self):
        m = build_design_matrix(GridSpec(17, 18))
        assert m.shape == (306, 66)
        assert np.linalg.matrix_rank(m) == 66

    def test_middle_cell_selects_first_coordinate(self):
        g = GridSpec(5, 5)
        spec = default_baseline_spec(g, form="three-points")  # middle age-cohort triple, U=3
        m = build_design_matrix(g, spec)
        # (i, k) = (U, U) maps to (i, j) = (3, 1): vec row 2 (0-based)
        expected = np.zeros(g.n_canonical)
        expected[0] = 1.0
        assert np.array_equal(m[2], expected)

    @pytest.mark.parametrize("form", ["three-points", "point-plus-two-slopes"])
    def test_round_trip(self, form, rng):
        for a, t in [(3, 4), (5, 5), (8, 6), (4, 9)]:
            g = GridSpec(a, t)
            spec = default_baseline_spec(g, form=form)
            m = build_design_matrix(g, spec)
            eff = random_effects(g, rng)
            xi = canonical_from_effects(eff, g, spec)
            recon = m @ xi.vector
            assert np.max(np.abs(recon - flatten_surface(log_rates(eff, g)))) < 1e-10

    def test_forms_share_curvature_columns(self):
        g = GridSpec(6, 7)
        spec3 = default_baseline_spec(g, form="three-points")
        spec_s = default_baseline_spec(g, form="point-plus-two-slopes")
        m3 = build_design_matrix(g, spec3)
        ms = build_design_matrix(g, spec_s)
        assert np.array_equal(m3[:, 3:], ms[:, 3:])
        assert not np.array_equal(m3[:, :3], ms[:, :3])

    def test_collinear_triple_rejected(self):
        g = GridSpec(5, 5)
        spec = BaselineSpec(coordinates="age-period", triple=((1, 1), (1, 2), (1, 3)))
        with pytest.raises(CollinearBaselineError):
            build_design_matrix(g, spec)

    def test_triple_acceptable_in_both_coordinate_systems(self):
        g = GridSpec(5, 5)
        triples = {
            "age-period": ((1, 1), (1, 2), (2, 1)),
            "age-cohort": ((5, 1), (5, 2), (4, 2)),
        }
        for coords, triple in triples.items():
            spec = BaselineSpec(coordinates=coords, triple=triple)
            m = build_design_matrix(g, spec)
            assert np.linalg.matrix_rank(m) == g.n_canonical

    def test_out_of_grid_triple(self):
        g = GridSpec(5, 5)
        spec = BaselineSpec(coordinates="age-period", triple=((6, 1), (5, 1), (5, 2)))
        with pytest.raises(ValueError):
            build_design_matrix(g, spec)


class TestCanonicalParams:
    def test_zero_effects_zero_canonical(self):
        g = GridSpec(5, 6)
        eff = APCEffects(0.0, np.zeros(5), np.zeros(6), np.zeros(10))
        xi = canonical_from_effects(eff, g)
        assert np.array_equal(xi.vector, np.zeros(g.n_canonical))

    def test_vector_round_trip(self, rng):
        g = GridSpec(5, 6)
        xi = canonical_from_effects(random_effects(g, rng), g)
        back = CanonicalParams.from_vector(xi.vector, g)
        assert np.array_equal(back.curv_cohort, xi.curv_cohort)

    def test_total_length(self):
        g = GridSpec(7, 9)
        xi = canonical_from_effects(
            APCEffects(0.0, np.zeros(7), np.zeros(9), np.zeros(15)), g
        )
        assert xi.vector.shape == (2 * (7 + 9) - 4,)

    def test_linear_coordinates_decompose_surface(self, rng):
        g = GridSpec(6, 5)
        spec = default_baseline_spec(g, form="point-plus-two-slopes")
        parts = design_parts(g, spec)
        eff = random_effects(g, rng)
        xi = canonical_from_effects(eff, g, spec)
        t = linear_coordinates(xi.vector, parts)
        curv = np.concatenate([xi.curv_age, xi.curv_period, xi.curv_cohort])
        recon = parts.x_lin @ t + parts.x_curv @ curv
        assert np.max(np.abs(recon - flatten_surface(log_rates(eff, g)))) < 1e-10


class TestFlatten:
    def test_round_trip(self, rng):
        g = GridSpec(4, 6)
        surf = rng.normal(size=(4, 6))
        assert np.array_equal(unflatten_surface(flatten_surface(surf), g), surf)

    def test_period_major_order(self):
        g = GridSpec(3, 3)
        surf = np.arange(9.0).reshape(3, 3)
        flat = flatten_surface(surf)
        # all ages for period 1 first
        assert np.array_equal(flat[:3], surf[:, 0])

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["surface", "strata", "draws"])
    def test_stacks_match_the_explicit_formulas(self, rng, lead):
        g = GridSpec(4, 5)
        arr = rng.normal(size=(*lead, 4, 5))
        flat = flatten_surface(arr)
        assert flat.shape == (*lead, g.n_cells)
        # column-major by period within each surface, stratum-major across a stack
        per_surface = arr.reshape(-1, 4, 5)
        expected = np.stack([s.ravel(order="F") for s in per_surface])
        assert np.array_equal(flat.reshape(-1, g.n_cells), expected)
        if len(lead) == 1:
            assert np.array_equal(flat, arr.transpose(0, 2, 1).reshape(lead[0], -1))
        assert np.array_equal(unflatten_surface(flat, g), arr)

    def test_cell_index_is_where_flatten_puts_the_cell(self, rng):
        g = GridSpec(4, 5)
        surf = rng.normal(size=(4, 5))
        ages, periods = np.meshgrid(np.arange(4), np.arange(5), indexing="ij")
        index = cell_index(ages, periods, g.n_age)
        assert np.array_equal(flatten_surface(surf)[index], surf)
        assert sorted(index.ravel()) == list(range(g.n_cells))
        assert cell_index(2, 3, g.n_age) == 14

import os
import threading

import numpy as np
import pytest

from stratapc import _kernels
from stratapc.core import GridSpec
from stratapc.covariance import AdjacencyGraph
from stratapc.data import simulate_dataset
from stratapc.selection import GridConfig, fit_grid, pointwise_loglik, waic


class TestWaic:
    def test_identical_samples_zero_penalty(self):
        ll = np.tile(np.array([-1.0, -2.0, -0.5]), (5, 1))
        out = waic(ll)
        assert out.p_waic == 0.0
        assert out.waic == pytest.approx(-2.0 * ll[0].sum(), abs=1e-12)

    def test_hand_computed_two_samples(self):
        ll = np.array([[-1.0], [-3.0]])
        out = waic(ll)
        lppd = np.log((np.exp(-1.0) + np.exp(-3.0)) / 2.0)
        assert out.lppd == pytest.approx(lppd, abs=1e-12)
        assert out.p_waic == pytest.approx(2.0, abs=1e-12)  # ddof=1 variance
        assert out.waic == pytest.approx(-2 * (lppd - 2.0), abs=1e-12)

    def test_matches_naive_implementation(self, rng):
        ll = rng.normal(-2.0, 0.4, size=(60, 30))
        out = waic(ll)
        naive_lppd = np.sum(np.log(np.mean(np.exp(ll), axis=0)))
        naive_p = np.sum(np.var(ll, axis=0, ddof=1))
        assert out.lppd == pytest.approx(naive_lppd, abs=1e-10)
        assert out.p_waic == pytest.approx(naive_p, abs=1e-10)

    def test_sample_reordering_invariance(self, rng):
        ll = rng.normal(-2.0, 0.4, size=(50, 8))
        out = waic(ll)
        perm = rng.permutation(50)
        out2 = waic(ll[perm])
        assert out2.waic == pytest.approx(out.waic, abs=1e-10)

    def test_constant_shift_moves_lppd_not_penalty(self, rng):
        ll = rng.normal(-2.0, 0.4, size=(50, 8))
        shifted = ll.copy()
        shifted[:, 3] += 1.7
        a, b = waic(ll), waic(shifted)
        assert b.p_waic == pytest.approx(a.p_waic, abs=1e-10)
        assert b.lppd == pytest.approx(a.lppd + 1.7, abs=1e-10)

    def test_nonfinite_cells_flagged(self, rng):
        ll = rng.normal(-2.0, 0.4, size=(50, 8))
        ll[:, 2] = -np.inf
        with pytest.warns(RuntimeWarning):
            out = waic(ll)
        assert list(out.flagged_cells) == [2]
        assert np.isfinite(out.waic)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            waic(np.zeros((1, 5)))


def quick_grid_config(**kw):
    base = dict(
        structures=("independent", "exchangeable"),
        n_samples=200,
        budget=150,
        seed=3,
    )
    base.update(kw)
    return GridConfig(**base)


class TestFitGrid:
    def test_single_stratum_only_m1(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 1, pattern="M1", seed=1, exposure=1e4)
        result = fit_grid(ds, quick_grid_config())
        assert len(result.entries) == 1
        assert result.entries[0].pattern == "M1"

    def test_full_grid_is_sixteen_with_graph(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 3, pattern="M5", seed=2, exposure=1e4)
        graph = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
        config = quick_grid_config(
            structures=("independent", "exchangeable", "bym2"), graph=graph,
            n_samples=120, budget=60,
        )
        result = fit_grid(ds, config)
        assert len(result.entries) == 16

    def test_eleven_without_graph(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 2, pattern="M5", seed=4, exposure=1e4)
        result = fit_grid(ds, quick_grid_config(n_samples=120, budget=60))
        assert len(result.entries) == 11

    def test_bym2_without_graph_rejected(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 2, pattern="M5", seed=4)
        with pytest.raises(ValueError, match="graph"):
            fit_grid(ds, quick_grid_config(structures=("independent", "bym2")))

    @pytest.mark.parametrize(
        "names, unknown",
        [({"patterns": ("M9", "M4")}, "pattern 'M9'"),
         ({"patterns": ("m4",)}, "pattern 'm4'"),
         ({"structures": ("exchangable",)}, "structure 'exchangable'")],
    )
    def test_unknown_names_rejected(self, names, unknown):
        # before, each was dropped and the grid fitted the names it knew
        with pytest.raises(ValueError, match=f"unknown {unknown}; use "):
            GridConfig(**names)

    def test_ranking_invariant_to_fit_order(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 2, pattern="M4", seed=5, exposure=1e4)
        config = quick_grid_config(patterns=("M1", "M4", "M5"), n_samples=150, budget=100)
        result = fit_grid(ds, config)
        config_rev = quick_grid_config(
            patterns=("M5", "M4", "M1"), n_samples=150, budget=100
        )
        result_rev = fit_grid(ds, config_rev)
        ranked = [(e.pattern, e.structure) for e in result.ranked()]
        ranked_rev = [(e.pattern, e.structure) for e in result_rev.ranked()]
        assert ranked == ranked_rev
        for spec in ranked:
            assert result.entry(*spec).waic == pytest.approx(
                result_rev.entry(*spec).waic, abs=1e-9
            )

    def test_errors_recorded_not_raised(self, rng):
        # an unconnected bym2 graph fails at assembly but the grid survives
        ds, _ = simulate_dataset(GridSpec(4, 4), 4, pattern="M5", seed=6, exposure=1e4)
        graph = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
        config = quick_grid_config(
            structures=("independent", "bym2"), graph=graph,
            patterns=("M1", "M5"), n_samples=120, budget=60,
        )
        result = fit_grid(ds, config)
        bym2_entries = [e for e in result.entries if e.structure == "bym2"]
        assert bym2_entries and all(not e.ok for e in bym2_entries)
        ind_entries = [e for e in result.entries if e.structure == "independent"]
        assert all(e.ok for e in ind_entries)

    def test_worker_count_does_not_change_results(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 2, pattern="M5", seed=8, exposure=1e4)
        sequential = fit_grid(ds, quick_grid_config(patterns=("M1", "M5"), n_samples=100, budget=60))
        parallel = fit_grid(
            ds,
            quick_grid_config(patterns=("M1", "M5"), n_samples=100, budget=60, workers=2),
        )
        for a, b in zip(sequential.ranked(), parallel.ranked()):
            assert (a.pattern, a.structure) == (b.pattern, b.structure)
            assert a.waic == pytest.approx(b.waic, abs=1e-12)

    def test_workers_after_the_parent_pool_started(self, monkeypatch):
        # the parent's readers map on threads before the grid forks its
        # workers: no reader thread is alive at the fork, and the workers
        # give the same bits
        monkeypatch.setattr(_kernels, "cores", lambda: 2)
        ds, _ = simulate_dataset(GridSpec(4, 4), 2, pattern="M5", seed=8, exposure=1e4)
        sequential = fit_grid(ds, quick_grid_config(patterns=("M1", "M5"), n_samples=100, budget=60))
        threads_at_fork = []
        fork = os.fork

        def traced_fork():
            threads_at_fork.append([t.name for t in threading.enumerate()])
            return fork()

        monkeypatch.setattr(os, "fork", traced_fork)
        parallel = fit_grid(
            ds,
            quick_grid_config(patterns=("M1", "M5"), n_samples=100, budget=60, workers=2),
        )
        assert threads_at_fork
        for names in threads_at_fork:
            assert not [n for n in names if n.startswith("stratapc-reader")], names
        assert len(parallel.entries) == len(sequential.entries)
        for a, b in zip(sequential.entries, parallel.entries):
            assert (a.pattern, a.structure) == (b.pattern, b.structure)
            assert (a.waic, a.lppd, a.p_waic, a.converged) == (b.waic, b.lppd, b.p_waic, b.converged)
            assert np.array_equal(a.fit.samples, b.fit.samples)

    def test_pointwise_loglik_shape(self, rng):
        ds, _ = simulate_dataset(GridSpec(4, 4), 2, pattern="M5", seed=7, exposure=1e4)
        result = fit_grid(ds, quick_grid_config(patterns=("M5",), n_samples=150, budget=80))
        entry = result.entry("M5", "independent")
        ll = pointwise_loglik(entry.fit, ds)
        assert ll.shape == (150, int(ds.observed.sum()))

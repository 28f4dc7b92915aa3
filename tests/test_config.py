import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stratapc.cli import main
from stratapc.config import ConfigError, RunConfig
from stratapc.core import BaselineSpec
from stratapc.priors import BaselineMeanPrior, PriorConfig
from stratapc.report import provenance
from stratapc.selection import GridConfig

# the example configuration of the README's "Config JSON" section
README_CONFIG = {
    "grid": {"age_start": 0, "age_end": 80, "year_start": 1925,
             "year_end": 2015, "bin_width": 5},
    "baseline": {"coordinates": "age-cohort", "form": "point-plus-two-slopes",
                 "triple": [[9, 9], [10, 9], [9, 10]]},
    "priors": {"epsilon_age": 0.1823, "epsilon_period": 0.0953,
               "epsilon_cohort": 0.00995, "epsilon_baseline": 0.0488,
               "q": 0.05, "nu0_mean": [-5.2983, 0.3, -0.1],
               "nu0_variances": [1.0, 0.1, 0.1],
               "exchangeable_variance": 5.0},
    "models": ["M1", "M2", "M3", "M4", "M5", "M6"],
    "structures": ["independent", "exchangeable", "bym2"],
    "inference": {"n_samples": 1000, "budget": 2000, "rel_tol": 1e-6},
    "seed": 20240801,
}
GRID_ONLY = {"grid": README_CONFIG["grid"]}
README = Path(__file__).resolve().parents[1] / "README.md"


def config_hash(raw: dict) -> str:
    return provenance(RunConfig.from_dict(raw).canonical_dict(), 0)["config_hash"]


class TestCanonicalHash:
    # pinned so the provenance of earlier outputs stays comparable
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (README_CONFIG, "e0a074043169bdc0f5e0222b9eaf026cab2f8ffef9807e41bb3a8f441e8384ff"),
            (GRID_ONLY, "ddf17699e25d9bc349b61f3c9e323fbf43e9a4e25372f5f06a6976f0f7eed555"),
        ],
        ids=["readme", "grid-only"],
    )
    def test_hash_pinned(self, raw, expected):
        assert config_hash(raw) == expected

    @pytest.mark.parametrize("raw", [README_CONFIG, GRID_ONLY], ids=["readme", "grid-only"])
    def test_canonical_dict_round_trips(self, raw):
        canonical = RunConfig.from_dict(raw).canonical_dict()
        assert RunConfig.from_dict(canonical).canonical_dict() == canonical


class TestDefaults:
    def test_missing_keys_take_library_defaults(self):
        assert RunConfig.from_dict(GRID_ONLY).fit == GridConfig()

    def test_partial_priors_keep_other_defaults(self):
        raw = {**GRID_ONLY, "priors": {"epsilon_age": 0.2, "q": 0.1, "nu0_mean": [-5, 0, 0]}}
        default = PriorConfig()
        expected = dataclasses.replace(
            default,
            epsilons={**default.epsilons, "age": 0.2},
            q=0.1,
            baseline_mean=BaselineMeanPrior(
                mean=np.array([-5.0, 0.0, 0.0]), variances=default.baseline_mean.variances
            ),
        )
        assert RunConfig.from_dict(raw).fit.prior_config == expected

    def test_readme_block_matches_copy(self):
        """README_CONFIG is a copy of the README's example; a key renamed
        or misspelt there fails here rather than running on defaults."""
        text = README.read_text()
        block = re.search(r"\*\*Config JSON\*\*.*?```json\n(.*?)```", text, re.DOTALL)
        assert block is not None
        assert json.loads(block.group(1)) == README_CONFIG

    def test_readme_config_fields(self):
        fit = RunConfig.from_dict(README_CONFIG).fit
        assert fit.baseline_spec == BaselineSpec(
            "age-cohort", ((9, 9), (10, 9), (9, 10)), "point-plus-two-slopes"
        )
        assert fit.patterns == tuple(README_CONFIG["models"])
        assert fit.seed == 20240801
        assert fit.graph is None and fit.workers == 1


class TestRanges:
    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"inference": {"n_samples": 1}}, "inference.n_samples"),
            ({"inference": {"budget": 0}}, "inference.budget"),
            ({"inference": {"budget": "many"}}, "inference.budget"),
            ({"inference": {"rel_tol": 0.0}}, "inference.rel_tol"),
            ({"inference": {"rel_tol": float("inf")}}, "inference.rel_tol"),
            ({"inference": {"rel_tol": float("nan")}}, "inference.rel_tol"),
            ({"inference": {"eta_grid": False}}, "inference.eta_grid"),  # a removed key
            ({"seed": -1}, "seed"),
            ({"models": ["M9"]}, "models"),
            ({"models": "M1"}, "models"),
            ({"structures": ["bogus"]}, "structures"),
            ({"priors": {"nu0_variances": [1.0, 0.0, 1.0]}}, "priors"),
            ({"inference": {"n_samples": 2.9}}, "inference.n_samples"),
            ({"inference": {"budget": True}}, "inference.budget"),
            ({"seed": 1.5}, "seed"),
            ({"grid": {**GRID_ONLY["grid"], "age_start": "zero"}}, "grid.age_start"),
            ({"grid": {**GRID_ONLY["grid"], "year_end": 2015.5}}, "grid.year_end"),
            ({"grid": {**GRID_ONLY["grid"], "age_end": 81}}, "grid"),
            ({"grid": {**GRID_ONLY["grid"], "bin_width": 0}}, "grid"),
            ({"baseline": {"triple": [[9, 9], [10, 9.5], [9, 10]]}}, "baseline"),
            ({"inference": {"n_sample": 100}}, "inference.n_sample"),
            ({"inference": {"budgt": 20}}, "inference.budgt"),
            ({"priors": {"epsilon_ages": 0.2}}, "priors.epsilon_ages"),
            ({"baseline": {**README_CONFIG["baseline"], "fomr": "three-points"}}, "baseline.fomr"),
            ({"grid": {**GRID_ONLY["grid"], "bin_widht": 5}}, "grid.bin_widht"),
            ({"prior": {"q": 0.1}}, "prior"),
            ({"structure": ["independent"]}, "structure"),
            ({"sead": 3}, "sead"),
            ({"baseline": {**README_CONFIG["baseline"], "form": "three-points"}}, "baseline.form"),
            ({"priors": {"q": 1.5}}, "priors"),
            ({"priors": {"q": 0.0}}, "priors"),
            ({"priors": {"epsilon_age": 0}}, "priors"),
            ({"priors": {"epsilon_cohort": -0.1}}, "priors"),
            ({"priors": {"epsilon_period": float("inf")}}, "priors"),
            ({"priors": {"exchangeable_variance": -2}}, "priors"),
            ({"priors": {"exchangeable_variance": float("nan")}}, "priors"),
            ({"priors": {"nu0_mean": [float("inf"), 0.0, 0.0]}}, "priors"),
            ({"priors": {"nu0_variances": [float("nan"), 1.0, 1.0]}}, "priors"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_out_of_range_names_field(self, raw, field):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**GRID_ONLY, **raw})
        assert err.value.field == field

    def test_smallest_allowed_values(self):
        raw = {**GRID_ONLY, "inference": {"n_samples": 2, "budget": 1, "rel_tol": 1e-300},
               "seed": 0}
        fit = RunConfig.from_dict(raw).fit
        assert (fit.n_samples, fit.budget, fit.rel_tol, fit.seed) == (2, 1, 1e-300, 0)

    def test_integral_floats_are_integers(self):
        raw = {"grid": {k: float(v) for k, v in GRID_ONLY["grid"].items()},
               "inference": {"n_samples": 1000.0, "budget": 20.0}, "seed": 7.0}
        config = RunConfig.from_dict(raw)
        fit = config.fit
        values = (fit.n_samples, fit.budget, fit.seed, *dataclasses.astuple(config.window))
        assert values == (1000, 20, 7, 0, 80, 1925, 2015, 5)
        assert all(type(v) is int for v in values)


class TestSectionTypes:
    @pytest.mark.parametrize(
        "raw, section",
        [
            ({"grid": 5}, "grid"),
            ({**GRID_ONLY, "inference": 5}, "inference"),
            ({**GRID_ONLY, "priors": [1]}, "priors"),
            ({**GRID_ONLY, "baseline": 3}, "baseline"),
            ([GRID_ONLY], "<document>"),
        ],
        ids=["grid", "inference", "priors", "baseline", "document"],
    )
    def test_non_object_section_is_config_error(self, raw, section, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert err.value.field == section
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        io = ["--config", str(cfg), "--data", str(tmp_path / "data.csv"), "--out", str(out)]
        rc = main(["fit", *io, "--pattern", "M4", "--structure", "independent"])
        assert rc == 1
        assert not out.exists()
        err_lines = capsys.readouterr().err.splitlines()
        assert any("error:" in line and repr(section) in line for line in err_lines)

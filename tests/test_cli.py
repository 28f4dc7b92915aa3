import json

import numpy as np
import pytest

from stratapc import _kernels, selection
from stratapc.cli import main
from stratapc.core import BaselineSpec
from stratapc.priors import BaselineMeanPrior, PriorConfig
from stratapc.report import read_csv


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(
        [
            "simulate", "--out", str(out), "--n-age", "6", "--n-period", "6",
            "--n-strata", "3", "--pattern", "M4", "--structure", "independent",
            "--exposure", "20000", "--seed", "7", "--emit-graph",
        ]
    )
    assert rc == 0
    return out


def fast_config(path, config=None):
    base = {
        "grid": {"age_start": 0, "age_end": 5, "year_start": 0, "year_end": 6, "bin_width": 1},
        "inference": {"n_samples": 150, "budget": 250},
        "seed": 11,
    }
    if config:
        base.update(config)
    path.write_text(json.dumps(base))
    return path


def fit_one_stratum(tmp_path, deaths, exposure):
    """``stratapc fit`` of M1 on one 6x6 stratum with the same deaths and
    exposure in every cell."""
    rows = [f"a,{age},{year},{deaths},{exposure}" for age in range(6) for year in range(6)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["stratum,age,year,deaths,exposure", *rows]) + "\n")
    cfg = fast_config(tmp_path / "config.json")
    return main(["fit", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "y"),
                 "--pattern", "M1", "--structure", "independent"])


class TestSimulate:
    def test_artifacts_exist(self, sim_dir):
        for name in ("data.csv", "truth.csv", "config.json", "graph.csv", "provenance.json"):
            assert (sim_dir / name).exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--out", str(out), "--seed", "3"]) == 0
        assert (a / "data.csv").read_text() == (b / "data.csv").read_text()


class TestFit:
    def test_round_trip(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "fit"
        rc = main(
            [
                "fit", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out), "--pattern", "M4", "--structure", "independent",
                "--svg",
            ]
        )
        assert rc == 0
        summary = json.loads((out / "fit.json").read_text())
        assert summary["converged"] is True
        assert np.isfinite(summary["waic"])
        assert summary["waic_excluded_cells"] == 0
        assert "graph" not in summary
        env = summary["provenance"]["environment"]
        assert env["cores"] >= 1
        assert set(env["openblas_threads"].values()) <= {1}  # the import-time pin
        # one posterior-reader thread per core, up to the pool's cap
        assert env["reader_threads"] == min(env["cores"], _kernels.MAX_READER_THREADS)
        header, rows = read_csv(out / "logrates.csv")
        assert len(rows) == 3 * 6 * 6
        assert (out / "age_curves.svg").exists()

    def test_invalid_config_names_field(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {"grid": {"age_start": 0, "age_end": 80, "year_start": 0,
                          "year_end": 6, "bin_width": 3}}
            )
        )
        rc = main(
            [
                "fit", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(tmp_path / "x"), "--pattern", "M4",
                "--structure", "independent",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "bin_width" in err

    def test_numerical_failure_exit_2(self, tmp_path, capsys, recwarn):
        # a true rate of 1e400 is beyond float range: the likelihood
        # overflows at the start, so no point can be evaluated
        assert fit_one_stratum(tmp_path, "1e200", "1e-200") == 2
        assert "Laplace objective is not finite at the initial point" in capsys.readouterr().err
        assert not [w for w in recwarn if "encountered in" in str(w.message)]

    def test_exposures_past_float_range_fit(self, tmp_path, recwarn):
        # the exposures sum past the float range; the start is taken in log space
        assert fit_one_stratum(tmp_path, "1000000", "1e308") == 0
        assert not [w for w in recwarn if any(m in str(w.message) for m in ("divide", "overflow"))]

    def test_search_record_printed_once_per_command(self, sim_dir, tmp_path, capsys):
        cfg = fast_config(tmp_path / "config.json", {"inference": {"n_samples": 120, "budget": 3}})
        for run in ("a", "b"):
            rc = main(
                [
                    "fit", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                    "--out", str(tmp_path / run), "--pattern", "M4", "--structure", "independent",
                ]
            )
            assert rc == 0
            err = capsys.readouterr().err
            assert err.count("hyperparameter search stopped after 3 evaluations") == 1, err


class TestGrid:
    def test_grid_csv_rows(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json", {"inference": {"n_samples": 120, "budget": 60}})
        out = tmp_path / "grid"
        rc = main(
            [
                "grid", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--graph", str(sim_dir / "graph.csv"), "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out / "grid.csv")
        assert header[:5] == ["pattern", "structure", "waic", "lppd", "p_waic"]
        assert len(rows) == 16
        report = json.loads((out / "grid.json").read_text())
        assert report["best"] is not None

    def test_without_graph_bym2_rows_fail(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json", {"inference": {"n_samples": 120, "budget": 60}})
        out = tmp_path / "grid"
        rc = main(
            [
                "grid", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out / "grid.csv")
        assert header == ["pattern", "structure", "waic", "lppd", "p_waic", "converged",
                          "waic_excluded_cells", "error"]
        assert len(rows) == 16
        failed = [row for row in rows if row[-1]]
        assert [row[1] for row in failed] == ["bym2"] * 5
        assert {row[-1] for row in failed} == {
            "ValueError: bym2 structure requires an adjacency graph"
        }
        assert {row[6] for row in rows} == {"0"}
        report = json.loads((out / "grid.json").read_text())
        assert report["n_entries"] == 16 and "graph" not in report
        assert [e["waic_excluded_cells"] for e in report["entries"]] == [0] * 16

    def test_structures_filter(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json", {"inference": {"n_samples": 120, "budget": 60}})
        out = tmp_path / "grid2"
        rc = main(
            [
                "grid", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out), "--structures", "independent",
                "--models", "M1,M4,M5",
            ]
        )
        assert rc == 0
        _, rows = read_csv(out / "grid.csv")
        assert len(rows) == 3


class TestPriorCheck:
    def test_summary_written(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "pc"
        rc = main(
            [
                "prior-check", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out), "--sims", "40",
            ]
        )
        assert rc == 0
        summary = json.loads((out / "prior_check.json").read_text())
        assert summary["n_sims"] == 40
        assert "frac_max_exceeds_observed" in summary

    def test_graph_audit_in_meta(self, sim_dir, tmp_path):
        # s1-s2 is an augmented link: it joins the two components of s0-s1 and s2
        graph = tmp_path / "graph.csv"
        graph.write_text("from,to,augmented\ns0,s1,false\ns1,s2,true\n")
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "pc"
        rc = main(
            [
                "prior-check", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--graph", str(graph), "--out", str(out), "--structure", "bym2",
                "--sims", "5",
            ]
        )
        assert rc == 0
        summary = json.loads((out / "prior_check.json").read_text())
        assert summary["graph"] == {
            "n_components_before": 2,
            "n_components_after": 1,
            "augmented_edges": [["s1", "s2"]],
        }


class TestHindcast:
    def test_mask_fit_predict(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "hc"
        rc = main(
            [
                "hindcast", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out), "--pattern", "M4", "--structure", "independent",
                "--mask-stratum", "s1", "--mask-year-from", "0",
                "--mask-year-to", "3", "--svg",
            ]
        )
        assert rc == 0
        header, rows = read_csv(out / "hindcast.csv")
        assert len(rows) == 6 * 3  # six ages, three masked periods
        summary = json.loads((out / "hindcast.json").read_text())
        assert 0.0 <= summary["coverage_95"] <= 1.0
        assert (out / "pit_density.csv").exists()

    def test_empty_mask_is_usage_error(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json")
        rc = main(
            [
                "hindcast", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(tmp_path / "hc2"), "--pattern", "M4",
                "--structure", "independent", "--mask-stratum", "s1",
                "--mask-year-from", "4", "--mask-year-to", "4",
            ]
        )
        assert rc == 1


class TestRR:
    def test_curve_and_disclaimer(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "rr"
        rc = main(
            [
                "rr", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out), "--pattern", "M4", "--structure", "independent",
                "--block", "period", "--r1", "s0", "--r2", "s2",
            ]
        )
        assert rc == 0
        header, rows = read_csv(out / "rr.csv")
        assert len(rows) == 6
        assert float(rows[0][1]) == 1.0
        meta = json.loads((out / "rr.json").read_text())
        assert "multiplicative" in meta["ambiguity"]

    def test_unknown_stratum_usage_error(self, sim_dir, tmp_path):
        cfg = fast_config(tmp_path / "config.json")
        rc = main(
            [
                "rr", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(tmp_path / "rr2"), "--pattern", "M4",
                "--structure", "independent", "--block", "period",
                "--r1", "nope", "--r2", "s1",
            ]
        )
        assert rc == 1


class TestFitSettings:
    SETTINGS = {"n_samples": 120, "budget": 30, "rel_tol": 1e-4}
    MODEL = ["--pattern", "M4", "--structure", "independent"]

    @pytest.mark.parametrize(
        "command",
        [
            ["fit", *MODEL],
            ["grid", "--models", "M4", "--structures", "independent"],
            ["hindcast", *MODEL, "--mask-stratum", "s1", "--mask-year-from", "0",
             "--mask-year-to", "3"],
            ["rr", *MODEL, "--block", "period", "--r1", "s0", "--r2", "s2"],
        ],
        ids=lambda c: c[0],
    )
    def test_config_settings_reach_fit_model(self, sim_dir, tmp_path, monkeypatch, command):
        calls = record_calls(monkeypatch)
        cfg = fast_config(tmp_path / "config.json", {"inference": self.SETTINGS})
        io = ["--config", str(cfg), "--data", str(sim_dir / "data.csv"),
              "--out", str(tmp_path / "out")]
        assert main([command[0], *io, *command[1:]]) == 0
        assert len(calls) == 1
        assert {k: calls[0].get(k) for k in self.SETTINGS} == self.SETTINGS

    @pytest.mark.parametrize(
        "command",
        [
            ["fit", *MODEL],
            ["grid", "--models", "M4", "--structures", "independent"],
            ["prior-check", *MODEL, "--sims", "10"],
            ["hindcast", *MODEL, "--mask-stratum", "s1", "--mask-year-from", "0",
             "--mask-year-to", "3"],
            ["rr", *MODEL, "--block", "period", "--r1", "s0", "--r2", "s2"],
        ],
        ids=lambda c: c[0],
    )
    def test_config_priors_and_baseline_reach_assemble_model(
        self, sim_dir, tmp_path, monkeypatch, command
    ):
        calls = record_calls(monkeypatch, "assemble_model")
        cfg = fast_config(
            tmp_path / "config.json",
            {
                "inference": self.SETTINGS,
                "priors": {"epsilon_period": 0.2, "q": 0.1, "nu0_mean": [-5.0, 0.2, 0.0],
                           "exchangeable_variance": 3.0},
                "baseline": {"coordinates": "age-period", "triple": [[2, 2], [3, 2], [2, 3]]},
            },
        )
        io = ["--config", str(cfg), "--data", str(sim_dir / "data.csv"),
              "--out", str(tmp_path / "out")]
        assert main([command[0], *io, *command[1:]]) == 0
        default = PriorConfig()
        expected_prior = PriorConfig(
            epsilons={**default.epsilons, "period": 0.2},
            q=0.1,
            baseline_mean=BaselineMeanPrior(
                mean=np.array([-5.0, 0.2, 0.0]), variances=default.baseline_mean.variances
            ),
            exchangeable_variance=3.0,
        )
        expected_spec = BaselineSpec("age-period", ((2, 2), (3, 2), (2, 3)), "point-plus-two-slopes")
        assert len(calls) == 1
        assert calls[0]["prior_config"] == expected_prior
        assert calls[0]["baseline_spec"] == expected_spec


def record_calls(monkeypatch, name: str = "fit_model") -> list:
    """The keyword arguments of every call to ``selection.<name>``."""
    calls = []
    real = getattr(selection, name)

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, name, recording)
    return calls


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["fit", "--pattern", "M1"]) == 1

    COMMANDS = {
        "simulate": [],
        "fit": [],
        "prior-check": [],
        "hindcast": ["--mask-stratum", "s1", "--mask-year-from", "0", "--mask-year-to", "3"],
        "rr": ["--block", "period", "--r1", "s0", "--r2", "s2"],
    }

    def argv(self, command, sim_dir, tmp_path, pattern, structure):
        argv = [command, "--out", str(tmp_path / "out"), *self.COMMANDS[command],
                "--pattern", pattern, "--structure", structure]
        if command != "simulate":
            cfg = fast_config(tmp_path / "config.json")
            argv += ["--config", str(cfg), "--data", str(sim_dir / "data.csv")]
        return argv

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unknown_pattern_is_usage_error(self, sim_dir, tmp_path, capsys, command):
        assert main(self.argv(command, sim_dir, tmp_path, "M9", "independent")) == 1
        err = capsys.readouterr().err
        assert "'M9'" in err and "M6" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "prior-check", "hindcast", "rr"])
    def test_unknown_structure_lists_choices(self, sim_dir, tmp_path, capsys, command):
        assert main(self.argv(command, sim_dir, tmp_path, "M4", "bogus")) == 1
        err = capsys.readouterr().err
        assert "'bogus'" in err and "exchangeable" in err and "bym2" in err

    def test_grid_unknown_names_rejected_before_fitting(
        self, sim_dir, tmp_path, monkeypatch, capsys
    ):
        calls = record_calls(monkeypatch)
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "grid"
        rc = main(
            [
                "grid", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(out), "--models", "M9,M1",
                "--structures", "independent,bogus",
            ]
        )
        assert rc == 1
        assert calls == []
        assert not (out / "grid.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'M9'" in err

    def test_hindcast_too_few_samples_rejected_before_fitting(
        self, sim_dir, tmp_path, monkeypatch, capsys
    ):
        calls = record_calls(monkeypatch)
        cfg = fast_config(tmp_path / "config.json", {"inference": {"n_samples": 60}})
        rc = main(
            [
                "hindcast", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                "--out", str(tmp_path / "hc"), "--pattern", "M4",
                "--structure", "independent", "--mask-stratum", "s1",
                "--mask-year-from", "0", "--mask-year-to", "3",
            ]
        )
        assert rc == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_samples" in err

    FIT = ["fit", "--pattern", "M4", "--structure", "independent"]
    HINDCAST = ["hindcast", "--pattern", "M4", "--structure", "independent", "--mask-stratum", "s1"]

    @pytest.mark.parametrize(
        "config, command, field",
        [
            ({"inference": {"n_samples": 1}}, FIT, "inference.n_samples"),
            ({"inference": {"n_samples": -5}}, FIT, "inference.n_samples"),
            ({"inference": {"budget": 0}}, FIT, "inference.budget"),
            ({"inference": {"rel_tol": -1}}, FIT, "inference.rel_tol"),
            ({"inference": {"rel_tol": float("inf")}}, FIT, "inference.rel_tol"),
            ({"seed": -1}, FIT, "seed"),
            ({}, [*FIT, "--seed", "-1"], "--seed"),
            ({}, ["grid", "--structures", "bym2"], "bym2"),
            ({}, ["grid", "--structures", "independent,bym2"], "bym2"),
            ({}, ["fit", "--pattern", "M4", "--structure", "bym2"], "--graph"),
            ({"priors": {"q": 1.5}}, FIT, "error: config field 'priors'"),
            ({"priors": {"epsilon_age": 0}}, FIT, "error: config field 'priors'"),
            ({"priors": {"exchangeable_variance": -2}}, FIT, "error: config field 'priors'"),
            (
                {"inference": {"n_samples": 60}},
                [*HINDCAST, "--mask-year-from", "0", "--mask-year-to", "3"],
                "inference.n_samples",
            ),
            ({}, [*HINDCAST, "--mask-year-from", "3", "--mask-year-to", "3"], "mask year range"),
        ],
        ids=[
            "n_samples=1", "n_samples=-5", "budget=0", "rel_tol=-1", "rel_tol=inf",
            "seed=-1", "--seed=-1", "grid-bym2-no-graph", "grid-bym2-among-others",
            "fit-bym2-no-graph",
            "q=1.5", "epsilon_age=0", "exchangeable_variance=-2",
            "hindcast-n_samples=60", "hindcast-empty-year-range",
        ],
    )
    def test_bad_setting_rejected_before_fitting(
        self, sim_dir, tmp_path, monkeypatch, capsys, config, command, field
    ):
        calls = record_calls(monkeypatch)
        cfg = fast_config(tmp_path / "config.json", config)
        out = tmp_path / "out"
        io = ["--config", str(cfg), "--data", str(sim_dir / "data.csv"), "--out", str(out)]
        assert main([command[0], *io, *command[1:]]) == 1
        assert calls == []
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any("error:" in line and field in line for line in err.splitlines()), err

    IO = ["--config", "{cfg}", "--data", "{data}"]

    @pytest.mark.parametrize(
        "command, field",
        [
            (["simulate", "--n-age", "2"], "--n-age"),
            (["simulate", "--n-period", "2"], "--n-period"),
            (["simulate", "--n-strata", "0"], "--n-strata"),
            (["simulate", "--exposure", "-1"], "--exposure"),
            (["simulate", "--exposure", "nan"], "--exposure"),
            (["simulate", "--exposure", "1e300"], "exposure"),
            (["simulate", "--missing", "1.5"], "--missing"),
            (["simulate", "--structure", "exchangeable", "--n-strata", "1"], "2 strata"),
            (["simulate", "--structure", "exchangeable", "--pattern", "M1"], "M1"),
            (["prior-check", *IO, "--sims", "-1"], "--sims"),
            (["grid", *IO, "--workers", "-3"], "--workers"),
        ],
        ids=[
            "n-age=2", "n-period=2", "n-strata=0", "exposure=-1", "exposure=nan", "exposure=1e300",
            "missing=1.5", "exchangeable-one-stratum", "exchangeable-M1", "sims=-1",
            "workers=-3",
        ],
    )
    def test_bad_argument_is_usage_error(
        self, sim_dir, tmp_path, monkeypatch, capsys, command, field
    ):
        calls = record_calls(monkeypatch)
        cfg = fast_config(tmp_path / "config.json")
        out = tmp_path / "out"
        argv = [a.format(cfg=cfg, data=sim_dir / "data.csv") for a in command]
        assert main([*argv, "--out", str(out)]) == 1
        assert calls == []
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any("error:" in line and field in line for line in err.splitlines()), err

"""Run configuration: a single JSON document covering the aggregation
window, baseline placement, prior settings, model-grid selection, seeds and
solver tolerances."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import BaselineSpec
from .data import GridWindow
from .priors import BaselineMeanPrior, PriorConfig


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


_DEFAULT_MODELS = ("M1", "M2", "M3", "M4", "M5", "M6")
_DEFAULT_STRUCTURES = ("independent", "exchangeable", "bym2")


@dataclass(frozen=True)
class RunConfig:
    window: GridWindow
    baseline_spec: BaselineSpec | None = None
    prior_config: PriorConfig = field(default_factory=PriorConfig)
    models: tuple[str, ...] = _DEFAULT_MODELS
    structures: tuple[str, ...] = _DEFAULT_STRUCTURES
    seed: int = 0
    n_samples: int = 1000
    budget: int = 2000
    rel_tol: float = 1e-6
    eta_grid: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if "grid" not in raw:
            raise ConfigError("grid", "missing aggregation window")
        g = raw["grid"]
        try:
            window = GridWindow(
                age_start=int(g["age_start"]),
                age_end=int(g["age_end"]),
                year_start=int(g["year_start"]),
                year_end=int(g["year_end"]),
                bin_width=int(g["bin_width"]),
            )
        except KeyError as exc:
            raise ConfigError(f"grid.{exc.args[0]}", "missing") from exc
        except ValueError as exc:
            raise ConfigError("grid.bin_width", str(exc)) from exc

        baseline_spec = None
        if raw.get("baseline"):
            b = raw["baseline"]
            try:
                baseline_spec = BaselineSpec(
                    coordinates=b.get("coordinates", "age-cohort"),
                    triple=tuple(tuple(int(x) for x in pair) for pair in b["triple"]),
                    form=b.get("form", "point-plus-two-slopes"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("baseline", str(exc)) from exc

        p = raw.get("priors", {})
        try:
            epsilons = {
                "age": float(p.get("epsilon_age", np.log(1.2))),
                "period": float(p.get("epsilon_period", np.log(1.1))),
                "cohort": float(p.get("epsilon_cohort", np.log(1.01))),
                "baseline": float(p.get("epsilon_baseline", np.log(1.05))),
            }
            baseline_mean = BaselineMeanPrior(
                mean=np.asarray(p.get("nu0_mean", [np.log(0.005), 0.3, -0.1]), dtype=float),
                variances=np.asarray(p.get("nu0_variances", [1.0, 0.1, 0.1]), dtype=float),
            )
            prior_config = PriorConfig(
                epsilons=epsilons,
                q=float(p.get("q", 0.05)),
                baseline_mean=baseline_mean,
                exchangeable_variance=float(p.get("exchangeable_variance", 5.0)),
            )
        except ValueError as exc:
            raise ConfigError("priors", str(exc)) from exc

        models = tuple(raw.get("models", _DEFAULT_MODELS))
        for m in models:
            if m not in _DEFAULT_MODELS:
                raise ConfigError("models", f"unknown model {m!r}")
        structures = tuple(raw.get("structures", _DEFAULT_STRUCTURES))
        for s in structures:
            if s not in _DEFAULT_STRUCTURES:
                raise ConfigError("structures", f"unknown structure {s!r}")

        inf = raw.get("inference", {})
        return cls(
            window=window,
            baseline_spec=baseline_spec,
            prior_config=prior_config,
            models=models,
            structures=structures,
            seed=int(raw.get("seed", 0)),
            n_samples=int(inf.get("n_samples", 1000)),
            budget=int(inf.get("budget", 2000)),
            rel_tol=float(inf.get("rel_tol", 1e-6)),
            eta_grid=bool(inf.get("eta_grid", False)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def canonical_dict(self) -> dict:
        w = self.window
        out = {
            "grid": {
                "age_start": w.age_start,
                "age_end": w.age_end,
                "year_start": w.year_start,
                "year_end": w.year_end,
                "bin_width": w.bin_width,
            },
            "baseline": None,
            "priors": {
                "epsilon_age": self.prior_config.epsilons["age"],
                "epsilon_period": self.prior_config.epsilons["period"],
                "epsilon_cohort": self.prior_config.epsilons["cohort"],
                "epsilon_baseline": self.prior_config.epsilons["baseline"],
                "q": self.prior_config.q,
                "nu0_mean": self.prior_config.baseline_mean.mean.tolist(),
                "nu0_variances": self.prior_config.baseline_mean.variances.tolist(),
                "exchangeable_variance": self.prior_config.exchangeable_variance,
            },
            "models": list(self.models),
            "structures": list(self.structures),
            "inference": {
                "n_samples": self.n_samples,
                "budget": self.budget,
                "rel_tol": self.rel_tol,
                "eta_grid": self.eta_grid,
            },
            "seed": self.seed,
        }
        if self.baseline_spec is not None:
            out["baseline"] = {
                "coordinates": self.baseline_spec.coordinates,
                "form": self.baseline_spec.form,
                "triple": [list(p) for p in self.baseline_spec.triple],
            }
        return out

    def hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

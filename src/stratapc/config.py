"""Run configuration: a single JSON document covering the aggregation
window and the settings every fit runs with (baseline placement, priors,
model-grid selection, seed and solver tolerances).  A key missing from the
document takes the library default of ``PriorConfig`` and ``GridConfig``;
a key the document does not define is an error, so a misspelt setting
cannot silently run with the default."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import BaselineSpec
from .data import GridWindow
from .priors import BaselineMeanPrior, PriorConfig
from .selection import GridConfig


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


def _integer(value) -> int:
    """A whole number, also when written as ``1000.0``; int() would take
    ``true`` as 1 and truncate 2.9 to 2."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# inference key -> (type, allowed range, the range in words)
_INFERENCE = {
    "n_samples": (_integer, lambda v: v >= 2, "at least 2"),
    "budget": (_integer, lambda v: v >= 1, "at least 1"),
    "rel_tol": (float, lambda v: 0.0 < v < np.inf, "finite and above 0"),
}


def _cast(name: str, cast, value):
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(name, str(exc)) from exc


def _setting(section: dict, key: str, name: str, cast, ok, need: str):
    value = _cast(name, cast, section[key])
    if not ok(value):
        raise ConfigError(name, f"must be {need}, got {value!r}")
    return value


# the keys each section may hold
_SECTIONS = {
    "grid": tuple(f.name for f in fields(GridWindow)),
    "baseline": ("coordinates", "triple", "form"),
    "priors": (*(f"epsilon_{block}" for block in PriorConfig().epsilons),
               "q", "nu0_mean", "nu0_variances", "exchangeable_variance"),
    "inference": tuple(_INFERENCE),
}


def _known_keys(raw: dict, known, prefix: str = "") -> None:
    for key in raw:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", f"unknown key; use {', '.join(known)}")


def _section(raw: dict, key: str, default):
    """The JSON object under ``key`` (``default`` when absent), holding
    only the section's known keys."""
    value = raw.get(key, default)
    if value is not default:
        if not isinstance(value, dict):
            raise ConfigError(key, f"expected an object, got {value!r}")
        _known_keys(value, _SECTIONS[key], f"{key}.")
    return value


def _names(raw: dict, key: str, fit: GridConfig, field_name: str) -> GridConfig:
    """``fit`` with the list of names under ``key`` as its ``field_name``."""
    names = raw[key]
    if not isinstance(names, list):
        raise ConfigError(key, f"expected a list of names, got {names!r}")
    try:
        return replace(fit, **{field_name: tuple(names)})
    except ValueError as exc:  # GridConfig's check of the names
        raise ConfigError(key, str(exc)) from exc


def _prior_config(p: dict) -> PriorConfig:
    default = PriorConfig()
    try:
        return PriorConfig(
            epsilons={
                block: float(p.get(f"epsilon_{block}", eps))
                for block, eps in default.epsilons.items()
            },
            q=float(p.get("q", default.q)),
            baseline_mean=BaselineMeanPrior(
                mean=p.get("nu0_mean", default.baseline_mean.mean),
                variances=p.get("nu0_variances", default.baseline_mean.variances),
            ),
            exchangeable_variance=float(
                p.get("exchangeable_variance", default.exchangeable_variance)
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("priors", str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """The aggregation window and the one ``GridConfig`` every fit runs
    with (no graph: that comes from ``--graph``)."""

    window: GridWindow
    fit: GridConfig

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<document>", f"expected an object, got {raw!r}")
        _known_keys(raw, (*_SECTIONS, "models", "structures", "seed"))
        g = _section(raw, "grid", None)
        if g is None:
            raise ConfigError("grid", "missing aggregation window")
        bounds = {}
        for f in fields(GridWindow):
            if f.name not in g:
                raise ConfigError(f"grid.{f.name}", "missing")
            bounds[f.name] = _cast(f"grid.{f.name}", _integer, g[f.name])
        try:
            window = GridWindow(**bounds)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

        baseline_spec = None
        b = _section(raw, "baseline", None)
        if b:
            form = b.get("form", "point-plus-two-slopes")
            if form != "point-plus-two-slopes":  # the form the baseline prior is stated in
                raise ConfigError("baseline.form", f"must be 'point-plus-two-slopes', got {form!r}")
            try:
                baseline_spec = BaselineSpec(
                    coordinates=b.get("coordinates", "age-cohort"),
                    triple=tuple(tuple(_integer(x) for x in pair) for pair in b["triple"]),
                    form=form,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("baseline", str(exc)) from exc

        inf = _section(raw, "inference", {})
        settings = {
            key: _setting(inf, key, f"inference.{key}", *rule)
            for key, rule in _INFERENCE.items()
            if key in inf
        }
        if "seed" in raw:
            settings["seed"] = _setting(
                raw, "seed", "seed", _integer, lambda v: v >= 0, "at least 0"
            )
        fit = GridConfig(
            prior_config=_prior_config(_section(raw, "priors", {})),
            baseline_spec=baseline_spec,
            **settings,
        )
        if "models" in raw:
            fit = _names(raw, "models", fit, "patterns")
        if "structures" in raw:
            fit = _names(raw, "structures", fit, "structures")
        return cls(window=window, fit=fit)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def canonical_dict(self) -> dict:
        fit = self.fit
        prior = fit.prior_config
        return {
            "grid": asdict(self.window),
            "baseline": None if fit.baseline_spec is None else asdict(fit.baseline_spec),
            "priors": {
                **{f"epsilon_{block}": eps for block, eps in prior.epsilons.items()},
                "q": prior.q,
                "nu0_mean": prior.baseline_mean.mean.tolist(),
                "nu0_variances": prior.baseline_mean.variances.tolist(),
                "exchangeable_variance": prior.exchangeable_variance,
            },
            "models": list(fit.patterns),
            "structures": list(fit.structures),
            "inference": {key: getattr(fit, key) for key in _INFERENCE},
            "seed": fit.seed,
        }

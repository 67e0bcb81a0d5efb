"""Experiment configuration: defaults, validation and JSON loading.

A config file is a single JSON document in which every field has a default.
Every config read from outside the program (a config file, the config echoed
in a record-file header, or either one with CLI flags applied) goes through
config_from_dict, which checks each field's JSON type before the dataclasses
check its range.  The default alpha grid is 121 uniform points on [-3, 3]
with 0 removed (a constant observable tests nothing).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .circuits import ProtocolConfig
from .passivity import PassivityError, admissible_xi_grid, build_B, energy_basis_values
from .shots import BootstrapConfig, ShotsError, SpamModel

REFERENCE_PARAMS = {
    # reference operating points of the two bundled protocols
    "A": {"beta_c": 2.23, "beta_h": 0.43, "beta_e": 2.02},
    "B": {"beta_c": 1.627, "beta_h": 1.099, "beta_e": 2.232},
}


def reference_protocol(variant: str, include_env_swap: bool = True) -> ProtocolConfig:
    """Protocol config at the reference operating point of a variant."""
    if variant not in REFERENCE_PARAMS:
        raise ShotsError(f"unknown protocol variant {variant!r}")
    return ProtocolConfig(
        variant=variant,
        include_env_swap=include_env_swap,
        **REFERENCE_PARAMS[variant],
    )


def default_alpha_grid() -> list[float]:
    return [float(a) for a in np.linspace(-3.0, 3.0, 121) if a != 0.0]


DEFAULT_XI_POINTS = 41


@dataclass
class ExperimentConfig:
    protocol: ProtocolConfig = field(default_factory=lambda: reference_protocol("A"))
    shots_per_stage: int = 6700
    seed: int = 1
    epsilon: float = 1e-3
    alpha_grid: list[float] = field(default_factory=default_alpha_grid)
    xi_grid: list[float] | str | None = None  # explicit list, "auto", or None
    spam: SpamModel = field(default_factory=SpamModel)
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    significance: float = 3.0

    def __post_init__(self):
        if self.shots_per_stage <= 0:
            raise ShotsError("shots_per_stage must be positive")
        if self.seed < 0:
            raise ShotsError("seed must be non-negative")
        if self.epsilon <= 0 or not math.isfinite(self.epsilon):
            raise ShotsError("epsilon must be positive and finite")
        if not len(self.alpha_grid):
            raise ShotsError("alpha grid must not be empty")
        if any(a == 0.0 for a in self.alpha_grid):
            raise ShotsError("alpha grid must exclude 0")
        _check_increasing("alpha_grid", self.alpha_grid)
        if isinstance(self.xi_grid, str) and self.xi_grid != "auto":
            raise ShotsError(f'xi_grid must be a list, "auto" or null')
        if isinstance(self.xi_grid, list):
            _check_increasing("xi_grid", self.xi_grid)
            try:
                B = build_B({"c": self.protocol.beta_c, "h": self.protocol.beta_h},
                            self.epsilon)
                admissible_xi_grid(B.basis_values, energy_basis_values(2, 1),
                                   self.xi_grid)
            except PassivityError as exc:
                raise ShotsError(str(exc)) from exc
        if not self.significance > 0:
            raise ShotsError("significance must be positive")

    def wants_deformation(self) -> bool:
        """Deformation tests run for variant B by default, or when a xi grid
        is configured explicitly."""
        return self.xi_grid is not None or self.protocol.variant == "B"

    def resolve_xi_grid(self, xi_min: float, xi_max: float) -> np.ndarray:
        """Materialize the xi grid; "auto"/None fill the admissible interval."""
        if isinstance(self.xi_grid, list):
            return np.asarray(self.xi_grid, dtype=float)
        if not (math.isfinite(xi_min) and math.isfinite(xi_max)):
            raise ShotsError(
                "cannot auto-fill an unbounded deformation interval; "
                "provide an explicit xi grid"
            )
        return np.linspace(xi_min, xi_max, DEFAULT_XI_POINTS)

    def to_dict(self) -> dict:
        """The config as JSON-ready data, equal to dataclasses.asdict(self).

        Written out because asdict deep-copies each value, the 120-float
        alpha grid included; the grids and sub-dicts are still new objects,
        so callers may modify the result.
        """
        data = _fields(self)
        for name in ("protocol", "spam", "bootstrap"):
            data[name] = _fields(data[name])
        for name in ("alpha_grid", "xi_grid"):
            if isinstance(data[name], list):
                data[name] = list(data[name])
        return data


def _check_increasing(name: str, grid) -> None:
    """ShotsError unless grid is strictly increasing: the crossing search
    brackets each crossing by neighbouring grid points, the lower first."""
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise ShotsError(f"invalid config: {name!r} must be strictly increasing, "
                             f"got {a!r} before {b!r}")


def _fields(instance) -> dict:
    return {f.name: getattr(instance, f.name) for f in fields(instance)}


# JSON type of every typed field per config section ("" is the top level);
# numbers must be finite (|beta| >= 1000 already gives an exact pure state)
_INTEGER, _NUMBER = "an integer", "a finite number"
_FIELD_TYPES = {
    "": {"shots_per_stage": _INTEGER, "seed": _INTEGER,
         "epsilon": _NUMBER, "significance": _NUMBER},
    "protocol": {"variant": "a string", "include_env_swap": "a boolean",
                 "beta_c": _NUMBER, "beta_h": _NUMBER, "beta_e": _NUMBER,
                 "phi": _NUMBER, "theta": _NUMBER},
    "spam": {"flip_0_to_1": _NUMBER, "flip_1_to_0": _NUMBER},
    "bootstrap": {"resamples": _INTEGER, "seed": _INTEGER, "confidence": _NUMBER},
}

# protocol fields that were removed, with the one value that record headers
# written before the removal echo; only that value is accepted (and dropped)
_REMOVED_PROTOCOL_FIELDS = {"b_gate_order": "swap_then_rotate",
                            "env_swap_partner": None}


def _has_type(value, kind: str) -> bool:
    if kind in ("a string", "a boolean"):
        return isinstance(value, str if kind == "a string" else bool)
    if isinstance(value, bool) or not isinstance(
            value, int if kind == _INTEGER else (int, float)):
        return False
    return not isinstance(value, float) or math.isfinite(value)


def _check_types(data: dict) -> None:
    """Reject mistyped fields before they reach the dataclasses or numpy."""
    for section, types in _FIELD_TYPES.items():
        fields = data.get(section, {}) if section else data
        if not isinstance(fields, dict):
            continue  # reported when the section is built
        for name, kind in types.items():
            if name in fields and not _has_type(fields[name], kind):
                label = f"{section}.{name}" if section else name
                raise ShotsError(f"invalid config: {label!r} must be {kind}, "
                                 f"got {fields[name]!r}")
    for name in ("alpha_grid", "xi_grid"):
        if name not in data or (name == "xi_grid" and data[name] in (None, "auto")):
            continue
        grid = data[name]
        if not isinstance(grid, list) or not grid or not all(
                _has_type(x, _NUMBER) for x in grid):
            raise ShotsError(f"invalid config: {name!r} must be a non-empty list "
                             f"of finite numbers, got {grid!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """The validated config of a JSON object; ShotsError names a bad field."""
    if not isinstance(data, dict):
        raise ShotsError("config must be a JSON object")
    kwargs = dict(data)
    unknown = set(kwargs) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ShotsError(f"unknown config fields {sorted(unknown)}")
    if isinstance(kwargs.get("protocol"), dict):
        kwargs["protocol"] = protocol = dict(kwargs["protocol"])
        for name, legacy in _REMOVED_PROTOCOL_FIELDS.items():
            value = protocol.pop(name, legacy)
            if value != legacy:
                raise ShotsError(f"invalid config: 'protocol.{name}' was removed; "
                                 f"older record files echo it as {legacy!r}, "
                                 f"got {value!r}")
    _check_types(kwargs)
    for name, cls in (("protocol", ProtocolConfig), ("spam", SpamModel),
                      ("bootstrap", BootstrapConfig)):
        if name not in kwargs:
            continue
        section = kwargs[name]
        if not isinstance(section, dict):
            raise ShotsError(f"invalid config: {name!r} must be an object, "
                             f"got {section!r}")
        unknown = sorted(set(section) - set(cls.__dataclass_fields__))
        missing = [f.name for f in fields(cls) if f.name not in section
                   and f.default is MISSING and f.default_factory is MISSING]
        for problem, names in (("unknown", unknown), ("missing", missing)):
            if names:
                raise ShotsError(f"invalid config: {problem} fields "
                                 f"{[f'{name}.{n}' for n in names]}")
        kwargs[name] = cls(**section)
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ShotsError(f"invalid config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ShotsError(f"config {path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)

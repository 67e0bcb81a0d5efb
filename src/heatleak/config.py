"""Experiment configuration: defaults, JSON loading and flag overrides.

A config file is a single JSON document; every field has a default, and CLI
flags override fields one-for-one.  The default alpha grid is 121 uniform
points on [-3, 3] with 0 removed (a constant observable tests nothing).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .circuits import ProtocolConfig
from .passivity import build_B, deformation_bounds, energy_basis_values
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
        if isinstance(self.xi_grid, str) and self.xi_grid != "auto":
            raise ShotsError(f'xi_grid must be a list, "auto" or null')
        if isinstance(self.xi_grid, list):
            self._check_explicit_xi_grid()
        if not self.significance > 0:
            raise ShotsError("significance must be positive")

    def _check_explicit_xi_grid(self):
        B = build_B(
            {"c": self.protocol.beta_c, "h": self.protocol.beta_h}, self.epsilon
        )
        bounds = deformation_bounds(B.basis_values, energy_basis_values(2, 1))
        slack = 1e-12 * max(1.0, abs(bounds.xi_min), abs(bounds.xi_max))
        for xi in self.xi_grid:
            if xi < bounds.xi_min - slack or xi > bounds.xi_max + slack:
                raise ShotsError(
                    f"xi grid point {xi} outside the admissible interval "
                    f"[{bounds.xi_min}, {bounds.xi_max}]"
                )

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
        d = asdict(self)
        d["protocol"] = asdict(self.protocol)
        d["spam"] = asdict(self.spam)
        d["bootstrap"] = asdict(self.bootstrap)
        return d


# numeric fields per config section ("" is the top level): integers, then
# reals; reals must not be NaN, and only the inverse temperatures may be
# infinite (exact pure states)
_NUMERIC_FIELDS = {
    "": (("shots_per_stage", "seed"), ("epsilon", "significance")),
    "protocol": ((), ("beta_c", "beta_h", "beta_e", "phi", "theta")),
    "spam": ((), ("flip_0_to_1", "flip_1_to_0")),
    "bootstrap": (("resamples", "seed"), ("confidence",)),
}
_INFINITE_OK = ("beta_c", "beta_h", "beta_e")


def _is_number(value, integer: bool, infinite_ok: bool = False) -> bool:
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    return not isinstance(value, float) or (
        not math.isnan(value) and (infinite_ok or math.isfinite(value)))


def _check_types(data: dict) -> None:
    """Reject mistyped numeric fields before they reach numpy."""
    for section, (integers, reals) in _NUMERIC_FIELDS.items():
        fields = data.get(section, {}) if section else data
        if not isinstance(fields, dict):
            continue  # reported when the section is built
        for names, integer in ((integers, True), (reals, False)):
            for name in names:
                if name in fields and not _is_number(fields[name], integer,
                                                     name in _INFINITE_OK):
                    label = f"{section}.{name}" if section else name
                    kind = "an integer" if integer else "a number"
                    raise ShotsError(f"invalid config: {label!r} must be {kind}, "
                                     f"got {fields[name]!r}")
    for name in ("alpha_grid", "xi_grid"):
        if name not in data or (name == "xi_grid" and data[name] in (None, "auto")):
            continue
        grid = data[name]
        if not isinstance(grid, list) or not grid or not all(
                _is_number(x, integer=False) for x in grid):
            raise ShotsError(f"invalid config: {name!r} must be a non-empty list "
                             f"of finite numbers, got {grid!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ShotsError("config must be a JSON object")
    kwargs = dict(data)
    unknown = set(kwargs) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ShotsError(f"unknown config fields {sorted(unknown)}")
    _check_types(kwargs)
    for name, cls in (("protocol", ProtocolConfig), ("spam", SpamModel),
                      ("bootstrap", BootstrapConfig)):
        if name in kwargs:
            try:
                kwargs[name] = cls(**kwargs[name])
            except TypeError as exc:
                raise ShotsError(f"config field {name!r}: {exc}") from exc
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
    if not isinstance(data, dict):
        raise ShotsError(f"config {path}: expected a JSON object")
    return config_from_dict(data)

"""Experiment configuration: defaults, validation and JSON loading.

A config file is a single JSON document in which every field has a default.
Every config read from outside the program (a config file, the config echoed
in a record-file header, or either one with CLI flags applied) goes through
config_from_dict: it checks each field's annotated JSON type, then the
dataclasses check its range.  The default alpha grid is 121 uniform points
on [-3, 3] with 0 removed (a constant observable tests nothing).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field

import numpy as np

from .circuits import ProtocolConfig
from .passivity import build_B, deformation_bounds, energy_basis_values
from .register import HeatleakError
from .shots import BootstrapConfig, SpamModel

REFERENCE_PARAMS = {
    # reference operating points of the two bundled protocols
    "A": {"beta_c": 2.23, "beta_h": 0.43, "beta_e": 2.02},
    "B": {"beta_c": 1.627, "beta_h": 1.099, "beta_e": 2.232},
}


def reference_protocol(variant: str, include_env_swap: bool = True) -> ProtocolConfig:
    """Protocol config at the reference operating point of a variant."""
    if variant not in REFERENCE_PARAMS:
        raise HeatleakError(f"unknown protocol variant {variant!r}")
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
            raise HeatleakError("shots_per_stage must be positive")
        if self.shots_per_stage >= 2**63:  # int64, like the shots of a record
            raise HeatleakError(f"shots_per_stage must be below 2**63, got {self.shots_per_stage}")
        if self.seed < 0:
            raise HeatleakError("seed must be non-negative")
        if self.epsilon <= 0 or not math.isfinite(self.epsilon):
            raise HeatleakError("epsilon must be positive and finite")
        if not len(self.alpha_grid):
            raise HeatleakError("alpha grid must not be empty")
        if any(a == 0.0 for a in self.alpha_grid):
            raise HeatleakError("alpha grid must exclude 0")
        _check_increasing("alpha_grid", self.alpha_grid)
        if isinstance(self.xi_grid, str) and self.xi_grid != "auto":
            raise HeatleakError(f'xi_grid must be a list, "auto" or null')
        if isinstance(self.xi_grid, list):
            _check_increasing("xi_grid", self.xi_grid)
            self.deformation_grid()
        if not self.significance > 0:
            raise HeatleakError("significance must be positive")

    def deformation_grid(self) -> np.ndarray | None:
        """The xi grid of the deformation test, None when that test does not
        run: it runs for variant B, or when a xi grid is configured.

        An explicit grid must be finite and inside the admissible interval
        of B + xi*H_h up to a relative 1e-12 (rounding at the exact
        endpoints); "auto" and None fill that interval, which then must be
        bounded, with DEFAULT_XI_POINTS points.
        """
        if self.xi_grid is None and self.protocol.variant != "B":
            return None
        B = build_B({"c": self.protocol.beta_c, "h": self.protocol.beta_h}, self.epsilon)
        bounds = deformation_bounds(B.basis_values, energy_basis_values(2, 1))
        lo, hi = bounds.xi_min, bounds.xi_max
        if not isinstance(self.xi_grid, list):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise HeatleakError("cannot auto-fill an unbounded deformation interval; "
                                    "provide an explicit xi grid")
            return np.linspace(lo, hi, DEFAULT_XI_POINTS)
        grid = np.asarray(self.xi_grid, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise HeatleakError("xi grid must be finite")
        slack = 1e-12 * max([1.0, *(abs(x) for x in (lo, hi) if math.isfinite(x))])
        outside = (grid < lo - slack) | (grid > hi + slack)
        if outside.any():
            raise HeatleakError(f"xi grid point {float(grid[outside][0])} outside the "
                                f"admissible interval [{lo}, {hi}]")
        return grid

    def to_dict(self) -> dict:
        """The config as JSON-ready data, equal to dataclasses.asdict(self).

        Written out because asdict deep-copies each value, the 120-float
        alpha grid included; the grids and sub-dicts are still new objects,
        so callers may modify the result.
        """
        data = dict(vars(self))
        for name in ("protocol", "spam", "bootstrap"):
            data[name] = dict(vars(data[name]))
        for name in ("alpha_grid", "xi_grid"):
            if isinstance(data[name], list):
                data[name] = list(data[name])
        return data


def _check_increasing(name: str, grid) -> None:
    """HeatleakError unless grid is strictly increasing: the crossing search
    brackets each crossing by neighbouring grid points, the lower first."""
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise HeatleakError(f"invalid config: {name!r} must be strictly increasing, "
                                f"got {a!r} before {b!r}")


# protocol fields that were removed, with the one value that record headers
# written before the removal echo; only that value is accepted (and dropped)
_REMOVED_PROTOCOL_FIELDS = {"b_gate_order": "swap_then_rotate",
                            "env_swap_partner": None}


def _number(value) -> bool:
    """A JSON number that a finite float holds (|beta| >= 1000 already gives
    an exact pure state); the bound is exact for integers, false for inf and NaN."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# the JSON type that each field annotation names: its wording and its test
_GRID = ("a non-empty list of finite numbers",
         lambda v: isinstance(v, list) and len(v) > 0 and all(map(_number, v)))
_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "list[float]": _GRID,
    "list[float] | str | None": (_GRID[0], lambda v: v in (None, "auto") or _GRID[1](v)),
}
_SECTIONS = {cls.__name__: cls for cls in (ProtocolConfig, SpamModel, BootstrapConfig)}


def _read(cls, data, path: str = ""):
    """cls built from the JSON object data, path its dotted name ("" at the
    top level).  Unknown and missing fields are rejected first, then each
    field is checked against the JSON type its annotation names, a config
    section by reading it in turn; HeatleakError names the bad field."""
    if not isinstance(data, dict):
        raise HeatleakError(f"invalid config: {path!r} must be an object, got {data!r}")
    spec = cls.__dataclass_fields__
    prefix = f"{path}." if path else ""
    unknown = sorted(set(data) - set(spec))
    missing = [name for name, f in spec.items() if name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise HeatleakError(f"invalid config: {problem} fields "
                                f"{[prefix + name for name in names]}")
    kwargs = {}
    for name, value in data.items():
        kind = spec[name].type
        if kind in _SECTIONS:
            value = _read(_SECTIONS[kind], value, prefix + name)
        elif not _JSON_TYPES[kind][1](value):
            raise HeatleakError(f"invalid config: {prefix + name!r} must be "
                                f"{_JSON_TYPES[kind][0]}, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    """The validated config of a JSON object; HeatleakError names a bad field."""
    if not isinstance(data, dict):
        raise HeatleakError("config must be a JSON object")
    if isinstance(data.get("protocol"), dict):
        protocol = dict(data["protocol"])
        for name, legacy in _REMOVED_PROTOCOL_FIELDS.items():
            value = protocol.pop(name, legacy)
            if value != legacy:
                raise HeatleakError(f"invalid config: 'protocol.{name}' was removed; "
                                    f"older record files echo it as {legacy!r}, "
                                    f"got {value!r}")
        data = {**data, "protocol": protocol}
    return _read(ExperimentConfig, data)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad or too deeply nested JSON, bad UTF-8, or an int over the digit limit
            raise HeatleakError(f"config {path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)

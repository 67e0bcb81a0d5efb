"""Experiment orchestration: exact curves, simulation, analysis, verdicts.

The analysis compares the measured stage-ii and stage-iii distributions
against stage i through three channels:

* ``second-law``        beta-weighted energy change (alpha = 1 member),
* ``global-passivity``  the full alpha family delta<B^alpha> >= 0,
* ``deformation``       delta<B> + xi*delta<H_h> >= 0 on the admissible
                        xi interval (variant B, or any explicit xi grid).

Every channel value is the change in expectation of one column of
``passivity.observable_table``, so one bootstrap of ``(pf - p0) @ V`` serves
all three.  Each channel's strength is its worst violation measured in
bootstrap standard errors; a verdict fires when any strength reaches the
configured significance.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .circuits import build_protocol, evolve_stages
from .config import ExperimentConfig, config_from_dict
from .passivity import (
    SweepResult,
    alpha_observable,
    alpha_sweep,
    build_B,
    deformation_bounds,
    deformation_sweep,
    energy_basis_values,
    observable_table,
    xi_observable,
)
from .recordio import read_records, write_json, write_records, write_sweep_csv
from .register import measure_distribution
from .shots import (
    BootstrapConfig,
    ShotsError,
    apply_spam,
    bootstrap_change,
    derive_seed,
    sample_shots,
    threshold_bootstrap,
)

STAGE_SEED_ROLE = {"i": 0, "ii": 1, "iii": 2}
CI_SEED_ROLE = 100
ALPHA_THRESHOLD_SEED_ROLE = 200
XI_THRESHOLD_SEED_ROLE = 300

CHANNELS = ("second-law", "global-passivity", "deformation")
MEASURED = ("c", "h")


@dataclass
class Verdict:
    """Machine-readable heat-leak decision."""

    detected: bool
    channel: str | None
    strength: float
    channel_strengths: dict[str, float]
    thresholds: list[dict] = field(default_factory=list)
    significance: float = 3.0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _distributions(circuit) -> dict[str, np.ndarray]:
    targets = [circuit.qubit_index(lbl) for lbl in circuit.measured]
    return {
        stage: measure_distribution(state, targets)
        for stage, state in evolve_stages(circuit).items()
    }


def stage_distributions(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Exact measured-qubit distributions at the three stages (no SPAM)."""
    return _distributions(build_protocol(config.protocol))


@dataclass(frozen=True)
class Sweep:
    """One parameter sweep of a channel and how its outputs are written.

    point(p0, pf) returns the point-estimate SweepResult; its thresholds are
    the sign crossings of (pf - p0) @ observable(x) over grid; columns is the
    sweep's slice of the observable table; CI columns in the CSV are the
    bootstrap CI of the table values divided by ci_divisor.
    """

    channel: str
    prefix: str
    point: Callable[[np.ndarray, np.ndarray], SweepResult]
    observable: Callable[[np.ndarray], np.ndarray]
    grid: np.ndarray
    columns: slice
    ci_divisor: float
    seed_role: int


def _plan(config: ExperimentConfig) -> tuple[np.ndarray, list[Sweep]]:
    """The observable table and the sweeps this config runs."""
    B = build_B(
        {"c": config.protocol.beta_c, "h": config.protocol.beta_h}, config.epsilon
    )
    alpha_grid = np.asarray(config.alpha_grid, dtype=float)
    n_alpha = len(alpha_grid)
    sweeps = [Sweep(
        "global-passivity", "alpha",
        lambda p0, pf: alpha_sweep(p0, pf, B, alpha_grid),
        alpha_observable(B), alpha_grid,
        slice(0, n_alpha), 1.0, ALPHA_THRESHOLD_SEED_ROLE,
    )]
    a_values = xi_grid = None
    if config.wants_deformation():
        a_values = energy_basis_values(2, 1)  # deformation observable H_h
        bounds = deformation_bounds(B.basis_values, a_values)
        xi_grid = config.resolve_xi_grid(bounds.xi_min, bounds.xi_max)
        sweeps.append(Sweep(
            "deformation", "xi",
            lambda p0, pf: deformation_sweep(p0, pf, B, a_values, xi_grid),
            xi_observable(B), xi_grid,
            # the CSV margin lhs - rhs is the raw form over beta_c > 0
            slice(n_alpha + 1, None), B.betas["c"], XI_THRESHOLD_SEED_ROLE,
        ))
    return observable_table(B, alpha_grid, a_values, xi_grid), sweeps


def run_exact(config: ExperimentConfig, out_dir: str) -> dict:
    """Exact theory curves and stage distributions, written as CSV/JSON."""
    os.makedirs(out_dir, exist_ok=True)
    dists = stage_distributions(config)
    paths = {}
    sweeps = {}
    for sweep in _plan(config)[1]:
        for stage in ("ii", "iii"):
            key = f"{sweep.prefix}_i_{stage}"
            sweeps[key] = sweep.point(dists["i"], dists[stage])
            paths[key] = os.path.join(out_dir, f"{sweep.prefix}_sweep_i_to_{stage}.csv")
            write_sweep_csv(paths[key], sweeps[key])
    dist_path = os.path.join(out_dir, "stage_distributions.json")
    write_json(
        dist_path,
        {
            "config": config.to_dict(),
            "stages": {k: [float(x) for x in v] for k, v in dists.items()},
        },
        allow_nan=True,
    )
    paths["stage_distributions"] = dist_path
    return {"paths": paths, "sweeps": sweeps, "distributions": dists}


def run_simulate(config: ExperimentConfig, out_dir: str) -> str:
    """Sample shot records for stages i, ii, iii and write the JSONL file.

    SPAM confusion is applied to the exact distributions before sampling;
    stage iii is always present (it equals stage ii when the environment
    SWAP is disabled).
    """
    os.makedirs(out_dir, exist_ok=True)
    circuit = build_protocol(config.protocol)
    dists = _distributions(circuit)
    records = [
        sample_shots(
            apply_spam(dists[stage], config.spam),
            config.shots_per_stage,
            derive_seed(config.seed, role),
            stage=stage,
            qubits=circuit.measured,
            meta={"variant": config.protocol.variant},
        )
        for stage, role in STAGE_SEED_ROLE.items()
    ]
    path = os.path.join(out_dir, "records.jsonl")
    write_records(path, config.to_dict(), records)
    return path


def _threshold_entry(test: str, stage: str, result) -> dict:
    entry = {
        "test": test,
        "stage_pair": f"i->{stage}",
        "found": result.found,
        "resamples": result.resamples,
        "no_crossing_resamples": result.no_crossing_resamples,
    }
    if result.found:
        # value, ci_low, ci_high, std_error; a NaN std_error (no resample
        # crossed) is written as null
        entry.update({name: None if math.isnan(x) else x
                      for name, x in asdict(result.estimate).items()})
    return entry


def analyze_records(header_config: dict, records, config: ExperimentConfig | None,
                    out_dir: str) -> Verdict:
    """Evaluate all detection channels on parsed records and write outputs.

    When no config is passed, the one echoed in the record-file header is
    used, so a simulate output is analyzable as-is.
    """
    if config is None:
        config = config_from_dict(header_config)
    os.makedirs(out_dir, exist_ok=True)
    by_stage = {}
    for rec in records:
        if rec.stage not in STAGE_SEED_ROLE:
            raise ShotsError(f"unknown record stage {rec.stage!r}")
        if rec.stage in by_stage:
            raise ShotsError(f"duplicate records for stage {rec.stage}")
        if rec.num_measured != 2:
            raise ShotsError("analysis expects two measured qubits per record")
        if rec.qubits is not None and tuple(rec.qubits) != MEASURED:
            raise ShotsError(
                f"stage {rec.stage} record measures qubits {list(rec.qubits)}, "
                f"expected {list(MEASURED)}"
            )
        by_stage[rec.stage] = rec
    if "i" not in by_stage or not ({"ii", "iii"} & set(by_stage)):
        raise ShotsError("records must contain stage i and at least one of ii/iii")

    table, sweeps = _plan(config)
    strengths = {name: 0.0 for name in CHANNELS}
    thresholds = []
    notes = []
    rec_i = by_stage["i"]

    def bootstrap(stage_idx: int, seed_role: int) -> BootstrapConfig:
        return BootstrapConfig(
            resamples=config.bootstrap.resamples,
            confidence=config.bootstrap.confidence,
            seed=derive_seed(config.seed, seed_role + stage_idx),
        )

    def worst(channel: str, estimates, resolution) -> None:
        # the violation depth in sigmas, with sigma floored at the column's
        # one-shot resolution: a zero-width bootstrap (all shots in one
        # outcome) is no sharper than moving one shot, and a constant column
        # (resolution 0) changes by float noise only, so it carries none
        strengths[channel] = max(strengths[channel], max(
            -e.value / max(e.std_error, r) if e.value < 0 and r > 0 else 0.0
            for e, r in zip(estimates, resolution)
        ))

    n_alpha = len(config.alpha_grid)
    for stage_idx, stage in enumerate(("ii", "iii")):
        if stage not in by_stage:
            continue
        rec_f = by_stage[stage]
        estimates = bootstrap_change(rec_i, rec_f, table,
                                     bootstrap(stage_idx, CI_SEED_ROLE))
        resolution = (np.ptp(table, axis=0) / min(rec_i.shots, rec_f.shots)).tolist()
        second_law = slice(n_alpha, n_alpha + 1)
        worst("second-law", estimates[second_law], resolution[second_law])
        for sweep in sweeps:
            est = estimates[sweep.columns]
            point = sweep.point(rec_i.probabilities(), rec_f.probabilities())
            point.ci_low = np.array([e.ci_low / sweep.ci_divisor for e in est])
            point.ci_high = np.array([e.ci_high / sweep.ci_divisor for e in est])
            write_sweep_csv(
                os.path.join(out_dir, f"{sweep.prefix}_sweep_i_to_{stage}.csv"),
                point,
            )
            worst(sweep.channel, est, resolution[sweep.columns])
            if len(point.thresholds) == 1:
                res = threshold_bootstrap(
                    rec_i, rec_f, sweep.observable, sweep.grid,
                    bootstrap(stage_idx, sweep.seed_role),
                )
                thresholds.append(_threshold_entry(sweep.channel, stage, res))
            elif len(point.thresholds) > 1:
                notes.append(
                    f"{sweep.prefix} sweep i->{stage} has "
                    f"{len(point.thresholds)} sign crossings; no threshold reported"
                )

    strength = max(strengths.values())
    detected = strength >= config.significance
    channel = None
    if detected:
        channel = max(strengths, key=lambda name: strengths[name])
    verdict = Verdict(
        detected=detected,
        channel=channel,
        strength=strength,
        channel_strengths=strengths,
        thresholds=thresholds,
        significance=config.significance,
        notes=notes,
    )
    write_json(os.path.join(out_dir, "verdict.json"), verdict.to_dict())
    return verdict


def run_analyze(records_path: str, config: ExperimentConfig | None,
                out_dir: str) -> Verdict:
    header_config, records = read_records(records_path)
    return analyze_records(header_config, records, config, out_dir)


def run_bounds(beta_c: float, beta_h: float, observable: str = "Hh",
               epsilon: float = 1e-3) -> tuple:
    """Deformation bounds for B on (c, h) against a named observable."""
    B = build_B({"c": beta_c, "h": beta_h}, epsilon)
    if observable == "Hh":
        a_values = energy_basis_values(2, 1)
    elif observable == "Hc":
        a_values = energy_basis_values(2, 0)
    else:
        raise ShotsError(f"unknown deformation observable {observable!r}")
    bounds = deformation_bounds(B.basis_values, a_values)
    lines = [
        f"xi_min = {bounds.xi_min}",
        f"xi_max = {bounds.xi_max}",
        f"binding pairs (xi_min): {bounds.binding_pairs['xi_min']}",
        f"binding pairs (xi_max): {bounds.binding_pairs['xi_max']}",
    ]
    return bounds, "\n".join(lines)

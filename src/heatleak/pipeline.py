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
    alpha_observable,
    build_B,
    deformation_bounds,
    energy_basis_values,
    observable_table,
    sweep_crossings,
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


def stage_distributions(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Exact measured-qubit distributions at the three stages (no SPAM)."""
    circuit = build_protocol(config.protocol)
    targets = [circuit.qubit_index(lbl) for lbl in MEASURED]
    return {
        stage: measure_distribution(state, targets)
        for stage, state in evolve_stages(circuit).items()
    }


@dataclass(frozen=True)
class Sweep:
    """One parameter sweep of a channel and how its outputs are written.

    columns is the sweep's slice of the observable table; sides(diff,
    values) gives the CSV's lhs and rhs from the distribution change and
    its values on those columns, and the CSV's CI columns are the bootstrap
    CI of the values divided by ci_divisor.  The sweep's thresholds are the
    sign crossings of diff @ observable(x) over grid.
    """

    channel: str
    prefix: str
    sides: Callable[[np.ndarray, np.ndarray], tuple]
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
        lambda diff, values: (values, np.zeros_like(values)),
        alpha_observable(B), alpha_grid,
        slice(0, n_alpha), 1.0, ALPHA_THRESHOLD_SEED_ROLE,
    )]
    xi_grid = None
    if config.wants_deformation():
        h_c, h_h = energy_basis_values(2, 0), energy_basis_values(2, 1)
        bounds = deformation_bounds(B.basis_values, h_h)
        xi_grid = config.resolve_xi_grid(bounds.xi_min, bounds.xi_max)
        beta_c, beta_h = B.betas["c"], B.betas["h"]
        sweeps.append(Sweep(
            "deformation", "xi",
            # normal form: lhs = d<H_c> < rhs = -((beta_h + xi)/beta_c) d<H_h>
            # iff the raw form d<B> + xi*d<H_h> is negative, for beta_c > 0
            lambda diff, values: (
                np.full_like(xi_grid, float(np.dot(diff, h_c))),
                -((beta_h + xi_grid) / beta_c) * float(np.dot(diff, h_h)),
            ),
            xi_observable(B), xi_grid,
            # the CSV margin lhs - rhs is the raw form over beta_c
            slice(n_alpha + 1, None), beta_c, XI_THRESHOLD_SEED_ROLE,
        ))
    return observable_table(B, alpha_grid, xi_grid), sweeps


def run_exact(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Exact theory curves and stage distributions, written as CSV/JSON;
    returns the written paths by key."""
    dists = stage_distributions(config)
    table, sweeps = _plan(config)
    diffs = {stage: dists[stage] - dists["i"] for stage in ("ii", "iii")}
    values = {stage: diff @ table for stage, diff in diffs.items()}
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for sweep in sweeps:
        for stage, diff in diffs.items():
            key = f"{sweep.prefix}_i_{stage}"
            paths[key] = os.path.join(out_dir, f"{sweep.prefix}_sweep_i_to_{stage}.csv")
            write_sweep_csv(paths[key], sweep.grid,
                            *sweep.sides(diff, values[stage][sweep.columns]))
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
    return paths


def run_simulate(config: ExperimentConfig, out_dir: str) -> str:
    """Sample shot records for stages i, ii, iii and write the JSONL file.

    SPAM confusion is applied to the exact distributions before sampling;
    stage iii is always present (it equals stage ii when the environment
    SWAP is disabled).
    """
    dists = stage_distributions(config)
    records = [
        sample_shots(
            apply_spam(dists[stage], config.spam),
            config.shots_per_stage,
            derive_seed(config.seed, role),
            stage=stage,
            qubits=MEASURED,
            meta={"variant": config.protocol.variant},
        )
        for stage, role in STAGE_SEED_ROLE.items()
    ]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "records.jsonl")
    write_records(path, config.to_dict(), records)
    return path


def _threshold_entry(test: str, stage: str, result) -> dict:
    # entries exist for found thresholds only; "found" stays in the schema
    return {
        "test": test,
        "stage_pair": f"i->{stage}",
        "found": True,
        "resamples": result.resamples,
        "no_crossing_resamples": result.no_crossing_resamples,
        # value, ci_low, ci_high, std_error; a NaN std_error (no resample
        # crossed) is written as null
        **{name: None if math.isnan(x) else x
           for name, x in asdict(result.estimate).items()},
    }


def analyze_records(records, config: ExperimentConfig, out_dir: str) -> Verdict:
    """Evaluate all detection channels on parsed records and write outputs."""
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
    os.makedirs(out_dir, exist_ok=True)  # once the records and config validate
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
        diff = rec_f.probabilities() - rec_i.probabilities()
        for sweep in sweeps:
            est = estimates[sweep.columns]
            write_sweep_csv(
                os.path.join(out_dir, f"{sweep.prefix}_sweep_i_to_{stage}.csv"),
                sweep.grid, *sweep.sides(diff, np.array([e.value for e in est])),
                [e.ci_low / sweep.ci_divisor for e in est],
                [e.ci_high / sweep.ci_divisor for e in est],
            )
            worst(sweep.channel, est, resolution[sweep.columns])
            _, crossings = sweep_crossings(sweep.observable, diff, sweep.grid)
            if len(crossings) == 1:
                res = threshold_bootstrap(
                    rec_i, rec_f, sweep.observable, sweep.grid,
                    float(crossings[0]), bootstrap(stage_idx, sweep.seed_role),
                )
                thresholds.append(_threshold_entry(sweep.channel, stage, res))
            elif len(crossings) > 1:
                notes.append(
                    f"{sweep.prefix} sweep i->{stage} has "
                    f"{len(crossings)} sign crossings; no threshold reported"
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
    """analyze_records on a record file; when no config is passed, the one
    echoed in the file's header is used, so a simulate output is analyzable
    as-is."""
    header_config, records = read_records(records_path)
    if config is None:
        config = config_from_dict(header_config)
    return analyze_records(records, config, out_dir)


def run_bounds(beta_c: float, beta_h: float, observable: str = "Hh") -> tuple:
    """Deformation bounds for B on (c, h) against a named observable."""
    # the bounds take differences of B's eigenvalues, so its shift cancels
    B = build_B({"c": beta_c, "h": beta_h}, 1e-3)
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

"""Experiment orchestration: exact curves, simulation, analysis, verdicts.

The analysis compares the measured stage-ii and stage-iii distributions
against stage i through three channels, each a column group of
``passivity.observable_table`` that ``_plan`` states:

* ``second-law``        the B column, delta<B> >= 0 (alpha = 1 member),
* ``global-passivity``  the alpha block, delta<B^alpha> >= 0,
* ``deformation``       the xi block, delta<B + xi*H_h>/beta_c >= 0 on the
                        admissible xi interval (variant B, or any xi grid).

A column's depth is its violation in multinomial standard errors, a sweep's
single sign crossing is its threshold, with the delta method's standard
error, and both are closed forms of the counts, so verdict.json is too.  A
channel's strength is the largest depth over its group and both stage
pairs; a verdict fires when any strength reaches the configured
significance.  Only the CSVs' CI columns resample: one bootstrap of
``(pf - p0) @ V`` per stage pair, of records each redrawn once.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuits import QUBITS, stage_unitaries
from .config import ExperimentConfig, config_from_dict
from .passivity import (
    alpha_observable,
    alpha_slope,
    build_B,
    deformation_bounds,
    energy_basis_values,
    observable_table,
    sweep_crossings,
    xi_observable,
    xi_slope,
)
from .recordio import read_records, write_json, write_records, write_sweep_csv
from .register import HeatleakError, thermal_populations
from .shots import (
    apply_spam,
    bootstrap_change,
    derive_seed,
    multinomial_std,
    resample,
    sample_shots,
    threshold_estimate,
)

STAGE_SEED_ROLE = {"i": 0, "ii": 1, "iii": 2}
CI_SEED_ROLE = 100

MEASURED = ("c", "h")


@dataclass
class Verdict:
    """Machine-readable heat-leak decision."""

    detected: bool
    channel: str | None
    strength: float
    channel_strengths: dict[str, float]
    thresholds: list[dict]
    significance: float
    notes: list[str]


def stage_distributions(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Exact measured-qubit distributions at the three stages (no SPAM).

    The initial state is a product of thermal qubits, so it is diagonal, and
    its populations p0 are the Kronecker product of the qubits' thermal
    populations.  A unitary U takes diagonal populations p0 to |U|^2 @ p0,
    and |U|^2 is doubly stochastic (its rows and columns sum to 1): that is
    the premise of every passivity bound the analysis tests (Uzdin & Rahav,
    PRX 8, 021064 (2018)).  The measured
    distribution is the (c, h) marginal of |U|^2 @ p0, renormalized.
    """
    protocol = config.protocol
    p0 = functools.reduce(np.kron, (
        thermal_populations(getattr(protocol, f"beta_{q}")) for q in QUBITS
    ))
    unmeasured = tuple(k for k, q in enumerate(QUBITS) if q not in MEASURED)
    dists = {}
    for stage, u in stage_unitaries(protocol).items():
        populations = (np.abs(u) ** 2 @ p0).reshape((2,) * len(QUBITS))
        marginal = populations.sum(axis=unmeasured).ravel()
        dists[stage] = marginal / marginal.sum()
    return dists


@dataclass(frozen=True)
class Sweep:
    """One parameter sweep of a channel and how its outputs are written.

    sides(diff, values) gives the CSV's lhs and rhs from the distribution
    change and its values on the channel's column group, and the CSV's CI
    columns are the bootstrap CI of those values.  The sweep's thresholds
    are the sign crossings of diff @ observable(x) over grid, and slope(x)
    is d observable / dx.
    """

    channel: str
    prefix: str
    sides: Callable[[np.ndarray, np.ndarray], tuple]
    observable: Callable[[np.ndarray], np.ndarray]
    grid: np.ndarray
    slope: Callable[[np.ndarray], np.ndarray]


def _plan(config: ExperimentConfig) -> tuple[np.ndarray, list[Sweep], dict, Callable]:
    """The observable table, the sweeps this config runs, each channel's
    column group of the table, in verdict order, and the exact-zero rule of
    its columns; the only code that states the table's layout."""
    B = build_B(
        {"c": config.protocol.beta_c, "h": config.protocol.beta_h}, config.epsilon
    )
    alpha_grid = np.asarray(config.alpha_grid, dtype=float)
    n_alpha = len(alpha_grid)
    sweeps = [Sweep(
        "global-passivity", "alpha",
        lambda diff, values: (values, np.zeros_like(values)),
        alpha_observable(B), alpha_grid, alpha_slope(B),
    )]
    xi_grid = config.deformation_grid()
    if xi_grid is not None:
        h_c, h_h = energy_basis_values(2, 0), energy_basis_values(2, 1)
        beta_c, beta_h = B.betas["c"], B.betas["h"]
        sweeps.append(Sweep(
            "deformation", "xi",
            # normal form: violated iff d<H_c> < -((beta_h + xi)/beta_c) d<H_h>
            lambda diff, values: (
                np.full_like(xi_grid, float(np.dot(diff, h_c))),
                -((beta_h + xi_grid) / beta_c) * float(np.dot(diff, h_h)),
            ),
            xi_observable(B), xi_grid, xi_slope(B),
        ))
    groups = {
        "second-law": slice(n_alpha, n_alpha + 1),
        "global-passivity": slice(0, n_alpha),
        "deformation": slice(n_alpha + 1, None),  # empty without xi columns
    }
    table = observable_table(B, alpha_grid, xi_grid)
    # the columns that are B up to scale and constant: alpha = 1, B, xi = 0
    b_copies = np.append(alpha_grid == 1.0, [True, *(() if xi_grid is None else xi_grid == 0)])

    def exact_zeros(rec_i, rec_f) -> np.ndarray:
        """Mask of the columns whose change from rec_i to rec_f is 0 exactly.
        D = n_i*c_f - n_f*c_i, in Python ints (n_i*c_f can pass int64), is
        n_i*n_f*(p_f - p_i): the alpha block is 0 iff D sums to 0 on each tie
        class of B, the xi block iff d<H_c> = d<H_h> = 0, and each copy of B
        also iff d<B> is."""
        d = [rec_i.shots * rec_f.counts.get(f"{k:02b}", 0)  # outcome k's label
             - rec_f.shots * rec_i.counts.get(f"{k:02b}", 0) for k in range(4)]
        b = B.basis_values.tolist()
        zeros = np.full(table.shape[1], all(
            sum(d_j for d_j, b_j in zip(d, b) if b_j == b_k) == 0 for b_k in b))
        d_c, d_h = d[2] + d[3], d[1] + d[3]  # n_i*n_f times d<H_c> and d<H_h>
        zeros[groups["deformation"]] = d_c == d_h == 0
        zeros[b_copies] |= B.betas["c"] * d_c + B.betas["h"] * d_h == 0
        return zeros
    return table, sweeps, groups, exact_zeros


def _evaluate(sample_i, sample_f, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's value (p_f - p_i) @ table, multinomial_std and violation
    depth, for stage i and a later stage as (rates, shots) pairs.  The depth
    is in sigmas floored at the column's one-shot resolution: a zero sigma
    (all shots in one outcome per stage) is no sharper than moving one shot,
    and a constant column (resolution 0) moves by float noise only: no depth."""
    values = (sample_f[0] - sample_i[0]) @ table
    sigmas = multinomial_std(table, sample_i, sample_f)
    resolution = np.ptp(table, axis=0) / min(sample_i[1], sample_f[1])
    depths = np.divide(-values, np.maximum(sigmas, resolution), out=np.zeros_like(values),
                       where=(values < 0) & (resolution > 0))
    return values, sigmas, depths


def _write_sweep(out_dir: str, sweep: Sweep, groups, stage: str, diff, values, *ci) -> str:
    """Write the sweep's CSV of stage i to stage from the table's values (and CIs)."""
    group = groups[sweep.channel]
    path = os.path.join(out_dir, f"{sweep.prefix}_sweep_i_to_{stage}.csv")
    write_sweep_csv(path, sweep.grid, *sweep.sides(diff, values[group]),
                    *(bounds[group] for bounds in ci))
    return path


def run_exact(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Exact theory curves and stage distributions, written as CSV/JSON;
    returns the written paths by key."""
    dists = stage_distributions(config)
    table, sweeps, groups, _ = _plan(config)
    shots = config.shots_per_stage
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for stage in ("ii", "iii"):
        values, _, _ = _evaluate((dists["i"], shots), (dists[stage], shots), table)
        for sweep in sweeps:
            paths[f"{sweep.prefix}_i_{stage}"] = _write_sweep(
                out_dir, sweep, groups, stage, dists[stage] - dists["i"], values)
    dist_path = os.path.join(out_dir, "stage_distributions.json")
    write_json(
        dist_path,
        {
            "config": config.to_dict(),
            "stages": {k: [float(x) for x in v] for k, v in dists.items()},
        },
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
    _plan(config)  # refuse, before sampling, a config that analyze refuses
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


def _threshold_entry(test: str, stage: str, estimate) -> dict:
    # entries exist for found thresholds only; "found" stays in the schema
    return {
        "test": test,
        "stage_pair": f"i->{stage}",
        "found": True,
        # value, ci_low, ci_high, std_error; NaN (a tangent crossing) as null
        **{name: None if math.isnan(x) else x
           for name, x in estimate._asdict().items()},
    }


def analyze_records(records, config: ExperimentConfig, out_dir: str) -> Verdict:
    """Evaluate all detection channels on parsed records and write outputs."""
    by_stage = {}
    for rec in records:
        if rec.stage not in STAGE_SEED_ROLE:
            raise HeatleakError(f"unknown record stage {rec.stage!r}")
        if rec.stage in by_stage:
            raise HeatleakError(f"duplicate records for stage {rec.stage}")
        if rec.num_measured != 2:
            raise HeatleakError("analysis expects two measured qubits per record")
        if rec.qubits is not None and tuple(rec.qubits) != MEASURED:
            raise HeatleakError(
                f"stage {rec.stage} record measures qubits {list(rec.qubits)}, "
                f"expected {list(MEASURED)}"
            )
        by_stage[rec.stage] = rec
    if "i" not in by_stage or not ({"ii", "iii"} & set(by_stage)):
        raise HeatleakError("records must contain stage i and at least one of ii/iii")

    table, sweeps, groups, exact_zeros = _plan(config)
    os.makedirs(out_dir, exist_ok=True)  # once the records and config validate
    strengths = {name: 0.0 for name in groups}
    thresholds = []
    notes = []
    confidence = config.bootstrap.confidence
    samples = {stage: (rec.probabilities(), rec.shots) for stage, rec in by_stage.items()}
    rates = {
        stage: resample(rec, config.bootstrap.resamples,
                        derive_seed(config.seed, CI_SEED_ROLE, STAGE_SEED_ROLE[stage]))
        for stage, rec in by_stage.items()
    }
    for stage in ("ii", "iii"):
        if stage not in by_stage:
            continue
        sample_i, sample_f = samples["i"], samples[stage]
        estimates = bootstrap_change(sample_i, sample_f, rates[stage] - rates["i"],
                                     table, confidence)
        values, _, depths = _evaluate(sample_i, sample_f, table)
        zeros = exact_zeros(by_stage["i"], by_stage[stage])
        depths[zeros] = 0.0  # a change that is zero in exact arithmetic
        for name, group in groups.items():
            strengths[name] = max([strengths[name], *depths[group].tolist()])
        diff = sample_f[0] - sample_i[0]
        _, *ci, _ = zip(*estimates)  # the ci_low and ci_high columns
        for sweep in sweeps:
            _write_sweep(out_dir, sweep, groups, stage, diff, values, *ci)
            if zeros[groups[sweep.channel]].all():
                continue  # its float signs are noise
            crossings = sweep_crossings(sweep.observable, diff, sweep.grid)
            if len(crossings) == 1:
                est = threshold_estimate(sample_i, sample_f, sweep.observable,
                                         sweep.slope, float(crossings[0]), confidence)
                thresholds.append(_threshold_entry(sweep.channel, stage, est))
            elif len(crossings) > 1:
                notes.append(
                    f"{sweep.prefix} sweep i->{stage} has "
                    f"{len(crossings)} sign crossings; no threshold reported"
                )

    strength = max(strengths.values())
    detected = strength >= config.significance
    # the first strongest channel, in group order
    channel = max(strengths, key=strengths.get) if detected else None
    verdict = Verdict(detected=detected, channel=channel, strength=strength,
                      channel_strengths=strengths, thresholds=thresholds,
                      significance=config.significance, notes=notes)
    write_json(os.path.join(out_dir, "verdict.json"), vars(verdict))
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
    qubit = {"Hc": 0, "Hh": 1}.get(observable)
    if qubit is None:
        raise HeatleakError(f"unknown deformation observable {observable!r}")
    bounds = deformation_bounds(B.basis_values, energy_basis_values(2, qubit))
    lines = [
        f"xi_min = {bounds.xi_min}",
        f"xi_max = {bounds.xi_max}",
        f"binding pairs (xi_min): {bounds.binding_pairs['xi_min']}",
        f"binding pairs (xi_max): {bounds.binding_pairs['xi_max']}",
    ]
    return bounds, "\n".join(lines)

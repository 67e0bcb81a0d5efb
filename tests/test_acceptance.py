"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds chosen once; every tolerance is
stated inline.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import json
import math
import os
from contextlib import contextmanager

import numpy as np

from heatleak import (
    ExperimentConfig,
    alpha_observable,
    apply_unitary,
    build_B,
    deformation_bounds,
    energy_basis_values,
    measure_distribution,
    mixture_channel,
    observable_table,
    partial_trace,
    reference_protocol,
    swap_gate,
    sweep_crossings,
    tensor,
    thermal_qubit,
    xi_observable,
)
from heatleak.cli import main as cli_main
from heatleak.pipeline import run_analyze, run_exact, run_simulate, stage_distributions
from heatleak.shots import (
    BootstrapConfig,
    SpamModel,
    apply_spam,
    bootstrap_change,
    derive_seed,
    sample_shots,
)

from conftest import haar_matrix, haar_unitary, random_density, record_changes
from oracles import (
    PIN_ALPHA_STAR_A,
    PIN_XI_STAR_B,
    oracle_alpha_star_a,
    oracle_xi_star_b,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


ALPHA_GRID = np.array([a for a in np.linspace(-3.0, 3.0, 121) if a != 0.0])
B_REF_A = {"c": 2.23, "h": 0.43}
B_REF_B = {"c": 1.627, "h": 1.099}


def test_criterion_1_exact_protocol_a():
    with criterion(1, "exact protocol A alpha family"):
        cfg = ExperimentConfig(protocol=reference_protocol("A"))
        dists = stage_distributions(cfg)
        B = build_B(B_REF_A, 1e-3)
        diff = dists["iii"] - dists["i"]
        crossings = sweep_crossings(alpha_observable(B), diff, ALPHA_GRID)

        assert len(crossings) == 1
        alpha_star = crossings[0]
        assert 0.0 < alpha_star < 1.0

        lhs = diff @ observable_table(B, ALPHA_GRID)[:, : len(ALPHA_GRID)]
        low = lhs[ALPHA_GRID <= 0.4]
        high = lhs[ALPHA_GRID >= 0.7]
        assert np.all(low < 0.0)
        assert np.all(high > 0.0)
        assert diff @ observable_table(B, [1.0])[:, 0] >= 0.0

        # frozen regression constant, and the independent oracle agrees
        assert abs(alpha_star - PIN_ALPHA_STAR_A) <= 1e-6
        assert abs(oracle_alpha_star_a() - PIN_ALPHA_STAR_A) <= 1e-6


def test_criterion_2_protocol_a_finite_shots(tmp_path):
    with criterion(2, "protocol A at 6700 shots"):
        cfg = ExperimentConfig(
            protocol=reference_protocol("A"), seed=7, shots_per_stage=6700
        )
        out = str(tmp_path / "with_swap")
        verdict = run_analyze(run_simulate(cfg, out), None, out)
        assert verdict.detected
        entries = [
            t for t in verdict.thresholds
            if t["test"] == "global-passivity" and t["stage_pair"] == "i->iii"
        ]
        assert len(entries) == 1
        # reference threshold for this protocol at 6700 shots: 0.5090(75)
        t, sigma = entries[0]["value"], entries[0]["std_error"]
        combined = math.sqrt(sigma**2 + 0.0075**2)
        assert abs(t - 0.5090) <= 3.0 * combined

        cfg0 = ExperimentConfig(
            protocol=reference_protocol("A", include_env_swap=False),
            seed=7, shots_per_stage=6700,
        )
        out0 = str(tmp_path / "no_swap")
        verdict0 = run_analyze(run_simulate(cfg0, out0), None, out0)
        assert not verdict0.detected
        assert all(s < 3.0 for s in verdict0.channel_strengths.values())


def _csv_violated(path):
    """The violated column of a sweep CSV as booleans."""
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return np.array([row.rsplit(",", 1)[1] == "true" for row in rows])


def test_criterion_3_exact_protocol_b(tmp_path):
    with criterion(3, "exact protocol B deformation"):
        beta_c, beta_h = B_REF_B["c"], B_REF_B["h"]
        B = build_B(B_REF_B, 1e-3)
        a_values = energy_basis_values(2, 1)
        bounds = deformation_bounds(B.basis_values, a_values)
        assert abs(bounds.xi_min - (-beta_h)) <= 1e-12
        assert abs(bounds.xi_max - (beta_c - beta_h)) <= 1e-12
        assert abs(bounds.xi_min - (-1.099)) <= 1e-12
        assert abs(bounds.xi_max - 0.528) <= 1e-12

        cfg = ExperimentConfig(protocol=reference_protocol("B"))
        dists = stage_distributions(cfg)
        xi_grid = np.linspace(bounds.xi_min, bounds.xi_max, 41)
        crossings = sweep_crossings(xi_observable(B), dists["iii"] - dists["i"],
                                    xi_grid)
        assert len(crossings) == 1
        xi_star = crossings[0]
        # frozen regression constant, oracle recomputation, and the
        # reference-value consistency required at pin time
        assert abs(xi_star - PIN_XI_STAR_B) <= 1e-6
        assert abs(oracle_xi_star_b() - PIN_XI_STAR_B) <= 1e-6
        assert abs(PIN_XI_STAR_B - (-0.880)) <= 0.05
        # violated exactly on [xi_min, xi_star), nowhere above; exact mode
        # writes the xi CSV on the same 41-point grid
        violated = _csv_violated(run_exact(cfg, str(tmp_path / "swap"))["xi_i_iii"])
        assert violated.any()
        assert np.array_equal(violated, xi_grid < xi_star)

        # no global-passivity violation anywhere on [-3, 3]
        alpha_columns = observable_table(B, ALPHA_GRID)[:, : len(ALPHA_GRID)]
        for stage in ("ii", "iii"):
            assert np.all((dists[stage] - dists["i"]) @ alpha_columns >= 0.0)

        cfg0 = ExperimentConfig(
            protocol=reference_protocol("B", include_env_swap=False)
        )
        violated0 = _csv_violated(run_exact(cfg0, str(tmp_path / "no_swap"))["xi_i_iii"])
        assert not violated0.any()


def test_criterion_4_protocol_b_finite_shots(tmp_path):
    with criterion(4, "protocol B at 3200 shots"):
        cfg = ExperimentConfig(
            protocol=reference_protocol("B"), seed=7, shots_per_stage=3200
        )
        out = str(tmp_path / "b_run")
        verdict = run_analyze(run_simulate(cfg, out), None, out)
        entries = [
            t for t in verdict.thresholds
            if t["test"] == "deformation" and t["stage_pair"] == "i->iii"
        ]
        assert len(entries) == 1
        # reference threshold for this protocol at 3200 shots: -0.880(1)
        t, sigma = entries[0]["value"], entries[0]["std_error"]
        combined = math.sqrt(sigma**2 + 0.001**2)
        assert abs(t - (-0.880)) <= 3.0 * combined
        separation = (t - (-1.099)) / sigma
        assert separation >= 3.0


def test_criterion_5_unitality_property_suite():
    with criterion(5, "unitality property suite (200 random channels)"):
        rng = np.random.default_rng(808)
        grid61 = np.array([a for a in np.linspace(-3.0, 3.0, 61) if a != 0.0])
        a_values = energy_basis_values(2, 1)
        worst_alpha = math.inf
        worst_xi = math.inf
        for _ in range(200):
            beta_c = rng.uniform(0.1, 3.0)
            beta_h = rng.uniform(0.1, 3.0)
            state = tensor(thermal_qubit(beta_c), thermal_qubit(beta_h))
            B = build_B({"c": beta_c, "h": beta_h}, 1e-3)
            k = int(rng.integers(1, 5))
            probs = rng.dirichlet(np.ones(k))
            terms = [(p, haar_unitary(4, rng), [0, 1]) for p in probs]
            final = mixture_channel(state, terms)
            p0 = measure_distribution(state, [0, 1])
            pf = measure_distribution(final, [0, 1])

            lhs = (pf - p0) @ observable_table(B, grid61)[:, : len(grid61)]
            worst_alpha = min(worst_alpha, float(lhs.min()))

            bounds = deformation_bounds(B.basis_values, a_values)
            lo = bounds.xi_min if math.isfinite(bounds.xi_min) else -5.0
            hi = bounds.xi_max if math.isfinite(bounds.xi_max) else 5.0
            table = observable_table(B, [], np.linspace(lo, hi, 21))
            raw = (pf - p0) @ table[:, 1:]
            worst_xi = min(worst_xi, float(raw.min()))
        assert worst_alpha >= -1e-9, f"alpha family violated: {worst_alpha}"
        assert worst_xi >= -1e-9, f"deformed family violated: {worst_xi}"


def test_spam_readout_raises_no_false_alarm():
    """Readout error on both stages of a unital evolution violates no column
    of the observable table (alpha family, second law, 21 xi points), so
    SPAM is not a false-alarm source.  Seed, 2000 cases and the bound
    -1e-12 * max|V[:, c]| per column were fixed before the first run."""
    rng = np.random.default_rng(818)
    a_values = energy_basis_values(2, 1)
    worst = math.inf
    for _ in range(2000):
        beta_c, beta_h = rng.uniform(0.1, 3.0, size=2)
        B = build_B({"c": beta_c, "h": beta_h}, 1e-3)
        bounds = deformation_bounds(B.basis_values, a_values)
        lo = bounds.xi_min if math.isfinite(bounds.xi_min) else -5.0
        hi = bounds.xi_max if math.isfinite(bounds.xi_max) else 5.0
        table = observable_table(B, ALPHA_GRID, np.linspace(lo, hi, 21))
        # thermal product populations, pushed through the unitary's
        # transition matrix |U|^2 (exact for a diagonal initial state)
        p0 = np.outer(*[np.array([1.0, math.exp(-b)]) / (1.0 + math.exp(-b))
                        for b in (beta_c, beta_h)]).ravel()
        pf = np.abs(haar_matrix(4, rng)) ** 2 @ p0
        spam = SpamModel(*rng.uniform(0.0, 0.2, size=2))
        change = (apply_spam(pf, spam) - apply_spam(p0, spam)) @ table
        worst = min(worst, float(np.min(change / np.abs(table).max(axis=0))))
    assert worst >= -1e-12, f"worst relative column change {worst}"


def test_criterion_6_numerical_substrate():
    with criterion(6, "numerical substrate round trips (100 cases each)"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            a = random_density(int(rng.integers(1, 3)), rng)
            b = random_density(1, rng)
            ab = tensor(a, b)
            ka = list(range(a.num_qubits))
            kb = [a.num_qubits]
            assert np.max(np.abs(partial_trace(ab, ka).matrix - a.matrix)) < 1e-10
            assert np.max(np.abs(partial_trace(ab, kb).matrix - b.matrix)) < 1e-10
        for _ in range(100):
            n = int(rng.integers(1, 4))
            rho = random_density(n, rng)
            k = int(rng.integers(1, n + 1))
            targets = list(rng.permutation(n)[:k])
            u = haar_unitary(2**k, rng)
            out = apply_unitary(rho, u, targets)
            ev = np.sort(np.linalg.eigvalsh(rho.matrix))
            ev_out = np.sort(np.linalg.eigvalsh(out.matrix))
            assert np.max(np.abs(ev - ev_out)) < 1e-10
        for _ in range(100):
            a = random_density(1, rng)
            b = random_density(1, rng)
            swapped = apply_unitary(tensor(a, b), swap_gate(), [0, 1])
            assert np.max(np.abs(partial_trace(swapped, [0]).matrix - b.matrix)) < 1e-10
            assert np.max(np.abs(partial_trace(swapped, [1]).matrix - a.matrix)) < 1e-10


def test_criterion_7_bootstrap_coverage():
    with criterion(7, "bootstrap CI coverage in [0.63, 0.73]"):
        cfg = ExperimentConfig(protocol=reference_protocol("A"))
        dists = stage_distributions(cfg)
        B = build_B(B_REF_A, 1e-3)
        v = np.sign(0.5) * B.basis_values**0.5
        true_delta = float(np.dot(dists["iii"] - dists["i"], v))

        covered = 0
        reps = 500
        for rep in range(reps):
            rec_i = sample_shots(dists["i"], 6700, derive_seed(101, rep, 0), stage="i")
            rec_f = sample_shots(dists["iii"], 6700, derive_seed(101, rep, 1),
                                 stage="iii")
            bs = BootstrapConfig(resamples=600, seed=derive_seed(101, rep, 2))
            (est,) = bootstrap_change(*record_changes(rec_i, rec_f, bs), v[:, None],
                                      bs.confidence)
            if est.ci_low <= true_delta <= est.ci_high:
                covered += 1
        coverage = covered / reps
        assert 0.63 <= coverage <= 0.73, f"coverage {coverage}"


def test_criterion_8_full_pipeline_determinism(tmp_path):
    with criterion(8, "simulate+analyze byte-identical reruns"):
        outs = []
        for name in ("one", "two"):
            out = str(tmp_path / name)
            rc = cli_main(
                ["simulate", "--variant", "B", "--seed", "13",
                 "--shots-per-stage", "3200", "--resamples", "500", "--out", out]
            )
            assert rc == 0
            rc = cli_main(
                ["analyze", os.path.join(out, "records.jsonl"), "--out", out]
            )
            assert rc == 2
            outs.append(out)
        files = sorted(os.listdir(outs[0]))
        assert files == sorted(os.listdir(outs[1]))
        assert "records.jsonl" in files and "verdict.json" in files
        for fname in files:
            with open(os.path.join(outs[0], fname), "rb") as fa:
                a = fa.read()
            with open(os.path.join(outs[1], fname), "rb") as fb:
                b = fb.read()
            assert a == b, f"{fname} differs between identical runs"
        va = json.load(open(os.path.join(outs[0], "verdict.json")))
        vb = json.load(open(os.path.join(outs[1], "verdict.json")))
        assert va == vb

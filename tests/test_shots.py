import math
from statistics import NormalDist

import numpy as np
import pytest

from heatleak import (
    BootstrapConfig,
    HeatleakError,
    ShotRecord,
    SpamModel,
    apply_spam,
    build_B,
    deformation_bounds,
    energy_basis_values,
    observable_table,
    sample_shots,
)
from heatleak.config import ExperimentConfig, default_alpha_grid, reference_protocol
from heatleak.passivity import (
    alpha_observable,
    alpha_slope,
    sweep_crossings,
    xi_observable,
    xi_slope,
)
from heatleak.pipeline import _evaluate, _plan, stage_distributions
from heatleak.shots import (
    bootstrap_change,
    derive_seed,
    multinomial_std,
    outcome_labels,
    threshold_estimate,
)

from conftest import record_changes, samples
from oracles import (
    oracle_bootstrap_statistic,
    oracle_protocol_a,
    oracle_protocol_b,
    oracle_summary,
    oracle_threshold,
)


# ---------------------------------------------------------------- sampling

def test_sample_all_mass_on_one_outcome():
    rec = sample_shots([1.0, 0.0, 0.0, 0.0], 500, seed=3)
    assert rec.counts == {"00": 500, "01": 0, "10": 0, "11": 0}
    assert rec.shots == 500


def test_sample_large_n_within_five_sigma():
    n = 4_000_000
    rec = sample_shots([0.25] * 4, n, seed=11)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in rec.counts.values():
        assert abs(c - n / 4) < 5 * sigma


def test_sample_deterministic():
    a = sample_shots([0.3, 0.2, 0.4, 0.1], 1000, seed=99)
    b = sample_shots([0.3, 0.2, 0.4, 0.1], 1000, seed=99)
    assert a.counts == b.counts
    c = sample_shots([0.3, 0.2, 0.4, 0.1], 1000, seed=100)
    assert c.counts != a.counts


def test_sample_rejects_zero_shots():
    with pytest.raises(HeatleakError):
        sample_shots([1.0, 0.0], 0, seed=1)


def test_sample_rejects_unnormalized():
    with pytest.raises(HeatleakError):
        sample_shots([0.6, 0.6], 10, seed=1)


def test_record_validation():
    with pytest.raises(HeatleakError):
        ShotRecord(stage="i", counts={"00": 5, "01": 4}, shots=10)
    with pytest.raises(HeatleakError):
        ShotRecord(stage="i", counts={"00": 5, "0": 5}, shots=10)
    with pytest.raises(HeatleakError):
        ShotRecord(stage="i", counts={"02": 10}, shots=10)
    with pytest.raises(HeatleakError):
        ShotRecord(stage="i", counts={"00": -1, "01": 11}, shots=10)


def test_derive_seed_is_stable():
    # frozen: seed derivation must never change, records depend on it
    assert derive_seed(1, 0) == derive_seed(1, 0)
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 0) != derive_seed(2, 0)


# -------------------------------------------------------------------- SPAM

def test_spam_identity():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(apply_spam(p, SpamModel()), p)


def test_spam_full_depolarization():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    out = apply_spam(p, SpamModel(flip_0_to_1=0.5, flip_1_to_0=0.5))
    assert np.allclose(out, [0.25] * 4)


def test_spam_single_qubit_flip():
    out = apply_spam([1.0, 0.0], SpamModel(flip_0_to_1=0.02))
    assert np.allclose(out, [0.98, 0.02])


def test_spam_preserves_normalization(rng):
    for _ in range(25):
        p = rng.dirichlet(np.ones(4))
        model = SpamModel(flip_0_to_1=rng.uniform(0, 1), flip_1_to_0=rng.uniform(0, 1))
        out = apply_spam(p, model)
        assert abs(out.sum() - 1.0) < 1e-12


def test_spam_monotone_in_flip_probability():
    # ground population of |0><0| readout decays monotonically with flip01
    pops = [
        apply_spam([1.0, 0.0], SpamModel(flip_0_to_1=f))[0]
        for f in np.linspace(0, 0.5, 11)
    ]
    assert all(a >= b for a, b in zip(pops, pops[1:]))


def test_spam_model_validation():
    with pytest.raises(HeatleakError):
        SpamModel(flip_0_to_1=1.2)
    with pytest.raises(HeatleakError):
        SpamModel(flip_1_to_0=-0.1)


# ------------------------------------------------------------- expectation

def test_estimate_converges_to_expectation():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    v = np.array([0.0, 1.0, 1.0, 2.0])
    n = 1_000_000
    rec = sample_shots(p, n, seed=5)
    exact = float(p @ v)
    sigma = math.sqrt(float(p @ (v - exact) ** 2) / n)
    assert abs(rec.probabilities() @ v - exact) < 6 * sigma


# --------------------------------------------------------------- bootstrap

def _degenerate(stage, label, shots=100):
    """A record with every shot in one outcome: its resamples never vary."""
    counts = dict.fromkeys(outcome_labels(2), 0)
    counts[label] = shots
    return ShotRecord(stage=stage, counts=counts, shots=shots)


def test_bootstrap_degenerate_record_zero_width():
    cfg = BootstrapConfig(resamples=200, seed=4)
    (est,) = bootstrap_change(
        *record_changes(_degenerate("i", "00"), _degenerate("iii", "11"), cfg),
        np.array([[1.0], [2.0], [3.0], [4.0]]), cfg.confidence)
    assert est.ci_low == est.ci_high == est.value == 3.0
    assert est.std_error == 0.0


def test_bootstrap_matches_analytic_multinomial_error():
    v = np.array([0.0, 1.0, 2.0, 3.0])
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 5000, seed=21)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 3000, seed=23)
    cfg = BootstrapConfig(resamples=2000, seed=22)
    (est,) = bootstrap_change(*record_changes(rec_i, rec_f, cfg), v[:, None],
                              cfg.confidence)
    # multinomial error of a change: sqrt(var_i / n_i + var_f / n_f)
    analytic = math.sqrt(sum(
        float(r.probabilities() @ (v - r.probabilities() @ v) ** 2) / r.shots
        for r in (rec_i, rec_f)))
    assert abs(est.std_error - analytic) <= 1e-12 * analytic


def test_bootstrap_deterministic():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 1000, seed=8)
    rec_f = sample_shots([0.3, 0.3, 0.2, 0.2], 1000, seed=10)
    cfg = BootstrapConfig(resamples=300, seed=9)
    table = np.array([[0.0], [1.0], [2.0], [3.0]])
    one = bootstrap_change(*record_changes(rec_i, rec_f, cfg), table, cfg.confidence)
    two = bootstrap_change(*record_changes(rec_i, rec_f, cfg), table, cfg.confidence)
    assert one == two


def test_bootstrap_ci_encloses_point_estimate():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 400, seed=31)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 400, seed=33)
    cfg = BootstrapConfig(resamples=500, seed=32)
    # identity table: the change of each outcome probability
    ests = bootstrap_change(*record_changes(rec_i, rec_f, cfg), np.eye(4),
                            cfg.confidence)
    assert len(ests) == 4
    for est in ests:
        assert est.ci_low <= est.value <= est.ci_high


def test_bootstrap_error_shrinks_with_shots():
    v = np.array([0.0, 1.0, 2.0, 3.0])
    cfg = BootstrapConfig(resamples=1500, seed=17)
    errs = []
    for n in (2000, 32000):  # 16x shots -> expect ~4x smaller error
        rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], n, seed=40 + n)
        rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], n, seed=41 + n)
        (est,) = bootstrap_change(*record_changes(rec_i, rec_f, cfg), v[:, None],
                                  cfg.confidence)
        errs.append(est.std_error)
    ratio = errs[0] / errs[1]
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3


def test_bootstrap_change_non_finite_column_names_resample_0():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 100, seed=2)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 100, seed=4)
    table = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, np.inf], [3.0, 1.0]])
    cfg = BootstrapConfig(resamples=100, seed=3)
    with np.errstate(invalid="ignore"), \
            pytest.raises(HeatleakError, match="not finite on resample 0;"):
        bootstrap_change(*record_changes(rec_i, rec_f, cfg), table, cfg.confidence)


def test_bootstrap_change_non_finite_diffs_names_first_bad_resample():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 100, seed=2)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 100, seed=4)
    diffs = np.zeros((20, 4))
    diffs[7, 2] = np.nan
    with pytest.raises(HeatleakError, match="not finite on resample 7;"):
        bootstrap_change(*samples(rec_i, rec_f), diffs, np.eye(4), 0.6827)


def test_bootstrap_config_validation():
    with pytest.raises(HeatleakError):
        BootstrapConfig(resamples=50)
    with pytest.raises(HeatleakError):
        BootstrapConfig(confidence=1.5)


# ---------------------------------------------------------------- threshold

def _outcome_11_observable(shift):
    """Observable that is shift(x) on outcome 11 and 0 elsewhere, so its
    change from all-00 to all-11 records is shift(x)."""
    e11 = np.array([0.0, 0.0, 0.0, 1.0])
    return lambda x: shift(np.asarray(x, dtype=float))[..., None] * e11


def _point_crossing(rec_i, rec_f, observable, grid):
    """The single sign crossing of the point-estimate sweep, as analyze
    finds it before bootstrapping it."""
    (center,) = sweep_crossings(
        observable, rec_f.probabilities() - rec_i.probabilities(), grid)
    return float(center)


def test_threshold_noise_free_crossing():
    rec_i, rec_f = _degenerate("i", "00"), _degenerate("iii", "11")
    observable = _outcome_11_observable(lambda x: x - 0.5)
    grid = np.linspace(0.0, 1.0, 11)
    est = threshold_estimate(*samples(rec_i, rec_f), observable, lambda x: np.eye(4)[3],
                             _point_crossing(rec_i, rec_f, observable, grid), 0.6827)
    assert est.value == 0.5
    assert est.ci_low == est.ci_high == 0.5
    assert est.std_error == 0.0


def _delta_std(rec_i, rec_f, v, dv):
    """The delta-method std error of a crossing by hand: the multinomial
    error of the change of <v> over |change of <dv>|, with v the observable
    and dv its derivative at the crossing."""
    diff = rec_f.probabilities() - rec_i.probabilities()
    return _plug_in_std(rec_i, rec_f, v) / abs(float(diff @ dv))


def test_threshold_protocol_a_realistic():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    grid = np.array([a for a in np.linspace(-3, 3, 121) if a != 0.0])
    rec_i = sample_shots(p_i, 6700, seed=100, stage="i")
    rec_f = sample_shots(p_iii, 6700, seed=101, stage="iii")
    observable = alpha_observable(B)
    x = _point_crossing(rec_i, rec_f, observable, grid)
    est = threshold_estimate(*samples(rec_i, rec_f), observable, alpha_slope(B), x,
                             0.6827)
    assert 0.3 < est.value < 0.7
    # d/dalpha of sgn(alpha) b^alpha, by hand
    b = B.basis_values
    std = _delta_std(rec_i, rec_f, b**x, b**x * np.log(b))
    assert abs(est.std_error - std) <= 1e-12 * std
    assert 0.0 < est.std_error < 0.2
    half = NormalDist().inv_cdf((1 + 0.6827) / 2) * est.std_error
    assert (est.ci_low, est.ci_high) == (x - half, x + half)


def test_threshold_at_alpha_zero_is_a_tangent_crossing():
    """A crossing reported at the excluded alpha = 0, where the alpha
    observable and its slope vanish, has no std error and a point CI."""
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 1000, seed=2, stage="i")
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 1000, seed=4, stage="iii")
    est = threshold_estimate(*samples(rec_i, rec_f), alpha_observable(B), alpha_slope(B),
                             0.0, 0.6827)
    assert (est.value, est.ci_low, est.ci_high) == (0.0, 0.0, 0.0)
    assert math.isnan(est.std_error)


def test_threshold_ci_extends_past_the_grid():
    """The CI is x* +- z * std_error, unclipped: the crossing x* = 2.85
    dp10/dp11 = 0.95 on a [0, 1] grid, from 200-shot records, has a 90% CI
    beyond 1."""
    rec_i = ShotRecord(stage="i", counts={"00": 80, "01": 60, "10": 40, "11": 20},
                       shots=200)
    rec_f = ShotRecord(stage="iii", counts={"00": 20, "01": 40, "10": 60, "11": 80},
                       shots=200)
    e10, e11 = np.eye(4)[2], np.eye(4)[3]

    def observable(x):
        return np.asarray(x, dtype=float)[..., None] * e11 - 2.85 * e10

    grid = np.linspace(0.0, 1.0, 11)
    x = _point_crossing(rec_i, rec_f, observable, grid)
    est = threshold_estimate(*samples(rec_i, rec_f), observable, lambda x: e11, x, 0.9)
    std = _delta_std(rec_i, rec_f, observable(x), e11)
    assert abs(est.std_error - std) <= 1e-12 * std
    half = -NormalDist().inv_cdf((1 - 0.9) / 2) * est.std_error
    assert est.ci_low == x - half
    assert est.ci_high == x + half > grid[-1]


@pytest.mark.parametrize("variant", ["A", "B"])
def test_threshold_ci_coverage(variant):
    """Beside criterion 7: the one-sigma CI of the threshold covers the
    exact crossing at the nominal 0.6827 on records drawn from the exact
    distributions at the reference shots (alpha* of A at 6700, xi* of B at
    3200).  1000 reps at seeds derive_seed(2611, rep, role) give a binomial
    SE of sqrt(0.6827 * 0.3173 / 1000) = 0.0147, and the band is 5 of them;
    a rep without exactly one crossing counts as not covered."""
    shots = {"A": 6700, "B": 3200}[variant]
    config = ExperimentConfig(protocol=reference_protocol(variant),
                              shots_per_stage=shots)
    dists = stage_distributions(config)
    _, sweeps, _, _ = _plan(config)
    sweep = sweeps[0] if variant == "A" else sweeps[1]
    (exact,) = sweep_crossings(sweep.observable, dists["iii"] - dists["i"],
                               sweep.grid)
    reps, covered = 1000, 0
    for rep in range(reps):
        rec_i = sample_shots(dists["i"], shots, derive_seed(2611, rep, 0), stage="i")
        rec_f = sample_shots(dists["iii"], shots, derive_seed(2611, rep, 1),
                             stage="iii")
        crossings = sweep_crossings(
            sweep.observable, rec_f.probabilities() - rec_i.probabilities(), sweep.grid)
        if len(crossings) == 1:
            est = threshold_estimate(*samples(rec_i, rec_f), sweep.observable,
                                     sweep.slope, float(crossings[0]), 0.6827)
            covered += est.ci_low <= exact <= est.ci_high
    coverage = covered / reps
    assert 0.609 <= coverage <= 0.756, f"coverage {coverage}"


def test_outcome_labels():
    assert outcome_labels(1) == ("0", "1")
    assert outcome_labels(2) == ("00", "01", "10", "11")


# ------------------------------------------------ CI summary vs np.quantile

class _GivenStatistics:
    """Stand-in for bootstrap_change's resampled changes: its product with
    a table of at most _BLOCK_COLUMNS columns, one block, is a copy of the
    given (k, resamples) rows of resample statistics (numpy defers an
    ndarray's @ to an operand whose __array_ufunc__ is None)."""

    __array_ufunc__ = None

    def __init__(self, rows):
        self.rows = rows
        self.T = self

    def __len__(self):
        return self.rows.shape[1]

    def __rmatmul__(self, block):
        return self.rows.copy()


@pytest.mark.parametrize("kind", ["continuous", "integer ties"])
@pytest.mark.parametrize("resamples", [1, 2, 3, 100, 2000])
def test_summary_matches_np_quantile_reference(resamples, kind):
    """bootstrap_change gives the estimates of the np.quantile reference
    exactly: every float as printed, so zeros keep their sign.  All shots of
    stage i are on 01 and of stage f on 00, so the point change is row 00 of
    the table, the given point, and every std_error is 0.  The resample
    statistics are given as they are by _GivenStatistics, since a matrix
    product would turn their -0.0 into 0.0."""
    rng = np.random.default_rng(derive_seed(91, resamples))
    if kind == "integer ties":
        stats = rng.integers(-3, 4, size=(resamples, 16)).astype(float)
        point = rng.integers(-3, 4, size=16).astype(float)
        # even columns hold zeros of one sign only, -0.0, so that no sort can
        # order them differently, and a single resample keeps its sign
        stats[0, ::2] = 0.0
        even = stats[:, ::2]
        even[even == 0] = -0.0
    else:
        stats = rng.normal(size=(resamples, 16))
        point = rng.normal(scale=1.5, size=16)
    rec_i, rec_f = _degenerate("i", "01"), _degenerate("iii", "00")
    for confidence in (0.05, 0.6827, 0.99):
        for columns in (1, 16):
            table = np.zeros((4, columns))
            table[0] = point[:columns]
            given = _GivenStatistics(stats[:, :columns].T)
            got = bootstrap_change(*samples(rec_i, rec_f), given, table, confidence)
            want = oracle_summary(point[:columns], stats[:, :columns], confidence)
            assert [tuple(map(repr, e[:3])) for e in got] == [
                tuple(map(repr, w[:3])) for w in want]
            assert [e.std_error for e in got] == [0.0] * columns


# ------------------------------------------ std error in closed form

def _reference_tables_and_records(variant):
    """Protocol A or B: the table of observable_table at the default alpha
    grid and a 41-point xi grid, and three stage records drawn from the
    exact distributions."""
    if variant == "A":
        betas, shots, dists = {"c": 2.23, "h": 0.43}, 6700, oracle_protocol_a(True)
    else:
        betas, shots, dists = {"c": 1.627, "h": 1.099}, 3200, oracle_protocol_b(True)
    B = build_B(betas, 1e-3)
    bounds = deformation_bounds(B.basis_values, energy_basis_values(2, 1))
    alpha_grid = np.array(default_alpha_grid())
    xi_grid = np.linspace(bounds.xi_min, bounds.xi_max, 41)
    records = [
        sample_shots(np.real(p), shots, seed=derive_seed(77, k), stage=stage)
        for k, (stage, p) in enumerate(zip(("i", "ii", "iii"), dists))
    ]
    return B, alpha_grid, xi_grid, observable_table(B, alpha_grid, xi_grid), records


def _plug_in_std(rec_i, rec_f, v):
    """The multinomial standard error of the change of <v>, by hand:
    sqrt(var_i / n_i + var_f / n_f), var = p @ (v - p @ v)**2 at a record's
    rates p."""
    return math.sqrt(sum(
        float(r.probabilities() @ (v - r.probabilities() @ v) ** 2) / r.shots
        for r in (rec_i, rec_f)))


def test_multinomial_std_of_one_record():
    """On one (rates, shots) sample a column's error is sqrt(p @ (v - p @
    v)**2 / n): sqrt(p_k (1 - p_k) / n) for the outcome indicators and
    exactly 0 for a constant column; the same sample twice adds its
    variance twice."""
    rec = sample_shots([0.4, 0.3, 0.2, 0.1], 900, seed=12)
    p, n = rec.probabilities(), rec.shots
    table = np.column_stack([np.eye(4), [0.0, 1.0, 2.0, 3.0], np.full(4, 7.0)])
    got = multinomial_std(table, (p, n))
    assert np.all(np.abs(got[:4] - np.sqrt(p * (1 - p) / n)) <= 1e-12 * got[:4])
    v = table[:, 4]
    want = math.sqrt(float(p @ (v - p @ v) ** 2) / n)
    assert abs(got[4] - want) <= 1e-12 * want
    assert got[5] == 0.0
    twice = multinomial_std(table, (p, n), (p, n))
    assert np.all(np.abs(twice - math.sqrt(2) * got) <= 1e-12 * got)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_multinomial_std_at_exact_distributions(variant):
    """At the exact stage distributions, with no record, multinomial_std is
    the shot noise of a change at the reference shots: the ddof=1 std of
    2000 simulated i->iii changes of every table column lies within 5 of
    its relative standard errors, 1/sqrt(2 * 2000), of it.  Divided by the
    sweep's slope at the exact crossing it predicts the threshold sigma
    that README states: 0.0376 for alpha* (A, 6700 shots) and 0.0266 for
    xi* (B, 3200 shots)."""
    shots = {"A": 6700, "B": 3200}[variant]
    config = ExperimentConfig(protocol=reference_protocol(variant))
    dists = stage_distributions(config)
    table, sweeps, _, _ = _plan(config)
    samples = (dists["i"], shots), (dists["iii"], shots)
    std = multinomial_std(table, *samples)
    rng = np.random.default_rng(derive_seed(2612, shots))
    changes = (rng.multinomial(shots, dists["iii"], size=2000)
               - rng.multinomial(shots, dists["i"], size=2000)) / shots
    simulated = np.std(changes @ table, axis=0, ddof=1)
    assert np.all(np.abs(simulated / std - 1) <= 5 / math.sqrt(2 * 2000))
    sweep = sweeps[0] if variant == "A" else sweeps[1]
    diff = dists["iii"] - dists["i"]
    (x,) = sweep_crossings(sweep.observable, diff, sweep.grid)
    (sigma,) = multinomial_std(sweep.observable(x)[:, None], *samples)
    sigma /= abs(diff @ sweep.slope(x))
    assert round(sigma, 4) == {"A": 0.0376, "B": 0.0266}[variant]


@pytest.mark.parametrize("variant", ["A", "B"])
def test_evaluate_at_exact_distributions(variant):
    """pipeline._evaluate, the one evaluation of a stage pair that exact and
    analyze call: at the exact i->iii distributions and the reference shots
    its depths give the predicted channel strengths, global passivity
    17.60 sigma for A at 6700 shots and deformation 8.03 for B at 3200, every
    other channel 0; its values and sigmas are bootstrap_change's points and
    std_errors bit for bit."""
    shots = {"A": 6700, "B": 3200}[variant]
    config = ExperimentConfig(protocol=reference_protocol(variant))
    dists = stage_distributions(config)
    table, _, groups, _ = _plan(config)
    pair = (dists["i"], shots), (dists["iii"], shots)
    values, sigmas, depths = _evaluate(*pair, table)
    strengths = {name: round(float(depths[group].max(initial=0.0)), 2)
                 for name, group in groups.items()}
    predicted = {"A": {"second-law": 0.0, "global-passivity": 17.60, "deformation": 0.0},
                 "B": {"second-law": 0.0, "global-passivity": 0.0, "deformation": 8.03}}
    assert strengths == predicted[variant]
    estimates = bootstrap_change(*pair, np.zeros((100, 4)), table, 0.6827)
    assert values.tolist() == [e.value for e in estimates]
    assert sigmas.tolist() == [e.std_error for e in estimates]


@pytest.mark.parametrize("variant", ["A", "B"])
def test_bootstrap_std_error_is_plug_in_multinomial(variant):
    """std_error is the closed form of every column, for stage pairs of
    equal and unequal shots and a record with a zero-count outcome: a
    constant column reads exactly 0, even where the rates' sum rounds below
    1, and a column scaled to 1e300 stays finite.  The ddof=1 std of
    diffs @ v, which the bootstrap used to report, estimates it."""
    *_, table, records = _reference_tables_and_records(variant)
    n = records[0].shots
    p_iii = records[2].probabilities()
    records += [
        # fewer shots than stage i, and an outcome that no shot reached
        sample_shots(p_iii, n // 5, seed=derive_seed(79, 0), stage="iii"),
        ShotRecord(stage="iii", counts={"00": 0, "01": n // 4, "10": n // 2,
                                        "11": n - n // 4 - n // 2}, shots=n),
    ]
    # the centred form of the constant column is not 0 on every record
    assert any(r.probabilities() @ np.ones(4) != 1.0 for r in records)
    table = np.column_stack([table, np.ones(4)])  # the last column is constant
    # 400 resamples: the relative standard error of a sample std is about
    # 1/sqrt(2 * 400) = 0.035 (Efron & Tibshirani 1993); the bound is 5 of them
    resamples, bound = 400, 5 / math.sqrt(2 * 400)
    pairs = [(records[0], rec_f) for rec_f in records[1:]] + [(records[3], records[4])]
    for k, (rec_i, rec_f) in enumerate(pairs):
        cfg = BootstrapConfig(resamples=resamples, seed=derive_seed(78, k))
        _, _, diffs = changes = record_changes(rec_i, rec_f, cfg)
        got = np.array([e.std_error for e in bootstrap_change(*changes, table,
                                                              cfg.confidence)])
        want = np.array([_plug_in_std(rec_i, rec_f, v) for v in table.T[:-1]])
        assert np.all(np.abs(got[:-1] - want) <= 1e-12 * want)
        assert got[-1] == 0.0
        resampled = np.std(diffs @ table[:, :-1], axis=0, ddof=1)
        assert np.all(np.abs(resampled - want) <= bound * want)
        unit = table[:, 0] / np.abs(table[:, 0]).max()
        (huge,) = bootstrap_change(*changes, 1e300 * unit[:, None], cfg.confidence)
        std = 1e300 * _plug_in_std(rec_i, rec_f, unit)
        assert abs(huge.std_error - std) <= 1e-12 * std


# ------------------------------------------- count-matrix path vs reference

@pytest.mark.parametrize("variant", ["A", "B"])
def test_matrix_path_matches_per_resample_reference(variant):
    """bootstrap_change reproduces the per-resample reference of
    tests/oracles.py, which rebuilds records, and threshold_estimate's delta
    std error the spread of its per-resample threshold reference, which
    reruns the sweeps."""
    B, alpha_grid, xi_grid, table, records = _reference_tables_and_records(variant)
    sweeps = [(alpha_observable(B), alpha_slope(B), alpha_grid),
              (xi_observable(B), xi_slope(B), xi_grid)]
    found = 0
    for k, rec_f in enumerate(records[1:]):
        cfg = BootstrapConfig(resamples=400, seed=derive_seed(78, k))
        setup = (cfg.resamples, cfg.confidence, cfg.seed)
        _, _, diffs = changes = record_changes(records[0], rec_f, cfg)
        matrix = bootstrap_change(*changes, table, cfg.confidence)
        reference = oracle_bootstrap_statistic(
            [records[0], rec_f],
            lambda recs: (recs[1].probabilities() - recs[0].probabilities()) @ table,
            *setup,
        )
        assert len(matrix) == len(reference) == table.shape[1]
        for m, r, v in zip(matrix, reference, table.T):
            # relative to the column's magnitude: entries near zero carry
            # cancellation error of that scale in either summation order
            scale = max(abs(r[0]), abs(r[1]), abs(r[2]), r[3])
            for name, want in zip(("value", "ci_low", "ci_high"), r):
                assert abs(getattr(m, name) - want) <= 1e-12 * scale, name
            # the std error is the closed form, not the resamples' std
            std = _plug_in_std(records[0], rec_f, v)
            assert abs(m.std_error - std) <= 1e-12 * std
        # the threshold half: the delta std error against the std of 500
        # resampled crossings, whose relative noise is about 1/sqrt(2 * 500);
        # the band is 5 of them
        setup = (500, cfg.confidence, cfg.seed)
        for observable, slope, grid in sweeps:
            def builder(ri, rf):
                return sweep_crossings(
                    observable, rf.probabilities() - ri.probabilities(), grid)

            slow_found, slow, _ = oracle_threshold(records[0], rec_f, builder, *setup)
            point = sweep_crossings(
                observable, rec_f.probabilities() - records[0].probabilities(), grid)
            assert len(point) == int(slow_found)
            if not slow_found:
                continue
            found += 1
            est = threshold_estimate(*samples(records[0], rec_f), observable, slope,
                                     float(point[0]), cfg.confidence)
            assert est.value == slow[0]
            assert abs(est.std_error / slow[3] - 1) <= 5 / math.sqrt(2 * 500)
    assert found >= 1  # the i->iii threshold of either protocol

import math

import numpy as np
import pytest

from heatleak import (
    BootstrapConfig,
    ShotRecord,
    ShotsError,
    SpamModel,
    apply_spam,
    build_B,
    deformation_bounds,
    energy_basis_values,
    estimate_expectation,
    observable_table,
    sample_shots,
)
from heatleak.config import default_alpha_grid
from heatleak.passivity import alpha_observable, sweep_crossings, xi_observable
from heatleak.shots import (
    _summarize,
    bootstrap_change,
    derive_seed,
    outcome_labels,
    threshold_bootstrap,
)

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
    with pytest.raises(ShotsError):
        sample_shots([1.0, 0.0], 0, seed=1)


def test_sample_rejects_unnormalized():
    with pytest.raises(ShotsError):
        sample_shots([0.6, 0.6], 10, seed=1)


def test_record_validation():
    with pytest.raises(ShotsError):
        ShotRecord(stage="i", counts={"00": 5, "01": 4}, shots=10)
    with pytest.raises(ShotsError):
        ShotRecord(stage="i", counts={"00": 5, "0": 5}, shots=10)
    with pytest.raises(ShotsError):
        ShotRecord(stage="i", counts={"02": 10}, shots=10)
    with pytest.raises(ShotsError):
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
    with pytest.raises(ShotsError):
        SpamModel(flip_0_to_1=1.2)
    with pytest.raises(ShotsError):
        SpamModel(flip_1_to_0=-0.1)


# ------------------------------------------------------------- expectation

def test_estimate_single_outcome():
    rec = ShotRecord(stage="i", counts={"00": 10, "01": 0, "10": 0, "11": 0}, shots=10)
    assert estimate_expectation(rec, [2.5, 0, 0, 0]) == 2.5


def test_estimate_converges_to_expectation():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    v = np.array([0.0, 1.0, 1.0, 2.0])
    n = 1_000_000
    rec = sample_shots(p, n, seed=5)
    exact = float(p @ v)
    sigma = math.sqrt(float(p @ (v - exact) ** 2) / n)
    assert abs(estimate_expectation(rec, v) - exact) < 6 * sigma


def test_estimate_synthetic_b_alpha():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    rec = ShotRecord(
        stage="i", counts={"00": 3000, "01": 2000, "10": 1000, "11": 700}, shots=6700
    )
    v = B.basis_values**0.5
    expected = (3000 * v[0] + 2000 * v[1] + 1000 * v[2] + 700 * v[3]) / 6700
    assert estimate_expectation(rec, v) == pytest.approx(expected, abs=1e-15)


def test_estimate_rejects_mismatch():
    rec = ShotRecord(stage="i", counts={"0": 5, "1": 5}, shots=10)
    with pytest.raises(ShotsError):
        estimate_expectation(rec, [1.0, 2.0, 3.0, 4.0])


# --------------------------------------------------------------- bootstrap

def _degenerate(stage, label, shots=100):
    """A record with every shot in one outcome: its resamples never vary."""
    counts = dict.fromkeys(outcome_labels(2), 0)
    counts[label] = shots
    return ShotRecord(stage=stage, counts=counts, shots=shots)


def test_bootstrap_degenerate_record_zero_width():
    cfg = BootstrapConfig(resamples=200, seed=4)
    (est,) = bootstrap_change(_degenerate("i", "00"), _degenerate("iii", "11"),
                              np.array([[1.0], [2.0], [3.0], [4.0]]), cfg)
    assert est.ci_low == est.ci_high == est.value == 3.0
    assert est.std_error == 0.0


def test_bootstrap_matches_analytic_multinomial_error():
    v = np.array([0.0, 1.0, 2.0, 3.0])
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 5000, seed=21)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 3000, seed=23)
    cfg = BootstrapConfig(resamples=2000, seed=22)
    (est,) = bootstrap_change(rec_i, rec_f, v[:, None], cfg)
    # multinomial error of a change: sqrt(var_i / n_i + var_f / n_f)
    analytic = math.sqrt(sum(
        float(r.probabilities() @ (v - r.probabilities() @ v) ** 2) / r.shots
        for r in (rec_i, rec_f)))
    assert abs(est.std_error - analytic) / analytic < 0.20


def test_bootstrap_deterministic():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 1000, seed=8)
    rec_f = sample_shots([0.3, 0.3, 0.2, 0.2], 1000, seed=10)
    cfg = BootstrapConfig(resamples=300, seed=9)
    table = np.array([[0.0], [1.0], [2.0], [3.0]])
    one = bootstrap_change(rec_i, rec_f, table, cfg)
    two = bootstrap_change(rec_i, rec_f, table, cfg)
    assert one == two


def test_bootstrap_ci_encloses_point_estimate():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 400, seed=31)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 400, seed=33)
    cfg = BootstrapConfig(resamples=500, seed=32)
    # identity table: the change of each outcome probability
    ests = bootstrap_change(rec_i, rec_f, np.eye(4), cfg)
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
        (est,) = bootstrap_change(rec_i, rec_f, v[:, None], cfg)
        errs.append(est.std_error)
    ratio = errs[0] / errs[1]
    assert 4.0 * 0.7 < ratio < 4.0 * 1.3


def test_bootstrap_change_non_finite_column_names_resample_0():
    rec_i = sample_shots([0.4, 0.3, 0.2, 0.1], 100, seed=2)
    rec_f = sample_shots([0.1, 0.2, 0.3, 0.4], 100, seed=4)
    table = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, np.inf], [3.0, 1.0]])
    with np.errstate(invalid="ignore"), \
            pytest.raises(ShotsError, match="not finite on resample 0;"):
        bootstrap_change(rec_i, rec_f, table, BootstrapConfig(resamples=100, seed=3))


def test_bootstrap_config_validation():
    with pytest.raises(ShotsError):
        BootstrapConfig(resamples=50)
    with pytest.raises(ShotsError):
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
    _, crossings = sweep_crossings(
        observable, rec_f.probabilities() - rec_i.probabilities(), grid)
    (center,) = crossings
    return float(center)


def test_threshold_noise_free_crossing():
    rec_i, rec_f = _degenerate("i", "00"), _degenerate("iii", "11")
    observable = _outcome_11_observable(lambda x: x - 0.5)
    grid = np.linspace(0.0, 1.0, 11)
    res = threshold_bootstrap(
        rec_i, rec_f, observable, grid, _point_crossing(rec_i, rec_f, observable, grid),
        BootstrapConfig(resamples=200, seed=2),
    )
    assert res.estimate.value == 0.5
    assert res.estimate.ci_low == res.estimate.ci_high == 0.5
    assert res.estimate.std_error == 0.0
    assert res.no_crossing_resamples == 0


def test_threshold_takes_crossing_nearest_the_point_one():
    """Resamples that also cross twice near a touch point at 0.2 contribute
    their crossing nearest the point one at 0.6, as the per-resample
    reference does."""
    rec_i = ShotRecord(stage="i", counts={"00": 400, "01": 200, "10": 200, "11": 200},
                       shots=1000)
    rec_f = ShotRecord(stage="iii", counts={"00": 100, "01": 200, "10": 300, "11": 400},
                       shots=1000)
    e10, e11 = np.eye(4)[2], np.eye(4)[3]

    def observable(x):
        # change (x - 0.6) * 0.2 + 0.075 * bump(x): -0.005 at the bump's top
        x = np.asarray(x, dtype=float)[..., None]
        return (x - 0.6) * e11 + 0.75 * np.exp(-(((x - 0.2) / 0.05) ** 2)) * e10

    grid = np.linspace(0.0, 1.0, 101)
    several = []

    def builder(ri, rf):
        _, crossings = sweep_crossings(observable, rf.probabilities() - ri.probabilities(),
                                       grid)
        several.append(len(crossings) > 1)
        return crossings

    cfg = BootstrapConfig(resamples=100, seed=7)
    res = threshold_bootstrap(rec_i, rec_f, observable, grid,
                              _point_crossing(rec_i, rec_f, observable, grid), cfg)
    found, want, missing = oracle_threshold(rec_i, rec_f, builder, cfg.resamples,
                                            cfg.confidence, cfg.seed)
    assert not several[0] and any(several)
    assert found and res.no_crossing_resamples == missing == 0
    for name, value in zip(("value", "ci_low", "ci_high", "std_error"), want):
        assert abs(getattr(res.estimate, name) - value) <= 1e-11, name
    assert 0.5 < res.estimate.ci_low <= res.estimate.ci_high < 0.7


def test_threshold_protocol_a_realistic():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    grid = np.array([a for a in np.linspace(-3, 3, 121) if a != 0.0])
    rec_i = sample_shots(p_i, 6700, seed=100, stage="i")
    rec_f = sample_shots(p_iii, 6700, seed=101, stage="iii")
    observable = alpha_observable(B)
    res = threshold_bootstrap(rec_i, rec_f, observable, grid,
                              _point_crossing(rec_i, rec_f, observable, grid),
                              BootstrapConfig(resamples=400, seed=5))
    assert 0.3 < res.estimate.value < 0.7
    assert 0.0 < res.estimate.std_error < 0.2
    assert res.estimate.ci_low <= res.estimate.value <= res.estimate.ci_high


def test_outcome_labels():
    assert outcome_labels(1) == ("0", "1")
    assert outcome_labels(2) == ("00", "01", "10", "11")


# ------------------------------------------------ CI summary vs np.quantile

@pytest.mark.parametrize("kind", ["continuous", "integer ties", "non-finite"])
@pytest.mark.parametrize("resamples", [1, 2, 3, 100, 2000])
def test_summary_matches_np_quantile_reference(resamples, kind):
    """_summarize gives the estimates of the np.quantile reference exactly:
    every float as printed, so NaN matches NaN and zeros keep their sign."""
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
    if kind == "non-finite":
        # one NaN in column 0; columns 1-3 about a third +inf, -inf or either
        stats[rng.integers(resamples), 0] = np.nan
        for column, values in ((1, [np.inf]), (2, [-np.inf]), (3, [np.inf, -np.inf])):
            rows = rng.random(resamples) < 0.35
            stats[rows, column] = rng.choice(values, size=rows.sum())
    with np.errstate(invalid="ignore"):  # std and lerp of infinities give NaN
        for confidence in (0.05, 0.6827, 0.99):
            for columns in (1, 16):
                got = _summarize(point[:columns], stats[:, :columns], confidence)
                want = oracle_summary(point[:columns], stats[:, :columns], confidence)
                assert [tuple(map(repr, (e.value, e.ci_low, e.ci_high, e.std_error)))
                        for e in got] == [tuple(map(repr, w)) for w in want]


# ------------------------------------------- count-matrix path vs reference

@pytest.mark.parametrize("variant", ["A", "B"])
def test_matrix_path_matches_per_resample_reference(variant):
    """bootstrap_change / threshold_bootstrap reproduce the per-resample
    references of tests/oracles.py, which rebuild records and sweeps."""
    if variant == "A":
        betas, shots, dists = {"c": 2.23, "h": 0.43}, 6700, oracle_protocol_a(True)
    else:
        betas, shots, dists = {"c": 1.627, "h": 1.099}, 3200, oracle_protocol_b(True)
    B = build_B(betas, 1e-3)
    a_values = energy_basis_values(2, 1)
    bounds = deformation_bounds(B.basis_values, a_values)
    alpha_grid = np.array(default_alpha_grid())
    xi_grid = np.linspace(bounds.xi_min, bounds.xi_max, 41)
    table = observable_table(B, alpha_grid, xi_grid)
    records = [
        sample_shots(np.real(p), shots, seed=derive_seed(77, k), stage=stage)
        for k, (stage, p) in enumerate(zip(("i", "ii", "iii"), dists))
    ]
    sweeps = [(alpha_observable(B), alpha_grid), (xi_observable(B), xi_grid)]
    found = 0
    for k, rec_f in enumerate(records[1:]):
        cfg = BootstrapConfig(resamples=400, seed=derive_seed(78, k))
        setup = (cfg.resamples, cfg.confidence, cfg.seed)
        matrix = bootstrap_change(records[0], rec_f, table, cfg)
        reference = oracle_bootstrap_statistic(
            [records[0], rec_f],
            lambda recs: (recs[1].probabilities() - recs[0].probabilities()) @ table,
            *setup,
        )
        assert len(matrix) == len(reference) == table.shape[1]
        for m, r in zip(matrix, reference):
            # relative to the column's magnitude: entries near zero carry
            # cancellation error of that scale in either summation order
            scale = max(abs(r[0]), abs(r[1]), abs(r[2]), r[3])
            for name, want in zip(("value", "ci_low", "ci_high", "std_error"), r):
                assert abs(getattr(m, name) - want) <= 1e-12 * scale, name
        for observable, grid in sweeps:
            def builder(ri, rf):
                return sweep_crossings(
                    observable, rf.probabilities() - ri.probabilities(), grid)[1]

            slow_found, slow, slow_missing = oracle_threshold(
                records[0], rec_f, builder, *setup)
            _, point = sweep_crossings(
                observable, rec_f.probabilities() - records[0].probabilities(), grid)
            assert len(point) == int(slow_found)
            if not slow_found:
                continue
            found += 1
            fast = threshold_bootstrap(records[0], rec_f, observable, grid,
                                       float(point[0]), cfg)
            assert fast.resamples == cfg.resamples
            assert fast.no_crossing_resamples == slow_missing
            for name, want in zip(("value", "ci_low", "ci_high", "std_error"), slow):
                assert abs(getattr(fast.estimate, name) - want) <= 1e-11, name
    assert found >= 1  # the i->iii threshold of either protocol

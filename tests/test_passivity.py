import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from heatleak import (
    ExperimentConfig,
    HeatleakError,
    alpha_observable,
    build_B,
    deformation_bounds,
    energy_basis_values,
    measure_distribution,
    mixture_channel,
    observable_table,
    passivity,
    pipeline,
    reference_protocol,
    resample,
    sample_shots,
    sweep_crossings,
    tensor,
    thermal_qubit,
    xi_observable,
)
from heatleak.config import config_from_dict
from heatleak.passivity import _refine, _sign_brackets
from heatleak.recordio import read_records
from heatleak.shots import derive_seed

from conftest import haar_unitary
from oracles import (
    PIN_ALPHA_STAR_A,
    PIN_XI_STAR_B,
    check_ordering_inherited,
    oracle_bisect,
    oracle_delta_b_alpha,
    oracle_protocol_a,
    oracle_protocol_b,
    oracle_refine,
    oracle_sign_brackets,
)

GRID = np.array([a for a in np.linspace(-3.0, 3.0, 121) if a != 0.0])


# ------------------------------------------------------------------ build_B

def test_build_B_reference_values():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.allclose(B.basis_values, [0.001, 0.431, 2.231, 2.661], atol=1e-15)
    assert B.basis_values.min() == pytest.approx(1e-3, abs=0)


def test_build_B_single_qubit():
    B = build_B({"c": 1.0}, 0.5)
    assert np.allclose(B.basis_values, [0.5, 1.5])


def test_build_B_degenerate_betas():
    B = build_B({"c": 0.0, "h": 0.0}, 1e-3)
    assert np.allclose(B.basis_values, [1e-3] * 4)
    # raw ties stay ties at any epsilon
    B = build_B({"c": 1.0, "h": 1.0}, 1e3)
    assert np.array_equal(B.basis_values, [1e3, 1e3 + 1, 1e3 + 1, 1e3 + 2])


def test_build_B_rejects_bad_epsilon():
    for eps in (0.0, -1e-3, math.inf):
        with pytest.raises(HeatleakError):
            build_B({"c": 1.0}, eps)
    # energies 0 and 1 round to one eigenvalue above 2**53
    for eps in (1e17, 1e200):
        with pytest.raises(HeatleakError, match="epsilon"):
            build_B({"c": 1.0}, eps)
    with pytest.raises(HeatleakError):
        build_B({"c": math.inf}, 1e-3)


@pytest.mark.parametrize("betas", [
    {"c": 1e308, "h": 1e308},      # the energy sum overflows
    {"c": -1e308, "h": -1e308},
    {"c": 1.7e308, "h": -1.7e308},  # finite energies, their spread overflows
])
def test_build_B_rejects_overflowing_betas(betas):
    with pytest.raises(HeatleakError, match=r"^betas .* overflow"):
        build_B(betas, 1e-3)


# ------------------------------------------------- alpha columns of the table

def test_b_alpha_identity_at_one():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.allclose(observable_table(B, [1.0])[:, 0], B.basis_values)


def test_b_alpha_negative_preserves_order():
    B = build_B({"c": 1.0}, 0.5)  # values (0.5, 1.5)
    vals = observable_table(B, [-1.0])[:, 0]
    assert np.allclose(vals, [-2.0, -1.0 / 1.5])
    assert vals[0] < vals[1]


def test_b_alpha_square():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.allclose(observable_table(B, [2.0])[:, 0], B.basis_values**2)


def test_b_alpha_rejects_zero():
    B = build_B({"c": 1.0}, 0.5)
    with pytest.raises(HeatleakError):
        observable_table(B, [0.0])


def test_b_alpha_monotone_map(rng):
    for _ in range(25):
        B = build_B({"c": rng.uniform(0.1, 3), "h": rng.uniform(0.1, 3)},
                    rng.uniform(1e-4, 1e-1))
        order = np.argsort(B.basis_values)
        table = observable_table(B, [-2.7, -1.0, -0.3, 0.3, 1.0, 2.7])
        assert np.all(np.diff(table[order], axis=0) >= 0)


# ------------------------------------------------- alpha column changes

def test_delta_zero_for_identical_distributions():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.all((p - p) @ observable_table(B, GRID[::13]) == 0.0)


def test_delta_protocol_a_negative_below_crossing():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    got = (p_iii - p_i) @ observable_table(B, [0.25])[:, 0]
    assert got < 0
    assert got == pytest.approx(
        oracle_delta_b_alpha(p_i, p_iii, 2.23, 0.43, 1e-3, 0.25), abs=1e-12
    )


def test_delta_protocol_a_second_law_holds():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert (p_iii - p_i) @ observable_table(B, [1.0])[:, 0] >= 0.0


# -------------------------------------------------------------- alpha sweep

def test_alpha_sweep_identity_no_thresholds():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    values = (p - p) @ observable_table(B, GRID)[:, : len(GRID)]
    assert np.all(values == 0.0)
    assert sweep_crossings(alpha_observable(B), p - p, GRID)[1].size == 0
    assert not (values < 0).any()


def test_alpha_sweep_protocol_a_single_crossing_near_pin():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    _, crossings = sweep_crossings(alpha_observable(B), p_iii - p_i, GRID)
    assert len(crossings) == 1
    assert abs(crossings[0] - PIN_ALPHA_STAR_A) < 1e-6


def test_alpha_sweep_protocol_a_no_swap_never_negative():
    p_i, p_ii, _ = oracle_protocol_a(False)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.all((p_ii - p_i) @ observable_table(B, GRID)[:, : len(GRID)] >= 0)
    assert sweep_crossings(alpha_observable(B), p_ii - p_i, GRID)[1].size == 0


def test_alpha_sweep_crossing_residual_is_tiny():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    _, (loc,) = sweep_crossings(alpha_observable(B), p_iii - p_i, GRID)
    column = observable_table(B, [loc])[:, 0]
    scale = np.max(np.abs(column))
    assert abs((p_iii - p_i) @ column) <= 1e-9 * scale


def test_alpha_sweep_rejects_zero_in_grid():
    B = build_B({"c": 1.0}, 0.5)
    with pytest.raises(HeatleakError):
        observable_table(B, [-1.0, 0.0, 1.0])


# ------------------------------------------------------- second-law column

def _second_law(p0, pf, betas):
    """The second-law column's change at epsilon = 1: sum_j beta_j * (change
    of <H_j>), since the constant shift of B cancels in the difference."""
    return float((pf - p0) @ observable_table(build_B(betas, 1.0), [1.0])[:, 1])


def test_second_law_zero_for_identical():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    assert _second_law(p, p, {"c": 2.23, "h": 0.43}) == 0.0


def test_second_law_equals_alpha_one(rng):
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    for _ in range(50):
        p0 = rng.dirichlet(np.ones(4))
        pf = rng.dirichlet(np.ones(4))
        a = (pf - p0) @ observable_table(B, [1.0])[:, 0]
        b = _second_law(p0, pf, B.betas)
        assert abs(a - b) < 1e-12


def test_second_law_protocol_a_non_negative():
    p_i, _, p_iii = oracle_protocol_a(True)
    assert _second_law(p_i, p_iii, {"c": 2.23, "h": 0.43}) >= 0.0


# ------------------------------------------------- check_ordering_inherited

B_VALUES_REF = np.array([0.0, 1.099, 1.627, 1.627 + 1.099])
A_VALUES_HH = np.array([0.0, 1.0, 0.0, 1.0])


def test_ordering_trivial_at_zero(rng):
    for _ in range(20):
        b = rng.normal(size=6)
        a = rng.normal(size=6)
        assert check_ordering_inherited(b, a, 0.0)


def test_ordering_boundary_values():
    assert check_ordering_inherited(B_VALUES_REF, A_VALUES_HH, -1.099)
    assert not check_ordering_inherited(B_VALUES_REF, A_VALUES_HH, -1.099 - 0.01)
    assert check_ordering_inherited(B_VALUES_REF, A_VALUES_HH, 0.528)
    assert not check_ordering_inherited(B_VALUES_REF, A_VALUES_HH, 0.528 + 0.01)


# --------------------------------------------------------- deformation_bounds

def test_bounds_reference_protocol():
    bounds = deformation_bounds(B_VALUES_REF, A_VALUES_HH)
    assert abs(bounds.xi_min - (-1.099)) < 1e-12
    assert abs(bounds.xi_max - (1.627 - 1.099)) < 1e-12
    assert bounds.binding_pairs["xi_min"]
    assert bounds.binding_pairs["xi_max"]


def test_bounds_self_deformation():
    b = np.array([0.2, 0.9, 1.4, 2.0])
    bounds = deformation_bounds(b, b)
    assert bounds.xi_min == pytest.approx(-1.0)
    assert bounds.xi_max == math.inf


def test_bounds_constant_observable():
    b = np.array([0.2, 0.9, 1.4, 2.0])
    bounds = deformation_bounds(b, np.full(4, 3.3))
    assert bounds.xi_min == -math.inf
    assert bounds.xi_max == math.inf


def test_bounds_equal_betas_tie_is_unconstrained():
    # equal betas tie the middle eigenvalues; tied pairs impose no ordering
    # constraint, so only the lower side stays bounded
    B = build_B({"c": 1.0, "h": 1.0}, 1e-3)
    bounds = deformation_bounds(B.basis_values, A_VALUES_HH)
    assert bounds.xi_min == pytest.approx(-1.0)
    assert bounds.xi_max == math.inf
    assert check_ordering_inherited(B.basis_values, A_VALUES_HH, 50.0)


def test_bounds_consistent_with_ordering_check(rng):
    for _ in range(50):
        b = np.sort(rng.uniform(0, 3, size=4))
        a = rng.integers(0, 3, size=4).astype(float)
        bounds = deformation_bounds(b, a)
        for xi, ok in (
            (bounds.xi_min, True),
            (bounds.xi_max, True),
            (bounds.xi_min - 1e-6, False),
            (bounds.xi_max + 1e-6, False),
        ):
            if not math.isfinite(xi):
                continue
            assert check_ordering_inherited(b, a, xi) == ok, (b, a, xi)


# ---------------------------------------------------------- deformation sweep

def _normal_form(B, p0, pf, grid):
    """d<H_c> + ((beta_h + xi)/beta_c) * d<H_h> per xi: the margin lhs - rhs
    of the xi CSVs, violated where negative."""
    return xi_observable(B)(grid) @ (pf - p0)


def _raw_form(B, p0, pf, grid):
    """d<B> + xi*d<H_h> per xi: the paper's deformation of B by H_h."""
    return (pf - p0) @ (B.basis_values[:, None] + A_VALUES_HH[:, None] * grid)


def test_deformation_sweep_identity_no_violation():
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    grid = np.linspace(-1.099, 0.528, 21)
    assert not (_normal_form(B, p, p, grid) < 0).any()
    assert sweep_crossings(xi_observable(B), p - p, grid)[1].size == 0
    assert np.allclose(_raw_form(B, p, p, grid), 0.0)


def test_deformation_sweep_protocol_b_crossing_near_pin():
    p_i, _, p_iii = oracle_protocol_b(True)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 41)
    _, crossings = sweep_crossings(xi_observable(B), p_iii - p_i, grid)
    assert len(crossings) == 1
    loc = crossings[0]
    assert abs(loc - PIN_XI_STAR_B) < 1e-6
    # violated exactly on [xi_min, xi*)
    assert np.array_equal(_normal_form(B, p_i, p_iii, grid) < 0, grid < loc)


def test_deformation_sweep_no_swap_clean():
    p_i, p_ii, _ = oracle_protocol_b(False)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 41)
    assert not (_normal_form(B, p_i, p_ii, grid) < 0).any()


def test_deformation_sweep_flag_matches_raw_sign():
    p_i, _, p_iii = oracle_protocol_b(True)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 21)
    assert np.array_equal(_normal_form(B, p_i, p_iii, grid) < 0,
                          _raw_form(B, p_i, p_iii, grid) < 0)


def test_deformation_sweep_rejects_out_of_bounds_grid():
    # the xi grid is checked against the admissible interval of B + xi*H_h
    cfg = ExperimentConfig(protocol=reference_protocol("B"))
    assert (cfg.protocol.beta_c, cfg.protocol.beta_h) == (1.627, 1.099)
    B = build_B({"c": 1.627, "h": 1.099}, cfg.epsilon)
    bounds = deformation_bounds(B.basis_values, A_VALUES_HH)
    for xi in (-2.0, 0.6):
        assert not bounds.xi_min <= xi <= bounds.xi_max
        cfg.xi_grid = [xi]
        with pytest.raises(HeatleakError, match="outside the admissible interval"):
            cfg.deformation_grid()


def test_deformation_sweep_rejects_nonpositive_beta_c():
    B = build_B({"c": -0.5, "h": 1.0}, 1e-3)
    with pytest.raises(HeatleakError):
        xi_observable(B)


# ------------------------------------------------------ unitality properties

def _random_product_thermal(rng):
    beta_c = rng.uniform(0.1, 3.0)
    beta_h = rng.uniform(0.1, 3.0)
    state = tensor(thermal_qubit(beta_c), thermal_qubit(beta_h))
    return beta_c, beta_h, state


def test_unital_evolutions_never_violate(rng):
    # smaller edition of the acceptance property suite
    grid = np.array([a for a in np.linspace(-3, 3, 61) if a != 0.0])
    for _ in range(40):
        beta_c, beta_h, state = _random_product_thermal(rng)
        B = build_B({"c": beta_c, "h": beta_h}, 1e-3)
        k = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(k))
        terms = [(p, haar_unitary(4, rng), [0, 1]) for p in probs]
        final = mixture_channel(state, terms)
        p0 = measure_distribution(state, [0, 1])
        pf = measure_distribution(final, [0, 1])
        values = (pf - p0) @ observable_table(B, grid)[:, : len(grid)]
        assert values.min() >= -1e-9


def test_deformed_inequality_holds_for_unitaries(rng):
    for _ in range(40):
        beta_c, beta_h, state = _random_product_thermal(rng)
        B = build_B({"c": beta_c, "h": beta_h}, 1e-3)
        bounds = deformation_bounds(B.basis_values, A_VALUES_HH)
        lo = bounds.xi_min if math.isfinite(bounds.xi_min) else -5.0
        hi = bounds.xi_max if math.isfinite(bounds.xi_max) else 5.0
        grid = np.linspace(lo, hi, 21)
        u = haar_unitary(4, rng)
        final = mixture_channel(state, [(1.0, u, [0, 1])])
        p0 = measure_distribution(state, [0, 1])
        pf = measure_distribution(final, [0, 1])
        assert _raw_form(B, p0, pf, grid).min() >= -1e-9


# --------------------------------------------------------- observable_table

@pytest.mark.parametrize("betas", [{"c": 2.23, "h": 0.43}, {"c": 1.627, "h": 1.099}])
def test_observable_table_slices_match_channel_functions(rng, betas):
    """The alpha and xi blocks are the family functions on their grids, bit
    for bit, around the B column, in one C-ordered table."""
    B = build_B(betas, 1e-3)
    bounds = deformation_bounds(B.basis_values, A_VALUES_HH)
    xi_grid = np.linspace(bounds.xi_min, bounds.xi_max, 41)
    table = observable_table(B, GRID, xi_grid)
    n = len(GRID)
    assert table.shape == (4, n + 1 + len(xi_grid))
    assert table.flags.c_contiguous
    assert np.array_equal(table[:, :n], alpha_observable(B)(GRID).T)
    assert np.array_equal(table[:, n], B.basis_values)
    assert np.array_equal(table[:, n + 1:], xi_observable(B)(xi_grid).T)
    assert np.array_equal(observable_table(B, GRID, None), table[:, :n + 1])
    for _ in range(50):
        p0 = rng.dirichlet(np.ones(4))
        pf = rng.dirichlet(np.ones(4))
        assert abs((pf - p0) @ table[:, n] - _second_law(p0, pf, betas)) < 1e-12


def test_observable_table_xi_columns_need_qubits_c_and_h():
    with pytest.raises(HeatleakError, match="qubits c and h"):
        observable_table(build_B({"c": 1.0}, 0.5), [1.0], [0.0])


# ---------------------------------------------------------- crossing search

def _bracket_values(rows, lo, hi, grid):
    """_sign_brackets' grid positions as grid values, as the oracle gives them."""
    return rows, grid[lo], grid[hi]


@pytest.mark.parametrize("row, expected", [
    ([-1, 0, 2], [(0, 2)]),                    # -,0,+ crosses at the touch
    ([-1, 0, 0, 2], [(0, 3)]),                 # -,0,0,+
    ([0, 0, 0, 0], []),                        # identity evolution
    ([0, -1, 2, 0], [(1, 2)]),                 # leading and trailing zeros
    ([0, 0, 2, -1, 0, 0, 2], [(2, 3), (3, 6)]),
    ([2, np.nan, -1], []),                     # NaN pairs with nothing
    ([2, 0, np.nan, 0, -1, 2], [(4, 5)]),
    ([-1], []),
    ([0, 2], []),
    ([2, -1], [(0, 1)]),
])
def test_sign_brackets_hand_cases(row, expected):
    values = np.array([row], dtype=float)
    rows, lo, hi = _sign_brackets(values)
    assert list(zip(lo.tolist(), hi.tolist())) == expected
    assert rows.tolist() == [0] * len(expected)
    grid = np.arange(len(row)) * 0.25 - 1.0
    for got, want in zip(_bracket_values(rows, lo, hi, grid),
                         oracle_sign_brackets(values, grid)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("points", [1, 2, 3, 5, 40])
def test_sign_brackets_match_forward_fill_oracle(points):
    """Matrices over {-1, 0, 2} with some NaN: zero-free rows take the
    boolean comparison, the others the zero-only forward fill, and both
    give the former pairing's brackets in its order."""
    rng = np.random.default_rng(1200 + points)
    values = rng.choice([-1.0, 0.0, 2.0], size=(600, points), p=[0.35, 0.3, 0.35])
    values[rng.random(values.shape) < 0.03] = np.nan
    values[:40] = rng.choice([-1.0, 2.0], size=(40, points))  # no zero
    values[40:45] = 0.0                                       # all zero
    grid = np.sort(rng.normal(size=points))
    got = _bracket_values(*_sign_brackets(values), grid)
    want = oracle_sign_brackets(values, grid)
    assert len(want[0]) > 0 or points == 1
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_sweep_crossings_brackets_across_row_blocks(monkeypatch):
    """More rows than one _BLOCK_VALUES block: with _refine returning the
    midpoint, sweep_crossings gives the former pairing's brackets."""
    points = 7
    grid = np.linspace(-1.0, 2.0, points)
    step = passivity._BLOCK_VALUES // points
    rng = np.random.default_rng(1207)
    values = rng.choice([-1.0, 0.0, 2.0], size=(2 * step + 321, points))
    values[step - 3:step + 3] = 0.0  # all-zero rows at a block boundary
    seen = []

    def midpoints(observable, diffs, lo, hi):
        seen.append((lo.copy(), hi.copy()))
        return 0.5 * (lo + hi)

    monkeypatch.setattr(passivity, "_refine", midpoints)

    def one_hot(x):  # values @ one_hot(grid).T == values, exactly
        return (np.asarray(x, dtype=float)[..., None] == grid).astype(float)

    rows, locations = sweep_crossings(one_hot, values, grid)
    want_rows, want_lo, want_hi = oracle_sign_brackets(values, grid)
    assert np.array_equal(rows, want_rows)
    (lo, hi), = seen
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert np.array_equal(locations, 0.5 * (want_lo + want_hi))


def _counted(observable, points):
    def counted(x):
        points.append(np.size(x))
        return observable(x)
    return counted


def test_refine_linear_xi_sweep_converges_in_few_calls():
    """The xi margin is linear, so the first secant point is the root; the
    second lands on it (or straddles it) and stops the bracket: 2000
    resamples of the reference B run take at most 6 observable calls."""
    p_i, _, p_iii = oracle_protocol_b(True)
    rec_i = sample_shots(p_i, 3200, seed=300, stage="i")
    rec_f = sample_shots(p_iii, 3200, seed=301, stage="iii")
    diffs = resample(rec_f, 2000, 31) - resample(rec_i, 2000, 30)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 41)
    calls = []
    rows, locations = sweep_crossings(_counted(xi_observable(B), calls), diffs, grid)
    assert len(calls) <= 6
    assert len(rows) >= 1900
    r, lo, hi = oracle_sign_brackets(diffs @ xi_observable(B)(grid).T, grid)
    assert np.array_equal(rows, r)
    reference = oracle_refine(xi_observable(B), diffs[r], lo, hi)
    assert np.max(np.abs(locations - reference)) <= 1e-12


def test_refine_illinois_rule_unsticks_a_stalling_bracket():
    """exp(25 x) dominates this sum of exponentials, so plain regula falsi
    keeps the right end for good and creeps ~6e-12 per step from the left;
    the Illinois rule lands within 1e-12 of bisection well inside 200
    steps."""
    b = np.array([-20.0, 0.0, 1.0, 25.0])
    d = np.array([0.1, -2.0, 0.5, 1.0])

    def observable(x):
        return np.exp(np.asarray(x, dtype=float)[..., None] * b)

    def f(x):
        return float(d @ np.exp(x * b))

    root = oracle_bisect(f, 0.0, 1.0)
    lo, hi = 0.0, 1.0
    for _ in range(200):  # plain regula falsi
        x = lo - f(lo) * (hi - lo) / (f(hi) - f(lo))
        lo, hi = (x, hi) if f(x) < 0 else (lo, x)
    assert hi == 1.0 and root - lo > 0.01
    calls = []
    (got,) = _refine(_counted(observable, calls), d[None, :], np.array([0.0]),
                     np.array([1.0]))
    assert abs(got - root) <= 1e-12
    assert len(calls) <= 60


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_refine_secant_landing_on_an_end_stops_there(end):
    """A margin of -1e-13 at one end and ~5e21 at the other puts the secant
    point on that end exactly, twice: the bracket stops there (the root is
    ~2e-15 away) after 2 steps, where a strict-interior test bisects."""
    sign = 1.0 if end == "lo" else -1.0

    def observable(x):
        x = np.asarray(x, dtype=float)[..., None]
        return np.concatenate([np.exp(50.0 * sign * (x - sign)), np.ones_like(x)], -1)

    d = np.array([1.0, -(1.0 + 1e-13)])
    lo, hi = (1.0, 2.0) if end == "lo" else (-2.0, -1.0)
    calls = []
    (got,) = _refine(_counted(observable, calls), d[None, :], np.array([lo]),
                     np.array([hi]))
    assert got == (lo if end == "lo" else hi)
    assert len(calls) == 4  # both ends, then two steps
    root = oracle_bisect(lambda x: float(d @ observable(x)), lo, hi)
    assert abs(got - root) <= 1e-12


def test_refine_alpha_zero_split_matches_bisection():
    """Brackets [-0.5, 0.5] around the excluded alpha = 0: refined on the
    left half, on the right half, or reported at 0 (a margin that jumps
    sign at 0, since its diff does not sum to 0), as the former bisection
    did; exact zeros at an end finish a bracket there."""
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    observable = alpha_observable(B)
    rng = np.random.default_rng(1212)
    diffs = rng.normal(size=(600, 4))
    diffs[:450] -= diffs[:450].mean(axis=1, keepdims=True)
    grid = np.array([-0.5, 0.5])
    rows, lo, hi = oracle_sign_brackets(diffs @ observable(grid).T, grid)
    # plus finished brackets: an all-zero diff, across 0 and off it
    d = np.vstack([diffs[rows], np.zeros((2, 4))])
    lo, hi = np.append(lo, [-0.5, 0.2]), np.append(hi, [0.5, 0.4])
    got = _refine(observable, d, lo.copy(), hi.copy())
    want = oracle_refine(observable, d, lo, hi)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got == 0.0, want == 0.0)
    assert got[-2:].tolist() == [0.0, 0.2]
    split = got[:-2]
    assert (split < 0).sum() >= 10 and (split > 0).sum() >= 10
    assert (split == 0).sum() >= 10


@pytest.mark.parametrize("variant", ["A", "B"])
def test_crossings_match_bisection_on_benchmark_records(tmp_path, variant):
    """16 record files of perfbench's analyze workload of each protocol, each
    resampled as analyze does: every sweep of both stage pairs gives the
    former pairing's brackets, and every resample location lies within
    1e-12 of the former bisection."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[f"analyze-{variant}"]
    rng = workloads._rng(1, workload.workload_id)
    dists = workload._dists(oracles)
    located = 0
    for k in range(16):
        path = str(tmp_path / f"records_{k:02d}.jsonl")
        workloads.write_record_file(path, variant, dists, workload.shots,
                                    workload.resamples, rng)
        header, records = read_records(path)
        config = config_from_dict(header)
        rates = {
            rec.stage: resample(rec, config.bootstrap.resamples, derive_seed(
                config.seed, pipeline.CI_SEED_ROLE, pipeline.STAGE_SEED_ROLE[rec.stage]))
            for rec in records
        }
        _, sweeps, _ = pipeline._plan(config)
        for stage in ("ii", "iii"):
            diffs = rates[stage] - rates["i"]
            for sweep in sweeps:
                rows, locations = sweep_crossings(sweep.observable, diffs, sweep.grid)
                columns = sweep.observable(sweep.grid).T
                step = passivity._BLOCK_VALUES // len(sweep.grid)
                values = np.vstack([diffs[s:s + step] @ columns
                                    for s in range(0, len(diffs), step)])
                r, lo, hi = oracle_sign_brackets(values, sweep.grid)
                assert np.array_equal(rows, r)
                reference = oracle_refine(sweep.observable, diffs[r], lo, hi)
                assert np.all(np.abs(locations - reference) <= 1e-12)
                located += len(rows)
    assert located >= 16 * 1900

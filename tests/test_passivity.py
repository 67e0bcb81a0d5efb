import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from heatleak import (
    ExperimentConfig,
    HeatleakError,
    ProtocolConfig,
    ShotRecord,
    alpha_observable,
    build_B,
    deformation_bounds,
    energy_basis_values,
    measure_distribution,
    mixture_channel,
    observable_table,
    pipeline,
    reference_protocol,
    resample,
    sweep_crossings,
    tensor,
    thermal_qubit,
    xi_observable,
)
from heatleak.config import config_from_dict
from heatleak.passivity import alpha_slope, xi_slope
from heatleak.recordio import read_records
from heatleak.shots import derive_seed

from conftest import haar_unitary
from oracles import (
    PIN_ALPHA_STAR_A,
    PIN_XI_STAR_B,
    check_ordering_inherited,
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
    assert sweep_crossings(alpha_observable(B), p - p, GRID).size == 0
    assert not (values < 0).any()


def test_alpha_sweep_protocol_a_single_crossing_near_pin():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    crossings = sweep_crossings(alpha_observable(B), p_iii - p_i, GRID)
    assert len(crossings) == 1
    assert abs(crossings[0] - PIN_ALPHA_STAR_A) < 1e-6


def test_alpha_sweep_protocol_a_no_swap_never_negative():
    p_i, p_ii, _ = oracle_protocol_a(False)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.all((p_ii - p_i) @ observable_table(B, GRID)[:, : len(GRID)] >= 0)
    assert sweep_crossings(alpha_observable(B), p_ii - p_i, GRID).size == 0


def test_alpha_sweep_crossing_residual_is_tiny():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    (loc,) = sweep_crossings(alpha_observable(B), p_iii - p_i, GRID)
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
    assert sweep_crossings(xi_observable(B), p - p, grid).size == 0
    assert np.allclose(_raw_form(B, p, p, grid), 0.0)


def test_deformation_sweep_protocol_b_crossing_near_pin():
    p_i, _, p_iii = oracle_protocol_b(True)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 41)
    crossings = sweep_crossings(xi_observable(B), p_iii - p_i, grid)
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


def test_slopes_are_the_observables_derivatives():
    """alpha_slope and xi_slope match central differences of alpha_observable
    and xi_observable, and keep their shape over an array of points."""
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    pairs = [(alpha_observable(B), alpha_slope(B)), (xi_observable(B), xi_slope(B))]
    for observable, slope in pairs:
        for x in (-2.5, -0.3, 0.47, 1.0, 2.9):
            central = (observable(x + 1e-6) - observable(x - 1e-6)) / 2e-6
            assert np.allclose(slope(x), central, rtol=1e-7, atol=1e-9)
        assert slope(np.array([0.2, 0.4])).shape == observable(np.array([0.2, 0.4])).shape


# ---------------------------------------------------------- crossing search

def _interpolating(row, grid):
    """A one-outcome observable whose sweep under the diff [1.0] is row at
    the grid points and its linear interpolation between them."""
    return lambda x: np.interp(x, grid, row)[..., None]


def _point_mass(row, grid):
    """Like _interpolating but 0 off the grid points, so a bracket's first
    midpoint, or the alpha = 0 split, ends its search."""
    return lambda x: np.where(np.asarray(x)[..., None] == grid, row, 0.0).sum(
        axis=-1, keepdims=True)


def _oracle_crossings(values, grid, observable_of_row):
    """oracle_sign_brackets, then oracle_refine of each row's brackets under
    observable_of_row(row, grid) and the diff [1.0]."""
    rows, lo, hi = oracle_sign_brackets(values, grid)
    locations = np.empty(len(rows))
    for r in np.unique(rows):
        at = rows == r
        locations[at] = oracle_refine(observable_of_row(values[r], grid),
                                      np.ones((at.sum(), 1)), lo[at], hi[at])
    return rows, locations


def _by_row(searches):
    """(rows, locations) of sweep_crossings over (observable, diff, grid)
    searches, one call each, with the search's index as its crossings' row,
    in the form of the oracles' brackets."""
    rows, locations = [], []
    for r, search in enumerate(searches):
        located = sweep_crossings(*search)
        assert located.ndim == 1
        rows += [r] * len(located)
        locations += located.tolist()
    return np.array(rows, dtype=int), np.array(locations)


def _row_crossings(values, grid, observable_of_row):
    """_by_row of the sweep of each row of values under
    observable_of_row(row, grid) and the diff [1.0]."""
    return _by_row((observable_of_row(row, grid), [1.0], grid) for row in values)


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
    """sweep_crossings pairs each nonzero value with the last nonzero one
    before it and locates the crossing of the interpolated sweep inside
    that bracket, as the former pairing and bisection did (1e-12)."""
    values = np.array([row], dtype=float)
    grid = np.arange(len(row)) * 0.25 - 1.0
    locations = sweep_crossings(_interpolating(values[0], grid), [1.0], grid)
    assert len(locations) == len(expected)
    for x, (lo, hi) in zip(locations, expected):
        assert grid[lo] <= x <= grid[hi]
    want_rows, want = _oracle_crossings(values, grid, _interpolating)
    assert want_rows.tolist() == [0] * len(expected)
    assert np.all(np.abs(locations - want) <= 1e-12)


@pytest.mark.parametrize("points", [1, 2, 3, 5, 40])
def test_sign_brackets_match_forward_fill_oracle(points):
    """Rows over {-1, 0, 2} with some NaN, each a sweep of its own: their
    crossings are the former pairing's brackets in its order, located as
    its bisection locates them (1e-12)."""
    rng = np.random.default_rng(1200 + points)
    values = rng.choice([-1.0, 0.0, 2.0], size=(600, points), p=[0.35, 0.3, 0.35])
    values[rng.random(values.shape) < 0.03] = np.nan
    values[:40] = rng.choice([-1.0, 2.0], size=(40, points))  # no zero
    values[40:45] = 0.0                                       # all zero
    grid = np.sort(rng.normal(size=points))
    rows, locations = _row_crossings(values, grid, _point_mass)
    want_rows, want = _oracle_crossings(values, grid, _point_mass)
    assert len(want_rows) > 0 or points == 1
    assert np.array_equal(rows, want_rows)
    assert np.all(np.abs(locations - want) <= 1e-12)


def test_refine_alpha_zero_split_matches_bisection():
    """Brackets [-0.5, 0.5] around the excluded alpha = 0: located on the
    left half, on the right half, or at 0 (a margin that jumps sign at 0,
    since its diff does not sum to 0), as the former bisection did."""
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    observable = alpha_observable(B)
    rng = np.random.default_rng(1212)
    diffs = rng.normal(size=(600, 4))
    diffs[:450] -= diffs[:450].mean(axis=1, keepdims=True)
    grid = np.array([-0.5, 0.5])
    rows, got = _by_row((observable, diff, grid) for diff in diffs)
    r, lo, hi = oracle_sign_brackets(diffs @ observable(grid).T, grid)
    want = oracle_refine(observable, diffs[r], lo, hi)
    assert np.array_equal(rows, r)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got == 0.0, want == 0.0)
    assert (got < 0).sum() >= 10 and (got > 0).sum() >= 10
    assert (got == 0).sum() >= 10


def test_crossing_on_a_grid_point_is_located_there():
    """One shot moved from each of 00 and 11 to 01 and 10 leaves <B>
    unchanged, so the alpha sweep crosses 0 at the grid point alpha = 1.
    There the grid's matrix product and a scalar product of the same
    values can round to opposite signs; the bracket keeps the grid's
    signs, so the crossing is found at 1, not a grid step beyond it."""
    B = build_B({"c": 0.7836368969066686, "h": 1.0779644540216649}, 1e-3)
    diff = np.array([8, 4, 2, 0]) / 14 - np.array([9, 3, 1, 1]) / 14
    grid = np.array(config_from_dict({}).alpha_grid)
    locations = sweep_crossings(alpha_observable(B), diff, grid)
    assert locations.shape == (1,) and abs(locations[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("variant", ["A", "B"])
def test_crossings_match_bisection_on_benchmark_records(tmp_path, variant):
    """16 record files of perfbench's analyze workload of each protocol:
    every sweep of both stage pairs, on the point change that analyze
    searches and on the first 50 changes resampled as analyze resamples
    them, gives the former pairing's brackets, and every location lies
    within 1e-12 of the former bisection."""
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
        by_stage = {rec.stage: rec for rec in records}
        rates = {
            rec.stage: resample((rec.probabilities(), rec.shots), 50, derive_seed(
                config.seed, pipeline.CI_SEED_ROLE, pipeline.STAGE_SEED_ROLE[rec.stage]))
            for rec in records
        }
        _, sweeps, _, _ = pipeline._plan(config)
        for stage in ("ii", "iii"):
            point = by_stage[stage].probabilities() - by_stage["i"].probabilities()
            diffs = np.vstack([point, rates[stage] - rates["i"]])
            for sweep in sweeps:
                rows, locations = _by_row(
                    (sweep.observable, diff, sweep.grid) for diff in diffs)
                values = diffs @ sweep.observable(sweep.grid).T
                r, lo, hi = oracle_sign_brackets(values, sweep.grid)
                assert np.array_equal(rows, r)
                reference = oracle_refine(sweep.observable, diffs[r], lo, hi)
                assert np.all(np.abs(locations - reference) <= 1e-12)
                located += len(rows)
    assert located >= 16 * 40


# the seed and the number of record pairs of the sign-rule property test,
# fixed before its first run
SIGN_RULE_SEED, SIGN_RULE_PAIRS = 3232, 2000


def _sign_changes(d, b_values):
    """V: the sign changes of d in the ascending order of b_values, with each
    class of tied values summed first (zero sums skipped)."""
    sums = [sum(d_k for d_k, b_k in zip(d, b_values) if b_k == b)
            for b in sorted(set(b_values))]
    signs = [s > 0 for s in sums if s != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_sweeps_left_nonzero_keep_the_rule_of_signs():
    """Laguerre's rule of signs (Polya & Szego, Problems and Theorems in
    Analysis II, Part V): sum_k D_k b_k**alpha has at most V real zeros, V the
    sign changes of the count change D in B's ascending order with tied
    outcomes summed, and alpha = 0 is one of them.  So every alpha sweep that
    analyze's exact-zero rule leaves non-zero crosses at most V - 1 times,
    and every xi sweep, linear in xi, at most once: float noise adds no
    crossing once the rule has taken out the zero sweeps.  SIGN_RULE_PAIRS
    record pairs of 1-29 shots, every other pair of a config a move of
    shots from 00 and 11 onto 01 and 10 (d<H_c> = d<H_h> = 0), over protocol
    A with an auto xi grid, protocol B, beta_c = beta_h and beta_h = 0."""
    configs = [
        ExperimentConfig(protocol=reference_protocol("A"), xi_grid="auto"),
        ExperimentConfig(protocol=reference_protocol("B")),
        ExperimentConfig(protocol=ProtocolConfig("A", beta_c=1.3, beta_h=1.3, beta_e=2.0)),
        ExperimentConfig(protocol=ProtocolConfig("A", beta_c=2.0, beta_h=0.0, beta_e=2.0)),
    ]
    plans = [pipeline._plan(config) for config in configs]
    b_values = [build_B({"c": c.protocol.beta_c, "h": c.protocol.beta_h},
                        c.epsilon).basis_values.tolist() for c in configs]
    rng = np.random.default_rng(SIGN_RULE_SEED)
    searched = {"alpha": 0, "xi": 0}
    for k in range(SIGN_RULE_PAIRS):
        _, sweeps, groups, exact_zeros = plans[k % 4]
        n_i = int(rng.integers(1, 30))
        c_i = rng.multinomial(n_i, rng.dirichlet(np.ones(4)))
        if (k // 4) % 2:
            n_f = n_i
            move = int(rng.integers(-min(c_i[1], c_i[2]), min(c_i[0], c_i[3]) + 1))
            c_f = c_i + move * np.array([-1, 1, 1, -1])
        else:
            n_f = int(rng.integers(1, 30))
            c_f = rng.multinomial(n_f, rng.dirichlet(np.ones(4)))
        rec_i, rec_f = (ShotRecord(stage=stage, shots=n, counts=dict(zip(
            ("00", "01", "10", "11"), counts.tolist())))
            for stage, n, counts in (("i", n_i, c_i), ("iii", n_f, c_f)))
        d = (n_i * c_f - n_f * c_i).tolist()
        bounds = {"alpha": _sign_changes(d, b_values[k % 4]) - 1, "xi": 1}
        zeros = exact_zeros(rec_i, rec_f)
        diff = rec_f.probabilities() - rec_i.probabilities()
        for sweep in sweeps:
            if zeros[groups[sweep.channel]].all():
                continue
            crossings = sweep_crossings(sweep.observable, diff, sweep.grid)
            assert len(crossings) <= bounds[sweep.prefix], (k, sweep.prefix, d)
            searched[sweep.prefix] += 1
    assert searched["alpha"] > SIGN_RULE_PAIRS // 2
    assert searched["xi"] > SIGN_RULE_PAIRS // 8

import math

import numpy as np
import pytest

from heatleak import (
    PassivityError,
    alpha_sweep,
    b_alpha_values,
    build_B,
    check_ordering_inherited,
    deformation_bounds,
    deformation_sweep,
    delta_B_alpha,
    energy_basis_values,
    generic_F_delta,
    measure_distribution,
    mixture_channel,
    second_law_delta,
    tensor,
    thermal_qubit,
)
from heatleak.passivity import deformation_raw_values
from heatleak.passivity import observable_table

from conftest import haar_unitary
from oracles import (
    PIN_ALPHA_STAR_A,
    PIN_XI_STAR_B,
    oracle_delta_b_alpha,
    oracle_protocol_a,
    oracle_protocol_b,
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


def test_build_B_rejects_bad_epsilon():
    for eps in (0.0, -1e-3, math.inf):
        with pytest.raises(PassivityError):
            build_B({"c": 1.0}, eps)
    with pytest.raises(PassivityError):
        build_B({"c": math.inf}, 1e-3)


# ------------------------------------------------------------ b_alpha_values

def test_b_alpha_identity_at_one():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.allclose(b_alpha_values(B, 1.0), B.basis_values)


def test_b_alpha_negative_preserves_order():
    B = build_B({"c": 1.0}, 0.5)  # values (0.5, 1.5)
    vals = b_alpha_values(B, -1.0)
    assert np.allclose(vals, [-2.0, -1.0 / 1.5])
    assert vals[0] < vals[1]


def test_b_alpha_square():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert np.allclose(b_alpha_values(B, 2.0), B.basis_values**2)


def test_b_alpha_rejects_zero():
    B = build_B({"c": 1.0}, 0.5)
    with pytest.raises(PassivityError):
        b_alpha_values(B, 0.0)


def test_b_alpha_monotone_map(rng):
    for _ in range(25):
        B = build_B({"c": rng.uniform(0.1, 3), "h": rng.uniform(0.1, 3)},
                    rng.uniform(1e-4, 1e-1))
        order = np.argsort(B.basis_values)
        for alpha in (-2.7, -1.0, -0.3, 0.3, 1.0, 2.7):
            vals = b_alpha_values(B, alpha)
            assert np.all(np.diff(vals[order]) >= 0)


# ------------------------------------------------------------ delta_B_alpha

def test_delta_zero_for_identical_distributions():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    for alpha in GRID[::13]:
        assert delta_B_alpha(p, p, B, alpha) == 0.0


def test_delta_protocol_a_negative_below_crossing():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    got = delta_B_alpha(p_i, p_iii, B, 0.25)
    assert got < 0
    assert got == pytest.approx(
        oracle_delta_b_alpha(p_i, p_iii, 2.23, 0.43, 1e-3, 0.25), abs=1e-12
    )


def test_delta_protocol_a_second_law_holds():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    assert delta_B_alpha(p_i, p_iii, B, 1.0) >= 0.0


def test_delta_rejects_mismatched_lengths():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    with pytest.raises(PassivityError):
        delta_B_alpha([0.5, 0.5], [0.25] * 4, B, 1.0)


# -------------------------------------------------------------- alpha_sweep

def test_alpha_sweep_identity_no_thresholds():
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    sweep = alpha_sweep(p, p, B, GRID)
    assert np.all(sweep.lhs == 0.0)
    assert sweep.thresholds == []
    assert not sweep.violated.any()


def test_alpha_sweep_protocol_a_single_crossing_near_pin():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    sweep = alpha_sweep(p_i, p_iii, B, GRID)
    assert len(sweep.thresholds) == 1
    loc, _ = sweep.thresholds[0]
    assert abs(loc - PIN_ALPHA_STAR_A) < 1e-6


def test_alpha_sweep_protocol_a_no_swap_never_negative():
    p_i, p_ii, _ = oracle_protocol_a(False)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    sweep = alpha_sweep(p_i, p_ii, B, GRID)
    assert np.all(sweep.lhs >= 0)
    assert sweep.thresholds == []


def test_alpha_sweep_crossing_residual_is_tiny():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    sweep = alpha_sweep(p_i, p_iii, B, GRID)
    loc, _ = sweep.thresholds[0]
    scale = np.max(np.abs(b_alpha_values(B, loc)))
    assert abs(delta_B_alpha(p_i, p_iii, B, loc)) <= 1e-9 * scale


def test_alpha_sweep_rejects_zero_in_grid():
    B = build_B({"c": 1.0}, 0.5)
    with pytest.raises(PassivityError):
        alpha_sweep([0.5, 0.5], [0.5, 0.5], B, [-1.0, 0.0, 1.0])


# --------------------------------------------------------- second_law_delta

def test_second_law_zero_for_identical():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    assert second_law_delta(p, p, {"c": 2.23, "h": 0.43}) == 0.0


def test_second_law_equals_alpha_one(rng):
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    for _ in range(50):
        p0 = rng.dirichlet(np.ones(4))
        pf = rng.dirichlet(np.ones(4))
        a = delta_B_alpha(p0, pf, B, 1.0)
        b = second_law_delta(p0, pf, B.betas)
        assert abs(a - b) < 1e-12


def test_second_law_protocol_a_non_negative():
    p_i, _, p_iii = oracle_protocol_a(True)
    assert second_law_delta(p_i, p_iii, {"c": 2.23, "h": 0.43}) >= 0.0


# ---------------------------------------------------------- generic_F_delta

def test_generic_F_log_reduces_to_second_law():
    # F = -ln(p0) on a thermal product equals beta-weighted energies up to a
    # constant, and the constant cancels in the difference
    p0 = measure_distribution(
        tensor(thermal_qubit(2.23), thermal_qubit(0.43)), [0, 1]
    )
    _, _, pf = oracle_protocol_a(True)
    got = generic_F_delta(p0, pf, -np.log(p0))
    expected = second_law_delta(p0, pf, {"c": 2.23, "h": 0.43})
    assert abs(got - expected) < 1e-12


def test_generic_F_constant_is_zero(rng):
    p0 = rng.dirichlet(np.ones(4))
    pf = rng.dirichlet(np.ones(4))
    assert generic_F_delta(p0, pf, np.full(4, 7.7)) == pytest.approx(0.0, abs=1e-12)


def test_generic_F_matches_b_alpha_family():
    p_i, _, p_iii = oracle_protocol_a(True)
    B = build_B({"c": 2.23, "h": 0.43}, 1e-3)
    for alpha in (-2.0, -0.5, 0.25, 1.0, 3.0):
        got = generic_F_delta(p_i, p_iii, b_alpha_values(B, alpha))
        assert got == pytest.approx(delta_B_alpha(p_i, p_iii, B, alpha), abs=1e-12)


def test_generic_F_rejects_misordered_values():
    p0 = np.array([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(PassivityError) as err:
        generic_F_delta(p0, p0, [0.0, 1.0, 0.5, 2.0])
    # p0[1] > p0[2] while F[1] > F[2]: co-ordered, so (1, 2) must be reported
    assert "(1, 2)" in str(err.value)


def test_generic_F_ties_are_free():
    p0 = np.array([0.25, 0.25, 0.25, 0.25])
    # any F is anti-ordered with a constant distribution
    assert generic_F_delta(p0, p0, [3.0, 1.0, 2.0, 0.0]) == 0.0


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


# ---------------------------------------------------------- deformation_sweep

def test_deformation_sweep_identity_no_violation():
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    grid = np.linspace(-1.099, 0.528, 21)
    sweep = deformation_sweep(p, p, B, A_VALUES_HH, grid)
    assert not sweep.violated.any()
    assert sweep.thresholds == []
    assert np.allclose(deformation_raw_values(p, p, B, A_VALUES_HH, grid), 0.0)


def test_deformation_sweep_protocol_b_crossing_near_pin():
    p_i, _, p_iii = oracle_protocol_b(True)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 41)
    sweep = deformation_sweep(p_i, p_iii, B, A_VALUES_HH, grid)
    assert len(sweep.thresholds) == 1
    loc, _ = sweep.thresholds[0]
    assert abs(loc - PIN_XI_STAR_B) < 1e-6
    # violated exactly on [xi_min, xi*)
    assert np.array_equal(sweep.violated, grid < loc)


def test_deformation_sweep_no_swap_clean():
    p_i, p_ii, _ = oracle_protocol_b(False)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 41)
    sweep = deformation_sweep(p_i, p_ii, B, A_VALUES_HH, grid)
    assert not sweep.violated.any()


def test_deformation_sweep_flag_matches_raw_sign():
    p_i, _, p_iii = oracle_protocol_b(True)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    grid = np.linspace(-1.099, 0.528, 21)
    sweep = deformation_sweep(p_i, p_iii, B, A_VALUES_HH, grid)
    raw = deformation_raw_values(p_i, p_iii, B, A_VALUES_HH, grid)
    assert np.array_equal(sweep.violated, raw < 0)


def test_deformation_sweep_rejects_out_of_bounds_grid():
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(PassivityError):
        deformation_sweep(p, p, B, A_VALUES_HH, [-2.0])
    with pytest.raises(PassivityError):
        deformation_sweep(p, p, B, A_VALUES_HH, [0.6])


def test_deformation_sweep_rejects_nonpositive_beta_c():
    B = build_B({"c": -0.5, "h": 1.0}, 1e-3)
    p = np.array([0.25] * 4)
    with pytest.raises(PassivityError):
        deformation_sweep(p, p, B, A_VALUES_HH, [0.0])


def test_deformation_sweep_rejects_observables_other_than_Hh():
    """The normal form lhs = d<H_c>, rhs = -((beta_h + xi)/beta_c) d<H_h>
    holds for A = H_h only; the raw form and the bounds take any commuting A."""
    p_i, _, p_iii = oracle_protocol_b(True)
    B = build_B({"c": 1.627, "h": 1.099}, 1e-3)
    a_hc = energy_basis_values(2, 0)
    bounds = deformation_bounds(B.basis_values, a_hc)
    assert bounds.xi_min == pytest.approx(-0.528) and bounds.xi_max == math.inf
    grid = np.linspace(bounds.xi_min, 1.0, 5)
    with pytest.raises(PassivityError, match="H_h"):
        deformation_sweep(p_i, p_iii, B, a_hc, grid)
    raw = deformation_raw_values(p_i, p_iii, B, a_hc, grid)
    diff = p_iii - p_i
    assert np.allclose(raw, diff @ B.basis_values + grid * (diff @ a_hc),
                       rtol=0, atol=1e-12)


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
        sweep = alpha_sweep(p0, pf, B, grid)
        assert sweep.lhs.min() >= -1e-9


def test_deformed_inequality_holds_for_unitaries(rng):
    a_values = energy_basis_values(2, 1)
    for _ in range(40):
        beta_c, beta_h, state = _random_product_thermal(rng)
        B = build_B({"c": beta_c, "h": beta_h}, 1e-3)
        bounds = deformation_bounds(B.basis_values, a_values)
        lo = bounds.xi_min if math.isfinite(bounds.xi_min) else -5.0
        hi = bounds.xi_max if math.isfinite(bounds.xi_max) else 5.0
        grid = np.linspace(lo, hi, 21)
        u = haar_unitary(4, rng)
        final = mixture_channel(state, [(1.0, u, [0, 1])])
        p0 = measure_distribution(state, [0, 1])
        pf = measure_distribution(final, [0, 1])
        raw = deformation_raw_values(p0, pf, B, a_values, grid)
        assert raw.min() >= -1e-9


# --------------------------------------------------------- observable_table

@pytest.mark.parametrize("betas", [{"c": 2.23, "h": 0.43}, {"c": 1.627, "h": 1.099}])
def test_observable_table_slices_match_channel_functions(rng, betas):
    B = build_B(betas, 1e-3)
    bounds = deformation_bounds(B.basis_values, A_VALUES_HH)
    xi_grid = np.linspace(bounds.xi_min, bounds.xi_max, 41)
    table = observable_table(B, GRID, A_VALUES_HH, xi_grid)
    n = len(GRID)
    assert table.shape == (4, n + 1 + len(xi_grid))
    assert observable_table(B, GRID, A_VALUES_HH, None).shape == (4, n + 1)
    for _ in range(50):
        p0 = rng.dirichlet(np.ones(4))
        pf = rng.dirichlet(np.ones(4))
        values = (pf - p0) @ table
        assert np.allclose(values[:n], alpha_sweep(p0, pf, B, GRID).lhs,
                           rtol=0, atol=1e-12)
        assert abs(values[n] - second_law_delta(p0, pf, betas)) < 1e-12
        raw = deformation_raw_values(p0, pf, B, A_VALUES_HH, xi_grid)
        assert np.allclose(values[n + 1:], raw, rtol=0, atol=1e-12)

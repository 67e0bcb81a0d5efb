import math

import numpy as np
import pytest

from heatleak import (
    DensityOperator,
    ExperimentConfig,
    HeatleakError,
    ProtocolConfig,
    UnitaryOperator,
    apply_unitary,
    measure_distribution,
    partial_trace,
    phase_gate,
    ry_gate,
    stage_unitaries,
    swap_gate,
    tensor,
    thermal_qubit,
)
from heatleak.pipeline import stage_distributions
from heatleak.register import embed_unitary

from conftest import random_density
from oracles import oracle_protocol_a, oracle_protocol_b


# ------------------------------------------------------------------- gates

def test_ry_zero_is_identity():
    assert np.allclose(ry_gate(0.0).matrix, np.eye(2))


def test_ry_quarter_pi():
    s = math.sqrt(2) / 2
    assert np.allclose(ry_gate(np.pi / 4).matrix, [[s, -s], [s, s]], atol=1e-15)


def test_ry_two_point_five():
    c, s = math.cos(2.5), math.sin(2.5)
    assert np.allclose(ry_gate(2.5).matrix, [[c, -s], [s, c]], atol=1e-15)


def test_phase_gate_values():
    assert np.allclose(phase_gate(0.0).matrix, np.eye(4))
    assert np.allclose(phase_gate(np.pi).matrix, np.diag([-1, 1, 1, -1]), atol=1e-15)
    p = np.exp(1j * 3 * np.pi / 4)
    assert np.allclose(phase_gate(3 * np.pi / 4).matrix, np.diag([p, 1, 1, p]))


def test_swap_gate_action():
    m = swap_gate().matrix
    ket01 = np.array([0, 1, 0, 0], dtype=complex)
    assert np.allclose(m @ ket01, [0, 0, 1, 0])
    assert np.allclose(m @ m, np.eye(4))


def test_swap_exchanges_thermal_marginals():
    state = tensor(thermal_qubit(2.0), thermal_qubit(0.3))
    swapped = apply_unitary(state, swap_gate(), [0, 1])
    assert np.allclose(
        partial_trace(swapped, [0]).matrix, thermal_qubit(0.3).matrix, atol=1e-14
    )
    assert np.allclose(
        partial_trace(swapped, [1]).matrix, thermal_qubit(2.0).matrix, atol=1e-14
    )


def test_disjoint_gates_commute(rng):
    state = random_density(3, rng)
    ra, rb = ry_gate(0.7), ry_gate(-1.2)
    one = apply_unitary(apply_unitary(state, ra, [0]), rb, [2])
    two = apply_unitary(apply_unitary(state, rb, [2]), ra, [0])
    assert np.max(np.abs(one.matrix - two.matrix)) < 1e-13


def test_disjoint_phase_gates_commute(rng):
    state = random_density(4, rng)
    pa, pb = phase_gate(0.9), phase_gate(-2.1)
    one = apply_unitary(apply_unitary(state, pa, [0, 1]), pb, [2, 3])
    two = apply_unitary(apply_unitary(state, pb, [2, 3]), pa, [0, 1])
    assert np.max(np.abs(one.matrix - two.matrix)) < 1e-13


# ---------------------------------------------------------- stage unitaries

def _config_a(include_env_swap=True):
    return ProtocolConfig(
        variant="A", beta_c=2.23, beta_h=0.43, beta_e=2.02,
        include_env_swap=include_env_swap,
    )


def _config_b(include_env_swap=True):
    return ProtocolConfig(
        variant="B", beta_c=1.627, beta_h=1.099, beta_e=2.232,
        include_env_swap=include_env_swap,
    )


def _initial(cfg):
    return tensor(
        tensor(thermal_qubit(cfg.beta_c), thermal_qubit(cfg.beta_h)),
        thermal_qubit(cfg.beta_e),
    )


def _stage_states(cfg):
    """The register reference: the thermal product state conjugated by each
    stage unitary, one validated DensityOperator per stage."""
    init = _initial(cfg)
    return {
        stage: apply_unitary(init, UnitaryOperator(u), [0, 1, 2])
        for stage, u in stage_unitaries(cfg).items()
    }


def _on(u, *targets):
    return embed_unitary(u, targets, 3)


def test_protocol_a_gate_count():
    # two rotation layers and the phase gate on (c, h), then SWAP(h, e)
    units = stage_unitaries(_config_a())
    assert set(units) == {"i", "ii", "iii"}
    assert np.array_equal(units["i"], np.eye(8))
    half = ry_gate(math.pi / 4).matrix
    layer = _on(UnitaryOperator(np.kron(half, half)), 0, 1)
    system = layer @ _on(phase_gate(3 * math.pi / 4), 0, 1) @ layer
    assert np.max(np.abs(units["ii"] - system)) < 1e-15
    assert np.max(np.abs(units["iii"] - _on(swap_gate(), 1, 2) @ system)) < 1e-15


def test_protocol_a_without_env_swap_stage_iii_equals_ii():
    units = stage_unitaries(_config_a(include_env_swap=False))
    assert np.array_equal(units["ii"], units["iii"])
    states = _stage_states(_config_a(include_env_swap=False))
    assert np.array_equal(states["ii"].matrix, states["iii"].matrix)


def test_protocol_b_structure():
    # SWAP(c, h), then the 2.5 rad rotation of h, then SWAP(c, e)
    units = stage_unitaries(_config_b())
    system = _on(ry_gate(1.25), 1) @ _on(swap_gate(), 0, 1)
    assert np.max(np.abs(units["ii"] - system)) < 1e-15
    assert np.max(np.abs(units["iii"] - _on(swap_gate(), 0, 2) @ system)) < 1e-15


def test_stage_i_is_thermal_product():
    state = _stage_states(_config_a())["i"]
    assert np.allclose(state.matrix, _initial(_config_a()).matrix, atol=1e-15)


def test_protocol_a_stage_iii_matches_oracle():
    got = measure_distribution(_stage_states(_config_a())["iii"], [0, 1])
    _, _, expected = oracle_protocol_a(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_protocol_a_stage_ii_matches_oracle():
    got = measure_distribution(_stage_states(_config_a())["ii"], [0, 1])
    _, expected, _ = oracle_protocol_a(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_protocol_b_stage_iii_matches_oracle():
    got = measure_distribution(_stage_states(_config_b())["iii"], [0, 1])
    _, _, expected = oracle_protocol_b(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_protocol_b_alternative_order_is_different():
    # falsification: rotating h before the SWAP(c, h) is a hand-built
    # unitary with different stage-ii physics
    cfg = _config_b()
    alt_u = _on(swap_gate(), 0, 1) @ _on(ry_gate(1.25), 1)
    init = _initial(cfg)
    default = measure_distribution(_stage_states(cfg)["ii"], [0, 1])
    alt = measure_distribution(
        apply_unitary(init, UnitaryOperator(alt_u), [0, 1, 2]), [0, 1])
    assert np.max(np.abs(default - alt)) > 1e-3
    _, expected, _ = oracle_protocol_b(True, order="rotate_then_swap")
    assert np.max(np.abs(alt - expected)) < 1e-12


def test_env_qubit_untouched_without_swap():
    for cfg in (_config_a(False), _config_b(False)):
        states = _stage_states(cfg)
        init = partial_trace(states["i"], [2])
        for stage in ("ii", "iii"):
            env = partial_trace(states[stage], [2])
            assert np.max(np.abs(env.matrix - init.matrix)) < 1e-13


def test_system_evolution_is_unitary_before_env_swap():
    # spectrum of the reduced (c,h) state is preserved from i to ii
    for cfg in (_config_a(), _config_b()):
        states = _stage_states(cfg)
        red_i = partial_trace(states["i"], [0, 1])
        red_ii = partial_trace(states["ii"], [0, 1])
        ev_i = np.sort(np.linalg.eigvalsh(red_i.matrix))
        ev_ii = np.sort(np.linalg.eigvalsh(red_ii.matrix))
        assert np.max(np.abs(ev_i - ev_ii)) < 1e-12


def test_all_stages_produce_valid_states():
    # DensityOperator construction enforces trace/Hermiticity/PSD, so it is
    # enough that every stage evaluates without raising
    for cfg in (_config_a(), _config_a(False), _config_b(), _config_b(False)):
        for state in _stage_states(cfg).values():
            assert isinstance(state, DensityOperator)
            assert abs(np.trace(state.matrix) - 1.0) < 1e-12


def test_protocol_config_validation():
    with pytest.raises(HeatleakError):
        ProtocolConfig(variant="C", beta_c=1, beta_h=1, beta_e=1)
    for beta_e in (math.inf, -math.inf, math.nan):
        with pytest.raises(HeatleakError, match="beta_e must be finite"):
            ProtocolConfig(variant="A", beta_c=1, beta_h=1, beta_e=beta_e)


# --------------------------------------------- exact distributions, |U|^2 p0

def _random_protocols(rng, count):
    """Seeded random protocol parameters: both variants, the SWAP on and off,
    negative inverse temperatures and |beta| >= 745 (exactly pure states)."""
    for k in range(count):
        betas = rng.normal(0.0, 3.0, size=3)
        if k % 4 == 3:
            betas[rng.integers(3)] = rng.choice([-1.0, 1.0]) * rng.uniform(745.0, 1e4)
        if k % 5 == 0:
            betas[2] = -abs(betas[2])  # negative beta_e
        yield ProtocolConfig(
            variant="AB"[k % 2], include_env_swap=bool((k // 2) % 2),
            beta_c=float(betas[0]), beta_h=float(betas[1]), beta_e=float(betas[2]),
            phi=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            theta=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
        )


def test_stage_distributions_tie_to_register_reference(rng):
    cases = list(_random_protocols(rng, 40))
    assert any(min(c.beta_c, c.beta_h, c.beta_e) < 0 for c in cases)
    assert any(max(abs(c.beta_c), abs(c.beta_h), abs(c.beta_e)) >= 745 for c in cases)
    assert {(c.variant, c.include_env_swap) for c in cases} == {
        ("A", True), ("A", False), ("B", True), ("B", False)}
    for cfg in cases:
        got = stage_distributions(ExperimentConfig(protocol=cfg))
        for stage, state in _stage_states(cfg).items():
            expected = measure_distribution(state, [0, 1])
            assert np.max(np.abs(got[stage] - expected)) <= 1e-15, (cfg, stage)


def test_stage_unitaries_are_doubly_stochastic(rng):
    for cfg in _random_protocols(rng, 20):
        for u in stage_unitaries(cfg).values():
            weights = np.abs(u) ** 2
            assert np.max(np.abs(weights.sum(axis=0) - 1.0)) < 1e-14
            assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-14

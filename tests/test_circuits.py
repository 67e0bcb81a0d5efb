import math

import numpy as np
import pytest

from heatleak import (
    Circuit,
    ProtocolConfig,
    RegisterError,
    apply_unitary,
    build_protocol,
    measure_distribution,
    partial_trace,
    phase_gate,
    ry_gate,
    swap_gate,
    tensor,
    thermal_qubit,
)
from heatleak.circuits import evolve_stages

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


def test_gate_spec_arity_checks():
    # a (unitary, targets) gate needs one target label per qubit of its unitary
    def circuit(*gates):
        return Circuit(("c", "h"), {"c": 1.0, "h": 0.5}, gates, ("c", "h"),
                       {"i": 0, "ii": len(gates), "iii": len(gates)})

    assert circuit((ry_gate(0.1), ("c",)), (swap_gate(), ("c", "h")))
    with pytest.raises(RegisterError):
        circuit((ry_gate(0.1), ("c", "h")))
    with pytest.raises(RegisterError):
        circuit((swap_gate(), ("c",)))


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


# ----------------------------------------------------------------- circuits

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


def test_protocol_a_gate_count():
    circ = build_protocol(_config_a())
    assert len(circ.gates) == 4  # two rotation layers, phase gate, SWAP
    assert circ.stage_markers == {"i": 0, "ii": 3, "iii": 4}
    assert circ.measured == ("c", "h")


def test_protocol_a_without_env_swap_stage_iii_equals_ii():
    circ = build_protocol(_config_a(include_env_swap=False))
    assert circ.stage_markers["ii"] == circ.stage_markers["iii"]
    s2 = evolve_stages(circ)["ii"]
    s3 = evolve_stages(circ)["iii"]
    assert np.array_equal(s2.matrix, s3.matrix)


def test_protocol_b_structure():
    circ = build_protocol(_config_b())
    (swap, swap_targets), (rotation, rotation_targets), (env, env_targets) = circ.gates
    assert np.array_equal(swap.matrix, swap_gate().matrix)
    assert swap_targets == ("c", "h")
    assert np.allclose(rotation.matrix, ry_gate(1.25).matrix)  # 2.5 rad rotation
    assert rotation_targets == ("h",)
    assert np.array_equal(env.matrix, swap_gate().matrix)
    assert env_targets == ("c", "e")


def test_stage_i_is_thermal_product():
    circ = build_protocol(_config_a())
    state = evolve_stages(circ)["i"]
    expected = tensor(
        tensor(thermal_qubit(2.23), thermal_qubit(0.43)), thermal_qubit(2.02)
    )
    assert np.allclose(state.matrix, expected.matrix, atol=1e-15)


def test_protocol_a_stage_iii_matches_oracle():
    circ = build_protocol(_config_a())
    got = measure_distribution(evolve_stages(circ)["iii"], [0, 1])
    _, _, expected = oracle_protocol_a(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_protocol_a_stage_ii_matches_oracle():
    circ = build_protocol(_config_a())
    got = measure_distribution(evolve_stages(circ)["ii"], [0, 1])
    _, expected, _ = oracle_protocol_a(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_protocol_b_stage_iii_matches_oracle():
    circ = build_protocol(_config_b())
    got = measure_distribution(evolve_stages(circ)["iii"], [0, 1])
    _, _, expected = oracle_protocol_b(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_protocol_b_alternative_order_is_different():
    # falsification: rotating h before the SWAP(c, h) is a hand-built
    # circuit with different stage-ii physics
    circ = build_protocol(_config_b())
    swap, rotation, env_swap = circ.gates
    alt_circ = Circuit(circ.register, circ.init_betas, (rotation, swap, env_swap),
                       circ.measured, circ.stage_markers)
    default = measure_distribution(evolve_stages(circ)["ii"], [0, 1])
    alt = measure_distribution(evolve_stages(alt_circ)["ii"], [0, 1])
    assert np.max(np.abs(default - alt)) > 1e-3
    _, expected, _ = oracle_protocol_b(True, order="rotate_then_swap")
    assert np.max(np.abs(alt - expected)) < 1e-12


def test_env_qubit_untouched_without_swap():
    for cfg in (_config_a(False), _config_b(False)):
        circ = build_protocol(cfg)
        init = partial_trace(evolve_stages(circ)["i"], [2])
        for stage in ("ii", "iii"):
            env = partial_trace(evolve_stages(circ)[stage], [2])
            assert np.max(np.abs(env.matrix - init.matrix)) < 1e-13


def test_system_evolution_is_unitary_before_env_swap():
    # spectrum of the reduced (c,h) state is preserved from i to ii
    for cfg in (_config_a(), _config_b()):
        circ = build_protocol(cfg)
        red_i = partial_trace(evolve_stages(circ)["i"], [0, 1])
        red_ii = partial_trace(evolve_stages(circ)["ii"], [0, 1])
        ev_i = np.sort(np.linalg.eigvalsh(red_i.matrix))
        ev_ii = np.sort(np.linalg.eigvalsh(red_ii.matrix))
        assert np.max(np.abs(ev_i - ev_ii)) < 1e-12


def test_all_stages_produce_valid_states():
    # DensityOperator construction enforces trace/Hermiticity/PSD, so it is
    # enough that every stage evaluates without raising
    for cfg in (_config_a(), _config_a(False), _config_b(), _config_b(False)):
        circ = build_protocol(cfg)
        for stage in ("i", "ii", "iii"):
            state = evolve_stages(circ)[stage]
            assert abs(np.trace(state.matrix) - 1.0) < 1e-12


def test_empty_circuit_constant_across_stages():
    circ = Circuit(
        register=("c", "h"),
        init_betas={"c": 1.0, "h": 0.5},
        gates=(),
        measured=("c", "h"),
        stage_markers={"i": 0, "ii": 0, "iii": 0},
    )
    s1 = evolve_stages(circ)["i"]
    s3 = evolve_stages(circ)["iii"]
    assert np.array_equal(s1.matrix, s3.matrix)


def test_circuit_validation():
    with pytest.raises(RegisterError):
        Circuit(("c", "h", "e"), {"c": 1, "h": 1, "e": 1}, (), ("c", "e"),
                {"i": 0, "ii": 0, "iii": 0})
    with pytest.raises(RegisterError):
        Circuit(("c", "h"), {"c": 1, "h": 1}, (), ("c",), {"i": 0, "ii": 1, "iii": 0})
    with pytest.raises(RegisterError):
        ProtocolConfig(variant="C", beta_c=1, beta_h=1, beta_e=1)
    for beta_e in (math.inf, -math.inf, math.nan):
        with pytest.raises(RegisterError, match="beta_e must be finite"):
            ProtocolConfig(variant="A", beta_c=1, beta_h=1, beta_e=beta_e)

import math

import numpy as np
import pytest

from heatleak import (
    DensityOperator,
    HeatleakError,
    UnitaryOperator,
    apply_unitary,
    measure_distribution,
    mixture_channel,
    partial_trace,
    tensor,
    thermal_qubit,
)
from heatleak.circuits import ry_gate, swap_gate

from conftest import haar_unitary, random_density
from oracles import ORACLE_SWAP, oracle_phase, oracle_protocol_a, oracle_ry


# ---------------------------------------------------------------- thermal

def test_thermal_infinite_temperature_is_maximally_mixed():
    rho = thermal_qubit(0.0)
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]))


def test_thermal_closed_form():
    rho = thermal_qubit(2.23)
    p0 = 1.0 / (1.0 + math.exp(-2.23))
    assert np.allclose(rho.matrix, np.diag([p0, 1.0 - p0]), atol=1e-15)


def test_thermal_pure_limits():
    assert np.allclose(thermal_qubit(math.inf).matrix, np.diag([1.0, 0.0]))
    assert np.allclose(thermal_qubit(-math.inf).matrix, np.diag([0.0, 1.0]))


def test_thermal_rejects_nan():
    with pytest.raises(HeatleakError):
        thermal_qubit(float("nan"))


def test_thermal_population_round_trip():
    # both branches of thermal_qubit, the negative-beta one included
    for beta in np.linspace(-4.5, 4.5, 41):
        p0 = thermal_qubit(beta).matrix[0, 0].real
        assert abs(p0 - 1.0 / (1.0 + math.exp(-beta))) < 1e-12


# ----------------------------------------------------------------- tensor

def test_tensor_ground_states():
    g = thermal_qubit(math.inf)
    both = tensor(g, g)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(both.matrix, expected)


def test_tensor_thermal_product_weights():
    a, b = thermal_qubit(2.23), thermal_qubit(0.43)
    prod = tensor(a, b)
    pa = np.diag(a.matrix).real
    pb = np.diag(b.matrix).real
    expected = np.array([pa[0] * pb[0], pa[0] * pb[1], pa[1] * pb[0], pa[1] * pb[1]])
    assert np.allclose(np.diag(prod.matrix).real, expected, atol=1e-15)


def test_tensor_partial_trace_round_trip(rng):
    for _ in range(100):
        a = random_density(1, rng)
        b = random_density(2, rng)
        ab = tensor(a, b)
        assert np.max(np.abs(partial_trace(ab, [0]).matrix - a.matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(ab, [1, 2]).matrix - b.matrix)) < 1e-12


# ----------------------------------------------------------- apply_unitary

def test_apply_identity_leaves_state():
    rho = thermal_qubit(0.7)
    ident = UnitaryOperator(np.eye(2))
    assert np.allclose(apply_unitary(rho, ident, [0]).matrix, rho.matrix)


def test_swap_exchanges_factors(rng):
    for _ in range(20):
        a, b = random_density(1, rng), random_density(1, rng)
        ab = tensor(a, b)
        ba = apply_unitary(ab, swap_gate(), [0, 1])
        assert np.max(np.abs(ba.matrix - tensor(b, a).matrix)) < 1e-12


def test_ry_quarter_turn_population():
    rho = apply_unitary(thermal_qubit(math.inf), ry_gate(np.pi / 4), [0])
    assert abs(rho.matrix[0, 0].real - 0.5) < 1e-12


def test_apply_unitary_rejects_bad_targets():
    rho = tensor(thermal_qubit(0.0), thermal_qubit(0.0))
    with pytest.raises(HeatleakError):
        apply_unitary(rho, ry_gate(0.3), [2])
    with pytest.raises(HeatleakError):
        apply_unitary(rho, swap_gate(), [0, 0])
    with pytest.raises(HeatleakError):
        apply_unitary(rho, swap_gate(), [0])


def test_apply_unitary_preserves_trace_and_spectrum(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        rho = random_density(n, rng)
        k = int(rng.integers(1, n + 1))
        targets = list(rng.permutation(n)[:k])
        u = haar_unitary(2**k, rng)
        out = apply_unitary(rho, u, targets)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12
        ev_in = np.sort(np.linalg.eigvalsh(rho.matrix))
        ev_out = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.max(np.abs(ev_in - ev_out)) < 1e-10


def test_embedding_respects_target_order():
    # swap with reversed targets is the same gate; a CNOT-like asymmetric
    # check: ry on the second listed qubit of a reversed pair
    a, b = thermal_qubit(1.0), thermal_qubit(-1.0)
    ab = tensor(a, b)
    direct = apply_unitary(ab, ry_gate(0.4), [1])
    via_pair = apply_unitary(
        ab, UnitaryOperator(np.kron(np.eye(2), ry_gate(0.4).matrix)), [0, 1]
    )
    via_reversed = apply_unitary(
        ab, UnitaryOperator(np.kron(ry_gate(0.4).matrix, np.eye(2))), [1, 0]
    )
    assert np.max(np.abs(direct.matrix - via_pair.matrix)) < 1e-14
    assert np.max(np.abs(direct.matrix - via_reversed.matrix)) < 1e-14


# --------------------------------------------------------- mixture_channel

def test_mixture_single_term_equals_apply():
    rho = tensor(thermal_qubit(0.9), thermal_qubit(-0.4))
    u = swap_gate()
    via_mix = mixture_channel(rho, [(1.0, u, [0, 1])])
    via_apply = apply_unitary(rho, u, [0, 1])
    assert np.allclose(via_mix.matrix, via_apply.matrix)


def test_mixture_is_unital(rng):
    dim = 4
    mixed = DensityOperator(np.eye(dim) / dim)
    terms = [
        (0.25, haar_unitary(4, rng), [0, 1]),
        (0.35, haar_unitary(2, rng), [0]),
        (0.40, haar_unitary(2, rng), [1]),
    ]
    out = mixture_channel(mixed, terms)
    assert np.max(np.abs(out.matrix - mixed.matrix)) < 1e-12


def test_dephasing_mixture_zeroes_off_diagonals(rng):
    rho = random_density(1, rng)
    z = UnitaryOperator(np.diag([1.0, -1.0]))
    ident = UnitaryOperator(np.eye(2))
    out = mixture_channel(rho, [(0.5, ident, [0]), (0.5, z, [0])])
    expected = np.diag(np.diag(rho.matrix))
    assert np.max(np.abs(out.matrix - expected)) < 1e-14


def test_mixture_rejects_bad_probabilities(rng):
    rho = random_density(1, rng)
    ident = UnitaryOperator(np.eye(2))
    with pytest.raises(HeatleakError):
        mixture_channel(rho, [(0.6, ident, [0]), (0.5, ident, [0])])
    with pytest.raises(HeatleakError):
        mixture_channel(rho, [(-0.1, ident, [0]), (1.1, ident, [0])])


def _von_neumann_entropy(matrix):
    ev = np.linalg.eigvalsh(matrix)
    ev = ev[ev > 1e-15]
    return float(-np.sum(ev * np.log(ev)))


def test_mixture_never_decreases_entropy(rng):
    for _ in range(30):
        rho = random_density(2, rng)
        k = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(k))
        terms = [(p, haar_unitary(4, rng), [0, 1]) for p in probs]
        out = mixture_channel(rho, terms)
        assert _von_neumann_entropy(out.matrix) >= _von_neumann_entropy(rho.matrix) - 1e-9


# ------------------------------------------------------------ partial_trace

def test_partial_trace_keep_all_is_identity(rng):
    rho = random_density(2, rng)
    assert np.allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = DensityOperator(np.outer(bell, bell.conj()))
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_partial_trace_empty_keep(rng):
    rho = random_density(2, rng)
    scalar = partial_trace(rho, [])
    assert scalar.num_qubits == 0
    assert np.allclose(scalar.matrix, [[1.0]])


# ----------------------------------------------------- measure_distribution

def test_measure_ground_state():
    assert np.allclose(measure_distribution(thermal_qubit(math.inf), [0]), [1.0, 0.0])


def test_measure_thermal_product():
    a, b = thermal_qubit(1.3), thermal_qubit(-0.6)
    prod = tensor(a, b)
    pa, pb = np.diag(a.matrix).real, np.diag(b.matrix).real
    expected = np.kron(pa, pb)
    assert np.allclose(measure_distribution(prod, [0, 1]), expected, atol=1e-14)


def test_measure_respects_qubit_order():
    a, b = thermal_qubit(2.0), thermal_qubit(0.2)
    prod = tensor(a, b)
    fwd = measure_distribution(prod, [0, 1])
    rev = measure_distribution(prod, [1, 0])
    assert np.allclose(fwd, rev[[0, 2, 1, 3]])


def test_measure_protocol_a_matches_oracle():
    # the register alone runs protocol A gate by gate, each oracle gate
    # matrix on its target qubits, and matches the oracle's 8x8 evolution
    layer = [(oracle_ry(math.pi / 4), [0]), (oracle_ry(math.pi / 4), [1])]
    gates = layer + [(oracle_phase(3 * math.pi / 4), [0, 1])] + layer
    gates.append((ORACLE_SWAP, [1, 2]))
    state = tensor(tensor(thermal_qubit(2.23), thermal_qubit(0.43)), thermal_qubit(2.02))
    for matrix, targets in gates:
        state = apply_unitary(state, UnitaryOperator(matrix), targets)
    got = measure_distribution(state, [0, 1])
    _, _, expected = oracle_protocol_a(True)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_measure_scalar_state_of_no_qubits(rng):
    scalar = partial_trace(random_density(2, rng), [])
    assert np.array_equal(measure_distribution(scalar, []), [1.0])


def test_measure_reversed_non_adjacent_qubits_match_einsum(rng):
    rho = random_density(3, rng)
    diag = np.real(np.diagonal(rho.matrix)).reshape(2, 2, 2)
    expected = np.einsum("abc->ca", diag).reshape(-1)
    got = measure_distribution(rho, [2, 0])
    assert np.max(np.abs(got - expected / expected.sum())) < 1e-15


def test_measure_distribution_normalized(rng):
    for _ in range(50):
        rho = random_density(3, rng)
        p = measure_distribution(rho, [0, 2])
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


# ------------------------------------------------------------- type checks

def test_density_operator_validation():
    with pytest.raises(HeatleakError):
        DensityOperator(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(HeatleakError):
        DensityOperator(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(HeatleakError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(HeatleakError):
        DensityOperator(np.full((2, 2), np.nan))


def test_unitary_operator_validation():
    with pytest.raises(HeatleakError):
        UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_operators_are_immutable():
    rho = thermal_qubit(1.0)
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0
    u = UnitaryOperator(np.eye(4))
    with pytest.raises(AttributeError, match="^UnitaryOperator is immutable$"):
        u.matrix = np.eye(4)
    with pytest.raises(AttributeError, match="^DensityOperator is immutable$"):
        rho.num_qubits = 2
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 5.0
    assert repr(rho) == "DensityOperator(num_qubits=1)"
    assert repr(u) == "UnitaryOperator(num_qubits=2)"

"""Gate constructors, circuit container and the two reference protocols.

Both protocols act on a three-qubit register (c, h, e): two observed system
qubits and one unobserved environment qubit, all initialized to thermal
states.  Stage markers:

* ``i``   after initialization,
* ``ii``  after the system unitary acting on (c, h) only,
* ``iii`` after the optional SWAP with the environment qubit (a no-op when
  the environment coupling is disabled, so every circuit has all three
  stages).

Angle convention: ``ry_gate(theta)`` returns exp(-i*theta*sigma_y) with theta
directly in the exponent.  Protocol builders take *rotation angles* (the
Bloch-sphere angle) and halve them into the exponent; a rotation by angle
pi/2 is exp(-i*(pi/4)*sigma_y).  This pairing is validated against the
reference detection thresholds in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .register import (
    DensityOperator,
    RegisterError,
    UnitaryOperator,
    apply_unitary,
    tensor,
    thermal_qubit,
)

STAGES = ("i", "ii", "iii")


def ry_gate(theta: float) -> UnitaryOperator:
    """exp(-i*theta*sigma_y) = [[cos t, -sin t], [sin t, cos t]] (real orthogonal)."""
    if not math.isfinite(theta):
        raise RegisterError("rotation parameter must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return UnitaryOperator(np.array([[c, -s], [s, c]], dtype=complex))


def phase_gate(phi: float) -> UnitaryOperator:
    """Two-qubit phase gate diag(e^{i*phi}, 1, 1, e^{i*phi}) in basis 00,01,10,11."""
    if not math.isfinite(phi):
        raise RegisterError("phase must be finite")
    p = np.exp(1j * phi)
    return UnitaryOperator(np.diag([p, 1.0, 1.0, p]))


def swap_gate() -> UnitaryOperator:
    """Two-qubit SWAP (exchanges basis states 01 and 10)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[1, 2] = m[2, 1] = 1.0
    return UnitaryOperator(m)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over labeled qubits with stage markers.

    Each gate is a (unitary, target labels) pair; the first listed target is
    the most significant bit of the unitary's own basis.  stage_markers maps
    each stage name to the number of gates executed by that stage.  The
    environment qubit "e" is never in the measured set.
    """

    register: tuple[str, ...]
    init_betas: dict[str, float]
    gates: tuple[tuple[UnitaryOperator, tuple[str, ...]], ...]
    measured: tuple[str, ...]
    stage_markers: dict[str, int]

    def __post_init__(self):
        if len(set(self.register)) != len(self.register):
            raise RegisterError("duplicate qubit labels in register")
        for label in self.measured:
            if label not in self.register:
                raise RegisterError(f"measured qubit {label!r} not in register")
        if "e" in self.measured:
            raise RegisterError("the environment qubit is unobserved")
        missing = [s for s in STAGES if s not in self.stage_markers]
        if missing:
            raise RegisterError(f"missing stage markers {missing}")
        marks = [self.stage_markers[s] for s in STAGES]
        if marks != sorted(marks) or marks[-1] != len(self.gates):
            raise RegisterError(f"stage markers {self.stage_markers} are inconsistent")
        for u, targets in self.gates:
            if u.num_qubits != len(targets):
                raise RegisterError(f"{u.num_qubits}-qubit gate on targets {targets}")
            for label in targets:
                if label not in self.register:
                    raise RegisterError(f"gate target {label!r} not in register")

    def qubit_index(self, label: str) -> int:
        return self.register.index(label)


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the two reference protocols.

    Variant A: a two-qubit phase gate of angle phi sandwiched between joint
    pi/2 y-rotations of c and h; the optional environment SWAP acts on h.

    Variant B: SWAP(c, h) followed by a y-rotation of h by angle theta; the
    optional environment SWAP acts on c.
    """

    variant: str
    beta_c: float
    beta_h: float
    beta_e: float
    phi: float = 3 * math.pi / 4
    theta: float = 2.5
    include_env_swap: bool = True

    def __post_init__(self):
        if self.variant not in ("A", "B"):
            raise RegisterError(f"unknown protocol variant {self.variant!r}")
        for name in ("beta_c", "beta_h", "beta_e"):
            if not math.isfinite(getattr(self, name)):
                raise RegisterError(f"{name} must be finite")


def build_protocol(config: ProtocolConfig) -> Circuit:
    """Assemble the circuit of Fig-style protocol A or B from its parameters."""
    register = ("c", "h", "e")
    betas = {"c": config.beta_c, "h": config.beta_h, "e": config.beta_e}
    if config.variant == "A":
        # joint pi/2 rotation layer of both system qubits, one gate per layer
        half = ry_gate(math.pi / 4).matrix
        layer = (UnitaryOperator(np.kron(half, half)), ("c", "h"))
        gates = [layer, (phase_gate(config.phi), ("c", "h")), layer]
        partner = "h"
    else:
        gates = [(swap_gate(), ("c", "h")), (ry_gate(config.theta / 2.0), ("h",))]
        partner = "c"
    system_len = len(gates)
    if config.include_env_swap:
        gates.append((swap_gate(), (partner, "e")))
    return Circuit(
        register=register,
        init_betas=betas,
        gates=tuple(gates),
        measured=("c", "h"),
        stage_markers={"i": 0, "ii": system_len, "iii": len(gates)},
    )


def evolve_stages(circuit: Circuit) -> dict[str, DensityOperator]:
    """Evolve the thermal product initial state once through every gate,
    snapshotting the state at each stage marker."""
    state = None
    for label in circuit.register:
        q = thermal_qubit(circuit.init_betas[label])
        state = q if state is None else tensor(state, q)
    snapshots = {}
    done = 0
    for stage in STAGES:  # markers are non-decreasing in stage order
        for u, labels in circuit.gates[done : circuit.stage_markers[stage]]:
            state = apply_unitary(state, u, [circuit.qubit_index(lbl) for lbl in labels])
        done = circuit.stage_markers[stage]
        snapshots[stage] = state
    return snapshots


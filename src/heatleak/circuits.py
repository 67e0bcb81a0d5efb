"""Gate constructors and the stage unitaries of the two reference protocols.

Both protocols act on a three-qubit register (c, h, e): two observed system
qubits and one unobserved environment qubit, all initialized to thermal
states.  Each measured stage is one unitary of the whole register, applied
to the initial state:

* ``i``   the identity (the initial state itself),
* ``ii``  the system unitary acting on (c, h) only,
* ``iii`` the optional SWAP with the environment qubit after the system
  unitary (stage ii's unitary when the environment coupling is disabled, so
  every protocol has all three stages).

Angle convention: ``ry_gate(theta)`` returns exp(-i*theta*sigma_y) with theta
directly in the exponent.  The protocols take *rotation angles* (the
Bloch-sphere angle) and halve them into the exponent; a rotation by angle
pi/2 is exp(-i*(pi/4)*sigma_y).  This pairing is validated against the
reference detection thresholds in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .register import HeatleakError, UnitaryOperator, embed_unitary

QUBITS = ("c", "h", "e")  # register order: qubit 0 is the most significant bit


def ry_gate(theta: float) -> UnitaryOperator:
    """exp(-i*theta*sigma_y) = [[cos t, -sin t], [sin t, cos t]] (real orthogonal)."""
    if not math.isfinite(theta):
        raise HeatleakError("rotation parameter must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return UnitaryOperator(np.array([[c, -s], [s, c]], dtype=complex))


def phase_gate(phi: float) -> UnitaryOperator:
    """Two-qubit phase gate diag(e^{i*phi}, 1, 1, e^{i*phi}) in basis 00,01,10,11."""
    if not math.isfinite(phi):
        raise HeatleakError("phase must be finite")
    p = np.exp(1j * phi)
    return UnitaryOperator(np.diag([p, 1.0, 1.0, p]))


def swap_gate() -> UnitaryOperator:
    """Two-qubit SWAP (exchanges basis states 01 and 10)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[1, 2] = m[2, 1] = 1.0
    return UnitaryOperator(m)


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
            raise HeatleakError(f"unknown protocol variant {self.variant!r}")
        for name in ("beta_c", "beta_h", "beta_e"):
            if not math.isfinite(getattr(self, name)):
                raise HeatleakError(f"{name} must be finite")


def stage_unitaries(config: ProtocolConfig) -> dict[str, np.ndarray]:
    """The full-register unitary of each stage on (c, h, e), c the most
    significant bit: the identity at i, the system gates at ii, and the
    environment SWAP after them at iii (stage ii's unitary when it is off)."""
    def on(u: UnitaryOperator, *labels: str) -> np.ndarray:
        return embed_unitary(u, [QUBITS.index(lbl) for lbl in labels], len(QUBITS))

    swap = swap_gate()
    if config.variant == "A":
        # joint pi/2 rotation layer of both system qubits
        half = ry_gate(math.pi / 4)
        layer = on(half, "c") @ on(half, "h")
        system = layer @ on(phase_gate(config.phi), "c", "h") @ layer
        partner = "h"
    else:
        system = on(ry_gate(config.theta / 2.0), "h") @ on(swap, "c", "h")
        partner = "c"
    env = on(swap, partner, "e") @ system if config.include_env_swap else system
    return {"i": np.eye(2 ** len(QUBITS), dtype=complex), "ii": system, "iii": env}

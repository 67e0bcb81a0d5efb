"""Exact linear-algebra substrate for small qubit registers.

Dense complex matrices throughout; registers are capped at MAX_QUBITS.
Conventions (fixed, relied upon by every other module):

* qubit 0 is the leftmost tensor factor,
* basis index bit of qubit k is bit (n-1-k) of the integer index, i.e.
  qubit 0 is the most significant bit of the computational-basis label,
* energies are dimensionless, E0 = 0 and E1 = 1 per qubit.
"""

from __future__ import annotations

import math

import numpy as np

MAX_QUBITS = 10

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = -1e-10
UNITARITY_TOL = 1e-12


class HeatleakError(ValueError):
    """Input that heatleak rejects: a state, operator, protocol, record, grid
    or config that fails its checks.  Every layer raises this one type; the
    CLI prints it as one ``error:`` line and exits 1."""


class _Operator:
    """Read-only square complex matrix on an n-qubit register; a subclass's
    _check(m) adds its physical condition after the shared checks."""

    __slots__ = ("num_qubits", "matrix")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise HeatleakError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise HeatleakError("matrix entries must be finite")
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if dim != 2**n:
            raise HeatleakError(f"matrix dimension {dim} is not a power of two")
        if n > MAX_QUBITS:
            raise HeatleakError(f"register of {n} qubits exceeds cap of {MAX_QUBITS}")
        self._check(m)
        m.setflags(write=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}(num_qubits={self.num_qubits})"


class DensityOperator(_Operator):
    """Exact mixed state of an n-qubit register: Hermitian, trace-1, PSD matrix."""

    __slots__ = ()

    def _check(self, m):
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise HeatleakError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            raise HeatleakError(f"density matrix trace {np.trace(m)} != 1")
        if np.linalg.eigvalsh(m).min() < EIGENVALUE_TOL:
            raise HeatleakError("density matrix is not positive semidefinite")


class UnitaryOperator(_Operator):
    """Unitary on an n-qubit register (U U^dagger = 1 within UNITARITY_TOL)."""

    __slots__ = ()

    def _check(self, m):
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) > UNITARITY_TOL:
            raise HeatleakError("matrix is not unitary")


def thermal_populations(beta: float) -> np.ndarray:
    """Single-qubit thermal populations (p0, 1-p0) with p0 = 1/(1 + e^(-beta)).

    The exponential's argument is kept non-positive, so it never overflows;
    it underflows to 0 for |beta| above about 745, which gives the pure
    ground (beta > 0) or excited (beta < 0) state exactly, as beta = +-inf
    does.
    """
    if math.isnan(beta):
        raise HeatleakError("inverse temperature must not be NaN")
    if beta >= 0:
        p0 = 1.0 / (1.0 + math.exp(-beta))
    else:
        p0 = math.exp(beta) / (1.0 + math.exp(beta))
    return np.array([p0, 1.0 - p0])


def thermal_qubit(beta: float) -> DensityOperator:
    """Single-qubit thermal state diag(thermal_populations(beta))."""
    return DensityOperator(np.diag(thermal_populations(beta)))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product a (x) b; qubit indices of b follow those of a."""
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise HeatleakError("tensor product exceeds register cap")
    return DensityOperator(np.kron(a.matrix, b.matrix))


def _check_targets(targets, arity: int, num_qubits: int) -> tuple[int, ...]:
    t = tuple(int(q) for q in targets)
    if len(t) != arity:
        raise HeatleakError(f"gate acts on {arity} qubits, got targets {t}")
    if len(set(t)) != len(t):
        raise HeatleakError(f"duplicate target qubits {t}")
    if any(q < 0 or q >= num_qubits for q in t):
        raise HeatleakError(f"targets {t} outside register of {num_qubits} qubits")
    return t


def embed_unitary(u: UnitaryOperator, targets, num_qubits: int) -> np.ndarray:
    """Full-register matrix acting as u on targets and identity elsewhere.

    The first listed target becomes the most significant bit of u's own
    basis index.
    """
    t = _check_targets(targets, u.num_qubits, num_qubits)
    dim = 2**num_qubits
    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    rest = idx.copy()
    for q in t:
        bit = (idx >> (num_qubits - 1 - q)) & 1
        sub = (sub << 1) | bit
        rest = rest & ~(1 << (num_qubits - 1 - q))
    full = u.matrix[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])
    return full


def apply_unitary(state: DensityOperator, u: UnitaryOperator, targets) -> DensityOperator:
    """Conjugate the state by u embedded on the given target qubits."""
    return mixture_channel(state, [(1.0, u, targets)])


def mixture_channel(state: DensityOperator, terms) -> DensityOperator:
    """Apply sum_k p_k U_k rho U_k^dagger for terms (p_k, U_k, targets_k).

    Probabilities must be non-negative and sum to 1 within 1e-12; the
    resulting channel is unital (the maximally mixed state is a fixed point).
    """
    terms = list(terms)
    probs = np.array([p for p, _, _ in terms], dtype=float)
    if np.any(probs < 0):
        raise HeatleakError("mixture probabilities must be non-negative")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise HeatleakError(f"mixture probabilities sum to {probs.sum()}, not 1")
    out = np.zeros_like(state.matrix)
    for p, u, targets in terms:
        full = embed_unitary(u, targets, state.num_qubits)
        out = out + p * (full @ state.matrix @ full.conj().T)
    return DensityOperator(out)


def partial_trace(state: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the kept qubits (register order); empty keep gives
    the 0-qubit scalar state [[1]]."""
    kept = sorted(set(int(q) for q in keep))
    if any(q < 0 or q >= state.num_qubits for q in kept):
        raise HeatleakError(f"keep set {kept} outside register")
    n = state.num_qubits
    traced = [q for q in range(n) if q not in kept]
    t = state.matrix.reshape((2,) * (2 * n))
    # trace highest-numbered qubits first so lower axis numbers stay valid
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    d = 2 ** len(kept)
    return DensityOperator(t.reshape((d, d)))


def measure_distribution(state: DensityOperator, qubits) -> np.ndarray:
    """Computational-basis outcome probabilities of the listed qubits.

    Outcomes are ordered by binary index with the first listed qubit as the
    most significant bit.  Tiny negative diagonal entries from rounding are
    clipped and the vector is renormalized.
    """
    q = list(int(x) for x in qubits)
    if len(set(q)) != len(q):
        raise HeatleakError(f"duplicate qubits {q}")
    if any(x < 0 or x >= state.num_qubits for x in q):
        raise HeatleakError(f"qubits {q} outside register")
    n = state.num_qubits
    diag = np.real(np.diagonal(state.matrix)).reshape((2,) * n)
    summed = diag.sum(axis=tuple(a for a in range(n) if a not in q))
    # summed's axes are the listed qubits in register order; put them in q's
    marg = summed.transpose(np.argsort(np.argsort(q))).reshape(-1)
    if marg.min() < -1e-12:
        raise HeatleakError(f"negative outcome probability {marg.min()}")
    marg = np.clip(marg, 0.0, 1.0)
    return marg / marg.sum()


"""Passivity-based inequality tests for heat-leak detection.

The observed register starts in a product of thermal states, so the diagonal
operator ``sum_j beta_j H_j`` shares its eigenbasis with the initial state
and is anti-ordered with it.  Shifting it to strictly positive eigenvalues
(minimum exactly epsilon) yields the globally passive operator B whose power
family ``sgn(alpha) * B^alpha`` must have non-decreasing expectation under
any mixture of unitaries.  A strictly negative change certifies a coupling
to unobserved degrees of freedom.

Deforming B by ``xi * A`` for a commuting observable A preserves passivity
as long as the eigenvalue ordering of B is inherited, which holds exactly on
an interval [xi_min, xi_max] computed here from pairwise ordering
constraints.

sweep_crossings searches the sweep of one distribution change and bisects
its sign crossings bracket by bracket; alpha_slope and xi_slope, the
families' derivatives, serve shots.threshold_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .register import HeatleakError


def energy_basis_values(num_qubits: int, qubit: int) -> np.ndarray:
    """Diagonal of H_qubit = |1><1| on the outcome space of num_qubits qubits.

    Outcome index bit of the first qubit is the most significant bit.
    """
    if qubit < 0 or qubit >= num_qubits:
        raise HeatleakError(f"qubit {qubit} outside {num_qubits}-qubit outcome space")
    idx = np.arange(2**num_qubits)
    return ((idx >> (num_qubits - 1 - qubit)) & 1).astype(float)


@dataclass(frozen=True)
class GlobalPassivityOperator:
    """Diagonal globally passive operator built from inverse temperatures.

    basis_values[k] = sum_j beta_j * E_j(k) shifted so that
    min(basis_values) is exactly epsilon > 0 (see build_B).
    """

    betas: dict[str, float]
    epsilon: float
    basis_values: np.ndarray


def build_B(betas, epsilon: float) -> GlobalPassivityOperator:
    """Construct the shifted operator; betas maps qubit label -> beta.

    The shift is d = min_k(sum_j beta_j E_j(k)) - epsilon, which makes every
    eigenvalue positive with minimum exactly epsilon (a negative minimum
    would break non-integer powers).  An epsilon so large that the shifted
    eigenvalues lose the order of the raw energies (two outcomes of
    different energy rounding to equal or swapped values) is rejected;
    outcomes of equal energy stay tied.  So are betas whose energies or
    shifted eigenvalues overflow.
    """
    betas = dict(betas)
    if not betas:
        raise HeatleakError("at least one qubit required")
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise HeatleakError(f"epsilon must be positive and finite, got {epsilon}")
    for label, beta in betas.items():
        if not math.isfinite(beta):
            raise HeatleakError(f"beta[{label!r}] must be finite, got {beta}")
    n = len(betas)
    raw = np.zeros(2**n)
    with np.errstate(over="ignore", invalid="ignore"):
        for pos, (label, beta) in enumerate(betas.items()):
            raw += beta * energy_basis_values(n, pos)
        d = float(raw.min()) - epsilon
        values = raw - d
    if not np.isfinite(values).all():
        raise HeatleakError(f"betas {betas} overflow: the outcome energies "
                            "sum_j beta_j E_j exceed the float range")
    if not np.array_equal(np.sign(raw[:, None] - raw), np.sign(values[:, None] - values)):
        raise HeatleakError(f"epsilon = {epsilon} swamps the betas: the eigenvalues "
                            "of B lose the order of the outcome energies")
    values.setflags(write=False)
    return GlobalPassivityOperator(betas=betas, epsilon=epsilon, basis_values=values)


def observable_table(B: GlobalPassivityOperator, alpha_grid,
                     xi_grid=None) -> np.ndarray:
    """Per-outcome values V[outcome, column] of every observable tested.

    With n = len(alpha_grid), the columns are, in order:

    * ``V[:, :n]``     alpha_observable(B) per alpha (global passivity),
    * ``V[:, n]``      B itself (second law),
    * ``V[:, n + 1:]`` xi_observable(B) per xi, the normal form of the
      deformation by the h qubit's energy (none when xi_grid is None or
      empty).

    Each channel's value is the change in expectation of its columns,
    ``(pf - p0) @ V``; a strictly negative entry certifies a leak.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if np.any(alpha_grid == 0.0):
        raise HeatleakError("alpha grid must exclude 0")
    with np.errstate(over="ignore", invalid="ignore"):
        powers = alpha_observable(B)(alpha_grid)
    bad = np.flatnonzero(~np.isfinite(powers).all(axis=1))
    if bad.size:
        raise HeatleakError(f"epsilon = {B.epsilon} makes B^alpha non-finite "
                            f"at alpha = {alpha_grid[bad[0]]}")
    rows = [powers, B.basis_values[None]]
    if xi_grid is not None and len(xi_grid):
        rows.append(xi_observable(B)(xi_grid))
    # one row per observable, transposed into a C-ordered outcome x column table
    return np.concatenate(rows).T.copy()


@dataclass(frozen=True)
class DeformationBounds:
    """Admissible deformation interval and the constraint pairs that set it.

    binding_pairs["xi_min"] / ["xi_max"] list the (i, j) outcome pairs whose
    ordering constraint is active at the respective endpoint; empty when the
    side is unbounded.
    """

    xi_min: float
    xi_max: float
    binding_pairs: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


def deformation_bounds(b_values, a_values) -> DeformationBounds:
    """Largest interval [xi_min, xi_max] on which b + xi*a inherits b's order.

    Each pair with b_i < b_j requires (b_j - b_i) + xi*(a_j - a_i) >= 0:
    pairs with a_i > a_j cap xi from above, pairs with a_i < a_j from below,
    co-valued pairs never constrain.  xi = 0 is always admissible.
    """
    b = np.asarray(b_values, dtype=float)
    a = np.asarray(a_values, dtype=float)
    if b.shape != a.shape:
        raise HeatleakError("b and a must have equal lengths")
    xi_min, xi_max = -math.inf, math.inf
    min_pairs: list[tuple[int, int]] = []
    max_pairs: list[tuple[int, int]] = []
    for i in range(len(b)):
        for j in range(len(b)):
            if b[i] >= b[j] or a[i] == a[j]:
                continue
            ratio = (b[j] - b[i]) / (a[i] - a[j])
            if a[i] > a[j]:  # upper bound
                if math.isclose(ratio, xi_max, rel_tol=1e-12, abs_tol=1e-15):
                    max_pairs.append((i, j))
                elif ratio < xi_max:
                    xi_max, max_pairs = ratio, [(i, j)]
            else:  # lower bound (ratio is negative here)
                if math.isclose(ratio, xi_min, rel_tol=1e-12, abs_tol=1e-15):
                    min_pairs.append((i, j))
                elif ratio > xi_min:
                    xi_min, min_pairs = ratio, [(i, j)]
    return DeformationBounds(
        xi_min=xi_min,
        xi_max=xi_max,
        binding_pairs={"xi_min": min_pairs, "xi_max": max_pairs},
    )


def alpha_observable(B: GlobalPassivityOperator):
    """sgn(alpha) * B^alpha as a function of alpha, per-outcome values on a
    new last axis (alpha = 0 gives the zero observable)."""
    b = B.basis_values

    def observable(alpha):
        alpha = np.asarray(alpha, dtype=float)[..., None]
        return np.sign(alpha) * b**alpha

    return observable


def xi_observable(B: GlobalPassivityOperator):
    """Normal-form deformation observable H_c + ((beta_h + xi)/beta_c) * H_h
    as a function of xi, like alpha_observable.  It is (B + xi*H_h)/beta_c
    less a constant, so its expectation change is the raw form
    delta<B> + xi*delta<H_h> over beta_c, of the same sign for beta_c > 0."""
    if set(B.betas) != {"c", "h"}:
        raise HeatleakError("deformation sweep requires B on qubits c and h")
    beta_c, beta_h = B.betas["c"], B.betas["h"]
    if beta_c <= 0:
        raise HeatleakError("the normal form divides by beta_c; need beta_c > 0")
    e_c, e_h = energy_basis_values(2, 0), energy_basis_values(2, 1)

    def observable(xi):
        return e_c + ((beta_h + np.asarray(xi, dtype=float)) / beta_c)[..., None] * e_h

    return observable


def alpha_slope(B: GlobalPassivityOperator):
    """d/dalpha of alpha_observable(B), sgn(alpha) * B^alpha * ln B, like it."""
    observable, log_b = alpha_observable(B), np.log(B.basis_values)
    return lambda alpha: observable(alpha) * log_b


def xi_slope(B: GlobalPassivityOperator):
    """d/dxi of xi_observable(B), H_h / beta_c at every xi, like it."""
    xi_observable(B)  # the same checks of B
    step = energy_basis_values(2, 1) / B.betas["c"]
    return lambda xi: np.broadcast_to(step, np.shape(xi) + step.shape)


def sweep_crossings(observable, diff, grid) -> np.ndarray:
    """Every sign crossing of diff @ observable(x) along the grid, in grid
    order, for diff one final-minus-initial outcome distribution.

    A bracket pairs a nonzero grid value with the last nonzero one before
    it, of opposite sign, so exact zeros are skipped (an all-zero sweep has
    no crossing, a -,0,+ pattern one) and a NaN pairs with nothing;
    _bisect locates the crossing in each bracket.
    """
    diff = np.asarray(diff, dtype=float)
    grid = np.asarray(grid, dtype=float)
    signs = np.sign(diff @ observable(grid).T).tolist()
    locations, last = [], None
    for k, sign in enumerate(signs):
        if sign == 0.0:
            continue
        if last is not None and signs[last] == -sign:  # NaN equals nothing
            locations.append(_bisect(observable, diff, grid[last], grid[k], signs[last]))
        last = k
    return np.array(locations, dtype=float)


def _bisect(observable, diff, lo: float, hi: float, sign: float) -> float:
    """Sign-change location of diff @ observable(x) in [lo, hi], whose
    grid values have the sign sign (+-1) at lo and the other at hi:
    bisection to width < 1e-12 or 200 steps (then the midpoint), stopped by
    an exact zero at a midpoint.  A bracket around the excluded alpha = 0 is split at
    +-1e-12 (the margin -> 0 at alpha -> 0) and bisected on the half that
    changes sign, or reported at 0 when neither half does."""
    def margin(x):
        return float(diff @ observable(x))

    if lo < 0.0 < hi:
        if margin(-1e-12) * sign < 0:
            hi = -1e-12
        elif margin(1e-12) * sign > 0:
            lo = 1e-12
        else:
            return 0.0
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        mid = 0.5 * (lo + hi)
        f_mid = margin(mid)
        if f_mid == 0.0:
            return mid
        lo, hi = (mid, hi) if (f_mid < 0) == (sign < 0) else (lo, mid)
    return 0.5 * (lo + hi)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class PassivityError(ValueError):
    """Invalid inputs to a passivity test."""


def energy_basis_values(num_qubits: int, qubit: int) -> np.ndarray:
    """Diagonal of H_qubit = |1><1| on the outcome space of num_qubits qubits.

    Outcome index bit of the first qubit is the most significant bit.
    """
    if qubit < 0 or qubit >= num_qubits:
        raise PassivityError(f"qubit {qubit} outside {num_qubits}-qubit outcome space")
    idx = np.arange(2**num_qubits)
    return ((idx >> (num_qubits - 1 - qubit)) & 1).astype(float)


@dataclass(frozen=True)
class GlobalPassivityOperator:
    """Diagonal globally passive operator built from inverse temperatures.

    basis_values[k] = sum_j beta_j * E_j(k) - d with the shift d chosen so
    that min(basis_values) is exactly epsilon > 0.
    """

    betas: dict[str, float]
    epsilon: float
    d: float
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
        raise PassivityError("at least one qubit required")
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise PassivityError(f"epsilon must be positive and finite, got {epsilon}")
    for label, beta in betas.items():
        if not math.isfinite(beta):
            raise PassivityError(f"beta[{label!r}] must be finite, got {beta}")
    n = len(betas)
    raw = np.zeros(2**n)
    with np.errstate(over="ignore", invalid="ignore"):
        for pos, (label, beta) in enumerate(betas.items()):
            raw += beta * energy_basis_values(n, pos)
        d = float(raw.min()) - epsilon
        values = raw - d
    if not np.isfinite(values).all():
        raise PassivityError(f"betas {betas} overflow: the outcome energies "
                             "sum_j beta_j E_j exceed the float range")
    if not np.array_equal(np.sign(raw[:, None] - raw), np.sign(values[:, None] - values)):
        raise PassivityError(f"epsilon = {epsilon} swamps the betas: the eigenvalues "
                             "of B lose the order of the outcome energies")
    values.setflags(write=False)
    return GlobalPassivityOperator(betas=betas, epsilon=epsilon, d=d, basis_values=values)


def observable_table(B: GlobalPassivityOperator, alpha_grid,
                     xi_grid=None) -> np.ndarray:
    """Per-outcome values V[outcome, column] of every observable tested.

    With n = len(alpha_grid), the columns are, in order:

    * ``V[:, :n]``     sgn(alpha) * B^alpha per alpha (global passivity),
    * ``V[:, n]``      B itself (second law),
    * ``V[:, n + 1:]`` B + xi * H_h per xi (deformation by the h qubit's
      energy, so B must be on qubits c and h; none when xi_grid is None or
      empty).

    Each channel's value is the change in expectation of its columns,
    ``(pf - p0) @ V``; a strictly negative entry certifies a leak.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if np.any(alpha_grid == 0.0):
        raise PassivityError("alpha grid must exclude 0")
    b = B.basis_values[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.sign(alpha_grid) * b**alpha_grid
    bad = np.flatnonzero(~np.isfinite(powers).all(axis=0))
    if bad.size:
        raise PassivityError(f"epsilon = {B.epsilon} makes B^alpha non-finite "
                             f"at alpha = {alpha_grid[bad[0]]}")
    parts = [powers, b]
    if xi_grid is not None and len(xi_grid):
        if set(B.betas) != {"c", "h"}:
            raise PassivityError("xi columns require B on qubits c and h")
        h_h = energy_basis_values(2, 1)[:, None]
        parts.append(b + h_h * np.asarray(xi_grid, dtype=float))
    return np.hstack(parts)


def generic_F_delta(initial, final, F_values) -> float:
    """Expectation change of an observable anti-ordered with the initial state.

    F must not increase where the initial probability increases (ties are
    free); under that precondition the change is non-negative for any unital
    evolution of the initial distribution.
    """
    p0 = np.asarray(initial, dtype=float)
    pf = np.asarray(final, dtype=float)
    F = np.asarray(F_values, dtype=float)
    if not (p0.shape == pf.shape == F.shape):
        raise PassivityError("initial, final and F must have equal lengths")
    # tolerances absorb last-ulp noise in probabilities computed different ways
    tol_p = 1e-12
    tol_f = 1e-12 * max(1.0, float(np.max(np.abs(F))))
    offending = []
    for i in range(len(p0)):
        for j in range(len(p0)):
            if p0[i] > p0[j] + tol_p and F[i] > F[j] + tol_f:
                offending.append((i, j))
    if offending:
        raise PassivityError(
            "F is not anti-ordered with the initial distribution; offending "
            f"(larger-p, smaller-p) index pairs: {offending}"
        )
    return float(np.dot(pf - p0, F))


def check_ordering_inherited(b_values, a_values, xi: float) -> bool:
    """True iff b + xi*a preserves the strict ordering of b.

    Pairs with equal b impose no constraint: equal initial eigenvalues admit
    either order.  A small relative tolerance absorbs rounding at the exact
    endpoints of the admissible interval.
    """
    b = np.asarray(b_values, dtype=float)
    a = np.asarray(a_values, dtype=float)
    if b.shape != a.shape:
        raise PassivityError("b and a must have equal lengths")
    scale = max(1.0, float(np.max(np.abs(b))), abs(xi) * float(np.max(np.abs(a))))
    tol = 1e-12 * scale
    for i in range(len(b)):
        for j in range(len(b)):
            if b[i] < b[j] and (b[j] + xi * a[j]) - (b[i] + xi * a[i]) < -tol:
                return False
    return True


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
        raise PassivityError("b and a must have equal lengths")
    xi_min, xi_max = -math.inf, math.inf
    min_pairs: list[tuple[int, int]] = []
    max_pairs: list[tuple[int, int]] = []
    for i in range(len(b)):
        for j in range(len(b)):
            if b[i] >= b[j]:
                continue
            if a[i] == a[j]:
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


def admissible_xi_grid(b_values, a_values, grid) -> np.ndarray:
    """The xi grid as a float array, checked to be finite and inside the
    interval of deformation_bounds up to a relative 1e-12 (rounding at the
    exact endpoints); PassivityError otherwise."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise PassivityError("xi grid must be finite")
    bounds = deformation_bounds(b_values, a_values)
    finite = [abs(x) for x in (bounds.xi_min, bounds.xi_max) if math.isfinite(x)]
    slack = 1e-12 * max([1.0, *finite])
    outside = (grid < bounds.xi_min - slack) | (grid > bounds.xi_max + slack)
    if outside.any():
        raise PassivityError(
            f"xi grid point {float(grid[outside][0])} outside the admissible "
            f"interval [{bounds.xi_min}, {bounds.xi_max}]"
        )
    return grid


# Sign detection takes the rows of a sweep in blocks of about this many grid
# values, so no intermediate ever spans every row of a large resample matrix.
_BLOCK_VALUES = 1 << 13


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
    as a function of xi, like alpha_observable.  Its expectation change has
    the sign of the raw form delta<B> + xi*delta<H_h> for beta_c > 0."""
    if set(B.betas) != {"c", "h"}:
        raise PassivityError("deformation sweep requires B on qubits c and h")
    beta_c, beta_h = B.betas["c"], B.betas["h"]
    if beta_c <= 0:
        raise PassivityError("the normal form divides by beta_c; need beta_c > 0")
    e_c, e_h = energy_basis_values(2, 0), energy_basis_values(2, 1)

    def observable(xi):
        return e_c + ((beta_h + np.asarray(xi, dtype=float)) / beta_c)[..., None] * e_h

    return observable


def sweep_crossings(observable, diffs, grid) -> tuple[np.ndarray, np.ndarray]:
    """Every sign crossing of diffs[r] @ observable(x) along the grid, per row.

    diffs holds one final-minus-initial outcome distribution per row.
    Returns (rows, locations), ordered by row and by grid position within a
    row.  Exact zeros at grid points are skipped when pairing signs, so an
    all-zero row (identity evolution) has no crossings while a -,0,+ pattern
    still yields the single crossing at the touching point.  Each bracket is
    then refined by bisection.
    """
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    grid = np.asarray(grid, dtype=float)
    columns = observable(grid).T
    positions = np.arange(len(grid))
    step = max(1, _BLOCK_VALUES // max(1, len(grid)))
    rows, lo, hi = [], [], []
    for start in range(0, len(diffs), step):
        values = diffs[start:start + step] @ columns
        nonzero = values != 0.0
        # position of the last nonzero value at or before each grid point
        last = np.where(nonzero, positions, -1)
        np.maximum.accumulate(last, axis=1, out=last)
        prev = last[:, :-1]
        prev_values = np.take_along_axis(values, np.maximum(prev, 0), axis=1)
        changes = nonzero[:, 1:] & (prev >= 0) & (prev_values * values[:, 1:] < 0)
        r, k = np.nonzero(changes)
        rows.append(r + start)
        lo.append(grid[prev[r, k]])
        hi.append(grid[k + 1])
    rows = np.concatenate(rows)
    if not rows.size:
        return rows, np.empty(0)
    return rows, _refine(observable, diffs[rows], np.concatenate(lo),
                         np.concatenate(hi))


def _refine(observable, diffs, lo, hi, tol: float = 1e-12) -> np.ndarray:
    """Sign-change location in each bracket [lo, hi] by plain bisection.

    A bracket spanning the excluded alpha = 0 point is refined on the half
    that actually changes sign (the margin -> 0 at alpha -> 0), or reported
    at 0 when neither half does.  Per bracket, bisection stops at an exact
    zero, at width < tol, or after 200 steps.
    """
    def margin(d, x):
        return np.einsum("ij,ij->i", d, observable(x))

    span = np.flatnonzero((lo < 0.0) & (0.0 < hi))
    if span.size:
        d = diffs[span]
        left = margin(d, lo[span]) * margin(d, np.full(span.size, -1e-12)) < 0
        right = ~left & (margin(d, np.full(span.size, 1e-12)) * margin(d, hi[span]) < 0)
        lo[span] = np.where(left, lo[span], np.where(right, 1e-12, 0.0))
        hi[span] = np.where(left, -1e-12, np.where(right, hi[span], 0.0))
    # a finished bracket is collapsed onto its result, which bisection keeps
    f_lo = margin(diffs, lo)
    np.copyto(hi, lo, where=f_lo == 0.0)
    np.copyto(lo, hi, where=(margin(diffs, hi) == 0.0) & (f_lo != 0.0))
    negative = f_lo < 0
    for _ in range(200):
        narrow = hi - lo < tol
        if narrow.all():
            break
        mid = 0.5 * (lo + hi)
        f_mid = margin(diffs, mid)
        stop = narrow | (f_mid == 0.0)
        up = ((f_mid < 0) == negative) | stop
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=~up | stop)
    return 0.5 * (lo + hi)

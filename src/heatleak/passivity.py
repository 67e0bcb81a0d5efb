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


def sweep_crossings(observable, diffs, grid) -> tuple[np.ndarray, np.ndarray]:
    """Every sign crossing of diffs[r] @ observable(x) along the grid, per row.

    diffs holds one final-minus-initial outcome distribution per row.
    Returns (rows, locations), ordered by row and by grid position within a
    row.  Exact zeros at grid points are skipped when pairing signs, so an
    all-zero row (identity evolution) has no crossings while a -,0,+ pattern
    still yields the single crossing at the touching point.  Each bracket is
    then refined by Illinois regula falsi (_refine).
    """
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    grid = np.asarray(grid, dtype=float)
    columns = observable(grid).T
    step = max(1, _BLOCK_VALUES // max(1, len(grid)))
    rows, lo, hi = [], [], []
    for start in range(0, len(diffs), step):
        r, k_lo, k_hi = _sign_brackets(diffs[start:start + step] @ columns)
        rows.append(r + start)
        lo.append(grid[k_lo])
        hi.append(grid[k_hi])
    rows = np.concatenate(rows)
    if not rows.size:
        return rows, np.empty(0)
    return rows, _refine(observable, diffs[rows], np.concatenate(lo),
                         np.concatenate(hi))


def _sign_brackets(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, lo, hi) grid positions of every sign change along the rows of
    values, each nonzero value paired with the last nonzero one before it (a
    NaN pairs with nothing).  Neighbours of opposite sign are compared as
    boolean arrays; only rows holding an exact zero get the forward fill of
    the last nonzero value before each point (0 before any)."""
    neg, pos = values < 0, values > 0
    changes = (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
    gaps = np.flatnonzero((values == 0.0).any(axis=1))
    if gaps.size:
        v = values[gaps]
        last = np.where(v != 0.0, np.arange(v.shape[1]), 0)
        np.maximum.accumulate(last, axis=1, out=last)
        filled = np.take_along_axis(v, last[:, :-1], axis=1)
        changes[gaps] = ((filled < 0) & pos[gaps, 1:]) | ((filled > 0) & neg[gaps, 1:])
    rows, k = np.nonzero(changes)
    lo = k.copy()
    if gaps.size:
        at = np.flatnonzero(np.isin(rows, gaps))
        lo[at] = last[np.searchsorted(gaps, rows[at]), k[at]]
    return rows, lo, k + 1


def _refine(observable, diffs, lo, hi, tol: float = 1e-12) -> np.ndarray:
    """Sign-change location in each bracket [lo, hi] by Illinois regula
    falsi (Dowell & Jarratt, BIT 11 (1971) 168) on all open brackets at once.

    A bracket spanning the excluded alpha = 0 point is refined on the half that
    actually changes sign (the margin -> 0 at alpha -> 0), or reported at 0
    when neither half does; one with an exact zero at an end is finished there.
    A step takes the secant point, or the midpoint if that is non-finite or
    outside the closed bracket, and halves the margin at an end kept two steps
    running.  A bracket stops at an exact zero, at width < tol or when an
    iterate repeats the last one (a secant landing on the end it holds), at
    its last iterate; after 200 steps, or if narrower than tol from the start,
    at its midpoint.  A same-side step shorter than tol is no stop: beside the
    alpha = 0 split the margin is ~1e-12 far from the root.
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
    f_lo, f_hi = margin(diffs, lo), margin(diffs, hi)
    found = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, 0.5 * (lo + hi)))
    open_ = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0) & (hi - lo >= tol))
    lo, hi, f_lo, f_hi, diffs = (a[open_] for a in (lo, hi, f_lo, f_hi, diffs))
    x, kept = np.full(open_.size, np.nan), np.zeros(open_.size)
    for _ in range(200):
        if not open_.size:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        last, x = x, np.where((lo <= secant) & (secant <= hi), secant, 0.5 * (lo + hi))
        f_x = margin(diffs, x)
        up = (f_x < 0) == (f_lo < 0)
        # the Illinois rule: an end kept for a second step running halves its margin
        f_lo[kept < 0] *= 0.5
        f_hi[kept > 0] *= 0.5
        lo, f_lo = np.where(up, x, lo), np.where(up, f_x, f_lo)
        hi, f_hi = np.where(up, hi, x), np.where(up, f_hi, f_x)
        kept = np.where(up, 1, -1)
        done = (f_x == 0.0) | (hi - lo < tol) | (x == last)
        found[open_[done]] = x[done]
        open_, lo, hi, f_lo, f_hi, diffs, x, kept = (
            a[~done] for a in (open_, lo, hi, f_lo, f_hi, diffs, x, kept))
    found[open_] = 0.5 * (lo + hi)
    return found

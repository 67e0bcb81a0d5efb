"""Finite-statistics layer: shot sampling, SPAM, bootstrap, thresholds.

All randomness goes through NumPy's PCG64 generator (``np.random.default_rng``)
with integer seeds derived via ``SeedSequence`` so that records and bootstrap
CIs are bit-reproducible from a single root seed, independently of
evaluation order.

Every standard error is multinomial_std's closed form of the counts of
(rates, shots) pairs: per table column in bootstrap_change, and over the
sweep's slope at a crossing in threshold_estimate (the delta method), which
take the pairs too.  Only bootstrap_change's CIs resample: each record is
redrawn once, by resample, into a (resamples, outcomes) matrix of rates, and
the CIs are quantiles of matrix products, interpolated from the four order
statistics per column that they read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .register import HeatleakError


# table columns per matrix product in bootstrap_change
_BLOCK_COLUMNS = 16


def derive_seed(root: int, *path: int) -> int:
    """Deterministic integer sub-seed for a role identified by an int path."""
    ss = np.random.SeedSequence([int(root), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=None)
def outcome_labels(num_qubits: int) -> tuple[str, ...]:
    """Bitstring labels in binary-index order, e.g. ('00','01','10','11')."""
    return tuple(format(k, f"0{num_qubits}b") for k in range(2**num_qubits))


@dataclass(frozen=True)
class ShotRecord:
    """Counts per computational-basis outcome of the measured qubits.

    counts maps bitstring labels (first measured qubit = leftmost bit) to
    non-negative integers summing to shots.
    """

    stage: str
    counts: dict[str, int]
    shots: int
    qubits: tuple[str, ...] | None = None
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shots <= 0:
            raise HeatleakError("a record needs at least one shot")
        if not self.counts:
            raise HeatleakError("a record needs at least one outcome")
        lengths = {len(k) for k in self.counts}
        if len(lengths) != 1:
            raise HeatleakError(f"inconsistent outcome label lengths {lengths}")
        m = lengths.pop()
        valid = set(outcome_labels(m))
        bad = set(self.counts) - valid
        if bad:
            raise HeatleakError(f"invalid outcome labels {sorted(bad)}")
        if any(c < 0 or c != int(c) for c in self.counts.values()):
            raise HeatleakError("counts must be non-negative integers")
        total = sum(self.counts.values())
        if total != self.shots:
            raise HeatleakError(f"counts sum to {total}, expected {self.shots}")
        if self.qubits is not None and len(self.qubits) != m:
            raise HeatleakError("qubit labels do not match outcome width")

    @property
    def num_measured(self) -> int:
        return len(next(iter(self.counts)))

    def probabilities(self) -> np.ndarray:
        counts = [self.counts.get(lbl, 0) for lbl in outcome_labels(self.num_measured)]
        return np.array(counts, dtype=np.int64) / self.shots

    def with_counts(self, counts_array) -> "ShotRecord":
        labels = outcome_labels(self.num_measured)
        counts = {lbl: int(c) for lbl, c in zip(labels, counts_array)}
        return ShotRecord(
            stage=self.stage,
            counts=counts,
            shots=self.shots,
            qubits=self.qubits,
            seed=None,
            meta=self.meta,
        )


@dataclass(frozen=True)
class SpamModel:
    """Independent per-qubit readout confusion: 0->1 and 1->0 flip rates."""

    flip_0_to_1: float = 0.0
    flip_1_to_0: float = 0.0

    def __post_init__(self):
        for name in ("flip_0_to_1", "flip_1_to_0"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise HeatleakError(f"{name} = {p} outside [0, 1]")


def apply_spam(distribution, model: SpamModel) -> np.ndarray:
    """Push outcome probabilities through the per-qubit confusion model."""
    p = np.asarray(distribution, dtype=float)
    n = len(p).bit_length() - 1
    if len(p) != 2**n:
        raise HeatleakError(f"distribution length {len(p)} is not a power of two")
    # column-stochastic single-qubit confusion matrix, rows = observed bit
    m1 = np.array(
        [
            [1.0 - model.flip_0_to_1, model.flip_1_to_0],
            [model.flip_0_to_1, 1.0 - model.flip_1_to_0],
        ]
    )
    confusion = functools.reduce(np.kron, [m1] * n, np.array([[1.0]]))
    out = confusion @ p
    return out / out.sum()


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling setup; confidence defaults to two-sided one sigma."""

    resamples: int = 2000
    confidence: float = 0.6827
    seed: int = 0

    def __post_init__(self):
        if self.resamples < 100:
            raise HeatleakError("at least 100 resamples required for reported CIs")
        if self.resamples > 10**6:  # analyze peaks near 400 B per resample
            raise HeatleakError(f"at most 10**6 resamples allowed, got {self.resamples}")
        if not 0.0 < self.confidence < 1.0:
            raise HeatleakError(f"confidence {self.confidence} outside (0, 1)")


class EstimateWithCI(NamedTuple):
    value: float
    ci_low: float
    ci_high: float
    std_error: float


def sample_shots(distribution, n: int, seed: int, stage: str = "i",
                 qubits=None, meta=None) -> ShotRecord:
    """One multinomial draw of n shots, bit-reproducible from the seed."""
    if n <= 0:
        raise HeatleakError("shot count must be positive")
    p = np.asarray(distribution, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise HeatleakError(f"distribution sums to {p.sum()}, not 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, p / p.sum())
    labels = outcome_labels(len(p).bit_length() - 1)
    return ShotRecord(
        stage=stage,
        counts={lbl: int(c) for lbl, c in zip(labels, counts)},
        shots=n,
        qubits=tuple(qubits) if qubits is not None else None,
        seed=seed,
        meta=dict(meta) if meta else {},
    )


def resample(record: ShotRecord, resamples: int, seed: int) -> np.ndarray:
    """(resamples, outcomes) multinomial redraws of a record's counts, as rates.

    Every row redraws the record's shot total from its empirical rates and
    is divided by that total; the generator is seeded by seed alone, so the
    matrix does not depend on what else is drawn or in which order.
    """
    rng = np.random.default_rng(seed)
    draw = rng.multinomial(record.shots, record.probabilities(), size=resamples)
    totals = draw.sum(axis=1)
    bad = np.flatnonzero(totals != record.shots)
    if bad.size:
        raise HeatleakError(
            f"resample {bad[0]} of stage {record.stage} has {totals[bad[0]]} "
            f"shots, expected {record.shots}"
        )
    return draw / record.shots


def multinomial_std(table, *samples) -> np.ndarray:
    """Plug-in multinomial standard error of the summed expectation of each
    column v of table over samples, (rates, shots) pairs:
    sqrt(sum over samples of p @ (v - p @ v)**2 / n).

    The variance is summed pairwise, sum_jk p_j p_k (v_j - v_k)**2 / 2, over
    v / max|v|: exactly 0 on a constant column, even where the rates sum
    below 1 by rounding, and no square overflows.
    """
    table = np.asarray(table, dtype=float)
    scale = np.abs(table).max(axis=0)
    with np.errstate(invalid="ignore"):  # inf / inf: the caller's check raises
        unit = table / np.where(scale > 0, scale, 1.0)
    gaps = (unit[:, None] - unit) ** 2  # (outcomes, outcomes, columns)
    return scale * np.sqrt(sum(p @ (p @ gaps) / (2 * n) for p, n in samples))


def threshold_estimate(sample_i, sample_f, observable, slope, crossing: float,
                       confidence: float) -> EstimateWithCI:
    """Delta-method estimate of a sign crossing x* of the sweep f(x) =
    (p_f - p_i) @ observable(x) between two samples, (rates, shots) pairs,
    with slope(x) = d observable / dx (Casella & Berger, Statistical
    Inference, 2002, 5.5.4): std_error is multinomial_std of observable(x*)
    over |f'(x*)|, and the CI x* +- z * std_error, not clipped to the grid.
    z is the normal quantile at (1 + confidence)/2, computed as minus the one
    at (1 - confidence)/2: near confidence 1, (1 + confidence)/2 rounds to 1,
    which has no quantile.  A tangent crossing (f'(x*) == 0), such as one
    reported at the excluded alpha = 0, has a NaN std_error and CI x*.
    """
    derivative = abs(float((sample_f[0] - sample_i[0]) @ slope(crossing)))
    if derivative == 0.0:
        return EstimateWithCI(crossing, crossing, crossing, math.nan)
    from statistics import NormalDist  # ~4 ms to import; only a threshold needs it
    column = observable(crossing)[:, None]
    std = float(multinomial_std(column, sample_i, sample_f)[0]) / derivative
    half = -NormalDist().inv_cdf((1.0 - confidence) / 2.0) * std
    return EstimateWithCI(crossing, crossing - half, crossing + half, std)


def bootstrap_change(sample_i, sample_f, diffs: np.ndarray, table,
                     confidence: float) -> list[EstimateWithCI]:
    """Bootstrap of the rate change from sample_i to sample_f, (rates, shots)
    pairs, times table, one estimate per column.

    diffs holds the (resamples, outcomes) resampled changes; a resample's
    statistic is the same product on its row, _BLOCK_COLUMNS table columns
    at a time to bound memory, and a non-finite one raises HeatleakError.
    The std_errors are multinomial_std of the two samples.
    The CIs are the empirical quantiles at (1 +- confidence)/2 by numpy's
    default "linear" rule, equal to np.quantile bit for bit, widened to
    enclose the point estimate as min(ci_low, point) and max(ci_high,
    point) would.
    """
    table = np.asarray(table, dtype=float)
    point = (sample_f[0] - sample_i[0]) @ table
    std = multinomial_std(table, sample_i, sample_f)
    # numpy's rule at q: virtual index v = (n - 1) q, between the order
    # statistics below and above it, or at the last one with weight v + 1
    last, lo_q = len(diffs) - 1, (1.0 - confidence) / 2.0
    ranks, weights = [], []
    for virtual in (last * lo_q, last * (1.0 - lo_q)):
        if virtual >= last:
            ranks += [last, last]
            weights.append(virtual + 1)
        else:
            below = math.floor(virtual)
            ranks += [below, below + 1]
            weights.append(virtual - below)
    order = np.empty((table.shape[1], len(ranks)))
    for start in range(0, table.shape[1], _BLOCK_COLUMNS):
        columns = slice(start, start + _BLOCK_COLUMNS)
        # (columns, resamples), C-ordered, so that its rows sort in place
        stats = table[:, columns].T @ diffs.T
        bad = np.flatnonzero(~np.isfinite(stats).all(axis=0))
        if bad.size:
            raise HeatleakError(f"statistic is not finite on resample {bad[0]}; "
                                f"diffs={diffs[bad[0]].tolist()}")
        # one sort of contiguous rows (numpy's SIMD sort) serves both
        # quantiles; it is faster than np.quantile's partition at six positions
        stats.sort(axis=1)
        order[columns] = stats[:, ranks]
    bounds = []
    for low, high, weight in zip(order[:, 0::2].T, order[:, 1::2].T, weights):
        step = high - low  # numpy's two-sided lerp
        bounds.append(high - step * (1 - weight) if weight >= 0.5 else low + step * weight)
    ci_low, ci_high = bounds
    ci_low = np.where(point < ci_low, point, ci_low)
    ci_high = np.where(point > ci_high, point, ci_high)
    return list(map(EstimateWithCI, point.tolist(), ci_low.tolist(), ci_high.tolist(),
                    std.tolist()))

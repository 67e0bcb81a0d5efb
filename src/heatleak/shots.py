"""Finite-statistics layer: shot sampling, SPAM, bootstrap, thresholds.

All randomness goes through NumPy's PCG64 generator (``np.random.default_rng``)
with integer seeds derived via ``SeedSequence`` so that records, bootstrap
channels and threshold uncertainties are bit-reproducible from a single root
seed, independently of evaluation order.

Both bootstraps redraw each stage's counts once, as a (resamples, outcomes)
multinomial count matrix (_resample_matrices), and work on those matrices
whole: bootstrap_change takes CIs of expectation changes by matrix products,
threshold_bootstrap locates the sweep crossings of every resample at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .passivity import sweep_crossings


class ShotsError(ValueError):
    """Invalid shot record or statistics configuration."""


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
            raise ShotsError("a record needs at least one shot")
        lengths = {len(k) for k in self.counts}
        if len(lengths) != 1:
            raise ShotsError(f"inconsistent outcome label lengths {lengths}")
        m = lengths.pop()
        valid = set(outcome_labels(m))
        bad = set(self.counts) - valid
        if bad:
            raise ShotsError(f"invalid outcome labels {sorted(bad)}")
        if any(c < 0 or c != int(c) for c in self.counts.values()):
            raise ShotsError("counts must be non-negative integers")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ShotsError(f"counts sum to {total}, expected {self.shots}")
        if self.qubits is not None and len(self.qubits) != m:
            raise ShotsError("qubit labels do not match outcome width")

    @property
    def num_measured(self) -> int:
        return len(next(iter(self.counts)))

    def counts_array(self) -> np.ndarray:
        labels = outcome_labels(self.num_measured)
        return np.array([self.counts.get(lbl, 0) for lbl in labels], dtype=np.int64)

    def probabilities(self) -> np.ndarray:
        return self.counts_array() / self.shots

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
                raise ShotsError(f"{name} = {p} outside [0, 1]")


def apply_spam(distribution, model: SpamModel) -> np.ndarray:
    """Push outcome probabilities through the per-qubit confusion model."""
    p = np.asarray(distribution, dtype=float)
    n = len(p).bit_length() - 1
    if len(p) != 2**n:
        raise ShotsError(f"distribution length {len(p)} is not a power of two")
    # column-stochastic single-qubit confusion matrix, rows = observed bit
    m1 = np.array(
        [
            [1.0 - model.flip_0_to_1, model.flip_1_to_0],
            [model.flip_0_to_1, 1.0 - model.flip_1_to_0],
        ]
    )
    confusion = np.array([[1.0]])
    for _ in range(n):
        confusion = np.kron(confusion, m1)
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
            raise ShotsError("at least 100 resamples required for reported CIs")
        if not 0.0 < self.confidence < 1.0:
            raise ShotsError(f"confidence {self.confidence} outside (0, 1)")


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    ci_low: float
    ci_high: float
    std_error: float


def sample_shots(distribution, n: int, seed: int, stage: str = "i",
                 qubits=None, meta=None) -> ShotRecord:
    """One multinomial draw of n shots, bit-reproducible from the seed."""
    if n <= 0:
        raise ShotsError("shot count must be positive")
    p = np.asarray(distribution, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ShotsError(f"distribution sums to {p.sum()}, not 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, p / p.sum())
    m = len(p).bit_length() - 1
    labels = outcome_labels(m)
    return ShotRecord(
        stage=stage,
        counts={lbl: int(c) for lbl, c in zip(labels, counts)},
        shots=n,
        qubits=tuple(qubits) if qubits is not None else None,
        seed=seed,
        meta=dict(meta) if meta else {},
    )


def estimate_expectation(record: ShotRecord, observable_values) -> float:
    """Sample average sum_k counts_k * v_k / shots."""
    v = np.asarray(observable_values, dtype=float)
    if len(v) != 2**record.num_measured:
        raise ShotsError(
            f"observable has {len(v)} values for {2**record.num_measured} outcomes"
        )
    return float(np.dot(record.counts_array(), v) / record.shots)


def _resample_matrices(records, config: BootstrapConfig) -> list[np.ndarray]:
    """Per record: (resamples, outcomes) multinomial redraws of its counts.

    Each record gets its own seed-derived stream, so results do not depend
    on the order resamples are consumed in.
    """
    draws = []
    for j, rec in enumerate(records):
        rng = np.random.default_rng(derive_seed(config.seed, j))
        draw = rng.multinomial(rec.shots, rec.probabilities(), size=config.resamples)
        totals = draw.sum(axis=1)
        bad = np.flatnonzero(totals != rec.shots)
        if bad.size:
            raise ShotsError(
                f"resample {bad[0]} of record {j} has {totals[bad[0]]} shots, "
                f"expected {rec.shots}"
            )
        draws.append(draw)
    return draws


def _linear_quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(x, q, axis=1) of the rows of x sorted ascending (NaN last).

    Repeats numpy's "linear" rule operation for operation, so the result is
    equal bit for bit: virtual index v = (n - 1) q between the order
    statistics below and above it, numpy's two-sided lerp, and NaN for a row
    that holds NaN.
    """
    n = ordered.shape[1]
    virtual = (n - 1) * q
    if virtual >= n - 1:  # numpy takes the last value, with weight v + 1
        below = above = n - 1
        weight = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        weight = virtual - below
    low, high = ordered[:, below], ordered[:, above]
    step = high - low
    value = high - step * (1 - weight) if weight >= 0.5 else low + step * weight
    np.copyto(value, ordered[:, -1], where=np.isnan(ordered[:, -1]))
    return value


def _summarize(point, stats: np.ndarray, confidence: float) -> list[EstimateWithCI]:
    """Estimates from point values and (resamples, k) resample statistics.

    CIs are empirical quantiles at (1 +- confidence)/2 by numpy's default
    "linear" rule, widened to enclose the point estimate if needed;
    std_error is the resample standard deviation (0 for a single resample).
    """
    lo_q = (1.0 - confidence) / 2.0
    std = stats.std(axis=0, ddof=1) if len(stats) > 1 else np.zeros(stats.shape[1])
    # one in-place sort of contiguous rows (numpy's SIMD sort) serves both
    # quantiles; it is faster than np.quantile's partition at six positions
    ordered = stats.T.copy()
    ordered.sort(axis=1)
    ci_low = _linear_quantile(ordered, lo_q)
    ci_high = _linear_quantile(ordered, 1.0 - lo_q)
    return [
        EstimateWithCI(
            value=float(point[k]),
            ci_low=float(min(ci_low[k], point[k])),
            ci_high=float(max(ci_high[k], point[k])),
            std_error=float(std[k]),
        )
        for k in range(len(point))
    ]


def bootstrap_change(initial: ShotRecord, final: ShotRecord, table,
                     config: BootstrapConfig) -> list[EstimateWithCI]:
    """Bootstrap of (p_final - p_initial) @ table, one estimate per column.

    Each resample redraws both records' counts from multinomials with their
    empirical rates and shot totals; its statistic is the same product on
    the redrawn rates, taken a block of _BLOCK_COLUMNS table columns at a
    time to bound memory.  See _summarize for the CIs; a non-finite
    resample statistic raises ShotsError naming the first such resample.
    """
    table = np.asarray(table, dtype=float)
    point = (final.probabilities() - initial.probabilities()) @ table
    counts_i, counts_f = _resample_matrices([initial, final], config)
    diffs = counts_f / final.shots - counts_i / initial.shots
    estimates = []
    for start in range(0, table.shape[1], _BLOCK_COLUMNS):
        columns = slice(start, start + _BLOCK_COLUMNS)
        stats = diffs @ table[:, columns]
        bad = np.flatnonzero(~np.isfinite(stats).all(axis=1))
        if bad.size:
            r = bad[0]
            raise ShotsError(
                f"statistic is not finite on resample {r}; "
                f"counts={[counts_i[r].tolist(), counts_f[r].tolist()]}"
            )
        estimates += _summarize(point[columns], stats, config.confidence)
    return estimates


@dataclass(frozen=True)
class ThresholdResult:
    """Crossing location with bootstrap uncertainty.

    no_crossing_resamples counts resamples whose sweep had no crossing; they
    do not enter the CI.
    """

    estimate: EstimateWithCI
    resamples: int
    no_crossing_resamples: int


def threshold_bootstrap(initial: ShotRecord, final: ShotRecord, observable, grid,
                        center: float, config: BootstrapConfig) -> ThresholdResult:
    """Bootstrap the uncertainty of center, the point-estimate sign crossing
    of the sweep of observable(x) over grid.

    The sweep's value at x is (p_final - p_initial) @ observable(x), as in
    passivity.sweep_crossings.  Every resample redraws both records' counts
    as in bootstrap_change and contributes its crossing nearest center, ties
    going to the first in grid order; resamples without a crossing are
    counted and left out of the CI, whose std_error is NaN if none crosses.
    """
    counts_i, counts_f = _resample_matrices([initial, final], config)
    rows, locations = sweep_crossings(
        observable, counts_f / final.shots - counts_i / initial.shots, grid)
    distance = np.abs(locations - center)
    best = np.full(config.resamples, np.inf)
    np.minimum.at(best, rows, distance)
    hit = distance == best[rows]
    _, first = np.unique(rows[hit], return_index=True)
    nearest = locations[hit][first]  # in resample order
    if not len(nearest):
        estimate = EstimateWithCI(center, center, center, math.nan)
    else:
        (estimate,) = _summarize([center], nearest[:, None], config.confidence)
    return ThresholdResult(
        estimate=estimate,
        resamples=config.resamples,
        no_crossing_resamples=config.resamples - len(nearest),
    )

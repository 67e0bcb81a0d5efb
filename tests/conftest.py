import numpy as np
import pytest

from heatleak import DensityOperator, UnitaryOperator, resample
from heatleak.shots import derive_seed


def haar_matrix(dim, rng):
    """Haar-random unitary matrix via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_unitary(dim, rng):
    """haar_matrix as a validated UnitaryOperator."""
    return UnitaryOperator(haar_matrix(dim, rng))


def random_density(num_qubits, rng, rank=None):
    """Random mixed state: mixture of Haar-random pure states."""
    dim = 2**num_qubits
    rank = rank or dim
    weights = rng.dirichlet(np.ones(rank))
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityOperator(m)


def samples(*records):
    """Each record as the (rates, shots) pair that bootstrap_change,
    threshold_estimate and multinomial_std take."""
    return [(rec.probabilities(), rec.shots) for rec in records]


def record_changes(rec_i, rec_f, cfg):
    """((p_i, n_i), (p_f, n_f), diffs), the leading arguments of
    bootstrap_change: the two records as (rates, shots) pairs and their
    (cfg.resamples, outcomes) resampled rate changes, record j of (rec_i,
    rec_f) redrawn from seed derive_seed(cfg.seed, j), as the oracle
    bootstraps of tests/oracles.py draw them."""
    diffs = (resample(rec_f, cfg.resamples, derive_seed(cfg.seed, 1))
             - resample(rec_i, cfg.resamples, derive_seed(cfg.seed, 0)))
    return *samples(rec_i, rec_f), diffs


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)

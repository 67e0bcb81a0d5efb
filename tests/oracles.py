"""Independent brute-force oracle used to pin expected values.

Everything here is written directly against the physics with explicit 8x8
matrix algebra and plain Python loops, on purpose sharing no code with the
package: full-register operators are assembled by hand from Kronecker
factors, marginals are accumulated index by index, and expectation changes
are plain sums.  The regression constants at the bottom were produced by
this module and frozen; the acceptance suite recomputes them on every run
and compares against both the frozen values and the package.

The bootstrap references at the end are the package's former per-resample
implementations: they rebuild records and rerun a statistic or sweep per
resample, taking both records and sweep builders from the calling test.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)


def oracle_thermal(beta):
    p0 = 1.0 / (1.0 + np.exp(-beta))
    return np.array([[p0, 0.0], [0.0, 1.0 - p0]], dtype=complex)


def oracle_ry(theta):
    return np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )


def oracle_phase(phi):
    return np.diag([np.exp(1j * phi), 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


ORACLE_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# permutation exchanging qubits 0 and 2 of a 3-qubit register (c <-> e)
ORACLE_SWAP_CE = np.zeros((8, 8), dtype=complex)
for _idx in range(8):
    _b = [(_idx >> 2) & 1, (_idx >> 1) & 1, _idx & 1]
    ORACLE_SWAP_CE[(_b[2] << 2) | (_b[1] << 1) | _b[0], _idx] = 1.0


def oracle_marginal_ch(rho):
    """(c, h) distribution of a (c, h, e) register, qubit c = MSB."""
    diag = np.real(np.diag(rho))
    p = [0.0, 0.0, 0.0, 0.0]
    for idx in range(8):
        c_bit = (idx >> 2) & 1
        h_bit = (idx >> 1) & 1
        p[2 * c_bit + h_bit] += diag[idx]
    return np.array(p)


def oracle_protocol_a(with_swap, beta_c=2.23, beta_h=0.43, beta_e=2.02,
                      phi=3 * np.pi / 4):
    rho = np.kron(np.kron(oracle_thermal(beta_c), oracle_thermal(beta_h)),
                  oracle_thermal(beta_e))
    p_i = oracle_marginal_ch(rho)
    u_layer = np.kron(np.kron(oracle_ry(np.pi / 4), oracle_ry(np.pi / 4)), I2)
    u_phase = np.kron(oracle_phase(phi), I2)
    for u in (u_layer, u_phase, u_layer):
        rho = u @ rho @ u.conj().T
    p_ii = oracle_marginal_ch(rho)
    if with_swap:
        u_env = np.kron(I2, ORACLE_SWAP)  # exchanges qubits h and e
        rho = u_env @ rho @ u_env.conj().T
    return p_i, p_ii, oracle_marginal_ch(rho)


def oracle_protocol_b(with_swap, beta_c=1.627, beta_h=1.099, beta_e=2.232,
                      rotation_angle=2.5, order="swap_then_rotate"):
    """Reference protocol B; rotation_angle is halved into the exponent."""
    rho = np.kron(np.kron(oracle_thermal(beta_c), oracle_thermal(beta_h)),
                  oracle_thermal(beta_e))
    p_i = oracle_marginal_ch(rho)
    u_swap = np.kron(ORACLE_SWAP, I2)
    u_rot = np.kron(np.kron(I2, oracle_ry(rotation_angle / 2.0)), I2)
    seq = (u_swap, u_rot) if order == "swap_then_rotate" else (u_rot, u_swap)
    for u in seq:
        rho = u @ rho @ u.conj().T
    p_ii = oracle_marginal_ch(rho)
    if with_swap:
        rho = ORACLE_SWAP_CE @ rho @ ORACLE_SWAP_CE.conj().T
    return p_i, p_ii, oracle_marginal_ch(rho)


def oracle_b_values(beta_c, beta_h, eps):
    raw = [0.0, beta_h, beta_c, beta_c + beta_h]
    d = min(raw) - eps
    return [r - d for r in raw]


def oracle_delta_b_alpha(p0, pf, beta_c, beta_h, eps, alpha):
    vals = oracle_b_values(beta_c, beta_h, eps)
    sign = 1.0 if alpha > 0 else -1.0
    return sum((pf[k] - p0[k]) * sign * vals[k] ** alpha for k in range(4))


def oracle_bisect(f, lo, hi, tol=1e-13):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(300):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_alpha_star_a(eps=1e-3):
    """Exact zero crossing of the alpha family for protocol A with SWAP."""
    p_i, _, p_iii = oracle_protocol_a(True)
    f = lambda a: oracle_delta_b_alpha(p_i, p_iii, 2.23, 0.43, eps, a)
    return oracle_bisect(f, 0.3, 0.8)


def oracle_xi_star_b():
    """Exact crossing of the deformed inequality for protocol B with SWAP.

    The raw form delta<B> + xi*delta<H_h> is linear in xi, so the crossing
    is a plain ratio.
    """
    p_i, _, p_iii = oracle_protocol_b(True)
    b_raw = [0.0, 1.099, 1.627, 1.627 + 1.099]
    h_h = [0.0, 1.0, 0.0, 1.0]
    d_b = sum((p_iii[k] - p_i[k]) * b_raw[k] for k in range(4))
    d_hh = sum((p_iii[k] - p_i[k]) * h_h[k] for k in range(4))
    return -d_b / d_hh


def oracle_summary(point, stats, confidence):
    """(value, ci_low, ci_high, std_error) per column of (resamples, k)
    resample statistics: np.quantile at (1 +- confidence)/2 widened to the
    point value, and the ddof=1 standard deviation (0 for one resample).

    The CI summary of the package before it took its quantiles from a sort;
    the package must still agree with it bit for bit.
    """
    lo_q = (1.0 - confidence) / 2.0
    std = stats.std(axis=0, ddof=1) if len(stats) > 1 else np.zeros(stats.shape[1])
    ci_low, ci_high = np.quantile(stats.T.copy(), [lo_q, 1.0 - lo_q], axis=1,
                                  overwrite_input=True)
    return [
        (float(point[k]), float(min(ci_low[k], point[k])),
         float(max(ci_high[k], point[k])), float(std[k]))
        for k in range(len(point))
    ]


def _oracle_draws(records, resamples, seed):
    """Per record j: (resamples, outcomes) multinomial redraws of its counts
    from a generator seeded with SeedSequence([seed, j]), as the package
    seeds its bootstrap streams."""
    draws = []
    for j, rec in enumerate(records):
        sub = np.random.SeedSequence([seed, j]).generate_state(1, np.uint64)[0]
        rng = np.random.default_rng(sub)
        draws.append(rng.multinomial(rec.shots, rec.probabilities(), size=resamples))
    return draws


def oracle_bootstrap_statistic(records, statistic, resamples, confidence, seed):
    """Per-resample bootstrap of a vector statistic of shot records: every
    resample rebuilds each record from its redrawn counts and recomputes
    statistic(records); summarised by oracle_summary."""
    point = np.atleast_1d(np.asarray(statistic(records), dtype=float))
    draws = _oracle_draws(records, resamples, seed)
    stats = np.empty((resamples, len(point)))
    for r in range(resamples):
        stats[r] = statistic([rec.with_counts(d[r]) for rec, d in zip(records, draws)])
    return oracle_summary(point, stats, confidence)


def oracle_threshold(initial, final, sweep_builder, resamples, confidence, seed):
    """Per-resample threshold bootstrap of sweep_builder(initial, final), the
    sign crossings of a sweep whose point estimate crosses zero once or never.

    Every resample rebuilds both records, reruns the sweep and keeps its
    crossing nearest the point one.  Returns (found, estimate,
    no_crossing_resamples), estimate as in oracle_summary (NaN std error
    when no resample crosses).
    """
    point = [float(loc) for loc in sweep_builder(initial, final)]
    if not point:
        return False, None, 0
    assert len(point) == 1, point
    center = point[0]
    draw_i, draw_f = _oracle_draws([initial, final], resamples, seed)
    locations = []
    for r in range(resamples):
        crossings = sweep_builder(initial.with_counts(draw_i[r]),
                                  final.with_counts(draw_f[r]))
        if len(crossings):
            locations.append(min((float(loc) for loc in crossings),
                                 key=lambda x: abs(x - center)))
    if not locations:
        return True, (center, center, center, float("nan")), resamples
    (estimate,) = oracle_summary([center], np.array(locations)[:, None], confidence)
    return True, estimate, resamples - len(locations)


# Frozen regression constants (computed by the functions above, tolerance
# 1e-6 enforced by the acceptance suite).
PIN_ALPHA_STAR_A = 0.4765547242892354
PIN_XI_STAR_B = -0.8879599757831821

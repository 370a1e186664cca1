"""Binary surface selection for a fixed beamformer and phases.

With w and theta frozen, every surface contributes one complex amplitude per
receiver (v_l to the user, u_l to the eavesdropper), and a selection x in
{0,1}^L scales the secrecy-rate argument to the ratio

    N(x)/D(x) = (1 + |sum_l x_l v_l|^2 / s2) / (1 + |sum_l x_l u_l|^2 / s2e).

dinkelbach_solve maximizes it exactly by enumerating all 2^L subset sums of
the amplitudes, built by doubling, so each selection costs O(1) rather than
O(L). The certification oracle takes an independent route: it expands both
powers into binary quadratics,

    |sum_l x_l v_l|^2 = sum_l C_l x_l + sum_{l>m} C_lm x_l x_m,

with C_l = |v_l|^2 and C_lm = 2 Re(v_l v_m*), and scans every selection of
that quadratic form.
"""

from dataclasses import dataclass

import numpy as np

from .model import MAX_SURFACES, ChannelSet, SolutionState, SystemConfig

__all__ = [
    "RatioCoefficients",
    "ratio_coefficients",
    "quadratic_value",
    "ratio_value",
    "dinkelbach_solve",
    "brute_force_onoff",
]

# Subset sums are combined in blocks of at most 2^BLOCK_BITS selections, which
# bounds memory at the MAX_SURFACES cap.
BLOCK_BITS = 15


@dataclass(frozen=True)
class RatioCoefficients:
    """Expansion coefficients of the two signal-power quadratics.

    c_lin[l] and d_lin[l] are the nonnegative self-gains; c_cross[l, m] and
    d_cross[l, m] (strictly lower triangular, m < l) carry 2 Re of the complex
    cross products so the binary expansion is exact. v_user and v_eve are the
    per-surface complex amplitudes the expansion was built from, which
    dinkelbach_solve enumerates; instances that only feed the quadratic-form
    oracle may leave them out.
    """

    c_lin: np.ndarray
    c_cross: np.ndarray
    d_lin: np.ndarray
    d_cross: np.ndarray
    v_user: np.ndarray | None = None
    v_eve: np.ndarray | None = None

    def __post_init__(self):
        for name in ("c_lin", "c_cross", "d_lin", "d_cross"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.c_lin)
        if self.c_cross.shape != (n, n) or self.d_cross.shape != (n, n):
            raise ValueError("cross matrices must be (L, L)")
        if np.any(self.c_lin < 0.0) or np.any(self.d_lin < 0.0):
            raise ValueError("self-gains must be nonnegative")
        if np.any(np.triu(self.c_cross) != 0.0) or np.any(np.triu(self.d_cross) != 0.0):
            raise ValueError("cross matrices must be strictly lower triangular")

    @property
    def n_irs(self) -> int:
        return len(self.c_lin)


def ratio_coefficients(ch: ChannelSet, sol: SolutionState) -> RatioCoefficients:
    """Per-surface amplitudes of the current (w, theta),
    v_user[l] = h_l^H diag(theta_l) G_l w and likewise for the eavesdropper,
    with the expansion of both signal-power quadratics.

    The on/off entries of sol are ignored; selection happens through x.
    """
    theta = sol.phase_blocks(ch.n_refl)
    gw = np.einsum("lnt,t->ln", ch.g_ap_irs, sol.beamformer)  # G_l w per surface
    v_user = np.einsum("ln,ln->l", np.conj(ch.h_irs_user) * theta, gw)
    v_eve = np.einsum("ln,ln->l", np.conj(ch.g_irs_eve) * theta, gw)

    def expand(v):
        lin = np.abs(v) ** 2
        cross = 2.0 * np.real(np.outer(v, np.conj(v)))
        return lin, np.tril(cross, k=-1)

    c_lin, c_cross = expand(v_user)
    d_lin, d_cross = expand(v_eve)
    return RatioCoefficients(c_lin=c_lin, c_cross=c_cross, d_lin=d_lin,
                             d_cross=d_cross, v_user=v_user, v_eve=v_eve)


def _subset_sums(v_user, v_eve, surfaces, n):
    """Sums of both amplitude vectors over every subset of `surfaces`, built
    by doubling (bit k of the index = k-th listed surface), with each
    subset's tie-break key: active count * 2^n + sum of 2^(n-1-l) over its
    surfaces l, so smaller keys have fewer active surfaces, then come first
    lexicographically."""
    s_user = np.zeros(1, dtype=complex)
    s_eve = np.zeros(1, dtype=complex)
    key = np.zeros(1, dtype=np.int64)
    for l in surfaces:
        s_user = np.concatenate((s_user, s_user + v_user[l]))
        s_eve = np.concatenate((s_eve, s_eve + v_eve[l]))
        key = np.concatenate((key, key + ((1 << n) + (1 << (n - 1 - l)))))
    return s_user, s_eve, key


def dinkelbach_solve(coef: RatioCoefficients, cfg: SystemConfig):
    """Exact maximizer of the ratio N(x)/D(x) over all 2^L on/off selections,
    from the amplitudes coef.v_user and coef.v_eve.

    The low min(L, BLOCK_BITS) surfaces and the remaining high surfaces are
    enumerated separately; each block adds one high subset sum to all low
    ones. Exact ties break like brute_force_onoff: fewest active surfaces,
    then lexicographically. Returns (x, ratio); refuses L > MAX_SURFACES.
    The name is the key under which bench/ traces the on/off layer; no
    Dinkelbach parameter iteration is needed once the ratio is enumerated.
    """
    if coef.v_user is None or coef.v_eve is None:
        raise ValueError("selection needs the per-surface amplitudes")
    n = coef.n_irs
    if n > MAX_SURFACES:
        raise ValueError(f"exact selection limited to L <= {MAX_SURFACES}")
    n_lo = min(n, BLOCK_BITS)
    lo_user, lo_eve, lo_key = _subset_sums(coef.v_user, coef.v_eve, range(n_lo), n)
    hi_user, hi_eve, hi_key = _subset_sums(coef.v_user, coef.v_eve, range(n_lo, n), n)
    best_ratio, best_key, best_code = -np.inf, 0, 0
    for j in range(len(hi_key)):
        s_user = lo_user + hi_user[j]
        s_eve = lo_eve + hi_eve[j]
        num = 1.0 + (s_user.real ** 2 + s_user.imag ** 2) / cfg.noise_user
        den = 1.0 + (s_eve.real ** 2 + s_eve.imag ** 2) / cfg.noise_eve
        ratio = num / den
        top = ratio.max()
        if top < best_ratio:
            continue
        tied = np.flatnonzero(ratio == top)
        keys = lo_key[tied] + hi_key[j]
        k = int(np.argmin(keys))
        if top > best_ratio or keys[k] < best_key:
            best_ratio, best_key = float(top), int(keys[k])
            best_code = (j << n_lo) | int(tied[k])
    return (best_code >> np.arange(n)) & 1, best_ratio


def quadratic_value(lin: np.ndarray, cross: np.ndarray, x: np.ndarray) -> float:
    """sum_l lin_l x_l + sum_{l>m} cross_lm x_l x_m for binary x."""
    xf = np.asarray(x, dtype=float)
    return float(lin @ xf + xf @ cross @ xf)


def ratio_value(coef: RatioCoefficients, x: np.ndarray, cfg: SystemConfig) -> float:
    """Exact ratio N(x)/D(x) at a binary selection."""
    num = 1.0 + quadratic_value(coef.c_lin, coef.c_cross, x) / cfg.noise_user
    den = 1.0 + quadratic_value(coef.d_lin, coef.d_cross, x) / cfg.noise_eve
    return num / den


def _binary_grid(n: int, block: int | None = None):
    """Yield blocks of all 2^n binary rows (low bit = surface 0)."""
    if n > MAX_SURFACES:
        raise ValueError(f"enumeration limited to L <= {MAX_SURFACES}")
    total = 2 ** n
    block = total if block is None else block
    bits = np.arange(n)
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.int64)
        yield ((codes[:, None] >> bits) & 1).astype(int)


def _quad_batch(lin, cross, grid):
    xf = grid.astype(float)
    return xf @ lin + np.einsum("bi,ij,bj->b", xf, cross, xf)


def brute_force_onoff(coef: RatioCoefficients, cfg: SystemConfig):
    """Enumerate all 2^L selections and return the exact ratio maximizer.

    Ties break toward fewer active surfaces, then lexicographically.
    Certification oracle; refuses L > MAX_SURFACES.
    """
    n = coef.n_irs
    best_ratio = -np.inf
    winners = []
    for grid in _binary_grid(n, block=1 << BLOCK_BITS):
        num = 1.0 + _quad_batch(coef.c_lin, coef.c_cross, grid) / cfg.noise_user
        den = 1.0 + _quad_batch(coef.d_lin, coef.d_cross, grid) / cfg.noise_eve
        ratios = num / den
        block_best = float(np.max(ratios))
        if block_best > best_ratio:
            best_ratio = block_best
            winners = [grid[i].copy() for i in np.flatnonzero(ratios == block_best)]
        elif block_best == best_ratio:
            winners.extend(grid[i].copy() for i in np.flatnonzero(ratios == block_best))
    winners.sort(key=lambda row: (int(row.sum()), tuple(row)))
    return winners[0], best_ratio

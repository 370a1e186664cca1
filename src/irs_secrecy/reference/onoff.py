"""The on/off block's certification oracle, independent of the subset-sum
enumeration in `irs_secrecy.onoff`: quadratic_expansion expands both powers
into binary quadratics,

    |sum_l x_l v_l|^2 = sum_l C_l x_l + sum_{l>m} C_lm x_l x_m,

with C_l = |v_l|^2 and C_lm = 2 Re(v_l v_m*), and brute_force_onoff scans
every selection of that quadratic form with ratio_value, block by block.
"""

import numpy as np

from ..model import SystemConfig
from ..onoff import BLOCK_BITS, _amplitudes

__all__ = ["quadratic_expansion", "quadratic_value", "ratio_value",
           "brute_force_onoff"]


def quadratic_expansion(v: np.ndarray):
    """(lin, cross) with |sum_l x_l v_l|^2 = lin @ x + x @ cross @ x for
    binary x: lin = |v|^2, cross = tril(2 Re(v v^H), -1)."""
    v = np.asarray(v, dtype=complex)
    return np.abs(v) ** 2, np.tril(2.0 * np.real(np.outer(v, np.conj(v))), k=-1)


def quadratic_value(lin: np.ndarray, cross: np.ndarray, x: np.ndarray):
    """sum_l lin_l x_l + sum_{l>m} cross_lm x_l x_m for a binary selection x,
    or for each row of a batch x of shape (B, L)."""
    xf = np.asarray(x, dtype=float)
    return xf @ lin + np.einsum("...i,ij,...j->...", xf, cross, xf)


def ratio_value(v_user, v_eve, x: np.ndarray, cfg: SystemConfig):
    """Exact ratio N(x)/D(x) at a binary selection x, or at each row of a
    batch x of shape (B, L)."""
    v_user, v_eve = _amplitudes(v_user, v_eve)
    num = 1.0 + quadratic_value(*quadratic_expansion(v_user), x) / cfg.noise_user
    den = 1.0 + quadratic_value(*quadratic_expansion(v_eve), x) / cfg.noise_eve
    return num / den


def _binary_grid(n: int):
    """Yield all 2^n binary rows (low bit = surface 0) in blocks of
    2^BLOCK_BITS."""
    total, block = 2 ** n, 1 << BLOCK_BITS
    bits = np.arange(n)
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.int64)
        yield ((codes[:, None] >> bits) & 1).astype(int)


def brute_force_onoff(v_user, v_eve, cfg: SystemConfig):
    """Enumerate all 2^L selections and return the exact ratio maximizer.

    Ties break toward fewer active surfaces, then lexicographically.
    Certification oracle; refuses L > MAX_SURFACES.
    """
    v_user, v_eve = _amplitudes(v_user, v_eve)
    best_ratio = -np.inf
    winners = []
    for grid in _binary_grid(len(v_user)):
        ratios = ratio_value(v_user, v_eve, grid, cfg)
        block_best = float(np.max(ratios))
        if block_best > best_ratio:
            best_ratio = block_best
            winners = [grid[i] for i in np.flatnonzero(ratios == block_best)]
        elif block_best == best_ratio:
            winners.extend(grid[i] for i in np.flatnonzero(ratios == block_best))
    winners.sort(key=lambda row: (int(row.sum()), tuple(row)))
    return winners[0], best_ratio

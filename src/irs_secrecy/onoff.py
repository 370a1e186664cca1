"""Binary surface selection for a fixed beamformer and phases.

With w and theta frozen, every surface contributes one complex amplitude per
receiver (v_l to the user, u_l to the eavesdropper), and a selection x in
{0,1}^L scales the secrecy-rate argument to the ratio

    N(x)/D(x) = (1 + |sum_l x_l v_l|^2 / s2) / (1 + |sum_l x_l u_l|^2 / s2e).

dinkelbach_solve maximizes it exactly by enumerating all 2^L subset sums of
the amplitudes, built by doubling, so each selection costs O(1) rather than
O(L); they are filled in place as real rows in blocks that stay under 1 MB.
The certification oracle takes an independent route: quadratic_expansion
expands both powers into binary quadratics,

    |sum_l x_l v_l|^2 = sum_l C_l x_l + sum_{l>m} C_lm x_l x_m,

with C_l = |v_l|^2 and C_lm = 2 Re(v_l v_m*), and brute_force_onoff scans
every selection of that quadratic form.
"""

from dataclasses import dataclass

import numpy as np

from .model import MAX_SURFACES, ChannelSet, SolutionState, SystemConfig

__all__ = [
    "RatioCoefficients",
    "ratio_coefficients",
    "quadratic_expansion",
    "quadratic_value",
    "ratio_value",
    "dinkelbach_solve",
    "brute_force_onoff",
]

# Subset sums are combined in blocks of 2^BLOCK_BITS selections: four real
# rows per buffer, filled in place, so a call touches under 1 MB for any
# L <= MAX_SURFACES.
BLOCK_BITS = 13


@dataclass(frozen=True)
class RatioCoefficients:
    """Per-surface complex amplitudes of a fixed (w, theta): v_user[l] = v_l
    to the user and v_eve[l] = u_l to the eavesdropper, both of shape (L,)
    and finite. dinkelbach_solve enumerates their subset sums; the oracle
    expands them with quadratic_expansion.
    """

    v_user: np.ndarray
    v_eve: np.ndarray

    def __post_init__(self):
        shapes = np.shape(self.v_user), np.shape(self.v_eve)
        if len(shapes[0]) != 1 or shapes[0] != shapes[1]:
            raise ValueError("v_user and v_eve must have the same shape (L,), "
                             f"got {shapes[0]} and {shapes[1]}")
        for name in ("v_user", "v_eve"):
            v = np.asarray(getattr(self, name), dtype=complex)
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must hold finite amplitudes")
            object.__setattr__(self, name, v)

    @property
    def n_irs(self) -> int:
        return len(self.v_user)


def ratio_coefficients(ch: ChannelSet, sol: SolutionState) -> RatioCoefficients:
    """Per-surface amplitudes of the current (w, theta),
    v_user[l] = h_l^H diag(theta_l) G_l w and likewise for the eavesdropper.

    The on/off entries of sol are ignored; selection happens through x.
    """
    def per_surface(rows):
        return (sol.phases * (rows @ sol.beamformer)).reshape(-1, ch.n_refl).sum(axis=1)

    return RatioCoefficients(v_user=per_surface(ch.cascade_user),
                             v_eve=per_surface(ch.cascade_eve))


def _subset_sums(rows, surfaces, n):
    """Sums of the real amplitude rows over every subset of `surfaces`, filled
    in place by doubling (bit k of the index = k-th listed surface), with each
    subset's tie-break key: active count * 2^n + sum of 2^(n-1-l) over its
    surfaces l, so smaller keys have fewer active surfaces, then come first
    lexicographically."""
    sums = np.zeros((len(rows), 1 << len(surfaces)))
    key = np.zeros(1 << len(surfaces), dtype=np.int64)
    for k, l in enumerate(surfaces):
        np.add(sums[:, :1 << k], rows[:, l:l + 1], out=sums[:, 1 << k:2 << k])
        np.add(key[:1 << k], (1 << n) + (1 << (n - 1 - l)), out=key[1 << k:2 << k])
    return sums, key


def dinkelbach_solve(coef: RatioCoefficients, cfg: SystemConfig):
    """Exact maximizer of the ratio N(x)/D(x) over all 2^L on/off selections,
    from the amplitudes coef.v_user and coef.v_eve.

    The low min(L, BLOCK_BITS) surfaces and the remaining high surfaces are
    enumerated separately, as four real rows (Re, Im of each receiver's sum);
    each block adds one high subset sum to all low ones in one reused buffer.
    Exact ties break like brute_force_onoff: fewest active surfaces, then
    lexicographically. Returns (x, ratio); refuses L > MAX_SURFACES.
    The name is the key under which bench/ traces the on/off layer; no
    Dinkelbach parameter iteration is needed once the ratio is enumerated.
    """
    n = coef.n_irs
    if n > MAX_SURFACES:
        raise ValueError(f"exact selection limited to L <= {MAX_SURFACES}")
    n_lo = min(n, BLOCK_BITS)
    rows = np.array([coef.v_user.real, coef.v_user.imag, coef.v_eve.real, coef.v_eve.imag])
    lo, lo_key = _subset_sums(rows, range(n_lo), n)
    hi, hi_key = _subset_sums(rows, range(n_lo, n), n)
    noise = np.array([[cfg.noise_user], [cfg.noise_eve]])
    s = np.empty_like(lo)
    power, ratio = s[0::2], s[1]     # both receivers' 1 + |sum|^2/noise, then N/D
    best_ratio, best_key, best_code = -np.inf, 0, 0
    for j in range(len(hi_key)):
        np.square(np.add(lo, hi[:, j:j + 1], out=s), out=s)
        np.add(power, s[1::2], out=power)
        np.add(np.divide(power, noise, out=power), 1.0, out=power)
        np.divide(power[0], power[1], out=ratio)
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


def quadratic_expansion(v: np.ndarray):
    """(lin, cross) with |sum_l x_l v_l|^2 = lin @ x + x @ cross @ x for
    binary x: lin = |v|^2, cross = tril(2 Re(v v^H), -1)."""
    v = np.asarray(v, dtype=complex)
    return np.abs(v) ** 2, np.tril(2.0 * np.real(np.outer(v, np.conj(v))), k=-1)


def quadratic_value(lin: np.ndarray, cross: np.ndarray, x: np.ndarray) -> float:
    """sum_l lin_l x_l + sum_{l>m} cross_lm x_l x_m for binary x."""
    xf = np.asarray(x, dtype=float)
    return float(lin @ xf + xf @ cross @ xf)


def ratio_value(coef: RatioCoefficients, x: np.ndarray, cfg: SystemConfig) -> float:
    """Exact ratio N(x)/D(x) at a binary selection."""
    num = 1.0 + quadratic_value(*quadratic_expansion(coef.v_user), x) / cfg.noise_user
    den = 1.0 + quadratic_value(*quadratic_expansion(coef.v_eve), x) / cfg.noise_eve
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
    user, eve = quadratic_expansion(coef.v_user), quadratic_expansion(coef.v_eve)
    best_ratio = -np.inf
    winners = []
    for grid in _binary_grid(coef.n_irs, block=1 << BLOCK_BITS):
        num = 1.0 + _quad_batch(*user, grid) / cfg.noise_user
        den = 1.0 + _quad_batch(*eve, grid) / cfg.noise_eve
        ratios = num / den
        block_best = float(np.max(ratios))
        if block_best > best_ratio:
            best_ratio = block_best
            winners = [grid[i].copy() for i in np.flatnonzero(ratios == block_best)]
        elif block_best == best_ratio:
            winners.extend(grid[i].copy() for i in np.flatnonzero(ratios == block_best))
    winners.sort(key=lambda row: (int(row.sum()), tuple(row)))
    return winners[0], best_ratio

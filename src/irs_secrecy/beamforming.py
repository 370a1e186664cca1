"""Transmit beamformer optimization for fixed surface state.

Once the phases and on/off pattern are frozen, the whole problem is driven by
the effective pair (a, b), two complex arrays of length N_t that every entry
point takes as its first two arguments: maximize log2((1 + |a^H w|^2 / s2) /
(1 + |b^H w|^2 / s2e)) subject to ||w||^2 <= P. gevd_oracle is its
closed-form global optimum: the larger root of the quadratic whose roots are
the generalized eigenvalues of the pencil (I + (P/s2) a a^H, I + (P/s2e) b b^H)
on span{a, b}, and its eigenvector in closed form; used by the joint phase
refinement.

Because a a^H and b b^H are rank one, every optimal beamformer lives in
span{a, b}. The closed form reads the norms of the split of b into its part
along a and the part b_p orthogonal to a (`_split`).
"""

import math

import numpy as np

from .model import SystemConfig, _pair_gap

__all__ = ["gevd_oracle"]


def _split(a: np.ndarray, b: np.ndarray):
    """Split b along a: (||a||^2, b^H a, b_p, ||b||^2, ||b_p||^2) with b_p
    the part of b orthogonal to a (b itself when a = 0). A second pass keeps
    b_p orthogonal to a to rounding when b is nearly parallel to a, which the
    rate of a closed-form w depends on; b counts as parallel (b_p = 0) when
    ||b_p|| <= 1e-10 ||b||."""
    norm2_a = float(np.vdot(a, a).real)
    b_dot_a = complex(np.vdot(b, a))
    norm2_b = float(np.vdot(b, b).real)
    if norm2_a == 0.0:
        return norm2_a, b_dot_a, b, norm2_b, norm2_b
    b_perp = b - (b_dot_a.conjugate() / norm2_a) * a
    b_perp -= (np.vdot(a, b_perp) / norm2_a) * a
    norm2_perp = float(np.vdot(b_perp, b_perp).real)
    if norm2_perp <= 1e-20 * norm2_b:
        norm2_perp, b_perp = 0.0, np.zeros_like(b_perp)
    return norm2_a, b_dot_a, b_perp, norm2_b, norm2_perp


def _top_root(norm2_a, norm2_b, norm2_perp, cfg: SystemConfig) -> float:
    """Larger root of `gevd_oracle`'s quadratic from ||a||^2, ||b||^2 and
    ||b_p||^2."""
    p_budget = cfg.power_budget
    g_a = p_budget * norm2_a / cfg.noise_user
    g_b = p_budget * norm2_b / cfg.noise_eve
    g_p = p_budget * norm2_perp / cfg.noise_eve
    # lam^2 - (e + r) lam + (1 + g_a)/(1 + g_b), discriminant d^2 + r (2e + r).
    e = (2.0 + g_a + g_b) / (1.0 + g_b)
    d = (g_a - g_b) / (1.0 + g_b)
    r = g_a * (g_p / (1.0 + g_b))
    m = max(e, r)
    return 0.5 * (e + r + m * math.sqrt((d / m) ** 2 + (r / m) * (2.0 * e / m + r / m)))


def _pencil_rate(a: np.ndarray, b: np.ndarray, cfg: SystemConfig) -> float:
    """The rate `gevd_oracle` reaches on (a, b), or on (conj a, conj b), from
    their Gram alone. ||b||^2 - |b^H a|^2/||a||^2 cancels the digits of
    ||b||^2/||b_p||^2: below 1e-2 ||b||^2, ||b_p||^2 comes from `_split`."""
    norm2_a = float(np.vdot(a, a).real)
    if norm2_a == 0.0:
        return 0.0
    norm2_b = float(np.vdot(b, b).real)
    norm2_perp = norm2_b - abs(complex(np.vdot(b, a))) ** 2 / norm2_a
    if norm2_perp < 1e-2 * norm2_b:
        norm2_perp = _split(a, b)[4]
    lam = _top_root(norm2_a, norm2_b, norm2_perp, cfg)
    return math.log2(lam) if lam > 1.0 else 0.0


def gevd_oracle(a: np.ndarray, b: np.ndarray, cfg: SystemConfig):
    """Closed-form global optimum of the fixed-surface beamforming problem.

    The best ratio (1 + |a^H w|^2/s2) / (1 + |b^H w|^2/s2e) over the power
    ball equals the largest generalized eigenvalue of the pencil
    (I + (P/s2) a a^H, I + (P/s2e) b b^H) on span{a, b} (outside the span
    both matrices act as the identity). With g_a = P||a||^2/s2,
    g_b = P||b||^2/s2e and g_p = P||b_p||^2/s2e for the part b_p of b
    orthogonal to a, the two eigenvalues are the roots of

        lam^2 (1 + g_b) - lam (2 + g_a + g_b + g_a g_p) + (1 + g_a) = 0,

    whose discriminant is (g_a - g_b)^2 + g_a g_p (2 (2 + g_a + g_b) + g_a g_p),
    a sum of non-negative terms. `_top_root` evaluates the larger root from
    it over 1 + g_b, scaled by its largest term, so no intermediate
    overflows even at noise powers of 1e-300 W. The principal eigenvector,
    divided through by lam P/s2e, is

        u = ((1 - 1/lam) s2e/P + ||b_p||^2) a - (b^H a) b_p,

    free of cancellation. Returns (w, rate) with w = sqrt(P) u/||u||, or the
    zero beamformer with rate 0 when not transmitting is optimal (lam <= 1,
    or the rate w achieves is not positive because lam exceeds 1 only by
    rounding). b counts as parallel to a (b_p = 0) by the threshold of
    `_split`, which the SCA route shares.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    norm2_a, b_dot_a, b_perp, norm2_b, norm2_perp = _split(a, b)
    lam = _top_root(norm2_a, norm2_b, norm2_perp, cfg) if norm2_a > 0.0 else 1.0
    if lam <= 1.0:
        return np.zeros(len(a), dtype=complex), 0.0
    p_budget = cfg.power_budget
    kappa = (1.0 - 1.0 / lam) * cfg.noise_eve / p_budget
    # Both coefficients scale as |channel|^2: divide by the larger one, so
    # that ||u|| neither overflows nor underflows.
    coef_a = kappa + norm2_perp
    top = max(coef_a, abs(b_dot_a))
    u = (coef_a / top) * a - (b_dot_a / top) * b_perp
    scale = math.sqrt(p_budget) / np.linalg.norm(u)
    w = scale * u
    # b^H u = (kappa/top) b^H a exactly. One correction along b puts the
    # computed leakage back on that value, to rounding; it sets the rate when
    # the eavesdropper is all but nulled (SNRs near 1e90 and beyond).
    if norm2_b > 0.0:
        w -= ((np.vdot(b, w) - scale * (kappa / top) * b_dot_a) / norm2_b) * b
    rate = _pair_gap(a, b, w, cfg)
    if rate <= 0.0:
        return np.zeros(len(a), dtype=complex), 0.0
    return w, rate

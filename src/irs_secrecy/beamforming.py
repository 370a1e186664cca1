"""Transmit beamformer optimization for fixed surface state.

Once the phases and on/off pattern are frozen, the whole problem is driven by
the effective pair (a, b), two complex arrays of length N_t that every entry
point takes as its first two arguments: maximize log2((1 + |a^H w|^2 / s2) /
(1 + |b^H w|^2 / s2e)) subject to ||w||^2 <= P. Two routes are provided:

* sca_solve      -- successive convex approximation: linearize the
                    eavesdropper exponential at a moving anchor and solve
                    each convex subproblem exactly for the beamformer w.
* gevd_oracle    -- closed-form global optimum: the larger root of the
                    quadratic whose roots are the generalized eigenvalues
                    of the pencil (I + (P/s2) a a^H, I + (P/s2e) b b^H) on
                    span{a, b}, and its eigenvector in closed form; used to
                    certify sca_solve and by the joint phase refinement.

Because a a^H and b b^H are rank one, every optimal beamformer lives in
span{a, b}. Both routes work on the same split of b into its part along a and
the part b_p orthogonal to a (`_split`): the closed form reads its norms, and
every SCA subproblem is solved exactly by a search over one angle in the
coordinates of the orthonormal basis (a/||a||, b_p/||b_p||).
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import LN2, SystemConfig, _pair_gap

__all__ = [
    "ScaIterate",
    "sca_subproblem",
    "sca_solve",
    "gevd_oracle",
]

LOG2E = 1.0 / LN2


@dataclass(frozen=True)
class ScaIterate:
    """One convex-subproblem solution: the beamformer plus auxiliary exponents.

    w satisfies ||w||^2 <= power budget; p_aux and q_aux satisfy
    exp(p_aux) = 1 + |a^H w|^2/s2 and the linearized eavesdropper constraint
    at the anchor q_anchor holds with equality.
    """

    w: np.ndarray
    p_aux: float
    q_aux: float
    q_anchor: float

    @property
    def objective(self) -> float:
        """Subproblem objective (p - q) * log2(e), in bits."""
        return (self.p_aux - self.q_aux) * LOG2E


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


def sca_subproblem(a: np.ndarray, b: np.ndarray, cfg: SystemConfig,
                   q_anchor: float) -> ScaIterate:
    """Solve one convex subproblem exactly.

    Maximizes (p - q) log2(e) subject to 1 + |a^H w|^2/s2 >= e^p, the
    linearized eavesdropper bound 1 + |b^H w|^2/s2e <= e^qa (1 + q - qa) and
    ||w||^2 <= P. At the optimum both rate constraints bind, so the problem
    reduces to maximizing ln(1 + tA/s2) - c tB with tA = |a^H w|^2,
    tB = |b^H w|^2 and c = e^{-qa}/s2e. As a function of W = w w^H this is
    concave, and its optimum is rank one inside span{a, b} (Huang & Palomar,
    IEEE TSP 2010).

    One angle spans every candidate. In the basis (a/||a||, b_p/||b_p||),
    a = (||a||, 0) and, up to the phase of b^H a, b = (b1, b2) with
    b1 = |b^H a|/||a|| and b2 = ||b_p||. At a given user gain the best use of
    the remaining power is to cancel leakage, so the optimum is
    w = sqrt(P) (cos t, -sin t e^{i arg(b^H a)}) with t in [0, atan2(b1, b2)]:
    user gain P ||a||^2 cos^2 t, leakage P (b1 cos t - b2 sin t)^2, which is
    nulled at the upper end. With b2 = 0 the sin t part is power left unused,
    so ||w||^2 = P cos^2 t covers every power level. The least leakage at a
    given user gain is convex in that gain, so the objective is concave in
    the gain, which falls monotonically in t: its slope in t changes sign
    once, and sixty halvings of the interval find the root.
    """
    if not np.isfinite(q_anchor):
        raise ValueError("q_anchor must be finite")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    sigma2, sigma2_e = cfg.noise_user, cfg.noise_eve
    p_budget = cfg.power_budget

    norm2_a, b_dot_a, b_perp, _, norm2_perp = _split(a, b)

    w = np.zeros(len(a), dtype=complex)
    if norm2_a > 0.0:
        norm_a = math.sqrt(norm2_a)
        b1 = abs(b_dot_a) / norm_a
        b2 = math.sqrt(norm2_perp)
        gain = p_budget * norm2_a / sigma2
        c_p = math.exp(-q_anchor) * p_budget / sigma2_e
        lo, hi = 0.0, math.atan2(b1, b2)
        for _ in range(60):
            t = 0.5 * (lo + hi)
            cos_t, sin_t = math.cos(t), math.sin(t)
            # Half the objective's slope in t is the left side minus the right.
            if (c_p * (b1 * cos_t - b2 * sin_t) * (b1 * sin_t + b2 * cos_t)
                    > gain * sin_t * cos_t / (1.0 + gain * cos_t * cos_t)):
                lo = t
            else:
                hi = t
        root_p = math.sqrt(p_budget)
        w = (root_p * math.cos(lo) / norm_a) * a
        # With b1 = 0 the interval is [0, 0] and the phase of b^H a undefined.
        if b1 > 0.0 and b2 > 0.0:
            w -= (root_p * math.sin(lo) / (b2 * abs(b_dot_a)) * b_dot_a) * b_perp

    t_a = abs(np.vdot(a, w)) ** 2
    t_b = abs(np.vdot(b, w)) ** 2
    p_aux = math.log1p(t_a / sigma2)
    q_aux = q_anchor - 1.0 + (1.0 + t_b / sigma2_e) * math.exp(-q_anchor)
    return ScaIterate(w=w, p_aux=p_aux, q_aux=q_aux, q_anchor=q_anchor)


def sca_solve(a: np.ndarray, b: np.ndarray, cfg: SystemConfig):
    """Run the successive convex approximation loop.

    Starting from the full-power matched filter w0 = sqrt(P) a/||a||, anchor
    the eavesdropper linearization at the current q, solve the convex
    subproblem exactly, and move the anchor to the new optimum. The
    subproblem objective sequence is non-decreasing; the loop stops once
    successive values change by less than 1e-6, or after 50 subproblems.

    Returns (w, trace, converged) where w is the last subproblem's beamformer
    with ||w||^2 <= P and trace holds the per-iteration objectives. On budget
    exhaustion the best (last) iterate is returned with converged=False. As
    in gevd_oracle, a w whose rate is not positive is replaced by the zero
    beamformer (this happens when b is parallel to a and stronger: the loop
    then crawls and can stop at a negative rate).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p_budget = cfg.power_budget
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        return np.zeros(len(a), dtype=complex), np.zeros(0), True

    w0 = math.sqrt(p_budget) * a / norm_a
    q_anchor = math.log1p(abs(np.vdot(b, w0)) ** 2 / cfg.noise_eve)
    trace = []
    prev = None
    converged = False
    iterate = None
    for _ in range(50):
        iterate = sca_subproblem(a, b, cfg, q_anchor)
        obj = iterate.objective
        trace.append(obj)
        if prev is not None and abs(obj - prev) < 1e-6:
            converged = True
            break
        prev = obj
        q_anchor = iterate.q_aux

    w = iterate.w
    if _pair_gap(a, b, w, cfg) <= 0.0:
        w = np.zeros(len(a), dtype=complex)
    return w, np.asarray(trace), converged


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
    if norm2_a == 0.0:
        return np.zeros(len(a), dtype=complex), 0.0
    lam = _top_root(norm2_a, norm2_b, norm2_perp, cfg)
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

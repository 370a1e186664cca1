"""Transmit beamformer optimization for fixed surface state.

Once the phases and on/off pattern are frozen, the whole problem is driven by
the effective pair (a, b): maximize log2((1 + |a^H w|^2 / s2) /
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
every SCA subproblem is solved exactly in the coordinates of the orthonormal
basis (a/||a||, b_p/||b_p||), a 2x2 reduced matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import LN2, EffectivePair, SystemConfig, gain_gap

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


def _top_eigpair_2x2(h11: float, h12: complex, h22: float):
    """Largest eigenvalue and unit eigenvector (a pair of Python complex
    numbers) of [[h11, h12], [h12*, h22]]."""
    mean = 0.5 * (h11 + h22)
    diff = 0.5 * (h11 - h22)
    rad = math.hypot(diff, abs(h12))
    lam = mean + rad
    scale = abs(h11) + abs(h22) + abs(h12)
    if rad <= 1e-15 * max(scale, 1e-300):
        return lam, (1.0 + 0.0j, 0.0j)
    norm1 = math.hypot(abs(h12), lam - h11)
    norm2 = math.hypot(lam - h22, abs(h12))
    if norm1 >= norm2:
        return lam, (h12 / norm1, (lam - h11) / norm1 + 0.0j)
    return lam, ((lam - h22) / norm2 + 0.0j, h12.conjugate() / norm2)


def _best_power(alpha: float, beta: float, sigma2: float, c_eve: float,
                p_max: float) -> float:
    """argmax over s in [0, p_max] of ln(1 + s*alpha/sigma2) - c_eve*beta*s."""
    if alpha <= 0.0:
        return 0.0
    slope = c_eve * beta
    if slope <= 0.0:
        return p_max
    s = 1.0 / slope - sigma2 / alpha
    return min(max(s, 0.0), p_max)


def sca_subproblem(eff: EffectivePair, cfg: SystemConfig,
                   q_anchor: float) -> ScaIterate:
    """Solve one convex subproblem exactly.

    Maximizes (p - q) log2(e) subject to 1 + |a^H w|^2/s2 >= e^p, the
    linearized eavesdropper bound 1 + |b^H w|^2/s2e <= e^qa (1 + q - qa) and
    ||w||^2 <= P. At the optimum both rate constraints bind, so the problem
    reduces to maximizing ln(1 + tA/s2) - e^{-qa} tB / s2e with
    tA = |a^H w|^2, tB = |b^H w|^2. As a function of W = w w^H this is
    concave, and its optimum is rank one inside span{a, b}: the direction is
    the top eigenvector of a a^H / (s2 + tA) - c b b^H at the (unique)
    consistent tA, found by bisection, and the power along it has a closed
    form.
    """
    a = np.asarray(eff.eff_user, dtype=complex)
    b = np.asarray(eff.eff_eve, dtype=complex)
    return _subproblem(a, b, _split(a, b), cfg, q_anchor)


def _subproblem(a, b, split, cfg: SystemConfig, q_anchor: float) -> ScaIterate:
    """sca_subproblem on the arrays a, b, given their `_split`."""
    if not np.isfinite(q_anchor):
        raise ValueError("q_anchor must be finite")
    sigma2, sigma2_e = cfg.noise_user, cfg.noise_eve
    p_budget = cfg.power_budget
    c_eve = math.exp(-q_anchor) / sigma2_e

    norm2_a, b_dot_a, b_perp, _, norm2_perp = split

    w = np.zeros(len(a), dtype=complex)
    if norm2_a > 0.0:
        # Coordinates in the basis (a/||a||, b_p/||b_p||): a = (||a||, 0) and
        # b = (b1, b2) = (conj(b^H a)/||a||, ||b_p||); the span is
        # one-dimensional when b_p = 0.
        norm_a = math.sqrt(norm2_a)
        b1 = b_dot_a.conjugate() / norm_a
        b2 = math.sqrt(norm2_perp)
        bb11, bb12 = abs(b1) ** 2, b1 * b2

        def top_dir(t_a):
            # Top eigenvector of a a^H / (s2 + t_a) - c b b^H.
            rho = 1.0 / (sigma2 + t_a)
            h11 = rho * norm2_a - c_eve * bb11
            if b2 == 0.0:
                return h11, (1.0 + 0.0j, 0.0j)
            return _top_eigpair_2x2(h11, -c_eve * bb12, -c_eve * norm2_perp)

        def signal(u):
            # |a^H u|^2
            return norm2_a * abs(u[0]) ** 2

        # Fixed point of t = P |a^H u(t)|^2: the signal power seen through the
        # optimal direction. |a^H u(t)|^2 is non-increasing in t, so bisect.
        t_hi = p_budget * norm2_a
        lam_hi, u = top_dir(t_hi)
        gain_hi = p_budget * signal(u) if lam_hi > 0.0 else 0.0
        if gain_hi < t_hi:
            lo, hi = 0.0, t_hi
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                lam, u = top_dir(mid)
                gain = p_budget * signal(u) if lam > 0.0 else 0.0
                if gain >= mid:
                    lo = mid
                else:
                    hi = mid

        alpha = signal(u)
        beta = abs(b1.conjugate() * u[0] + b2 * u[1]) ** 2
        s = _best_power(alpha, beta, sigma2, c_eve, p_budget)
        if s > 0.0:
            # Put w exactly on ||w||^2 = s and read the signal powers off w
            # itself.
            v = (u[0] / norm_a) * a
            if b2 > 0.0:
                v = v + (u[1] / b2) * b_perp
            w = math.sqrt(s) / np.linalg.norm(v) * v

    t_a = abs(np.vdot(a, w)) ** 2
    t_b = abs(np.vdot(b, w)) ** 2
    p_aux = math.log1p(t_a / sigma2)
    q_aux = q_anchor - 1.0 + (1.0 + t_b / sigma2_e) * math.exp(-q_anchor)
    return ScaIterate(w=w, p_aux=p_aux, q_aux=q_aux, q_anchor=q_anchor)


def _pair_gap(eff: EffectivePair, w: np.ndarray, cfg: SystemConfig) -> float:
    """Unclamped rate difference achieved by w on the effective pair."""
    return gain_gap(abs(np.vdot(eff.eff_user, w)) ** 2,
                    abs(np.vdot(eff.eff_eve, w)) ** 2, cfg)


def sca_solve(eff: EffectivePair, cfg: SystemConfig):
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
    a = np.asarray(eff.eff_user, dtype=complex)
    b = np.asarray(eff.eff_eve, dtype=complex)
    p_budget = cfg.power_budget
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        return np.zeros(len(a), dtype=complex), np.zeros(0), True

    w0 = math.sqrt(p_budget) * a / norm_a
    q_anchor = math.log1p(abs(np.vdot(b, w0)) ** 2 / cfg.noise_eve)
    split = _split(a, b)
    trace = []
    prev = None
    converged = False
    iterate = None
    for _ in range(50):
        iterate = _subproblem(a, b, split, cfg, q_anchor)
        obj = iterate.objective
        trace.append(obj)
        if prev is not None and abs(obj - prev) < 1e-6:
            converged = True
            break
        prev = obj
        q_anchor = iterate.q_aux

    w = iterate.w
    if _pair_gap(eff, w, cfg) <= 0.0:
        w = np.zeros(len(a), dtype=complex)
    return w, np.asarray(trace), converged


def gevd_oracle(eff: EffectivePair, cfg: SystemConfig):
    """Closed-form global optimum of the fixed-surface beamforming problem.

    The best ratio (1 + |a^H w|^2/s2) / (1 + |b^H w|^2/s2e) over the power
    ball equals the largest generalized eigenvalue of the pencil
    (I + (P/s2) a a^H, I + (P/s2e) b b^H) on span{a, b} (outside the span
    both matrices act as the identity). With g_a = P||a||^2/s2,
    g_b = P||b||^2/s2e and g_p = P||b_p||^2/s2e for the part b_p of b
    orthogonal to a, the two eigenvalues are the roots of

        lam^2 (1 + g_b) - lam (2 + g_a + g_b + g_a g_p) + (1 + g_a) = 0,

    whose discriminant is (g_a - g_b)^2 + g_a g_p (2 (2 + g_a + g_b) + g_a g_p),
    a sum of non-negative terms. The larger root is evaluated from that sum
    after dividing through by 1 + g_b and scaling by its largest term, so no
    intermediate overflows even at noise powers of 1e-300 W. The principal
    eigenvector, divided through by lam P/s2e, is

        u = ((1 - 1/lam) s2e/P + ||b_p||^2) a - (b^H a) b_p,

    free of cancellation. Returns (w, rate) with w = sqrt(P) u/||u||, or the
    zero beamformer with rate 0 when not transmitting is optimal (lam <= 1,
    or the rate w achieves is not positive because lam exceeds 1 only by
    rounding). b counts as parallel to a (b_p = 0) by the threshold of
    `_split`, which the SCA route shares.
    """
    a = np.asarray(eff.eff_user, dtype=complex)
    b = np.asarray(eff.eff_eve, dtype=complex)
    zero = np.zeros(len(a), dtype=complex)
    norm2_a, b_dot_a, b_perp, norm2_b, norm2_perp = _split(a, b)
    if norm2_a == 0.0:
        return zero, 0.0
    p_budget = cfg.power_budget
    g_a = p_budget * norm2_a / cfg.noise_user
    g_b = p_budget * norm2_b / cfg.noise_eve
    g_p = p_budget * norm2_perp / cfg.noise_eve
    # Coefficients over 1 + g_b: lam^2 - (e + r) lam + (1 + g_a)/(1 + g_b),
    # discriminant d^2 + r (2e + r).
    e = (2.0 + g_a + g_b) / (1.0 + g_b)
    d = (g_a - g_b) / (1.0 + g_b)
    r = g_a * (g_p / (1.0 + g_b))
    m = max(e, r)
    lam = 0.5 * (e + r + m * math.sqrt((d / m) ** 2 + (r / m) * (2.0 * e / m + r / m)))
    if lam <= 1.0:
        return zero, 0.0
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
    rate = _pair_gap(eff, w, cfg)
    if rate <= 0.0:
        return zero, 0.0
    return w, rate

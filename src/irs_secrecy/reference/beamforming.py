"""Successive convex approximation, the paper's beamformer route, certified
by the closed form `beamforming.gevd_oracle`: linearize the eavesdropper
exponential at a moving anchor and solve each convex subproblem exactly, by
a search over one angle in the coordinates of the orthonormal basis
(a/||a||, b_p/||b_p||), read from the closed form's Gram (`beamforming._gram`).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..beamforming import _gram
from ..model import LN2, SystemConfig, _pair_gap

__all__ = ["ScaIterate", "sca_subproblem", "sca_solve"]

LOG2E = 1.0 / LN2


@dataclass(frozen=True)
class ScaIterate:
    """One convex-subproblem solution: the beamformer plus auxiliary exponents.

    w satisfies ||w||^2 <= power budget; p_aux and q_aux satisfy
    exp(p_aux) = 1 + |a^H w|^2/s2 and the linearized eavesdropper constraint
    at the subproblem's anchor holds with equality.
    """

    w: np.ndarray
    p_aux: float
    q_aux: float

    @property
    def objective(self) -> float:
        """Subproblem objective (p - q) * log2(e), in bits."""
        return (self.p_aux - self.q_aux) * LOG2E


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

    norm2_a, b_dot_a, _, norm2_perp, b_perp = _gram(a, b)

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
            if b_perp is None:  # outside the Gram's guard: <= 2 digits cancel
                b_perp = b - (b_dot_a.conjugate() / norm2_a) * a
            w -= (root_p * math.sin(lo) / (b2 * abs(b_dot_a)) * b_dot_a) * b_perp

    t_a = abs(np.vdot(a, w)) ** 2
    t_b = abs(np.vdot(b, w)) ** 2
    p_aux = math.log1p(t_a / sigma2)
    q_aux = q_anchor - 1.0 + (1.0 + t_b / sigma2_e) * math.exp(-q_anchor)
    return ScaIterate(w=w, p_aux=p_aux, q_aux=q_aux)


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
    for _ in range(50):
        iterate = sca_subproblem(a, b, cfg, q_anchor)
        trace.append(iterate.objective)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < 1e-6:
            converged = True
            break
        q_anchor = iterate.q_aux
    else:
        converged = False

    w = iterate.w
    if _pair_gap(a, b, w, cfg) <= 0.0:
        w = np.zeros(len(a), dtype=complex)
    return w, np.asarray(trace), converged

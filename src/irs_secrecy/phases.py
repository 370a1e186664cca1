"""Unit-modulus phase optimization by Riemannian quasi-Newton ascent.

For fixed beamformer and on/off pattern the objective reduces to two complex
amplitudes, u = sum_k theta_k c_k (user) and e = sum_k theta_k d_k
(eavesdropper), summed over the switched-on elements k, with c = R_u w and
d = R_e w for the cascade rows R_u, R_e of the ChannelSet. The unclamped rate
difference `model.gain_gap(|u|^2, |e|^2)` is ascended over the product of
unit circles by L-BFGS in the angle coordinates phi, theta = exp(i phi): the
product of circles is then a flat torus, where the exponential map is exact
and parallel transport is the identity, so plain L-BFGS is Riemannian
L-BFGS (Absil, Mahony & Sepulchre 2008, ch. 8; Huang, Gallivan & Absil
2015). The inverse-Hessian product uses the compact form of Byrd, Nocedal &
Schnabel (1994), whose small matrices gain one row and column per curvature
pair. Steps pass an Armijo backtracking test. Switched-off surfaces
have exactly zero gradient and their phases are held frozen. The gradient is
the Wirtinger gradient g alone; the angle gradient 2 Im(g conj(theta)) is the
Riemannian gradient in angle coordinates.

One ascent engine, with one stopping rule (take no step predicted to gain
under TOL bits), serves two value functions: `reference.phases` ascends the
objective above with the beamformer held fixed, and the joint refinement in
`ao` (the AO round's phase block) ascends its envelope over the closed-form
beamformer. Both hand the engine evaluate and gradient functions; it takes
gradients at accepted points only and returns the last such point.
"""

import numpy as np

from .model import LN2

__all__ = ["ARMIJO", "MAX_ITER", "TOL", "MEMORY", "FIRST_STEP"]

ARMIJO = 1e-4
MAX_ITER = 2000
TOL = 1e-12
MEMORY = 8          # L-BFGS curvature pairs
FIRST_STEP = 0.1    # largest angle move (rad) of a step without curvature pairs


def _wirtinger_gradient(theta, c, d, cfg):
    """Wirtinger gradient g = conj(k_u c - k_e d), k_u = conj(u) / (ln 2
    (s2 + |u|^2)) for u = theta . c and k_e likewise."""
    u = complex(theta @ c)
    e = complex(theta @ d)
    k_u = u.conjugate() / (LN2 * (cfg.noise_user + abs(u) ** 2))
    k_e = e.conjugate() / (LN2 * (cfg.noise_eve + abs(e) ** 2))
    return np.conj(k_u * c - k_e * d)


class _Memory:
    """The last MEMORY curvature pairs (s, y) in the compact form of Byrd,
    Nocedal & Schnabel (1994). The k-th pair kept lives in slot k mod
    MEMORY: a row of S and of Y (stacked as z = [S; Y]), and a row and
    column of R^-1, of the Gram matrix Y Y^T and of d = diag(S Y^T), where R
    is the upper triangle of S Y^T in age order (R_ij = s_i.y_j for pair i
    no newer than pair j). Empty slots hold zeros, so they add nothing to
    any product. A pair writes its slot's row and column, after zeroing the
    oldest pair's there at capacity: the oldest pair leads R's triangle, so
    R^-1 without its row and column is the inverse of R without that pair.
    """

    def __init__(self, n):
        self.count = 0
        self.z = np.zeros((2 * MEMORY, n))
        self.r_inv = np.zeros((MEMORY, MEMORY))
        self.yy = np.zeros((MEMORY, MEMORY))
        self.d = np.zeros(MEMORY)
        self.gamma = 0.0    # s.y / y.y of the newest pair

    def __len__(self):
        return min(self.count, MEMORY)

    def add(self, s, y, sy):
        """Keep the pair (s, y), sy = s.y > 0, in place of the oldest at
        capacity."""
        k = self.count % MEMORY
        self.count += 1
        self.z[k], self.z[MEMORY + k] = s, y
        zy = self.z @ y     # s_i.y, then y_i.y
        self.r_inv[k] = self.r_inv[:, k] = 0.0
        column = self.r_inv @ zy[:MEMORY] * (-1.0 / sy)
        column[k] = 1.0 / sy
        self.r_inv[:, k] = column
        self.yy[k] = self.yy[:, k] = zy[MEMORY:]
        self.d[k] = sy
        self.gamma = sy / zy[MEMORY + k]


def _lbfgs_direction(r, memory):
    """Product H r of the angle gradient r with the L-BFGS inverse Hessian of
    the memory's pairs from H0 = gamma I, in compact form:
    H r = gamma r + S^T t - gamma Y^T q, with q = R^-1 S r and
    t = R^-T ((D + gamma Y Y^T) q - gamma Y r). With no pairs, r scaled by
    FIRST_STEP / max|r|."""
    if not memory:
        return r * (FIRST_STEP / np.max(np.abs(r)))
    gamma = memory.gamma
    sr_yr = memory.z @ r
    q = memory.r_inv @ sr_yr[:MEMORY]
    t = (memory.d * q + gamma * (memory.yy @ q - sr_yr[MEMORY:])) @ memory.r_inv
    return gamma * r + np.concatenate((t, -gamma * q)) @ memory.z


def _riemannian_ascent(theta, evaluate, gradient):
    """L-BFGS ascent on the product of circles, in angle coordinates.

    evaluate(theta) -> (value, state) is called at every trial point;
    gradient(theta, state) -> Wirtinger gradient g at the start and at
    accepted points. The angle gradient is r = 2 Im(g conj(theta)); the
    direction is p = H r from the last MEMORY curvature pairs (s = accepted
    angle step, y = r_prev - r, kept only when s.y > 0, so H stays positive
    definite). With no pairs p is r scaled to move the largest angle by
    FIRST_STEP radians, whatever the size of r. Trial points theta exp(i t p)
    start at t = 1 and halve until the increase passes the Armijo test along
    the slope r.p, so the trace is non-decreasing. Every stop but a failed
    backtracking search comes after the gradient and before any trial point:
    r exactly zero (or empty), MAX_ITER steps, or a slope r.p (the full
    step's first-order gain) below TOL bits. Returns (theta, trace); the
    last gradient call received theta.
    """
    value, state = evaluate(theta)
    trace = [value]
    memory = _Memory(len(theta))
    r_prev = None
    while True:
        r = 2.0 * np.imag(gradient(theta, state) * np.conj(theta))
        if not r.any() or len(trace) > MAX_ITER:
            break
        if r_prev is not None:
            s, y = step * direction, r_prev - r
            sy = float(s @ y)
            if sy > 0.0:
                memory.add(s, y, sy)
        direction = _lbfgs_direction(r, memory)
        slope = float(r @ direction)
        if slope < TOL:
            break
        r_prev = r
        step = 1.0
        while step > 1e-18:  # not tied to TOL: that crawls MAX_ITER steps at tiny noise
            trial = theta * np.exp(1j * step * direction)
            trial_value, trial_state = evaluate(trial)
            if trial_value >= value + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        theta, value, state = trial, trial_value, trial_state
        trace.append(value)
    return theta, np.asarray(trace)

"""Unit-modulus phase optimization by Riemannian quasi-Newton ascent.

For fixed beamformer and on/off pattern the objective reduces to two complex
amplitudes, u = sum_k theta_k c_k (user) and e = sum_k theta_k d_k
(eavesdropper), summed over the switched-on elements k, with c = R_u w and
d = R_e w for the cascade rows R_u, R_e of the ChannelSet. The unclamped rate
difference `model.gain_gap(|u|^2, |e|^2)` is ascended over the product of
unit circles by L-BFGS in the angle coordinates phi, theta = exp(i phi): the
product of circles is then a flat torus, where the exponential map is exact
and parallel transport is the identity, so the plain two-loop recursion is
Riemannian L-BFGS (Absil, Mahony & Sepulchre 2008, ch. 8; Huang, Gallivan &
Absil 2015). Steps pass an Armijo backtracking test. Switched-off surfaces
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

from collections import deque

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


def _lbfgs_direction(r, pairs):
    """Two-loop product H r of the angle gradient r with the L-BFGS inverse
    Hessian of the pairs (s, y, 1 / s.y), oldest first, scaled by H0 =
    s.y / y.y of the newest pair, or by FIRST_STEP / max|r| with no pairs."""
    q = r.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)   # Python floats: numpy scalars cost more
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    else:
        q *= FIRST_STEP / np.max(np.abs(r))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


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
    pairs = deque(maxlen=MEMORY)
    r_prev = None
    while True:
        r = 2.0 * np.imag(gradient(theta, state) * np.conj(theta))
        if not r.any() or len(trace) > MAX_ITER:
            break
        if r_prev is not None:
            s, y = step * direction, r_prev - r
            sy = float(s @ y)
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
        direction = _lbfgs_direction(r, pairs)
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

"""Unit-modulus phase optimization by Riemannian gradient ascent.

For fixed beamformer and on/off pattern the objective reduces to two complex
amplitudes, u = sum_k theta_k c_k (user) and e = sum_k theta_k d_k
(eavesdropper), summed over the switched-on elements k, with c = R_u w and
d = R_e w for the cascade rows R_u, R_e of the ChannelSet. The unclamped rate
difference `model.gain_gap(|u|^2, |e|^2)` is ascended over the product of
unit circles by Riemannian conjugate gradient: Wirtinger gradient, tangent
projection (also the transport), Polak-Ribiere+ directions, renormalization
as the retraction, Armijo backtracking. Switched-off surfaces have exactly
zero gradient and their phases are held frozen.

One ascent engine serves two value functions: `mo_ascend` ascends the
objective above with the beamformer held fixed, and the joint refinement in
`ao` (the AO round's phase block) ascends its envelope, re-matching the
beamformer at every trial point. Both hand the engine the per-element
amplitudes (c, d) at accepted points.
"""

from dataclasses import dataclass

import numpy as np

from .model import LN2, ChannelSet, SolutionState, SystemConfig, gain_gap

__all__ = [
    "PhaseGradient",
    "phase_objective",
    "phase_objective_gradient",
    "mo_ascend",
    "phase_grid_oracle",
]

GRID_MAX_ELEMENTS = 4
ARMIJO = 1e-4


@dataclass(frozen=True)
class PhaseGradient:
    """Euclidean Wirtinger gradient (w.r.t. conjugate phases) and its tangent
    projection onto the product of circles."""

    euclidean: np.ndarray
    riemannian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "euclidean", np.asarray(self.euclidean, dtype=complex))
        object.__setattr__(self, "riemannian", np.asarray(self.riemannian, dtype=complex))


def _active_stacks(ch: ChannelSet, sol: SolutionState):
    """Per-element amplitudes c, d of the switched-on elements, and their
    indices in the stacked phase vector."""
    act = np.flatnonzero(np.repeat(sol.onoff, ch.n_refl))
    return (ch.cascade_user[act] @ sol.beamformer,
            ch.cascade_eve[act] @ sol.beamformer, act)


def _objective(theta, c, d, cfg):
    return gain_gap(abs(np.sum(theta * c)) ** 2, abs(np.sum(theta * d)) ** 2, cfg)


def _transport(theta, v):
    """Tangent projection at theta, v - Re(v conj(theta)) theta."""
    return v - np.real(v * np.conj(theta)) * theta


def _tangent_gradient(theta, c, d, cfg):
    """Wirtinger gradient (1/ln 2) [u conj(c) / (s2 + |u|^2) -
    e conj(d) / (s2e + |e|^2)] at theta, and its tangent part
    g - Re(g conj(theta)) theta. Returns (euclidean, riemannian)."""
    u = np.sum(theta * c)
    e = np.sum(theta * d)
    euclidean = (1.0 / LN2) * (u * np.conj(c) / (cfg.noise_user + abs(u) ** 2)
                               - e * np.conj(d) / (cfg.noise_eve + abs(e) ** 2))
    return euclidean, _transport(theta, euclidean)


def _riemannian_ascent(theta, evaluate, amplitudes, cfg, max_iter, tol, patience):
    """Polak-Ribiere+ conjugate-gradient ascent on the product of circles.

    evaluate(theta) -> (value, state) is called at every trial point;
    amplitudes(state) -> (c, d) only at accepted points, for the gradient.
    The direction d = xi + beta P(d_prev), with xi the tangent gradient, P
    the transport `_transport` and beta = max(0, Re<xi - P(xi_prev), xi> /
    ||xi_prev||^2), restarts at xi whenever Re<d, xi> <= 0. Trial steps are
    retracted by elementwise renormalization and accepted only on sufficient
    increase along the slope Re<d, xi> (Armijo), so the trace is
    non-decreasing. The step doubles after each accepted step and halves on
    each rejection. Stops once `patience` consecutive accepted steps improve
    by less than tol (a single small step can be an overshoot artifact of the
    step-size warm start), at a stationary point (||xi||^2 <= 1e-20 ||g||^2:
    a phase-invariant objective leaves a rounding-level tangent part xi of
    the gradient g), when backtracking fails, or at max_iter.
    Returns (theta, state, trace).
    """
    value, state = evaluate(theta)
    trace = [value]
    step = 1.0
    small_steps = 0
    xi_prev = direction = None
    for _ in range(max_iter):
        g, xi = _tangent_gradient(theta, *amplitudes(state), cfg)
        sq_norm = float(np.vdot(xi, xi).real)
        if sq_norm <= max(1e-20 * np.vdot(g, g).real, 1e-300):
            break
        slope = 0.0
        if direction is not None:
            beta = max(0.0, np.vdot(xi - _transport(theta, xi_prev), xi).real
                       / float(np.vdot(xi_prev, xi_prev).real))
            direction = xi + beta * _transport(theta, direction)
            slope = float(np.vdot(direction, xi).real)
        if slope <= 0.0:
            direction, slope = xi, sq_norm
        xi_prev = xi
        accepted = False
        while step > 1e-18:
            moved = theta + step * direction
            trial = moved / np.abs(moved)
            trial_value, trial_state = evaluate(trial)
            if trial_value >= value + ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        delta = trial_value - value
        theta, value, state = trial, trial_value, trial_state
        trace.append(value)
        step = min(step * 2.0, 1e6)
        small_steps = small_steps + 1 if delta < tol else 0
        if small_steps >= patience:
            break
    return theta, state, np.asarray(trace)


def phase_objective(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig,
                    phases: np.ndarray | None = None) -> float:
    """Unclamped rate difference at the given (or the solution's) phases."""
    c, d, act = _active_stacks(ch, sol)
    theta = sol.phases if phases is None else np.asarray(phases, dtype=complex)
    return _objective(theta[act], c, d, cfg)


def phase_objective_gradient(ch: ChannelSet, sol: SolutionState,
                             cfg: SystemConfig) -> PhaseGradient:
    """Wirtinger gradient of the phase objective and its tangent projection;
    both are zero on the switched-off surfaces."""
    c, d, act = _active_stacks(ch, sol)
    euclidean = np.zeros(len(sol.phases), dtype=complex)
    riemannian = np.zeros(len(sol.phases), dtype=complex)
    euclidean[act], riemannian[act] = _tangent_gradient(sol.phases[act], c, d, cfg)
    return PhaseGradient(euclidean=euclidean, riemannian=riemannian)


def mo_ascend(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig):
    """Ascend the phase objective with the beamformer fixed.

    Starts from sol.phases (must be unit modulus) and moves only the
    switched-on elements. Returns (phases, trace) with a non-decreasing
    trace of objective values.
    """
    c, d, act = _active_stacks(ch, sol)
    phases = np.array(sol.phases, dtype=complex)
    phases[act], _, trace = _riemannian_ascent(
        phases[act], lambda theta: (_objective(theta, c, d, cfg), None),
        lambda _: (c, d), cfg, max_iter=500, tol=1e-8, patience=3)
    return phases, trace


def phase_grid_oracle(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig,
                      resolution: int):
    """Exhaustive grid search over the active elements' phase angles.

    Only usable when at most four elements are active; all inactive phases
    stay frozen at their current values. Returns (phases, objective) for the
    best grid point on the [0, 2pi)^k lattice with `resolution` points per
    axis.
    """
    c, d, act = _active_stacks(ch, sol)
    k = len(act)
    if k > GRID_MAX_ELEMENTS:
        raise ValueError(f"grid oracle limited to {GRID_MAX_ELEMENTS} active elements")
    theta = np.array(sol.phases, dtype=complex)
    if k == 0:
        return theta, _objective(theta[act], c, d, cfg)

    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    ring = np.exp(1j * angles)
    u_grid = np.zeros((resolution,) * k, dtype=complex)
    e_grid = np.zeros((resolution,) * k, dtype=complex)
    for axis in range(k):
        shape = [1] * k
        shape[axis] = resolution
        u_grid = u_grid + c[axis] * ring.reshape(shape)
        e_grid = e_grid + d[axis] * ring.reshape(shape)
    values = (np.log1p(np.abs(u_grid) ** 2 / cfg.noise_user)
              - np.log1p(np.abs(e_grid) ** 2 / cfg.noise_eve)) / LN2
    flat_best = int(np.argmax(values))
    best_idx = np.unravel_index(flat_best, values.shape)
    theta[act] = ring[list(best_idx)]
    return theta, float(values[best_idx])

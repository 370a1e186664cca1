"""The fixed-beamformer phase ascent, the paper's manifold-optimization
block, on the engine of `irs_secrecy.phases`, and its exhaustive-grid oracle.
"""

import numpy as np

from ..model import LN2, ChannelSet, SolutionState, SystemConfig, gain_gap
from ..phases import _riemannian_ascent, _wirtinger_gradient

__all__ = ["phase_objective_gradient", "mo_ascend", "phase_grid_oracle"]

GRID_MAX_ELEMENTS = 4


def _active_stacks(ch: ChannelSet, sol: SolutionState):
    """Per-element amplitudes c, d of the switched-on elements, and their
    indices in the stacked phase vector."""
    act = np.flatnonzero(np.repeat(sol.onoff, ch.n_refl))
    return (ch.cascade_user[act] @ sol.beamformer,
            ch.cascade_eve[act] @ sol.beamformer, act)


def phase_objective_gradient(ch: ChannelSet, sol: SolutionState,
                             cfg: SystemConfig) -> np.ndarray:
    """Wirtinger gradient g of the phase objective (w.r.t. the conjugate
    phases), zero on the switched-off surfaces. The angle gradient is
    2 Im(g conj(theta)); at the closed-form beamformer of the phases it is
    also the gradient of the envelope max_w rate (Danskin)."""
    c, d, act = _active_stacks(ch, sol)
    g = np.zeros(len(sol.phases), dtype=complex)
    g[act] = _wirtinger_gradient(sol.phases[act], c, d, cfg)
    return g


def mo_ascend(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig):
    """Ascend the phase objective with the beamformer fixed.

    Starts from sol.phases (must be unit modulus) and moves only the
    switched-on elements. Returns (phases, trace) with a non-decreasing
    trace of objective values.
    """
    c, d, act = _active_stacks(ch, sol)
    phases = np.array(sol.phases, dtype=complex)
    phases[act], trace = _riemannian_ascent(
        phases[act],
        lambda theta: (gain_gap(abs(np.sum(theta * c)) ** 2,
                                abs(np.sum(theta * d)) ** 2, cfg), None),
        lambda theta, _: _wirtinger_gradient(theta, c, d, cfg))
    return phases, trace


def phase_grid_oracle(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig,
                      resolution: int):
    """Exhaustive grid search over the active elements' phase angles.

    Only usable when at most four elements are active; all inactive phases
    stay frozen at their current values. Returns (phases, objective) for the
    best grid point on the [0, 2pi)^k lattice with `resolution` points per
    axis; with no active element that is the phases unchanged and 0.0.
    """
    c, d, act = _active_stacks(ch, sol)
    k = len(act)
    if k > GRID_MAX_ELEMENTS:
        raise ValueError(f"grid oracle limited to {GRID_MAX_ELEMENTS} active elements")
    theta = np.array(sol.phases, dtype=complex)
    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    ring = np.exp(1j * angles)
    axes = np.ix_(*[ring] * k)
    zero = np.zeros((resolution,) * k, dtype=complex)
    u_grid = sum((c_i * axis for c_i, axis in zip(c, axes)), zero)
    e_grid = sum((d_i * axis for d_i, axis in zip(d, axes)), zero)
    values = (np.log1p(np.abs(u_grid) ** 2 / cfg.noise_user)
              - np.log1p(np.abs(e_grid) ** 2 / cfg.noise_eve)) / LN2
    flat_best = int(np.argmax(values))
    best_idx = np.unravel_index(flat_best, values.shape)
    theta[act] = ring[list(best_idx)]
    return theta, float(values[best_idx])

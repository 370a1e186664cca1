"""Alternating optimization driver: beamformer -> on/off -> phases.

Each round runs the three block solvers in sequence, then a joint
phase/beamformer refinement. Every step's output is accepted only when the
true (unclamped) rate difference does not decrease, so the reported
secrecy-rate trace is non-decreasing by construction regardless of any wobble
inside the individual solvers.

The joint refinement exists because pure block cycling zigzags: the phase and
beamformer blocks trade diminishing gains along a coupled valley and can take
hundreds of rounds to settle. The refinement runs the phase block's ascent
engine (`phases._riemannian_ascent`) with a second value function, the
envelope objective: the beamformer is re-matched in closed form at every
trial point, and by Danskin's argument the fixed-beamformer phase gradient at
the matched beamformer is exactly the envelope gradient. That collapses the
tail into the round where it occurs. The cascade rows of the switched-on
elements are built once per call, so each trial point costs two
matrix-vector products plus the closed-form beamformer.
"""

import math
from dataclasses import replace

import numpy as np

from .beamforming import gevd_oracle, sca_solve
from .model import (ChannelSet, EffectivePair, SolutionState, SystemConfig,
                    effective_channels, rate_gap)
from .onoff import dinkelbach_solve, ratio_coefficients
from .phases import _riemannian_ascent, mo_ascend

__all__ = ["matched_filter", "user_aligned_state", "ao_solve"]


def matched_filter(ch: ChannelSet, cfg: SystemConfig,
                   phases: np.ndarray) -> np.ndarray:
    """Full-power matched filter to the effective user channel with every
    surface on at the given phases; all power on antenna 0 when that channel
    is zero."""
    a = np.conj(phases @ ch.cascade_user)
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        w = np.zeros(cfg.n_tx, dtype=complex)
        w[0] = math.sqrt(cfg.power_budget)
        return w
    return math.sqrt(cfg.power_budget) * a / norm_a


def user_aligned_state(ch: ChannelSet, cfg: SystemConfig) -> SolutionState:
    """Feasible warm start: all surfaces on, per-element phases aligned to the
    user cascade, matched-filter beamformer at full power.

    Alignment needs a provisional beamformer, so the construction is two-pass:
    matched filter under uniform phases, align the phases to it, then match
    the filter to the aligned effective channel.
    """
    w0 = matched_filter(ch, cfg, np.ones(cfg.n_irs * cfg.n_refl, dtype=complex))
    c = ch.cascade_user @ w0
    theta = np.where(np.abs(c) > 0.0, np.exp(-1j * np.angle(c)), 1.0 + 0.0j)
    return SolutionState(beamformer=matched_filter(ch, cfg, theta), phases=theta,
                         onoff=np.ones(cfg.n_irs, dtype=int))


def _joint_refine(ch: ChannelSet, cfg: SystemConfig, sol: SolutionState):
    """Ascend the phases on the envelope objective, re-matching the beamformer
    (closed form) at every trial point. Returns (phases, w, trace), with
    trace[-1] the rate difference that (phases, w) achieves.

    On the switched-on elements' cascade rows R_u, R_e the effective pair at
    phases theta is a = conj(theta @ R_u), b = conj(theta @ R_e), and the
    per-element amplitudes under w are c = R_u @ w, d = R_e @ w.
    """
    act = np.flatnonzero(np.repeat(sol.onoff, ch.n_refl))
    phases = np.array(sol.phases, dtype=complex)
    if len(act) == 0:
        return phases, sol.beamformer, np.array([rate_gap(ch, sol, cfg)])
    rows_u = ch.cascade_user[act]
    rows_e = ch.cascade_eve[act]

    def evaluate(theta):
        w, value = gevd_oracle(EffectivePair(eff_user=np.conj(theta @ rows_u),
                                             eff_eve=np.conj(theta @ rows_e)), cfg)
        return value, w

    phases[act], w, trace = _riemannian_ascent(
        phases[act], evaluate, lambda w: (rows_u @ w, rows_e @ w), cfg,
        max_iter=2000, tol=1e-9, patience=5)
    return phases, w, trace


def ao_solve(ch: ChannelSet, cfg: SystemConfig, max_rounds: int = 30,
             tol: float = 1e-5, beamformer: str = "sca"):
    """Cycle the block solvers until the secrecy rate stabilizes.

    beamformer selects the transmit-side solver ("sca" or "gevd"). Stops when
    a full round improves the rate by less than tol or after max_rounds,
    returning (solution, trace) with trace[k] the clamped secrecy rate after
    round k (entry 0 is the warm start). The best-so-far solution is returned
    on budget exhaustion.
    """
    if beamformer not in ("sca", "gevd"):
        raise ValueError(f"unknown beamformer {beamformer!r}")
    sol = user_aligned_state(ch, cfg)
    gap = rate_gap(ch, sol, cfg)
    trace = [max(0.0, gap)]

    def offer(**changes):
        # Monotone safeguard: keep the candidate only if the rate does not drop.
        nonlocal sol, gap
        cand = replace(sol, **changes)
        cand_gap = rate_gap(ch, cand, cfg)
        if cand_gap >= gap:
            sol, gap = cand, cand_gap

    for _ in range(max_rounds):
        eff = effective_channels(ch, sol)
        if beamformer == "sca":
            w_new, _, _ = sca_solve(eff, cfg)
        else:
            w_new, _ = gevd_oracle(eff, cfg)
        offer(beamformer=w_new)
        x_new, _ = dinkelbach_solve(ratio_coefficients(ch, sol), cfg)
        offer(onoff=x_new)
        offer(phases=mo_ascend(ch, sol, cfg)[0])
        theta_j, w_j, _ = _joint_refine(ch, cfg, sol)
        offer(phases=theta_j, beamformer=w_j)

        trace.append(max(0.0, gap))
        if trace[-1] - trace[-2] < tol:
            break
    return sol, np.asarray(trace)

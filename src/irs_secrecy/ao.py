"""Alternating optimization driver: on/off -> joint phase/beamformer refinement.

Each round runs the on/off block, then the joint refinement of the phases
and the beamformer. Every step's output is accepted only when the true
(unclamped) rate difference does not decrease, so the reported secrecy-rate
trace is non-decreasing by construction regardless of any wobble inside the
individual solvers. The refinement ascends the envelope max_w rate, whose
maximizer is the closed-form beamformer, so its result depends only on the
phases and the on/off pattern, and a beamformer block in the round would
feed nothing but the on/off block: the round has none.

The phases are refined jointly with the beamformer because pure block
cycling zigzags: the phase and beamformer blocks trade diminishing gains
along a coupled valley and can take hundreds of rounds to settle. The
refinement runs the L-BFGS ascent engine (`phases._riemannian_ascent`) on
the envelope; by Danskin's argument the fixed-beamformer phase gradient at
the matched beamformer is exactly the envelope gradient. A fixed-beamformer
phase pass (`mo_ascend`) before it would only move the refine's start. A
trial point costs one product with the switched-on cascade rows, three inner
products and a scalar root (`beamforming._pencil_rate`); the closed-form
beamformer is built at accepted points only, where the gradient needs it,
and the refine ends at the last, before any step worth < `phases.TOL` bits.
"""

import math
from dataclasses import replace

import numpy as np

# sca_solve and mo_ascend are bound but unused: the benchmark's tracer finds
# them here, and bench/test_bench.py::test_missing_function_is_reported_absent
# deletes ao.mo_ascend and expects no other name to be missing.
from .beamforming import _pencil_rate, gevd_oracle, sca_solve  # noqa: F401
from .model import (ChannelSet, SolutionState, SystemConfig, effective_channels,
                    rate_gap)
from .onoff import dinkelbach_solve, ratio_coefficients
from .phases import _riemannian_ascent, _wirtinger_gradient, mo_ascend  # noqa: F401

__all__ = ["matched_filter", "user_aligned_state", "ao_solve"]

MAX_ROUNDS = 30
ROUND_TOL = 1e-5


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
    """Ascend the phases on the envelope max_w rate(theta, w). Returns
    (phases, w, trace): w is the closed-form beamformer at phases (zero, with
    trace [0.0], when every surface is off), and trace[-1] the rate
    difference (phases, w) achieve (at SNRs near 1e90 the float64 leakage of
    w keeps it lower).

    On the switched-on elements' cascade rows R_u, R_e the effective pair at
    phases theta is a = conj(theta @ R_u), b = conj(theta @ R_e); w and
    c = R_u @ w, d = R_e @ w are built for the gradient, at accepted points.
    """
    act = np.flatnonzero(np.repeat(sol.onoff, ch.n_refl))
    n_tx, n_act = cfg.n_tx, len(act)
    rows = (ch.cascade_user[act], ch.cascade_eve[act])
    side, stack = np.hstack(rows), np.vstack(rows)
    w = None

    def evaluate(theta):
        conj_ab = theta @ side
        return _pencil_rate(conj_ab[:n_tx], conj_ab[n_tx:], cfg), conj_ab

    def gradient(theta, conj_ab):
        nonlocal w
        ab = np.conj(conj_ab)
        w = gevd_oracle(ab[:n_tx], ab[n_tx:], cfg)[0]
        cd = stack @ w
        return _wirtinger_gradient(theta, cd[:n_act], cd[n_act:], cfg)

    phases = np.array(sol.phases, dtype=complex)
    phases[act], trace = _riemannian_ascent(phases[act], evaluate, gradient)
    return phases, w, trace


def ao_solve(ch: ChannelSet, cfg: SystemConfig):
    """Cycle the block solvers until the secrecy rate stabilizes.

    The warm start's beamformer is first re-matched in closed form to its
    phases; each round then runs the on/off block and the joint refinement.
    Stops when a full round improves the rate by less than ROUND_TOL bits or
    after MAX_ROUNDS rounds, returning (solution, trace) with trace[k] the
    clamped secrecy rate after round k (entry 0 is the warm start). The
    best-so-far solution is returned on budget exhaustion.
    """
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

    offer(beamformer=gevd_oracle(*effective_channels(ch, sol), cfg)[0])
    for _ in range(MAX_ROUNDS):
        x_new, _ = dinkelbach_solve(*ratio_coefficients(ch, sol), cfg)
        offer(onoff=x_new)
        theta_j, w_j, _ = _joint_refine(ch, cfg, sol)
        offer(phases=theta_j, beamformer=w_j)

        trace.append(max(0.0, gap))
        if trace[-1] - trace[-2] < ROUND_TOL:
            break
    return sol, np.asarray(trace)

"""Alternating optimization driver: beamformer -> on/off -> phases.

Each round runs the three block solvers in sequence, then a joint
phase/beamformer refinement. Every step's output is accepted only when the
true (unclamped) rate difference does not decrease, so the reported
secrecy-rate trace is non-decreasing by construction regardless of any wobble
inside the individual solvers.

The joint refinement exists because pure block cycling zigzags: the phase and
beamformer blocks trade diminishing gains along a coupled valley and can take
hundreds of rounds to settle. Ascending the phases on the envelope objective
(beamformer re-matched in closed form after every accepted step; by Danskin's
argument the fixed-beamformer phase gradient is exactly the envelope
gradient) collapses that tail into the round where it occurs.
"""

import math
from dataclasses import replace

import numpy as np

from .beamforming import gevd_oracle, sca_solve
from .model import (ChannelSet, SolutionState, SystemConfig,
                    effective_channels, rate_gap)
from .onoff import dinkelbach_solve, ratio_coefficients
from .phases import mo_ascend

__all__ = ["user_aligned_state", "ao_solve"]

LN2 = math.log(2.0)


def user_aligned_state(ch: ChannelSet, cfg: SystemConfig) -> SolutionState:
    """Feasible warm start: all surfaces on, per-element phases aligned to the
    user cascade, matched-filter beamformer at full power.

    Alignment needs a provisional beamformer, so the construction is two-pass:
    matched filter under uniform phases, align the phases to it, then match
    the filter to the aligned effective channel.
    """
    n = cfg.n_irs * cfg.n_refl
    ones = np.ones(n, dtype=complex)
    x = np.ones(cfg.n_irs, dtype=int)
    sqrt_p = math.sqrt(cfg.power_budget)

    def mrt(phases):
        sol = SolutionState(beamformer=np.zeros(cfg.n_tx, dtype=complex),
                            phases=phases, onoff=x)
        a = effective_channels(ch, sol).eff_user
        norm_a = np.linalg.norm(a)
        if norm_a == 0.0:
            w = np.zeros(cfg.n_tx, dtype=complex)
            w[0] = sqrt_p
            return w
        return sqrt_p * a / norm_a

    w0 = mrt(ones)
    gw = np.einsum("lnt,t->ln", ch.g_ap_irs, w0)
    c = (np.conj(ch.h_irs_user) * gw).reshape(-1)
    theta = np.where(np.abs(c) > 0.0, np.exp(-1j * np.angle(c)), 1.0 + 0.0j)
    return SolutionState(beamformer=mrt(theta), phases=theta, onoff=x)


def _joint_refine(ch: ChannelSet, cfg: SystemConfig, sol: SolutionState,
                  max_iter: int = 2000, tol: float = 1e-9, patience: int = 5):
    """Ascend the phases on the envelope objective, re-matching the beamformer
    (closed form) after every accepted step. Returns (phases, w, value)."""
    x = sol.onoff
    active = np.repeat(x.astype(float), ch.n_refl)
    act_idx = np.flatnonzero(active > 0.0)
    theta = np.array(sol.phases, dtype=complex)
    if len(act_idx) == 0:
        return theta, sol.beamformer, rate_gap(ch, sol, cfg)

    def response(phases):
        cand = replace(sol, phases=phases)
        eff = effective_channels(ch, cand)
        w, _ = gevd_oracle(eff, cfg)
        gain_u = abs(np.vdot(eff.eff_user, w)) ** 2
        gain_e = abs(np.vdot(eff.eff_eve, w)) ** 2
        value = (math.log1p(gain_u / cfg.noise_user)
                 - math.log1p(gain_e / cfg.noise_eve)) / LN2
        return w, value

    w, value = response(theta)
    step = 1.0
    small_steps = 0
    for _ in range(max_iter):
        gw = np.einsum("lnt,t->ln", ch.g_ap_irs, w)
        c = (np.conj(ch.h_irs_user) * gw).reshape(-1)
        d = (np.conj(ch.g_irs_eve) * gw).reshape(-1)
        u = np.sum(active * theta * c)
        e = np.sum(active * theta * d)
        grad = active / LN2 * (u * np.conj(c) / (cfg.noise_user + abs(u) ** 2)
                               - e * np.conj(d) / (cfg.noise_eve + abs(e) ** 2))
        xi = grad - np.real(grad * np.conj(theta)) * theta
        sq_norm = float(np.sum(np.abs(xi) ** 2))
        if sq_norm <= 1e-300:
            break
        accepted = False
        while step > 1e-18:
            trial = theta.copy()
            moved = theta[act_idx] + step * xi[act_idx]
            trial[act_idx] = moved / np.abs(moved)
            w_trial, trial_value = response(trial)
            if trial_value >= value + 1e-4 * step * sq_norm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        delta = trial_value - value
        theta, w, value = trial, w_trial, trial_value
        step = min(step * 2.0, 1e6)
        small_steps = small_steps + 1 if delta < tol else 0
        if small_steps >= patience:
            break
    return theta, w, value


def ao_solve(ch: ChannelSet, cfg: SystemConfig, max_rounds: int = 30,
             tol: float = 1e-5, beamformer: str = "sca",
             rng: np.random.Generator | None = None):
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

    for _ in range(max_rounds):
        eff = effective_channels(ch, sol)
        if beamformer == "sca":
            w_new, _, _ = sca_solve(eff, cfg, rng=rng)
        else:
            w_new, _ = gevd_oracle(eff, cfg)
        cand = replace(sol, beamformer=w_new)
        cand_gap = rate_gap(ch, cand, cfg)
        if cand_gap >= gap:
            sol, gap = cand, cand_gap

        coef = ratio_coefficients(ch, sol)
        x_new, _ = dinkelbach_solve(coef, cfg)
        cand = replace(sol, onoff=x_new)
        cand_gap = rate_gap(ch, cand, cfg)
        if cand_gap >= gap:
            sol, gap = cand, cand_gap

        theta_new, _ = mo_ascend(ch, sol, cfg)
        cand = replace(sol, phases=theta_new)
        cand_gap = rate_gap(ch, cand, cfg)
        if cand_gap >= gap:
            sol, gap = cand, cand_gap

        theta_j, w_j, _ = _joint_refine(ch, cfg, sol)
        cand = replace(sol, phases=theta_j, beamformer=w_j)
        cand_gap = rate_gap(ch, cand, cfg)
        if cand_gap >= gap:
            sol, gap = cand, cand_gap

        trace.append(max(0.0, gap))
        if trace[-1] - trace[-2] < tol:
            break
    return sol, np.asarray(trace)

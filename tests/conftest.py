from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy.model import ChannelSet, SolutionState, SystemConfig, rate_gap


def desk_config(n_tx=4, n_refl=3, n_irs=2, noise_user=1.0, noise_eve=1.0,
                power=1.0, **kwargs) -> SystemConfig:
    """Unit-scale config for synthetic solver tests (no geometry involved)."""
    kwargs.setdefault("irs_positions", np.tile([0.0, 20.0, 20.0], (n_irs, 1)))
    return SystemConfig(
        n_tx=n_tx, n_refl=n_refl, n_irs=n_irs,
        noise_user=noise_user, noise_eve=noise_eve, power_budget=power,
        **kwargs)


def random_channels(rng, cfg, eve_scale=1.0) -> ChannelSet:
    """Unit-variance synthetic channels matching cfg's dimensions."""
    shape_g = (cfg.n_irs, cfg.n_refl, cfg.n_tx)
    shape_v = (cfg.n_irs, cfg.n_refl)
    return ChannelSet(
        g_ap_irs=rng.standard_normal(shape_g) + 1j * rng.standard_normal(shape_g),
        h_irs_user=rng.standard_normal(shape_v) + 1j * rng.standard_normal(shape_v),
        g_irs_eve=eve_scale * (rng.standard_normal(shape_v)
                               + 1j * rng.standard_normal(shape_v)))


def random_solution(rng, cfg, all_on=True) -> SolutionState:
    """Feasible random solution: full-power beamformer, random phases."""
    v = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
    w = np.sqrt(cfg.power_budget) * v / np.linalg.norm(v)
    angles = rng.uniform(0.0, 2.0 * np.pi, cfg.n_irs * cfg.n_refl)
    if all_on:
        x = np.ones(cfg.n_irs, dtype=int)
    else:
        x = (rng.uniform(size=cfg.n_irs) > 0.4).astype(int)
        if x.sum() == 0:
            x[0] = 1
    return SolutionState(beamformer=w, phases=np.exp(1j * angles), onoff=x)


def rate_at_phases(ch, sol, cfg, phases) -> float:
    """Unclamped rate difference of sol with its phases replaced."""
    return rate_gap(ch, replace(sol, phases=phases), cfg)


def pair_gap(a, b, w, cfg) -> float:
    """Rate difference log2(1 + |a^H w|^2/s2) - log2(1 + |b^H w|^2/s2e) of
    the beamformer w on the effective pair (a, b)."""
    gu = abs(np.vdot(a, w)) ** 2
    ge = abs(np.vdot(b, w)) ** 2
    return float(np.log2(1.0 + gu / cfg.noise_user)
                 - np.log2(1.0 + ge / cfg.noise_eve))


def fd_angle_gradient(ch, sol, cfg, step=1e-6):
    """Central finite differences of the objective w.r.t. the phase angles."""
    angles = np.angle(sol.phases)
    out = np.zeros(len(angles))
    for k in range(len(angles)):
        plus = angles.copy()
        plus[k] += step
        minus = angles.copy()
        minus[k] -= step
        out[k] = (rate_at_phases(ch, sol, cfg, np.exp(1j * plus))
                  - rate_at_phases(ch, sol, cfg, np.exp(1j * minus)))
    return out / (2.0 * step)


def user_aligned_phases(ch, sol):
    """Phases that co-phase every element's cascade to the user under
    sol's beamformer (1 where that cascade is zero)."""
    gw = np.einsum("lnt,t->ln", ch.g_ap_irs, sol.beamformer)
    c = (np.conj(ch.h_irs_user) * gw).reshape(-1)
    return np.where(np.abs(c) > 0.0, np.exp(-1j * np.angle(c)), 1.0 + 0.0j)


def random_coefficients(rng, n_irs, spread=1.0):
    """Random per-surface amplitudes (v_user, v_eve) with magnitudes spread
    over 10^(+-spread)."""
    sv = 10.0 ** rng.uniform(-spread, spread, size=n_irs)
    su = 10.0 ** rng.uniform(-spread, spread, size=n_irs)
    v = sv * (rng.standard_normal(n_irs) + 1j * rng.standard_normal(n_irs))
    u = su * (rng.standard_normal(n_irs) + 1j * rng.standard_normal(n_irs))
    return v, u


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)

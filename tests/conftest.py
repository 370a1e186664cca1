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

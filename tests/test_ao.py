from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy.ao import ao_solve, user_aligned_state
from irs_secrecy.beamforming import sca_solve
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.model import (SystemConfig, effective_channels, rate_gap,
                               secrecy_rate)
from irs_secrecy.onoff import dinkelbach_solve, ratio_coefficients
from irs_secrecy.phases import mo_ascend

from conftest import desk_config, random_channels


def joint_grid_reference(ch, cfg, resolution=360):
    """Oracle for one surface with two elements and no eavesdropper: scan
    both phase angles on a grid, matched filter in closed form per point."""
    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    ring = np.exp(1j * angles)
    rows = np.einsum("n,nt->nt", np.conj(ch.h_irs_user[0]), ch.g_ap_irs[0])
    best = 0.0
    for p0 in ring:
        # vectorized over the second angle
        eff = p0 * rows[0][None, :] + ring[:, None] * rows[1][None, :]
        gains = cfg.power_budget * np.sum(np.abs(eff) ** 2, axis=1)
        best = max(best, float(gains.max()))
    return np.log2(1.0 + best / cfg.noise_user)


class TestWarmStart:
    def test_feasible_and_stronger_than_uniform(self, rng):
        cfg = SystemConfig()
        ch = gen_channels(cfg, rng)
        sol = user_aligned_state(ch, cfg)
        sol.validate(cfg)
        assert np.all(sol.onoff == 1)
        power = float(np.real(np.vdot(sol.beamformer, sol.beamformer)))
        assert power == pytest.approx(cfg.power_budget, rel=1e-9)
        # alignment must beat the uniform-phase matched filter on user rate
        uniform = replace(sol, phases=np.ones_like(sol.phases))
        eff_aligned = effective_channels(ch, sol)
        eff_uniform = effective_channels(ch, uniform)
        gain_aligned = abs(np.vdot(eff_aligned.eff_user, sol.beamformer)) ** 2
        w_u = np.sqrt(cfg.power_budget) * (eff_uniform.eff_user
                                           / np.linalg.norm(eff_uniform.eff_user))
        gain_uniform = abs(np.vdot(eff_uniform.eff_user, w_u)) ** 2
        assert gain_aligned > gain_uniform


class TestAoSolve:
    def test_no_eavesdropper_matches_joint_grid(self, rng):
        for _ in range(4):
            cfg = desk_config(n_tx=2, n_refl=2, n_irs=1, power=2.0)
            ch = random_channels(rng, cfg)
            ch = type(ch)(g_ap_irs=ch.g_ap_irs, h_irs_user=ch.h_irs_user,
                          g_irs_eve=np.zeros_like(ch.g_irs_eve))
            sol, trace = ao_solve(ch, cfg)
            reference = joint_grid_reference(ch, cfg)
            assert trace[-1] == pytest.approx(reference, rel=1e-4)

    def test_identical_channels_zero_rate(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2, noise_eve=1.0)
        ch = random_channels(rng, cfg)
        ch = type(ch)(g_ap_irs=ch.g_ap_irs, h_irs_user=ch.h_irs_user,
                      g_irs_eve=ch.h_irs_user)
        sol, trace = ao_solve(ch, cfg)
        assert trace[-1] == pytest.approx(0.0, abs=1e-12)

    def test_reference_geometry_batch(self):
        # the 100-seed batch is in the acceptance suite
        cfg = SystemConfig()
        for trial in range(6):
            rng = np.random.default_rng(np.random.SeedSequence([555, trial]))
            ch = gen_channels(cfg, rng)
            sol, trace = ao_solve(ch, cfg)
            sol.validate(cfg)
            assert np.all(np.diff(trace) >= -1e-12)
            assert len(trace) - 1 <= 30
            assert trace[-1] - trace[-2] < 1e-5
            assert trace[-1] == pytest.approx(secrecy_rate(ch, sol, cfg),
                                              abs=1e-12)

    def test_gevd_beamformer_mode(self, rng):
        cfg = desk_config(n_tx=4, n_refl=2, n_irs=2, noise_eve=0.8)
        ch = random_channels(rng, cfg)
        sol, trace = ao_solve(ch, cfg, beamformer="gevd")
        assert np.all(np.diff(trace) >= -1e-12)
        sol.validate(cfg)

    def test_rejects_unknown_beamformer(self, rng):
        cfg = desk_config()
        ch = random_channels(rng, cfg)
        with pytest.raises(ValueError):
            ao_solve(ch, cfg, beamformer="zf")

    def test_block_idempotence_at_convergence(self):
        cfg = SystemConfig()
        ch = gen_channels(cfg, np.random.default_rng(99))
        sol, trace = ao_solve(ch, cfg, tol=1e-7)
        gap = rate_gap(ch, sol, cfg)
        tol = 1e-5

        eff = effective_channels(ch, sol)
        w_new, _, _ = sca_solve(eff, cfg)
        assert rate_gap(ch, replace(sol, beamformer=w_new), cfg) - gap < tol

        coef = ratio_coefficients(ch, sol)
        x_new, _ = dinkelbach_solve(coef, cfg)
        assert rate_gap(ch, replace(sol, onoff=x_new), cfg) - gap < tol

        theta_new, _ = mo_ascend(ch, sol, cfg)
        assert rate_gap(ch, replace(sol, phases=theta_new), cfg) - gap < tol

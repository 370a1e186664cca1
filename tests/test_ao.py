from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy import ao, harness
from irs_secrecy.ao import ao_solve, user_aligned_state
from irs_secrecy.beamforming import gevd_oracle, sca_solve
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.model import (ChannelSet, SystemConfig, dbm_to_watt,
                               effective_channels, rate_gap, secrecy_rate)
from irs_secrecy.onoff import dinkelbach_solve, ratio_coefficients
from irs_secrecy.phases import _tangent_gradient, mo_ascend

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


class TestJointRefine:
    def test_ends_at_stationary_point(self):
        # Stopping by patience far from a stationary point leaves a tangent
        # gradient of up to a third of the gradient on this batch; the
        # refine must return a point where it is negligible.
        base, _ = harness.load_config(None)
        worst = 0.0
        for power_dbm in (0.0, 20.0, 40.0):
            cfg = replace(base, power_budget=dbm_to_watt(power_dbm))
            for t in range(20):
                ch = gen_channels(cfg, harness._stream(888, t, 0))
                phases, w, _ = ao._joint_refine(ch, cfg, user_aligned_state(ch, cfg))
                g, xi = _tangent_gradient(phases, ch.cascade_user @ w,
                                          ch.cascade_eve @ w, cfg)
                worst = max(worst, np.linalg.norm(xi) / np.linalg.norm(g))
        assert worst <= 1e-3


class TestProperties:
    def test_scale_invariance(self, rng):
        # last-hop channels x k scale both effective channels by k; noise
        # x k^2 then leaves every SNR, and so every rate, unchanged
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2, noise_eve=0.8)
        ch = random_channels(rng, cfg)
        _, trace = ao_solve(ch, cfg)
        for k in (1e-60, 1e-30, 1e30, 1e60):
            ch_k = ChannelSet(g_ap_irs=ch.g_ap_irs, h_irs_user=k * ch.h_irs_user,
                              g_irs_eve=k * ch.g_irs_eve)
            cfg_k = replace(cfg, noise_user=cfg.noise_user * k * k,
                            noise_eve=cfg.noise_eve * k * k)
            _, trace_k = ao_solve(ch_k, cfg_k)
            assert abs(trace_k[-1] - trace[-1]) <= 1e-12

    @pytest.mark.parametrize("power_dbm", [-30.0, 0.0, 60.0, 90.0])
    def test_extreme_powers(self, rng, power_dbm):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2, noise_eve=0.8,
                          power=dbm_to_watt(power_dbm))
        ch = random_channels(rng, cfg)
        sol, trace = ao_solve(ch, cfg)
        sol.validate(cfg)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= 0.0)

    @pytest.mark.parametrize("noise", [1e-100, 1e-300])
    def test_tiny_noise(self, noise):
        # SNRs near 1e90 and beyond on the reference layout: the beamformer's
        # pencil is far too ill-conditioned for a dense generalized
        # eigensolver, the closed form still holds.
        # Known limit: at noise <= 1e-100 W the float64 rounding of the
        # leakage b^H w sets the rate, so mathematically equal beamformers
        # differ by up to a few bits and gevd_oracle is not always the best
        # computable one (sca_solve beat it by up to 2.3 bits on 30 of 240
        # final pairs of this layout). This instance has a 4.6-bit margin.
        cfg, _ = harness.load_config(None)
        cfg = replace(cfg, noise_user=noise, noise_eve=noise)
        ch = gen_channels(cfg, harness._stream(3, 0, 0))
        sol, trace = ao_solve(ch, cfg)
        sol.validate(cfg)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= 0.0)
        eff = effective_channels(ch, sol)
        _, rate = gevd_oracle(eff, cfg)
        w_sca, _, _ = sca_solve(eff, cfg)
        gu = abs(np.vdot(eff.eff_user, w_sca)) ** 2
        ge = abs(np.vdot(eff.eff_eve, w_sca)) ** 2
        rate_sca = np.log2(1.0 + gu / noise) - np.log2(1.0 + ge / noise)
        assert rate >= rate_sca - 1e-9 * abs(rate)

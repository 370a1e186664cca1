from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy import ao
from irs_secrecy.model import SolutionState, rate_gap
from irs_secrecy.phases import (ARMIJO, _riemannian_ascent, _tangent_gradient,
                                _transport, mo_ascend, phase_grid_oracle,
                                phase_objective, phase_objective_gradient)

from conftest import desk_config, random_channels, random_solution


def fd_angle_gradient(ch, sol, cfg, step=1e-6):
    """Central finite differences of the objective w.r.t. the phase angles."""
    angles = np.angle(sol.phases)
    out = np.zeros(len(angles))
    for k in range(len(angles)):
        plus = angles.copy()
        plus[k] += step
        minus = angles.copy()
        minus[k] -= step
        out[k] = (phase_objective(ch, sol, cfg, phases=np.exp(1j * plus))
                  - phase_objective(ch, sol, cfg, phases=np.exp(1j * minus)))
    return out / (2.0 * step)


def user_aligned_phases(ch, sol):
    gw = np.einsum("lnt,t->ln", ch.g_ap_irs, sol.beamformer)
    c = (np.conj(ch.h_irs_user) * gw).reshape(-1)
    return np.where(np.abs(c) > 0.0, np.exp(-1j * np.angle(c)), 1.0 + 0.0j)


def joint_refine(ch, sol, cfg):
    """The envelope ascent of the AO driver, shaped like mo_ascend; checks
    that its final value is the rate its (phases, w) achieve."""
    phases, w, trace = ao._joint_refine(ch, cfg, sol)
    achieved = rate_gap(ch, replace(sol, phases=phases, beamformer=w), cfg)
    assert abs(trace[-1] - achieved) <= 1e-12
    return phases, trace


# Both phase blocks run on the same ascent engine.
ASCENTS = pytest.mark.parametrize("ascend", [mo_ascend, joint_refine],
                                  ids=["mo_ascend", "joint_refine"])


class TestGradient:
    def test_single_element_riemannian_zero(self, rng):
        # one surface, one element: |u| does not depend on the phase
        cfg = desk_config(n_tx=3, n_refl=1, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        _, riemannian = phase_objective_gradient(ch, sol, cfg)
        assert np.max(np.abs(riemannian)) < 1e-12

    def test_identical_channels_euclidean_zero(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2,
                          noise_user=1.3, noise_eve=1.3)
        ch = random_channels(rng, cfg)
        same = type(ch)(g_ap_irs=ch.g_ap_irs, h_irs_user=ch.h_irs_user,
                        g_irs_eve=ch.h_irs_user)
        sol = random_solution(rng, cfg)
        euclidean, _ = phase_objective_gradient(same, sol, cfg)
        assert np.max(np.abs(euclidean)) < 1e-12

    def test_matches_finite_differences(self, rng):
        # angle-space derivative of the objective is 2 Im(g conj(theta))
        for _ in range(10):
            cfg = desk_config(n_tx=4, n_refl=3, n_irs=2,
                              noise_eve=float(10.0 ** rng.uniform(-0.3, 0.3)))
            ch = random_channels(rng, cfg)
            sol = random_solution(rng, cfg, all_on=False)
            euclidean, _ = phase_objective_gradient(ch, sol, cfg)
            analytic = 2.0 * np.imag(euclidean * np.conj(sol.phases))
            numeric = fd_angle_gradient(ch, sol, cfg)
            rel = (np.linalg.norm(numeric - analytic)
                   / max(np.linalg.norm(numeric), 1e-300))
            assert rel < 1e-6

    def test_tangency(self, rng):
        for _ in range(10):
            cfg = desk_config(n_tx=3, n_refl=4, n_irs=2)
            ch = random_channels(rng, cfg)
            sol = random_solution(rng, cfg)
            _, riemannian = phase_objective_gradient(ch, sol, cfg)
            radial = np.real(riemannian * np.conj(sol.phases))
            assert np.max(np.abs(radial)) < 1e-10

    def test_inactive_blocks_have_zero_gradient(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                            onoff=np.array([1, 0, 1]))
        euclidean, _ = phase_objective_gradient(ch, sol, cfg)
        assert np.all(euclidean[2:4] == 0.0)


class TestMoAscend:
    @ASCENTS
    def test_stationary_start_returned_unchanged(self, rng, ascend):
        # a single active element is objective-invariant: the tangent
        # gradient is zero up to rounding, and no step may be taken
        cfg = desk_config(n_tx=3, n_refl=1, n_irs=1)
        for _ in range(200):
            ch = random_channels(rng, cfg)
            sol = random_solution(rng, cfg)
            phases, trace = ascend(ch, sol, cfg)
            assert np.array_equal(phases, sol.phases)
            assert len(trace) == 1

    def test_coherent_combining_without_eavesdropper(self, rng):
        for _ in range(10):
            cfg = desk_config(n_tx=3, n_refl=2, n_irs=1)
            ch = random_channels(rng, cfg)
            zero_eve = type(ch)(g_ap_irs=ch.g_ap_irs, h_irs_user=ch.h_irs_user,
                                g_irs_eve=np.zeros_like(ch.g_irs_eve))
            sol = random_solution(rng, cfg)
            phases, trace = mo_ascend(zero_eve, sol, cfg)
            gw = ch.g_ap_irs[0] @ sol.beamformer
            c = np.conj(ch.h_irs_user[0]) * gw
            best_gain = float(np.sum(np.abs(c))) ** 2
            achieved = abs(np.sum(phases * c)) ** 2
            assert achieved == pytest.approx(best_gain, rel=1e-6)

    @ASCENTS
    def test_monotone_trace_and_unit_modulus(self, rng, ascend):
        for _ in range(5):
            cfg = desk_config(n_tx=4, n_refl=4, n_irs=2, noise_eve=0.7)
            ch = random_channels(rng, cfg)
            sol = random_solution(rng, cfg)
            phases, trace = ascend(ch, sol, cfg)
            assert np.all(np.diff(trace) >= 0.0)
            assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-12

    @ASCENTS
    def test_frozen_inactive_blocks(self, rng, ascend):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=2)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                            onoff=np.array([1, 0]))
        phases, _ = ascend(ch, sol, cfg)
        assert np.array_equal(phases[2:], sol.phases[2:])
        assert not np.array_equal(phases[:2], sol.phases[:2])

    def test_matches_grid_oracle_small(self, rng):
        # the 50-instance sweep at resolution 720 lives in the acceptance
        # suite; this is the same check at module scale
        for _ in range(8):
            cfg = desk_config(n_tx=4, n_refl=2, n_irs=1,
                              noise_eve=float(10.0 ** rng.uniform(-0.3, 0.3)))
            ch = random_channels(rng, cfg)
            sol = random_solution(rng, cfg)
            aligned = SolutionState(beamformer=sol.beamformer,
                                    phases=user_aligned_phases(ch, sol),
                                    onoff=sol.onoff)
            _, trace = mo_ascend(ch, aligned, cfg)
            _, best = phase_grid_oracle(ch, aligned, cfg, resolution=720)
            assert trace[-1] >= best - 1e-3


class TestAscentEngine:
    def test_armijo_test_runs_along_the_search_direction(self):
        # Scripted values: the first trial is accepted, the first conjugate
        # step (step 2) gains halfway between the Armijo thresholds along
        # Re<d, xi> and along ||xi||^2, and every later trial loses. The
        # engine must decide by Re<d, xi>.
        cfg = desk_config(noise_eve=0.5)
        rng = np.random.default_rng(7)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        theta0 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6))
        _, xi0 = _tangent_gradient(theta0, c, d, cfg)
        theta1 = (theta0 + xi0) / np.abs(theta0 + xi0)
        _, xi1 = _tangent_gradient(theta1, c, d, cfg)
        beta = max(0.0, np.vdot(xi1 - _transport(theta1, xi0), xi1).real
                   / np.vdot(xi0, xi0).real)
        slope = np.vdot(xi1 + beta * _transport(theta1, xi0), xi1).real
        sq_norm = np.vdot(xi1, xi1).real
        assert slope > 0.0 and abs(slope - sq_norm) > 0.01 * sq_norm
        values = iter([0.0, 1.0, 1.0 + ARMIJO * 2.0 * (slope + sq_norm) / 2.0])
        _, _, trace = _riemannian_ascent(
            theta0, lambda theta: (next(values, -1.0), None), lambda _: (c, d),
            cfg)
        assert len(trace) == (3 if slope < sq_norm else 2)


class TestGlobalPhaseInvariance:
    def test_single_surface_common_rotation(self, rng):
        # with one aggregated inner product the objective sees only |u|, |e|
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        base = phase_objective(ch, sol, cfg)
        for alpha in (0.4, 1.9, np.pi / 3):
            rotated = sol.phases * np.exp(1j * alpha)
            assert phase_objective(ch, sol, cfg, phases=rotated) == \
                pytest.approx(base, abs=1e-12)


class TestGridOracle:
    def test_single_active_element_invariant(self, rng):
        cfg = desk_config(n_tx=3, n_refl=1, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        _, best = phase_grid_oracle(ch, sol, cfg, resolution=64)
        # objective is constant over the grid
        assert best == pytest.approx(phase_objective(ch, sol, cfg), abs=1e-12)

    def test_refinement_never_decreases(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        _, coarse = phase_grid_oracle(ch, sol, cfg, resolution=16)
        _, fine = phase_grid_oracle(ch, sol, cfg, resolution=32)
        assert fine >= coarse

    def test_rejects_too_many_elements(self, rng):
        cfg = desk_config(n_tx=3, n_refl=3, n_irs=2)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        with pytest.raises(ValueError):
            phase_grid_oracle(ch, sol, cfg, resolution=8)

    def test_inactive_blocks_excluded(self, rng):
        # 2 of 6 elements active: allowed, and frozen entries untouched
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                            onoff=np.array([0, 1, 0]))
        phases, _ = phase_grid_oracle(ch, sol, cfg, resolution=32)
        assert np.array_equal(phases[:2], sol.phases[:2])
        assert np.array_equal(phases[4:], sol.phases[4:])

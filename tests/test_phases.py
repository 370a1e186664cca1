import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy import ao
from irs_secrecy import phases as phases_module
from irs_secrecy.model import SolutionState, rate_gap
from irs_secrecy.phases import (ARMIJO, FIRST_STEP, TOL, _riemannian_ascent,
                                _wirtinger_gradient)
from irs_secrecy.reference.phases import (mo_ascend, phase_grid_oracle,
                                          phase_objective_gradient)

from conftest import (desk_config, fd_angle_gradient, random_channels,
                      random_solution, rate_at_phases, user_aligned_phases)


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
        g = phase_objective_gradient(ch, sol, cfg)
        assert np.max(np.abs(2.0 * np.imag(g * np.conj(sol.phases)))) < 1e-12

    def test_identical_channels_euclidean_zero(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2,
                          noise_user=1.3, noise_eve=1.3)
        ch = random_channels(rng, cfg)
        same = type(ch)(g_ap_irs=ch.g_ap_irs, h_irs_user=ch.h_irs_user,
                        g_irs_eve=ch.h_irs_user)
        sol = random_solution(rng, cfg)
        g = phase_objective_gradient(same, sol, cfg)
        assert np.max(np.abs(g)) < 1e-12

    def test_matches_finite_differences(self, rng):
        # angle-space derivative of the objective is 2 Im(g conj(theta))
        for _ in range(10):
            cfg = desk_config(n_tx=4, n_refl=3, n_irs=2,
                              noise_eve=float(10.0 ** rng.uniform(-0.3, 0.3)))
            ch = random_channels(rng, cfg)
            sol = random_solution(rng, cfg, all_on=False)
            g = phase_objective_gradient(ch, sol, cfg)
            analytic = 2.0 * np.imag(g * np.conj(sol.phases))
            numeric = fd_angle_gradient(ch, sol, cfg)
            rel = (np.linalg.norm(numeric - analytic)
                   / max(np.linalg.norm(numeric), 1e-300))
            assert rel < 1e-6

    def test_inactive_blocks_have_zero_gradient(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                            onoff=np.array([1, 0, 1]))
        g = phase_objective_gradient(ch, sol, cfg)
        assert np.all(g[2:4] == 0.0)


class TestMoAscend:
    @ASCENTS
    def test_stationary_start_returned_unchanged(self, rng, ascend):
        # a single active element is objective-invariant: the angle
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


def angle_gradient(theta, c, d, cfg):
    return 2.0 * np.imag(_wirtinger_gradient(theta, c, d, cfg) * np.conj(theta))


def scripted_ascent(theta, values, amplitudes, cfg):
    """Run the engine on scripted values (then -1.0 forever) and scripted
    amplitudes; returns every trial point it evaluated, start first."""
    values, points = iter(values), []

    def evaluate(trial):
        points.append(trial)
        return next(values, -1.0), None

    _riemannian_ascent(theta, evaluate,
                       lambda t, state: _wirtinger_gradient(t, *amplitudes(state), cfg))
    return points


def rising_instance():
    """Fixed amplitudes (c, d) and a start theta for the rising ascent."""
    rng = np.random.default_rng(13)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6)), c, d


def rising_ascent(cfg, rise, scales=(1.0,)):
    """Run the engine on rising_instance with values that rise by `rise` at
    every evaluation and the trial point itself as the state; the k-th
    gradient sees the amplitudes scaled by scales[k] (the last entry from
    then on). Returns the returned point, the trace, every state
    amplitudes() received and the order of the calls ("e" for evaluate,
    "a" for amplitudes)."""
    theta, c, d = rising_instance()
    calls, seen, log = itertools.count(), [], []

    def evaluate(trial):
        log.append("e")
        return rise * next(calls), trial

    def amplitudes(point):
        log.append("a")
        scale = scales[min(len(seen), len(scales) - 1)]
        seen.append(point)
        return scale * c, scale * d

    theta, trace = _riemannian_ascent(
        theta, evaluate,
        lambda t, point: _wirtinger_gradient(t, *amplitudes(point), cfg))
    return theta, trace, seen, "".join(log)


class TestAscentEngine:
    def test_directions_are_the_lbfgs_product(self):
        # Scripted amplitudes give a different gradient at each accepted
        # point. The k-th trial must be theta_k exp(i p_k) with p_k = H_k r_k,
        # H_k the BFGS inverse Hessian (built densely here) of the pairs
        # s = p, y = r_prev - r from H0 = s.y / y.y of the newest pair, after
        # a first step that moves the largest angle by FIRST_STEP. Scripted
        # values accept the first four trials; the fifth gains halfway
        # between the Armijo thresholds along r.p and along r.r, and the
        # engine must decide by r.p.
        cfg = desk_config(noise_eve=0.5)
        rng = np.random.default_rng(11)
        script = [(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                   rng.standard_normal(6) + 1j * rng.standard_normal(6))
                  for _ in range(6)]
        theta0 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6))
        theta, expected = theta0, []
        r = angle_gradient(theta, *script[0], cfg)
        p = r * (FIRST_STEP / np.max(np.abs(r)))
        pairs = []
        for k in range(1, 5):
            theta = theta * np.exp(1j * p)
            expected.append(theta)
            r_new = angle_gradient(theta, *script[k], cfg)
            s, y = p, r - r_new
            assert s @ y > 0.0      # every pair is kept on this script
            pairs.append((s, y))
            h = (s @ y) / (y @ y) * np.eye(6)
            for s, y in pairs:
                v = np.eye(6) - np.outer(s, y) / (s @ y)
                h = v @ h @ v.T + np.outer(s, s) / (s @ y)
            r, p = r_new, h @ r_new
            assert r @ p > 0.0      # and no direction restarts
        expected.append(theta * np.exp(1j * p))
        slope, steepest = r @ p, r @ r
        assert abs(slope - steepest) > 0.01 * steepest
        amplitudes = iter(script)
        points = scripted_ascent(
            theta0, [0.0, 1.0, 2.0, 3.0, 4.0, 4.0 + ARMIJO * (slope + steepest) / 2.0],
            lambda _: next(amplitudes), cfg)
        np.testing.assert_allclose(points[1:6], expected, rtol=0.0, atol=1e-12)
        halved = theta * np.exp(0.5j * p)
        assert np.allclose(points[6], halved, rtol=0.0, atol=1e-12) == (slope > steepest)

    def test_first_step_moves_the_largest_angle_by_a_fixed_amount(self):
        # The gradients of the two instances differ by a factor of about 1e6;
        # the first trial point moves the largest angle by FIRST_STEP in both.
        cfg = desk_config(noise_eve=0.5)
        rng = np.random.default_rng(5)
        c = 3.0 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6))
        largest = []
        for scale in (1.0, 1e-3):
            largest.append(np.max(np.abs(angle_gradient(theta, scale * c,
                                                        scale * d, cfg))))
            points = scripted_ascent(theta, [0.0], lambda _: (scale * c, scale * d),
                                     cfg)
            moved = np.angle(points[1] * np.conj(theta))
            assert np.max(np.abs(moved)) == pytest.approx(FIRST_STEP, abs=1e-12)
        assert largest[0] > 1.0 and largest[0] >= 1e4 * largest[1]

    # Every stop but a failed backtracking search comes right after a
    # gradient, so amplitudes() is called once per accepted point, the
    # returned point last: the joint refine's beamformer is built there.
    def test_slope_stop_returns_where_the_last_gradient_was_taken(self):
        # Three steps on unit amplitudes, then amplitudes scaled by 1e-12 at
        # the third accepted point: the gradient there is ~1e-24, so the
        # direction built from it predicts a gain far below TOL.
        theta, trace, seen, log = rising_ascent(desk_config(noise_eve=0.5), 1.0,
                                                scales=(1.0, 1.0, 1.0, 1e-12))
        assert len(trace) == 4 == len(seen)
        assert np.array_equal(seen[-1], theta)
        assert log == "ea" * 4

    def test_flat_direction_stops_without_a_trial_point(self, monkeypatch):
        # At the start (no curvature pairs) the direction is r scaled to move
        # the largest angle by FIRST_STEP, so its slope r.p is known here. It
        # is below TOL while the point is not stationary: the engine must
        # stop on the slope alone, with no evaluation after the gradient,
        # and step once TOL is below that slope.
        cfg = desk_config(noise_eve=0.5)
        theta0, c, d = rising_instance()
        g = _wirtinger_gradient(theta0, 1e-12 * c, 1e-12 * d, cfg)
        r = 2.0 * np.imag(g * np.conj(theta0))
        slope = FIRST_STEP * (r @ r) / np.max(np.abs(r))
        assert 0.0 < slope < TOL and r @ r > 4e-20 * np.vdot(g, g).real
        theta, trace, seen, log = rising_ascent(cfg, 1.0, scales=(1e-12,))
        assert log == "ea" and trace.tolist() == [0.0]
        assert np.array_equal(theta, theta0) and np.array_equal(seen[0], theta0)
        monkeypatch.setattr(phases_module, "TOL", 0.5 * slope)
        _, trace, _, log = rising_ascent(cfg, 1.0, scales=(1e-12,))
        assert log.startswith("eae") and len(trace) > 1

    def test_zero_gradient_stops_at_the_start(self):
        # Zero amplitudes give r = 0 exactly on a nonempty phase vector: the
        # engine must stop before building a direction, which would divide
        # by max|r| = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, trace, seen, log = rising_ascent(desk_config(noise_eve=0.5),
                                                    1.0, scales=(0.0,))
        theta0, _, _ = rising_instance()
        assert log == "ea" and trace.tolist() == [0.0]
        assert np.array_equal(theta, theta0) and np.array_equal(seen[0], theta0)

    def test_direction_that_does_not_ascend_stops_without_a_trial_point(
            self, monkeypatch):
        # With curvature pairs H is positive definite, so H r ascends; a
        # direction that does not predicts a gain below TOL and ends the
        # ascent where the gradient was taken, with no restart.
        lbfgs, stored = phases_module._lbfgs_direction, []

        def descending(r, pairs):
            stored.append(len(pairs))
            return -r if pairs else lbfgs(r, pairs)

        monkeypatch.setattr(phases_module, "_lbfgs_direction", descending)
        theta, trace, seen, log = rising_ascent(desk_config(noise_eve=0.5), 1.0)
        # steps without pairs until one is kept, then no trial point
        n = len(stored)
        assert stored[-1] > 0 and stored[:-1] == [0] * (n - 1)
        assert log == "ea" * n and len(trace) == n
        assert np.array_equal(seen[-1], theta)

    def test_step_cap_stop_returns_where_the_last_gradient_was_taken(
            self, monkeypatch):
        monkeypatch.setattr(phases_module, "MAX_ITER", 3)
        theta, trace, seen, log = rising_ascent(desk_config(noise_eve=0.5), 1.0)
        assert len(trace) == 4 == len(seen)
        assert np.array_equal(seen[-1], theta)
        assert log == "ea" * 4


class TestGlobalPhaseInvariance:
    def test_single_surface_common_rotation(self, rng):
        # with one aggregated inner product the objective sees only |u|, |e|
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        base = rate_gap(ch, sol, cfg)
        for alpha in (0.4, 1.9, np.pi / 3):
            rotated = sol.phases * np.exp(1j * alpha)
            assert rate_at_phases(ch, sol, cfg, rotated) == \
                pytest.approx(base, abs=1e-12)


class TestGridOracle:
    def test_single_active_element_invariant(self, rng):
        cfg = desk_config(n_tx=3, n_refl=1, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        _, best = phase_grid_oracle(ch, sol, cfg, resolution=64)
        # objective is constant over the grid
        assert best == pytest.approx(rate_gap(ch, sol, cfg), abs=1e-12)

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

    @pytest.mark.parametrize("n_active", [1, 2, 3])
    def test_matches_a_direct_scan(self, n_active):
        # every lattice point valued on its own, surface 0 off
        rng = np.random.default_rng([1207, n_active])
        cfg = desk_config(n_tx=3, n_refl=n_active, n_irs=2, noise_eve=0.5)
        ch = random_channels(rng, cfg)
        sol = replace(random_solution(rng, cfg), onoff=np.array([0, 1]))
        act = np.arange(n_active, 2 * n_active)
        c = ch.cascade_user[act] @ sol.beamformer
        d = ch.cascade_eve[act] @ sol.beamformer

        def value(theta):
            return (np.log2(1.0 + abs(theta @ c) ** 2 / cfg.noise_user)
                    - np.log2(1.0 + abs(theta @ d) ** 2 / cfg.noise_eve))

        ring = np.exp(2j * np.pi * np.arange(12) / 12)
        scan = max(value(np.array(point))
                   for point in itertools.product(ring, repeat=n_active))
        phases, best = phase_grid_oracle(ch, sol, cfg, resolution=12)
        assert best == pytest.approx(scan, abs=1e-12)
        assert value(phases[act]) == pytest.approx(scan, abs=1e-12)
        assert np.array_equal(phases[:n_active], sol.phases[:n_active])

    def test_every_surface_off_returns_the_phases_and_zero(self, rng):
        # no active element: the lattice is one point, the empty assignment
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = replace(random_solution(rng, cfg), onoff=np.zeros(3, dtype=int))
        phases, best = phase_grid_oracle(ch, sol, cfg, resolution=8)
        assert np.array_equal(phases, sol.phases) and phases is not sol.phases
        assert type(best) is float and best == 0.0

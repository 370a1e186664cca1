import itertools
from dataclasses import replace

import numpy as np
import pytest

import irs_secrecy.model as model
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.model import SystemConfig
from irs_secrecy.onoff import (RatioCoefficients, brute_force_onoff,
                               dinkelbach_solve, quadratic_value,
                               ratio_coefficients, ratio_value)

from conftest import (coefficients_from_amplitudes, desk_config,
                      random_channels, random_coefficients, random_solution)


def enumerate_ratio(coef, cfg):
    """Test-side oracle: direct scan of all binary selections."""
    best_x, best_r = None, -np.inf
    for bits in itertools.product((0, 1), repeat=coef.n_irs):
        x = np.array(bits, dtype=int)
        r = ratio_value(coef, x, cfg)
        if r > best_r:
            best_x, best_r = x, r
    return best_x, best_r


def g_of_lambda(coef, cfg, lam):
    """Test-side oracle for G(lam) = max_x N(x) - lam * D(x)."""
    best = -np.inf
    for bits in itertools.product((0, 1), repeat=coef.n_irs):
        x = np.array(bits, dtype=int)
        num = 1.0 + quadratic_value(coef.c_lin, coef.c_cross, x) / cfg.noise_user
        den = 1.0 + quadratic_value(coef.d_lin, coef.d_cross, x) / cfg.noise_eve
        best = max(best, num - lam * den)
    return best


class TestRatioCoefficients:
    def test_single_surface(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        coef = ratio_coefficients(ch, sol)
        theta = sol.phase_blocks(cfg.n_refl)[0]
        v = np.conj(ch.h_irs_user[0]) * theta @ (ch.g_ap_irs[0] @ sol.beamformer)
        assert coef.c_lin[0] == pytest.approx(abs(v) ** 2, rel=1e-12)
        assert coef.c_cross.shape == (1, 1)
        assert np.all(coef.c_cross == 0.0)

    def test_equal_real_amplitudes(self):
        # every per-surface amplitude u: C_l = u^2, C_lm = 2 u^2
        u = 0.7
        coef = coefficients_from_amplitudes([u, u, u], [0.0, 0.0, 0.0])
        assert np.allclose(coef.c_lin, u ** 2)
        for l in range(3):
            for m in range(l):
                assert coef.c_cross[l, m] == pytest.approx(2 * u ** 2)

    def test_reconstructs_quadratic_for_all_selections(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        coef = ratio_coefficients(ch, sol)
        theta = sol.phase_blocks(cfg.n_refl)
        amps_user = np.array([
            np.conj(ch.h_irs_user[l]) * theta[l] @ (ch.g_ap_irs[l] @ sol.beamformer)
            for l in range(3)])
        amps_eve = np.array([
            np.conj(ch.g_irs_eve[l]) * theta[l] @ (ch.g_ap_irs[l] @ sol.beamformer)
            for l in range(3)])
        for bits in itertools.product((0, 1), repeat=3):
            x = np.array(bits, dtype=float)
            direct_user = abs(np.sum(x * amps_user)) ** 2
            direct_eve = abs(np.sum(x * amps_eve)) ** 2
            rebuilt_user = quadratic_value(coef.c_lin, coef.c_cross, x)
            rebuilt_eve = quadratic_value(coef.d_lin, coef.d_cross, x)
            assert rebuilt_user == pytest.approx(direct_user, rel=1e-10, abs=1e-12)
            assert rebuilt_eve == pytest.approx(direct_eve, rel=1e-10, abs=1e-12)

    def test_self_gains_nonnegative(self, rng):
        for _ in range(5):
            coef, _, _ = random_coefficients(rng, 4)
            assert np.all(coef.c_lin >= 0.0)
            assert np.all(coef.d_lin >= 0.0)

    def test_rejects_upper_triangle(self):
        with pytest.raises(ValueError):
            RatioCoefficients(c_lin=[1.0, 1.0], c_cross=np.ones((2, 2)),
                              d_lin=[1.0, 1.0], d_cross=np.zeros((2, 2)))

    @pytest.mark.parametrize("changes, match", [
        ({"v_user": np.ones(5)}, "v_user"),           # was silently truncated
        ({"v_eve": np.ones(2)}, "v_eve"),             # was a bare IndexError
        ({"v_eve": [0.5, np.nan, 0.5]}, "finite"),    # was an empty argmin
    ])
    def test_rejects_malformed_amplitudes(self, changes, match):
        coef = coefficients_from_amplitudes([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match=match):
            replace(coef, **changes)


class TestDinkelbachSolve:
    def test_single_surface_cases(self):
        cfg = desk_config(n_irs=1, noise_user=1.0, noise_eve=1.0)
        helpful = coefficients_from_amplitudes([2.0], [1.0])
        x, ratio = dinkelbach_solve(helpful, cfg)
        assert np.array_equal(x, [1])
        assert ratio == pytest.approx(5.0 / 2.0, rel=1e-12)
        harmful = coefficients_from_amplitudes([1.0], [2.0])
        x, ratio = dinkelbach_solve(harmful, cfg)
        assert np.array_equal(x, [0])
        assert ratio == pytest.approx(1.0)

    def test_degenerate_all_zero(self):
        cfg = desk_config(n_irs=3)
        coef = coefficients_from_amplitudes([0.0] * 3, [0.0] * 3)
        x, ratio = dinkelbach_solve(coef, cfg)
        assert np.array_equal(x, [0, 0, 0])
        assert ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("n_irs", [2, 3, 4, 5])
    def test_matches_enumeration(self, rng, n_irs):
        for _ in range(12):
            coef, _, _ = random_coefficients(rng, n_irs,
                                             spread=float(rng.uniform(0.5, 1.5)))
            cfg = desk_config(n_irs=n_irs,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            x_ref, ratio_ref = enumerate_ratio(coef, cfg)
            x, ratio = dinkelbach_solve(coef, cfg)
            assert ratio == pytest.approx(ratio_ref, rel=1e-12, abs=1e-12)
            assert np.array_equal(x, x_ref)

    def test_root_condition_at_solution(self, rng):
        # parametric root: G(returned ratio) = 0 up to float roundoff
        for _ in range(8):
            coef, _, _ = random_coefficients(rng, 4)
            cfg = desk_config(n_irs=4)
            _, ratio = dinkelbach_solve(coef, cfg)
            scale = g_of_lambda(coef, cfg, 0.0)
            assert abs(g_of_lambda(coef, cfg, ratio)) <= 1e-9 * max(1.0, scale)

    def test_matches_brute_force_sixteen_surfaces(self, rng):
        # more than BLOCK_BITS surfaces: selections span eight blocks
        for _ in range(3):
            coef, _, _ = random_coefficients(rng, 16)
            cfg = desk_config(n_irs=16,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            x_ref, ratio_ref = brute_force_onoff(coef, cfg)
            x, ratio = dinkelbach_solve(coef, cfg)
            assert np.array_equal(x, x_ref)
            assert ratio == pytest.approx(ratio_ref, rel=1e-9)

    def test_ties_break_like_brute_force(self):
        cfg = desk_config(n_irs=2)
        # surface 1 adds nothing: fewer active surfaces wins
        # opposite amplitudes: equal counts, lexicographically first wins
        for v_user, expected in (([1.0, 0.0], [1, 0]), ([1.0, -1.0], [0, 1])):
            coef = coefficients_from_amplitudes(v_user, [0.0, 0.0])
            x, ratio = dinkelbach_solve(coef, cfg)
            x_ref, ratio_ref = brute_force_onoff(coef, cfg)
            assert np.array_equal(x, expected)
            assert np.array_equal(x_ref, expected)
            assert ratio == ratio_ref == 2.0

    @pytest.mark.parametrize("n_irs", [13, 14, 17])
    def test_matches_brute_force_at_block_boundary(self, n_irs):
        # one block, two blocks, and 16 blocks of 2^BLOCK_BITS low subsets
        rng = np.random.default_rng(1300 + n_irs)
        for _ in range(2):
            coef, _, _ = random_coefficients(rng, n_irs)
            cfg = desk_config(n_irs=n_irs,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            x_ref, ratio_ref = brute_force_onoff(coef, cfg)
            x, ratio = dinkelbach_solve(coef, cfg)
            assert np.array_equal(x, x_ref)
            assert ratio == pytest.approx(ratio_ref, rel=1e-12)

    def test_all_zero_amplitudes_tie_everywhere(self):
        # every selection ties, in every block: all off, ratio exactly 1
        cfg = desk_config(n_irs=20)
        coef = coefficients_from_amplitudes(np.zeros(20), np.zeros(20))
        x, ratio = dinkelbach_solve(coef, cfg)
        assert np.array_equal(x, np.zeros(20))
        assert ratio == 1.0

    @pytest.mark.parametrize("amplitudes, expected", [
        ({12: 1.0, 13: -1.0}, [13]),             # equal counts: lexicographic
        ({12: -1.0, 13: 0.5, 14: 0.5}, [12]),    # fewer active surfaces wins
    ])
    def test_ties_at_block_boundary(self, amplitudes, expected):
        # surface 12 is the last low surface, 13 and 14 are high ones
        n = 15
        cfg = desk_config(n_irs=n)
        v_user = np.zeros(n, dtype=complex)
        for l, amp in amplitudes.items():
            v_user[l] = amp
        coef = coefficients_from_amplitudes(v_user, np.zeros(n))
        x, ratio = dinkelbach_solve(coef, cfg)
        x_ref, ratio_ref = brute_force_onoff(coef, cfg)
        assert np.flatnonzero(x).tolist() == expected
        assert np.array_equal(x, x_ref)
        assert ratio == ratio_ref == 2.0

    def test_ties_across_blocks(self):
        # equal single-surface ratios on either side of the block boundary
        n = 20
        cfg = desk_config(n_irs=n)
        v_user = np.zeros(n, dtype=complex)
        v_user[0], v_user[18] = 1.0, -1.0
        coef = coefficients_from_amplitudes(v_user, np.zeros(n))
        x, ratio = dinkelbach_solve(coef, cfg)
        assert np.flatnonzero(x).tolist() == [18]
        assert ratio == 2.0

    def test_rejects_more_than_max_surfaces(self):
        cfg = desk_config(n_irs=1)
        coef = coefficients_from_amplitudes(np.ones(25), np.ones(25))
        with pytest.raises(ValueError):
            dinkelbach_solve(coef, cfg)

    def test_rejects_coefficients_without_amplitudes(self):
        cfg = desk_config(n_irs=2)
        coef = coefficients_from_amplitudes([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="amplitudes"):
            dinkelbach_solve(replace(coef, v_user=None, v_eve=None), cfg)

    def test_ratio_matches_raw_channels(self, rng):
        # the returned ratio equals the rate ratio evaluated from the raw
        # channels through the model module
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        coef = ratio_coefficients(ch, sol)
        x, ratio = dinkelbach_solve(coef, cfg)
        chosen = replace(sol, onoff=x)
        assert model.rate_gap(ch, chosen, cfg) == pytest.approx(
            np.log2(ratio), rel=1e-10, abs=1e-12)


class TestBruteForce:
    def test_reference_geometry_cross_check(self):
        # argmax over all 8 selections, verified by direct secrecy evaluation
        cfg = SystemConfig()
        ch = gen_channels(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        sol = random_solution(rng, cfg)
        coef = ratio_coefficients(ch, sol)
        x_best, ratio_best = brute_force_onoff(coef, cfg)
        gaps = {}
        for bits in itertools.product((0, 1), repeat=3):
            x = np.array(bits, dtype=int)
            gaps[bits] = model.rate_gap(ch, replace(sol, onoff=x), cfg)
        assert np.log2(ratio_best) == pytest.approx(max(gaps.values()),
                                                    rel=1e-10, abs=1e-12)
        assert gaps[tuple(x_best)] == pytest.approx(max(gaps.values()),
                                                    rel=1e-10, abs=1e-12)

    def test_all_zero_ties_to_fewest_active(self):
        cfg = desk_config(n_irs=3)
        coef = coefficients_from_amplitudes([0.0] * 3, [0.0] * 3)
        x, ratio = brute_force_onoff(coef, cfg)
        assert np.array_equal(x, [0, 0, 0])
        assert ratio == pytest.approx(1.0)

    def test_dominant_surface(self):
        cfg = desk_config(n_irs=3, noise_user=1.0, noise_eve=1.0)
        coef = coefficients_from_amplitudes([100.0, 0.1j, -0.1], [0.0, 3.0, 3.0])
        x, _ = brute_force_onoff(coef, cfg)
        assert x[0] == 1  # the clean high-gain surface is always on

    def test_rejects_large_instances(self):
        cfg = desk_config(n_irs=1)
        n = 25
        coef = RatioCoefficients(c_lin=np.ones(n), c_cross=np.zeros((n, n)),
                                 d_lin=np.ones(n), d_cross=np.zeros((n, n)))
        with pytest.raises(ValueError):
            brute_force_onoff(coef, cfg)

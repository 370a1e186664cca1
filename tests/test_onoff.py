import itertools
from dataclasses import replace

import numpy as np
import pytest

import irs_secrecy.model as model
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.model import SystemConfig
from irs_secrecy.onoff import dinkelbach_solve, ratio_coefficients
from irs_secrecy.reference.onoff import (brute_force_onoff, quadratic_expansion,
                                         quadratic_value, ratio_value)

from conftest import (desk_config, random_channels, random_coefficients,
                      random_solution)


def enumerate_ratio(v_user, v_eve, cfg):
    """Test-side oracle: direct scan of all binary selections."""
    best_x, best_r = None, -np.inf
    for bits in itertools.product((0, 1), repeat=len(v_user)):
        x = np.array(bits, dtype=int)
        r = ratio_value(v_user, v_eve, x, cfg)
        if r > best_r:
            best_x, best_r = x, r
    return best_x, best_r


def g_of_lambda(v_user, v_eve, cfg, lam):
    """Test-side oracle for G(lam) = max_x N(x) - lam * D(x)."""
    user, eve = quadratic_expansion(v_user), quadratic_expansion(v_eve)
    best = -np.inf
    for bits in itertools.product((0, 1), repeat=len(v_user)):
        x = np.array(bits, dtype=int)
        num = 1.0 + quadratic_value(*user, x) / cfg.noise_user
        den = 1.0 + quadratic_value(*eve, x) / cfg.noise_eve
        best = max(best, num - lam * den)
    return best


class TestRatioCoefficients:
    def test_single_surface(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=1)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        v_user, _ = ratio_coefficients(ch, sol)
        theta = sol.phases.reshape(-1, cfg.n_refl)[0]
        v = np.conj(ch.h_irs_user[0]) * theta @ (ch.g_ap_irs[0] @ sol.beamformer)
        lin, cross = quadratic_expansion(v_user)
        assert lin[0] == pytest.approx(abs(v) ** 2, rel=1e-12)
        assert cross.shape == (1, 1)
        assert np.all(cross == 0.0)

    def test_equal_real_amplitudes(self):
        # every per-surface amplitude u: C_l = u^2, C_lm = 2 u^2 for m < l
        u = 0.7
        lin, cross = quadratic_expansion([u, u, u])
        assert np.allclose(lin, u ** 2)
        assert np.all(np.triu(cross) == 0.0)
        for l in range(3):
            for m in range(l):
                assert cross[l, m] == pytest.approx(2 * u ** 2)

    def test_reconstructs_quadratic_for_all_selections(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        v_user, v_eve = ratio_coefficients(ch, sol)
        theta = sol.phases.reshape(-1, cfg.n_refl)
        amps_user = np.array([
            np.conj(ch.h_irs_user[l]) * theta[l] @ (ch.g_ap_irs[l] @ sol.beamformer)
            for l in range(3)])
        amps_eve = np.array([
            np.conj(ch.g_irs_eve[l]) * theta[l] @ (ch.g_ap_irs[l] @ sol.beamformer)
            for l in range(3)])
        assert v_user == pytest.approx(amps_user, rel=1e-12)
        assert v_eve == pytest.approx(amps_eve, rel=1e-12)
        user, eve = quadratic_expansion(v_user), quadratic_expansion(v_eve)
        for bits in itertools.product((0, 1), repeat=3):
            x = np.array(bits, dtype=float)
            direct_user = abs(np.sum(x * amps_user)) ** 2
            direct_eve = abs(np.sum(x * amps_eve)) ** 2
            rebuilt_user = quadratic_value(*user, x)
            rebuilt_eve = quadratic_value(*eve, x)
            assert rebuilt_user == pytest.approx(direct_user, rel=1e-10, abs=1e-12)
            assert rebuilt_eve == pytest.approx(direct_eve, rel=1e-10, abs=1e-12)

    def test_self_gains_nonnegative(self, rng):
        for _ in range(5):
            v_user, v_eve = random_coefficients(rng, 4)
            assert np.all(quadratic_expansion(v_user)[0] >= 0.0)
            assert np.all(quadratic_expansion(v_eve)[0] >= 0.0)

    def test_batch_of_selections_matches_single_ones(self, rng):
        v_user, v_eve = random_coefficients(rng, 4)
        cfg = desk_config(n_irs=4, noise_eve=0.3)
        grid = np.array(list(itertools.product((0, 1), repeat=4)))
        lin, cross = quadratic_expansion(v_user)
        assert quadratic_value(lin, cross, grid) == pytest.approx(
            [quadratic_value(lin, cross, x) for x in grid], rel=1e-12)
        assert ratio_value(v_user, v_eve, grid, cfg) == pytest.approx(
            [ratio_value(v_user, v_eve, x, cfg) for x in grid], rel=1e-12)


class TestAmplitudeCheck:
    ENTRY_POINTS = {
        "dinkelbach_solve": dinkelbach_solve,
        "brute_force_onoff": brute_force_onoff,
        "ratio_value": lambda v_user, v_eve, cfg: ratio_value(
            v_user, v_eve, np.ones(3, dtype=int), cfg),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("v_user, v_eve, match", [
        # was silently truncated
        pytest.param(np.ones(5), [0.5, 0.5, 0.5], "v_user", id="too_long"),
        # was a bare IndexError
        pytest.param([1.0, 2.0, 3.0], np.ones(2), "v_eve", id="too_short"),
        # was an empty argmin
        pytest.param([1.0, 2.0, 3.0], [0.5, np.nan, 0.5], "finite", id="nan"),
        # no amplitudes to select
        pytest.param(None, [0.5, 0.5, 0.5], "v_user", id="none"),
        # more selections than the enumeration allows
        pytest.param(np.ones(25), np.ones(25), "L <= 24", id="L25"),
    ])
    def test_rejects_malformed_amplitudes(self, entry, v_user, v_eve, match):
        with pytest.raises(ValueError, match=match):
            self.ENTRY_POINTS[entry](v_user, v_eve, desk_config(n_irs=3))


class TestDinkelbachSolve:
    def test_single_surface_cases(self):
        cfg = desk_config(n_irs=1, noise_user=1.0, noise_eve=1.0)
        x, ratio = dinkelbach_solve([2.0], [1.0], cfg)     # helpful surface
        assert np.array_equal(x, [1])
        assert ratio == pytest.approx(5.0 / 2.0, rel=1e-12)
        x, ratio = dinkelbach_solve([1.0], [2.0], cfg)     # harmful surface
        assert np.array_equal(x, [0])
        assert ratio == pytest.approx(1.0)

    def test_degenerate_all_zero(self):
        cfg = desk_config(n_irs=3)
        x, ratio = dinkelbach_solve([0.0] * 3, [0.0] * 3, cfg)
        assert np.array_equal(x, [0, 0, 0])
        assert ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("n_irs", [2, 3, 4, 5])
    def test_matches_enumeration(self, rng, n_irs):
        for _ in range(12):
            v_user, v_eve = random_coefficients(rng, n_irs,
                                                spread=float(rng.uniform(0.5, 1.5)))
            cfg = desk_config(n_irs=n_irs,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            x_ref, ratio_ref = enumerate_ratio(v_user, v_eve, cfg)
            x, ratio = dinkelbach_solve(v_user, v_eve, cfg)
            assert ratio == pytest.approx(ratio_ref, rel=1e-12, abs=1e-12)
            assert np.array_equal(x, x_ref)

    def test_root_condition_at_solution(self, rng):
        # parametric root: G(returned ratio) = 0 up to float roundoff
        for _ in range(8):
            v_user, v_eve = random_coefficients(rng, 4)
            cfg = desk_config(n_irs=4)
            _, ratio = dinkelbach_solve(v_user, v_eve, cfg)
            scale = g_of_lambda(v_user, v_eve, cfg, 0.0)
            assert abs(g_of_lambda(v_user, v_eve, cfg, ratio)) <= 1e-9 * max(1.0, scale)

    def test_matches_brute_force_sixteen_surfaces(self, rng):
        # more than BLOCK_BITS surfaces: selections span eight blocks
        for _ in range(3):
            v_user, v_eve = random_coefficients(rng, 16)
            cfg = desk_config(n_irs=16,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            x_ref, ratio_ref = brute_force_onoff(v_user, v_eve, cfg)
            x, ratio = dinkelbach_solve(v_user, v_eve, cfg)
            assert np.array_equal(x, x_ref)
            assert ratio == pytest.approx(ratio_ref, rel=1e-9)

    def test_ties_break_like_brute_force(self):
        cfg = desk_config(n_irs=2)
        # surface 1 adds nothing: fewer active surfaces wins
        # opposite amplitudes: equal counts, lexicographically first wins
        for v_user, expected in (([1.0, 0.0], [1, 0]), ([1.0, -1.0], [0, 1])):
            x, ratio = dinkelbach_solve(v_user, [0.0, 0.0], cfg)
            x_ref, ratio_ref = brute_force_onoff(v_user, [0.0, 0.0], cfg)
            assert np.array_equal(x, expected)
            assert np.array_equal(x_ref, expected)
            assert ratio == ratio_ref == 2.0

    @pytest.mark.parametrize("n_irs", [13, 14, 17])
    def test_matches_brute_force_at_block_boundary(self, n_irs):
        # one block, two blocks, and 16 blocks of 2^BLOCK_BITS low subsets
        rng = np.random.default_rng(1300 + n_irs)
        for _ in range(2):
            v_user, v_eve = random_coefficients(rng, n_irs)
            cfg = desk_config(n_irs=n_irs,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            x_ref, ratio_ref = brute_force_onoff(v_user, v_eve, cfg)
            x, ratio = dinkelbach_solve(v_user, v_eve, cfg)
            assert np.array_equal(x, x_ref)
            assert ratio == pytest.approx(ratio_ref, rel=1e-12)

    def test_all_zero_amplitudes_tie_everywhere(self):
        # every selection ties, in every block: all off, ratio exactly 1
        cfg = desk_config(n_irs=20)
        x, ratio = dinkelbach_solve(np.zeros(20), np.zeros(20), cfg)
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
        x, ratio = dinkelbach_solve(v_user, np.zeros(n), cfg)
        x_ref, ratio_ref = brute_force_onoff(v_user, np.zeros(n), cfg)
        assert np.flatnonzero(x).tolist() == expected
        assert np.array_equal(x, x_ref)
        assert ratio == ratio_ref == 2.0

    def test_ties_across_blocks(self):
        # equal single-surface ratios on either side of the block boundary
        n = 20
        cfg = desk_config(n_irs=n)
        v_user = np.zeros(n, dtype=complex)
        v_user[0], v_user[18] = 1.0, -1.0
        x, ratio = dinkelbach_solve(v_user, np.zeros(n), cfg)
        assert np.flatnonzero(x).tolist() == [18]
        assert ratio == 2.0

    def test_rejects_more_than_max_surfaces(self):
        cfg = desk_config(n_irs=1)
        with pytest.raises(ValueError):
            dinkelbach_solve(np.ones(25), np.ones(25), cfg)

    def test_ratio_matches_raw_channels(self, rng):
        # the returned ratio equals the rate ratio evaluated from the raw
        # channels through the model module
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        x, ratio = dinkelbach_solve(*ratio_coefficients(ch, sol), cfg)
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
        x_best, ratio_best = brute_force_onoff(*ratio_coefficients(ch, sol), cfg)
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
        x, ratio = brute_force_onoff([0.0] * 3, [0.0] * 3, cfg)
        assert np.array_equal(x, [0, 0, 0])
        assert ratio == pytest.approx(1.0)

    def test_dominant_surface(self):
        cfg = desk_config(n_irs=3, noise_user=1.0, noise_eve=1.0)
        x, _ = brute_force_onoff([100.0, 0.1j, -0.1], [0.0, 3.0, 3.0], cfg)
        assert x[0] == 1  # the clean high-gain surface is always on

    def test_rejects_large_instances(self):
        cfg = desk_config(n_irs=1)
        n = 25
        with pytest.raises(ValueError):
            brute_force_onoff(np.ones(n), np.ones(n), cfg)

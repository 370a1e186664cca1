import numpy as np
import pytest

from irs_secrecy.model import (MAX_SURFACES, ChannelSet, SolutionState,
                               SystemConfig, achievable_rate, dbm_to_watt,
                               effective_channels, rate_gap, secrecy_rate)

from conftest import desk_config, random_channels, random_solution


class TestDbmToWatt:
    def test_noise_level(self):
        assert dbm_to_watt(-110.0) == pytest.approx(1e-14, rel=1e-12)

    def test_one_watt(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_one_milliwatt(self):
        assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            dbm_to_watt(bad)


class TestEffectiveChannels:
    def test_all_off_gives_zero(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=2)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                            onoff=np.zeros(2, dtype=int))
        eff = effective_channels(ch, sol)
        assert np.all(eff.eff_user == 0.0)
        assert np.all(eff.eff_eve == 0.0)

    def test_scalar_cascade(self):
        # one surface, one element, one antenna: h=1, theta=1, G=2
        ch = ChannelSet(g_ap_irs=np.full((1, 1, 1), 2.0 + 0j),
                        h_irs_user=np.ones((1, 1), dtype=complex),
                        g_irs_eve=np.zeros((1, 1), dtype=complex))
        sol = SolutionState(beamformer=np.ones(1, dtype=complex),
                            phases=np.ones(1, dtype=complex),
                            onoff=np.ones(1, dtype=int))
        eff = effective_channels(ch, sol)
        assert eff.eff_user[0] == pytest.approx(2.0)

    def test_matches_term_by_term_sum(self, rng):
        # oracle: plain-python triple loop over surfaces and elements
        cfg = desk_config(n_tx=4, n_refl=4, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg, all_on=False)
        theta = sol.phase_blocks(cfg.n_refl)
        expect = np.zeros(cfg.n_tx, dtype=complex)
        for l in range(cfg.n_irs):
            if sol.onoff[l] == 0:
                continue
            for k in range(cfg.n_refl):
                for t in range(cfg.n_tx):
                    expect[t] += (np.conj(ch.h_irs_user[l, k]) * theta[l, k]
                                  * ch.g_ap_irs[l, k, t])
        eff = effective_channels(ch, sol)
        assert np.allclose(np.conj(expect), eff.eff_user, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=2)
        ch = random_channels(rng, cfg)
        bad = SolutionState(beamformer=np.ones(3, dtype=complex),
                            phases=np.ones(3, dtype=complex),  # wrong length
                            onoff=np.ones(2, dtype=int))
        with pytest.raises(ValueError):
            effective_channels(ch, bad)

    def test_linearity_in_onoff(self, rng):
        # toggling x_l adds/removes exactly the l-th term
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=3)
        ch = random_channels(rng, cfg)
        sol_all = random_solution(rng, cfg)
        for l in range(cfg.n_irs):
            x_without = np.ones(cfg.n_irs, dtype=int)
            x_without[l] = 0
            x_only = np.zeros(cfg.n_irs, dtype=int)
            x_only[l] = 1
            parts = []
            for x in (x_without, x_only):
                s = SolutionState(beamformer=sol_all.beamformer,
                                  phases=sol_all.phases, onoff=x)
                parts.append(effective_channels(ch, s).eff_user)
            total = effective_channels(ch, sol_all).eff_user
            assert np.allclose(parts[0] + parts[1], total, rtol=1e-12, atol=1e-12)


class TestAchievableRate:
    def test_zero_signal(self):
        assert achievable_rate(np.zeros(2, dtype=complex),
                               np.ones(2, dtype=complex), 1.0) == 0.0

    def test_unity_snr(self):
        eff = np.array([1.0 + 0j])
        w = np.array([1.0 + 0j])
        assert achievable_rate(eff, w, 1.0) == pytest.approx(1.0)

    def test_snr_three(self):
        eff = np.array([np.sqrt(3.0) + 0j])
        w = np.array([1.0 + 0j])
        assert achievable_rate(eff, w, 1.0) == pytest.approx(2.0)

    def test_monotone_in_gain(self, rng):
        eff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rates = [achievable_rate(eff, scale * w, 1.0)
                 for scale in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            achievable_rate(np.ones(1, dtype=complex),
                            np.ones(1, dtype=complex), 0.0)


def _scalar_instance(h_abs2, g_abs2):
    """1x1x1 system hitting prescribed |h|^2, |g|^2 with unit noise."""
    ch = ChannelSet(g_ap_irs=np.ones((1, 1, 1), dtype=complex),
                    h_irs_user=np.array([[np.sqrt(h_abs2)]], dtype=complex),
                    g_irs_eve=np.array([[np.sqrt(g_abs2)]], dtype=complex))
    sol = SolutionState(beamformer=np.ones(1, dtype=complex),
                        phases=np.ones(1, dtype=complex),
                        onoff=np.ones(1, dtype=int))
    cfg = desk_config(n_tx=1, n_refl=1, n_irs=1)
    return ch, sol, cfg


class TestSecrecyRate:
    def test_identical_channels_zero(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2)
        ch = random_channels(rng, cfg)
        ch_same = ChannelSet(g_ap_irs=ch.g_ap_irs, h_irs_user=ch.h_irs_user,
                             g_irs_eve=ch.h_irs_user)
        sol = random_solution(rng, cfg)
        assert secrecy_rate(ch_same, sol, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_rate_difference(self):
        # I = 2 (|h|^2 = 3), I_e = 0.5 (|g|^2 = 2^0.5 - 1)
        ch, sol, cfg = _scalar_instance(3.0, 2.0 ** 0.5 - 1.0)
        assert secrecy_rate(ch, sol, cfg) == pytest.approx(1.5, abs=1e-12)

    def test_clamped_at_zero(self):
        ch, sol, cfg = _scalar_instance(2.0 ** 0.5 - 1.0, 3.0)
        assert rate_gap(ch, sol, cfg) == pytest.approx(-1.5, abs=1e-12)
        assert secrecy_rate(ch, sol, cfg) == 0.0

    def test_nonnegative_on_random_instances(self, rng):
        for _ in range(20):
            cfg = desk_config(n_tx=3, n_refl=2, n_irs=2,
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)))
            ch = random_channels(rng, cfg, eve_scale=2.0)
            sol = random_solution(rng, cfg, all_on=False)
            assert secrecy_rate(ch, sol, cfg) >= 0.0

    def test_invariant_under_common_phase_rotation(self, rng):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        base = secrecy_rate(ch, sol, cfg)
        for alpha in (0.3, 1.7, np.pi):
            rotated = SolutionState(beamformer=np.exp(1j * alpha) * sol.beamformer,
                                    phases=sol.phases, onoff=sol.onoff)
            assert secrecy_rate(ch, rotated, cfg) == pytest.approx(base, abs=1e-12)


class TestValidation:
    def test_config_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SystemConfig(n_tx=0)
        with pytest.raises(ValueError):
            SystemConfig(noise_user=0.0)
        with pytest.raises(ValueError):
            SystemConfig(power_budget=-1.0)

    def test_config_rejects_wrong_irs_count(self):
        with pytest.raises(ValueError):
            SystemConfig(n_irs=2)  # default positions list three surfaces

    def test_config_rejects_more_surfaces_than_exact_selection_handles(self):
        def layout(n):
            return np.tile([0.0, 20.0, 20.0], (n, 1))

        assert SystemConfig(n_irs=MAX_SURFACES,
                            irs_positions=layout(MAX_SURFACES)).n_irs == 24
        with pytest.raises(ValueError, match="n_irs must be <= 24"):
            SystemConfig(n_irs=MAX_SURFACES + 1,
                         irs_positions=layout(MAX_SURFACES + 1))

    def test_solution_validate(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=2, power=1.0)
        sol = random_solution(rng, cfg)
        sol.validate(cfg)
        over = SolutionState(beamformer=2.0 * sol.beamformer,
                             phases=sol.phases, onoff=sol.onoff)
        with pytest.raises(ValueError):
            over.validate(cfg)
        squashed = SolutionState(beamformer=sol.beamformer,
                                 phases=0.5 * sol.phases, onoff=sol.onoff)
        with pytest.raises(ValueError):
            squashed.validate(cfg)
        fractional = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                                   onoff=np.array([2, 0]))
        with pytest.raises(ValueError):
            fractional.validate(cfg)

    def test_channels_reject_non_finite(self):
        with pytest.raises(ValueError):
            ChannelSet(g_ap_irs=np.full((1, 1, 1), np.nan, dtype=complex),
                       h_irs_user=np.ones((1, 1)), g_irs_eve=np.ones((1, 1)))

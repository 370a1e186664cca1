from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy.model import (MAX_SURFACES, ChannelSet, SolutionState,
                               SystemConfig, dbm_to_watt, effective_channels,
                               gain_gap, rate_gap, secrecy_rate)

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
        with pytest.raises(ValueError, match="power level must be finite"):
            dbm_to_watt(bad)

    @pytest.mark.parametrize("bad", ["25", True, np.bool_(False), None, [25.0]])
    def test_rejects_non_numbers(self, bad):
        # float() once read "25" as 25 dBm and True as 1 dBm
        with pytest.raises(ValueError, match="power level must be a real number"):
            dbm_to_watt(bad)

    @pytest.mark.parametrize("bad", [4000.0, -4000.0, 3110.5, -3040.5])
    def test_rejects_levels_outside_float64_watts(self, bad):
        # 4000 dBm once raised a bare OverflowError, -4000 dBm gave 0.0 W
        with pytest.raises(ValueError, match="^power_dbm must lie between "
                                             "-3040 and 3110 dBm"):
            dbm_to_watt(bad, "power_dbm")

    def test_range_ends_are_normal_floats(self):
        assert dbm_to_watt(3110.0) == pytest.approx(1e308, rel=1e-12)
        assert dbm_to_watt(-3040.0) == pytest.approx(1e-307, rel=1e-12)


class TestEffectiveChannels:
    def test_all_off_gives_zero(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=2)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer, phases=sol.phases,
                            onoff=np.zeros(2, dtype=int))
        a, b = effective_channels(ch, sol)
        assert np.all(a == 0.0)
        assert np.all(b == 0.0)

    def test_scalar_cascade(self):
        # one surface, one element, one antenna: h=1, theta=1, G=2
        ch = ChannelSet(g_ap_irs=np.full((1, 1, 1), 2.0 + 0j),
                        h_irs_user=np.ones((1, 1), dtype=complex),
                        g_irs_eve=np.zeros((1, 1), dtype=complex))
        sol = SolutionState(beamformer=np.ones(1, dtype=complex),
                            phases=np.ones(1, dtype=complex),
                            onoff=np.ones(1, dtype=int))
        a, _ = effective_channels(ch, sol)
        assert a[0] == pytest.approx(2.0)

    def test_matches_term_by_term_sum(self, rng):
        # oracle: plain-python triple loop over surfaces and elements
        cfg = desk_config(n_tx=4, n_refl=4, n_irs=3)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg, all_on=False)
        theta = sol.phases.reshape(-1, cfg.n_refl)
        expect = np.zeros(cfg.n_tx, dtype=complex)
        for l in range(cfg.n_irs):
            if sol.onoff[l] == 0:
                continue
            for k in range(cfg.n_refl):
                for t in range(cfg.n_tx):
                    expect[t] += (np.conj(ch.h_irs_user[l, k]) * theta[l, k]
                                  * ch.g_ap_irs[l, k, t])
        a, _ = effective_channels(ch, sol)
        assert np.allclose(np.conj(expect), a, rtol=1e-12, atol=1e-12)

    def test_cascade_rows_are_per_element_products(self, rng):
        cfg = desk_config(n_tx=5, n_refl=4, n_irs=3)
        for _ in range(5):
            ch = random_channels(rng, cfg)
            assert ch.cascade_user.shape == (cfg.n_irs * cfg.n_refl, cfg.n_tx)
            for l in range(cfg.n_irs):
                for k in range(cfg.n_refl):
                    row = l * cfg.n_refl + k
                    assert np.array_equal(ch.cascade_user[row],
                                          np.conj(ch.h_irs_user[l, k]) * ch.g_ap_irs[l, k])
                    assert np.array_equal(ch.cascade_eve[row],
                                          np.conj(ch.g_irs_eve[l, k]) * ch.g_ap_irs[l, k])
            assert not ch.cascade_user.flags.writeable

    def test_dimension_mismatch_rejected(self, rng):
        cfg = desk_config(n_tx=3, n_refl=2, n_irs=2)
        ch = random_channels(rng, cfg)
        bad = SolutionState(beamformer=np.ones(3, dtype=complex),
                            phases=np.ones(3, dtype=complex),  # wrong length
                            onoff=np.ones(2, dtype=int))
        with pytest.raises(ValueError):
            effective_channels(ch, bad)
        bad = SolutionState(beamformer=np.ones(3, dtype=complex),
                            phases=np.ones(4, dtype=complex),
                            onoff=np.ones(3, dtype=int))  # wrong length
        with pytest.raises(ValueError, match="onoff vector"):
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
                parts.append(effective_channels(ch, s)[0])
            total = effective_channels(ch, sol_all)[0]
            assert np.allclose(parts[0] + parts[1], total, rtol=1e-12, atol=1e-12)


class TestGainGap:
    # unit noise: a received power g is worth log2(1 + g) bits
    def test_zero_signal(self):
        assert gain_gap(0.0, 0.0, desk_config()) == 0.0

    def test_unity_snr(self):
        assert gain_gap(1.0, 0.0, desk_config()) == pytest.approx(1.0)
        assert gain_gap(0.0, 1.0, desk_config()) == pytest.approx(-1.0)

    def test_snr_three(self):
        assert gain_gap(3.0, 0.0, desk_config()) == pytest.approx(2.0)
        assert gain_gap(0.0, 3.0, desk_config()) == pytest.approx(-2.0)

    def test_monotone_in_gain(self):
        cfg = desk_config()
        gains = (0.1, 0.5, 1.0, 2.0, 5.0)
        user = [gain_gap(g, 1.0, cfg) for g in gains]
        eve = [gain_gap(1.0, g, cfg) for g in gains]
        assert all(b > a for a, b in zip(user, user[1:]))
        assert all(b < a for a, b in zip(eve, eve[1:]))


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

    def test_resolves_tiny_snr(self):
        # log2(1 + x) rounds 1 + 1e-20 to 1 and would report 0 bits
        ch, sol, cfg = _scalar_instance(1e-20, 0.0)
        assert rate_gap(ch, sol, cfg) == pytest.approx(1e-20 / np.log(2.0),
                                                       rel=1e-12, abs=0.0)

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
        # counts and the seed are never truncated or coerced
        for name, value in (("n_tx", 4.7), ("seed", 1.9), ("n_tx", True),
                            ("n_refl", "4"), ("paths_irs_eve", float("nan")),
                            ("n_irs", np.bool_(True)), ("seed", -3)):
            with pytest.raises(ValueError, match=name):
                SystemConfig(**{name: value})
        assert SystemConfig(seed=0).seed == 0
        cfg = SystemConfig(n_tx=np.int64(4), n_refl=8.0, seed=np.float64(3.0))
        assert (cfg.n_tx, cfg.n_refl, cfg.seed) == (4, 8, 3)
        assert all(type(v) is int for v in (cfg.n_tx, cfg.n_refl, cfg.seed))

    @pytest.mark.parametrize("name,value", [
        ("noise_user", "1e-14"), ("power_budget", True), ("noise_eve", np.inf),
        ("pathloss_exponent", True), ("pathloss_exponent", float("nan")),
        ("pathloss_exponent", np.inf), ("pathloss_ref_db", "-60"),
        ("pathloss_ref_db", [-60.0]), ("ap_position", [0, 0, False]),
        ("user_position", [5, "40", 0]), ("eve_position", [5.0, np.nan, 0.0]),
        ("eve_position", [5.0, 60.0]),
        ("irs_positions", [[0, 20, 20], [0, 40, 20], [0, "60", 20]]),
        ("irs_positions", [[0, 20, 20], [0, 40, 20], [0, 60]]),
    ])
    def test_config_rejects_real_field_that_is_not_a_finite_number(self, name, value):
        # each of these was once converted by float() or accepted as is
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SystemConfig(**{name: value})

    def test_config_keeps_real_fields_as_floats(self):
        cfg = SystemConfig(noise_user=1, pathloss_exponent=np.float32(2.0),
                           user_position=[5, 40, 0])
        assert type(cfg.noise_user) is float and type(cfg.pathloss_exponent) is float
        assert cfg.user_position.dtype == float
        assert cfg.user_position.tolist() == [5.0, 40.0, 0.0]

    def test_types_hold_read_only_copies(self, rng):
        # a write into a held array would move a node onto a surface past the
        # check below, or leave the cascade rows describing other channels;
        # the caller's arrays are copied, not frozen
        cfg = desk_config()
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        given = {
            SystemConfig: ("ap_position", "irs_positions", "user_position",
                           "eve_position"),
            ChannelSet: ("g_ap_irs", "h_irs_user", "g_irs_eve"),
            SolutionState: ("beamformer", "phases", "onoff"),
        }
        for source in (cfg, ch, sol):
            arrays = {name: np.array(getattr(source, name))
                      for name in given[type(source)]}
            built = replace(source, **arrays)
            for name, arr in arrays.items():
                held = getattr(built, name)
                with pytest.raises(ValueError, match="read-only"):
                    held[0] = arr[0]
                arr[0] += 1
                assert not np.array_equal(held, arr), name
        for rows in (ch.cascade_user, ch.cascade_eve):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0

    @pytest.mark.parametrize("name,surface", [
        ("ap_position", 0), ("user_position", 1), ("eve_position", 2)])
    def test_config_rejects_a_node_on_a_surface(self, name, surface):
        # the link to that surface would have length 0, where path loss is
        # undefined: refused up front, naming both fields
        position = SystemConfig().irs_positions[surface].tolist()
        with pytest.raises(ValueError, match=rf"^{name} coincides with "
                                             rf"irs_positions\[{surface}\]$"):
            SystemConfig(**{name: position})

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
        # int conversion would truncate the first two to the valid [0, 1]
        # and [1, 0]
        for onoff in ([0.5, 1], [1.7, 0], [np.nan, 1], [1j, 0]):
            with pytest.raises(ValueError, match="onoff"):
                replace(sol, onoff=np.array(onoff)).validate(cfg)
        for name, short in (("beamformer", sol.beamformer[:2]),
                            ("phases", sol.phases[:3]), ("onoff", sol.onoff[:1])):
            with pytest.raises(ValueError, match=f"{name} length must equal"):
                replace(sol, **{name: short}).validate(cfg)
        # Every comparison with NaN is False, so NaN entries pass the bounds
        # above unless they are refused by name.
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            w = sol.beamformer.copy()
            w[1] = bad
            with pytest.raises(ValueError, match="beamformer"):
                replace(sol, beamformer=w).validate(cfg)
            with pytest.raises(ValueError, match="beamformer"):
                replace(sol, beamformer=np.full(cfg.n_tx, bad)).validate(cfg)
            theta = sol.phases.copy()
            theta[2] = bad
            with pytest.raises(ValueError, match="phases"):
                replace(sol, phases=theta).validate(cfg)

    def test_channels_reject_wrong_shapes(self):
        with pytest.raises(ValueError, match="g_ap_irs must be"):
            ChannelSet(g_ap_irs=np.ones((2, 3)), h_irs_user=np.ones((2, 3)),
                       g_irs_eve=np.ones((2, 3)))
        for h, e in (((2, 4), (2, 3)), ((2, 3), (3, 3))):
            with pytest.raises(ValueError, match="must be \\(L, N_r\\)"):
                ChannelSet(g_ap_irs=np.ones((2, 3, 4)), h_irs_user=np.ones(h),
                           g_irs_eve=np.ones(e))

    def test_channels_reject_non_finite(self):
        with pytest.raises(ValueError):
            ChannelSet(g_ap_irs=np.full((1, 1, 1), np.nan, dtype=complex),
                       h_irs_user=np.ones((1, 1)), g_irs_eve=np.ones((1, 1)))

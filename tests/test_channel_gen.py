import numpy as np
import pytest

from irs_secrecy.channel_gen import (PathParams, draw_path_params,
                                     gen_channels, linear_path_gain,
                                     pathloss_db, steering_vector)
from irs_secrecy.model import SystemConfig

from conftest import desk_config


class TestPathloss:
    def test_reference_distance(self):
        cfg = SystemConfig()
        assert pathloss_db(1.0, cfg) == pytest.approx(-61.4)

    def test_ten_meters_exponent_two(self):
        cfg = desk_config(pathloss_exponent=2.0)
        assert pathloss_db(10.0, cfg) == pytest.approx(-81.4)

    def test_hundred_meters_exponent_two(self):
        cfg = desk_config(pathloss_exponent=2.0)
        assert pathloss_db(100.0, cfg) == pytest.approx(-101.4)

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_rejects_nonpositive_distance(self, bad):
        with pytest.raises(ValueError):
            pathloss_db(bad, SystemConfig())


class TestSteeringVector:
    def test_broadside_all_ones(self):
        assert np.allclose(steering_vector(5, 0.0), np.ones(5))

    def test_unit_modulus(self, rng):
        for _ in range(10):
            v = steering_vector(int(rng.integers(1, 30)),
                                float(rng.uniform(-np.pi / 2, np.pi / 2)))
            assert np.allclose(np.abs(v), 1.0, atol=1e-14)

    def test_endfire_two_elements(self):
        v = steering_vector(2, np.pi / 2)
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(-1.0, abs=1e-12)


class TestPathParams:
    def test_angles_in_range(self, rng):
        for _ in range(200):
            p = draw_path_params(rng)
            for ang in (p.aod_ap, p.aoa_irs, p.aod_irs):
                assert -np.pi / 2 <= ang < np.pi / 2

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            PathParams(gain=1.0 + 0j, aod_ap=np.pi, aoa_irs=0.0, aod_irs=0.0)


class TestGenChannels:
    def test_shapes(self, rng):
        cfg = desk_config(n_tx=5, n_refl=7, n_irs=3)
        ch = gen_channels(cfg, rng)
        assert ch.g_ap_irs.shape == (3, 7, 5)
        assert ch.h_irs_user.shape == (3, 7)
        assert ch.g_irs_eve.shape == (3, 7)

    def test_same_seed_bit_identical(self):
        cfg = SystemConfig()
        ch1 = gen_channels(cfg, np.random.default_rng(99))
        ch2 = gen_channels(cfg, np.random.default_rng(99))
        assert np.array_equal(ch1.g_ap_irs, ch2.g_ap_irs)
        assert np.array_equal(ch1.h_irs_user, ch2.h_irs_user)
        assert np.array_equal(ch1.g_irs_eve, ch2.g_irs_eve)

    def test_mean_square_norm_matches_link_gain(self):
        # Monte Carlo oracle: E ||h_l||^2 / N_r should equal the linear gain
        # of the surface -> user link under unit-variance ray gains.
        cfg = desk_config(n_tx=2, n_refl=8, n_irs=1,
                          irs_positions=np.array([[0.0, 20.0, 20.0]]))
        d_user = float(np.linalg.norm(cfg.user_position - cfg.irs_positions[0]))
        expected = linear_path_gain(d_user, cfg)
        rng = np.random.default_rng(31337)
        acc = 0.0
        n_draws = 10_000
        for _ in range(n_draws):
            ch = gen_channels(cfg, rng)
            acc += float(np.sum(np.abs(ch.h_irs_user[0]) ** 2)) / cfg.n_refl
        assert acc / n_draws == pytest.approx(expected, rel=0.05)

    def test_scaling_with_reference_gain(self):
        # +10 dB on the reference gain scales every entry by sqrt(10) exactly
        base = desk_config(n_tx=3, n_refl=4, n_irs=2, pathloss_ref_db=-61.4)
        boosted = desk_config(n_tx=3, n_refl=4, n_irs=2, pathloss_ref_db=-51.4)
        ch_a = gen_channels(base, np.random.default_rng(5))
        ch_b = gen_channels(boosted, np.random.default_rng(5))
        s = np.sqrt(10.0)
        assert np.allclose(ch_b.g_ap_irs, s * ch_a.g_ap_irs, rtol=1e-12)
        assert np.allclose(ch_b.h_irs_user, s * ch_a.h_irs_user, rtol=1e-12)
        assert np.allclose(ch_b.g_irs_eve, s * ch_a.g_irs_eve, rtol=1e-12)

    def test_rank_bounded_by_path_count(self, rng):
        cfg = desk_config(n_tx=6, n_refl=6, n_irs=1, paths_ap_irs=2,
                          irs_positions=np.array([[0.0, 20.0, 20.0]]))
        ch = gen_channels(cfg, rng)
        singulars = np.linalg.svd(ch.g_ap_irs[0], compute_uv=False)
        assert singulars[2] <= 1e-10 * singulars[0]

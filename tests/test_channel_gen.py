"""Channel synthesis tests.

`TestPinnedChannels` compares seeded draws over five layouts with values in
`tests/data/channel_pins.json`. Rewrite that file only for an accepted change
of channels (it changes every answer downstream):

    PYTHONPATH=src python tests/test_channel_gen.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from irs_secrecy.channel_gen import (gen_channels, linear_path_gain,
                                     pathloss_db, steering_vector)
from irs_secrecy.harness import consolidate_single_irs
from irs_secrecy.model import SystemConfig

from conftest import desk_config

PINS = Path(__file__).resolve().parent / "data" / "channel_pins.json"
PIN_SEEDS = (3, 2020)
PIN_RTOL = 1e-12


def pin_layouts() -> dict:
    """Layout name -> config."""
    base = SystemConfig()
    row = np.column_stack([np.zeros(16), np.linspace(20.0, 60.0, 16),
                           np.full(16, 20.0)])
    return {
        "reference": base,
        "many_surfaces": replace(base, n_irs=16, n_refl=4, irs_positions=row),
        "single_surface_48": consolidate_single_irs(base),
        "one_antenna_one_element": replace(base, n_tx=1, n_refl=1),
        "rays_1_2_5": replace(base, paths_ap_irs=1, paths_irs_user=2,
                              paths_irs_eve=5),
    }


def channel_summary(ch) -> dict:
    """Per channel array: its norm and the real and imaginary parts of one
    projection that weighs every entry by a different phase."""
    out = {}
    for name in ("g_ap_irs", "h_irs_user", "g_irs_eve"):
        flat = getattr(ch, name).ravel()
        proj = np.sum(flat * np.exp(0.5j * np.arange(flat.size)))
        out[name] = [float(np.linalg.norm(flat)), float(proj.real),
                     float(proj.imag)]
    return out


def pinned_draws() -> dict:
    return {f"{name}/{seed}": channel_summary(
                gen_channels(cfg, np.random.default_rng(seed)))
            for name, cfg in pin_layouts().items() for seed in PIN_SEEDS}


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

    def test_rejects_no_elements(self):
        with pytest.raises(ValueError, match="element count must be >= 1"):
            steering_vector(0, 0.3)

    def test_endfire_two_elements(self):
        v = steering_vector(2, np.pi / 2)
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(-1.0, abs=1e-12)


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


class TestPinnedChannels:
    def test_draws_match_pins(self):
        # the draw order and arithmetic of every link: a swapped, skipped or
        # reordered draw moves the norms and projections far past PIN_RTOL
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        got = pinned_draws()
        assert got.keys() == pins.keys()
        for key, arrays in pins.items():
            for name, (norm, real, imag) in arrays.items():
                g_norm, g_real, g_imag = got[key][name]
                shift = abs(complex(g_real, g_imag) - complex(real, imag))
                assert abs(g_norm - norm) <= PIN_RTOL * norm, (key, name)
                assert shift <= PIN_RTOL * norm, (key, name)


if __name__ == "__main__":
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pinned_draws(), fh, indent=1)
        fh.write("\n")

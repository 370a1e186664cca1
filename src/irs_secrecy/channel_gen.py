"""Geometric sparse-ray channel synthesis with deterministic seeding.

Each link is a narrowband sum over a small number of rays. A ray carries a
standard circularly-symmetric complex gain on the outer product of uniform
linear array steering vectors (half-wavelength spacing at both ends). The
large-scale attenuation follows a log-distance law and scales the whole ray
sum so that the expected squared channel norm equals the link's linear gain
times the element count.

All randomness flows through the injected generator, in one fixed order. Per
surface the links come AP->surface, surface->user, surface->eavesdropper;
per link the rays come one at a time, and each ray draws its gain from two
scalar standard normals, then three angles uniform on [-pi/2, pi/2): the AP
departure, the surface arrival and the surface departure. All three angles
are drawn even for a surface->receiver link, which uses only the last. There
is no hidden global state, so identical seeds give bit-identical channels.
"""

import numpy as np

from .model import ChannelSet, SystemConfig

__all__ = ["pathloss_db", "linear_path_gain", "steering_vector", "gen_channels"]

_HALF_PI = np.pi / 2.0


def pathloss_db(distance: float, cfg: SystemConfig) -> float:
    """Log-distance path loss in dB: ref_db - 10 * exponent * log10(d)."""
    d = float(distance)
    if not d > 0.0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    return cfg.pathloss_ref_db - 10.0 * cfg.pathloss_exponent * np.log10(d)


def linear_path_gain(distance: float, cfg: SystemConfig) -> float:
    """Linear large-scale gain 10^(pathloss_db / 10)."""
    return float(10.0 ** (pathloss_db(distance, cfg) / 10.0))


def steering_vector(n: int, angle: float) -> np.ndarray:
    """ULA steering vector, element k = exp(j * pi * k * sin(angle))."""
    if n < 1:
        raise ValueError("element count must be >= 1")
    return np.exp(1j * np.pi * np.arange(n) * np.sin(angle))


def _link(rng, n_paths, distance, cfg, n_rx, n_tx=None) -> np.ndarray:
    """Draw one link's rays and sum them, one ray at a time: gain *
    a_rx(surface arrival) a_tx(AP departure)^T for the (n_rx, n_tx) AP->surface
    matrix, or gain * a_rx(surface departure) for a surface->receiver vector
    (n_tx None). The sum is scaled by sqrt(linear_path_gain(distance) / n_paths)."""
    total = np.zeros((n_rx,) if n_tx is None else (n_rx, n_tx), dtype=complex)
    for _ in range(n_paths):
        gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
        aod_ap, aoa_irs, aod_irs = rng.uniform(-_HALF_PI, _HALF_PI, size=3)
        if n_tx is None:
            total += gain * steering_vector(n_rx, aod_irs)
        else:
            total += gain * np.outer(steering_vector(n_rx, aoa_irs),
                                     steering_vector(n_tx, aod_ap))
    return np.sqrt(linear_path_gain(distance, cfg) / n_paths) * total


def gen_channels(cfg: SystemConfig, rng: np.random.Generator) -> ChannelSet:
    """Synthesize one channel realization for every surface.

    Per surface l, in this order: G_l = sqrt(rho / P) * sum_p gain_p
    a_r(aoa_p) a_t(aod_p)^T over the P AP->surface rays (rho the linear gain
    at that distance), then h_l and g_l, the analogous steering-vector sums
    over the surface->user and then the surface->eavesdropper rays. Each ray
    draws its gain, then its three angles; this order pins the determinism
    contract.
    """
    g_ap_irs, h_irs_user, g_irs_eve = [], [], []
    for pos in cfg.irs_positions:
        d_ap, d_user, d_eve = (np.linalg.norm(pos - end) for end in (
            cfg.ap_position, cfg.user_position, cfg.eve_position))
        g_ap_irs.append(_link(rng, cfg.paths_ap_irs, d_ap, cfg, cfg.n_refl, cfg.n_tx))
        h_irs_user.append(_link(rng, cfg.paths_irs_user, d_user, cfg, cfg.n_refl))
        g_irs_eve.append(_link(rng, cfg.paths_irs_eve, d_eve, cfg, cfg.n_refl))
    return ChannelSet(g_ap_irs=np.array(g_ap_irs), h_irs_user=np.array(h_irs_user),
                      g_irs_eve=np.array(g_irs_eve))

"""Core domain types and exact rate evaluation for a multi-IRS secure downlink.

One multi-antenna access point serves a single-antenna user in the presence of
a single-antenna eavesdropper. All direct links are blocked; every signal path
runs through one of L reflecting surfaces, each with per-element phase control
and a binary on/off switch. Everything here is pure and immutable: types are
frozen dataclasses and every operation can be evaluated concurrently.

Unit conventions: powers in watts (dBm only at the config boundary), distances
in meters, rates in bits/s/Hz (all logs base 2).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemConfig",
    "ChannelSet",
    "SolutionState",
    "EffectivePair",
    "dbm_to_watt",
    "effective_channels",
    "achievable_rate",
    "rate_gap",
    "secrecy_rate",
]

# Largest surface count: on/off selection enumerates all 2^n_irs patterns.
MAX_SURFACES = 24

# Feasibility slacks used by SolutionState.validate.
POWER_TOL = 1e-9
MODULUS_TOL = 1e-9


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a power level in dB-milliwatts to watts: 10^((p_dbm - 30) / 10)."""
    p = float(p_dbm)
    if not np.isfinite(p):
        raise ValueError(f"power level must be finite, got {p_dbm!r}")
    return 10.0 ** ((p - 30.0) / 10.0)


def _as_position(value) -> np.ndarray:
    pos = np.asarray(value, dtype=float)
    if pos.shape != (3,):
        raise ValueError(f"position must be a 3-vector, got shape {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValueError("position must be finite")
    return pos


@dataclass(frozen=True)
class SystemConfig:
    """Static system description.

    Counts: n_tx transmit antennas, n_refl reflecting elements per surface,
    n_irs surfaces. noise_user / noise_eve are receiver noise powers in watts,
    power_budget is the transmit power cap in watts. Path loss follows
    pathloss_ref_db - 10 * pathloss_exponent * log10(d) in dB, anchored at 1 m.
    paths_* are the sparse ray counts of the three link types.
    """

    n_tx: int = 16
    n_refl: int = 16
    n_irs: int = 3
    noise_user: float = 1e-14
    noise_eve: float = 1e-14
    power_budget: float = 1.0
    ap_position: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 0.0]))
    irs_positions: np.ndarray = field(
        default_factory=lambda: np.array(
            [[0.0, 20.0, 20.0], [0.0, 40.0, 20.0], [0.0, 60.0, 20.0]]))
    user_position: np.ndarray = field(
        default_factory=lambda: np.array([5.0, 40.0, 0.0]))
    eve_position: np.ndarray = field(
        default_factory=lambda: np.array([5.0, 60.0, 0.0]))
    pathloss_exponent: float = 2.2
    pathloss_ref_db: float = -61.4
    paths_ap_irs: int = 3
    paths_irs_user: int = 3
    paths_irs_eve: int = 3
    seed: int = 2020

    def __post_init__(self):
        for name in ("n_tx", "n_refl", "n_irs",
                     "paths_ap_irs", "paths_irs_user", "paths_irs_eve"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n_irs > MAX_SURFACES:
            raise ValueError(f"n_irs must be <= {MAX_SURFACES} for exact on/off "
                             f"selection, got {self.n_irs}")
        for name in ("noise_user", "noise_eve", "power_budget"):
            val = float(getattr(self, name))
            if not (np.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be a positive finite power in watts")
            object.__setattr__(self, name, val)
        if not np.isfinite(float(self.pathloss_ref_db)):
            raise ValueError("pathloss_ref_db must be finite")
        object.__setattr__(self, "pathloss_ref_db", float(self.pathloss_ref_db))
        object.__setattr__(self, "pathloss_exponent", float(self.pathloss_exponent))
        object.__setattr__(self, "ap_position", _as_position(self.ap_position))
        object.__setattr__(self, "user_position", _as_position(self.user_position))
        object.__setattr__(self, "eve_position", _as_position(self.eve_position))
        irs = np.asarray(self.irs_positions, dtype=float)
        if irs.shape != (self.n_irs, 3):
            raise ValueError(
                f"irs_positions must have shape ({self.n_irs}, 3), got {irs.shape}")
        if not np.all(np.isfinite(irs)):
            raise ValueError("irs_positions must be finite")
        object.__setattr__(self, "irs_positions", irs)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization: per-surface AP->IRS matrices and IRS->user /
    IRS->eavesdropper vectors, stacked along the leading surface axis."""

    g_ap_irs: np.ndarray    # (L, N_r, N_t) complex
    h_irs_user: np.ndarray  # (L, N_r) complex
    g_irs_eve: np.ndarray   # (L, N_r) complex

    def __post_init__(self):
        g = np.asarray(self.g_ap_irs, dtype=complex)
        h = np.asarray(self.h_irs_user, dtype=complex)
        e = np.asarray(self.g_irs_eve, dtype=complex)
        if g.ndim != 3:
            raise ValueError("g_ap_irs must be (L, N_r, N_t)")
        if h.shape != g.shape[:2] or e.shape != g.shape[:2]:
            raise ValueError("h_irs_user / g_irs_eve must be (L, N_r)")
        for arr in (g, h, e):
            if not np.all(np.isfinite(arr)):
                raise ValueError("channel entries must be finite")
        object.__setattr__(self, "g_ap_irs", g)
        object.__setattr__(self, "h_irs_user", h)
        object.__setattr__(self, "g_irs_eve", e)

    @property
    def n_irs(self) -> int:
        return self.g_ap_irs.shape[0]

    @property
    def n_refl(self) -> int:
        return self.g_ap_irs.shape[1]

    @property
    def n_tx(self) -> int:
        return self.g_ap_irs.shape[2]

    def matches(self, cfg: SystemConfig) -> bool:
        return (self.n_irs, self.n_refl, self.n_tx) == (cfg.n_irs, cfg.n_refl, cfg.n_tx)


@dataclass(frozen=True)
class SolutionState:
    """One candidate solution: beamformer w (length N_t), unit-modulus phase
    vector theta (all surfaces stacked, length L * N_r) and binary on/off
    vector x (length L)."""

    beamformer: np.ndarray
    phases: np.ndarray
    onoff: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beamformer",
                           np.asarray(self.beamformer, dtype=complex))
        object.__setattr__(self, "phases",
                           np.asarray(self.phases, dtype=complex))
        object.__setattr__(self, "onoff",
                           np.asarray(self.onoff, dtype=int))

    def phase_blocks(self, n_refl: int) -> np.ndarray:
        """Phases reshaped to one row per surface."""
        return self.phases.reshape(-1, n_refl)

    def validate(self, cfg: SystemConfig) -> None:
        """Raise if the transmit power, unit-modulus, or binary constraints
        are violated beyond the standard slacks."""
        if self.beamformer.shape != (cfg.n_tx,):
            raise ValueError("beamformer length must equal n_tx")
        if self.phases.shape != (cfg.n_irs * cfg.n_refl,):
            raise ValueError("phases length must equal n_irs * n_refl")
        if self.onoff.shape != (cfg.n_irs,):
            raise ValueError("onoff length must equal n_irs")
        power = float(np.real(np.vdot(self.beamformer, self.beamformer)))
        if power > cfg.power_budget + POWER_TOL:
            raise ValueError(f"transmit power {power} exceeds budget {cfg.power_budget}")
        if np.max(np.abs(np.abs(self.phases) - 1.0)) > MODULUS_TOL:
            raise ValueError("phase entries must have unit modulus")
        if not np.all((self.onoff == 0) | (self.onoff == 1)):
            raise ValueError("onoff entries must be 0 or 1")


@dataclass(frozen=True)
class EffectivePair:
    """Aggregated effective channels for fixed surface state: a (user) and b
    (eavesdropper), each of length N_t, so that a^H w is the user's received
    amplitude. Both are zero when every surface is switched off."""

    eff_user: np.ndarray
    eff_eve: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eff_user",
                           np.asarray(self.eff_user, dtype=complex))
        object.__setattr__(self, "eff_eve",
                           np.asarray(self.eff_eve, dtype=complex))


def effective_channels(ch: ChannelSet, sol: SolutionState) -> EffectivePair:
    """Aggregate the per-surface cascades into the effective pair (a, b).

    a^H = sum_l x_l h_l^H diag(theta_l) G_l, and b^H likewise with the
    eavesdropper vectors.
    """
    n_irs, n_refl, _ = ch.g_ap_irs.shape
    if sol.phases.shape != (n_irs * n_refl,):
        raise ValueError("phase vector does not match channel dimensions")
    if sol.onoff.shape != (n_irs,):
        raise ValueError("onoff vector does not match channel dimensions")
    theta = sol.phase_blocks(n_refl)
    x = sol.onoff.astype(float)
    # row_l = h_l^H diag(theta_l) G_l, one row per surface
    rows_user = np.einsum("ln,lnt->lt", np.conj(ch.h_irs_user) * theta, ch.g_ap_irs)
    rows_eve = np.einsum("ln,lnt->lt", np.conj(ch.g_irs_eve) * theta, ch.g_ap_irs)
    a = np.conj(np.sum(x[:, None] * rows_user, axis=0))
    b = np.conj(np.sum(x[:, None] * rows_eve, axis=0))
    return EffectivePair(eff_user=a, eff_eve=b)


def achievable_rate(eff: np.ndarray, w: np.ndarray, noise: float) -> float:
    """log2(1 + |eff^H w|^2 / noise) in bits/s/Hz."""
    if not noise > 0.0:
        raise ValueError("noise power must be positive")
    gain = abs(np.vdot(eff, w)) ** 2
    return float(np.log2(1.0 + gain / noise))


def rate_gap(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig) -> float:
    """Unclamped user-minus-eavesdropper rate difference.

    The optimizers ascend this quantity; the clamp in secrecy_rate has zero
    gradient at zero and would stall them.
    """
    eff = effective_channels(ch, sol)
    rate_user = achievable_rate(eff.eff_user, sol.beamformer, cfg.noise_user)
    rate_eve = achievable_rate(eff.eff_eve, sol.beamformer, cfg.noise_eve)
    return rate_user - rate_eve


def secrecy_rate(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig) -> float:
    """Secrecy rate max(0, I - I_e) in bits/s/Hz."""
    return max(0.0, rate_gap(ch, sol, cfg))

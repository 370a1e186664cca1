"""Core domain types and exact rate evaluation for a multi-IRS secure downlink.

One multi-antenna access point serves a single-antenna user in the presence of
a single-antenna eavesdropper. All direct links are blocked; every signal path
runs through one of L reflecting surfaces, each with per-element phase control
and a binary on/off switch. Everything here is pure and immutable: types are
frozen dataclasses of read-only arrays; every operation can run concurrently.

With the surfaces fixed, the problem reduces to the effective pair (a, b):
two complex arrays from `effective_channels`, and `_pair_gap` is the one
formula for the rate difference a beamformer w achieves on them.

Unit conventions: powers in watts (dBm only at the config boundary), distances
in meters, rates in bits/s/Hz (all logs base 2).
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemConfig",
    "ChannelSet",
    "SolutionState",
    "dbm_to_watt",
    "effective_channels",
    "gain_gap",
    "rate_gap",
    "secrecy_rate",
]

# Largest surface count: on/off selection enumerates all 2^n_irs patterns.
MAX_SURFACES = 24

# Feasibility slacks used by SolutionState.validate.
POWER_TOL = 1e-9
MODULUS_TOL = 1e-9

LN2 = math.log(2.0)

# Power levels dbm_to_watt accepts: 1e-307 to 1e308 W, normal float64 numbers.
DBM_RANGE = (-3040.0, 3110.0)


def _is_number(v) -> bool:
    """True for an int or a float, numpy types included, but not a bool."""
    return type(v) is not bool and isinstance(v, (int, float, np.integer, np.floating))


def _frozen(value, dtype) -> np.ndarray:
    """A read-only copy of value as an array of dtype."""
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _real(value, name: str, shape: tuple = ()):
    """value as a float (shape ()) or a read-only float array of that shape.

    The one check of every real-valued input: a wrong shape, a bool, a str or
    any other non-number, and a non-finite value are refused with a
    ValueError that names the field.
    """
    arr = np.asarray(value, dtype=object)  # keeps True apart from 1
    if arr.shape != shape or not all(_is_number(v) for v in arr.flat):
        what = "a real number" if shape == () else f"real numbers of shape {shape}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    real = _frozen(arr, float)
    if not np.isfinite(real).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(real) if shape == () else real


def dbm_to_watt(p_dbm: float, name: str = "power level") -> float:
    """Convert a power level in dB-milliwatts to watts: 10^((p_dbm - 30) / 10).

    `name` is the field or key the level comes from. Besides what `_real`
    refuses, a level outside DBM_RANGE is refused with a ValueError that
    names it: far above, the watts overflow float64; far below, they lose
    precision and then round to 0 W.
    """
    p_dbm = _real(p_dbm, name)
    low, high = DBM_RANGE
    if not low <= p_dbm <= high:
        raise ValueError(f"{name} must lie between {low:g} and {high:g} dBm, "
                         f"got {p_dbm!r}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Static system description.

    Counts: n_tx transmit antennas, n_refl reflecting elements per surface,
    n_irs surfaces. noise_user / noise_eve are receiver noise powers in watts,
    power_budget is the transmit power cap in watts. Path loss follows
    pathloss_ref_db - 10 * pathloss_exponent * log10(d) in dB, anchored at 1 m.
    paths_* are the sparse ray counts of the three link types. No AP, user or
    eavesdropper position may coincide with a surface's: path loss needs d > 0.
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
        for name in ("n_tx", "n_refl", "n_irs", "paths_ap_irs", "paths_irs_user",
                     "paths_irs_eve", "seed"):
            value = getattr(self, name)
            if not (_is_number(value) and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            minimum = 0 if name == "seed" else 1
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_irs > MAX_SURFACES:
            raise ValueError(f"n_irs must be <= {MAX_SURFACES} for exact on/off "
                             f"selection, got {self.n_irs}")
        for name in ("noise_user", "noise_eve", "power_budget"):
            val = _real(getattr(self, name), name)
            if not val > 0.0:
                raise ValueError(f"{name} must be a positive power in watts, "
                                 f"got {val!r}")
            object.__setattr__(self, name, val)
        for name in ("pathloss_exponent", "pathloss_ref_db"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "irs_positions", _real(
            self.irs_positions, "irs_positions", (self.n_irs, 3)))
        surfaces = self.irs_positions.tolist()
        for name in ("ap_position", "user_position", "eve_position"):
            object.__setattr__(self, name, _real(getattr(self, name), name, (3,)))
            if (point := getattr(self, name).tolist()) in surfaces:
                raise ValueError(f"{name} coincides with "
                                 f"irs_positions[{surfaces.index(point)}]")

@dataclass(frozen=True)
class ChannelSet:
    """One channel realization: per-surface AP->IRS matrices and IRS->user /
    IRS->eavesdropper vectors, stacked along the leading surface axis.

    The solvers read only the derived, read-only cascade rows: row k of
    cascade_user is conj(h_k) G_k for element k of the stacked phase vector,
    with G_k its row of g_ap_irs (shape (L * N_r, N_t)); likewise cascade_eve.
    """

    g_ap_irs: np.ndarray    # (L, N_r, N_t) complex
    h_irs_user: np.ndarray  # (L, N_r) complex
    g_irs_eve: np.ndarray   # (L, N_r) complex
    cascade_user: np.ndarray = field(init=False, repr=False, compare=False)
    cascade_eve: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, h, e = (_frozen(v, complex)
                   for v in (self.g_ap_irs, self.h_irs_user, self.g_irs_eve))
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
        g_rows = g.reshape(-1, g.shape[2])
        for name, v in (("cascade_user", h), ("cascade_eve", e)):
            rows = np.conj(v).reshape(-1, 1) * g_rows
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @property
    def n_irs(self) -> int:
        return self.g_ap_irs.shape[0]

    @property
    def n_refl(self) -> int:
        return self.g_ap_irs.shape[1]


@dataclass(frozen=True)
class SolutionState:
    """One candidate solution: beamformer w (length N_t), unit-modulus phase
    vector theta (all surfaces stacked, length L * N_r) and binary on/off
    vector x (length L)."""

    beamformer: np.ndarray
    phases: np.ndarray
    onoff: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beamformer", _frozen(self.beamformer, complex))
        object.__setattr__(self, "phases", _frozen(self.phases, complex))
        onoff = np.asarray(self.onoff)
        if onoff.dtype.kind not in "biu" and not (onoff.dtype.kind in "fc" and np.all(
                np.isfinite(onoff) & (onoff == np.round(onoff.real)))):
            raise ValueError(f"onoff entries must be integers, got {self.onoff!r}")
        object.__setattr__(self, "onoff", _frozen(onoff.real, int))

    def validate(self, cfg: SystemConfig) -> None:
        """Raise on non-finite entries, or if the transmit power, unit-modulus,
        or binary constraints are violated beyond the standard slacks."""
        sizes = {"beamformer": cfg.n_tx, "phases": cfg.n_irs * cfg.n_refl,
                 "onoff": cfg.n_irs}
        for name, size in sizes.items():
            entries = getattr(self, name)
            if entries.shape != (size,):
                raise ValueError(f"{name} length must equal {size}")
            if not np.isfinite(entries).all():
                raise ValueError(f"{name} entries must be finite")
        power = float(np.real(np.vdot(self.beamformer, self.beamformer)))
        if power > cfg.power_budget + POWER_TOL:
            raise ValueError(f"transmit power {power} exceeds budget {cfg.power_budget}")
        if np.max(np.abs(np.abs(self.phases) - 1.0)) > MODULUS_TOL:
            raise ValueError("phase entries must have unit modulus")
        if not np.all((self.onoff == 0) | (self.onoff == 1)):
            raise ValueError("onoff entries must be 0 or 1")


def effective_channels(ch: ChannelSet, sol: SolutionState):
    """Aggregate the per-surface cascades into the effective pair (a, b).

    a^H = sum_l x_l h_l^H diag(theta_l) G_l, and b^H likewise with the
    eavesdropper vectors: one product of the on/off-weighted phases with the
    cascade rows. Returns the complex arrays (a, b), each of length N_t, so
    that a^H w is the user's received amplitude; both are zero when every
    surface is switched off.
    """
    if sol.phases.shape != (ch.n_irs * ch.n_refl,):
        raise ValueError("phase vector does not match channel dimensions")
    if sol.onoff.shape != (ch.n_irs,):
        raise ValueError("onoff vector does not match channel dimensions")
    weights = np.repeat(sol.onoff, ch.n_refl) * sol.phases
    return (np.conj(weights @ ch.cascade_user),
            np.conj(weights @ ch.cascade_eve))


def gain_gap(gain_user: float, gain_eve: float, cfg: SystemConfig) -> float:
    """Unclamped rate difference (log1p(gain_user / s2) -
    log1p(gain_eve / s2e)) / ln 2 of the received signal powers, in bits."""
    return (math.log1p(gain_user / cfg.noise_user)
            - math.log1p(gain_eve / cfg.noise_eve)) / LN2


def _pair_gap(a: np.ndarray, b: np.ndarray, w: np.ndarray,
              cfg: SystemConfig) -> float:
    """Unclamped rate difference that w achieves on the effective pair (a, b)."""
    return gain_gap(abs(np.vdot(a, w)) ** 2, abs(np.vdot(b, w)) ** 2, cfg)


def rate_gap(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig) -> float:
    """Unclamped user-minus-eavesdropper rate difference.

    The optimizers ascend this quantity; the clamp in secrecy_rate has zero
    gradient at zero and would stall them.
    """
    return _pair_gap(*effective_channels(ch, sol), sol.beamformer, cfg)


def secrecy_rate(ch: ChannelSet, sol: SolutionState, cfg: SystemConfig) -> float:
    """Secrecy rate max(0, I - I_e) in bits/s/Hz."""
    return max(0.0, rate_gap(ch, sol, cfg))

"""Experiment harness: configuration, Monte Carlo sweeps, baselines, CSV, CLI.

Experiments
    convergence    per-round secrecy-rate trace of the alternating optimizer
                   (ao-multi-irs, or single-irs; the baselines have no trace)
    power_sweep    average secrecy rate versus transmit power (dBm grid)
    element_sweep  average secrecy rate versus per-surface element count

Schemes
    ao-multi-irs   full alternating optimization on the multi-surface layout
    single-irs     alternating optimization on one consolidated surface at the
                   last listed position, carrying the total element count
    mrt            matched filter over untuned surfaces, eavesdropper ignored
    random-bf      random full-power beamformer and random phases

Determinism: the per-trial stream is derived counter-style from the master
seed, SeedSequence([master, trial, tag]) with tag 0 for channel synthesis
and 100 + scheme id for scheme-local randomness. ao-multi-irs, mrt and
random-bf share the tag-0 channels, so they see the same fading; single-irs
draws its own channels for the consolidated geometry from the same tag-0
stream, so its fading is not paired with the others'. Reordering or parallelizing
trials never changes any output byte. The runtime_ms column is 0.0 unless
timing is requested, since wall-clock values would break byte-level
reproducibility.
"""

import argparse
import csv
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .ao import ao_solve, matched_filter
from .channel_gen import gen_channels
from .model import (ChannelSet, SolutionState, SystemConfig, dbm_to_watt,
                    secrecy_rate)

__all__ = [
    "ExperimentRecord",
    "SCHEMES",
    "load_config",
    "default_sweeps",
    "mrt_baseline",
    "random_baseline",
    "consolidate_single_irs",
    "run_experiment",
    "write_csv",
    "main",
]

log = logging.getLogger(__name__)

CSV_HEADER = ["trial", "scheme", "sweep_name", "sweep_value",
              "secrecy_rate", "rounds", "runtime_ms", "seed"]

SCHEMES = ("ao-multi-irs", "single-irs", "mrt", "random-bf")
_SCHEME_IDS = {name: i for i, name in enumerate(SCHEMES)}

EXPERIMENTS = ("convergence", "power_sweep", "element_sweep")


@dataclass(frozen=True)
class ExperimentRecord:
    """One CSV row: a single trial of a single scheme at one sweep point."""

    trial: int
    scheme: str
    sweep_name: str
    sweep_value: float
    secrecy_rate: float
    rounds: int
    runtime_ms: float
    seed: int


def default_sweeps() -> dict:
    return {
        "power_sweep_dbm": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0],
        "element_sweep": [4, 8, 16, 32, 64],
    }


# Keys a JSON config may hold, besides the sweep grids of default_sweeps().
_CONFIG_KEYS = ("n_tx", "n_refl", "n_irs", "pathloss_exponent", "pathloss_ref_db",
                "paths_ap_irs", "paths_irs_user", "paths_irs_eve", "seed",
                "ap_position", "irs_positions", "user_position", "eve_position")
_DBM_KEYS = {"noise_user_dbm": "noise_user", "noise_eve_dbm": "noise_eve",
             "power_dbm": "power_budget"}


def load_config(path: str | None):
    """Build (SystemConfig, sweeps) from a JSON file; missing keys keep the
    built-in defaults and unknown keys are rejected. The file must hold a
    JSON object. Power-like entries are given in dBm in the file and
    converted to watts here, at the boundary; like every real-valued field
    they must be JSON numbers. The sweep grids are checked by run_experiment."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file must hold a JSON object, "
                             f"got {type(raw).__name__}")
    sweeps = default_sweeps()
    unknown = sorted(set(raw) - set(_CONFIG_KEYS) - set(_DBM_KEYS) - set(sweeps))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {key: raw[key] for key in _CONFIG_KEYS if key in raw}
    for key, name in _DBM_KEYS.items():
        if key in raw:
            kwargs[name] = dbm_to_watt(raw[key], key)
    cfg = SystemConfig(**kwargs)
    for key in sweeps:
        if key in raw:
            sweeps[key] = raw[key]
    return cfg, sweeps


def mrt_baseline(ch: ChannelSet, cfg: SystemConfig) -> SolutionState:
    """Matched-filter baseline: maximize the user rate, ignore the
    eavesdropper.

    All surfaces on with a neutral (uniform) phase configuration; the
    beamformer is the full-power matched filter to the resulting effective
    user channel. The surfaces are deliberately not tuned: this baseline
    captures transmit-side-only optimization.
    """
    ones = np.ones(cfg.n_irs * cfg.n_refl, dtype=complex)
    return SolutionState(beamformer=matched_filter(ch, cfg, ones), phases=ones,
                         onoff=np.ones(cfg.n_irs, dtype=int))


def random_baseline(ch: ChannelSet, cfg: SystemConfig,
                    rng: np.random.Generator) -> SolutionState:
    """All surfaces on, random unit-modulus phases, random full-power
    beamformer."""
    n_tx = cfg.n_tx
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    w = np.sqrt(cfg.power_budget) * v / np.linalg.norm(v)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=cfg.n_irs * cfg.n_refl)
    return SolutionState(beamformer=w, phases=np.exp(1j * angles),
                         onoff=np.ones(cfg.n_irs, dtype=int))


def consolidate_single_irs(cfg: SystemConfig) -> SystemConfig:
    """Single-surface comparison geometry: one surface at the last listed
    position carrying the total element count n_irs * n_refl."""
    return replace(cfg,
                   n_irs=1,
                   n_refl=cfg.n_irs * cfg.n_refl,
                   irs_positions=cfg.irs_positions[-1:].copy())


def _trial_base_seed(master_seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([master_seed, trial]).generate_state(1)[0])


def _stream(master_seed: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial, tag]))


def _run_scheme(scheme, cfg, trial):
    """Solve one scheme of SCHEMES (run_experiment rejects the rest) on
    channels freshly derived from the master seed cfg.seed for the trial;
    returns the secrecy-rate trace, one entry per AO round after the warm
    start (a baseline has the one entry)."""
    if scheme == "single-irs":
        cfg = consolidate_single_irs(cfg)
    ch = gen_channels(cfg, _stream(cfg.seed, trial, 0))
    if scheme == "mrt":
        return [secrecy_rate(ch, mrt_baseline(ch, cfg), cfg)]
    if scheme == "random-bf":
        rng = _stream(cfg.seed, trial, 100 + _SCHEME_IDS[scheme])
        return [secrecy_rate(ch, random_baseline(ch, cfg, rng), cfg)]
    return ao_solve(ch, cfg)[1]       # ao-multi-irs and single-irs


def _sweep_task(args):
    """One (sweep point, trial) unit of work; top level so it pickles. The
    "round" sweep of the convergence experiment writes one row per trace
    entry, every other sweep one row per scheme with the final rate."""
    cfg, schemes, sweep_name, sweep_value, trial, timing = args
    records = []
    base_seed = _trial_base_seed(cfg.seed, trial)
    for scheme in schemes:
        start = time.perf_counter()
        trace = _run_scheme(scheme, cfg, trial)
        elapsed = (time.perf_counter() - start) * 1000.0
        points = (enumerate(trace) if sweep_name == "round"
                  else [(sweep_value, trace[-1])])
        records.extend(ExperimentRecord(
            trial=trial, scheme=scheme, sweep_name=sweep_name,
            sweep_value=float(value), secrecy_rate=float(rate),
            rounds=len(trace) - 1, runtime_ms=elapsed if timing else 0.0,
            seed=base_seed) for value, rate in points)
    return records


def run_experiment(cfg: SystemConfig, experiment: str, trials: int,
                   out_path: str | None = None, sweeps: dict | None = None,
                   master_seed: int | None = None, schemes=None,
                   workers: int = 1, timing: bool = False):
    """Run one experiment and optionally write the CSV; returns the records.

    Results are a pure function of (cfg, experiment, trials, sweeps,
    master_seed, schemes): identical inputs give byte-identical CSVs at any
    worker count (with timing off). The convergence experiment writes one row
    per AO round of each scheme: ao-multi-irs by default, single-irs on its
    consolidated surface; mrt and random-bf are one-shot, have no trace and
    are rejected there. schemes, when given, must be a non-empty list or
    tuple of distinct names from SCHEMES. trials and workers must be positive
    integers (not bool), sweeps may hold only the keys of default_sweeps(),
    every sweep grid must be a list of numbers, and master_seed a seed that
    SystemConfig accepts. A sweep experiment rejects an empty grid and a grid
    that repeats a value; element_sweep also rejects a non-integral count. An
    out_path that cannot be opened for writing fails before any trial is
    solved.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    for name, value in (("trials", trials), ("workers", workers)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    unknown = sorted(set(sweeps or {}) - set(default_sweeps()))
    if unknown:
        raise ValueError(f"unknown sweep keys: {', '.join(unknown)}")
    sweeps = {**default_sweeps(), **(sweeps or {})}
    for key, grid in sweeps.items():
        if not (isinstance(grid, (list, tuple, np.ndarray)) and all(
                isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool) for v in grid)):
            raise ValueError(f"{key} must be a list of numbers, got {grid!r}")
    if master_seed is not None:
        cfg = replace(cfg, seed=master_seed)
    if schemes is None:
        schemes = ("ao-multi-irs",) if experiment == "convergence" else SCHEMES
    if not (isinstance(schemes, (list, tuple)) and schemes):
        raise ValueError(f"schemes must be a non-empty list of scheme names, "
                         f"got {schemes!r}")
    schemes = tuple(schemes)
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if schemes.count(scheme) > 1:
            raise ValueError(f"scheme {scheme!r} is listed more than once")
        if experiment == "convergence" and scheme in ("mrt", "random-bf"):
            raise ValueError(f"convergence traces the alternating optimizer; "
                             f"scheme {scheme!r} has no trace")

    if experiment == "convergence":
        tasks = [(cfg, schemes, "round", None, t, timing)
                 for t in range(trials)]
    else:
        key = "power_sweep_dbm" if experiment == "power_sweep" else "element_sweep"
        grid = [float(v) for v in sweeps[key]]
        if not grid:
            raise ValueError(f"{key} is empty")
        if len(set(grid)) < len(grid):
            raise ValueError(f"{key} repeats a value")
        if key == "element_sweep" and not all(m.is_integer() for m in grid):
            raise ValueError(f"{key} values must be integers")
        if experiment == "power_sweep":
            tasks = [(replace(cfg, power_budget=dbm_to_watt(p, key)), schemes,
                      "power_dbm", p, t, timing)
                     for p in grid for t in range(trials)]
        else:
            tasks = [(replace(cfg, n_refl=int(m)), schemes,
                      "n_refl", m, t, timing)
                     for m in grid for t in range(trials)]

    if out_path is not None:
        # Refuse an unwritable path before solving, and leave no file behind.
        existed = os.path.exists(out_path)
        open(out_path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(out_path)

    # A fork-started pool launches all max_workers processes up front.
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_task, tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        chunks = [_sweep_task(task) for task in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.trial, r.scheme, r.sweep_name, r.sweep_value))

    log.info("experiment=%s trials=%d schemes=%s records=%d",
             experiment, trials, ",".join(schemes), len(records))
    if out_path is not None:
        write_csv(records, out_path)
    return records


def write_csv(records, out_path: str) -> None:
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.trial, r.scheme, r.sweep_name,
                             repr(float(r.sweep_value)),
                             repr(float(r.secrecy_rate)),
                             r.rounds,
                             repr(float(r.runtime_ms)),
                             r.seed])


def summarize(records) -> list[str]:
    """Per-(scheme, sweep point) average secrecy rate, as printable lines."""
    groups: dict = {}
    for r in records:
        groups.setdefault((r.scheme, r.sweep_name, r.sweep_value), []).append(r.secrecy_rate)
    lines = []
    for (scheme, name, value), rates in sorted(groups.items()):
        lines.append(f"{scheme} {name}={value:g} trials={len(rates)} "
                     f"asr={float(np.mean(rates)):.6f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irs-secrecy",
        description="Monte Carlo secrecy-rate experiments for a multi-IRS "
                    "mmWave downlink.")
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (defaults to the config seed)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--scheme", default=None,
                        help="comma-separated subset of: " + ", ".join(SCHEMES))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--emit-summary", action="store_true",
                        help="print per-sweep-point average secrecy rates")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock runtimes in the CSV (breaks "
                             "byte-level reproducibility)")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        cfg, sweeps = load_config(args.config)
        schemes = None if args.scheme is None else args.scheme.split(",")
        records = run_experiment(
            cfg, args.experiment, args.trials, out_path=args.out,
            sweeps=sweeps, master_seed=args.seed, schemes=schemes,
            workers=args.workers, timing=args.timing)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit_summary:
        for line in summarize(records):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

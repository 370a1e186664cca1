"""Acceptance gate: one test per release criterion, tolerances pinned inline.

Each test prints a single PASS/FAIL line (visible with pytest -s) and asserts
the criterion at its stated tolerance. Monte Carlo sizes match the stated
minimums; seeds are fixed so the gate is reproducible.
"""

import itertools
import time

import numpy as np

from irs_secrecy.ao import ao_solve
from irs_secrecy.beamforming import gevd_oracle
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.harness import run_experiment
from irs_secrecy.model import SolutionState, SystemConfig, secrecy_rate
from irs_secrecy.onoff import dinkelbach_solve, ratio_coefficients
from irs_secrecy.reference.beamforming import sca_solve
from irs_secrecy.reference.onoff import (brute_force_onoff, quadratic_expansion,
                                         quadratic_value)
from irs_secrecy.reference.phases import (mo_ascend, phase_grid_oracle,
                                          phase_objective_gradient)

from conftest import (desk_config, fd_angle_gradient, pair_gap, random_channels,
                      random_coefficients, random_solution, user_aligned_phases)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n{status}  criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_beamforming_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    slowest = 0.0
    n_instances = 100
    for k in range(n_instances):
        n_tx = int(rng.choice([2, 4, 8, 16]))
        cfg = desk_config(n_tx=n_tx,
                          noise_eve=float(10.0 ** rng.uniform(-0.5, 0.5)),
                          power=float(10.0 ** rng.uniform(-1.0, 2.0)))
        a = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
        b = (10.0 ** rng.uniform(-1.0, 1.0)
             * (rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)))
        start = time.perf_counter()
        w, _, _ = sca_solve(a, b, cfg)
        _, rate_oracle = gevd_oracle(a, b, cfg)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        worst = max(worst, abs(pair_gap(a, b, w, cfg) - rate_oracle))
    ok = worst <= 1e-3 and slowest < 1.0
    report(1, "beamforming oracle equivalence", ok,
           f"worst |sca - gevd| = {worst:.2e} (tol 1e-3) over {n_instances} "
           f"instances, slowest {slowest * 1e3:.1f} ms (< 1 s)")


def test_criterion_2_onoff_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    mismatches = 0
    n_instances = 200
    for k in range(n_instances):
        n_irs = int(rng.integers(2, 11))
        v_user, v_eve = random_coefficients(rng, n_irs,
                                            spread=float(rng.uniform(0.5, 2.0)))
        cfg = desk_config(n_irs=n_irs,
                          noise_user=float(10.0 ** rng.uniform(-2, 1)),
                          noise_eve=float(10.0 ** rng.uniform(-2, 1)))
        x_bf, ratio_bf = brute_force_onoff(v_user, v_eve, cfg)
        x, ratio = dinkelbach_solve(v_user, v_eve, cfg)
        worst = max(worst, abs(ratio - ratio_bf) / max(1.0, abs(ratio_bf)))
        mismatches += not np.array_equal(x, x_bf)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and mismatches == 0 and elapsed < 30.0
    report(2, "on-off oracle equivalence", ok,
           f"worst ratio error = {worst:.2e} (tol 1e-9), {mismatches} selection "
           f"mismatches over {n_instances} instances with L in 2..10, "
           f"suite {elapsed:.1f} s (< 30 s)")


def test_criterion_3_gradient_matches_finite_differences():
    rng = np.random.default_rng(303)
    worst = 0.0
    n_instances = 50
    step = 1e-6
    for _ in range(n_instances):
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=2,
                          noise_eve=float(10.0 ** rng.uniform(-0.3, 0.3)))
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg, all_on=False)
        euclidean = phase_objective_gradient(ch, sol, cfg)
        analytic = 2.0 * np.imag(euclidean * np.conj(sol.phases))
        numeric = fd_angle_gradient(ch, sol, cfg, step)
        rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-300)
        worst = max(worst, rel)
    ok = worst < 1e-6
    report(3, "phase gradient vs central differences", ok,
           f"worst relative error = {worst:.2e} (tol 1e-6) over {n_instances} instances")


def test_criterion_4_phase_optimality_small_scale():
    rng = np.random.default_rng(404)
    worst = -np.inf
    n_instances = 50
    for _ in range(n_instances):
        cfg = desk_config(n_tx=4, n_refl=2, n_irs=1,
                          noise_eve=float(10.0 ** rng.uniform(-0.3, 0.3)))
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        sol = SolutionState(beamformer=sol.beamformer,
                            phases=user_aligned_phases(ch, sol), onoff=sol.onoff)
        _, trace = mo_ascend(ch, sol, cfg)
        _, best_grid = phase_grid_oracle(ch, sol, cfg, resolution=720)
        worst = max(worst, best_grid - trace[-1])
    ok = worst <= 1e-3
    report(4, "phase ascent vs 720^2 grid", ok,
           f"worst shortfall = {worst:.2e} bits (tol 1e-3) over {n_instances} instances")


def test_criterion_5_ao_monotone_convergence():
    cfg = SystemConfig()  # reference layout: N_t = N_r = 16, 3 surfaces
    n_seeds = 100
    start = time.perf_counter()
    worst_drop = 0.0
    max_rounds_used = 0
    worst_gap = 0.0
    all_converged = True
    for trial in range(n_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([50505, trial]))
        ch = gen_channels(cfg, rng)
        sol, trace = ao_solve(ch, cfg)
        sol.validate(cfg)
        worst_gap = max(worst_gap, abs(trace[-1] - secrecy_rate(ch, sol, cfg)))
        drops = np.diff(trace)
        worst_drop = min(worst_drop, float(drops.min())) if len(drops) else worst_drop
        rounds = len(trace) - 1
        max_rounds_used = max(max_rounds_used, rounds)
        converged = len(trace) >= 2 and (trace[-1] - trace[-2]) < 1e-5
        all_converged = all_converged and converged and rounds <= 30
    elapsed = time.perf_counter() - start
    ok = (worst_drop >= -1e-12 and all_converged and worst_gap <= 1e-12
          and elapsed < 600.0)
    report(5, "alternating optimization convergence", ok,
           f"{n_seeds} seeds, every solution valid: worst trace decrease "
           f"{worst_drop:.1e} (floor -1e-12), max rounds {max_rounds_used} "
           f"(<= 30), worst |final trace - secrecy rate| {worst_gap:.1e} "
           f"(tol 1e-12), batch {elapsed:.0f} s (< 600 s)")


def _bootstrap_fifth_percentile(diff, rng, n_boot=2000):
    diff = np.asarray(diff)
    idx = rng.integers(0, len(diff), size=(n_boot, len(diff)))
    return float(np.percentile(diff[idx].mean(axis=1), 5.0))


def test_criterion_6_scheme_ordering():
    cfg = SystemConfig()  # P = 30 dBm
    trials = 200
    records = run_experiment(cfg, "power_sweep", trials=trials,
                             sweeps={"power_sweep_dbm": [30.0]},
                             master_seed=60606)
    rates = {}
    for r in records:
        rates.setdefault(r.scheme, {})[r.trial] = r.secrecy_rate
    ordered = [np.array([rates[s][t] for t in range(trials)])
               for s in ("ao-multi-irs", "single-irs", "mrt", "random-bf")]
    boot_rng = np.random.default_rng(77)
    bounds = [_bootstrap_fifth_percentile(hi - lo, boot_rng)
              for hi, lo in zip(ordered, ordered[1:])]
    means = [float(x.mean()) for x in ordered]
    gain = (means[0] - means[1]) / means[1] if means[1] > 0 else np.inf
    ok = all(b >= -1e-12 for b in bounds)
    report(6, "scheme ordering at 30 dBm", ok,
           f"mean ASR ao={means[0]:.4f} >= single={means[1]:.4f} >= "
           f"mrt={means[2]:.4f} >= rb={means[3]:.4f}; bootstrap 5th pct of "
           f"gaps {['%.4f' % b for b in bounds]} all >= 0; multi-over-single "
           f"gain {100 * gain:.0f}% (reported, not asserted)")


def test_criterion_7_element_count_trend():
    cfg = SystemConfig()
    trials = 200
    records = run_experiment(cfg, "element_sweep", trials=trials,
                             sweeps={"element_sweep": [4, 8, 16, 32]},
                             master_seed=70707, schemes=("ao-multi-irs",))
    groups = {}
    for r in records:
        groups.setdefault(r.sweep_value, []).append(r.secrecy_rate)
    curve = [float(np.mean(groups[m])) for m in sorted(groups)]
    ok = all(b >= a for a, b in zip(curve, curve[1:]))
    report(7, "element-count trend", ok,
           f"mean ASR over N_r in (4, 8, 16, 32): "
           f"{['%.4f' % v for v in curve]} non-decreasing across {trials} trials")


def test_criterion_8_coefficient_reconstruction():
    rng = np.random.default_rng(808)
    worst = 0.0
    n_instances = 30
    for _ in range(n_instances):
        n_irs = int(rng.integers(2, 9))
        cfg = desk_config(n_tx=4, n_refl=3, n_irs=n_irs)
        ch = random_channels(rng, cfg)
        sol = random_solution(rng, cfg)
        v_user, v_eve = ratio_coefficients(ch, sol)
        theta = sol.phases.reshape(-1, cfg.n_refl)
        amps_user = np.array([
            np.conj(ch.h_irs_user[l]) * theta[l] @ (ch.g_ap_irs[l] @ sol.beamformer)
            for l in range(n_irs)])
        amps_eve = np.array([
            np.conj(ch.g_irs_eve[l]) * theta[l] @ (ch.g_ap_irs[l] @ sol.beamformer)
            for l in range(n_irs)])
        expansions = ((amps_user, quadratic_expansion(v_user)),
                      (amps_eve, quadratic_expansion(v_eve)))
        for bits in itertools.product((0, 1), repeat=n_irs):
            x = np.array(bits, dtype=float)
            for amps, (lin, cross) in expansions:
                direct = abs(np.sum(x * amps)) ** 2
                rebuilt = quadratic_value(lin, cross, x)
                scale = max(direct, 1e-30)
                worst = max(worst, abs(rebuilt - direct) / scale)
    ok = worst < 1e-10
    report(8, "quadratic reconstruction exactness", ok,
           f"worst relative error = {worst:.2e} (tol 1e-10) over "
           f"{n_instances} instances, all binary selections")


def test_criterion_9_deterministic_csv(tmp_path):
    cfg = SystemConfig(n_tx=4, n_refl=4, n_irs=2,
                       irs_positions=[[0.0, 20.0, 20.0], [0.0, 60.0, 20.0]])
    sweeps = {"power_sweep_dbm": [20.0, 30.0]}
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("run_a", "run_b", "workers")}
    run_experiment(cfg, "power_sweep", trials=3, out_path=str(paths["run_a"]),
                   sweeps=sweeps, master_seed=909)
    run_experiment(cfg, "power_sweep", trials=3, out_path=str(paths["run_b"]),
                   sweeps=sweeps, master_seed=909)
    run_experiment(cfg, "power_sweep", trials=3, out_path=str(paths["workers"]),
                   sweeps=sweeps, master_seed=909, workers=4)
    rerun_same = paths["run_a"].read_bytes() == paths["run_b"].read_bytes()
    parallel_same = paths["run_a"].read_bytes() == paths["workers"].read_bytes()
    ok = rerun_same and parallel_same
    report(9, "byte-identical deterministic CSV", ok,
           f"rerun identical: {rerun_same}; 4-worker run identical: {parallel_same}")

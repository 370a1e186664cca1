"""Benchmark of the irs-secrecy Monte Carlo harness.

Usage, from the root of a checkout:

    python3 bench/run.py --workload power_sweep_ref --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32

Each workload is a batch job: one client calls the public entry points
``harness.load_config`` and ``harness.run_experiment`` in a closed loop, one
batch after the other, until ``--seconds`` have passed. Batch ``i`` uses a
master seed derived from (``--seed``, workload, ``i``); the program receives
only that seed and the workload's config. With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it runs half the time untraced and
half with every layer boundary wrapped (see tracing.py) and reports the
per-layer metrics. ``--workload all`` runs every workload both ways.

Times are scaled by the host speed that a fixed probe kernel measures
around each timed interval (see PROBE_REF_S), because the speed of the
shared VM this was tuned on switches between states for seconds at a time.

After the measured loop the run checks its outputs: the first batch is run
again at another worker count and must give the same CSV fingerprint
(SHA-256 of every column but ``runtime_ms``), and a fixed set of check
trials must reach the secrecy rates recorded in reference.json, up to a
small tolerance. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when a check fails. Outputs (CSVs, spans, full reports) go to
``.bench_out/`` in the checkout.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

# numpy wheels link a threaded BLAS (scipy-openblas); two pool workers on
# two cores would oversubscribe without these.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ALL_SCHEMES = ("ao-multi-irs", "single-irs", "mrt", "random-bf")
AO_SCHEMES = ("ao-multi-irs", "single-irs")
MAX_ROUNDS = 30
SETUP_RUNS = 6
# Host speed. On the shared 2-core VM this benchmark was tuned on, identical
# work runs in one of a few speed states up to 1.7x apart, each lasting
# seconds; the share of time in the fast state differed from run to run by
# more than any change worth measuring. host_probe times a fixed kernel
# around every timed interval that runs in one process (serial batches and
# set-up), and the interval's time is scaled by PROBE_REF_S / probe time:
# those times are reported as on a host where the probe takes PROBE_REF_S
# (the VM's fast state). A pool spreads its work over both cores, which a
# probe in the client does not see (batch times did not track it), so
# multi-worker batches keep their wall time. Raw wall-clock figures are
# kept in the report's notes.
PROBE_REF_S = 0.0006
PROBE_WINDOW_S = 1.0  # a batch's speed is the median probe within this of it
CHECK_SEED = 20200626
CHECK_WORKERS = 2
# A check row passes when rate >= reference - (ABS_TOL + REL_TOL * reference):
# a faster solver may change the last digits, or find a better optimum, but
# may not give a worse answer.
ABS_TOL = 5e-4
REL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str | None   # JSON file in bench/; None is the built-in reference layout
    schemes: tuple
    trials: int          # trials per batch, i.e. per run_experiment call
    workers: int
    tail_pct: float      # percentile for trial_ms_tail; see WORKLOADS
    check_trials: int


# trial_ms_tail is the highest percentile that kept >= 10 tasks beyond it
# in every 32 s run at the seed commit on many_surfaces: p80 (59-81 tasks).
# On power_sweep_ref (160-230 tasks) that is p95, whose value spread up to
# 30% from seed to seed with 8-12 tasks beyond it, so it uses p90 (16-23
# beyond). On baseline_burst the p99 and p99.9 of 2 ms tasks are set by
# scheduler hiccups and spread 35-40% from run to run, so it uses p95.
WORKLOADS = {w.name: w for w in (
    Workload("power_sweep_ref",
             "paper headline sweep, serial: AO solves (joint refine) do ~95% of the work",
             None, ALL_SCHEMES, trials=1, workers=1, tail_pct=90.0, check_trials=3),
    Workload("many_surfaces",
             "16 surfaces x 4 elements at 30 dBm, serial: the only workload where on/off selection matters",
             "many_surfaces.json", ("ao-multi-irs",), trials=1, workers=1, tail_pct=80.0,
             check_trials=6),
    Workload("baseline_burst",
             "1-2 ms baseline tasks on 2 workers: channel generation and pool dispatch, no AO",
             None, ("mrt", "random-bf"), trials=900, workers=2, tail_pct=95.0,
             check_trials=20),
)}

END_TO_END = {  # name -> unit
    "solves_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "asr_bits": "bit/s/Hz",
    "solved_share": "share",
}

# Functions whose spans become per-layer metrics.
LAYER_FUNCS = ("beamforming.gevd_oracle", "model.effective_channels",
               "onoff.dinkelbach_solve", "beamforming.sca_solve",
               "phases.mo_ascend", "channel_gen.gen_channels")

PER_LAYER = {  # name -> unit
    **{f"{fn}.{kind}": unit for fn in LAYER_FUNCS
       for kind, unit in (("calls", "count"), ("us_per_call", "us"), ("share", "share"))},
    "channel_gen.gen_channels.repeat_share": "share",
    "ao.ao_solve.calls": "count",
    "ao.ao_solve.ms_per_call": "ms",
    "ao.ao_solve.self_share": "share",
    "ao.gevd_calls_per_solve": "count",
    "ao.rounds_mean": "rounds",
    "onoff.ratio_coefficients.calls": "count",
    "model.rate_gap.calls": "count",
    "harness.worker_busy_share": "share",
    "harness.overhead_s": "s",
    "harness.write_csv.ms": "ms",
    "trace.solves_per_s_untraced": "1/s",
    "trace.solves_per_s_traced": "1/s",
    "trace.overhead_share": "share",
}


@dataclass
class Batch:
    master_seed: int
    workers: int
    sweeps: dict
    wall_s: float
    attempted: int
    rows: list = field(default_factory=list)  # (trial, scheme, sweep_value, rate, rounds, runtime_ms)
    fingerprint: str | None = None
    error: str | None = None
    speed: float = 1.0   # PROBE_REF_S / median probe time around a serial batch

    @property
    def failed(self) -> int:
        return self.attempted - len(self.rows)


def load_program():
    """Import the package from src/ of this checkout, and nowhere else."""
    if not (SRC / "irs_secrecy" / "__init__.py").is_file():
        raise SystemExit(f"error: package source src/irs_secrecy not found under {ROOT}")
    sys.path.insert(0, str(SRC))
    import irs_secrecy.harness as harness
    if SRC.resolve() not in Path(harness.__file__).resolve().parents:
        raise SystemExit(f"error: irs_secrecy imported from {harness.__file__}, not {SRC}")
    return harness


def config_path(wl: Workload) -> str | None:
    return None if wl.config is None else str(BENCH_DIR / wl.config)


def batch_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def read_results(path: Path):
    """Rows of a results CSV as dicts, and the SHA-256 of every column
    except runtime_ms (the only column that is not deterministic)."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    header = table[0]
    keep = [i for i, col in enumerate(header) if col != "runtime_ms"]
    digest = hashlib.sha256()
    for row in table:
        digest.update((",".join(row[i] for i in keep) + "\n").encode())
    return [dict(zip(header, row)) for row in table[1:]], digest.hexdigest()


def valid_rows(rows, expected) -> list:
    """Rows that answer an expected (trial, scheme, sweep value) once, with
    a finite non-negative rate, 0..MAX_ROUNDS rounds and a finite runtime."""
    seen, good = set(), []
    for row in rows:
        try:
            key = (int(row["trial"]), row["scheme"], float(row["sweep_value"]))
            rate, rounds = float(row["secrecy_rate"]), int(row["rounds"])
            runtime = float(row["runtime_ms"])
        except (KeyError, ValueError):
            continue
        if key not in expected or key in seen:
            continue
        if not (math.isfinite(rate) and rate >= 0.0 and 0 <= rounds <= MAX_ROUNDS
                and math.isfinite(runtime) and runtime >= 0.0):
            continue
        seen.add(key)
        good.append((*key, rate, rounds, runtime))
    return good


def run_batch(harness, cfg, sweeps, wl, master_seed, trials, workers, csv_path) -> Batch:
    expected = {(t, s, float(p)) for t in range(trials)
                for p in sweeps["power_sweep_dbm"] for s in wl.schemes}
    batch = Batch(master_seed, workers, sweeps, 0.0, len(expected))
    start = time.perf_counter()
    try:
        harness.run_experiment(cfg, "power_sweep", trials, out_path=str(csv_path),
                               sweeps=sweeps, master_seed=master_seed,
                               schemes=list(wl.schemes), workers=workers, timing=True)
    except Exception as exc:  # a raising run counts all its solves as failed
        batch.wall_s = time.perf_counter() - start
        batch.error = f"{type(exc).__name__}: {exc}"
        return batch
    batch.wall_s = time.perf_counter() - start
    rows, batch.fingerprint = read_results(csv_path)
    batch.rows = valid_rows(rows, expected)
    return batch


_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.standard_normal((2, 2)) + 1j * _PROBE_RNG.standard_normal((2, 2))
_PROBE_M = _PROBE_M @ _PROBE_M.conj().T
_PROBE_V = _PROBE_RNG.standard_normal(48) + 1j * _PROBE_RNG.standard_normal(48)


def host_probe() -> float:
    """Seconds taken by a fixed kernel of small numpy calls and interpreter
    work, the mix the program's inner loops run, but no code of the
    program: a change to the program cannot move it. The best of three
    repeats, so that one interrupt does not count as a slow host."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(50):
            acc += np.linalg.eigh(_PROBE_M)[0][0]
            x = _PROBE_V * np.exp(1j * 0.01 * i)
            acc += float(np.abs(x @ x.conj()))
            acc += sum({k: 2 * k for k in range(20)}.values())
        best = min(best, time.perf_counter() - start)
    return best


def measure(harness, cfg, sweeps, wl, seed, seconds, out_dir, on_pause=None) -> list:
    """Closed loop: run batches back to back until `seconds` of the loop
    have passed, with a host probe between serial batches; each serial
    batch's speed is the median probe within PROBE_WINDOW_S of it. `on_pause`,
    if given, runs SETUP_RUNS times spread over the loop; its time is not
    counted.

    Batch i sweeps the single grid point i mod (grid size), so every task
    of a run has its own channel draw: with whole-grid batches the 9 tasks
    of a trial share one channel, and a run's timing would rest on only a
    few dozen independent draws."""
    grid = sweeps["power_sweep_dbm"]
    batches, spans, probes = [], [], []   # spans: (start, end) of each batch
    serial = wl.workers == 1
    pauses = 0
    start = time.perf_counter()
    paused = 0.0
    while not batches or time.perf_counter() - start - paused < seconds:
        elapsed = time.perf_counter() - start - paused
        if (on_pause is not None and pauses < SETUP_RUNS
                and elapsed >= pauses * seconds / SETUP_RUNS):
            pause_start = time.perf_counter()
            on_pause()
            pauses += 1
            paused += time.perf_counter() - pause_start
        if serial:
            probes.append((time.perf_counter(), host_probe()))
        point = {**sweeps, "power_sweep_dbm": [grid[len(batches) % len(grid)]]}
        batch_start = time.perf_counter()
        batches.append(run_batch(harness, cfg, point, wl,
                                 batch_seed(seed, wl.name, len(batches)),
                                 wl.trials, wl.workers, out_dir / "batch.csv"))
        spans.append((batch_start, time.perf_counter()))
    if serial:
        probes.append((time.perf_counter(), host_probe()))
        for batch, (t0, t1) in zip(batches, spans):
            near = [p for t, p in probes if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
            batch.speed = PROBE_REF_S / statistics.median(near)
    return batches


def solves_per_s(batches, scaled=True) -> float:
    """Solves per second of batch time, each batch's wall time scaled by
    its host speed (see PROBE_REF_S) unless `scaled` is false."""
    rows = sum(len(b.rows) for b in batches)
    return rows / sum(b.wall_s * (b.speed if scaled else 1.0) for b in batches)


def task_ms(batches, scaled=True) -> list:
    """Per (trial, sweep point) task: the summed runtime_ms of its rows,
    scaled by its batch's host speed unless `scaled` is false."""
    times = []
    for b in batches:
        tasks = {}
        for trial, _, value, _, _, runtime in b.rows:
            tasks[(trial, value)] = tasks.get((trial, value), 0.0) + runtime
        factor = b.speed if scaled else 1.0
        times.extend(t * factor for t in tasks.values())
    return sorted(times)


def percentile(sorted_values, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def time_setup(wl: Workload) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports the package and loads
    the workload's config, raw and scaled by the host speed around it."""
    code = ("import irs_secrecy, irs_secrecy.harness as h; "
            f"h.load_config({config_path(wl)!r})")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    before = host_probe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    # wait(timeout=...) polls in 50 ms steps; a timer bounds a plain wait.
    killer = threading.Timer(120.0, proc.kill)
    killer.start()
    try:
        returncode = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise SystemExit(f"error: set-up interpreter exited with {returncode}")
    return elapsed, elapsed * 2.0 * PROBE_REF_S / (before + host_probe())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_checks(harness, cfg, sweeps, wl, first: Batch, out_dir):
    """Worker-count invariance and the reference rows. Returns (failures,
    check batch, whether the check CSV is byte-identical to the reference's)."""
    failures = []
    if first.error:
        failures.append(f"first batch raised {first.error}")
    other = 1 if first.workers > 1 else 2
    again = run_batch(harness, cfg, first.sweeps, wl, first.master_seed, wl.trials, other,
                      out_dir / "again.csv")
    if again.fingerprint != first.fingerprint:
        failures.append(f"batch seed {first.master_seed}: fingerprint at {other} "
                        f"worker(s) differs from {first.workers}")
    check = run_batch(harness, cfg, sweeps, wl, CHECK_SEED, wl.check_trials,
                      CHECK_WORKERS, out_dir / "check.csv")
    if check.error:
        failures.append(f"check batch raised {check.error}")
    ref = load_reference()["workloads"][wl.name]
    got = {row[:3]: row[3] for row in check.rows}
    for name, rate in ref["rates"].items():
        trial, scheme, value = name.split("|")
        key = (int(trial), scheme, float(value))
        if key not in got:
            failures.append(f"check row {key} missing or invalid")
        elif got[key] < rate - (ABS_TOL + REL_TOL * rate):
            failures.append(f"check row {key}: rate {got[key]!r} below reference {rate!r}")
    return failures, check, check.fingerprint == ref["fingerprint"]


def provenance() -> dict:
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "irs_secrecy").glob("*.py")))
    return {"host": platform.node(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_lines": src_lines}


def end_to_end(wl, batches, setup_times, rss_mb, check) -> tuple[dict, dict]:
    tasks = task_ms(batches)
    tail, beyond = percentile(tasks, wl.tail_pct) if tasks else (math.nan, 0)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    metrics = {
        "solves_per_s": solves_per_s(batches),
        "trial_ms_p50": statistics.median(tasks) if tasks else math.nan,
        "trial_ms_tail": tail,
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "peak_rss_mb": rss_mb,
        "asr_bits": statistics.fmean(r[3] for r in check.rows) if check.rows else math.nan,
        "solved_share": 1.0 - failed / attempted,
    }
    wall_tasks = task_ms(batches, scaled=False)
    notes = {"tail_pct": wl.tail_pct, "tasks": len(tasks), "tasks_beyond_tail": beyond,
             "batches": len(batches),
             "speed_quartiles": statistics.quantiles([b.speed for b in batches], n=4),
             "wall_solves_per_s": solves_per_s(batches, scaled=False),
             "wall_trial_ms_p50": statistics.median(wall_tasks) if tasks else math.nan,
             "wall_trial_ms_tail": percentile(wall_tasks, wl.tail_pct)[0] if tasks else math.nan,
             "wall_setup_s": statistics.median(wall for wall, _ in setup_times),
             "setup_runs_s": setup_times,
             "asr_bits_measured_rows": statistics.fmean(
                 r[3] for b in batches for r in b.rows) if attempted > failed else math.nan,
             "check_rows": len(check.rows), "task_ms": tasks}
    return metrics, notes


def per_layer(wl, untraced, traced, tracer) -> tuple[dict, dict]:
    from tracing import layer_stats
    stats = layer_stats(tracer.spans)
    solve_s = sum(r[5] for b in traced for r in b.rows) / 1000.0
    absent = [fn for fn in LAYER_FUNCS + ("ao.ao_solve", "onoff.ratio_coefficients",
                                          "model.rate_gap", "harness.write_csv")
              if fn not in tracer.wrapped]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for fn in LAYER_FUNCS:
        s = stats.get(fn, empty)
        metrics[f"{fn}.calls"] = s["calls"]
        metrics[f"{fn}.us_per_call"] = 1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0
        metrics[f"{fn}.share"] = s["total_s"] / solve_s if solve_s else 0.0
    gen = stats.get("channel_gen.gen_channels", empty)
    metrics["channel_gen.gen_channels.repeat_share"] = (
        tracer.channel_repeats / gen["calls"] if gen["calls"] else 0.0)
    ao = stats.get("ao.ao_solve", empty)
    metrics["ao.ao_solve.calls"] = ao["calls"]
    metrics["ao.ao_solve.ms_per_call"] = 1e3 * ao["total_s"] / ao["calls"] if ao["calls"] else 0.0
    metrics["ao.ao_solve.self_share"] = ao["self_s"] / solve_s if solve_s else 0.0
    metrics["ao.gevd_calls_per_solve"] = (
        stats.get("beamforming.gevd_oracle", empty)["calls"] / ao["calls"] if ao["calls"] else 0.0)
    ao_rounds = [r[4] for b in traced for r in b.rows if r[1] in AO_SCHEMES]
    metrics["ao.rounds_mean"] = statistics.fmean(ao_rounds) if ao_rounds else 0.0
    metrics["onoff.ratio_coefficients.calls"] = stats.get("onoff.ratio_coefficients", empty)["calls"]
    metrics["model.rate_gap.calls"] = stats.get("model.rate_gap", empty)["calls"]
    busy_s = sum(r[5] for b in untraced for r in b.rows) / 1000.0
    metrics["harness.worker_busy_share"] = busy_s / (wl.workers * sum(b.wall_s for b in untraced))
    metrics["harness.overhead_s"] = statistics.median(
        b.wall_s - sum(r[5] for r in b.rows) / 1000.0 / wl.workers for b in untraced)
    csv_spans = stats.get("harness.write_csv", empty)
    metrics["harness.write_csv.ms"] = (
        1e3 * csv_spans["total_s"] / csv_spans["calls"] if csv_spans["calls"] else 0.0)
    metrics["trace.solves_per_s_untraced"] = solves_per_s(untraced)
    metrics["trace.solves_per_s_traced"] = solves_per_s(traced)
    metrics["trace.overhead_share"] = 1.0 - (metrics["trace.solves_per_s_traced"]
                                             / metrics["trace.solves_per_s_untraced"])
    table = {name: {"calls": s["calls"], "total_s": s["total_s"], "self_s": s["self_s"],
                    "share": s["total_s"] / solve_s if solve_s else 0.0,
                    "self_share": s["self_s"] / solve_s if solve_s else 0.0}
             for name, s in sorted(stats.items())}
    notes = {"absent": absent, "solve_s": solve_s, "spans": len(tracer.spans),
             "untraced_batches": len(untraced), "traced_batches": len(traced),
             "layers": table}
    return metrics, notes


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    out_dir = OUT / f"{wl.name}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    harness = load_program()
    cfg, sweeps = harness.load_config(config_path(wl))
    if trace:
        from tracing import Tracer
        untraced = measure(harness, cfg, sweeps, wl, seed, seconds / 2.0, out_dir)
        tracer = Tracer(out_dir / "spill")
        tracer.install()
        try:
            traced = measure(harness, cfg, sweeps, wl, seed, seconds / 2.0, out_dir)
        finally:
            tracer.uninstall()
        tracer.collect()
        tracer.write_spans(out_dir / "spans.csv")
        batches = untraced + traced
    else:
        # Set-up samples are spread over the run; the first, untimed one
        # writes the bytecode caches.
        time_setup(wl)
        setup_times = []
        batches = measure(harness, cfg, sweeps, wl, seed, seconds, out_dir,
                          on_pause=lambda: setup_times.append(time_setup(wl)))
    rss_mb = peak_rss_mb()
    failures, check, ref_identical = run_checks(harness, cfg, sweeps, wl, batches[0], out_dir)
    if trace:
        metrics, notes = per_layer(wl, untraced, traced, tracer)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(wl, batches, setup_times, rss_mb, check)
        units = END_TO_END
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    report = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": provenance(), "metrics": metrics, "notes": notes,
              "check_failures": failures, "check_fingerprint": check.fingerprint,
              "check_matches_reference_bytes": ref_identical,
              "batch_errors": [b.error for b in batches if b.error]}
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {wl.name} seed={seed} seconds={seconds} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in report["provenance"].items()))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for key, value in notes.items():
        if key not in ("layers", "task_ms"):
            print(f"# {key}: {value}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter.
    Collects the reports into .bench_out/all.json."""
    summary, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            report_path = OUT / f"{name}-trace{trace}" / "report.json"
            if report_path.is_file():
                report = json.loads(report_path.read_text(encoding="utf-8"))
                report["notes"].pop("task_ms", None)
                summary.setdefault("provenance", report.pop("provenance"))
                summary[f"{name}/trace{trace}"] = report
    with open(OUT / "all.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return status


def write_reference() -> int:
    """Record the check trials' rows as the reference (seed commit answers)."""
    harness = load_program()
    out = {"check_seed": CHECK_SEED, "workloads": {}}
    OUT.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        cfg, sweeps = harness.load_config(config_path(wl))
        check = run_batch(harness, cfg, sweeps, wl, CHECK_SEED, wl.check_trials,
                          CHECK_WORKERS, OUT / "reference.csv")
        if check.error or check.failed:
            raise SystemExit(f"error: {wl.name} check batch failed: {check.error}")
        out["workloads"][wl.name] = {
            "trials": wl.check_trials, "fingerprint": check.fingerprint,
            "rates": {f"{t}|{s}|{v!r}": rate for t, s, v, rate, _, _ in check.rows}}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the check trials' answers in reference.json")
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

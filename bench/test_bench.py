"""Tests of the benchmark's own machinery: result fingerprints, row
validation, determinism of reduced workloads and the span tracer."""

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("irs_bench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
harness = bench.load_program()

from tracing import Tracer, layer_stats  # noqa: E402  (bench/ is on sys.path)


def _reduced(name, **changes):
    wl = replace(bench.WORKLOADS[name], **changes)
    cfg, sweeps = harness.load_config(bench.config_path(wl))
    return wl, cfg, sweeps


def _fingerprint(tmp_path, name, workers, seed=5, points=None, **changes):
    wl, cfg, sweeps = _reduced(name, **changes)
    if points is not None:
        sweeps = {**sweeps, "power_sweep_dbm": points}
    batch = bench.run_batch(harness, cfg, sweeps, wl, seed, wl.trials, workers,
                            tmp_path / f"{name}-{workers}.csv")
    assert batch.error is None and batch.failed == 0
    return batch.fingerprint


def test_repeated_runs_match(tmp_path):
    first = _fingerprint(tmp_path, "power_sweep_ref", 1, points=[10.0, 30.0])
    again = _fingerprint(tmp_path, "power_sweep_ref", 1, points=[10.0, 30.0])
    assert first == again


def test_worker_count_does_not_change_fingerprint(tmp_path):
    serial = _fingerprint(tmp_path, "baseline_burst", 1, trials=8)
    pooled = _fingerprint(tmp_path, "baseline_burst", 2, trials=8)
    assert serial == pooled


def test_fingerprint_ignores_runtime_only(tmp_path):
    header = "trial,scheme,sweep_name,sweep_value,secrecy_rate,rounds,runtime_ms,seed\n"
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    a.write_text(header + "0,mrt,power_dbm,0.0,0.5,0,1.25,7\n")
    b.write_text(header + "0,mrt,power_dbm,0.0,0.5,0,9.75,7\n")
    c.write_text(header + "0,mrt,power_dbm,0.0,0.50001,0,1.25,7\n")
    fp = [bench.read_results(p)[1] for p in (a, b, c)]
    assert fp[0] == fp[1] != fp[2]


def test_invalid_rows_count_as_failed():
    expected = {(0, "mrt", 0.0), (0, "mrt", 5.0), (1, "mrt", 0.0), (1, "mrt", 5.0)}
    row = {"trial": "0", "scheme": "mrt", "sweep_value": "0.0",
           "secrecy_rate": "0.5", "rounds": "0", "runtime_ms": "1.0"}
    rows = [row,
            {**row},                                        # duplicate
            {**row, "sweep_value": "5.0", "secrecy_rate": "nan"},
            {**row, "trial": "1", "secrecy_rate": "-0.1"},
            {**row, "trial": "1", "sweep_value": "5.0", "rounds": "31"},
            {**row, "trial": "2"}]                          # not expected
    good = bench.valid_rows(rows, expected)
    assert good == [(0, "mrt", 0.0, 0.5, 0, 1.0)]


def test_percentile_keeps_ten_beyond():
    values = sorted(float(v) for v in range(1, 201))
    assert bench.percentile(values, 95.0) == (190.0, 10)
    assert bench.percentile(values, 50.0) == (100.0, 100)


def test_times_scale_by_host_speed():
    rows = [(0, "mrt", 0.0, 0.5, 0, 2.0), (0, "random-bf", 0.0, 0.4, 0, 1.0)]
    fast = bench.Batch(master_seed=0, workers=1, sweeps={}, wall_s=2.0, attempted=2,
                       rows=rows, speed=1.0)
    slow = bench.Batch(master_seed=1, workers=1, sweeps={}, wall_s=4.0, attempted=2,
                       rows=rows, speed=0.5)
    assert bench.solves_per_s([fast, slow]) == 1.0
    assert bench.solves_per_s([fast, slow], scaled=False) == 4 / 6
    assert bench.task_ms([fast, slow]) == [1.5, 3.0]
    assert bench.task_ms([fast, slow], scaled=False) == [3.0, 3.0]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_tracer_records_layers_and_restores_bindings(tmp_path):
    import irs_secrecy.ao as ao
    original = ao.gevd_oracle
    wl, cfg, sweeps = _reduced("power_sweep_ref", schemes=("ao-multi-irs", "mrt"))
    sweeps = {**sweeps, "power_sweep_dbm": [30.0]}
    tracer = Tracer(tmp_path / "spill")
    tracer.install()
    try:
        assert ao.gevd_oracle is not original
        batch = bench.run_batch(harness, cfg, sweeps, wl, 3, 1, 1, tmp_path / "t.csv")
    finally:
        tracer.uninstall()
    assert ao.gevd_oracle is original
    stats = layer_stats(tracer.spans)
    assert stats["ao.ao_solve"]["calls"] == 1
    assert stats["channel_gen.gen_channels"]["calls"] == 2
    assert tracer.channel_repeats == 1          # mrt regenerates the AO channels
    assert stats["harness.task"]["calls"] == 1
    assert stats["beamforming.gevd_oracle"]["calls"] > 10
    for entry in stats.values():
        assert 0.0 <= entry["self_s"] <= entry["total_s"] + 1e-9
    task = next(i for i, s in enumerate(tracer.spans) if s[0] == "harness.task")
    t_start, t_end = tracer.spans[task][1:3]
    for name, start, end, _, task_id, _ in tracer.spans:
        inside = t_start <= start and end <= t_end
        assert task_id == (task if inside else -1), name
    # Ascent under tracing must give the same answers as without it.
    plain = bench.run_batch(harness, cfg, sweeps, wl, 3, 1, 1, tmp_path / "p.csv")
    assert plain.fingerprint == batch.fingerprint


def test_tracer_collects_spans_from_pool_workers(tmp_path):
    wl, cfg, sweeps = _reduced("baseline_burst", trials=6)
    tracer = Tracer(tmp_path / "spill")
    tracer.install()
    try:
        batch = bench.run_batch(harness, cfg, sweeps, wl, 4, wl.trials, 2, tmp_path / "w.csv")
    finally:
        tracer.uninstall()
    tracer.collect()
    stats = layer_stats(tracer.spans)
    tasks = 6 * len(sweeps["power_sweep_dbm"])
    assert batch.failed == 0
    assert stats["harness.task"]["calls"] == tasks
    assert stats["channel_gen.gen_channels"]["calls"] == 2 * tasks
    assert len({s[5] for s in tracer.spans if s[0] == "harness.task"}) >= 1
    assert not list((tmp_path / "spill").iterdir())


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    import irs_secrecy.ao as ao
    monkeypatch.delattr(ao, "mo_ascend")
    tracer = Tracer(tmp_path / "spill")
    tracer.install()
    tracer.uninstall()
    assert "phases.mo_ascend" not in tracer.wrapped
    assert "beamforming.gevd_oracle" in tracer.wrapped
    batch = bench.Batch(master_seed=0, workers=1, sweeps={}, wall_s=1.0, attempted=1,
                        rows=[(0, "mrt", 0.0, 0.5, 0, 2.0)])
    wl = bench.WORKLOADS["power_sweep_ref"]
    metrics, notes = bench.per_layer(wl, [batch], [batch], tracer)
    assert notes["absent"] == ["phases.mo_ascend"]
    assert metrics["phases.mo_ascend.calls"] == 0
    assert set(metrics) == set(bench.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irs_secrecy import harness
from irs_secrecy.ao import ao_solve
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.harness import (CSV_HEADER, SCHEMES, ExperimentRecord,
                                 consolidate_single_irs, default_sweeps,
                                 load_config, main, mrt_baseline,
                                 random_baseline, run_experiment, summarize)
from irs_secrecy.model import SystemConfig, effective_channels, secrecy_rate


SMALL = dict(n_tx=4, n_refl=4, n_irs=2,
             irs_positions=[[0.0, 20.0, 20.0], [0.0, 60.0, 20.0]])


def small_cfg(**overrides):
    """Cheap geometry for end-to-end harness runs."""
    params = {**SMALL, **overrides}
    return SystemConfig(**params)


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def solved_tasks(monkeypatch):
    """Stand in for the per-task solver; returns the tasks it was handed."""
    tasks = []

    def solve(args):
        tasks.append(args)
        return []

    monkeypatch.setattr(harness, "_sweep_task", solve)
    return tasks


class TestConfig:
    def test_defaults_match_reference_layout(self):
        cfg, sweeps = load_config(None)
        assert cfg.n_tx == 16 and cfg.n_refl == 16 and cfg.n_irs == 3
        assert np.allclose(cfg.ap_position, [0.0, 0.0, 0.0])
        assert np.allclose(cfg.irs_positions,
                           [[0, 20, 20], [0, 40, 20], [0, 60, 20]])
        assert np.allclose(cfg.user_position, [5.0, 40.0, 0.0])
        assert np.allclose(cfg.eve_position, [5.0, 60.0, 0.0])
        assert cfg.noise_user == pytest.approx(1e-14)
        assert cfg.noise_eve == pytest.approx(1e-14)
        assert cfg.power_budget == pytest.approx(1.0)
        assert cfg.pathloss_ref_db == pytest.approx(-61.4)
        assert sweeps == default_sweeps()

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n_tx": 8, "n_refl": 4, "n_irs": 2,
            "noise_user_dbm": -100.0, "power_dbm": 20.0,
            "irs_positions": [[0, 20, 20], [0, 60, 20]],
            "power_sweep_dbm": [10.0, 20.0],
            "seed": 42,
        }))
        cfg, sweeps = load_config(str(path))
        assert cfg.n_tx == 8
        assert cfg.noise_user == pytest.approx(1e-13)
        assert cfg.power_budget == pytest.approx(0.1)
        assert cfg.seed == 42
        assert sweeps["power_sweep_dbm"] == [10.0, 20.0]
        assert sweeps["element_sweep"] == default_sweeps()["element_sweep"]

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"power_dBm": 10.0, "n_tx": 8, "colour": 1}))
        with pytest.raises(ValueError, match="colour, power_dBm"):
            load_config(str(path))

    @pytest.mark.parametrize("entry,name", [
        ({"power_dbm": "25"}, "power_dbm"),
        ({"noise_user_dbm": False}, "noise_user_dbm"),
        ({"pathloss_exponent": True}, "pathloss_exponent"),
        ({"pathloss_ref_db": "-60"}, "pathloss_ref_db"),
        ({"user_position": [5, "40", 0]}, "user_position"),
        ({"irs_positions": [[0, 20, 20], [0, 40, True], [0, 60, 20]]}, "irs_positions"),
        ({"power_dbm": [25]}, "power_dbm"),
    ])
    def test_rejects_real_field_that_is_not_a_number(self, tmp_path, entry, name):
        # each of these once loaded silently ("25" as 25 dBm, false as 0 dBm)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            load_config(str(path))

    @pytest.mark.parametrize("entry,name", [
        ({"power_dbm": 4000}, "power_dbm"),
        ({"noise_eve_dbm": -4000}, "noise_eve_dbm"),
    ])
    def test_rejects_dbm_level_outside_float64_watts(self, tmp_path, entry, name):
        # 4000 dBm once exited with a bare OverflowError; -4000 dBm became
        # 0 W and was blamed on the watt field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match=f"^{name} must lie between"):
            load_config(str(path))

    def test_rejects_sweep_power_outside_float64_watts(self):
        with pytest.raises(ValueError, match="^power_sweep_dbm must lie between"):
            run_experiment(small_cfg(), "power_sweep", 1, schemes=["mrt"],
                           sweeps={"power_sweep_dbm": [30.0, 4000.0]})

    def test_rejects_repeated_keys(self, tmp_path):
        # json keeps the last value: this once ran at 40 dBm
        path = tmp_path / "cfg.json"
        path.write_text('{"power_dbm": 10.0, "n_tx": 8, "power_dbm": 40.0, '
                        '"seed": 1, "n_tx": 4}')
        with pytest.raises(ValueError, match="^repeated config keys: n_tx, power_dbm$"):
            load_config(str(path))

    @pytest.mark.parametrize("text,kind", [
        ("null", "NoneType"), ("[1, 2]", "list"), ('"abc"', "str"), ("3", "int")])
    def test_rejects_file_that_is_not_a_json_object(self, tmp_path, text, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"must hold a JSON object, got {kind}"):
            load_config(str(path))


class TestBaselines:
    def test_mrt_full_power_matched(self, rng):
        cfg = small_cfg()
        ch = gen_channels(cfg, rng)
        sol = mrt_baseline(ch, cfg)
        sol.validate(cfg)
        power = float(np.real(np.vdot(sol.beamformer, sol.beamformer)))
        assert power == pytest.approx(cfg.power_budget, rel=1e-12)
        assert np.all(sol.onoff == 1)
        # matched filter: the best possible beamformer for its own phases
        # when there is no eavesdropper
        a, _ = effective_channels(ch, sol)
        gain = abs(np.vdot(a, sol.beamformer)) ** 2
        assert gain == pytest.approx(
            cfg.power_budget * np.linalg.norm(a) ** 2, rel=1e-12)

    def test_random_baseline_feasible_and_reproducible(self, rng):
        cfg = small_cfg()
        ch = gen_channels(cfg, rng)
        sol1 = random_baseline(ch, cfg, np.random.default_rng(5))
        sol2 = random_baseline(ch, cfg, np.random.default_rng(5))
        sol1.validate(cfg)
        power = float(np.real(np.vdot(sol1.beamformer, sol1.beamformer)))
        assert power == pytest.approx(cfg.power_budget, rel=1e-12)
        assert np.allclose(np.abs(sol1.phases), 1.0, atol=1e-12)
        assert np.array_equal(sol1.beamformer, sol2.beamformer)
        assert np.array_equal(sol1.phases, sol2.phases)

    def test_consolidation_element_matching(self):
        cfg = SystemConfig()  # 3 surfaces x 16 elements
        single = consolidate_single_irs(cfg)
        assert single.n_irs == 1
        assert single.n_refl == 48
        assert np.allclose(single.irs_positions, [[0.0, 60.0, 20.0]])

    def test_single_irs_coincides_for_one_surface_config(self):
        # a one-surface layout at the consolidated position: both schemes
        # describe the identical problem and must coincide exactly
        cfg = small_cfg(n_irs=1, irs_positions=[[0.0, 60.0, 20.0]])
        merged = consolidate_single_irs(cfg)
        assert merged.n_irs == cfg.n_irs and merged.n_refl == cfg.n_refl
        assert np.array_equal(merged.irs_positions, cfg.irs_positions)
        records = run_experiment(cfg, "power_sweep", trials=2,
                                 sweeps={"power_sweep_dbm": [20.0]},
                                 master_seed=9,
                                 schemes=("ao-multi-irs", "single-irs"))
        by_scheme = {}
        for r in records:
            by_scheme.setdefault(r.scheme, []).append(r)
        for multi, single in zip(by_scheme["ao-multi-irs"],
                                 by_scheme["single-irs"]):
            assert multi.secrecy_rate == single.secrecy_rate
            assert multi.rounds == single.rounds

    def test_single_irs_baseline_runs_full_pipeline(self, rng):
        cfg = consolidate_single_irs(small_cfg())
        ch = gen_channels(cfg, rng)
        sol, _ = ao_solve(ch, cfg)
        sol.validate(cfg)
        assert secrecy_rate(ch, sol, cfg) >= 0.0


class TestRunExperiment:
    def test_csv_schema_and_row_count(self, tmp_path):
        cfg = small_cfg()
        out = tmp_path / "out.csv"
        records = run_experiment(cfg, "power_sweep", trials=2,
                                 sweeps={"power_sweep_dbm": [10.0, 30.0]},
                                 master_seed=3, out_path=str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 2 * len(SCHEMES)
        assert len(records) == 2 * 2 * len(SCHEMES)
        # floats in shortest round-trip form, every field in header order
        for line, r in zip(lines[1:], records):
            values = [getattr(r, name) for name in CSV_HEADER]
            assert line.split(",") == [repr(v) if isinstance(v, float) else str(v)
                                       for v in values]
        keys = [(r.trial, r.scheme, r.sweep_name, r.sweep_value) for r in records]
        assert len(set(keys)) == len(keys)
        assert all(r.secrecy_rate >= 0.0 for r in records)
        assert all(r.runtime_ms == 0.0 for r in records)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg()
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run_experiment(cfg, "convergence", trials=1, master_seed=7,
                           out_path=str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_chunked_dispatch_byte_identical(self, tmp_path):
        # 80 tasks go out in chunks of 10 (2 workers) and of 6 (3 workers,
        # the last chunk shorter): the CSV must not depend on the split.
        cfg = small_cfg()
        paths = [tmp_path / f"w{workers}.csv" for workers in (1, 2, 3)]
        for workers, path in zip((1, 2, 3), paths):
            run_experiment(cfg, "power_sweep", trials=40, out_path=str(path),
                           sweeps={"power_sweep_dbm": [10.0, 30.0]},
                           master_seed=13, schemes=["mrt", "random-bf"],
                           workers=workers)
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_workers_capped_at_task_count(self, monkeypatch):
        # A fork-started pool launches all max_workers processes up front. A
        # stand-in pool records the size it is asked for and runs the tasks
        # in this process, so no process is started here.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        kwargs = dict(sweeps={"power_sweep_dbm": [20.0]}, master_seed=5,
                      schemes=["mrt"])
        run_experiment(small_cfg(), "power_sweep", trials=1, workers=64, **kwargs)
        assert sizes == []              # one task runs serially
        pooled = run_experiment(small_cfg(), "power_sweep", trials=2, workers=64,
                                **kwargs)
        assert sizes == [2]
        assert pooled == run_experiment(small_cfg(), "power_sweep", trials=2,
                                        **kwargs)

    def test_convergence_rows_trace_rounds(self):
        cfg = small_cfg()
        records = run_experiment(cfg, "convergence", trials=1, master_seed=11)
        assert all(r.scheme == "ao-multi-irs" for r in records)
        assert all(r.sweep_name == "round" for r in records)
        values = [r.secrecy_rate for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert records[-1].rounds == len(records) - 1

    def test_convergence_traces_the_chosen_scheme(self):
        # --scheme was once ignored here: single-irs wrote ao-multi-irs rows
        cfg = small_cfg()
        records = run_experiment(cfg, "convergence", trials=2, master_seed=11,
                                 schemes=["single-irs"])
        assert {r.scheme for r in records} == {"single-irs"}
        single = consolidate_single_irs(cfg)
        for trial in (0, 1):
            ch = gen_channels(single, harness._stream(11, trial, 0))
            _, trace = ao_solve(ch, single)
            rows = [r for r in records if r.trial == trial]
            assert [r.sweep_value for r in rows] == list(range(len(trace)))
            assert [r.secrecy_rate for r in rows] == [float(v) for v in trace]
            assert all(r.rounds == len(trace) - 1 for r in rows)

    @pytest.mark.parametrize("scheme", ["mrt", "random-bf"])
    def test_convergence_rejects_schemes_without_a_trace(self, scheme):
        with pytest.raises(ValueError, match=f"scheme '{scheme}' has no trace"):
            run_experiment(small_cfg(), "convergence", trials=1,
                           schemes=["ao-multi-irs", scheme])

    def test_power_trend_on_average(self):
        # average AO secrecy rate grows with the power budget
        cfg = small_cfg()
        records = run_experiment(
            cfg, "power_sweep", trials=200, master_seed=17,
            sweeps={"power_sweep_dbm": [0.0, 20.0, 40.0]},
            schemes=("ao-multi-irs",))
        means = {}
        for r in records:
            means.setdefault(r.sweep_value, []).append(r.secrecy_rate)
        curve = [np.mean(means[p]) for p in sorted(means)]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_element_sweep_uses_consolidated_totals(self):
        cfg = small_cfg()
        records = run_experiment(cfg, "element_sweep", trials=1,
                                 sweeps={"element_sweep": [2, 4]},
                                 master_seed=1,
                                 schemes=("ao-multi-irs", "single-irs"))
        assert {r.sweep_value for r in records} == {2.0, 4.0}

    def test_rejects_bad_arguments(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            run_experiment(cfg, "nope", trials=1)
        with pytest.raises(ValueError):
            run_experiment(cfg, "convergence", trials=0)
        with pytest.raises(ValueError):
            run_experiment(cfg, "convergence", trials=1, schemes=("bogus",))

    @pytest.mark.parametrize("name,value", [
        ("trials", True), ("trials", 2.0), ("workers", True), ("workers", 1.5),
        ("workers", "2")])
    def test_rejects_counts_that_are_not_integers(self, name, value):
        # trials=True once ran one trial; trials=2.0 failed inside range()
        counts = {"trials": 1, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_experiment(small_cfg(), "power_sweep", schemes=["mrt"],
                           sweeps={"power_sweep_dbm": [30.0]}, **counts)

    def test_rejects_unknown_sweep_key(self):
        # a misspelled key once fell back to the default 9-point grid
        with pytest.raises(ValueError, match="unknown sweep keys: power_dbm"):
            run_experiment(small_cfg(), "power_sweep", 1,
                           sweeps={"power_dbm": [30.0]}, schemes=["mrt"])

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(small_cfg(), "convergence", trials=1, workers=workers)

    @pytest.mark.parametrize("experiment,key,grid", [
        ("power_sweep", "power_sweep_dbm", []),
        ("power_sweep", "power_sweep_dbm", [10.0, 20.0, 10]),
        ("element_sweep", "element_sweep", []),
        ("element_sweep", "element_sweep", [4, 4.0]),
        ("element_sweep", "element_sweep", [4, 2.5]),
    ])
    def test_rejects_empty_or_repeated_grid(self, tmp_path, experiment, key, grid):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=key):
            run_experiment(small_cfg(), experiment, trials=1, sweeps={key: grid},
                           out_path=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["30", [30.0, "40"], [[30.0]], [True]])
    def test_rejects_grid_that_is_not_a_list_of_numbers(self, grid):
        # a string grid was once read character by character (0.0 and 3.0 dBm)
        with pytest.raises(ValueError, match="power_sweep_dbm must be a list of numbers"):
            run_experiment(small_cfg(), "power_sweep", 1,
                           sweeps={"power_sweep_dbm": grid}, schemes=["mrt"])

    @pytest.mark.parametrize("schemes,message", [
        (["mrt", "mrt"], "scheme 'mrt' is listed more than once"),
        ([], r"schemes must be a non-empty list of scheme names, got \[\]"),
        ("mrt", "schemes must be a non-empty list of scheme names, got 'mrt'"),
    ], ids=["repeated", "empty", "string"])
    def test_rejects_bad_scheme_list(self, schemes, message):
        # these once wrote every row twice, ran all four schemes, and failed
        # with "unknown scheme 'm'"
        with pytest.raises(ValueError, match=message):
            run_experiment(small_cfg(), "power_sweep", 1, schemes=schemes,
                           sweeps={"power_sweep_dbm": [30.0]})

    def test_failed_run_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_task(args):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(harness, "_sweep_task", failing_task)
        out = tmp_path / "x.csv"
        with pytest.raises(RuntimeError, match="solve failed"):
            run_experiment(small_cfg(), "power_sweep", 1, out_path=str(out),
                           sweeps={"power_sweep_dbm": [30.0]}, schemes=["mrt"])
        assert not out.exists()

    def test_rejects_negative_master_seed(self):
        # numpy's SeedSequence would refuse it later, without naming the seed
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_experiment(small_cfg(), "convergence", trials=1, master_seed=-3)

    def test_eavesdropper_at_user_gives_valid_solutions(self, monkeypatch):
        # every solution the harness produces is feasible with a finite,
        # non-decreasing trace, even with no spatial advantage to exploit
        solves = 0

        def checked_ao_solve(ch, cfg):
            nonlocal solves
            sol, trace = ao_solve(ch, cfg)
            sol.validate(cfg)
            assert np.all(np.isfinite(trace))
            assert np.all(np.diff(trace) >= 0.0)
            solves += 1
            return sol, trace

        monkeypatch.setattr(harness, "ao_solve", checked_ao_solve)
        cfg = small_cfg(eve_position=SystemConfig().user_position)
        records = run_experiment(cfg, "power_sweep", trials=1,
                                 sweeps={"power_sweep_dbm": [0.0, 40.0]})
        assert len(records) == 2 * len(SCHEMES)
        assert solves == 4  # ao-multi-irs and single-irs
        for r in records:
            assert np.isfinite(r.secrecy_rate) and r.secrecy_rate >= 0.0

    def test_summarize_groups(self):
        records = [
            ExperimentRecord(0, "mrt", "power_dbm", 10.0, 0.5, 0, 0.0, 1),
            ExperimentRecord(1, "mrt", "power_dbm", 10.0, 1.5, 0, 0.0, 2),
        ]
        lines = summarize(records)
        assert lines == ["mrt power_dbm=10 trials=2 asr=1.000000"]


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "run.csv"
        code = main(["--config", str(cfg_path), "--experiment", "convergence",
                     "--trials", "2", "--seed", "3", "--out", str(out),
                     "--emit-summary"])
        assert code == 0
        assert out.exists()
        assert "ao-multi-irs" in capsys.readouterr().out

    def test_scheme_subset(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "run.csv"
        code = main(["--config", str(cfg_path), "--experiment", "power_sweep",
                     "--trials", "1", "--seed", "3", "--out", str(out),
                     "--scheme", "mrt,random-bf"])
        assert code == 0
        body = out.read_text().strip().split("\n")[1:]
        assert all(line.split(",")[1] in ("mrt", "random-bf") for line in body)

    def test_convergence_scheme_without_trace_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg_path), "--experiment", "convergence",
                     "--trials", "1", "--out", str(out), "--scheme", "mrt,single-irs"])
        assert code == 1
        assert "scheme 'mrt' has no trace" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_2(self, tmp_path):
        # argparse rejects unknown options, including the removed
        # --beamformer, with exit code 2
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "convergence", "--trials", "1",
                  "--out", str(tmp_path / "x.csv"), "--beamformer", "sca"])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"),
                     "--experiment", "convergence", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_scheme_fails_cleanly(self, tmp_path, capsys):
        # --scheme "" once counted as unset and ran all four schemes
        out = tmp_path / "x.csv"
        code = main(["--experiment", "power_sweep", "--trials", "1",
                     "--out", str(out), "--scheme", ""])
        assert code == 1
        assert "unknown scheme ''" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys, solved_tasks):
        # the path was once opened only after every trial had been solved
        out = tmp_path / "missing" / "x.csv"
        code = main(["--experiment", "power_sweep", "--trials", "2",
                     "--workers", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert solved_tasks == []

    def test_repeated_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"power_dbm": 10.0, "power_dbm": 40.0}')
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg_path), "--experiment", "convergence",
                     "--trials", "1", "--out", str(out)])
        assert code == 1
        assert "repeated config keys: power_dbm" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "power_dBm": 10.0}))
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg_path), "--experiment", "convergence",
                     "--trials", "1", "--out", str(out)])
        assert code == 1
        assert "power_dBm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,message", [
        ([], "power_sweep_dbm is empty"),
        ([0, 30, 0.0], "power_sweep_dbm repeats"),
        ("30", "power_sweep_dbm must be a list of numbers"),
    ])
    def test_bad_sweep_grid_fails_cleanly(self, tmp_path, capsys, grid, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "power_sweep_dbm": grid}))
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg_path), "--experiment", "power_sweep",
                     "--trials", "1", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg_path), "--experiment", "convergence",
                     "--trials", "1", "--seed", "-3", "--out", str(out)])
        assert code == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_node_on_a_surface_fails_cleanly(self, tmp_path, capsys, solved_tasks):
        # single-irs keeps only the last surface, so the layout is checked
        # before any scheme consolidates it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ap_position": [0, 20, 20]}))
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg_path), "--experiment", "power_sweep",
                     "--trials", "1", "--workers", "1", "--scheme", "single-irs",
                     "--out", str(out)])
        assert code == 1
        assert "ap_position coincides with irs_positions[0]" in capsys.readouterr().err
        assert not out.exists() and solved_tasks == []

    def test_module_entry_point(self, tmp_path):
        # the documented `python -m irs_secrecy`, in a fresh interpreter
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "run.csv"
        run = subprocess.run(
            [sys.executable, "-m", "irs_secrecy", "--config", str(cfg_path),
             "--experiment", "power_sweep", "--scheme", "mrt", "--trials", "1",
             "--out", str(out)],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert out.read_text().split("\n")[0] == ",".join(CSV_HEADER)


class TestPackaging:
    def test_import_needs_numpy_only(self):
        # scipy is a test dependency: importing the package and its harness
        # in a fresh interpreter must not load it
        code = ("import sys, irs_secrecy, irs_secrecy.harness; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_reference_is_imported_by_no_production_module_and_ships(self):
        # reference modules certify the production path and import from it,
        # never the reverse; the package __init__ re-exports them. ao's two
        # benchmark bindings are the one exception, named here so that the
        # change which drops them drops them here too.
        src = Path(__file__).resolve().parents[1] / "src"
        bound = set()
        for path in sorted((src / "irs_secrecy").glob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module or ''}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                bound |= {(path.stem, n) for n in names
                          if "reference" in n.split(".")}
        assert bound == {("ao", "reference.beamforming.sca_solve"),
                         ("ao", "reference.phases.mo_ascend")}
        # a subpackage without __init__.py would leave the wheel without it
        setuptools = pytest.importorskip("setuptools")
        assert "irs_secrecy.reference" in setuptools.find_packages(str(src))

    @pytest.mark.parametrize("module", ["ao", "beamforming", "channel_gen",
                                        "harness", "model", "onoff", "phases"])
    def test_exports_exist(self, module):
        # a name left in __all__ after its definition is deleted breaks
        # `from irs_secrecy.<module> import *`
        mod = importlib.import_module(f"irs_secrecy.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

"""Write the ten seed-7 CSVs of the answer check into one directory.

    python tests/answer_runs.py OUT_DIR

Runs the convergence (ao-multi-irs and single-irs, 6 trials), power sweep
(3 trials), element sweep (2 trials), `bench/many_surfaces.json` power
sweep (2 trials) and tiny-noise convergence (ao-multi-irs and single-irs,
3 trials, both noise powers at -970 dBm = 1e-100 W) experiments at master
seed 7, each at `--workers` 1 and 2, through the CLI entry point of the
package in this checkout's `src/`. The tiny-noise runs reach the ascent's
failed-backtrack exit, which the others never do; their config is written
to OUT_DIR/tiny.json. The files are named convergence-w1.csv ...
tiny-w2.csv. Exits 1 when a run fails. Run it in two checkouts, then compare
the directories with `tests/compare_answers.py`.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from irs_secrecy.harness import main as cli  # noqa: E402

RUNS = {
    "convergence": ["--experiment", "convergence", "--scheme",
                    "ao-multi-irs,single-irs", "--trials", "6"],
    "power": ["--experiment", "power_sweep", "--trials", "3"],
    "element": ["--experiment", "element_sweep", "--trials", "2"],
    "many": ["--config", str(ROOT / "bench" / "many_surfaces.json"),
             "--experiment", "power_sweep", "--trials", "2"],
}


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    tiny = out / "tiny.json"
    tiny.write_text(json.dumps({"noise_user_dbm": -970.0, "noise_eve_dbm": -970.0}))
    runs = {**RUNS, "tiny": ["--config", str(tiny), "--experiment", "convergence",
                             "--scheme", "ao-multi-irs,single-irs", "--trials", "3"]}
    for workers in (1, 2):
        for name, args in runs.items():
            path = out / f"{name}-w{workers}.csv"
            if cli(args + ["--seed", "7", "--workers", str(workers),
                           "--out", str(path)]) != 0:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare the result CSVs of two answer-check runs, row by row.

    python tests/compare_answers.py DIR_A DIR_B

For every *.csv in DIR_A, the file of the same name in DIR_B is read. A pair
with the same bytes prints `identical bytes`; otherwise their rows are paired
in order and it prints the largest per-row |delta secrecy_rate| and every row
whose `rounds` differ. Exits 1 when a file is missing from DIR_B or a pair's
rows do not line up (another count, or another trial, scheme or sweep point
in the same place); otherwise 0, so the size of a change is left to the
reader.
"""

import csv
import sys
from pathlib import Path

KEY = ("trial", "scheme", "sweep_name", "sweep_value")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def compare(path_a, path_b):
    """Lines describing how the rows of path_b differ from those of path_a,
    and whether the two files line up."""
    rows_a, rows_b = read_rows(path_a), read_rows(path_b)
    if len(rows_a) != len(rows_b):
        return [f"{path_a.name}: {len(rows_a)} rows against {len(rows_b)}"], False
    lines, largest, worst = [], 0.0, None
    for k, (a, b) in enumerate(zip(rows_a, rows_b)):
        if [a[c] for c in KEY] != [b[c] for c in KEY]:
            return [f"{path_a.name} row {k}: {[a[c] for c in KEY]} against "
                    f"{[b[c] for c in KEY]}"], False
        delta = abs(float(b["secrecy_rate"]) - float(a["secrecy_rate"]))
        if worst is None or delta > largest:
            largest, worst = delta, k
        if a["rounds"] != b["rounds"]:
            lines.append(f"  row {k} ({', '.join(a[c] for c in KEY)}): "
                         f"rounds {a['rounds']} -> {b['rounds']}")
    where = "" if worst is None else f" (row {worst})"
    return [f"{path_a.name}: {len(rows_a)} rows, largest |delta secrecy_rate| "
            f"{largest:.3g}{where}"] + lines, True


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    paths = sorted(dir_a.glob("*.csv"))
    if not paths:
        print(f"no CSV files in {dir_a}", file=sys.stderr)
        return 1
    ok = True
    for path_a in paths:
        path_b = dir_b / path_a.name
        if not path_b.is_file():
            print(f"{path_a.name}: missing from {dir_b}")
            ok = False
            continue
        if path_a.read_bytes() == path_b.read_bytes():
            print(f"{path_a.name}: identical bytes")
            continue
        lines, lined_up = compare(path_a, path_b)
        print("\n".join(lines))
        ok = ok and lined_up
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

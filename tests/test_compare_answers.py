"""The answer gate: `compare_answers.py` names byte-identical pairs and
measures the rest."""

import compare_answers

ROW = ("trial,scheme,sweep_name,sweep_value,secrecy_rate,rounds\n"
       "0,ao-multi-irs,power_dbm,30.0,{rate},{rounds}\n")


def answer_dirs(tmp_path, rate_b, rounds_b):
    dirs = tmp_path / "a", tmp_path / "b"
    for directory, rate, rounds in zip(dirs, ("0.5", rate_b), ("2", rounds_b)):
        directory.mkdir()
        (directory / "power.csv").write_text(ROW.format(rate=rate, rounds=rounds))
    return [str(d) for d in dirs]


def test_identical_files_print_identical_bytes(tmp_path, capsys):
    assert compare_answers.main(answer_dirs(tmp_path, "0.5", "2")) == 0
    assert capsys.readouterr().out == "power.csv: identical bytes\n"


def test_moved_answers_print_how_far_they_moved(tmp_path, capsys):
    assert compare_answers.main(answer_dirs(tmp_path, "0.75", "3")) == 0
    out = capsys.readouterr().out
    assert "identical bytes" not in out
    assert "largest |delta secrecy_rate| 0.25 (row 0)" in out
    assert "rounds 2 -> 3" in out


def test_missing_file_exits_1(tmp_path, capsys):
    dir_a, dir_b = answer_dirs(tmp_path, "0.5", "2")
    (tmp_path / "b" / "power.csv").unlink()
    assert compare_answers.main([dir_a, dir_b]) == 1
    assert "power.csv: missing from" in capsys.readouterr().out

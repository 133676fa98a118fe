"""CLI tests, with golden outputs of every subcommand on the fixture.

Regenerate golden files with ``PYTHONPATH=src python tests/test_cli.py
[CASE ...]`` (every case when none is named), where a case is a key of
``CASES`` or of ``JSON_CASES``.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locindex.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURE = Path(__file__).resolve().parent.parent / "data" / "synthetic_marks.csv"

# case name -> argv before "--input FIXTURE"; the commands that fit curves also
# get "--seed 0", and fit and plot-data "--out"
CASES = {
    "summarize_table": ["summarize"],
    "summarize_csv": ["summarize", "--format", "csv"],
    "summarize_json": ["summarize", "--format", "json"],
    "compare_table": ["compare", "mathematics", "reading"],
    "compare_csv": ["compare", "mathematics", "reading", "--format", "csv"],
    "compare_json": ["compare", "mathematics", "reading", "--format", "json"],
    "loc_matrix_both_table": ["loc-matrix", "--loss", "both"],
    "loc_matrix_both_csv": ["loc-matrix", "--loss", "both", "--format", "csv"],
    "fit": ["fit", "mathematics", "reading", "--grid", "50"],
    "plot_data_median": ["plot-data", "mathematics", "reading", "--loss", "median",
                         "--grid", "50"],
}

# snapshot name -> the arguments that follow `loc-matrix --format json --seed 0` in the
# run whose stdout it holds; the un-jittered median fits the fixture's tied marks
JSON_CASES = {
    "loc_matrix_mean": ["--loss", "mean"],
    "loc_matrix_median": ["--loss", "median"],
    "loc_matrix_median_unjittered": ["--loss", "median", "--jitter-sd", "0"],
}


def run_case(name: str, out_dir: Path) -> str:
    """Exit status, stdout, stderr and every written file of one case, as text."""
    argv = [*CASES[name], "--input", str(FIXTURE)]
    if argv[0] != "summarize":
        argv += ["--seed", "0"]
    if argv[0] in ("fit", "plot-data"):
        argv += ["--out", str(out_dir)]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    parts = [f"exit: {code}", "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    for path in sorted(out_dir.iterdir()):
        parts += [f"--- file {path.name}", path.read_text(encoding="utf-8")]
    return "\n".join(parts).replace(str(out_dir), "<out>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == expected


def run_json_case(name: str) -> tuple[int, str]:
    """Exit status and stdout of one ``JSON_CASES`` snapshot's run."""
    out = StringIO()
    with redirect_stdout(out):
        code = main(["loc-matrix", "--input", str(FIXTURE), "--format", "json", "--seed", "0",
                     *JSON_CASES[name]])
    return code, out.getvalue()


@pytest.mark.parametrize("case", ["mean", "median", "median_unjittered"])
def test_loc_matrix_json_matches_golden_output(case):
    # full-precision LOCs: a change that moves a fit by one rounding moves
    # them, and regenerates them as the module docstring says
    code, out = run_json_case(f"loc_matrix_{case}")
    assert code == 0
    assert out == (GOLDEN / f"loc_matrix_{case}.json").read_text(encoding="utf-8")


def test_compare_gives_the_loc_matrix_entries_of_its_pair(marks_csv, capsys):
    common = ["--input", str(marks_csv), "--format", "json", "--seed", "3", "--grid", "200",
              "--m", "200"]
    assert main(["loc-matrix", "--loss", "both", *common]) == 0
    matrix = json.loads(capsys.readouterr().out)
    labels = matrix["mean"]["labels"]
    for x_name, y_name in [("mathematics", "reading"), ("spelling", "mathematics"),
                           ("reading", "spelling")]:
        assert main(["compare", x_name, y_name, *common]) == 0
        result = json.loads(capsys.readouterr().out)
        i, j = labels.index(x_name), labels.index(y_name)
        assert result["loc_mean"] == matrix["mean"]["entries"][i][j]
        assert result["loc_median"] == matrix["median"]["entries"][i][j]


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, because other tests import scipy into this one;
    # scipy is a test dependency, not a runtime one
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, locindex.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_unknown_subcommand_exits_with_status_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["summarize", "--grid", "5"],  # summarize fits no curve
    ["fit", "mathematics", "reading", "--format", "json"],  # fit prints no table
    ["plot-data", "mathematics", "reading", "--m", "50"],  # and not --max-items by prefix
])
def test_a_flag_the_command_does_not_read_exits_with_status_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--input", str(FIXTURE)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    # the command's usage, which lists the flags it takes, not the command list
    assert f"usage: locindex {argv[0]} " in err
    assert "{summarize," not in err


@pytest.mark.parametrize("argv, message", [
    (["compare", "mathematics", "reading", "--jitter-sd", "-1"], "--jitter-sd"),
    (["loc-matrix", "--jitter-sd", "-1"], "--jitter-sd"),
    (["compare", "mathematics", "reading", "--jitter-sd", "1e308"], "--jitter-sd"),
    (["compare", "mathematics", "reading", "--jitter-sd", "1e300"], "--jitter-sd"),
    (["fit", "mathematics", "reading", "--jitter-sd", "1e300"], "--jitter-sd"),
    (["loc-matrix", "--jitter-sd", "1e300"], "--jitter-sd"),
    (["loc-matrix", "--jitter-sd", "1"], "--jitter-sd must be finite and in [0, 1)"),
    (["summarize", "--bins", str(10 ** 20)], f"--bins {10 ** 20} is too large"),
    (["summarize", "--bins", str(2 ** 63 - 1)], f"--bins {2 ** 63 - 1} is too large"),
    (["summarize", "--bins", str(10 ** 17)], f"--bins {10 ** 17} is too large"),
    *((["loc-matrix", "--grid", str(grid), "--m", str(grid)], f"--grid {grid} is too large")
      for grid in (10 ** 17, 10 ** 20, 2 ** 63 - 1)),
    (["fit", "mathematics", "reading", "--grid", str(10 ** 17)], "--grid"),
    (["summarize", "--max-items", f"{10 ** 400},45,80"], "column 'mathematics': max_items"),
    (["summarize", "--max-items", "65,0,80"], "column 'reading': max_items"),
    (["fit", "mathematics", "reading", "--grid", "1"], "--grid"),
    (["loc-matrix", "--grid", "50", "--m", "40"], "must equal grid size"),
    (["summarize", "--bins", "0"], "--bins"),
    (["summarize", "--format", "xml"], "unknown format 'xml'; expected table, csv or json"),
    (["loc-matrix", "--loss", "all"], "unknown loss 'all'; expected mean, median or both"),
    (["summarize", "--max-items", "65,x,80"],
     "--max-items expects comma-separated integers, got '65,x,80'"),
    (["loc-matrix", "--seed", "-1"], "--seed must be non-negative"),
    (["compare", "mathematics", "nosuch"], "unknown column 'nosuch'"),
    (["plot-data", "nosuch", "reading"], "unknown column 'nosuch'"),
])
def test_invalid_settings_exit_with_status_2(marks_csv, capsys, argv, message):
    assert main([*argv, "--input", str(marks_csv)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_m_defaults_to_the_grid_size(capsys):
    argv = ["loc-matrix", "--input", str(FIXTURE), "--grid", "20", "--format", "json"]
    assert main(argv) == 0
    omitted = capsys.readouterr().out
    assert main([*argv, "--m", "20"]) == 0
    assert capsys.readouterr().out == omitted


def test_compare_names_a_jitter_that_left_ties(marks_csv, capsys):
    # the curves fit tied data, the rank coefficients cannot
    code = main(["compare", "mathematics", "reading", "--input", str(marks_csv),
                 "--grid", "20", "--m", "20", "--jitter-sd", "1e-320"])
    err = capsys.readouterr().err
    assert code == 2
    assert "(--jitter-sd 1e-320 left ties; set a larger --jitter-sd)" in err


# the command of a jitter too small to break the fixture's ties
TIED_JITTER = ["loc-matrix", "--grid", "20", "--m", "20", "--jitter-sd", "1e-320"]


def test_a_jitter_that_leaves_ties_gives_the_unjittered_matrix(marks_csv, capsys):
    assert main([*TIED_JITTER, "--input", str(marks_csv), "--format", "json"]) == 0
    tied = json.loads(capsys.readouterr().out)
    assert main([*TIED_JITTER[:-1], "0", "--input", str(marks_csv), "--format", "json"]) == 0
    assert tied == json.loads(capsys.readouterr().out)


def test_the_module_entry_point_runs_a_jitter_that_leaves_ties():
    # the way a user runs it: a fresh interpreter, with Python's default
    # warning filters
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-m", "locindex.cli", *TIED_JITTER,
                             "--input", str(FIXTURE)],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("LOC matrix, conditional-mean fit")


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv", [
    ["summarize", "--format", "csv"],
    ["fit", "mathematics", "reading", "--grid", "20"],
    ["plot-data", "mathematics", "reading", "--grid", "20"],
    ["loc-matrix", "--grid", "20"],
    ["compare", "mathematics", "reading", "--grid", "20"],
])
def test_a_reader_that_closed_stdout_ends_the_run_with_status_141(tmp_path, argv, unbuffered):
    # stdout is a pipe whose read end is closed before the run, so the first
    # write fails: at the print when stdout is unbuffered, else at a flush
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    if argv[0] in ("fit", "plot-data"):
        argv = [*argv, "--out", str(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "locindex.cli", *argv,
                                 "--input", str(FIXTURE)],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    # compare's note that it jittered the fixture's ties is all stderr may hold
    assert [line for line in result.stderr.splitlines()
            if not line.startswith("note: ties present")] == []


# the types of every key are checked under every command, summarize too; a
# value's range only under a command that takes the setting (exit 2 before any fit)
@pytest.mark.parametrize("command, setting, message", [
    ("summarize", {"seed": "abc"}, "config key 'seed': expected int"),
    ("summarize", {"grid": "x"}, "config key 'grid': expected int"),
    ("summarize", {"bins": 2.7}, "config key 'bins': expected int"),
    ("summarize", {"seed": True}, "config key 'seed': expected int"),
    ("summarize", {"jitter_sd": None}, "config key 'jitter_sd': expected float"),
    ("summarize", {"jitter_sd": "1e-5"}, "config key 'jitter_sd': expected float"),
    ("summarize", {"bandwidth": 10 ** 400}, "config key 'bandwidth': expected float"),
    ("summarize", {"max_items": ["a", 2, 3]},
     "config key 'max_items': expected str or a list of int"),
    ("summarize", {"max_items": [65.5, 45, 80]},
     "config key 'max_items': expected str or a list of int"),
    ("summarize", {"format": 3}, "config key 'format': expected str"),
    ("loc-matrix", {"jitter_sd": float("nan")}, "--jitter-sd must be finite"),
    ("loc-matrix", {"bandwidth": float("inf")}, "--bandwidth must be finite"),
    ("summarize", {"grids": 5}, "unknown key(s) grids"),
])
def test_config_values_of_the_wrong_type_exit_with_status_2(tmp_path, capsys, command,
                                                            setting, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(FIXTURE), **setting}), encoding="utf-8")
    assert main([command, "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


def test_a_config_setting_the_command_does_not_read_is_not_range_checked(tmp_path, capsys):
    assert main(["summarize", "--input", str(FIXTURE)]) == 0
    without = capsys.readouterr().out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": 1, "m": 3, "loss": "all"}), encoding="utf-8")
    assert main(["summarize", "--input", str(FIXTURE), "--config", str(config)]) == 0
    assert capsys.readouterr().out == without


def test_compare_prints_both_locs_whatever_loss_the_config_gives(tmp_path, capsys):
    argv = ["compare", "mathematics", "reading", "--input", str(FIXTURE), "--grid", "20",
            "--format", "json"]
    assert main(argv) == 0
    without = json.loads(capsys.readouterr().out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loss": "median"}), encoding="utf-8")
    assert main([*argv, "--config", str(config)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result == without
    assert math.isfinite(result["loc_mean"]) and math.isfinite(result["loc_median"])


@pytest.mark.parametrize("text, message", [
    ('{"grid": ' + "1" * 5000 + "}", "invalid JSON"),  # beyond Python's integer digits
    ('{"grid": 10', "invalid JSON"),
    (b'{"grid": 10}\xff', "invalid JSON"),
    ("[1]", "expected a JSON object"),
])
def test_unreadable_config_json_exits_with_status_2(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    if isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text, encoding="utf-8")
    assert main(["summarize", "--input", str(FIXTURE), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"config file {config}: {message}" in err
    assert "Traceback" not in err


def test_config_values_of_the_flags_types_are_accepted(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(FIXTURE), "max_items": [65, 45, 80],
                                  "jitter_sd": 0, "bandwidth": None, "loss": None,
                                  "format": "json", "bins": 4}), encoding="utf-8")
    assert main(["summarize", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["bins"] == 4


def test_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    config = tmp_path / "config.json"
    text = json.dumps({"input": str(FIXTURE), "format": "json", "bins": 4})
    config.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["summarize", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["bins"] == 4


@pytest.mark.parametrize("argv, message", [
    (["summarize", "--input", "{dir}"], "cannot read input file {dir}"),
    (["summarize", "--input", "{dir}/missing.csv"], "cannot read input file {dir}/missing.csv"),
    (["summarize", "--input", str(FIXTURE), "--config", "{dir}"],
     "cannot read config file {dir}"),
    (["plot-data", "mathematics", "reading", "--input", str(FIXTURE), "--grid", "50",
      "--out", "{dir}/taken"], "cannot write to --out {dir}/taken"),
    (["summarize"], "no input file given (use --input or a config file)"),
])
def test_unusable_paths_exit_with_status_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.delenv("LOCINDEX_CONFIG", raising=False)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message.format(dir=tmp_path) in err
    assert "Traceback" not in err


def _flat_reading_csv(tmp_path: Path) -> Path:
    """30 rows whose reading column is always 20."""
    rows = [f"S{i},{10 + (7 * i) % 41},20,{25 + (11 * i) % 37}" for i in range(30)]
    csv = tmp_path / "flat.csv"
    csv.write_text("\n".join(["student_id,mathematics,reading,spelling", *rows]) + "\n",
                   encoding="utf-8")
    return csv


def test_failed_pair_exits_with_status_1(tmp_path, capsys):
    # a constant x has no curve, with or without jitter (the jitter would only
    # spread it into noise); the other pairs are still reported
    csv = _flat_reading_csv(tmp_path)
    for jitter_sd in (["--jitter-sd", "0"], []):
        code = main(["loc-matrix", "--input", str(csv), *jitter_sd,
                     "--grid", "50", "--m", "50", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1, jitter_sd
        assert "error: pair (reading -> mathematics), mean fit: x is degenerate" in captured.err
        assert "error: pair (reading -> spelling), mean fit: x is degenerate" in captured.err
        entries = json.loads(captured.out)["mean"]["entries"]
        assert math.isnan(entries[1][0]) and math.isfinite(entries[0][2])


@pytest.mark.parametrize("jitter_sd", [[], ["--jitter-sd", "0"]])
def test_constant_y_column_has_loc_zero(tmp_path, capsys, jitter_sd):
    # a constant curve is non-decreasing; under jitter the curve must not
    # follow the noise of the constant column
    code = main(["loc-matrix", "--input", str(_flat_reading_csv(tmp_path)), "--loss", "both",
                 "--grid", "50", "--m", "50", *jitter_sd])
    assert code == 1  # reading as x fails
    # the rows of mathematics and spelling as x in the mean and median tables
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith(("mathematics ", "spelling "))]
    assert len(rows) == 4
    assert [row[2] for row in rows] == ["0.000000"] * 4  # the reading column


def test_bandwidth_fallback_warns_once_per_fit(tmp_path, capsys):
    # mathematics -> reading and spelling -> reading fall back ("y is
    # constant") in the mean and in the median fit; a second run in the same
    # process prints its own four lines, no more
    argv = ["loc-matrix", "--input", str(_flat_reading_csv(tmp_path)), "--loss", "both",
            "--grid", "50", "--m", "50"]
    for _ in range(2):
        assert main(argv) == 1  # reading as x fails
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: plug-in bandwidth degenerate (y is constant); "
                            "falling back to oversmoothed bandwidth"] * 4
        assert ".py:" not in err


@pytest.mark.parametrize("jitter_sd", [[], ["--jitter-sd", "0"]])
@pytest.mark.parametrize("x_name, y_name", [("reading", "mathematics"),
                                            ("mathematics", "reading")])
def test_compare_on_a_constant_column_reports_no_coefficients(tmp_path, capsys, jitter_sd,
                                                              x_name, y_name):
    code = main(["compare", x_name, y_name, "--input", str(_flat_reading_csv(tmp_path)),
                 "--grid", "50", "--m", "50", "--format", "json", *jitter_sd])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: coefficients unavailable: reading is constant" in captured.err
    result = json.loads(captured.out)
    for key in ("pearson", "spearman", "zeta_quadratic", "zeta_absolute",
                "finite_population_I", "rank_loc", "identity_rank_loc_equals_I"):
        assert result[key] is None, key
    if x_name == "reading":
        assert result["loc_mean"] is None and result["loc_median"] is None
    else:
        assert abs(result["loc_mean"]) < 1e-15 and result["loc_median"] == 0.0


def _algebra_geometry_csv(tmp_path: Path) -> Path:
    rows = [f"S{i},{5 + (13 * i) % 44},{3 + (7 * i + i * i) % 36}" for i in range(30)]
    path = tmp_path / "other.csv"
    path.write_text("\n".join(["student_id,algebra,geometry", *rows]) + "\n", encoding="utf-8")
    return path


def test_score_columns_come_from_the_csv_header(tmp_path, capsys):
    path = _algebra_geometry_csv(tmp_path)
    code = main(["loc-matrix", "--input", str(path), "--max-items", "50,40",
                 "--grid", "50", "--m", "50", "--format", "json"])
    assert code == 0
    block = json.loads(capsys.readouterr().out)["mean"]
    assert block["labels"] == ["algebra", "geometry"]
    assert len(block["entries"]) == 2 and all(len(row) == 2 for row in block["entries"])
    assert block["entries"][0][1] > 0.0 and block["entries"][1][0] > 0.0


@pytest.mark.parametrize("max_items", [[], ["--max-items", "50,40,30"]])
def test_other_columns_need_one_max_items_value_each(tmp_path, capsys, max_items):
    path = _algebra_geometry_csv(tmp_path)
    assert main(["summarize", "--input", str(path), *max_items]) == 2
    assert "algebra, geometry" in capsys.readouterr().err


def test_a_header_column_without_a_name_exits_with_status_2(tmp_path, capsys):
    # the fixture with a trailing comma on every line
    path = tmp_path / "trailing.csv"
    path.write_text("".join(f"{line},\n" for line in FIXTURE.read_text(encoding="utf-8")
                            .splitlines()), encoding="utf-8")
    assert main(["summarize", "--input", str(path)]) == 2
    assert "header column 5 has no name" in capsys.readouterr().err


def test_loc_matrix_of_one_column_exits_with_status_2(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("student_id,algebra\nS1,3\nS2,5\n", encoding="utf-8")
    assert main(["loc-matrix", "--input", str(path), "--max-items", "10"]) == 2
    err = capsys.readouterr().err
    assert "need at least 2 columns for a LOC matrix" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "plot-data"])
def test_plot_data_files_stay_under_out(tmp_path, capsys, command):
    path = tmp_path / "marks.csv"
    lines = _algebra_geometry_csv(tmp_path).read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(["student_id,../up,geometry", *lines[1:]]) + "\n",
                    encoding="utf-8")
    code = main([command, "../up", "geometry", "--input", str(path), "--max-items", "50,40",
                 "--grid", "20", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "columns '../up' and 'geometry'" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.dat")) == []


@pytest.mark.parametrize("argv, widths, named_row", [
    (["summarize", "--bins", "2"], [3] * 10, ["statistic", "math, algebra", "geometry"]),
    (["compare", "math, algebra", "geometry", "--grid", "20"], [2] * 10,
     ["pair", "math, algebra->geometry"]),
    (["loc-matrix", "--grid", "20"], [2, 3, 3, 3], ["X", "math, algebra", "geometry"]),
])
def test_csv_output_quotes_a_column_name_holding_a_comma(tmp_path, capsys, argv, widths,
                                                         named_row):
    path = _algebra_geometry_csv(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(['student_id,"math, algebra",geometry', *lines[1:]]) + "\n",
                    encoding="utf-8")
    assert main([*argv, "--input", str(path), "--max-items", "50,40", "--format", "csv"]) == 0
    rows = list(csv.reader(StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == widths
    assert named_row in rows


def test_default_columns_in_another_order_keep_their_max_items(tmp_path, capsys):
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    swapped = [",".join([c[0], c[3], c[1], c[2]]) for c in (line.split(",") for line in lines)]
    path = tmp_path / "swapped.csv"
    path.write_text("\n".join(swapped) + "\n", encoding="utf-8")
    assert main(["summarize", "--input", str(path), "--format", "json"]) == 0
    swapped_stats = json.loads(capsys.readouterr().out)["columns"]
    assert main(["summarize", "--input", str(FIXTURE), "--format", "json"]) == 0
    assert swapped_stats == json.loads(capsys.readouterr().out)["columns"]
    assert list(swapped_stats) == ["spelling", "mathematics", "reading"]


def test_flags_override_config_file_which_overrides_defaults(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(FIXTURE), "format": "csv", "bins": 5}),
                      encoding="utf-8")
    monkeypatch.setenv("LOCINDEX_CONFIG", str(config))

    assert main(["summarize"]) == 0  # config over defaults: csv, 5 bins
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "statistic,mathematics,reading,spelling"
    assert lines[-1].startswith("histogram spelling,")
    assert len(lines[-1].split(",")) == 1 + 5

    assert main(["summarize", "--bins", "3"]) == 0  # flag over config
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "statistic,mathematics,reading,spelling"
    assert len(lines[-1].split(",")) == 1 + 3

    assert main(["summarize", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bins"] == 5 and payload["n"] == 52


# ---------------------------------------------------------------------------
# fuzzing: whatever the CSV and flags, the CLI answers with a status

# what a status-1 error line may say: a failed pair, a failed curve or a
# constant column
_PAIR_ERROR = re.compile(r"error: (pair \(\S+ -> \S+\), (mean|median) fit: "
                         r"|(mean|median) (curve|fit) failed: "
                         r"|coefficients unavailable: \S+ is constant$)")


@st.composite
def _marks(draw, n: int, cap: int) -> list[int]:
    """One column of n raw counts on [0, cap]: spread, constant, two-valued
    (tied), or two clusters at the ends, with a gap wider than the kernel
    reaches."""
    kind = draw(st.sampled_from(["spread", "constant", "two-valued", "gap"]))
    if kind == "constant":
        return [draw(st.integers(0, cap))] * n
    if kind == "two-valued":
        values = st.sampled_from(draw(st.lists(st.integers(0, cap), min_size=2, max_size=2)))
    elif kind == "gap":
        values = st.one_of(st.integers(0, cap // 10), st.integers(cap - cap // 10, cap))
    else:
        values = st.integers(0, cap)
    return draw(st.lists(values, min_size=n, max_size=n))


@st.composite
def _cli_cases(draw) -> tuple[str, list[str]]:
    """A CSV's text and the argv of one command on it, without --input.

    Each command gets only the flags it takes, so argparse rejects no argv.
    """
    k, n = draw(st.integers(1, 3)), draw(st.integers(2, 60))
    names = [f"s{j}" for j in range(k)]
    caps = draw(st.lists(st.integers(1, 100), min_size=k, max_size=k))
    columns = [draw(_marks(n, cap)) for cap in caps]
    rows = [",".join([f"S{i}", *(str(col[i]) for col in columns)]) for i in range(n)]
    text = "\n".join([",".join(["student_id", *names]), *rows]) + "\n"

    command = draw(st.sampled_from(["summarize", "fit", "plot-data", "loc-matrix",
                                    "compare"]))
    argv = [command]
    if command in ("fit", "plot-data", "compare"):
        argv += [draw(st.sampled_from(names)), draw(st.sampled_from(names))]
    argv += ["--max-items", ",".join(map(str, caps))]
    if command in ("summarize", "loc-matrix", "compare"):
        argv += ["--format", draw(st.sampled_from(["table", "csv", "json"]))]
    if command == "summarize":
        return text, [*argv, "--bins", str(draw(st.integers(1, 1000)))]
    grid = str(draw(st.integers(2, 60)))
    argv += ["--seed", str(draw(st.integers(0, 2**32))), "--grid", grid, "--jitter-sd",
             draw(st.sampled_from(["0", "1e-320", "1e-5", "0.5", "0.999", "1", "1e300"]))]
    if command in ("loc-matrix", "compare"):
        argv += ["--m", grid]
    bandwidth = draw(st.sampled_from([None, "1e-300", "1e-3", "0.1", "10", "1e300"]))
    if bandwidth is not None:
        argv += ["--bandwidth", bandwidth]
    if command in ("plot-data", "loc-matrix"):
        argv += ["--loss", draw(st.sampled_from(["mean", "median", "both"]))]
    return text, argv


_ON_THE_FIXTURE = [
    TIED_JITTER,
    ["compare", "mathematics", "reading", "--grid", "20", "--m", "20", "--jitter-sd", "1e-320"],
    ["compare", "mathematics", "reading", "--grid", "20", "--m", "20", "--jitter-sd", "1e308"],
    ["compare", "mathematics", "reading", "--grid", "20", "--m", "20", "--jitter-sd", "1e300"],
    ["fit", "mathematics", "reading", "--grid", "20", "--jitter-sd", "1e300"],
    ["loc-matrix", "--grid", "20", "--m", "20", "--jitter-sd", "1e300"],
    ["summarize", "--bins", str(10 ** 20)],
    *(["loc-matrix", "--grid", str(grid), "--m", str(grid)]
      for grid in (10 ** 17, 10 ** 20, 2 ** 63 - 1)),
    ["summarize", "--max-items", f"{10 ** 400},45,80"],
]


# a jitter of 1e-320 spreads the zeros of s0 over subnormals, so the y step
# between two of them is a slope beyond the float range
_SUBNORMAL_STEP = ("\n".join(["student_id,s0,s1", *(f"S{i},0,0" for i in range(48)),
                              "S48,0,1", "S49,1,0"]) + "\n",
                   ["fit", "s0", "s1", "--max-items", "1,1", "--grid", "2",
                    "--jitter-sd", "1e-320"])


def _pin_examples(test):
    for argv in _ON_THE_FIXTURE:  # None: the CSV is the fixture
        test = example(case=(None, argv))(test)
    return example(case=_SUBNORMAL_STEP)(test)


@_pin_examples
@given(case=_cli_cases())
@settings(max_examples=100, deadline=None)
def test_every_input_ends_in_an_exit_status_without_a_traceback(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = FIXTURE
        if text is not None:
            path = Path(tmp) / "marks.csv"
            path.write_text(text, encoding="utf-8")
        argv = [*argv, "--input", str(path)]
        if argv[0] in ("fit", "plot-data"):
            argv += ["--out", tmp]
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    err = err.getvalue()
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 1:
        assert errors
        for line in errors:
            assert _PAIR_ERROR.match(line), line


if __name__ == "__main__":
    for case in sys.argv[1:] or [*sorted(CASES), *JSON_CASES]:
        if case in JSON_CASES:
            code, text = run_json_case(case)
            if code != 0:
                sys.exit(f"{case}: exit status {code}")
            path = GOLDEN / f"{case}.json"
        else:
            with tempfile.TemporaryDirectory() as tmp:
                text = run_case(case, Path(tmp))
            path = GOLDEN / f"{case}.txt"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")

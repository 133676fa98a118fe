"""CLI tests, with golden outputs of every subcommand on the fixture.

Regenerate golden files with ``PYTHONPATH=src python tests/test_cli.py
[CASE ...]`` (all cases when none is named); the two ``loc_matrix_*.json``
snapshots are not regenerated by it.
"""

import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from locindex.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURE = Path(__file__).resolve().parent.parent / "data" / "synthetic_marks.csv"

# case name -> argv after "--input FIXTURE --seed 0"; fit and plot-data also get --out
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


def run_case(name: str, out_dir: Path) -> str:
    """Exit status, stdout, stderr and every written file of one case, as text."""
    argv = [*CASES[name], "--input", str(FIXTURE), "--seed", "0"]
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


@pytest.mark.parametrize("loss", ["mean", "median"])
def test_loc_matrix_json_matches_golden_output(marks_csv, capsys, loss):
    # the mean snapshot predates the exact check-loss solver and must not
    # move; the median snapshot records that solver's exact optimum
    code = main(["loc-matrix", "--input", str(marks_csv), "--loss", loss,
                 "--format", "json", "--seed", "0"])
    assert code == 0
    expected = (GOLDEN / f"loc_matrix_{loss}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


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


def test_unknown_subcommand_exits_with_status_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["compare", "mathematics", "reading", "--jitter-sd", "-1"], "--jitter-sd"),
    (["loc-matrix", "--jitter-sd", "-1"], "--jitter-sd"),
    (["fit", "mathematics", "reading", "--grid", "1"], "--grid"),
    (["loc-matrix", "--grid", "50"], "must equal grid size"),
])
def test_invalid_settings_exit_with_status_2(marks_csv, capsys, argv, message):
    assert main([*argv, "--input", str(marks_csv)]) == 2
    assert message in capsys.readouterr().err


def test_failed_pair_exits_with_status_1(tmp_path, capsys):
    # without jitter a constant x defeats the plug-in bandwidth; the other
    # pairs are still reported
    rows = [f"S{i},{10 + (7 * i) % 41},20,{25 + (11 * i) % 37}" for i in range(30)]
    csv = tmp_path / "flat.csv"
    csv.write_text("\n".join(["student_id,mathematics,reading,spelling", *rows]) + "\n",
                   encoding="utf-8")
    code = main(["loc-matrix", "--input", str(csv), "--jitter-sd", "0",
                 "--grid", "50", "--m", "50", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: pair (reading -> mathematics), mean fit: x is degenerate" in captured.err
    assert "error: pair (reading -> spelling), mean fit: x is degenerate" in captured.err
    entries = json.loads(captured.out)["mean"]["entries"]
    assert math.isnan(entries[1][0]) and math.isfinite(entries[0][2])


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


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(case, Path(tmp))
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / f'{case}.txt'}")

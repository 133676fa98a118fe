from pathlib import Path

import pytest

from locindex.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("loss", ["mean", "median"])
def test_loc_matrix_json_matches_golden_output(marks_csv, capsys, loss):
    # the mean snapshot predates the exact check-loss solver and must not
    # move; the median snapshot records that solver's exact optimum
    code = main(["loc-matrix", "--input", str(marks_csv), "--loss", loss,
                 "--format", "json", "--seed", "0"])
    assert code == 0
    expected = (GOLDEN / f"loc_matrix_{loss}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_unknown_subcommand_exits_with_status_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

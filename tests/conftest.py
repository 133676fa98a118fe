import logging
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from locindex import NormalizedSample, PairedSample, load_csv, normalize

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO_ROOT / "data" / "synthetic_marks.csv"


@pytest.fixture(scope="session")
def marks_csv() -> Path:
    return FIXTURE_CSV


@pytest.fixture(scope="session")
def marks_sample() -> NormalizedSample:
    return normalize(load_csv(FIXTURE_CSV))


@pytest.fixture()
def fallback_warnings(caplog):
    """A function that returns, and clears, the bandwidth fallback warnings logged so far."""
    def take() -> list[str]:
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "locindex.bandwidth" and r.levelno == logging.WARNING]
        caplog.clear()
        return messages
    return take


@pytest.fixture()
def linear_pair() -> PairedSample:
    x = np.linspace(0.0, 1.0, 30)
    return PairedSample(x=x, y=2.0 * x + 1.0)


def write_csv(path: Path, rows: list[str], header: str = "student_id,mathematics,reading,spelling") -> Path:
    path.write_text("\n".join([header, *rows]) + ("\n" if rows else "\n"), encoding="utf-8")
    return path

"""Committed reports that ``gqsearch`` must reproduce byte for byte.

``tests/data/golden`` holds one n = 64 config per experiment kind, the CSV
report each one wrote, and the JSON report of the b-sweep config.  Both
``run`` and ``sweep`` must write the CSV reports.  A change that moves any
report byte (a digit, a column, the peak row) fails here.
Each test starts from an empty random-draw memo, so it pins the report a
fresh ``gqsearch`` process writes, not one drawn from a warm memo.
Every golden lambda1 cell is exactly 0: a cotangent at phase pi is 0,
and the paired spectra cancel term by term, as do their boosts, whose
wrap is odd.
Regenerate a file only for a change that means to alter reports, with

    gqsearch run --config tests/data/golden/KIND.ini --out tests/data/golden/KIND.csv
"""

from pathlib import Path

import pytest

from gqsearch import cli, spectra
from gqsearch.harness import EXPERIMENT_KINDS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.fixture(autouse=True)
def cold_draw_memo():
    spectra._seeded_draws.cache_clear()


def test_every_kind_has_a_golden_config():
    assert sorted(path.stem for path in GOLDEN.glob("*.ini")) == sorted(
        EXPERIMENT_KINDS
    )


# a golden config holds no comma list, so sweep must expand it to the one
# run it describes; the run ids stay the bare kind
@pytest.mark.parametrize(
    "command, kind",
    [("run", kind) for kind in EXPERIMENT_KINDS]
    + [("sweep", kind) for kind in EXPERIMENT_KINDS],
    ids=list(EXPERIMENT_KINDS) + [f"sweep-{kind}" for kind in EXPERIMENT_KINDS],
)
def test_run_reproduces_golden_csv(command, kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    argv = [command, "--config", str(GOLDEN / f"{kind}.ini")]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{kind}.csv").read_bytes()


def test_run_reproduces_golden_json(tmp_path):
    out = tmp_path / "b-sweep.json"
    argv = ["run", "--config", str(GOLDEN / "b-sweep.ini"), "--format", "json"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "b-sweep.json").read_bytes()

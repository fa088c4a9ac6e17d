"""Checks the tests share that the package itself has no use for."""

from typing import get_args, get_type_hints

import numpy as np

from gqsearch.harness import ReportRow

# column -> the type of its non-empty cells (int | None reads as int)
_COLUMN_TYPES = {
    name: (get_args(hint) or (hint,))[0]
    for name, hint in get_type_hints(ReportRow).items()
}


def unitarity_defect(matrix) -> float:
    """Largest entry of |U^dag U - I|, zero for an exact unitary."""
    matrix = np.asarray(matrix)
    gram = matrix.conj().T @ matrix
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def parse_report_csv(path) -> list[dict]:
    """Read back an emitted CSV report into dicts of typed values."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        entry = {}
        for name, cell in zip(names, line.split(",")):
            entry[name] = None if cell == "" else _COLUMN_TYPES[name](cell)
        rows.append(entry)
    return rows

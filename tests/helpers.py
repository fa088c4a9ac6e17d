"""Checks the tests share that the package itself has no use for."""

import numpy as np

from gqsearch.harness import _INT_FIELDS


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
            if cell == "":
                entry[name] = None
            elif name in _INT_FIELDS:
                entry[name] = int(cell)
            elif name == "experiment":
                entry[name] = cell
            else:
                entry[name] = float(cell)
        rows.append(entry)
    return rows

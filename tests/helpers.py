"""Checks the tests share that the package itself has no use for."""

from typing import get_args, get_type_hints

import math

import numpy as np

from gqsearch.harness import ReportRow
from gqsearch.linalg import wrap_phase
from gqsearch.spectra import EigenSpectrum

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


def graph_spectrum(levels, gamma) -> EigenSpectrum:
    """A vertex-transitive graph diffusion e^{-i gamma L}, one entry per level.

    ``levels`` maps each Laplacian eigenvalue to its multiplicity.  A level
    lambda of multiplicity mu is one entry with phase wrap(-gamma lambda)
    and target weight mu / N, whichever vertex is marked; the lambda = 0
    entry, the source, comes first.  The spectrum is just those phases and
    weights, with n = N.  A level stands for a whole eigenspace, so the
    spectrum has one entry per level, not per vertex; a dense oracle runs on
    it through ``dense.eigenbasis``, a basis of that compressed size.
    """
    n = sum(levels.values())
    items = sorted(levels.items())
    assert items[0][0] == 0
    phases = wrap_phase(np.array([-gamma * level for level, _ in items]))
    weights = np.array([mu for _, mu in items]) / n
    return EigenSpectrum(phases, weights, n=n)


def hypercube_levels(d):
    """Laplacian levels of the d-cube: 2j with multiplicity C(d, j)."""
    return {2 * j: math.comb(d, j) for j in range(d + 1)}


def torus_levels(d, side):
    """Laplacian levels of the d-dimensional torus of side ``side``.

    The 1D levels 2 (1 - cos(2 pi k / side)) are convolved d times; sums
    equal to 9 decimals are one level.
    """
    line = {}
    for k in range(side):
        level = round(2.0 * (1.0 - math.cos(2.0 * math.pi * k / side)), 9)
        line[level] = line.get(level, 0) + 1
    levels = {0.0: 1}
    for _ in range(d):
        summed = {}
        for a, mu_a in levels.items():
            for b, mu_b in line.items():
                key = round(a + b, 9)
                summed[key] = summed.get(key, 0) + mu_a * mu_b
        levels = summed
    return levels

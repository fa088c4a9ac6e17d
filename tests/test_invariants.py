"""Invariants of the O(N) runs that need no dense object.

Conjugating the spectrum, splitting an entry into two of the same phase,
merging entries of one phase and relabeling the nonsource entries all
leave every run unchanged, up to rounding.
"""

import math

import numpy as np
import pytest

from gqsearch.pea import b_prime, boosted_search_run
from gqsearch.search import run_iterations
from gqsearch.spectra import (
    EigenSpectrum,
    SearchInstance,
    grover_spectrum,
    resonant_spectrum,
    symmetric_spectrum,
)

from helpers import graph_spectrum, hypercube_levels


# the symmetric family at N = 256 and 1024, boosted at m = 2 to 4, the
# resonant family at N = 256, whose phases sit just off the m = 3 resonance,
# boosted at m = 3, and Grover at N = 32 with a random complex source, whose
# weighted phase-pi entries the plain run steps too, boosted at m = 1 to 3
CASES = [
    pytest.param(("symmetric", 256), id="256"),
    pytest.param(("symmetric", 1024), id="1024"),
    pytest.param(("resonant", 256), id="resonant-256"),
    pytest.param(("grover", 32), id="grover-32"),
]


def case_spectrum(case):
    """The spectrum of a case and the ancilla counts of its boosted runs."""
    family, n = case
    if family == "symmetric":
        return symmetric_spectrum(n, 1, 0.5, 1.5, b_target=8), (2, 3, 4)
    if family == "grover":
        rng = np.random.default_rng(8)
        source = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return grover_spectrum(n, source / np.linalg.norm(source)), (1, 2, 3)
    return resonant_spectrum(n, 3, 1e-3, 1), (3,)


def conjugate(spec):
    """Every phase negated, pi kept at pi, and the target row conjugated."""
    phases = np.where(spec.phases == np.pi, np.pi, -spec.phases)
    return EigenSpectrum(phases, spec.target_row.conj())


def same_columns(report, other):
    return (
        report.target_probability.tobytes() == other.target_probability.tobytes()
        and report.source_overlap.tobytes() == other.source_overlap.tobytes()
    )


@pytest.mark.parametrize("case", CASES)
def test_conjugation_leaves_every_run_bit_for_bit(case):
    # IEEE complex arithmetic commutes with conjugation, so every amplitude
    # of the conjugate run is the conjugate of the original's and every
    # magnitude matches exactly
    spec, ancillas = case_spectrum(case)
    inst = SearchInstance.build(spec)
    mirror = SearchInstance.build(conjugate(inst))
    assert mirror.b_factor == inst.b_factor
    assert same_columns(run_iterations(mirror, 400), run_iterations(inst, 400))
    for m in ancillas:
        assert b_prime(mirror, m) == b_prime(inst, m)
        assert same_columns(boosted_search_run(mirror, m), boosted_search_run(inst, m))


def test_repeated_nonsource_phases_are_accepted():
    # the multiplicity spectra of graph diffusions hold each eigenphase many
    # times, so a later "distinct phases" check must not reject this
    phases = [0.0, 0.7, 0.7, -0.7, -0.7]
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((2, 5, 5))
    row = np.linalg.qr(draws[0] + 1j * draws[1])[0][0]
    inst = SearchInstance.build(EigenSpectrum(phases, row))
    report = run_iterations(inst, 20)
    # it runs as the spectrum with each repeated phase merged into one entry
    weights = inst.weights
    merged_row = np.sqrt([weights[0], weights[1] + weights[2], weights[3] + weights[4]])
    merged = EigenSpectrum([0.0, 0.7, -0.7], merged_row)
    expected = run_iterations(SearchInstance.build(merged), 20)
    for column in ("target_probability", "source_overlap"):
        gap = getattr(report, column) - getattr(expected, column)
        assert np.max(np.abs(gap)) <= 1e-12


def respell(spec, phases, row):
    """The spectrum with entries (phases, row); the source stays entry 0."""
    phases = np.concatenate([[0.0], phases])
    return EigenSpectrum(phases, np.concatenate([spec.target_row[:1], row]))


def split(spec):
    """Every nonsource entry as two of its phase, with 0.3 and 0.7 of its weight."""
    shares = np.tile(np.sqrt([0.3, 0.7]), spec.dimension - 1)
    return respell(
        spec,
        np.repeat(spec.phases[1:], 2),
        np.repeat(spec.target_row[1:], 2) * shares,
    )


def relabel(spec):
    """The nonsource entries in a fixed shuffled order."""
    order = 1 + np.random.default_rng(7).permutation(spec.dimension - 1)
    return respell(spec, spec.phases[order], spec.target_row[order])


def assert_same_runs(spec, other, ancillas=(2, 3, 4), q_max=2000, tol=1e-11):
    """Plain and boosted runs (m in ``ancillas``) of both spectra agree to ``tol``."""
    inst, twin = SearchInstance.build(spec), SearchInstance.build(other)
    for name in ("b_factor", "lambda1"):
        assert abs(getattr(inst, name) - getattr(twin, name)) <= 1e-12
    runs = [(run_iterations(inst, q_max), run_iterations(twin, q_max))]
    for m in ancillas:
        assert abs(b_prime(inst, m).b_prime - b_prime(twin, m).b_prime) <= 1e-12
        runs.append(
            (boosted_search_run(inst, m, q_max), boosted_search_run(twin, m, q_max))
        )
    for report, expected in runs:
        assert report.peak_q == expected.peak_q
        for column in ("target_probability", "source_overlap"):
            gap = getattr(report, column) - getattr(expected, column)
            assert np.max(np.abs(gap)) <= tol


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("respelling", [split, relabel])
def test_splitting_and_relabeling_leave_every_run(case, respelling):
    # in eigen-coordinates the oracle only adds multiples of the target row
    # and the diffusion is a scalar on each phase, so the run sees each
    # phase's target weight, not how it is shared out or ordered
    spec, ancillas = case_spectrum(case)
    assert_same_runs(respelling(spec), spec, ancillas)


def test_merging_each_level_leaves_every_run():
    # the 11 levels of the 10-cube against its 1024 vertices: vertex x has
    # level 2 popcount(x) and target entry 1 / 32
    levels = graph_spectrum(hypercube_levels(10), math.pi / 21)
    popcount = [bin(x).count("1") for x in range(1024)]
    row = np.full(1024, 1.0 / 32.0, dtype=np.complex128)
    vertices = EigenSpectrum(levels.phases[popcount], row)
    assert_same_runs(levels, vertices)

"""Invariants of the O(N) runs that need no dense object.

Conjugating the spectrum, splitting an entry into two of the same phase,
merging entries of one phase and relabeling the nonsource entries all
leave every run unchanged, up to rounding.  A spectrum merges equal phases
itself, so a split is merged back where it is made.
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
# boosted at m = 3, and Grover at N = 32 with the overlap of a random complex
# source, two entries, boosted at m = 1 to 3
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
        return grover_spectrum(n, abs(source[0]) / np.linalg.norm(source)), (1, 2, 3)
    return resonant_spectrum(n, 3, 1e-3, 1), (3,)


def conjugate(spec):
    """Every phase negated, pi kept at pi, on the same weights."""
    phases = np.where(spec.phases == np.pi, np.pi, -spec.phases)
    return EigenSpectrum(phases, spec.weights, n=spec.dimension)


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
    # times: equal phases merge into one entry, in the order each phase
    # first occurs, with the weights summed in entry order, and n stays the
    # entry count given
    phases = [0.0, 0.7, -0.7, 0.7, 2.0, -0.7, 0.7]
    weights = np.random.default_rng(5).dirichlet(np.ones(7))
    spec = EigenSpectrum(phases, weights)
    assert spec.phases.tolist() == [0.0, 0.7, -0.7, 2.0]
    summed = [
        weights[0],
        (weights[1] + weights[3]) + weights[6],
        weights[2] + weights[5],
        weights[4],
    ]
    assert spec.weights.tobytes() == np.array(summed).tobytes()
    assert spec.dimension == 7
    # a spectrum with no repeated phase keeps its arrays bit for bit
    again = EigenSpectrum(spec.phases, spec.weights, n=spec.dimension)
    assert again.phases.tobytes() == spec.phases.tobytes()
    assert again.weights.tobytes() == spec.weights.tobytes()
    assert again.dimension == 7


def respell(spec, phases, weights):
    """The spectrum with entries (phases, weights); the source stays entry 0."""
    phases = np.concatenate([[0.0], phases])
    return EigenSpectrum(phases, np.concatenate([spec.weights[:1], weights]))


def split(spec):
    """Every nonsource entry as two of its phase, with 0.3 and 0.7 of its weight."""
    shares = np.tile([0.3, 0.7], spec.phases.size - 1)
    return respell(
        spec,
        np.repeat(spec.phases[1:], 2),
        np.repeat(spec.weights[1:], 2) * shares,
    )


def relabel(spec):
    """The nonsource entries in a fixed shuffled order."""
    order = 1 + np.random.default_rng(7).permutation(spec.phases.size - 1)
    return respell(spec, spec.phases[order], spec.weights[order])


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
    # in eigen-coordinates the oracle only adds multiples of the target
    # vector and the diffusion is a scalar on each phase, so the run sees
    # each phase's target weight, not how it is shared out or ordered
    spec, ancillas = case_spectrum(case)
    assert_same_runs(respelling(spec), spec, ancillas)


def test_merging_each_level_leaves_every_run():
    # the 11 levels of the 10-cube against its 1024 vertices: vertex x has
    # level 2 popcount(x) and target weight 1 / 1024, and the vertices merge
    # into the levels in increasing order
    levels = graph_spectrum(hypercube_levels(10), math.pi / 21)
    popcount = [bin(x).count("1") for x in range(1024)]
    vertices = EigenSpectrum(levels.phases[popcount], np.full(1024, 1.0 / 1024.0))
    assert vertices.phases.tobytes() == levels.phases.tobytes()
    assert vertices.dimension == levels.dimension == 1024
    assert_same_runs(levels, vertices)

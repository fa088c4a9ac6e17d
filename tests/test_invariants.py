"""Invariants of the O(N) runs that need no dense object."""

import numpy as np
import pytest

from gqsearch.pea import b_prime, boosted_search_run
from gqsearch.search import run_iterations
from gqsearch.spectra import EigenSpectrum, SearchInstance, symmetric_spectrum


def conjugate(spec):
    """Every phase negated, pi kept at pi, and the target row conjugated."""
    phases = np.where(spec.phases == np.pi, np.pi, -spec.phases)
    return EigenSpectrum._generated(phases, row=spec.target_row.conj(), build=None)


def same_columns(report, other):
    return (
        report.target_probability.tobytes() == other.target_probability.tobytes()
        and report.source_overlap.tobytes() == other.source_overlap.tobytes()
    )


@pytest.mark.parametrize("n", [256, 1024])
def test_conjugation_leaves_every_run_bit_for_bit(n):
    # IEEE complex arithmetic commutes with conjugation, so every amplitude
    # of the conjugate run is the conjugate of the original's and every
    # magnitude matches exactly
    inst = SearchInstance.build(symmetric_spectrum(n, 1, 0.5, 1.5, b_target=8))
    mirror = SearchInstance.build(conjugate(inst.spectrum))
    assert mirror.spectrum._vectors is None
    assert mirror.b_factor == inst.b_factor
    assert same_columns(run_iterations(mirror, 400), run_iterations(inst, 400))
    for m in (2, 3, 4):
        assert b_prime(mirror, m) == b_prime(inst, m)
        assert same_columns(boosted_search_run(mirror, m), boosted_search_run(inst, m))


def test_repeated_nonsource_phases_are_accepted():
    # the multiplicity spectra of graph diffusions hold each eigenphase many
    # times, so a later "distinct phases" check must not reject this
    phases = [0.0, 0.7, 0.7, -0.7, -0.7]
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((2, 5, 5))
    vectors = np.linalg.qr(draws[0] + 1j * draws[1])[0]
    inst = SearchInstance.build(EigenSpectrum(phases, vectors))
    report = run_iterations(inst, 20)
    # it runs as the spectrum with each repeated phase merged into one entry
    weights = inst.spectrum.weights
    merged_row = np.sqrt([weights[0], weights[1] + weights[2], weights[3] + weights[4]])
    merged = EigenSpectrum._generated(
        [0.0, 0.7, -0.7], row=merged_row.astype(np.complex128), build=None
    )
    expected = run_iterations(SearchInstance.build(merged), 20)
    for column in ("target_probability", "source_overlap"):
        gap = getattr(report, column) - getattr(expected, column)
        assert np.max(np.abs(gap)) <= 1e-12

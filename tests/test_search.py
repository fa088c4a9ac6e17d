"""Search iteration tests: predictions vs dense linear algebra oracles."""

import math

import numpy as np
import pytest

from gqsearch import search
from gqsearch.linalg import unitarity_defect
from gqsearch.search import (
    NormDriftError,
    predict_spectrum,
    run_iterations,
    search_operator,
    verify_relevant_pair,
)
from gqsearch.spectra import (
    EigenSpectrum,
    SearchInstance,
    build_diffusion,
    grover_spectrum,
    resonant_spectrum,
    symmetric_spectrum,
)


def householder_with_first_row(row):
    # symmetric orthogonal matrix whose first row is the given unit vector
    u = np.array(row, dtype=float)
    u[0] -= 1.0
    norm2 = float(u @ u)
    if norm2 < 1e-30:
        return np.eye(len(row))
    return np.eye(len(row)) - (2.0 / norm2) * np.outer(u, u)


def double_pair_toy():
    """5-dim instance: alpha = 0.1, two conjugate pairs at +/- pi/2.

    Every pair member carries weight (1 - alpha^2)/4, so b^2 = 1.98.
    """
    alpha = 0.1
    w = (1.0 - alpha**2) / 4.0
    frame = householder_with_first_row([alpha] + [math.sqrt(w)] * 4)
    v0, a1, b1, a2, b2 = frame.T.astype(np.complex128)
    half = 1.0 / math.sqrt(2.0)
    vectors = np.column_stack(
        [
            v0,
            (a1 + 1j * b1) * half,
            (a1 - 1j * b1) * half,
            (a2 + 1j * b2) * half,
            (a2 - 1j * b2) * half,
        ]
    )
    phases = np.array(
        [0.0, 0.5 * math.pi, -0.5 * math.pi, 0.5 * math.pi, -0.5 * math.pi]
    )
    return SearchInstance.build(EigenSpectrum(phases, vectors, source_index=0))


def skewed_toy(alpha=0.05):
    # unbalanced weights at unequal phases: nonzero first moment, but mild
    # enough that the source still spreads visibly over both pair vectors
    w1 = 0.45 * (1.0 - alpha**2)
    w2 = 0.55 * (1.0 - alpha**2)
    frame = householder_with_first_row([alpha, math.sqrt(w1), math.sqrt(w2)])
    vectors = frame.astype(np.complex128)
    phases = np.array([0.0, 2.0, -2.6])
    return SearchInstance.build(EigenSpectrum(phases, vectors, source_index=0))


def test_search_operator_is_diffusion_after_flip():
    inst = double_pair_toy()
    flip = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]).astype(np.complex128)
    expected = build_diffusion(inst.spectrum) @ flip
    assert np.allclose(search_operator(inst), expected, atol=1e-12)
    assert unitarity_defect(search_operator(inst)) < 1e-10


class TestPrediction:
    def test_double_pair_values_frozen(self):
        # b = sqrt(1.98), rate = 2 alpha / b, q_m = round(pi b / 4 alpha - 1/2)
        pred = predict_spectrum(double_pair_toy())
        assert np.isclose(pred.lambda_plus, 0.1421338109037403, rtol=1e-12)
        assert pred.lambda_minus == -pred.lambda_plus
        assert pred.eta == 0.25 * np.pi
        assert pred.q_m == 11
        assert np.isclose(pred.peak_overlap, 1.0 / math.sqrt(1.98), rtol=1e-12)

    def test_balanced_pair_phases_match_dense(self):
        inst = double_pair_toy()
        pred = predict_spectrum(inst)
        plus, minus, residual = verify_relevant_pair(inst)
        assert abs(plus - pred.lambda_plus) <= 0.05 * abs(pred.lambda_plus)
        assert abs(minus - pred.lambda_minus) <= 0.05 * abs(pred.lambda_minus)
        assert residual <= 0.02

    def test_skewed_pair_phases_match_dense(self):
        inst = skewed_toy()
        pred = predict_spectrum(inst)
        assert inst.lambda1 > 0.1  # genuinely unbalanced
        assert pred.eta < 0.25 * np.pi
        plus, minus, residual = verify_relevant_pair(inst)
        assert abs(plus - pred.lambda_plus) <= 0.05 * abs(pred.lambda_plus)
        assert abs(minus - pred.lambda_minus) <= 0.05 * abs(pred.lambda_minus)
        assert residual <= 0.02

    def test_skewed_product_rule(self):
        # tan(eta) * (1 / tan(eta)) structure: lambda_+ lambda_- = -(2a/b)^2
        inst = skewed_toy()
        pred = predict_spectrum(inst)
        rate = 2.0 * inst.alpha / inst.b_factor
        assert np.isclose(pred.lambda_plus * pred.lambda_minus, -(rate**2), rtol=1e-12)


class TestRunIterations:
    def test_initial_row(self):
        inst = double_pair_toy()
        report = run_iterations(inst, 0)
        assert len(report.records) == 1
        first = report.records[0]
        assert first.q == 0
        assert np.isclose(first.target_probability, inst.alpha**2, atol=1e-15)
        assert np.isclose(first.source_overlap, 1.0, atol=1e-15)
        assert first.oracle_queries == 0
        assert report.peak_q == 0

    @pytest.mark.parametrize(
        "build, peak_window",
        [
            (double_pair_toy, (10, 12)),
            (
                lambda: SearchInstance.build(
                    symmetric_spectrum(16, 6, 0.9, 1.9, alpha=0.05)
                ),
                (1, 25),
            ),
            (
                lambda: SearchInstance.build(
                    resonant_spectrum(16, 3, 1e-3, 7, alpha=0.125)
                ),
                (14, 18),
            ),
        ],
        ids=["double_pair_toy", "symmetric16", "resonant16"],
    )
    def test_matches_dense_matrix_powers(self, build, peak_window):
        # oracle: explicit operator applied q times to the source
        inst = build()
        report = run_iterations(inst, 25)
        matrix = search_operator(inst)
        source = inst.spectrum.source_state
        state = source.copy()
        dense_probabilities = []
        for rec in report.records:
            probability = abs(state[inst.target_index]) ** 2
            dense_probabilities.append(probability)
            assert abs(rec.target_probability - probability) <= 1e-12
            assert abs(rec.source_overlap - abs(np.vdot(source, state))) <= 1e-12
            state = matrix @ state
        assert report.peak_q == 1 + int(np.argmax(dense_probabilities[1:]))
        assert peak_window[0] <= report.peak_q <= peak_window[1]

    def test_query_ledger_counts_iterations(self):
        report = run_iterations(double_pair_toy(), 7)
        for rec in report.records:
            assert rec.oracle_queries == rec.q
            assert rec.ds_applications == rec.q

    def test_peak_ignores_initial_row(self):
        # strong source-target overlap: the q = 0 probability already beats
        # early iterations, but the peak must come from q >= 1
        n = 4
        uniform = np.full(n, 0.5, dtype=np.complex128)
        inst = SearchInstance.build(grover_spectrum(n, uniform))
        report = run_iterations(inst, 3)
        assert report.peak_q >= 1

    def test_norm_drift_is_measured(self):
        report = run_iterations(double_pair_toy(), 25)
        assert 0.0 <= report.max_norm_drift <= 1e-13

    def test_norm_drift_past_limit_raises(self, monkeypatch):
        monkeypatch.setattr(search, "NORM_DRIFT_LIMIT", 1e-18)
        with pytest.raises(NormDriftError):
            run_iterations(double_pair_toy(), 25)

    def test_negative_q_max_rejected(self):
        with pytest.raises(ValueError):
            run_iterations(double_pair_toy(), -1)

    def test_global_phase_invariance(self):
        spec = symmetric_spectrum(16, 6, 0.9, 1.9, alpha=0.05)
        rotated = EigenSpectrum(
            spec.phases.copy(), spec.vectors * np.exp(0.3j), source_index=0
        )
        base = run_iterations(SearchInstance.build(spec), 20)
        turned = run_iterations(SearchInstance.build(rotated), 20)
        for left, right in zip(base.records, turned.records):
            assert np.isclose(
                left.target_probability, right.target_probability, atol=1e-13
            )
            assert np.isclose(left.source_overlap, right.source_overlap, atol=1e-13)


def test_grover_curve_is_exact_rotation():
    # uniform source: probability follows sin^2((2q+1) arcsin alpha) exactly
    n = 64
    uniform = np.full(n, 1.0 / 8.0, dtype=np.complex128)
    inst = SearchInstance.build(grover_spectrum(n, uniform))
    report = run_iterations(inst, 10)
    angle = math.asin(inst.alpha)
    for rec in report.records:
        expected = math.sin((2 * rec.q + 1) * angle) ** 2
        assert np.isclose(rec.target_probability, expected, rtol=0.0, atol=1e-12)

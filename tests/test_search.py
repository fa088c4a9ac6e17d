"""Search iteration tests: predictions vs dense linear algebra oracles."""

import math

import numpy as np
import pytest

from gqsearch import search
from gqsearch.linalg import unitarity_defect, unitary_eigensystem
from gqsearch.search import (
    NormDriftError,
    RelevantPairError,
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
    return SearchInstance.build(EigenSpectrum(phases, vectors))


def band_toy(alpha, fractions, phases):
    """Source at phase 0 plus one eigenvector per phase, real Householder frame.

    Eigenvector k carries target weight fractions[k] * (1 - alpha^2).
    """
    row = [alpha] + [math.sqrt(f * (1.0 - alpha**2)) for f in fractions]
    vectors = householder_with_first_row(row).astype(np.complex128)
    phases = np.array([0.0] + list(phases))
    return SearchInstance.build(EigenSpectrum(phases, vectors))


def skewed_toy(alpha=0.05):
    # unbalanced weights at unequal phases: nonzero first moment, but mild
    # enough that the source still spreads visibly over both pair vectors
    return band_toy(alpha, [0.45, 0.55], [2.0, -2.6])


def dense_relevant_pair(inst):
    """Oracle: the pair with the largest source overlaps, from a dense Schur."""
    matrix = search_operator(inst)
    eig = unitary_eigensystem(matrix)
    overlaps = np.abs(eig.vectors.conj().T @ inst.spectrum.source_state) ** 2
    order = np.argsort(overlaps)[::-1]
    first, second = int(order[0]), int(order[1])
    if overlaps[second] <= 0.01:
        raise RelevantPairError(
            "source concentrates on fewer than two eigenvectors: "
            f"second overlap {overlaps[second]:.3e} is below 0.01"
        )
    pair = sorted((first, second), key=lambda k: eig.phases[k], reverse=True)
    residual = float(1.0 - overlaps[first] - overlaps[second])
    return float(eig.phases[pair[0]]), float(eig.phases[pair[1]]), residual


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


class TestRelevantPair:
    @pytest.mark.parametrize(
        "build",
        [
            double_pair_toy,
            skewed_toy,
            lambda: SearchInstance.build(
                symmetric_spectrum(16, 6, 0.9, 1.9, alpha=0.05)
            ),
            lambda: SearchInstance.build(
                resonant_spectrum(16, 3, 1e-3, 7, alpha=0.125)
            ),
            lambda: SearchInstance.build(resonant_spectrum(64, 2, 5e-3, 3)),
            lambda: SearchInstance.build(
                symmetric_spectrum(256, 2, 0.5, 1.5, b_target=8)
            ),
            lambda: SearchInstance.build(
                grover_spectrum(64, np.full(64, 1.0 / 8.0, dtype=np.complex128))
            ),
            # no weighted phase below 0: the lower bracket wraps to 2.0 - 2 pi
            lambda: band_toy(0.2, [0.3, 0.7], [0.8, 2.0]),
        ],
        ids=[
            "double_pair_toy",
            "skewed_toy",
            "symmetric16",
            "resonant16",
            "resonant64",
            "symmetric256",
            "grover64",
            "one_sided",
        ],
    )
    def test_secular_pair_matches_dense(self, build):
        inst = build()
        solved = verify_relevant_pair(inst)
        dense = dense_relevant_pair(inst)
        for got, want in zip(solved, dense):
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize(
        "inst, theta_plus, theta_minus",
        [
            # weight 1e-4 at +/-0.002, far inside 2 alpha / b = 0.044: the
            # roots next to 0 hold 0.1% of the source each
            (
                band_toy(0.3, [1e-4, 1e-4, 0.4999, 0.4999], [0.002, -0.002, 2, -2]),
                0.002,
                -0.002,
            ),
            # the root in (0, 0.2) holds 2.6% of the source and a root near
            # 2.7 holds 4.2%, so the residual is not below the pair
            (band_toy(0.2, [0.05, 0.95], [0.2, -0.5]), 0.2, -0.5),
        ],
        ids=["small_overlap", "outweighed"],
    )
    def test_source_off_the_pair_raises(self, inst, theta_plus, theta_minus):
        with pytest.raises(RelevantPairError):
            verify_relevant_pair(inst)
        plus, minus, _ = dense_relevant_pair(inst)
        assert not (0.0 < plus < theta_plus and theta_minus < minus < 0.0)


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
            probability = abs(state[0]) ** 2
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
        rotated = EigenSpectrum(spec.phases.copy(), spec.vectors * np.exp(0.3j))
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


def test_grover_curve_stays_exact_at_large_n():
    # N = 4096 over two predicted peaks: the closed-form target row keeps
    # every record within 1e-12 of sin^2((2q+1) arcsin alpha)
    n = 4096
    uniform = np.full(n, 1.0 / 64.0, dtype=np.complex128)
    spec = grover_spectrum(n, uniform)
    inst = SearchInstance.build(spec)
    report = run_iterations(inst, 2 * predict_spectrum(inst).q_m)
    angle = math.asin(inst.alpha)
    error = max(
        abs(rec.target_probability - math.sin((2 * rec.q + 1) * angle) ** 2)
        for rec in report.records
    )
    assert error <= 1e-12
    assert spec._vectors is None

"""Search iteration tests: predictions vs dense linear algebra oracles."""

import math
import re

import numpy as np
import pytest

from gqsearch import search
from gqsearch.dense import build_diffusion, eigenbasis, search_operator
from gqsearch.harness import ExperimentConfig, run_experiment
from gqsearch.linalg import round_half_up, unitary_eigensystem
from gqsearch.pea import (
    b_prime,
    boosted_instance,
    boosted_lambda1,
    boosted_search_run,
    pea_amplitude,
)
from gqsearch.search import (
    NormDriftError,
    RelevantPairError,
    predict_spectrum,
    run_iterations,
    verify_relevant_pair,
)
from gqsearch.spectra import (
    EigenSpectrum,
    SearchInstance,
    grover_spectrum,
    resonant_spectrum,
    symmetric_spectrum,
)

from helpers import (
    graph_spectrum,
    hypercube_levels,
    torus_levels,
    unitarity_defect,
)


def double_pair_toy():
    """5-dim instance: alpha = 0.1, two conjugate pairs at +/- pi/2.

    Every pair member carries weight (1 - alpha^2)/4, so b^2 = 1.98.  The
    equal phases merge: three entries, each of +/- pi/2 with twice that.
    """
    alpha = 0.1
    member = (1.0 - alpha**2) / 4.0
    weights = [alpha**2, member, member, member, member]
    phases = [0.0, 0.5 * math.pi, -0.5 * math.pi, 0.5 * math.pi, -0.5 * math.pi]
    return SearchInstance.build(EigenSpectrum(phases, weights))


def band_toy(alpha, fractions, phases):
    """Source at phase 0 plus one eigenvector per phase.

    Eigenvector k carries target weight fractions[k] * (1 - alpha^2).
    """
    weights = [alpha**2] + [f * (1.0 - alpha**2) for f in fractions]
    return SearchInstance.build(EigenSpectrum([0.0] + list(phases), weights))


def skewed_toy(alpha=0.05):
    # unbalanced weights at unequal phases: nonzero first moment, but mild
    # enough that the source still spreads visibly over both pair vectors
    return band_toy(alpha, [0.45, 0.55], [2.0, -2.6])


def dense_relevant_pair(inst):
    """Oracle: the pair with the largest source overlaps, from a dense eigensolve."""
    matrix = search_operator(inst)
    eig = unitary_eigensystem(matrix)
    overlaps = np.abs(eig.vectors.conj().T @ eigenbasis(inst)[:, 0]) ** 2
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


@pytest.mark.parametrize("build", [double_pair_toy, skewed_toy])
def test_toy_eigenbasis_has_the_target_row(build):
    spec = build()
    vectors = eigenbasis(spec)
    assert unitarity_defect(vectors) <= 1e-10
    assert vectors[0].tobytes() == np.sqrt(spec.weights).tobytes()


def test_search_operator_is_diffusion_after_flip():
    inst = double_pair_toy()
    flip = np.diag([-1.0, 1.0, 1.0]).astype(np.complex128)
    expected = build_diffusion(inst) @ flip
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


def graph_instance(levels, gamma):
    return SearchInstance.build(graph_spectrum(levels, gamma))


def paley_levels(q):
    """Paley graph on a prime q = 1 mod 4: two levels of multiplicity (q-1)/2."""
    root = math.sqrt(q)
    return {0: 1, (q - root) / 2: (q - 1) // 2, (q + root) / 2: (q - 1) // 2}


def first_crest(probability):
    """The first q >= 1 with p[q-1] <= p[q] >= p[q+1], and its probability."""
    for q in range(1, len(probability) - 1):
        if probability[q - 1] <= probability[q] >= probability[q + 1]:
            return q, float(probability[q])
    raise AssertionError("no crest inside the run")


class TestPeakLaw:
    @pytest.mark.parametrize(
        "b, alpha", [(1.4, 0.1), (8.0, 1 / 32), (3.3, 0.01), (25.00000001 / np.pi, 0.25)]
    )
    def test_balanced_law_is_pi_b_over_4_alpha(self, b, alpha):
        # lambda1 = 0 gives sin(2 eta) = 1 exactly: the law reads as it did
        # before it carried the mixing angle, bit for bit; the last crest,
        # 25.00000001, rounds to q = 25 only with the 4 and the 1/2 exact
        q, p = search.peak_law(b, alpha, 0.0)
        assert q == max(1, round_half_up(np.pi * b / (4.0 * alpha) - 0.5))
        assert p == 1.0 / b**2

    def test_skew_shrinks_crest_by_sin_2eta(self):
        # skew = lambda1 / (2 alpha b) = 3/4 gives sin^2(2 eta) = 16/25
        q, p = search.peak_law(2.0, 0.05, 0.15)
        assert q == round_half_up(np.pi * 2.0 * 0.8 / 0.2 - 0.5)
        assert math.isclose(p, 0.64 / 4.0, rel_tol=1e-15)

    @pytest.mark.parametrize(
        "build",
        [
            skewed_toy,
            lambda: graph_instance(torus_levels(5, 6), math.pi / 11),
            lambda: graph_instance(torus_levels(6, 6), math.pi / 13),
            lambda: graph_instance(paley_levels(1009), 1.8 * math.pi / 1009),
        ],
        ids=["skewed-toy", "torus5", "torus6", "paley1009"],
    )
    def test_plain_first_crest_follows_the_law(self, build):
        inst = build()
        predicted = predict_spectrum(inst)
        law_q, law_p = predicted.q_m, predicted.peak_overlap**2
        report = run_iterations(inst, 4 * law_q + 10)
        crest_q, crest_p = first_crest(report.target_probability)
        assert abs(crest_p - law_p) <= 0.05 * law_p
        assert abs(crest_q - law_q) <= 0.1 * law_q + 1

    @pytest.mark.parametrize(
        "levels, gamma, m",
        [
            (torus_levels(2, 32), 0.3, 5),
            (torus_levels(2, 64), 0.3, 6),
            (hypercube_levels(16), math.pi / 33, 1),
            (hypercube_levels(20), math.pi / 41, 2),
        ],
        ids=["torus2-32", "torus2-64", "hypercube16", "hypercube20"],
    )
    def test_boosted_first_crest_follows_the_law(self, levels, gamma, m):
        inst = graph_instance(levels, gamma)
        boost = b_prime(inst, m).b_prime
        law_q, law_p = search.peak_law(boost, inst.alpha, boosted_lambda1(inst, m))
        report = boosted_search_run(inst, m, 4 * law_q + 10)
        crest_q, crest_p = first_crest(report.target_probability)
        assert abs(crest_p - law_p) <= 0.05 * law_p
        assert abs(crest_q - law_q) <= 0.1 * law_q + 1


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
            lambda: SearchInstance.build(grover_spectrum(64)),
            # no weighted phase below 0: the lower bracket wraps to 2.0 - 2 pi
            lambda: band_toy(0.2, [0.3, 0.7], [0.8, 2.0]),
            # its mirror, no weighted phase above 0: the upper bracket wraps
            # to -2.0 + 2 pi
            lambda: band_toy(0.2, [0.3, 0.7], [-0.8, -2.0]),
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
            "one_sided_mirror",
        ],
    )
    def test_secular_pair_matches_dense(self, build):
        inst = build()
        solved = verify_relevant_pair(inst)
        dense = dense_relevant_pair(inst)
        for got, want in zip(solved, dense):
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_grover_residual_is_not_negative(self, n):
        # the pair holds the whole source; 1 - o+ - o- rounds to -4.4e-16 at 64
        inst = SearchInstance.build(grover_spectrum(n))
        assert verify_relevant_pair(inst)[2] >= 0.0

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
    def test_report_holds_the_instance_it_stepped(self):
        inst = double_pair_toy()
        assert run_iterations(inst, 3).instance is inst

    def test_default_budget_past_the_drift_ceiling_is_refused(self):
        # b = 1e7 at N = 16 puts the first crest near q = 3.1e7, and the
        # default budget at twice that, past NORM_DRIFT_LIMIT / eps = 4.5e6
        inst = SearchInstance.build(symmetric_spectrum(16, 1, 0.5, 1.5, b_target=1e7))
        with pytest.raises(ValueError, match="q_max .* boosted-search"):
            run_iterations(inst)
        assert run_iterations(inst, 10).target_probability.shape == (11,)

    def test_initial_row(self):
        inst = double_pair_toy()
        report = run_iterations(inst, 0)
        assert report.target_probability.shape == (1,)
        assert report.source_overlap.shape == (1,)
        assert np.isclose(report.target_probability[0], inst.alpha**2, atol=1e-15)
        assert np.isclose(report.source_overlap[0], 1.0, atol=1e-15)
        assert report.peak_q == 0
        assert report.peak_probability == report.target_probability[0]

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
            (
                # a compressed spectrum, one entry per level of the 20-cube
                lambda: SearchInstance.build(
                    graph_spectrum(hypercube_levels(20), math.pi / 41)
                ),
                (17, 21),
            ),
        ],
        ids=["double_pair_toy", "symmetric16", "resonant16", "hypercube20"],
    )
    def test_matches_dense_matrix_powers(self, build, peak_window):
        # oracle: explicit operator applied q times to the source
        inst = build()
        report = run_iterations(inst, 25)
        matrix = search_operator(inst)
        source = eigenbasis(inst)[:, 0]
        state = source.copy()
        dense_probabilities = []
        for q in range(26):
            probability = abs(state[0]) ** 2
            dense_probabilities.append(probability)
            assert abs(report.target_probability[q] - probability) <= 1e-12
            overlap = abs(np.vdot(source, state))
            assert abs(report.source_overlap[q] - overlap) <= 1e-12
            state = matrix @ state
        assert report.peak_q == 1 + int(np.argmax(dense_probabilities[1:]))
        assert peak_window[0] <= report.peak_q <= peak_window[1]

    def test_query_ledger_counts_iterations(self):
        # the records view is the columns plus the ledger, arithmetic on q
        inst = double_pair_toy()
        grover = SearchInstance.build(grover_spectrum(4))
        runs = [(run_iterations(inst, 7), 1), (run_iterations(grover, 7), 1)]
        for m in (2, 3):
            runs.append((boosted_search_run(inst, m, 7), 3 * 2**m - 2))
        for report, ds_per_step in runs:
            assert report.ds_per_step == ds_per_step
            assert len(report.records) == 8
            for q, rec in enumerate(report.records):
                assert rec.q == rec.oracle_queries == q
                assert rec.ds_applications == q * ds_per_step
                assert rec.target_probability == report.target_probability[q]
                assert rec.source_overlap == report.source_overlap[q]
            assert report.records is report.records

    def test_columns_are_read_only(self):
        report = run_iterations(double_pair_toy(), 3)
        for column in (report.target_probability, report.source_overlap):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.5

    @pytest.mark.parametrize("kind", ["general-search", "boosted-search"])
    def test_runs_build_no_iteration_record(self, monkeypatch, kind):
        built = []

        class CountedRecord(search.IterationRecord):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(search, "IterationRecord", CountedRecord)
        inst = SearchInstance.build(symmetric_spectrum(16, 5, 0.8, 1.8))
        run_iterations(inst, 20)
        boosted_search_run(inst, 2, 20)
        run_experiment(ExperimentConfig(kind=kind, n=16, seed=5, q_max=20))
        assert built == []
        # the view still builds records, through the patched name
        assert len(run_iterations(inst, 3).records) == 4
        assert len(built) == 4

    def test_peak_ignores_initial_row(self):
        # strong source-target overlap: the q = 0 probability already beats
        # early iterations, but the peak must come from q >= 1
        inst = SearchInstance.build(grover_spectrum(4))
        report = run_iterations(inst, 3)
        assert report.peak_q >= 1

    def test_norm_drift_is_measured(self):
        report = run_iterations(double_pair_toy(), 25)
        assert 0.0 <= report.max_norm_drift <= 1e-13

    def test_norm_drift_past_limit_raises(self, monkeypatch):
        # the error names the first step past the limit, as a reference loop
        # over the same eigen-coordinate step finds it
        inst = double_pair_toy()
        # the toy's drift passes this limit at step 14 of 25
        limit = 2e-15
        target = np.sqrt(inst.weights).astype(np.complex128)
        eigenphase = np.exp(1j * inst.phases)
        coeff = np.eye(inst.phases.size, dtype=np.complex128)[0]
        first = None
        for q in range(26):
            if q:
                coeff = (coeff - 2.0 * (target @ coeff) * target.conj()) * eigenphase
            drift = abs(float(np.vdot(coeff, coeff).real) - 1.0)
            if drift > limit:
                first = q
                break
        assert first is not None and first > 1
        monkeypatch.setattr(search, "NORM_DRIFT_LIMIT", limit)
        message = f"by {drift:.3e} after {first} iterations"
        with pytest.raises(NormDriftError, match=re.escape(message)):
            run_iterations(inst, 25)

    def test_nan_state_raises_at_first_step(self):
        # max(0.0, nan) is 0.0 and nan > limit is False: a NaN drift must
        # still stop the run, at the first step that produces it
        # (a validated instance holds no NaN phase, so the oracle injects it)
        def poisoned(coeff, amplitude, target_conj):
            search.reflect_target(coeff, amplitude, target_conj)
            coeff[2] = np.nan

        with pytest.raises(NormDriftError, match="by nan after 1 iterations"):
            search._iterate(double_pair_toy(), 5, 1, oracle=poisoned)

    def test_negative_q_max_rejected(self):
        with pytest.raises(ValueError):
            run_iterations(double_pair_toy(), -1)

    def test_q_max_too_large_to_allocate_is_memory_error(self):
        # the library raises NumPy's own error; the command line turns it
        # into a config error naming n and q_max
        with pytest.raises(MemoryError):
            run_iterations(double_pair_toy(), 10**15)


def test_grover_curve_is_exact_rotation():
    # uniform source: probability follows sin^2((2q+1) arcsin alpha) exactly
    inst = SearchInstance.build(grover_spectrum(64))
    report = run_iterations(inst, 10)
    angle = math.asin(inst.alpha)
    expected = np.sin((2 * np.arange(11) + 1) * angle) ** 2
    assert np.allclose(report.target_probability, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "n, q_max",
    [(4096, None), (10**6, None), (2**50, 2000)],
    ids=["4096", "1e6", "2^50"],
)
def test_grover_curve_stays_exact_at_large_n(n, q_max):
    # the two-entry spectrum keeps every record within 1e-12 of
    # sin^2((2q+1) arcsin alpha): over the default budget, two predicted
    # peaks, and over 2000 steps at N = 2^50
    inst = SearchInstance.build(grover_spectrum(n))
    assert inst.dimension == n
    report = run_iterations(inst, q_max)
    angle = math.asin(inst.alpha)
    error = max(
        abs(probability - math.sin((2 * q + 1) * angle) ** 2)
        for q, probability in enumerate(report.target_probability)
    )
    assert error <= 1e-12


def reference_iterate(eigenphase, target, q_max):
    """The step loop with plain per-step arithmetic: a fresh product each
    step, |c[0]| and |t . c|^2 taken as scalars, drift folded with max."""
    target_conj = target.conj()
    coeff = np.zeros(eigenphase.shape[0], dtype=np.complex128)
    coeff[0] = 1.0
    probability = np.empty(q_max + 1)
    overlap = np.empty(q_max + 1)
    amplitude = target @ coeff
    worst = 0.0
    for q in range(q_max + 1):
        if q:
            coeff -= 2.0 * amplitude * target_conj
            coeff *= eigenphase
            amplitude = target @ coeff
        probability[q] = np.abs(amplitude) ** 2
        overlap[q] = np.abs(coeff[0])
        worst = max(worst, abs(float(np.vdot(coeff, coeff).real) - 1.0))
    peak_q = 1 + int(np.argmax(probability[1:]))
    return probability, overlap, peak_q, float(probability[peak_q]), worst


def assert_same_bits(report, reference):
    probability, overlap, peak_q, peak_probability, worst = reference
    assert report.target_probability.tobytes() == probability.tobytes()
    assert report.source_overlap.tobytes() == overlap.tobytes()
    assert report.peak_q == peak_q
    assert report.peak_probability == peak_probability
    assert report.max_norm_drift == worst


@pytest.mark.parametrize("n, q_max", [(64, 3000), (256, 3000), (1024, 402)])
def test_plain_run_keeps_reference_bits(n, q_max):
    spec = symmetric_spectrum(n, 1, 0.5, 1.5)
    report = run_iterations(SearchInstance.build(spec), q_max)
    eigenphase = np.where(spec.phases == np.pi, -1.0, np.exp(1j * spec.phases))
    target = np.sqrt(spec.weights).astype(np.complex128)
    reference = reference_iterate(eigenphase, target, q_max)
    assert_same_bits(report, reference)


def test_boosted_run_keeps_reference_bits():
    # the run is the reference loop on the boosted instance's phases and
    # sqrt(weights), with e^{i pi} taken as exactly -1
    m, q_max = 3, 3000
    inst = SearchInstance.build(symmetric_spectrum(256, 1, 0.5, 1.5))
    report = boosted_search_run(inst, m, q_max)
    boosted = boosted_instance(inst, m)
    eigenphase = np.where(boosted.phases == np.pi, -1.0, np.exp(1j * boosted.phases))
    target = np.sqrt(boosted.weights).astype(np.complex128)
    assert_same_bits(report, reference_iterate(eigenphase, target, q_max))
    # and stays within rounding of the whole (N + 1)-entry assembly, with the
    # unwrapped powered phases, that the survival column spells out
    spec = inst
    survival = np.minimum(pea_amplitude(spec.phases, m, 0) ** 2, 1.0)
    target = np.append(
        np.sqrt(survival * spec.weights), math.sqrt(b_prime(inst, m).sigma1)
    ).astype(np.complex128)
    eigenphase = np.append(np.exp(1j * 2**m * spec.phases), -1.0)
    assembled = reference_iterate(eigenphase, target, q_max)
    assert np.max(np.abs(report.target_probability - assembled[0])) <= 1e-12
    assert np.max(np.abs(report.source_overlap - assembled[1])) <= 1e-12
    assert report.peak_q == assembled[2]

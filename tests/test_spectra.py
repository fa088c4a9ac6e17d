"""Spectrum construction, moment sums, generators, basis validation."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gqsearch.spectra import (
    EigenSpectrum,
    ResonanceError,
    SearchInstance,
    SpectrumValidationError,
    build_diffusion,
    grover_spectrum,
    naive_power_b,
    resonant_spectrum,
    scaling_family,
    symmetric_spectrum,
)
from gqsearch import spectra
from gqsearch.harness import ExperimentConfig, run_experiment
from gqsearch.pea import (
    b_prime,
    boosted_lambda1,
    boosted_search_run,
    default_ancilla_count,
)
from gqsearch.search import predict_spectrum, run_iterations
from gqsearch.linalg import unitarity_defect


def two_phase_toy():
    """3-dim spectrum: source overlap 0.6, one conjugate pair at +/- pi/2.

    Hand-checkable: both pair weights are 0.32, so lambda1 cancels exactly,
    lambda2 = 0.64 * cot(pi/4)^2 = 0.64 and b^2 = 0.64 / sin(pi/4)^2 = 1.28.
    """
    real = np.array([0.8, -0.6, 0.0]) / math.sqrt(2.0)
    imag = np.array([0.0, 0.0, 1.0]) / math.sqrt(2.0)
    vectors = np.column_stack(
        [
            np.array([0.6, 0.8, 0.0], dtype=np.complex128),
            real + 1j * imag,
            real - 1j * imag,
        ]
    )
    phases = np.array([0.0, 0.5 * math.pi, -0.5 * math.pi])
    return EigenSpectrum(phases, vectors)


def test_toy_instance_matches_hand_computation():
    inst = SearchInstance.build(two_phase_toy())
    assert inst.alpha == 0.6
    assert inst.lambda1 == 0.0
    assert np.isclose(inst.lambda2, 0.64, rtol=1e-12)
    assert np.isclose(inst.b_factor, 1.1313708498984762, rtol=1e-12)


def test_moments_match_plain_loop():
    # oracle: direct python sum over the nonsource overlaps
    spec = symmetric_spectrum(8, 11, 0.8, 2.0)
    inst = SearchInstance.build(spec)
    for p, moment in ((1, inst.lambda1), (2, inst.lambda2)):
        total = 0.0
        for phase, weight in zip(inst.nonsource_phases(), inst.nonsource_weights()):
            total += weight / math.tan(0.5 * phase) ** p
        assert np.isclose(moment, total, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_b_identity_on_generated_spectra(seed):
    # b^2 = 1 + lambda2 - alpha^2 holds exactly, not just asymptotically
    spec = symmetric_spectrum(32, seed, 0.7, 1.9)
    inst = SearchInstance.build(spec)
    identity = 1.0 + inst.lambda2 - inst.alpha**2
    assert np.isclose(inst.b_factor**2, identity, rtol=1e-12)
    # the asymptotic bound |b - sqrt(1 + lambda2)| <= alpha^2 also holds
    assert abs(inst.b_factor - math.sqrt(1.0 + inst.lambda2)) <= inst.alpha**2


def test_grover_spectrum_moments_vanish():
    n = 16
    uniform = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    inst = SearchInstance.build(grover_spectrum(n, uniform))
    assert np.isclose(inst.alpha, 0.25, rtol=1e-15)
    # cot(pi/2) rounds to ~6e-17 rather than zero, so the moments are tiny
    # rather than bit-exact
    assert abs(inst.lambda1) < 1e-15
    assert abs(inst.lambda2) < 1e-30
    assert np.isclose(inst.b_factor, 0.9682458365518543, rtol=1e-12)
    # all nonsource eigenphases sit at pi
    assert np.allclose(np.abs(inst.nonsource_phases()), math.pi, atol=1e-15)


def test_grover_spectrum_rejects_unnormalized_source():
    with pytest.raises(ValueError):
        grover_spectrum(8, np.full(8, 0.5, dtype=np.complex128))


def test_build_diffusion_is_unitary_and_fixes_source():
    spec = symmetric_spectrum(16, 9, 0.6, 1.8)
    matrix = build_diffusion(spec)
    assert unitarity_defect(matrix) < 1e-10
    source = spec.source_state
    assert np.allclose(matrix @ source, source, atol=1e-10)


class TestSymmetricGenerator:
    def test_requested_alpha_is_exact(self):
        spec = symmetric_spectrum(64, 5, 0.9, 2.1, alpha=0.07)
        inst = SearchInstance.build(spec)
        assert np.isclose(inst.alpha, 0.07, rtol=0.0, atol=1e-14)

    def test_pair_cancellation_is_bitexact(self):
        for seed in range(6):
            inst = SearchInstance.build(symmetric_spectrum(32, seed, 0.5, 1.5))
            assert inst.lambda1 == 0.0

    def test_phases_stay_inside_band(self):
        spec = symmetric_spectrum(64, 8, 1.1, 2.3)
        live = np.abs(spec.phases[1:])
        weights = np.abs(spec.vectors[0, 1:]) ** 2
        banded = live[weights > 0.0]
        assert np.all(banded >= 1.1 - 1e-12)
        assert np.all(banded <= 2.3 + 1e-12)

    def test_b_target_is_hit(self):
        spec = symmetric_spectrum(64, 13, 0.5, 0.9, alpha=0.02, b_target=9.0)
        inst = SearchInstance.build(spec)
        assert np.isclose(inst.b_factor, 9.0, rtol=0.0, atol=1e-9)

    def test_large_b_target_reached_by_compression(self):
        spec = symmetric_spectrum(8, 1, 1.0, 1.2, alpha=0.05, b_target=50.0)
        inst = SearchInstance.build(spec)
        assert np.isclose(inst.b_factor, 50.0, rtol=1e-12)

    def test_b_target_below_floor_raises(self):
        # stretching phases toward pi cannot push b below ~sqrt(1 - alpha^2)
        with pytest.raises(ValueError, match="floor"):
            symmetric_spectrum(8, 1, 1.0, 1.2, alpha=0.05, b_target=0.2)

    def test_deterministic_per_seed(self):
        first = symmetric_spectrum(32, 21, 0.8, 1.6)
        second = symmetric_spectrum(32, 21, 0.8, 1.6)
        third = symmetric_spectrum(32, 22, 0.8, 1.6)
        assert np.array_equal(first.phases, second.phases)
        assert np.array_equal(first.vectors, second.vectors)
        assert not np.array_equal(first.phases, third.phases)


def test_relabeling_invariance():
    # permuting the non-target basis states leaves the moments alone
    spec = symmetric_spectrum(16, 4, 0.7, 1.7)
    inst = SearchInstance.build(spec)
    rng = np.random.default_rng(40)
    perm = np.concatenate(([0], 1 + rng.permutation(15)))
    shuffled = np.empty_like(spec.vectors)
    shuffled[perm, :] = spec.vectors
    assert not np.array_equal(shuffled, spec.vectors)
    relabeled = EigenSpectrum(spec.phases.copy(), shuffled)
    moved = SearchInstance.build(relabeled)
    assert np.isclose(moved.alpha, inst.alpha, rtol=1e-12)
    assert np.isclose(moved.lambda2, inst.lambda2, rtol=1e-12)
    assert np.isclose(moved.b_factor, inst.b_factor, rtol=1e-12)


class TestSpectrumValidation:
    def test_degenerate_source_phase_rejected(self):
        vectors = np.eye(3, dtype=np.complex128)
        phases = np.array([0.0, 0.0, 1.0])
        with pytest.raises(
            SpectrumValidationError, match="eigenvector 1 shares phase 0"
        ):
            EigenSpectrum(phases, vectors)

    def test_phase_outside_interval_rejected(self):
        vectors = np.eye(3, dtype=np.complex128)
        phases = np.array([0.0, 4.0, 1.0])
        with pytest.raises(SpectrumValidationError):
            EigenSpectrum(phases, vectors)

    def test_nonorthonormal_vectors_rejected(self):
        vectors = np.ones((3, 3), dtype=np.complex128)
        phases = np.array([0.0, 1.0, 2.0])
        with pytest.raises(SpectrumValidationError):
            EigenSpectrum(phases, vectors)

    def test_source_phase_must_be_zero(self):
        vectors = np.eye(3, dtype=np.complex128)
        phases = np.array([0.5, 1.0, 2.0])
        with pytest.raises(SpectrumValidationError):
            EigenSpectrum(phases, vectors)

    def test_arrays_are_frozen(self):
        spec = two_phase_toy()
        with pytest.raises(ValueError):
            spec.phases[1] = 0.3
        # an explicit spectrum's target row is row 0 of its validated copy
        assert spec.target_row.tobytes() == spec.vectors[0].tobytes()
        generated = symmetric_spectrum(8, 1, 0.5, 1.5)
        for row in (spec.target_row, generated.target_row):
            with pytest.raises(ValueError):
                row[0] = 0.3


class TestNaivePowering:
    def test_r_equals_one_recovers_b(self):
        inst = SearchInstance.build(symmetric_spectrum(16, 2, 0.9, 2.0))
        assert np.isclose(naive_power_b(inst, 1), inst.b_factor, rtol=1e-12)

    def test_near_resonant_value_frozen(self):
        # oracle: plain loop over sin(r * theta / 2); value frozen from it
        spec = resonant_spectrum(32, 3, 1e-3, 7, alpha=0.125)
        inst = SearchInstance.build(spec)
        total = 0.0
        for phase, weight in zip(inst.nonsource_phases(), inst.nonsource_weights()):
            if weight > 0.0:
                total += weight / math.sin(0.5 * 8 * phase) ** 2
        value = naive_power_b(inst, 8)
        assert np.isclose(value, math.sqrt(total), rtol=1e-12)
        assert np.isclose(value, 869.5662671822013, rtol=1e-9)
        # powering blows up while the plain b factor stays modest
        assert value > 100.0 * inst.b_factor

    def test_exact_resonance_raises(self):
        # all pair phases at pi/4; the 8th power wraps them onto zero exactly
        spec = symmetric_spectrum(16, 3, math.pi / 4, math.pi / 4)
        inst = SearchInstance.build(spec)
        with pytest.raises(ResonanceError):
            naive_power_b(inst, 8)


class TestResonantGenerator:
    def test_phases_cluster_near_resonances(self):
        m, epsilon = 3, 1e-3
        spec = resonant_spectrum(64, m, epsilon, 12)
        weights = np.abs(spec.vectors[0, 1:]) ** 2
        live = np.abs(spec.phases[1:])[weights > 0.0]
        step = 2.0 * math.pi / 2**m
        distance = np.abs(live - step * np.round(live / step))
        assert np.all(distance <= epsilon * (1.0 + 1e-9))
        assert np.all(distance > 0.0)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            resonant_spectrum(16, 2, 0.0, 1)
        with pytest.raises(ValueError):
            resonant_spectrum(16, 2, 1.5, 1)

    def test_deterministic_per_seed(self):
        first = resonant_spectrum(32, 3, 1e-3, 9)
        second = resonant_spectrum(32, 3, 1e-3, 9)
        assert np.array_equal(first.vectors, second.vectors)


class TestPairedConstruction:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_closed_form_pair_weights_match_assembled_rows(self, seed):
        n, alpha = 64, 0.05
        w_sub, unit = spectra._paired_draws(n, seed, alpha)
        phases = np.linspace(0.5, 1.5, (n - 2) // 2)
        spec = spectra._paired_spectrum(alpha, w_sub, unit, phases, np.pi)
        member = np.abs(spec.vectors[0, :]) ** 2
        assembled = member[1 : n - 1 : 2] + member[2 : n - 1 : 2]
        closed = spectra._pair_weights(unit, alpha)
        assert np.max(np.abs(closed - assembled)) <= 1e-15
        # the lone slot is pinned to exactly zero target weight
        assert spec.vectors[0, n - 1] == 0.0

    @pytest.mark.parametrize("n", [4, 6, 64, 1024])
    @pytest.mark.parametrize("kind", ["symmetric", "resonant"])
    def test_generated_basis_is_orthonormal(self, kind, n):
        if kind == "symmetric":
            spec = symmetric_spectrum(n, 5, 0.5, 1.5)
        else:
            spec = resonant_spectrum(n, 3, 1e-3, 5)
        vectors = spec.vectors
        assert np.abs(vectors.conj().T @ vectors - np.eye(n)).max() <= 1e-13
        assert spec.vectors[0, n - 1] == 0.0


class TestWeightPath:
    @pytest.mark.parametrize("n", [4, 64, 1024])
    @pytest.mark.parametrize("kind", ["symmetric", "resonant"])
    def test_closed_form_row_matches_built_basis(self, kind, n):
        for seed in (0, 1, 2, 3):
            if kind == "symmetric":
                spec = symmetric_spectrum(n, seed, 0.5, 1.5)
            else:
                spec = resonant_spectrum(n, 3, 1e-3, seed)
            row = spec.target_row
            assert spec._vectors is None
            assert np.max(np.abs(row - spec.vectors[0])) <= 1e-15
            # the closed-form row stays the answer once the basis exists
            assert spec.target_row is row
            assert row[n - 1] == 0.0

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("source", ["uniform", "random", "e3"])
    def test_grover_row_matches_built_basis(self, source, n):
        if source == "uniform":
            vector = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
        elif source == "random":
            # largest entry away from index 0: the basis columns get reordered
            rng = np.random.default_rng(n)
            vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            vector[n // 2] = 4.0 * math.sqrt(n)
            vector /= np.linalg.norm(vector)
        else:
            # already a basis vector: no reflection, the identity completion
            vector = np.zeros(n, dtype=np.complex128)
            vector[3] = 1.0
        spec = grover_spectrum(n, vector)
        row = spec.target_row
        assert spec._vectors is None
        assert np.array_equal(row, spec.vectors[0])
        assert spec.target_row is row

    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_spectrum(256, 3, 0.5, 1.5, b_target=8),
            lambda: symmetric_spectrum(64, 5, 0.9, 2.1, alpha=0.07),
            lambda: resonant_spectrum(64, 3, 1e-3, 12),
        ],
        ids=["symmetric_b8", "symmetric_alpha", "resonant"],
    )
    def test_instance_matches_explicit_vectors(self, make):
        spec = make()
        lazy = SearchInstance.build(spec)
        dense = SearchInstance.build(
            EigenSpectrum(spec.phases, spec.vectors)
        )
        for name in ("alpha", "lambda1", "lambda2", "b_factor"):
            assert abs(getattr(lazy, name) - getattr(dense, name)) <= 1e-12
        gap = lazy.nonsource_weights() - dense.nonsource_weights()
        assert np.max(np.abs(gap)) <= 1e-15

    def test_weight_path_never_builds_the_eigenbasis(self, monkeypatch):
        # every layer a report needs, at N = 4096, where one N x N complex
        # array takes 256 MiB
        made = []
        generate = spectra.grover_spectrum
        monkeypatch.setattr(
            spectra, "grover_spectrum",
            lambda *args: made.append(generate(*args)) or made[-1],
        )
        tracemalloc.start()
        try:
            spec = scaling_family(12, 1)
            inst = SearchInstance.build(spec)
            predicted = predict_spectrum(inst)
            m = default_ancilla_count(inst.b_factor)
            b_prime(inst, m)
            boosted_lambda1(inst, m)
            naive_power_b(inst, 2**m)
            run_iterations(inst, 20)
            boosted_search_run(inst, m, 20)
            run_experiment(ExperimentConfig(kind="grover-baseline", n=4096))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec._vectors is None
        assert len(made) == 1 and made[0]._vectors is None
        assert predicted.q_m > 0
        assert peak < 4096 * 4096 * 16 / 8

    def test_caller_vectors_are_copied(self):
        vectors = np.eye(3, dtype=np.complex128)
        spec = EigenSpectrum(np.array([0.0, 1.0, 2.0]), vectors)
        assert not np.shares_memory(spec.vectors, vectors)
        assert not spec.vectors.flags.writeable
        vectors[0, 0] = 5.0  # the caller's array stays writable
        assert spec.vectors[0, 0] == 1.0

    def test_generated_vectors_are_adopted(self, monkeypatch):
        built = []
        assemble = spectra._paired_vectors
        monkeypatch.setattr(
            spectra, "_paired_vectors",
            lambda *args: built.append(assemble(*args)) or built[-1],
        )
        spec = symmetric_spectrum(16, 2, 0.5, 1.5)
        assert built == []
        first = spec.vectors
        assert first is built[0] and spec.vectors is first
        assert len(built) == 1
        assert not first.flags.writeable

        made = []
        complete = spectra._complete_orthonormal
        monkeypatch.setattr(
            spectra, "_complete_orthonormal",
            lambda source: made.append(complete(source)) or made[-1],
        )
        uniform = np.full(8, 1.0 / math.sqrt(8.0), dtype=np.complex128)
        grover = grover_spectrum(8, uniform)
        assert made == []
        first = grover.vectors
        assert first is made[0] and grover.vectors is first
        assert len(made) == 1
        assert not first.flags.writeable

    def test_unnormalized_row_rejected(self):
        spec = symmetric_spectrum(16, 2, 0.5, 1.5)
        row = spec.target_row * 1.01
        with pytest.raises(SpectrumValidationError, match="row"):
            EigenSpectrum._generated(
                spec.phases, row=row, build=lambda: spec.vectors
            )

    def test_sampled_validation_of_a_large_basis(self, monkeypatch):
        # above FULL_VALIDATION_MAX the check takes every column norm but
        # only a sampled block of the gram matrix
        n = 2048
        assert n > spectra.FULL_VALIDATION_MAX
        made = []
        complete = spectra._complete_orthonormal
        monkeypatch.setattr(
            spectra, "_complete_orthonormal",
            lambda source: made.append(complete(source)) or made[-1],
        )
        uniform = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
        spec = grover_spectrum(n, uniform)
        assert made == []
        basis = np.array(spec.vectors)  # validated on the sampled path
        assert spec.vectors is made[0]
        assert len(made) == 1
        del spec  # hold one 64 MiB copy of the basis from here on
        made.clear()

        count = spectra.SAMPLED_VALIDATION_COLUMNS
        sampled = set(np.linspace(0, n - 1, count).astype(int))
        phases = np.full(n, np.pi)
        phases[0] = 0.0
        outside = 1
        assert outside not in sampled
        kept = basis[:, outside].copy()
        basis[:, outside] *= 1.0 + 1e-8
        named = rf"column \({outside}, {outside}\)"
        with pytest.raises(SpectrumValidationError, match=named):
            EigenSpectrum(phases, basis)
        basis[:, outside] = kept

        a, b = sorted(sampled)[1:3]
        basis[:, b] = (basis[:, b] + 1e-6 * basis[:, a]) / math.sqrt(1.0 + 1e-12)
        with pytest.raises(SpectrumValidationError, match=rf"columns \({a}, {b}\)"):
            EigenSpectrum(phases, basis)


def test_import_leaves_scipy_optimize_out():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
    )
    code = "import sys, gqsearch; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestScalingFamily:
    @pytest.mark.parametrize("log2n", [6, 9, 12])
    def test_b_tracks_two_sqrt_log(self, log2n):
        spec = scaling_family(log2n, 31)
        inst = SearchInstance.build(spec)
        n = 2**log2n
        assert inst.dimension == n
        assert np.isclose(inst.alpha, 1.0 / math.sqrt(n), rtol=0.0, atol=1e-14)
        assert np.isclose(inst.b_factor, 2.0 * math.sqrt(math.log(n)), atol=1e-9)

    def test_range_is_enforced(self):
        with pytest.raises(ValueError):
            scaling_family(5, 0)
        with pytest.raises(ValueError):
            scaling_family(13, 0)


FROZEN_PATH = Path(__file__).parent / "data" / "frozen_spectra.npz"

# generator outputs recorded before the generator's O(N^2) rewrite; they pin
# the random stream and every number a search reads (phases, source column,
# target-row weights), not the complement of the eigenbasis
FROZEN_CASES = {
    "symmetric_64_7": (lambda: symmetric_spectrum(64, 7, 0.5, 1.5), False),
    "symmetric_256_3_b8": (
        lambda: symmetric_spectrum(256, 3, 0.5, 1.5, b_target=8),
        True,
    ),
    "resonant_64_3_12": (lambda: resonant_spectrum(64, 3, 1e-3, 12), False),
    "scaling_9_31": (lambda: scaling_family(9, 31), True),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_generator_outputs_frozen(name):
    make, rescaled = FROZEN_CASES[name]
    with np.load(FROZEN_PATH) as frozen:
        phases = frozen[f"{name}/phases"]
        source = frozen[f"{name}/source"]
        weights = frozen[f"{name}/weights"]
        alpha, b_factor = frozen[f"{name}/alpha_b"]
    spec = make()
    inst = SearchInstance.build(spec)
    if rescaled:
        # the b_target scale comes out of a root search; rounding may move it
        assert np.allclose(spec.phases, phases, rtol=1e-13, atol=0.0)
    else:
        assert np.array_equal(spec.phases, phases)
    assert np.array_equal(spec.source_state, source)
    target_weights = np.abs(spec.vectors[0, :]) ** 2
    assert np.max(np.abs(target_weights - weights)) <= 1e-14
    assert abs(inst.alpha - alpha) <= 1e-12
    assert abs(inst.b_factor - b_factor) <= 1e-12

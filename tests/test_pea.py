"""Joint-space estimation tests against dense Kronecker-product oracles."""

import math

import numpy as np
import pytest

from gqsearch.linalg import (
    DenseCapError,
    EigensolverError,
    unitary_eigensystem,
    wrap_phase,
)
from gqsearch.pea import (
    BoostedOperator,
    MAX_ANCILLA_QUBITS,
    _apply_block_powers,
    b_prime,
    boosted_diffusion,
    boosted_lambda1,
    boosted_search_run,
    c_operator,
    controlled_oracle,
    default_ancilla_count,
    dense_b_prime_check,
    dense_boosted_matrix,
    pea_adjoint,
    pea_amplitude,
    pea_operator,
    qft,
    walsh_hadamard,
)
from gqsearch.spectra import (
    ResonanceError,
    SearchInstance,
    build_diffusion,
    grover_spectrum,
    resonant_spectrum,
    symmetric_spectrum,
)


def random_blocks(rows, n, seed):
    """Normalized random (rows, n, 1) block array: one state."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((rows, n, 1)) + 1j * rng.standard_normal((rows, n, 1))
    return blocks / np.linalg.norm(blocks)


def dense_power_ladder(matrix, m):
    r = 2**m
    n = matrix.shape[0]
    out = np.zeros((r * n, r * n), dtype=np.complex128)
    for j in range(r):
        block = np.linalg.matrix_power(matrix, j)
        out[j * n : (j + 1) * n, j * n : (j + 1) * n] = block
    return out


class TestRegisters:
    def test_walsh_hadamard_is_kron_power(self):
        h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(walsh_hadamard(3), np.kron(np.kron(h1, h1), h1), atol=1e-15)
        w = walsh_hadamard(2)
        assert np.allclose(w @ w, np.eye(4), atol=1e-14)

    def test_qft_sign_convention_frozen(self):
        # exp(-i pi/2)/2: real part is cos(pi/2)/2 ~ 3e-17, not exactly zero
        entry = qft(2)[1, 1]
        assert abs(entry - (-0.5j)) < 1e-15
        assert entry.imag < 0.0
        assert np.allclose(qft(1), walsh_hadamard(1), atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_qft_unitary(self, m):
        f = qft(m)
        assert np.allclose(f @ f.conj().T, np.eye(2**m), atol=1e-13)

    @pytest.mark.parametrize("m", [0, 9])
    def test_register_size_bounds(self, m):
        inst = SearchInstance.build(symmetric_spectrum(16, 1, 0.5, 1.5))
        message = rf"m must lie in \[1, {MAX_ANCILLA_QUBITS}\], got {m}$"
        for call in (
            walsh_hadamard,
            qft,
            lambda m: BoostedOperator.build(inst.spectrum, m),
            lambda m: b_prime(inst, m),
            lambda m: boosted_lambda1(inst, m),
        ):
            with pytest.raises(ValueError, match=message):
                call(m)


class TestPeaAmplitude:
    def test_frozen_values(self):
        assert np.isclose(pea_amplitude(math.pi / 2, 1, 0), math.sqrt(0.5), rtol=1e-12)
        # exact resonance k = 3 at m = 3: removable singularity, exactly 1
        assert pea_amplitude(2.0 * math.pi * 3.0 / 8.0, 3, 3) == 1.0
        assert pea_amplitude(0.0, 2, 0) == 1.0
        assert np.isclose(pea_amplitude(math.pi / 3, 2, 0), 0.43301270189221935, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_register_simulation(self, m):
        # oracle: |<k| F diag(e^{i j theta}) W |0>| via dense register ops
        r = 2**m
        thetas = np.linspace(-math.pi + 1e-3, math.pi, 17)
        fourier = qft(m)
        uniform = np.full(r, 1.0 / math.sqrt(r), dtype=np.complex128)
        for theta in thetas:
            comb = fourier @ (np.exp(1j * np.arange(r) * theta) * uniform)
            for k in range(r):
                assert np.isclose(
                    pea_amplitude(theta, m, k), abs(comb[k]), rtol=0.0, atol=1e-12
                )

    def test_array_input(self):
        grid = np.array([0.0, 0.5, -0.5, math.pi])
        values = pea_amplitude(grid, 2, 0)
        assert values.shape == grid.shape
        assert values[0] == 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            pea_amplitude(4.0, 2, 0)
        with pytest.raises(ValueError):
            pea_amplitude(0.5, 0, 0)


class TestJointOperators:
    def setup_method(self):
        self.spec = symmetric_spectrum(4, 3, 0.9, 1.9)
        self.matrix = build_diffusion(self.spec)
        self.blocks = random_blocks(4, 4, 8)
        self.flat = self.blocks.ravel()

    def test_block_powers_match_dense(self):
        # the controlled-power stage of pea_operator on its own
        applied = _apply_block_powers(self.spec, self.blocks, np.arange(4))
        oracle = dense_power_ladder(self.matrix, 2) @ self.flat
        assert np.allclose(applied.ravel(), oracle, atol=1e-10)

    def test_c_operator_matches_dense(self):
        applied = c_operator(self.spec, 2, self.blocks)
        powered = np.linalg.matrix_power(self.matrix, 4)
        dense = -np.eye(16, dtype=np.complex128)
        dense[:4, :4] = powered
        assert np.allclose(applied.ravel(), dense @ self.flat, atol=1e-10)

    def test_pea_operator_matches_dense(self):
        applied = pea_operator(self.spec, 2, self.blocks)
        dense = (
            np.kron(qft(2), np.eye(4))
            @ dense_power_ladder(self.matrix, 2)
            @ np.kron(walsh_hadamard(2), np.eye(4))
        )
        assert np.allclose(applied.ravel(), dense @ self.flat, atol=1e-10)

    def test_adjoint_inverts_estimation(self):
        round_trip = pea_adjoint(self.spec, 2, pea_operator(self.spec, 2, self.blocks))
        assert np.allclose(round_trip, self.blocks, atol=1e-12)
        other = pea_operator(self.spec, 2, pea_adjoint(self.spec, 2, self.blocks))
        assert np.allclose(other, self.blocks, atol=1e-12)

    def test_dense_boosted_matrix_matches_dense(self):
        estimate = (
            np.kron(qft(2), np.eye(4))
            @ dense_power_ladder(self.matrix, 2)
            @ np.kron(walsh_hadamard(2), np.eye(4))
        )
        condition = -np.eye(16, dtype=np.complex128)
        condition[:4, :4] = np.linalg.matrix_power(self.matrix, 4)
        oracle = estimate @ condition @ estimate.conj().T
        assert np.allclose(dense_boosted_matrix(self.spec, 2), oracle, atol=1e-10)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pea_operator(self.spec, 3, self.blocks)
        with pytest.raises(ValueError):
            pea_operator(symmetric_spectrum(8, 1, 0.9, 1.9), 2, self.blocks)


def test_controlled_oracle_flips_single_amplitude():
    # in the main basis, V c loses the sign of entry 1 only, in place
    spec = symmetric_spectrum(4, 3, 0.9, 1.9)
    coeff = random_blocks(1, 4, 9)[0, :, 0]
    row = spec.vectors[1]
    expected = spec.vectors @ coeff
    expected[1] = -expected[1]
    assert controlled_oracle(coeff, row @ coeff, row.conj()) is None
    assert np.allclose(spec.vectors @ coeff, expected, atol=1e-14)


def test_boosted_diffusion_fixes_joint_source():
    spec = symmetric_spectrum(8, 5, 0.8, 1.8)
    blocks = np.zeros((4, 8, 1), dtype=np.complex128)
    blocks[0, :, 0] = spec.source_state
    moved = boosted_diffusion(spec, 2, blocks)
    assert np.allclose(moved, blocks, atol=1e-12)
    assert np.isclose(np.linalg.norm(moved), 1.0, atol=1e-12)


def test_boosted_spectrum_splits_into_powered_and_flipped():
    # eigenphase multiset of the dense boosted operator: one phase
    # 2^m * theta_l per main eigenvector, everything else at pi
    spec = symmetric_spectrum(4, 3, 0.9, 1.9)
    m = 2
    dense = dense_boosted_matrix(spec, m)
    from gqsearch.linalg import unitary_eigensystem

    system = unitary_eigensystem(dense)
    expected = np.concatenate(
        [wrap_phase(2**m * spec.phases), np.full((2**m - 1) * 4, math.pi)]
    )
    assert np.allclose(np.sort(system.phases), np.sort(expected), atol=1e-8)


def test_dense_boosted_matrix_respects_cap():
    spec = symmetric_spectrum(64, 1, 0.9, 1.9)
    with pytest.raises(DenseCapError):
        dense_boosted_matrix(spec, 5)


class TestBPrime:
    def test_sigma2_is_exact_quotient(self):
        inst = SearchInstance.build(symmetric_spectrum(16, 7, 0.7, 1.7))
        for m in (1, 2, 3):
            breakdown = b_prime(inst, m)
            assert breakdown.sigma2 == inst.b_factor**2 / 4**m
            assert 0.0 <= breakdown.sigma1 <= 1.0
            assert np.isclose(
                breakdown.b_prime,
                math.sqrt(breakdown.sigma1 + breakdown.sigma2),
                rtol=1e-15,
            )

    def test_bound_from_sigma_split(self):
        inst = SearchInstance.build(resonant_spectrum(32, 3, 1e-3, 7, alpha=0.125))
        breakdown = b_prime(inst, 3)
        bound = math.sqrt(1.0 + inst.b_factor**2 / 4**3)
        assert breakdown.b_prime <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "spec_args, m",
        [
            (("symmetric", 8, 4), 1),
            (("symmetric", 8, 4), 3),
            (("symmetric", 16, 5), 2),
            (("resonant", 16, 6), 2),
        ],
    )
    def test_analytic_matches_dense_joint_recomputation(self, spec_args, m):
        family, n, seed = spec_args
        if family == "symmetric":
            spec = symmetric_spectrum(n, seed, 0.8, 1.8)
        else:
            spec = resonant_spectrum(n, 2, 5e-3, seed)
        inst = SearchInstance.build(spec)
        analytic = b_prime(inst, m).b_prime
        dense = dense_b_prime_check(inst, m)
        assert np.isclose(dense, analytic, rtol=0.0, atol=1e-8)


def full_schur_b_prime(inst, m):
    """b' from one Schur decomposition of the whole dense joint matrix."""
    system = unitary_eigensystem(dense_boosted_matrix(inst.spectrum, m))
    weights = np.abs(system.vectors[0, :]) ** 2
    live = np.abs(system.phases) >= 1e-9
    return math.sqrt(
        float(np.sum(weights[live] / np.sin(0.5 * system.phases[live]) ** 2))
    )


def oracle_instance(family):
    n = 32
    if family == "symmetric":
        spec = symmetric_spectrum(n, 4, 0.8, 1.8)
    elif family == "resonant":
        spec = resonant_spectrum(n, 2, 5e-3, 6)
    else:
        # the source keeps phase 0; the other n - 1 share phase pi
        rng = np.random.default_rng(8)
        source = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = grover_spectrum(n, source / np.linalg.norm(source))
    return SearchInstance.build(spec)


class TestDenseBPrimeCheck:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("family", ["symmetric", "resonant", "grover"])
    def test_blocks_match_full_schur(self, family, m):
        inst = oracle_instance(family)
        assert inst.dimension * 2**m <= 256
        full = full_schur_b_prime(inst, m)
        assert np.isclose(dense_b_prime_check(inst, m), full, rtol=1e-10, atol=0.0)

    def test_one_eigensolve_per_block(self, monkeypatch):
        import gqsearch.linalg

        inst = oracle_instance("symmetric")
        sizes = []
        solve = gqsearch.linalg.unitary_eigensystem

        def counted(matrix):
            sizes.append(matrix.shape)
            return solve(matrix)

        monkeypatch.setattr(gqsearch.linalg, "unitary_eigensystem", counted)
        dense_b_prime_check(inst, 2)
        assert sizes == [(4, 4)] * inst.dimension

    def test_off_block_leak_raises(self, monkeypatch):
        import gqsearch.pea

        inst = oracle_instance("symmetric")
        m, n = 2, inst.dimension
        vectors = inst.spectrum.vectors
        build = gqsearch.pea.dense_boosted_matrix

        def leaky(spec, m):
            # couple ancilla 1 of eigenvector 3 to ancilla 2 of eigenvector 5
            out_col = np.zeros((2**m, n), dtype=np.complex128)
            in_col = np.zeros((2**m, n), dtype=np.complex128)
            out_col[1] = vectors[:, 3]
            in_col[2] = vectors[:, 5]
            return build(spec, m) + 1e-6 * np.outer(out_col, in_col.conj())

        monkeypatch.setattr(gqsearch.pea, "dense_boosted_matrix", leaky)
        with pytest.raises(EigensolverError, match="couples") as caught:
            dense_b_prime_check(inst, m)
        assert np.isclose(caught.value.residual, 1e-6, rtol=1e-6)


class TestBoostedLambda1:
    def test_paired_construction_cancels(self):
        inst = SearchInstance.build(symmetric_spectrum(16, 11, 0.7, 1.6))
        for m in (1, 2, 3):
            assert abs(boosted_lambda1(inst, m)) <= 1e-12

    def test_zero_weight_branch_is_exempt(self):
        # the odd leftover eigenvector sits at pi with exactly zero weight;
        # doubling pi wraps onto zero but must not trip resonance detection
        spec = symmetric_spectrum(8, 2, 0.9, 1.9)
        assert math.pi in set(np.abs(spec.phases))
        inst = SearchInstance.build(spec)
        assert abs(boosted_lambda1(inst, 1)) <= 1e-12

    def test_weighted_resonance_raises(self):
        n = 8
        uniform = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
        inst = SearchInstance.build(grover_spectrum(n, uniform))
        with pytest.raises(ResonanceError):
            boosted_lambda1(inst, 1)


class TestBoostedRun:
    def test_cost_ledger(self):
        spec = symmetric_spectrum(8, 3, 0.8, 1.8)
        for m in (1, 2, 3, 4, 5):
            assert BoostedOperator.build(spec, m).cost_per_application == 3 * 2**m - 2

    def test_run_records_the_ledger(self):
        inst = SearchInstance.build(symmetric_spectrum(8, 3, 0.8, 1.8, alpha=0.2))
        report = boosted_search_run(inst, 3, q_max=5)
        assert len(report.records) == 6
        for rec in report.records:
            assert rec.oracle_queries == rec.q
            assert rec.ds_applications == rec.q * (3 * 2**3 - 2)

    def test_default_budget_covers_first_crest(self):
        inst = SearchInstance.build(symmetric_spectrum(8, 3, 0.8, 1.8, alpha=0.2))
        m = default_ancilla_count(inst.b_factor)
        report = boosted_search_run(inst)
        boost = b_prime(inst, m).b_prime
        expected = max(1, math.floor(math.pi * boost / (2.0 * 0.2) + 0.5))
        assert len(report.records) == expected + 1
        assert report.peak_q <= expected

    def test_joint_probability_peaks_near_prediction(self):
        inst = SearchInstance.build(
            symmetric_spectrum(16, 9, 0.8, 1.8, alpha=0.1, b_target=8.0)
        )
        m = 3  # matches round(log2 8)
        report = boosted_search_run(inst, m)
        boost = b_prime(inst, m).b_prime
        predicted = math.pi * boost / (4.0 * inst.alpha)
        assert abs(report.peak_q - predicted) <= 3
        assert report.peak_probability >= 0.5 / boost**2

    @pytest.mark.parametrize(
        "spec_args, m",
        [
            (("symmetric", 16, 5), 1),
            (("symmetric", 16, 5), 2),
            (("resonant", 32, 6), 3),
            (("symmetric", 128, 2), 3),
            (("symmetric", 4, 3), 8),
            (("symmetric", 64, 2), 4),
            (("grover", 32, 8), 2),
            (("grover", 32, 8), 3),
        ],
    )
    def test_matches_dense_boosted_powers(self, spec_args, m):
        # oracle: dense boosted diffusion after a sign flip of joint index
        # target, powered from the joint source.  In the Grover cases every
        # powered phase lands on 0 mod 2 pi with zero survival, so the
        # phase-pi coordinate carries all the nonsource weight
        family, n, seed = spec_args
        if family == "symmetric":
            spec = symmetric_spectrum(n, seed, 0.8, 1.8)
        elif family == "resonant":
            spec = resonant_spectrum(n, 2, 5e-3, seed)
        else:
            spec = oracle_instance("grover").spectrum
        inst = SearchInstance.build(spec)
        report = boosted_search_run(inst, m, q_max=40)
        step = dense_boosted_matrix(spec, m)
        step[:, 0] = -step[:, 0]
        state = np.zeros(2**m * n, dtype=np.complex128)
        state[:n] = spec.source_state
        for rec in report.records:
            assert abs(rec.target_probability - abs(state[0]) ** 2) <= 1e-12
            overlap = abs(np.vdot(spec.source_state, state[:n]))
            assert abs(rec.source_overlap - overlap) <= 1e-12
            state = step @ state

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_long_run_stays_normalized(self, n):
        # drift reaches a few 1e-12 by q = 3000, past a 1e-12 per-step check
        inst = SearchInstance.build(symmetric_spectrum(n, 1, 0.5, 1.5))
        report = boosted_search_run(inst, 3, 3000)
        assert len(report.records) == 3001
        assert report.max_norm_drift < 1e-10

    def test_negative_budget_rejected(self):
        inst = SearchInstance.build(symmetric_spectrum(8, 3, 0.8, 1.8))
        with pytest.raises(ValueError):
            boosted_search_run(inst, 2, q_max=-1)

    @pytest.mark.parametrize("q_max", [0, 1, 7])
    def test_one_oracle_call_per_step(self, monkeypatch, q_max):
        # the per-step oracle count is a public ledger: one call per query
        import gqsearch.pea

        inst = SearchInstance.build(symmetric_spectrum(16, 5, 0.8, 1.8))
        calls = []
        oracle = gqsearch.pea.controlled_oracle

        def counted(*args):
            calls.append(1)
            return oracle(*args)

        monkeypatch.setattr(gqsearch.pea, "controlled_oracle", counted)
        report = boosted_search_run(inst, 3, q_max)
        assert len(calls) == q_max == len(report.records) - 1

    @pytest.mark.parametrize("m", [3, 8])
    def test_memory_does_not_grow_with_m(self, large_instance, m):
        import tracemalloc

        tracemalloc.start()
        try:
            boosted_search_run(large_instance, m, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.fixture(scope="module")
def large_instance():
    return SearchInstance.build(symmetric_spectrum(4096, 1, 0.5, 1.5, b_target=8))


@pytest.mark.parametrize("value, expected", [(1.0, 1), (16.0, 4), (1e9, 8), (2.9, 2)])
def test_default_ancilla_count(value, expected):
    assert default_ancilla_count(value) == expected


def test_default_ancilla_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        default_ancilla_count(0.0)

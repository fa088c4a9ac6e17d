"""Joint-space estimation tests against dense Kronecker-product oracles."""

import gc
import math
import weakref

import numpy as np
import pytest

from gqsearch.dense import (
    _apply_boost,
    _apply_condition,
    _apply_estimate,
    _apply_ramp,
    _apply_unestimate,
    _boost_blocks,
    _in_eigen_frame,
    boosted_diffusion,
    build_diffusion,
    eigenbasis,
    pea_operator,
    qft,
    walsh_hadamard,
)
from gqsearch.linalg import (
    DENSE_CAP,
    DenseCapError,
    EigensolverError,
    unitary_eigensystem,
    wrap_phase,
)
from gqsearch.pea import (
    b_prime,
    boosted_instance,
    boosted_lambda1,
    boosted_search_run,
    controlled_oracle,
    default_ancilla_count,
    dense_b_prime_check,
    dense_boosted_matrix,
    pea_amplitude,
)
from gqsearch.search import peak_law
from gqsearch.spectra import (
    EigenSpectrum,
    SearchInstance,
    SpectrumValidationError,
    grover_spectrum,
    resonant_spectrum,
    symmetric_spectrum,
)

from helpers import graph_spectrum, hypercube_levels, torus_levels


def one_sided_spectrum(family):
    """A spectrum where some weighted phase lacks an equal-weight partner at -theta.

    Only such a spectrum shows the sign of a powered phase that wraps past
    +-pi: a +/- pair with matched weights reads the same either way.
    """
    if family == "hypercube":
        return graph_spectrum(hypercube_levels(8), math.pi / 41)
    if family == "torus":
        return graph_spectrum(torus_levels(2, 8), 0.3)
    return pair_spectrum(64, matched=False)


def pair_spectrum(n, matched):
    """Source at 0, n/2 - 1 exact +/- pairs of phases in [0.5, 1.5), a lone pi.

    With ``matched`` the members of a pair carry equal target weights;
    without it each entry draws its own, so no weighted phase has an
    equal-weight partner.  Built straight from its phases and weights, in
    O(n).
    """
    rng = np.random.default_rng(3)
    pairs = rng.uniform(0.5, 1.5, n // 2 - 1)
    weights = rng.uniform(0.5, 1.5, n) ** 2
    if matched:
        weights[n // 2 : n - 1] = weights[1 : n // 2]
    phases = np.concatenate([[0.0], pairs, -pairs, [np.pi]])
    return EigenSpectrum(phases, weights / np.sum(weights))


ONE_SIDED_CASES = [
    ("hypercube", 2), ("hypercube", 3), ("torus", 1), ("torus", 2), ("unmatched", 2)
]


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

    @pytest.mark.parametrize("m", [0, 50, 1023, 1024, 10**30])
    def test_register_size_bounds(self, m):
        # from m = 50 the resonance tolerance covers every phase; the rule
        # rejects such m before 2^m reaches a float, however large m is
        inst = SearchInstance.build(symmetric_spectrum(16, 1, 0.5, 1.5))
        message = rf"m must lie in \[1, 49\], got {m}$"
        for call in (
            walsh_hadamard,
            qft,
            lambda m: b_prime(inst, m),
            lambda m: boosted_lambda1(inst, m),
            lambda m: boosted_search_run(inst, m),
            lambda m: pea_amplitude(inst.phases, m, 0),
            lambda m: resonant_spectrum(16, m, 1e-3, 1),
        ):
            with pytest.raises(ValueError, match=message):
                call(m)

    @pytest.mark.parametrize("transform", [walsh_hadamard, qft])
    def test_register_respects_dense_cap(self, transform):
        assert transform(10).shape == (DENSE_CAP, DENSE_CAP)
        with pytest.raises(DenseCapError, match="ancilla register 2048"):
            transform(11)


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

    def test_amplitude_never_exceeds_one_near_zero(self):
        # the boost takes its square as a survival with no clamp; the ratio
        # rounds nearest 1 at small phases, 1.1M of each sign from 1e-12 to
        # 1e-2 here, one sign at a time to hold fewer temporaries
        grid = np.geomspace(1e-12, 1e-2, 1_100_000)
        for m in range(1, 25):
            for theta in (grid, -grid):
                assert np.max(pea_amplitude(theta, m, 0)) <= 1.0, m

    def test_array_input(self):
        grid = np.array([0.0, 0.5, -0.5, math.pi])
        values = pea_amplitude(grid, 2, 0)
        assert values.shape == grid.shape
        assert values[0] == 1.0

    def test_domain_checks(self):
        # a phase out of range is a numerical failure, a bad m a usage error
        for theta in (4.0, -np.pi, np.array([0.5, np.nextafter(np.pi, 4.0)])):
            with pytest.raises(SpectrumValidationError):
                pea_amplitude(theta, 2, 0)
        with pytest.raises(ValueError) as raised:
            pea_amplitude(0.5, 0, 0)
        assert not isinstance(raised.value, SpectrumValidationError)


    def test_nan_phase_rejected(self):
        # NaN fails every comparison; the range check must still catch it
        for theta in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(SpectrumValidationError):
                pea_amplitude(theta, 2, 0)


class TestJointOperators:
    def setup_method(self):
        self.spec = symmetric_spectrum(4, 3, 0.9, 1.9)
        self.count = self.spec.phases.size  # its entries, n - 1
        self.matrix = build_diffusion(self.spec)
        self.blocks = random_blocks(4, self.count, 8)
        self.flat = self.blocks.ravel()

    def test_ramp_ladder_matches_dense(self):
        # the controlled-power stage of pea_operator on its own
        def ladder(spec, m, coeff):
            return _apply_ramp(spec, coeff, np.arange(2**m))

        applied = _in_eigen_frame(ladder, self.spec, 2, self.blocks)
        oracle = dense_power_ladder(self.matrix, 2) @ self.flat
        assert np.allclose(applied.ravel(), oracle, atol=1e-10)

    def test_apply_condition_matches_dense(self):
        applied = _in_eigen_frame(_apply_condition, self.spec, 2, self.blocks)
        powered = np.linalg.matrix_power(self.matrix, 4)
        dense = -np.eye(4 * self.count, dtype=np.complex128)
        dense[: self.count, : self.count] = powered
        assert np.allclose(applied.ravel(), dense @ self.flat, atol=1e-10)

    def test_pea_operator_matches_dense(self):
        applied = pea_operator(self.spec, 2, self.blocks)
        dense = (
            np.kron(qft(2), np.eye(self.count))
            @ dense_power_ladder(self.matrix, 2)
            @ np.kron(walsh_hadamard(2), np.eye(self.count))
        )
        assert np.allclose(applied.ravel(), dense @ self.flat, atol=1e-10)

    def test_adjoint_inverts_estimation(self):
        spec, blocks = self.spec, self.blocks
        estimated = _in_eigen_frame(_apply_estimate, spec, 2, blocks)
        round_trip = _in_eigen_frame(_apply_unestimate, spec, 2, estimated)
        assert np.allclose(round_trip, blocks, atol=1e-12)
        unestimated = _in_eigen_frame(_apply_unestimate, spec, 2, blocks)
        other = _in_eigen_frame(_apply_estimate, spec, 2, unestimated)
        assert np.allclose(other, blocks, atol=1e-12)

    def test_dense_boosted_matrix_matches_dense(self):
        estimate = (
            np.kron(qft(2), np.eye(self.count))
            @ dense_power_ladder(self.matrix, 2)
            @ np.kron(walsh_hadamard(2), np.eye(self.count))
        )
        condition = -np.eye(4 * self.count, dtype=np.complex128)
        condition[: self.count, : self.count] = np.linalg.matrix_power(self.matrix, 4)
        oracle = estimate @ condition @ estimate.conj().T
        assert np.allclose(dense_boosted_matrix(self.spec, 2), oracle, atol=1e-10)

    def test_layout_mismatch_rejected(self):
        for stage in (pea_operator, boosted_diffusion):
            with pytest.raises(ValueError):
                stage(self.spec, 3, self.blocks)
            with pytest.raises(ValueError):
                stage(symmetric_spectrum(8, 1, 0.9, 1.9), 2, self.blocks)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 16])
def test_fused_boost_matches_stage_composition(n, m):
    # one basis change each way gives the same map as the three stages,
    # each with its own round trip through the eigenbasis
    spec = symmetric_spectrum(n, 3, 0.9, 1.9)
    rng = np.random.default_rng(n + m)
    shape = (2**m, spec.phases.size, 3)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    staged = blocks
    for stage in (_apply_unestimate, _apply_condition, _apply_estimate):
        staged = _in_eigen_frame(stage, spec, m, staged)
    fused = boosted_diffusion(spec, m, blocks)
    assert np.max(np.abs(fused - staged)) <= 1e-12


@pytest.mark.parametrize("n, m", [(4, 1), (16, 3), (32, 5), (128, 3)])
def test_dense_boosted_matrix_matches_joint_columns(n, m):
    # the matrix built from per-eigenvector blocks is boosted_diffusion on
    # every joint basis vector
    spec = resonant_spectrum(n, m, 1e-3, 5)
    n = spec.phases.size  # its entries, n - 1
    joint = 2**m * n
    columns = np.eye(joint, dtype=np.complex128).reshape(2**m, n, joint)
    pushed = boosted_diffusion(spec, m, columns).reshape(joint, joint)
    assert np.max(np.abs(dense_boosted_matrix(spec, m) - pushed)) <= 1e-12


def test_controlled_oracle_flips_single_amplitude():
    # in the main basis, V c loses the sign of entry 1 only, in place
    spec = symmetric_spectrum(4, 3, 0.9, 1.9)
    coeff = random_blocks(1, spec.phases.size, 9)[0, :, 0]
    vectors = eigenbasis(spec)
    row = vectors[1]
    expected = vectors @ coeff
    expected[1] = -expected[1]
    assert controlled_oracle(coeff, row @ coeff, row.conj()) is None
    assert np.allclose(vectors @ coeff, expected, atol=1e-14)


def test_boosted_diffusion_fixes_joint_source():
    spec = symmetric_spectrum(8, 5, 0.8, 1.8)
    blocks = np.zeros((4, spec.phases.size, 1), dtype=np.complex128)
    blocks[0, :, 0] = eigenbasis(spec)[:, 0]
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
    flipped = np.full((2**m - 1) * spec.phases.size, math.pi)
    expected = np.concatenate([wrap_phase(2**m * spec.phases), flipped])
    assert np.allclose(np.sort(system.phases), np.sort(expected), atol=1e-8)


def test_dense_check_at_nine_ancillas():
    # two entries on 2^9 ancilla states: joint dimension 1024 = DENSE_CAP
    inst = SearchInstance.build(graph_spectrum({0: 1, 2: 1}, 0.4))
    assert inst.dimension * 2**9 == DENSE_CAP
    assert abs(b_prime(inst, 9).b_prime - dense_b_prime_check(inst, 9)) <= 1e-12


def test_dense_boosted_matrix_respects_cap():
    spec = symmetric_spectrum(64, 1, 0.9, 1.9)
    with pytest.raises(DenseCapError):
        dense_boosted_matrix(spec, 5)
    # the check reads the matrix's blocks, and keeps the joint cap with them
    with pytest.raises(DenseCapError, match="joint dimension 2016"):
        dense_b_prime_check(SearchInstance.build(spec), 5)


def assert_boost_matches_dense(inst, m):
    """b' within 1e-12 of the dense joint check, and lambda1' finite."""
    assert inst.phases.size * 2**m <= DENSE_CAP
    assert abs(b_prime(inst, m).b_prime - dense_b_prime_check(inst, m)) <= 1e-12
    assert math.isfinite(boosted_lambda1(inst, m))


class TestBPrime:
    def test_sigma2_is_exact_quotient(self):
        # away from resonance the powered branch's sum is b^2 / 4^m, since
        # the estimation amplitude's numerator cancels the powered sine
        inst = SearchInstance.build(symmetric_spectrum(16, 7, 0.7, 1.7))
        for m in (1, 2, 3):
            breakdown = b_prime(inst, m)
            quotient = inst.b_factor**2 / 4**m
            assert abs(breakdown.sigma2 - quotient) <= 1e-12 * quotient
            assert 0.0 <= breakdown.sigma1 <= 1.0
            assert np.isclose(
                breakdown.b_prime,
                math.sqrt(breakdown.sigma1 + breakdown.sigma2),
                rtol=1e-15,
            )

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_weighted_resonance_drops_out(self, n, m):
        # every nonsource phase is pi, so 2^m pi wraps onto 0, exactly up to
        # m = 3 and to rounding from m = 4 on (wrap(16 pi) is -3.6e-15).
        # Each entry drops out of the boost and its weight joins the flipped
        # branch, so boosting Grover gives Grover back: b' = sqrt(1 - alpha^2),
        # and lambda1' = 0, as the branch at pi adds a cotangent of exactly 0
        inst = SearchInstance.build(grover_spectrum(n))
        assert_boost_matches_dense(inst, m)
        assert abs(b_prime(inst, m).b_prime - math.sqrt(1.0 - 1.0 / n)) <= 1e-12
        assert boosted_lambda1(inst, m) == 0.0

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_resonant_band_drops_out(self, m):
        # pair phases +-3 pi/4, so 2^m theta is a multiple of 2 pi from m = 3
        # on, exactly at m = 3 and to rounding after, and every weighted pair
        # drops out of the boost
        inst = SearchInstance.build(
            symmetric_spectrum(16, 3, 3 * math.pi / 4, 3 * math.pi / 4)
        )
        assert_boost_matches_dense(inst, m)
        assert boosted_instance(inst, m).phases.size == 2
        assert boosted_lambda1(inst, m) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_resonant_torus_level_drops_out(self, m):
        # the 5-torus level 11 sits at phase pi when gamma = pi / 11, so every
        # power drives it onto a multiple of 2 pi, and it drops out of the boost
        inst = SearchInstance.build(graph_spectrum(torus_levels(5, 6), math.pi / 11))
        assert math.pi in set(inst.phases)
        assert_boost_matches_dense(inst, m)

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
    """b' from one eigendecomposition of the whole dense joint matrix."""
    system = unitary_eigensystem(dense_boosted_matrix(inst, m))
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
        # the source keeps phase 0; the other n - 1 share phase pi, one entry
        rng = np.random.default_rng(8)
        source = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = grover_spectrum(n, abs(source[0]) / np.linalg.norm(source))
    return SearchInstance.build(spec)


def audit_instance():
    """The benchmark's dense check instance: joint dimension 1016 at m = 3.

    Its side is 128, and it holds 127 entries: the source and 63 pairs.
    """
    return SearchInstance.build(resonant_spectrum(128, 3, 1e-3, 1))


def round_trip_split(matrix, vectors, size):
    """(I (x) V^dag) B (I (x) V) in full: its diagonal blocks and largest leak.

    Two products, V^dag on the rows, then V on the columns; the blocks come
    back as an (N, 2^m, 2^m) array, and the leak is the largest off-block
    entry.
    """
    n = vectors.shape[0]
    rows = vectors.conj().T @ matrix.reshape(size, n, size * n)
    reduced = (rows.reshape(size * n * size, n) @ vectors).reshape(size, n, size, n)
    diagonal = np.arange(n)
    blocks = reduced[:, diagonal, :, diagonal]
    reduced[:, diagonal, :, diagonal] = 0.0
    return blocks, float(np.max(np.abs(reduced)))


class TestDenseBPrimeCheck:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("family", ["symmetric", "resonant", "grover"])
    def test_blocks_match_full_schur(self, family, m):
        inst = oracle_instance(family)
        assert inst.phases.size * 2**m <= 256
        full = full_schur_b_prime(inst, m)
        assert np.isclose(dense_b_prime_check(inst, m), full, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "levels, gamma, m",
        [(hypercube_levels(20), math.pi / 41, m) for m in (1, 2, 3, 4, 5)]
        + [(torus_levels(2, 32), math.pi / 5, m) for m in (1, 2)]
        + [(torus_levels(3, 16), math.pi / 7, m) for m in (1, 2)],
        ids=[f"hypercube20-{m}" for m in (1, 2, 3, 4, 5)]
        + [f"torus2-32-{m}" for m in (1, 2)]
        + [f"torus3-16-{m}" for m in (1, 2)],
    )
    def test_compressed_spectrum_matches_analytic(self, levels, gamma, m):
        # one entry per Laplacian level and no basis to build: the check
        # reads the phases and the target weights, never the basis
        spec = graph_spectrum(levels, gamma)
        assert spec.phases.size * 2**m <= DENSE_CAP
        inst = SearchInstance.build(spec)
        analytic = b_prime(inst, m).b_prime
        assert abs(dense_b_prime_check(inst, m) - analytic) <= 1e-12

    def test_audit_instance_matches_analytic(self):
        # the benchmark's dense check, at joint dimension 8 x 127 = 1016
        inst = audit_instance()
        assert inst.phases.size * 2**3 == 1016
        analytic = b_prime(inst, 3).b_prime
        assert abs(dense_b_prime_check(inst, 3) - analytic) <= 1e-8

    @pytest.mark.parametrize(
        "family, m",
        [
            (family, m)
            for family in ("symmetric", "resonant", "grover")
            for m in (1, 2, 3)
        ]
        + [("audit", 3)],
    )
    def test_matrix_is_block_diagonal_in_eigenbasis(self, family, m):
        # the dense joint matrix splits in I (x) V into the blocks the check
        # solves, and couples no two diffusion eigenvectors
        inst = audit_instance() if family == "audit" else oracle_instance(family)
        size, vectors = 2**m, eigenbasis(inst)
        matrix = dense_boosted_matrix(inst, m)
        blocks, leak = round_trip_split(matrix, vectors, size)
        assert leak <= 1e-13
        read = _boost_blocks(inst, m).transpose(1, 0, 2)
        assert np.max(np.abs(blocks - read)) <= 1e-12

    def test_nan_block_entry_raises(self, monkeypatch):
        # a NaN in the blocks the check reads fails its one eigensolve
        import gqsearch.dense

        inst = oracle_instance("symmetric")
        boost = gqsearch.dense._apply_boost

        def poisoned(spec, m, coeff):
            blocks = boost(spec, m, coeff)
            blocks[1, 7, 2] = np.nan
            return blocks

        monkeypatch.setattr(gqsearch.dense, "_apply_boost", poisoned)
        with pytest.raises(EigensolverError, match="eigendecomposition failed") as caught:
            dense_b_prime_check(inst, 2)
        assert caught.value.residual == math.inf

    def test_nan_zero_phase_weight_raises(self, monkeypatch):
        # a NaN target weight on the joint source's eigenvector must not
        # drop out of the zero-phase test
        import gqsearch.linalg

        inst = oracle_instance("symmetric")
        solve = gqsearch.linalg.unitary_eigensystem

        def poisoned(blocks):
            # block 0 belongs to main eigenvector 0, the source's
            eig = solve(blocks)
            vectors = eig.vectors.copy()
            vectors[0, 0, np.argmin(np.abs(eig.phases[0]))] = np.nan
            return gqsearch.linalg.EigenSystem(phases=eig.phases, vectors=vectors)

        monkeypatch.setattr(gqsearch.linalg, "unitary_eigensystem", poisoned)
        with pytest.raises(EigensolverError, match="zero-phase") as caught:
            dense_b_prime_check(inst, 2)
        assert math.isnan(caught.value.residual)

    @pytest.mark.parametrize("oracle", ["check", "matrix"])
    def test_memory_at_audit_instance(self, oracle):
        # the joint matrix alone is 16 MiB and nothing else of joint size is
        # held; the check reads the 128 KiB of 8 x 8 blocks and makes no
        # joint-size array at all
        import tracemalloc

        inst = audit_instance()
        tracemalloc.start()
        try:
            if oracle == "check":
                dense_b_prime_check(inst, 3)
            else:
                dense_boosted_matrix(inst, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        if oracle == "check":
            assert peak < 2 * 2**20

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
        assert sizes == [(inst.phases.size, 4, 4)]

    def test_zero_phase_leftover_raises(self, monkeypatch):
        import gqsearch.linalg

        inst = oracle_instance("symmetric")
        solve = gqsearch.linalg.unitary_eigensystem
        moved = []

        def pinned(blocks):
            # block 1 belongs to main eigenvector 1: move its largest ancilla
            # overlap onto phase 0, where only the joint source may sit
            eig = solve(blocks)
            overlap = np.abs(eig.vectors[1, 0, :]) ** 2
            k = int(np.argmax(overlap))
            moved.append(overlap[k])
            phases = eig.phases.copy()
            phases[1, k] = 0.0
            return gqsearch.linalg.EigenSystem(phases=phases, vectors=eig.vectors)

        monkeypatch.setattr(gqsearch.linalg, "unitary_eigensystem", pinned)
        with pytest.raises(EigensolverError, match="zero-phase") as caught:
            dense_b_prime_check(inst, 2)
        expected = inst.weights[1] * moved[0]
        assert expected > 1e-8
        assert np.isclose(caught.value.residual, expected, rtol=1e-8)


def dense_boosted_lambda1(inst, m):
    """lambda1' from one eigensolve of each dense boosted block Z_l.

    Eigenvector k of block l carries target weight w_l |Z_l[0, k]|^2, as in
    ``dense_b_prime_check``; the zero-phase one is the joint source.
    """
    eig = unitary_eigensystem(_boost_blocks(inst, m).transpose(1, 0, 2))
    weights = inst.weights[:, np.newaxis] * np.abs(eig.vectors[:, 0, :]) ** 2
    live = np.abs(eig.phases) >= 1e-9
    half = 0.5 * eig.phases[live]
    return float(np.sum(weights[live] * np.cos(half) / np.sin(half)))


class TestBoostedLambda1:
    @pytest.mark.parametrize("family, m", ONE_SIDED_CASES)
    def test_one_sided_matches_dense_blocks(self, family, m):
        # a powered phase past +-pi keeps the sign of wrap(2^m theta); on a
        # one-sided spectrum no pair partner cancels a wrong sign
        inst = SearchInstance.build(one_sided_spectrum(family))
        dense = dense_boosted_lambda1(inst, m)
        assert abs(boosted_lambda1(inst, m) - dense) <= 1e-12 * max(1.0, abs(dense))

    def test_paired_construction_cancels(self):
        inst = SearchInstance.build(symmetric_spectrum(16, 11, 0.7, 1.6))
        for m in (1, 2, 3):
            assert abs(boosted_lambda1(inst, m)) <= 1e-12

    def test_zero_weight_branch_is_exempt(self):
        # an eigenvector at pi with exactly zero weight: doubling pi wraps
        # onto zero, but the spectrum drops the entry, so nothing resonates
        spec = symmetric_spectrum(8, 2, 0.9, 1.9)
        phases = np.append(spec.phases, np.pi)
        assert math.pi in set(np.abs(phases))
        inst = SearchInstance(phases, np.append(spec.weights, 0.0), n=8)
        assert inst.phases.tobytes() == spec.phases.tobytes()
        assert abs(boosted_lambda1(inst, 1)) <= 1e-12


class TestBoostedRun:
    def test_cost_ledger(self):
        inst = SearchInstance.build(symmetric_spectrum(8, 3, 0.8, 1.8))
        for m in (1, 2, 3, 4, 5):
            assert boosted_search_run(inst, m, 0).ds_per_step == 3 * 2**m - 2

    def test_run_records_the_ledger(self):
        inst = SearchInstance.build(symmetric_spectrum(8, 3, 0.8, 1.8, alpha=0.2))
        report = boosted_search_run(inst, 3, q_max=5)
        assert report.target_probability.shape == (6,)
        assert report.source_overlap.shape == (6,)
        assert report.ds_per_step == 3 * 2**3 - 2

    def test_report_holds_the_boosted_instance(self):
        inst = SearchInstance.build(
            symmetric_spectrum(16, 9, 0.8, 1.8, alpha=0.1, b_target=8.0)
        )
        ran = boosted_search_run(inst, 3, 5).instance
        assert ran.b_factor == b_prime(inst, 3).b_prime
        assert ran.lambda1 == boosted_lambda1(inst, 3)
        assert ran.alpha == inst.alpha

    def test_run_keeps_no_reference_to_its_instance(self):
        inst = SearchInstance.build(symmetric_spectrum(16, 9, 0.8, 1.8))
        ref = weakref.ref(inst)
        boosted_search_run(inst, 2, 5)
        del inst
        gc.collect()
        assert ref() is None

    def test_default_budget_covers_first_crest(self):
        inst = SearchInstance.build(symmetric_spectrum(8, 3, 0.8, 1.8, alpha=0.2))
        m = default_ancilla_count(inst.b_factor)
        report = boosted_search_run(inst, m)
        boost = b_prime(inst, m).b_prime
        expected = 2 * peak_law(boost, 0.2, boosted_lambda1(inst, m))[0]
        assert len(report.target_probability) == expected + 1
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
            (("hypercube", 9, None), 2),
            (("hypercube", 9, None), 3),
            (("torus", 13, None), 1),
            (("torus", 13, None), 2),
            (("unmatched", 64, None), 2),
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
        elif family == "grover":
            spec = oracle_instance("grover")
        else:
            spec = one_sided_spectrum(family)
        size = spec.phases.size  # the entries the dense oracles run on
        assert size <= n
        inst = SearchInstance.build(spec)
        report = boosted_search_run(inst, m, q_max=40)
        step = dense_boosted_matrix(spec, m)
        step[:, 0] = -step[:, 0]
        state = np.zeros(2**m * size, dtype=np.complex128)
        source = eigenbasis(spec)[:, 0]
        state[:size] = source
        for probability, source_overlap in zip(
            report.target_probability, report.source_overlap
        ):
            assert abs(probability - abs(state[0]) ** 2) <= 1e-12
            overlap = abs(np.vdot(source, state[:size]))
            assert abs(source_overlap - overlap) <= 1e-12
            state = step @ state

    @pytest.mark.parametrize(
        "build, ms",
        [
            (lambda: symmetric_spectrum(4096, 1, 0.5, 1.5, b_target=64), range(1, 6)),
            (lambda: pair_spectrum(4096, matched=False), range(1, 6)),
            (lambda: pair_spectrum(65536, matched=True), (2,)),
            (lambda: pair_spectrum(65536, matched=False), (2,)),
            (lambda: resonant_spectrum(1024, 3, 1e-3, 3), (3,)),
            (lambda: grover_spectrum(4096), (3,)),
            (lambda: graph_spectrum(hypercube_levels(20), math.pi / 41), (3,)),
        ],
        ids=[
            "symmetric4096",
            "unmatched4096",
            "paired65536",
            "unmatched65536",
            "resonant1024",
            "grover4096",
            "hypercube20",
        ],
    )
    def test_matches_joint_run_above_the_dense_cap(self, build, ms):
        # up to 2^18 joint states, far past DENSE_CAP.  Grover's and the lone
        # pi entries resonate and drop out of the reduction; the resonant
        # family sits 1e-3 off resonance, where the survival is near 0
        spec = build()
        inst = SearchInstance.build(spec)
        for m in ms:
            report = boosted_search_run(inst, m, 20)
            probability, source_overlap = joint_run(spec, m, 20)
            assert np.max(np.abs(report.target_probability - probability)) <= 1e-12
            assert np.max(np.abs(report.source_overlap - source_overlap)) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_long_run_stays_normalized(self, n):
        # drift reaches a few 1e-12 by q = 3000, past a 1e-12 per-step check
        inst = SearchInstance.build(symmetric_spectrum(n, 1, 0.5, 1.5))
        report = boosted_search_run(inst, 3, 3000)
        assert len(report.target_probability) == 3001
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
        assert len(calls) == q_max == len(report.target_probability) - 1

    def test_boosting_grover_gives_grover_back(self):
        # every nonsource phase is pi and resonates at every m, so the boost
        # is the 2-entry spectrum {0: alpha^2, pi: 1 - alpha^2}: Grover again
        inst = SearchInstance.build(grover_spectrum(2**20))
        angle = math.asin(inst.alpha)
        expected = np.sin((2 * np.arange(1701) + 1) * angle) ** 2
        for m in range(1, 9):
            boosted = boosted_instance(inst, m)
            assert boosted.phases.tolist() == [0.0, math.pi]
            assert boosted.weights[0] == inst.alpha**2
            assert abs(boosted.weights[1] - (1.0 - inst.alpha**2)) <= 1e-12
            assert boosted_lambda1(inst, m) == 0.0
            report = boosted_search_run(inst, m, 1700)
            assert report.ds_per_step == 3 * 2**m - 2
            assert np.max(np.abs(report.target_probability - expected)) <= 1e-13

    @pytest.mark.parametrize("m", [3, 8, 16])
    def test_memory_does_not_grow_with_m(self, large_instance, m):
        import tracemalloc

        tracemalloc.start()
        try:
            boosted_search_run(large_instance, m, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def joint_run(spec, m, steps):
    """Target probability and source overlap of the joint search, step by step.

    The (2^m, N, 1) state, N the entry count, is held in eigen-coordinates,
    where the joint source is [0, 0, 0] and the joint target is
    t = sqrt(weights) on ancilla row 0.
    Each step flips that target, then applies ``dense._apply_boost``.  It
    builds no basis and checks no cap, and it shares no code with
    ``boosted_instance``, ``pea_amplitude`` or ``spectra._power``.
    """
    t = np.sqrt(spec.weights).astype(np.complex128)
    state = np.zeros((2**m, spec.phases.size, 1), dtype=np.complex128)
    state[0, 0, 0] = 1.0
    probability, source_overlap = [], []
    for step in range(steps + 1):
        if step:
            state[0, :, 0] -= 2 * (t @ state[0, :, 0]) * t.conj()
            state = _apply_boost(spec, m, state)
        probability.append(abs(t @ state[0, :, 0]) ** 2)
        source_overlap.append(abs(state[0, 0, 0]))
    return np.array(probability), np.array(source_overlap)


@pytest.fixture(scope="module")
def large_instance():
    return SearchInstance.build(symmetric_spectrum(4096, 1, 0.5, 1.5, b_target=8))


@pytest.mark.parametrize("value, expected", [(1.0, 1), (16.0, 4), (1e9, 30), (2.9, 2)])
def test_default_ancilla_count(value, expected):
    assert default_ancilla_count(value) == expected


def test_default_ancilla_count_regains_grover_at_large_b():
    # the paper's claim at b = 1000: m = round(log2 b) = 10 brings b' to
    # about 1, and the default-budget boosted run peaks near certainty
    inst = SearchInstance.build(symmetric_spectrum(1024, 1, 0.5, 1.5, b_target=1000))
    m = default_ancilla_count(inst.b_factor)
    assert m == 10
    assert b_prime(inst, m).b_prime < 1.2
    assert boosted_search_run(inst, m).peak_probability >= 0.7
    # b'^2 = sigma1 + b^2 / 4^m holds at every m the rule admits
    for m in range(9, 50):
        split = b_prime(inst, m)
        expected = split.sigma1 + inst.b_factor**2 / 4**m
        assert abs(split.b_prime**2 - expected) <= 1e-12 * expected


def test_default_ancilla_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        default_ancilla_count(0.0)

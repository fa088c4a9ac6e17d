"""Dense kernel tests: phase wrapping, rounding, eigendecomposition."""

import math

import numpy as np
import pytest

from gqsearch.linalg import (
    DENSE_CAP,
    DenseCapError,
    EigensolverError,
    round_half_up,
    unitary_eigensystem,
    wrap_phase,
)

from helpers import unitarity_defect


def seeded_unitary(n, seed):
    """Unitary Q factor of a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(gauss)[0]


@pytest.mark.parametrize(
    "angle, expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (2.0 * math.pi, 0.0),
        (-0.5 * math.pi, -0.5 * math.pi),
        (3.0 * math.pi, math.pi),
    ],
)
def test_wrap_phase_canonical_interval(angle, expected):
    assert np.isclose(wrap_phase(angle), expected, rtol=0.0, atol=1e-12)


def test_wrap_phase_boundary_is_exact():
    # the half-open convention must land on +pi bit-exactly from both sides
    assert wrap_phase(math.pi) == math.pi
    assert wrap_phase(-math.pi) == math.pi
    assert wrap_phase(2.0 * math.pi) == 0.0


def test_wrap_phase_array_input():
    rng = np.random.default_rng(3)
    angles = rng.uniform(-20.0, 20.0, size=200)
    wrapped = wrap_phase(angles)
    assert wrapped.shape == angles.shape
    assert np.all(wrapped > -math.pi)
    assert np.all(wrapped <= math.pi)
    # wrapping preserves the angle modulo 2 pi
    assert np.allclose(np.exp(1j * wrapped), np.exp(1j * angles), atol=1e-12)


@pytest.mark.parametrize(
    "value, expected",
    [
        (0.5, 1),
        (1.5, 2),
        (2.5, 3),
        (-0.5, 0),
        (-1.5, -1),
        (2.4999, 2),
        (2.4999997, 2),
        (3.0, 3),
    ],
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


def test_unitarity_defect_flags_scaling():
    matrix = seeded_unitary(8, 2)
    assert unitarity_defect(matrix) < 1e-10
    assert unitarity_defect(1.01 * matrix) > 1e-3


def test_eigensystem_matches_characteristic_polynomial():
    # independent oracle: eigenvalues as roots of the characteristic polynomial
    matrix = seeded_unitary(8, 42)
    oracle = np.sort(wrap_phase(np.angle(np.roots(np.poly(matrix)))))
    system = unitary_eigensystem(matrix)
    assert np.allclose(np.sort(system.phases), oracle, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("n, seed", [(4, 0), (9, 1), (16, 2), (32, 3)])
def test_eigensystem_reconstructs_input(n, seed):
    matrix = seeded_unitary(n, seed)
    system = unitary_eigensystem(matrix)
    gram = system.vectors.conj().T @ system.vectors
    assert np.allclose(gram, np.eye(n), atol=1e-10)
    rebuilt = (system.vectors * np.exp(1j * system.phases)) @ system.vectors.conj().T
    assert np.allclose(rebuilt, matrix, atol=1e-10)
    assert np.all(system.phases > -math.pi)
    assert np.all(system.phases <= math.pi)


def test_eigensystem_diagonal_phases_exact():
    matrix = np.diag([1.0, 1j, -1.0, -1j]).astype(np.complex128)
    system = unitary_eigensystem(matrix)
    expected = [0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi]
    assert np.allclose(np.sort(system.phases), np.sort(expected), atol=1e-12)


def test_eigensystem_rejects_nonunitary():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    with pytest.raises(EigensolverError) as excinfo:
        unitary_eigensystem(shear)
    assert excinfo.value.residual > 1e-8


def test_eigensystem_rejects_nonsquare():
    with pytest.raises(EigensolverError):
        unitary_eigensystem(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(4, 2, 3), (4,), (2, 2, 2, 2)])
def test_stacked_eigensystem_rejects_other_shapes(shape):
    # np.linalg.eig refuses the first two; the third, a stack of non-unitary
    # 2 x 2 matrices, fails the reconstruction check
    with pytest.raises(EigensolverError):
        unitary_eigensystem(np.ones(shape))


def test_eigensystem_above_the_cap_raises_before_solving(monkeypatch):
    solved = []
    monkeypatch.setattr(np.linalg, "eig", lambda matrix: solved.append(matrix))
    with pytest.raises(DenseCapError, match=f"dimension {DENSE_CAP + 1}"):
        unitary_eigensystem(np.eye(DENSE_CAP + 1, dtype=np.complex128))
    assert solved == []


def test_stack_above_the_cap_raises_before_solving(monkeypatch):
    solved = []
    monkeypatch.setattr(np.linalg, "eig", lambda matrix: solved.append(matrix))
    side = DENSE_CAP + 1
    stack = np.broadcast_to(np.eye(side, dtype=np.complex128), (2, side, side))
    with pytest.raises(DenseCapError, match=f"dimension {side}"):
        unitary_eigensystem(stack)
    assert solved == []


def test_stack_count_is_not_capped():
    # the cap bounds each matrix side, not how many matrices are stacked
    system = unitary_eigensystem(np.broadcast_to(-np.eye(2), (DENSE_CAP + 1, 2, 2)))
    assert system.phases.shape == (DENSE_CAP + 1, 2)
    assert np.all(system.phases == math.pi)


def test_stacked_eigensystem_matches_per_matrix_calls():
    # the last member has near-degenerate eigenspaces, where QR does work
    degenerate = np.array([0.3, 0.3, 0.3 + 1e-12, -1.0, -1.0, math.pi, 2.0, 2.0])
    stack = np.stack(
        [seeded_unitary(8, seed) for seed in range(5)]
        + [unitary_with_phases(degenerate, 7)]
    )
    system = unitary_eigensystem(stack)
    assert system.phases.shape == (6, 8)
    assert system.vectors.shape == (6, 8, 8)
    for i, matrix in enumerate(stack):
        alone = unitary_eigensystem(matrix)
        assert system.phases[i].tobytes() == alone.phases.tobytes()
        assert system.vectors[i].tobytes() == alone.vectors.tobytes()


def test_stack_with_one_nonunitary_member_raises():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    with pytest.raises(EigensolverError) as alone:
        unitary_eigensystem(shear)
    stack = np.stack([seeded_unitary(2, seed) for seed in range(4)])
    stack[2] = shear
    with pytest.raises(EigensolverError, match="not unitary") as caught:
        unitary_eigensystem(stack)
    assert caught.value.residual == alone.value.residual


@pytest.mark.parametrize("stack", [(), (3,)])
def test_nan_reconstruction_raises(monkeypatch, stack):
    # a NaN residual must fail the reconstruction test, not slip past it
    matrix = np.broadcast_to(seeded_unitary(4, 5), stack + (4, 4))
    qr = np.linalg.qr

    def nan_vectors(skewed):
        vectors, upper = qr(skewed)
        return np.full_like(vectors, np.nan), upper

    monkeypatch.setattr(np.linalg, "qr", nan_vectors)
    with pytest.raises(EigensolverError, match="not unitary") as caught:
        unitary_eigensystem(matrix)
    assert math.isnan(caught.value.residual)


def unitary_with_phases(phases, seed):
    """V diag(exp(i phases)) V^dag for the seeded unitary V."""
    vectors = seeded_unitary(len(phases), seed)
    return (vectors * np.exp(1j * phases)) @ vectors.conj().T


def stress_phases(kind, seed):
    """Seeded degenerate spectra of dimension at most 128."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 129))
    if kind == "minus-one-eigenspace":
        # one free phase, and -1 with multiplicity n - 1
        phases = np.full(n, math.pi)
        phases[0] = rng.uniform(-3.0, 3.0)
        return phases
    # a few cluster centres, each cluster spread by 1e-15 to 1e-4
    centres = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 6)))
    spread = 10.0 ** rng.uniform(-15.0, -4.0)
    members = centres[rng.integers(0, centres.size, size=n)]
    return members + spread * rng.uniform(-1.0, 1.0, size=n)


def assert_orthonormal_eigensystem(matrix):
    system = unitary_eigensystem(matrix)
    n = matrix.shape[0]
    gram = system.vectors.conj().T @ system.vectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    rebuilt = (system.vectors * np.exp(1j * system.phases)) @ system.vectors.conj().T
    assert np.max(np.abs(rebuilt - matrix)) <= 1e-10
    assert np.all(system.phases > -math.pi)
    assert np.all(system.phases <= math.pi)
    return system


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["minus-one-eigenspace", "clusters"])
def test_eigensystem_degenerate_stress(kind, seed):
    phases = stress_phases(kind, seed)
    assert_orthonormal_eigensystem(unitary_with_phases(phases, 100 + seed))


@pytest.mark.parametrize("n", [1, 7, 128])
@pytest.mark.parametrize("sign, phase", [(1.0, 0.0), (-1.0, math.pi)])
def test_eigensystem_of_plus_minus_identity(n, sign, phase):
    system = assert_orthonormal_eigensystem(sign * np.eye(n, dtype=np.complex128))
    assert np.all(system.phases == phase)

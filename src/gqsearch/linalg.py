"""Dense complex linear algebra kernel.

Statevectors are one dimensional complex128 arrays, operators are square
complex128 matrices.  Everything above ``DENSE_CAP`` must stay matrix-free;
the dense routines here exist for construction and for verification at small
scale.  The eigensolver's SciPy is loaded on the first dense eigensolve, so
``import gqsearch`` and every weight-path run load NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSE_CAP = 4096

UNITARITY_ATOL = 1e-10
RECONSTRUCTION_ATOL = 1e-8


class DimensionError(ValueError):
    """Operand dimensions are incompatible."""


class DenseCapError(ValueError):
    """The requested dense object would exceed DENSE_CAP."""


class EigensolverError(RuntimeError):
    """Eigendecomposition failed; carries the reconstruction residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def wrap_phase(theta):
    """Map angles to the canonical half-open interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta), 2.0 * np.pi)


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (no banker's rounding)."""
    return int(math.floor(x + 0.5))


def basis_state(dimension: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension.

    Parameters
    ----------
    dimension : int
        Size of the state space, at least 1.
    index : int
        Which amplitude is set to one.

    Returns
    -------
    numpy.ndarray
        Complex statevector with a single unit entry.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if not 0 <= index < dimension:
        raise ValueError(f"index {index} out of range for dimension {dimension}")
    state = np.zeros(dimension, dtype=np.complex128)
    state[index] = 1.0
    return state


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` on the high-order factor.

    For matrices the result acts on the composite space with ``a`` indexing
    the slow (ancilla) factor, so joint index = j * dim(b) + i.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > DENSE_CAP:
        raise DenseCapError(
            f"tensor product dimension {out_dim} exceeds dense cap {DENSE_CAP}"
        )
    return np.kron(a, b)


def apply_unitary(matrix: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a dense operator to a statevector."""
    matrix = np.asarray(matrix)
    state = np.asarray(state)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"operator must be square, got shape {matrix.shape}")
    if matrix.shape[1] != state.shape[0]:
        raise DimensionError(
            f"operator dimension {matrix.shape[1]} does not match state "
            f"dimension {state.shape[0]}"
        )
    return matrix @ state


def unitarity_defect(matrix: np.ndarray) -> float:
    """Largest entry of |U^dag U - I|, zero for an exact unitary."""
    matrix = np.asarray(matrix)
    gram = matrix.conj().T @ matrix
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a unitary matrix.

    ``phases`` holds eigenphases in (-pi, pi]; column k of ``vectors`` is the
    orthonormal eigenvector paired with ``phases[k]``.
    """

    phases: np.ndarray
    vectors: np.ndarray


def unitary_eigensystem(matrix: np.ndarray) -> EigenSystem:
    """Eigenphases and an orthonormal eigenbasis of a unitary matrix.

    Uses a complex Schur decomposition, which keeps the returned basis
    orthonormal even for (near-)degenerate eigenvalues where a generic
    eigensolver may not.  ``scipy.linalg`` is imported here, on the first
    call, and not when the package loads.

    Raises
    ------
    EigensolverError
        If the decomposition does not reproduce the input to within
        ``RECONSTRUCTION_ATOL``.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] > DENSE_CAP:
        raise DenseCapError(
            f"dimension {matrix.shape[0]} exceeds dense cap {DENSE_CAP}"
        )
    import scipy.linalg

    try:
        triangular, vectors = scipy.linalg.schur(matrix, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare path
        raise EigensolverError(f"schur decomposition failed: {exc}", np.inf)
    phases = wrap_phase(np.angle(np.diag(triangular)))
    rebuilt = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    residual = float(np.max(np.abs(rebuilt - matrix)))
    if residual > RECONSTRUCTION_ATOL:
        raise EigensolverError(
            "eigendecomposition does not reproduce the input; "
            "matrix is likely not unitary",
            residual,
        )
    return EigenSystem(phases=phases, vectors=vectors)


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-distributed unitary matrix.

    Orthonormalizes a complex Gaussian matrix and fixes the phases of the
    triangular factor's diagonal so the distribution is uniform and the
    output is a deterministic function of (n, seed).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > DENSE_CAP:
        raise DenseCapError(f"dimension {n} exceeds dense cap {DENSE_CAP}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss / np.sqrt(2.0))
    diag = np.diag(r)
    q = q * (diag / np.abs(diag))
    return q

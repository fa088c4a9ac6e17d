"""Dense complex linear algebra kernel.

Statevectors are one dimensional complex128 arrays, operators are square
complex128 matrices.  Everything above ``DENSE_CAP`` must stay matrix-free;
the dense routines here exist for construction and for verification at small
scale.  Everything here, the eigensolver included, needs NumPy only.
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

    ``np.linalg.eig`` gives the eigenvalues and unit eigenvectors.  A
    unitary matrix is normal, so eigenvectors of distinct eigenvalues are
    already orthogonal; the QR factor of the eigenvector matrix only
    orthonormalises within (near-)degenerate eigenspaces, where a generic
    eigensolver may return a skewed basis.  The reconstruction check below
    certifies the result either way.

    Raises
    ------
    EigensolverError
        If the eigensolver fails, or the decomposition does not reproduce
        the input to within ``RECONSTRUCTION_ATOL``.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] > DENSE_CAP:
        raise DenseCapError(
            f"dimension {matrix.shape[0]} exceeds dense cap {DENSE_CAP}"
        )
    try:
        values, skewed = np.linalg.eig(matrix)
        vectors = np.linalg.qr(skewed)[0]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}", np.inf)
    phases = wrap_phase(np.angle(values))
    rebuilt = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    residual = float(np.max(np.abs(rebuilt - matrix)))
    if residual > RECONSTRUCTION_ATOL:
        raise EigensolverError(
            "eigendecomposition does not reproduce the input; "
            "matrix is likely not unitary",
            residual,
        )
    return EigenSystem(phases=phases, vectors=vectors)

"""Dense complex linear algebra kernel, and the package's one bisection.

Statevectors are one dimensional complex128 arrays, operators are square
complex128 matrices.  ``DENSE_CAP`` is the package's one size cap: no dense
object (an eigenbasis, a diffusion or search matrix, an eigensolve input or
a joint boosted matrix) may have a side above it, and each is checked before
anything is allocated.  Dense matrices serve only as small-scale oracles;
every reported number comes from the phases and the target weights in O(N).
Everything here, the eigensolver included, needs NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSE_CAP = 1024

RECONSTRUCTION_ATOL = 1e-8


class DenseCapError(ValueError):
    """The requested dense object would exceed DENSE_CAP."""


class NumericalFailure(Exception):
    """A numerical check failed; the command line exits 2 on any subclass."""


class EigensolverError(RuntimeError, NumericalFailure):
    """Eigendecomposition failed; carries the reconstruction residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def check_dense_cap(side: int, what: str = "dimension") -> None:
    """Raise DenseCapError if a dense object of this side exceeds DENSE_CAP."""
    if side > DENSE_CAP:
        raise DenseCapError(f"{what} {side} exceeds dense cap {DENSE_CAP}")


def wrap_phase(theta):
    """Map angles to the canonical half-open interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta), 2.0 * np.pi)


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (no banker's rounding)."""
    return int(math.floor(x + 0.5))


def bisect_root(f, lo: float, hi: float, f_lo=math.inf, f_hi=-math.inf) -> float:
    """Root of an f that falls through zero on (lo, hi), to adjacent floats.

    f >= 0 at a midpoint moves ``lo`` there and f < 0 moves ``hi``; at
    adjacent ends the one with the smaller |f| wins, ``lo`` on a tie.  The
    ends are never evaluated: ``f_lo`` and ``f_hi`` stand for f there.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid >= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


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

    ``matrix`` is one n x n matrix or a (k, n, n) stack of them; for a
    stack, ``phases`` is (k, n) and ``vectors`` is (k, n, n), entry i of
    each the decomposition of ``matrix[i]``.  ``np.linalg.eig`` gives the
    eigenvalues and unit eigenvectors.  A unitary matrix is normal, so
    eigenvectors of distinct eigenvalues are already orthogonal; the QR
    factor of the eigenvector matrix only orthonormalises within
    (near-)degenerate eigenspaces, where a generic eigensolver may return a
    skewed basis.  The reconstruction check below certifies the result
    either way; for a stack its residual is the worst over the stack.

    Raises
    ------
    DenseCapError
        If the matrix side exceeds ``DENSE_CAP``; checked before any solve.
    EigensolverError
        If ``np.linalg.eig`` fails (as on a non-square or 1-D input), or the
        decomposition does not reproduce the input to within
        ``RECONSTRUCTION_ATOL`` (a NaN residual fails).
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    check_dense_cap(matrix.shape[-1])
    try:
        values, skewed = np.linalg.eig(matrix)
        vectors = np.linalg.qr(skewed)[0]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}", np.inf)
    phases = wrap_phase(np.angle(values))
    rotated = vectors * np.exp(1j * phases)[..., np.newaxis, :]
    rebuilt = rotated @ vectors.conj().swapaxes(-1, -2)
    residual = float(np.max(np.abs(rebuilt - matrix)))
    if not residual <= RECONSTRUCTION_ATOL:
        raise EigensolverError(
            "eigendecomposition does not reproduce the input; "
            "matrix is likely not unitary",
            residual,
        )
    return EigenSystem(phases=phases, vectors=vectors)

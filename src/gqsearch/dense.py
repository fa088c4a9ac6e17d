"""Dense N x N and joint-size oracles, for tests and ``validate`` only.

Reported numbers come from the phases and the target weights in O(N);
these matrices check them at small N and share no code with that path,
which never loads this module.  The oracles are frozen: this module changes
only to fix a bug, to delete code or to move it.

A spectrum holds no basis.  ``eigenbasis`` completes sqrt(weights) to an
orthogonal V with that row 0, and any such V realizes the spectrum: the
target is basis state 0 and the source is column 0.  N here counts the
entries, one per distinct phase, so every oracle runs on any spectrum of
at most ``DENSE_CAP`` entries, compressed ones included.

The stages act on (2^m, N, K) block arrays, K states at once, as
V (helper) V^dag: the ``_apply_*`` helpers act on eigen-coordinates, where
the ancilla transforms commute with I (x) V and the controlled powers and
the conditional rewrite are diagonal, so a composition of stages changes
basis once each way (``_in_eigen_frame``).  ``dense_boosted_matrix`` and
``dense_b_prime_check`` share one block builder, ``_boost_blocks``: the
matrix changes its blocks to the main basis, the check solves them as they
are.  The blocks read only the phases, so the check builds no basis and
runs on any spectrum, compressed ones included, within ``DENSE_CAP``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import EigensolverError, check_dense_cap
from .spectra import EigenSpectrum, SearchInstance, _check_ancilla_count


def walsh_hadamard(m: int) -> np.ndarray:
    """Dense 2^m Walsh-Hadamard transform (real, symmetric, involutive)."""
    _check_ancilla_count(m)
    check_dense_cap(2**m, "ancilla register")
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = h1
    for _ in range(m - 1):
        out = np.kron(out, h1)
    return out.astype(np.complex128)


def qft(m: int) -> np.ndarray:
    """Fourier transform on 2^m values, exponent -2*pi*i*k*j/2^m.

    The negative exponent makes the ancilla comb produced by the controlled
    powers land at +theta, so the k = 0 amplitude matches pea_amplitude
    with no sign gymnastics.  Only magnitudes at k = 0 matter downstream,
    so nothing algorithmic depends on this choice.
    """
    _check_ancilla_count(m)
    size = 2**m
    check_dense_cap(size, "ancilla register")
    grid = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / size) / math.sqrt(size)


def _complete_orthonormal(source: np.ndarray) -> np.ndarray:
    """A real orthogonal matrix whose column 0 is the nonnegative unit ``source``.

    One Householder reflection sends the basis vector at the largest entry of
    ``source`` onto it (deterministic).
    """
    n = source.shape[0]
    k = int(np.argmax(source))
    v = source.copy()
    v[k] -= 1.0
    vv = float(np.sum(v**2))
    # vv vanishes when ``source`` already is e_k: no reflection
    basis = np.outer(v, v * (-2.0 / vv)) if vv >= 1e-30 else np.zeros((n, n))
    basis.flat[:: n + 1] += 1.0
    basis[:, k] = source  # replace the reflected copy exactly
    return basis[:, np.r_[k, 0:k, k + 1 : n]]  # the source column first


def eigenbasis(spec: EigenSpectrum) -> np.ndarray:
    """An (N, N) real eigenbasis of ``spec``'s N entries: row 0 is sqrt(weights).

    The Householder completion (``_complete_orthonormal``) of sqrt(weights),
    transposed, so row 0 is that vector bit for bit.  Raises
    ``DenseCapError`` above the cap before anything is allocated.
    """
    check_dense_cap(spec.phases.size)
    return _complete_orthonormal(np.sqrt(spec.weights)).T


def build_diffusion(spec: EigenSpectrum) -> np.ndarray:
    """Dense diffusion matrix with exactly the given eigensystem.

    Reads ``eigenbasis(spec)``, so it raises ``DenseCapError`` above the cap.
    """
    vectors = eigenbasis(spec)
    return (vectors * np.exp(1j * spec.phases)) @ vectors.conj().T


def search_operator(inst: SearchInstance) -> np.ndarray:
    """Dense search operator: target sign flip followed by diffusion."""
    matrix = build_diffusion(inst)
    matrix[:, 0] = -matrix[:, 0]
    return matrix


def _apply_ancilla(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Apply a 2^m x 2^m ancilla matrix to (2^m, N, K) blocks.

    An ancilla matrix commutes with I (x) V, so this is the same map on
    main-basis blocks and on their eigen-coordinates.
    """
    return np.tensordot(matrix, blocks, axes=1)


def _apply_ramp(spec: EigenSpectrum, coeff: np.ndarray, exponents) -> np.ndarray:
    """Multiply ancilla block j of eigen-coordinates by e^{i exponents[j] theta_l}.

    ``coeff`` is a (2^m, N, K) array of eigen-coordinates V^dag blocks; it
    is scaled in place and returned.
    """
    coeff *= np.exp(1j * np.outer(exponents, spec.phases))[:, :, np.newaxis]
    return coeff


def _apply_estimate(spec: EigenSpectrum, m: int, coeff: np.ndarray) -> np.ndarray:
    """``pea_operator`` on eigen-coordinates: WH, the e^{ij theta_l} ramp, QFT."""
    coeff = _apply_ancilla(walsh_hadamard(m), coeff)
    _apply_ramp(spec, coeff, np.arange(2**m))
    return _apply_ancilla(qft(m), coeff)


def _apply_unestimate(spec: EigenSpectrum, m: int, coeff: np.ndarray) -> np.ndarray:
    """Inverse of ``_apply_estimate``: QFT^dag, the conjugate ramp, WH."""
    coeff = _apply_ancilla(qft(m).conj().T, coeff)
    _apply_ramp(spec, coeff, -np.arange(2**m))
    return _apply_ancilla(walsh_hadamard(m), coeff)


def _apply_condition(spec: EigenSpectrum, m: int, coeff: np.ndarray) -> np.ndarray:
    """The conditional rewrite on eigen-coordinates, in place.

    Block 0 is multiplied by e^{i 2^m theta_l}, every other block by -1.
    """
    _apply_ramp(spec, coeff[:1], [2**m])
    np.negative(coeff[1:], out=coeff[1:])
    return coeff


def _apply_boost(spec: EigenSpectrum, m: int, coeff: np.ndarray) -> np.ndarray:
    """``boosted_diffusion`` on eigen-coordinates: unestimate, condition, estimate."""
    coeff = _apply_unestimate(spec, m, coeff)
    return _apply_estimate(spec, m, _apply_condition(spec, m, coeff))


def _in_eigen_frame(stage, spec: EigenSpectrum, m: int, blocks: np.ndarray):
    """V stage(V^dag blocks): one basis change each way around an eigen stage."""
    vectors = eigenbasis(spec)
    return vectors @ stage(spec, m, vectors.conj().T @ blocks)


def pea_operator(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Phase estimation: Walsh-Hadamard, controlled powers, then Fourier.

    Acts on (2^m, N, K) blocks, each of the K columns a separate state, as
    ``boosted_diffusion`` does.  The circuit cost ledger charges the
    controlled powers 2^m - 1 diffusion applications (binary power ladder);
    the simulation takes two basis changes.
    """
    return _in_eigen_frame(_apply_estimate, spec, m, blocks)


def boosted_diffusion(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """The boosted diffusion: undo estimation, condition, re-estimate.

    Fixes the joint source; eigenvectors built from main eigenvector l keep
    phase 2^m * theta_l, the rest of the space sits at phase pi.  Cost per
    application: 3 * 2^m - 2 diffusion applications.

    The ancilla stages between the two estimations all commute with
    I (x) V, so the blocks change basis once each way: V (QFT, ramp, WH, C,
    WH, ramp^dag, QFT^dag) V^dag, with the ramps and C diagonal in the
    eigen-coordinates.
    """
    return _in_eigen_frame(_apply_boost, spec, m, blocks)


def _boost_blocks(spec: EigenSpectrum, m: int) -> np.ndarray:
    """The 2^m x 2^m blocks Z_l of the boosted diffusion, as a (2^m, N, 2^m) array.

    ``boosted_diffusion``'s eigen-frame stages act on each main eigenvector
    l on its own, so they run once on the identity of every l's ancilla
    space, a (2^m, N, 2^m) array, and give Z[a, l, j] = Z_l[a, j].  The
    joint dimension 2^m N must not exceed ``DENSE_CAP``.
    """
    size, n = 2**m, spec.phases.size
    check_dense_cap(size * n, "joint dimension")
    ancilla = np.arange(size)
    identity = np.zeros((size, n, size), dtype=np.complex128)
    identity[ancilla, :, ancilla] = 1.0
    return _apply_boost(spec, m, identity)


def dense_boosted_matrix(spec: EigenSpectrum, m: int) -> np.ndarray:
    """Materialize the boosted diffusion (small scale only).

    The matrix is (I (x) V) diag_l(Z_l) (I (x) V^dag) with the blocks of
    ``_boost_blocks``: its ancilla row a is V times row l of V^dag scaled
    by Z[a, l, j], one product written straight into the matrix, so the
    matrix is the only joint-size array made.  The joint dimension 2^m N
    must not exceed ``DENSE_CAP``.
    """
    size, n = 2**m, spec.phases.size
    joint_dim = size * n
    blocks = _boost_blocks(spec, m)
    vectors = eigenbasis(spec)
    adjoint_rows = vectors.conj().T[:, np.newaxis, :]
    scaled = np.empty((n, size, n), dtype=np.complex128)
    out = np.empty((size, n, joint_dim), dtype=np.complex128)
    for a in range(size):
        np.multiply(blocks[a, :, :, np.newaxis], adjoint_rows, out=scaled)
        np.matmul(vectors, scaled.reshape(n, joint_dim), out=out[a])
    return out.reshape(joint_dim, joint_dim)


def dense_b_prime_check(inst: SearchInstance, m: int) -> float:
    """Recompute the boosted b factor from the dense joint blocks.

    The boosted diffusion commutes with I (x) Ds, so the diffusion
    eigenbasis V splits it: (I (x) V^dag) B (I (x) V) holds one 2^m x 2^m
    block Z_l per main eigenvector l, and nothing between blocks.  The
    check reads the blocks from ``_boost_blocks``, the builder of
    ``dense_boosted_matrix``, so no joint-size array is made.  One stacked
    eigensolve decomposes every block on its own; a block it cannot
    reproduce, a NaN included, raises ``EigensolverError``.  Eigenvector k
    of block l carries target weight w_l |Z_l[0, k]|^2, w_l = |V[0, l]|^2.

    The near-zero-phase eigenspace is treated as one block: after removing
    the joint source's alpha^2, no target weight may remain there (any
    leftover would be a genuine divergence, raised as ``EigensolverError``
    with the leftover as its residual).  All other eigenvectors
    contribute weight over sin^2(phase / 2).  Only the phases, the target
    weights, the dense stages and the eigensolver are read, so this shares
    no code with ``b_prime`` or ``boosted_search_run``.
    """
    from .linalg import unitary_eigensystem

    blocks = _boost_blocks(inst, m)
    eig = unitary_eigensystem(blocks.transpose(1, 0, 2))
    phases = eig.phases
    weights = inst.weights[:, np.newaxis] * np.abs(eig.vectors[:, 0, :]) ** 2
    zero_block = np.abs(phases) < 1e-9
    leftover = float(np.sum(weights[zero_block])) - inst.alpha**2
    if not abs(leftover) <= 1e-8:
        raise EigensolverError(
            "zero-phase eigenspace holds unexplained target weight; "
            "boosted b factor is not finite here",
            leftover,
        )
    live = ~zero_block
    total = float(np.sum(weights[live] / np.sin(0.5 * phases[live]) ** 2))
    return math.sqrt(total)

"""Phase-estimation boosted diffusion on an ancilla x main joint space.

The ancilla register estimates the diffusion eigenphase, a conditional
operator rewrites the spectrum (good eigenvectors keep a powered phase,
everything else is flipped to -1), and undoing the estimation yields a new
diffusion operator whose b factor stays O(1) no matter how large the main
space b factor is.

The boosted diffusion has eigenphase 2^m theta_l on each probe p_l (x) v_l,
where p_l = QFT diag(e^{i j theta_l}) WH |0> is the ancilla state phase
estimation makes from theta_l, and phase pi on everything else.  The joint
source has no weight at pi, so that whole eigenspace meets the search as
one coordinate, and a boosted run is plain search on an (N+1)-entry
spectrum: ``boosted_search_run`` costs O(N) per step, whatever m is.  The
operator-level stages (``pea_operator``, ``pea_adjoint``, ``c_operator``,
``boosted_diffusion``) act on (2^m, N, K) block arrays, K states at once,
through the dense eigenbasis; they and the dense joint matrix built from
them are the small-scale verification oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    RECONSTRUCTION_ATOL,
    DenseCapError,
    EigensolverError,
    round_half_up,
    wrap_phase,
)
from .search import RunReport, _iterate, reflect_target
from .spectra import EigenSpectrum, ResonanceError, SearchInstance

JOINT_DENSE_CAP = 1024

MAX_ANCILLA_QUBITS = 8


def _check_ancilla_count(m: int) -> None:
    if not 1 <= m <= MAX_ANCILLA_QUBITS:
        raise ValueError(
            f"ancilla qubit count m must lie in [1, {MAX_ANCILLA_QUBITS}], got {m}"
        )


@dataclass(frozen=True)
class BoostedOperator:
    """Bookkeeping for the boosted diffusion at a given ancilla size."""

    m: int
    r: int
    spectrum: EigenSpectrum
    cost_per_application: int

    @classmethod
    def build(cls, spectrum: EigenSpectrum, m: int) -> "BoostedOperator":
        _check_ancilla_count(m)
        # ledger: 2^m - 1 for the controlled power ladder, 2^m for the
        # conditional block power, 2^m - 1 for undoing the estimation
        return cls(
            m=m, r=2**m, spectrum=spectrum, cost_per_application=3 * 2**m - 2
        )


@dataclass(frozen=True)
class BPrimeBreakdown:
    """Split of the boosted b factor into bad-branch and powered parts."""

    sigma1: float
    sigma2: float
    b_prime: float


def walsh_hadamard(m: int) -> np.ndarray:
    """Dense 2^m Walsh-Hadamard transform (real, symmetric, involutive)."""
    _check_ancilla_count(m)
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
    grid = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / size) / math.sqrt(size)


def _apply_ancilla(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Apply a 2^m x 2^m ancilla matrix to (2^m, N, K) blocks."""
    return np.tensordot(matrix, blocks, axes=1)


def _apply_block_powers(
    spec: EigenSpectrum, blocks: np.ndarray, exponents
) -> np.ndarray:
    """Apply Ds^exponents[j] to ancilla block j of (2^m, N, K) blocks.

    Works in the eigenbasis; each of the K columns is an independent state.
    """
    coeff = spec.vectors.conj().T @ blocks
    coeff *= np.exp(1j * np.outer(exponents, spec.phases))[:, :, np.newaxis]
    return spec.vectors @ coeff


def pea_operator(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Phase estimation: Walsh-Hadamard, controlled powers, then Fourier.

    Acts on (2^m, N, K) blocks, each of the K columns a separate state, as
    do the other stages below.  The circuit cost ledger charges the
    controlled powers 2^m - 1 diffusion applications (binary power ladder);
    the simulation takes two basis changes.
    """
    blocks = _apply_ancilla(walsh_hadamard(m), blocks)
    blocks = _apply_block_powers(spec, blocks, np.arange(2**m))
    return _apply_ancilla(qft(m), blocks)


def pea_adjoint(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Inverse of pea_operator (undoes the estimation)."""
    blocks = _apply_ancilla(qft(m).conj().T, blocks)
    blocks = _apply_block_powers(spec, blocks, -np.arange(2**m))
    return _apply_ancilla(walsh_hadamard(m), blocks)


def c_operator(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Conditional rewrite: block 0 gets Ds^(2^m), all other blocks flip sign.

    Circuit cost ledger: 2^m diffusion applications.
    """
    out = -blocks
    out[0] = _apply_block_powers(spec, blocks[:1], [2**m])[0]
    return out


def boosted_diffusion(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """The boosted diffusion: undo estimation, condition, re-estimate.

    Fixes the joint source; eigenvectors built from main eigenvector l keep
    phase 2^m * theta_l, the rest of the space sits at phase pi.  Cost per
    application: 3 * 2^m - 2 diffusion applications.
    """
    return pea_operator(spec, m, c_operator(spec, m, pea_adjoint(spec, m, blocks)))


def pea_amplitude(theta, m: int, k: int):
    """Magnitude of the ancilla-k amplitude after estimating phase theta.

    Evaluates |sin(x) / (2^m sin(x / 2^m))| at x = pi*k - 2^(m-1)*theta,
    with the removable singularity at x = 0 taken as its limit 1.  Accepts
    a scalar or an array of phases in (-pi, pi].
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(theta <= -np.pi) or np.any(theta > np.pi):
        raise ValueError("theta must lie in (-pi, pi]")
    x = np.pi * k - 2.0 ** (m - 1) * theta
    denominator = 2**m * np.sin(x / 2**m)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(np.sin(x) / denominator)
    result = np.where(denominator == 0.0, 1.0, ratio)
    return float(result) if result.ndim == 0 else result


def _survival(phases, m: int):
    """Weight |<e_0|p_l>|^2 of each probe on ancilla value 0, capped at 1.

    This is the share of main eigenvector l's target weight that survives
    phase estimation into the powered branch; the rest sits at phase pi.
    """
    return np.minimum(pea_amplitude(phases, m, 0) ** 2, 1.0)


# The oracle flips |ancilla 0, target>.  On the boosted spectrum that is the
# plain reflection about the boosted target row, done in place; one query.
# ``boosted_search_run`` looks this name up per run and makes one call per step.
controlled_oracle = reflect_target


def b_prime(inst: SearchInstance, m: int) -> BPrimeBreakdown:
    """Analytic b factor of the boosted diffusion, split into its two parts.

    sigma1 is the target weight stranded on the flipped (-1) branch, one
    minus the weight surviving phase estimation; it never exceeds 1.
    sigma2 is the powered-branch sum, which telescopes exactly to
    (b^2) / 4^m because the estimation amplitude's numerator cancels the
    powered phase's sine.
    """
    _check_ancilla_count(m)
    spectrum = inst.spectrum
    weights = np.abs(spectrum.target_row) ** 2
    survival = _survival(spectrum.phases, m)
    sigma1 = float(np.sum(weights * (1.0 - survival)))
    sigma2 = inst.b_factor**2 / 4**m
    return BPrimeBreakdown(
        sigma1=sigma1, sigma2=sigma2, b_prime=math.sqrt(sigma1 + sigma2)
    )


def boosted_lambda1(inst: SearchInstance, m: int) -> float:
    """First cotangent moment of the boosted diffusion at the joint target.

    The flipped branch sits at phase pi where the cotangent vanishes, so
    only the powered branch contributes.  Exact +/- phase pairs with
    matched weights make this vanish to rounding.
    """
    _check_ancilla_count(m)
    phases = inst.nonsource_phases()
    weights = inst.nonsource_weights()
    live = weights > 0.0
    phases, weights = phases[live], weights[live]
    boosted = wrap_phase(2**m * phases)
    if np.any(boosted == 0.0):
        raise ResonanceError(
            f"power 2**{m} drives a weighted phase onto a multiple of 2*pi"
        )
    survival = _survival(phases, m)
    half = 0.5 * boosted
    return float(np.sum(weights * survival * np.cos(half) / np.sin(half)))


def default_ancilla_count(b_factor: float) -> int:
    """Ancilla size matching the main-space b factor: round(log2 b), clamped."""
    if b_factor <= 0.0:
        raise ValueError(f"b_factor must be positive, got {b_factor}")
    return max(1, min(MAX_ANCILLA_QUBITS, round_half_up(math.log2(b_factor))))


def boosted_search_run(
    inst: SearchInstance, m: int | None = None, q_max: int | None = None
) -> RunReport:
    """Iterate controlled oracle + boosted diffusion from the joint source.

    ``m`` defaults to round(log2 b); ``q_max`` defaults to twice the
    predicted peak pi * b_prime / (4 alpha), so the scan covers the first
    probability crest with margin but stops before later crests that
    leakage can push marginally higher.  Row q records the joint target
    probability |<ancilla 0, target | state>|^2, q oracle queries, and
    q * (3 * 2^m - 2) diffusion applications.

    The run is plain search on the boosted spectrum, N + 1 entries long.
    Entry l is the probe p_l (x) v_l, with phase 2^m theta_l and target
    entry |g_l| t_l, where |g_l|^2 = pea_amplitude(theta_l, m, 0)^2 is the
    survival of phase estimation.  The last entry is the unit part of the
    joint target inside the phase-pi eigenspace: phase pi and target entry
    sqrt(sigma1), the weight ``b_prime`` strands on that branch.  The state
    starts in that eigenspace with no weight and the oracle only ever adds
    the joint target to it, so one coordinate holds all of it.  The source
    stays entry 0, exactly e_0 (x) v_0, because survival at theta = 0 is 1,
    and the pi entry goes last.  A
    step and a record cost O(N) whatever m is; no N x N array is built.

    Raises
    ------
    NormDriftError
        If |<C|C> - 1| exceeds ``search.NORM_DRIFT_LIMIT`` at any record.
    """
    if m is None:
        m = default_ancilla_count(inst.b_factor)
    breakdown = b_prime(inst, m)
    if q_max is None:
        boost = breakdown.b_prime
        q_max = max(1, round_half_up(math.pi * boost / (2.0 * inst.alpha)))
    spectrum = inst.spectrum
    operator = BoostedOperator.build(spectrum, m)
    eigenphase = np.append(np.exp(1j * operator.r * spectrum.phases), -1.0)
    target_row = np.append(
        np.sqrt(_survival(spectrum.phases, m)) * spectrum.target_row,
        math.sqrt(breakdown.sigma1),
    )
    return _iterate(
        eigenphase,
        target_row,
        q_max,
        operator.cost_per_application,
        oracle=controlled_oracle,
    )


def dense_boosted_matrix(spec: EigenSpectrum, m: int) -> np.ndarray:
    """Materialize the boosted diffusion (small scale only).

    Pushes every joint basis vector through the operator-level stages at
    once, as the K columns of a (2^m, N, K) block array.
    """
    joint_dim = 2**m * spec.dimension
    if joint_dim > JOINT_DENSE_CAP:
        raise DenseCapError(
            f"joint dimension {joint_dim} exceeds dense joint cap {JOINT_DENSE_CAP}"
        )
    basis = np.eye(joint_dim, dtype=np.complex128)
    blocks = boosted_diffusion(spec, m, basis.reshape(2**m, spec.dimension, joint_dim))
    return blocks.reshape(joint_dim, joint_dim)


def dense_b_prime_check(inst: SearchInstance, m: int) -> float:
    """Recompute the boosted b factor from the dense joint matrix.

    The dense boosted matrix B commutes with I (x) Ds, so the dense
    diffusion eigenbasis V splits it: (I (x) V^dag) B (I (x) V) holds one
    2^m x 2^m block Z_l per main eigenvector l, and nothing between blocks.
    An off-block entry above ``RECONSTRUCTION_ATOL`` raises
    ``EigensolverError``.  Each block is decomposed on its own; its
    eigenvector k carries target weight |V[0, l]|^2 |Z_l[0, k]|^2.

    The near-zero-phase eigenspace is treated as one block: after removing
    the joint source's alpha^2, no target weight may remain there (any
    leftover would be a genuine divergence).  All other eigenvectors
    contribute weight over sin^2(phase / 2).  Only the dense matrix, the
    dense eigenbasis and the eigensolver are read, so this shares no code
    with ``b_prime`` or ``boosted_search_run``.
    """
    from .linalg import unitary_eigensystem

    spectrum = inst.spectrum
    size, n = 2**m, spectrum.dimension
    vectors = spectrum.vectors
    matrix = dense_boosted_matrix(spectrum, m).reshape(size, n, size, n)
    reduced = np.einsum(
        "il,jikn,nL->jlkL", vectors.conj(), matrix, vectors, optimize=True
    )
    diagonal = np.arange(n)
    blocks = reduced[:, diagonal, :, diagonal]  # blocks[l] = Z_l
    reduced[:, diagonal, :, diagonal] = 0.0
    leak = float(np.max(np.abs(reduced)))
    if leak > RECONSTRUCTION_ATOL:
        raise EigensolverError(
            "dense boosted matrix couples different diffusion eigenvectors", leak
        )
    main_weights = np.abs(vectors[0, :]) ** 2
    phases = np.empty((n, size))
    weights = np.empty((n, size))
    for l in range(n):
        eig = unitary_eigensystem(blocks[l])
        phases[l] = eig.phases
        weights[l] = main_weights[l] * np.abs(eig.vectors[0, :]) ** 2
    zero_block = np.abs(phases) < 1e-9
    leftover = float(np.sum(weights[zero_block])) - inst.alpha**2
    if abs(leftover) > 1e-8:
        raise RuntimeError(
            "zero-phase eigenspace holds unexplained target weight "
            f"{leftover:.3e}; boosted b factor is not finite here"
        )
    live = ~zero_block
    total = float(np.sum(weights[live] / np.sin(0.5 * phases[live]) ** 2))
    return math.sqrt(total)

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
through the dense eigenbasis V; they and the dense joint matrix built from
them are the small-scale verification oracles.  Each stage is V (helper)
V^dag, where the ``_apply_*`` helpers act on eigen-coordinates: the ancilla
transforms commute with I (x) V, and the controlled powers and the
conditional rewrite are diagonal there.  So ``boosted_diffusion`` changes
basis once each way for all of its stages, not once per stage.
``_boosted_rows`` makes the dense joint matrix one ancilla row at a time.
``dense_boosted_matrix`` stacks the rows, so the matrix is the only
joint-size array it holds; ``dense_b_prime_check`` reads each row's
eigenvector blocks as it is made, with one basis change, so it holds no
joint-size array at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    RECONSTRUCTION_ATOL,
    EigensolverError,
    check_dense_cap,
    round_half_up,
    wrap_phase,
)
from .search import RunReport, _iterate, reflect_target
from .spectra import (
    EigenSpectrum,
    ResonanceError,
    SearchInstance,
    SpectrumValidationError,
)

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
    """``pea_adjoint`` on eigen-coordinates: QFT^dag, the conjugate ramp, WH."""
    coeff = _apply_ancilla(qft(m).conj().T, coeff)
    _apply_ramp(spec, coeff, -np.arange(2**m))
    return _apply_ancilla(walsh_hadamard(m), coeff)


def _apply_condition(spec: EigenSpectrum, m: int, coeff: np.ndarray) -> np.ndarray:
    """``c_operator`` on eigen-coordinates, in place.

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
    vectors = spec.vectors
    return vectors @ stage(spec, m, vectors.conj().T @ blocks)


def _apply_block_powers(
    spec: EigenSpectrum, blocks: np.ndarray, exponents
) -> np.ndarray:
    """Apply Ds^exponents[j] to ancilla block j of (2^m, N, K) blocks.

    Works in the eigenbasis; each of the K columns is an independent state.
    """
    coeff = _apply_ramp(spec, spec.vectors.conj().T @ blocks, exponents)
    return spec.vectors @ coeff


def pea_operator(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Phase estimation: Walsh-Hadamard, controlled powers, then Fourier.

    Acts on (2^m, N, K) blocks, each of the K columns a separate state, as
    do the other stages below.  The circuit cost ledger charges the
    controlled powers 2^m - 1 diffusion applications (binary power ladder);
    the simulation takes two basis changes.
    """
    return _in_eigen_frame(_apply_estimate, spec, m, blocks)


def pea_adjoint(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Inverse of pea_operator (undoes the estimation)."""
    return _in_eigen_frame(_apply_unestimate, spec, m, blocks)


def c_operator(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """Conditional rewrite: block 0 gets Ds^(2^m), all other blocks flip sign.

    Circuit cost ledger: 2^m diffusion applications.
    """
    return _in_eigen_frame(_apply_condition, spec, m, blocks)


def boosted_diffusion(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    """The boosted diffusion: undo estimation, condition, re-estimate.

    Fixes the joint source; eigenvectors built from main eigenvector l keep
    phase 2^m * theta_l, the rest of the space sits at phase pi.  Cost per
    application: 3 * 2^m - 2 diffusion applications.

    Equal to ``pea_operator(c_operator(pea_adjoint(blocks)))``, but the
    ancilla stages between the two estimations all commute with I (x) V,
    so the blocks change basis once each way: V (QFT, ramp, WH, C, WH,
    ramp^dag, QFT^dag) V^dag, with the ramps and C diagonal in the
    eigen-coordinates.
    """
    return _in_eigen_frame(_apply_boost, spec, m, blocks)


def pea_amplitude(theta, m: int, k: int):
    """Magnitude of the ancilla-k amplitude after estimating phase theta.

    Evaluates |sin(x) / (2^m sin(x / 2^m))| at x = pi*k - 2^(m-1)*theta,
    with the removable singularity at x = 0 taken as its limit 1.  Accepts
    a scalar or an array of phases in (-pi, pi].  A phase outside that
    range, NaN included, raises ``SpectrumValidationError``, a numerical
    failure (exit 2 from the command line); m < 1 raises a plain
    ``ValueError``.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all((theta > -np.pi) & (theta <= np.pi)):  # NaN fails too
        raise SpectrumValidationError("theta must lie in (-pi, pi]")
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
    survival = _survival(spectrum.phases, m)
    sigma1 = float(np.sum(spectrum.weights * (1.0 - survival)))
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
    phases = inst.spectrum.phases[1:]
    weights = inst.spectrum.weights[1:]
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
    inst: SearchInstance,
    m: int | None = None,
    q_max: int | None = None,
    *,
    breakdown: BPrimeBreakdown | None = None,
) -> RunReport:
    """Iterate controlled oracle + boosted diffusion from the joint source.

    ``m`` defaults to round(log2 b); ``q_max`` defaults to twice the
    predicted peak pi * b_prime / (4 alpha), so the scan covers the first
    probability crest with margin but stops before later crests that
    leakage can push marginally higher.  Entry q of ``target_probability``
    is the joint target probability |<ancilla 0, target | state>|^2 after q
    oracle queries; ``ds_per_step`` is 3 * 2^m - 2.

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
    step costs O(N) whatever m is; no N x N array is built.

    ``breakdown`` is ``b_prime(inst, m)`` for a caller that already holds
    it, so the run does not compute it again.

    Raises
    ------
    NormDriftError
        If |<C|C> - 1| exceeds ``search.NORM_DRIFT_LIMIT``, or is NaN, at
        any step.
    """
    if m is None:
        m = default_ancilla_count(inst.b_factor)
    if breakdown is None:
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


def _boosted_rows(spec: EigenSpectrum, m: int):
    """Yield the ancilla rows B[a] of the dense boosted matrix, each (N, 2^m N).

    ``boosted_diffusion``'s eigen-frame stages act on each main eigenvector
    l on its own, so they run once on the identity of every l's ancilla
    space, a (2^m, N, 2^m) array, and give the 2^m x 2^m blocks
    Z[a, l, j] = Z_l[a, j].  The matrix is
    (I (x) V) diag_l(Z_l) (I (x) V^dag); its row a is V times row l of
    V^dag scaled by Z[a, l, j], one product.  Its two row-size buffers, the
    scaled rows and the row itself, are reused, so each yielded row is
    overwritten by the next: a caller that keeps a row copies it.  The joint
    dimension 2^m N must not exceed ``DENSE_CAP``.
    """
    size, n = 2**m, spec.dimension
    joint_dim = size * n
    check_dense_cap(joint_dim, "joint dimension")
    ancilla = np.arange(size)
    identity = np.zeros((size, n, size), dtype=np.complex128)
    identity[ancilla, :, ancilla] = 1.0
    blocks = _apply_boost(spec, m, identity)
    vectors = spec.vectors
    adjoint_rows = vectors.conj().T[:, np.newaxis, :]
    scaled = np.empty((n, size, n), dtype=np.complex128)
    row = np.empty((n, joint_dim), dtype=np.complex128)
    for a in range(size):
        np.multiply(blocks[a, :, :, np.newaxis], adjoint_rows, out=scaled)
        np.matmul(vectors, scaled.reshape(n, joint_dim), out=row)
        yield row


def dense_boosted_matrix(spec: EigenSpectrum, m: int) -> np.ndarray:
    """Materialize the boosted diffusion (small scale only).

    Stacks the ancilla rows of ``_boosted_rows``, so the matrix is the only
    joint-size array made.  The joint dimension 2^m N must not exceed
    ``DENSE_CAP``.
    """
    size, n = 2**m, spec.dimension
    joint_dim = size * n
    check_dense_cap(joint_dim, "joint dimension")
    out = np.empty((size, n, joint_dim), dtype=np.complex128)
    for a, row in enumerate(_boosted_rows(spec, m)):
        out[a] = row
    return out.reshape(joint_dim, joint_dim)


def _split_blocks(rows, vectors: np.ndarray, size: int):
    """Blocks Z_l of (I (x) V^dag) B (I (x) V), and the largest leak between them.

    ``rows`` yields the ancilla rows B[a] of B in order, each (N, 2^m N).
    For each, C_a = B[a] (I (x) V) holds
    C_a[x, j, l] = V[x, l] Z_l[a, j] plus whatever couples eigenvector l to
    the others.  Projecting each column on V[:, l] reads Z_l[a, j]; the
    remainder, summed in squares over a and x, is the squared 2-norm of
    column (j, l) of the off-block part, because I (x) V is unitary.  The
    leak is the largest such norm, so it bounds every off-block entry.
    Returns the blocks as an (N, 2^m, 2^m) array and the leak.
    """
    n = vectors.shape[0]
    conj = vectors.conj()
    columns = vectors[:, np.newaxis, :]
    blocks = np.empty((n, size, size), dtype=np.complex128)
    leak_sq = np.zeros((size, n))
    coeff = np.empty((n, size, n), dtype=np.complex128)
    spill = np.empty_like(coeff)
    for a, row in enumerate(rows):
        np.matmul(row.reshape(n * size, n), vectors, out=coeff.reshape(n * size, n))
        block = np.einsum("xl,xjl->jl", conj, coeff)
        blocks[:, a, :] = block.T
        coeff -= np.multiply(columns, block, out=spill)
        leak_sq += np.einsum("xjl,xjl->jl", coeff.real, coeff.real)
        leak_sq += np.einsum("xjl,xjl->jl", coeff.imag, coeff.imag)
    return blocks, math.sqrt(float(np.max(leak_sq)))


def dense_b_prime_check(inst: SearchInstance, m: int) -> float:
    """Recompute the boosted b factor from the dense joint matrix.

    The dense boosted matrix B commutes with I (x) Ds, so the dense
    diffusion eigenbasis V splits it: (I (x) V^dag) B (I (x) V) holds one
    2^m x 2^m block Z_l per main eigenvector l, and nothing between blocks.
    ``_split_blocks`` reads the blocks with one product by I (x) V per
    ancilla row, each row taken from ``_boosted_rows`` as it is made, so no
    joint-size array is held.  A column of the off-block part whose 2-norm
    exceeds ``RECONSTRUCTION_ATOL`` raises ``EigensolverError`` with that
    norm as its residual; the norm bounds every entry of the column, and a
    NaN fails the test.  One stacked eigensolve decomposes every block on its
    own; eigenvector k of block l carries target weight
    |V[0, l]|^2 |Z_l[0, k]|^2.

    The near-zero-phase eigenspace is treated as one block: after removing
    the joint source's alpha^2, no target weight may remain there (any
    leftover would be a genuine divergence, raised as ``EigensolverError``
    with the leftover as its residual).  All other eigenvectors
    contribute weight over sin^2(phase / 2).  Only the dense matrix rows,
    the dense eigenbasis and the eigensolver are read, so this shares no
    code with ``b_prime`` or ``boosted_search_run``.
    """
    from .linalg import unitary_eigensystem

    spectrum = inst.spectrum
    vectors = spectrum.vectors
    blocks, leak = _split_blocks(_boosted_rows(spectrum, m), vectors, 2**m)
    if not leak <= RECONSTRUCTION_ATOL:
        raise EigensolverError(
            "dense boosted matrix couples different diffusion eigenvectors", leak
        )
    eig = unitary_eigensystem(blocks)
    phases = eig.phases
    main_weights = np.abs(vectors[0, :, np.newaxis]) ** 2
    weights = main_weights * np.abs(eig.vectors[:, 0, :]) ** 2
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

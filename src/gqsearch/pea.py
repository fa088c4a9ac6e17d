"""Phase-estimation boosted diffusion on an ancilla x main joint space.

The ancilla register estimates the diffusion eigenphase, a conditional
operator rewrites the spectrum (good eigenvectors keep a powered phase,
everything else is flipped to -1), and undoing the estimation yields a new
diffusion operator whose b factor stays O(1) no matter how large the main
space b factor is.

In the diffusion eigenbasis the boosted diffusion acts on the ancilla
column of each main eigenvector l as -I + (1 + e^{i 2^m theta_l}) |p_l><p_l|,
where p_l = QFT diag(e^{i j theta_l}) WH |0> is the ancilla state phase
estimation makes from theta_l.  ``boosted_search_run`` iterates in these
eigen-coordinates at O(2^m N) per step.  The operator-level functions
(``pea_operator``, ``c_operator``, ``boosted_diffusion`` and friends) apply
the circuit stage by stage to a ``JointState``; they and the dense joint
matrix built from them are the small-scale verification oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    RECONSTRUCTION_ATOL,
    DenseCapError,
    DimensionError,
    EigensolverError,
    round_half_up,
    wrap_phase,
)
from .search import RunReport, _checked_drift, _record, _report
from .spectra import EigenSpectrum, ResonanceError, SearchInstance

JOINT_DENSE_CAP = 1024
JOINT_NORM_ATOL = 1e-12

MAX_ANCILLA_QUBITS = 8


@dataclass
class JointState:
    """State on the ancilla (x) main space, ancilla-major layout.

    ``amplitudes[j * main_dimension + i]`` is the amplitude of ancilla basis
    value j with main basis value i.  Every operator-level function in this
    module reads and writes this layout.
    """

    m: int
    main_dimension: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.m <= MAX_ANCILLA_QUBITS:
            raise ValueError(
                f"ancilla qubit count must lie in [1, {MAX_ANCILLA_QUBITS}], "
                f"got {self.m}"
            )
        expected = 2**self.m * self.main_dimension
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (expected,):
            raise DimensionError(
                f"joint state needs {expected} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > JOINT_NORM_ATOL:
            raise ValueError(f"joint state must be normalized, got norm {norm!r}")

    @classmethod
    def from_product(
        cls, m: int, main_state: np.ndarray, ancilla_index: int = 0
    ) -> "JointState":
        main_state = np.asarray(main_state, dtype=np.complex128)
        n = main_state.shape[0]
        if not 0 <= ancilla_index < 2**m:
            raise ValueError(f"ancilla index {ancilla_index} out of range")
        amplitudes = np.zeros(2**m * n, dtype=np.complex128)
        amplitudes[ancilla_index * n : (ancilla_index + 1) * n] = main_state
        return cls(m=m, main_dimension=n, amplitudes=amplitudes)

    def blocks(self) -> np.ndarray:
        """(2^m, N) view: row j is the main-space block of ancilla value j."""
        return self.amplitudes.reshape(2**self.m, self.main_dimension)

    def copy(self) -> "JointState":
        return JointState(
            m=self.m,
            main_dimension=self.main_dimension,
            amplitudes=self.amplitudes.copy(),
        )

    def flip_target(self, target_index: int) -> "JointState":
        """Copy with the amplitude of |ancilla 0, target_index> negated."""
        out = self.copy()
        out.amplitudes[target_index] = -out.amplitudes[target_index]
        return out


@dataclass
class EigenFrameState:
    """Joint state as diffusion eigen-coordinates, updated in place.

    ``coeff`` has shape (2^m, N); row j is V^dag applied to the main-space
    block of ancilla value j, with V the diffusion eigenbasis, which is
    never built: the oracle reads only its target row.  Nothing is
    validated per operation: ``boosted_search_run`` measures the norm drift
    at every record instead.

    ``known_amplitude`` is an optional ``(target_index, <ancilla 0,
    target_index | state>)`` pair for the current ``coeff``, which the next
    ``flip_target`` uses instead of recomputing it.  Whoever changes
    ``coeff`` must set it anew or leave it None.
    """

    m: int
    spectrum: EigenSpectrum
    coeff: np.ndarray
    known_amplitude: tuple[int, complex] | None = None

    @property
    def main_dimension(self) -> int:
        return self.spectrum.dimension

    def flip_target(self, target_index: int) -> "EigenFrameState":
        """Negate |ancilla 0, target_index>: reflect row 0 about V's target row."""
        row = self.spectrum.target_row(target_index)
        block0 = self.coeff[0]
        known = self.known_amplitude
        if known is not None and known[0] == target_index:
            amplitude = known[1]
        else:
            amplitude = row @ block0
        block0 -= 2.0 * amplitude * row.conj()
        self.known_amplitude = None
        return self


@dataclass(frozen=True)
class BoostedOperator:
    """Bookkeeping for the boosted diffusion at a given ancilla size."""

    m: int
    r: int
    spectrum: EigenSpectrum
    cost_per_application: int

    @classmethod
    def build(cls, spectrum: EigenSpectrum, m: int) -> "BoostedOperator":
        if not 1 <= m <= MAX_ANCILLA_QUBITS:
            raise ValueError(
                f"ancilla qubit count must lie in [1, {MAX_ANCILLA_QUBITS}], got {m}"
            )
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
    if not 1 <= m <= MAX_ANCILLA_QUBITS:
        raise ValueError(f"m must lie in [1, {MAX_ANCILLA_QUBITS}], got {m}")
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
    if not 1 <= m <= MAX_ANCILLA_QUBITS:
        raise ValueError(f"m must lie in [1, {MAX_ANCILLA_QUBITS}], got {m}")
    size = 2**m
    grid = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / size) / math.sqrt(size)


def _check_layout(spec: EigenSpectrum, m: int, state: JointState) -> None:
    if state.m != m:
        raise DimensionError(f"state has {state.m} ancilla qubits, expected {m}")
    if state.main_dimension != spec.dimension:
        raise DimensionError(
            f"state main dimension {state.main_dimension} does not match "
            f"spectrum dimension {spec.dimension}"
        )


def _columns(state: JointState) -> np.ndarray:
    """(2^m, N, 1) view of the state, the layout the stages below take."""
    return state.blocks()[:, :, np.newaxis]


def _joint(state: JointState, blocks: np.ndarray) -> JointState:
    return JointState(
        m=state.m, main_dimension=state.main_dimension, amplitudes=blocks.ravel()
    )


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


def _estimate(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    blocks = _apply_ancilla(walsh_hadamard(m), blocks)
    blocks = _apply_block_powers(spec, blocks, np.arange(2**m))
    return _apply_ancilla(qft(m), blocks)


def _unestimate(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    blocks = _apply_ancilla(qft(m).conj().T, blocks)
    blocks = _apply_block_powers(spec, blocks, -np.arange(2**m))
    return _apply_ancilla(walsh_hadamard(m), blocks)


def _condition(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    out = -blocks
    out[0] = _apply_block_powers(spec, blocks[:1], [2**m])[0]
    return out


def _boost(spec: EigenSpectrum, m: int, blocks: np.ndarray) -> np.ndarray:
    return _estimate(spec, m, _condition(spec, m, _unestimate(spec, m, blocks)))


def controlled_powers(spec: EigenSpectrum, m: int, state: JointState) -> JointState:
    """Ancilla value j applies the j-th power of the diffusion operator.

    Simulation cost is two basis changes; the circuit cost ledger charges
    2^m - 1 diffusion applications (binary power ladder), independent of
    this shortcut.
    """
    _check_layout(spec, m, state)
    return _joint(state, _apply_block_powers(spec, _columns(state), np.arange(2**m)))


def pea_operator(spec: EigenSpectrum, m: int, state: JointState) -> JointState:
    """Phase estimation: Walsh-Hadamard, controlled powers, then Fourier."""
    _check_layout(spec, m, state)
    return _joint(state, _estimate(spec, m, _columns(state)))


def pea_adjoint(spec: EigenSpectrum, m: int, state: JointState) -> JointState:
    """Inverse of pea_operator (undoes the estimation)."""
    _check_layout(spec, m, state)
    return _joint(state, _unestimate(spec, m, _columns(state)))


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


def c_operator(spec: EigenSpectrum, m: int, state: JointState) -> JointState:
    """Conditional rewrite: block 0 gets Ds^(2^m), all other blocks flip sign.

    Circuit cost ledger: 2^m diffusion applications.
    """
    _check_layout(spec, m, state)
    return _joint(state, _condition(spec, m, _columns(state)))


def boosted_diffusion(spec: EigenSpectrum, m: int, state: JointState) -> JointState:
    """The boosted diffusion: undo estimation, condition, re-estimate.

    Fixes the joint source; eigenvectors built from main eigenvector l keep
    phase 2^m * theta_l, the rest of the space sits at phase pi.  Cost per
    application: 3 * 2^m - 2 diffusion applications.
    """
    _check_layout(spec, m, state)
    return _joint(state, _boost(spec, m, _columns(state)))


def controlled_oracle(
    n: int, target_index: int, m: int, state: JointState | EigenFrameState
) -> JointState | EigenFrameState:
    """Flip the amplitude of |ancilla 0, target>; exactly one oracle query.

    A ``JointState`` comes back as a flipped copy; an ``EigenFrameState`` is
    reflected in place and returned.
    """
    if state.main_dimension != n:
        raise DimensionError(
            f"state main dimension {state.main_dimension} does not match {n}"
        )
    if not 0 <= target_index < n:
        raise DimensionError(f"target_index {target_index} out of range for {n}")
    return state.flip_target(target_index)


def b_prime(inst: SearchInstance, m: int) -> BPrimeBreakdown:
    """Analytic b factor of the boosted diffusion, split into its two parts.

    sigma1 is the target weight stranded on the flipped (-1) branch, one
    minus the weight surviving phase estimation; it never exceeds 1.
    sigma2 is the powered-branch sum, which telescopes exactly to
    (b^2) / 4^m because the estimation amplitude's numerator cancels the
    powered phase's sine.
    """
    if not 1 <= m <= MAX_ANCILLA_QUBITS:
        raise ValueError(f"m must lie in [1, {MAX_ANCILLA_QUBITS}], got {m}")
    spectrum = inst.spectrum
    weights = np.abs(spectrum.target_row(inst.target_index)) ** 2
    survival = np.minimum(pea_amplitude(spectrum.phases, m, 0) ** 2, 1.0)
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
    if not 1 <= m <= MAX_ANCILLA_QUBITS:
        raise ValueError(f"m must lie in [1, {MAX_ANCILLA_QUBITS}], got {m}")
    phases = inst.nonsource_phases()
    weights = inst.nonsource_weights()
    live = weights > 0.0
    phases, weights = phases[live], weights[live]
    boosted = wrap_phase(2**m * phases)
    if np.any(boosted == 0.0):
        raise ResonanceError(
            f"power 2**{m} drives a weighted phase onto a multiple of 2*pi"
        )
    survival = np.minimum(pea_amplitude(phases, m, 0) ** 2, 1.0)
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

    The state is an ``EigenFrameState``: a (2^m, N) array C of
    eigen-coordinates.  The oracle reflects row 0 about the target row of
    V, and the diffusion maps each column to
    -C[:, l] + (1 + e^{i 2^m theta_l}) p_l (p_l^dag C[:, l]), with the probe
    vectors p_l computed once.  The run starts from C = e_0 (x) e_src, and a
    step and a record cost O(2^m N); no N x N array is built or touched.

    Raises
    ------
    NormDriftError
        If |<C|C> - 1| exceeds ``search.NORM_DRIFT_LIMIT`` at any record.
    """
    if m is None:
        m = default_ancilla_count(inst.b_factor)
    if q_max is None:
        boost = b_prime(inst, m).b_prime
        q_max = max(1, round_half_up(math.pi * boost / (2.0 * inst.alpha)))
    if q_max < 0:
        raise ValueError(f"q_max must be nonnegative, got {q_max}")
    operator = BoostedOperator.build(inst.spectrum, m)
    spectrum = inst.spectrum
    n = spectrum.dimension
    target = inst.target_index
    cost = operator.cost_per_application
    source = spectrum.source_index
    target_row = spectrum.target_row(target)
    probes = _estimation_probes(spectrum.phases, m)
    probes_conj = probes.conj()
    gain = 1.0 + np.exp(1j * operator.r * spectrum.phases)

    state = EigenFrameState(
        m=m, spectrum=spectrum, coeff=np.zeros((operator.r, n), dtype=np.complex128)
    )
    coeff = state.coeff
    coeff[0, source] = 1.0
    scratch = np.empty_like(coeff)
    amplitude = target_row @ coeff[0]
    records = [_record(0, amplitude, coeff[0, source], cost)]
    drift = _checked_drift(0, coeff, 0.0)
    for q in range(1, q_max + 1):
        state.known_amplitude = (target, amplitude)
        controlled_oracle(n, target, m, state)
        # column l: C <- -C + p_l (1 + e^{i 2^m theta_l}) (p_l^dag C)
        np.multiply(probes_conj, coeff, out=scratch)
        overlap = scratch.sum(axis=0)
        overlap *= gain
        np.multiply(probes, overlap, out=scratch)
        np.subtract(scratch, coeff, out=coeff)
        amplitude = target_row @ coeff[0]
        records.append(_record(q, amplitude, coeff[0, source], cost))
        drift = _checked_drift(q, coeff, drift)
    return _report(records, drift)


def _estimation_probes(phases: np.ndarray, m: int) -> np.ndarray:
    """(2^m, N) array whose column l is p_l = QFT diag(e^{i j theta_l}) WH|0>."""
    size = 2**m
    comb = np.exp(1j * np.outer(np.arange(size), phases)) / math.sqrt(size)
    return qft(m) @ comb


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
    blocks = _boost(spec, m, basis.reshape(2**m, spec.dimension, joint_dim))
    return blocks.reshape(joint_dim, joint_dim)


def dense_b_prime_check(inst: SearchInstance, m: int) -> float:
    """Recompute the boosted b factor from the dense joint matrix.

    The dense boosted matrix B commutes with I (x) Ds, so the dense
    diffusion eigenbasis V splits it: (I (x) V^dag) B (I (x) V) holds one
    2^m x 2^m block Z_l per main eigenvector l, and nothing between blocks.
    An off-block entry above ``RECONSTRUCTION_ATOL`` raises
    ``EigensolverError``.  Each block is decomposed on its own; its
    eigenvector k carries target weight |V[target, l]|^2 |Z_l[0, k]|^2.

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
    main_weights = np.abs(vectors[inst.target_index, :]) ** 2
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


def save_boosted_report(report: RunReport, m: int, path) -> None:
    """CSV per iteration: q, p_target_joint, oracle_queries, cost, m, r."""
    r = 2**m
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("q,p_target_joint,oracle_queries,ds_applications,m,r\n")
        for rec in report.records:
            fh.write(
                f"{rec.q},{rec.target_probability:.12g},{rec.oracle_queries},"
                f"{rec.ds_applications},{m},{r}\n"
            )

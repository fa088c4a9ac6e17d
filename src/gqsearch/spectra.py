"""Diffusion spectra and search instances.

A diffusion operator is specified by its eigendecomposition: column 0 is
the source, with phase exactly zero, and the remaining eigenvectors have
phases bounded away from zero.  The target is computational basis state 0,
so row 0 of the eigenbasis is the target row.  Which column holds the source
and which basis state is the target are only labels, so this convention
loses nothing.  A search instance caches the overlap moments that drive
every downstream prediction.  The moments, and both search runs, read only
the phases and the target row.  Every generator gives that row in closed
form, in O(N); the full N x N eigenbasis is built only when a dense check
reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # NumPy 2 loads it lazily; every generator draws from it

from .linalg import DENSE_CAP, DenseCapError, wrap_phase

ORTHONORMALITY_ATOL = 1e-10
FULL_VALIDATION_MAX = 1024
SAMPLED_VALIDATION_COLUMNS = 128

# scaling_family targets b = SCALING_COEFF * sqrt(ln N)
SCALING_COEFF = 2.0


class SpectrumValidationError(ValueError):
    """The eigenspectrum violates a structural invariant."""


class ResonanceError(ValueError):
    """A powered phase lands exactly on a multiple of 2*pi."""


class EigenSpectrum:
    """Eigendecomposition defining a diffusion operator.

    Attributes
    ----------
    phases : numpy.ndarray
        Shape (N,), eigenphases in (-pi, pi].  ``phases[0]``, the source
        phase, is exactly 0 and no other phase is.
    vectors : numpy.ndarray
        Shape (N, N); column k is the unit eigenvector for ``phases[k]``, and
        column 0 is the source.
    target_row : numpy.ndarray
        Shape (N,), row 0 of the eigenbasis: <0|v_l> for every l, with the
        target at computational basis state 0.

    Every reported number reads only the phases and the target row.  Every
    generator supplies the target row in closed form together with a
    builder for the full basis, so ``vectors`` is assembled, validated and
    cached on first access (by a dense check) and never on the weight path.
    An array a caller passes in is copied and validated at once, and its
    target row is row 0 of that copy; the array a builder makes is adopted
    without a copy.  All three arrays are read-only.
    """

    def __init__(self, phases, vectors):
        self._init(phases, build=None)
        self._vectors = self._adopt(np.array(vectors, dtype=np.complex128))
        self.target_row = self._vectors[0]

    @classmethod
    def _generated(cls, phases, *, row, build) -> "EigenSpectrum":
        """Spectrum from a generator: row 0 in closed form, basis on demand.

        ``row`` is row 0 of the eigenbasis and must have unit norm; ``build``
        returns the full basis on first access, adopted without a copy.
        """
        spec = cls.__new__(cls)
        spec._init(phases, build=build)
        _validate_row(row, spec.dimension)
        row.setflags(write=False)
        spec.target_row = row
        spec._vectors = None
        return spec

    def _init(self, phases, build) -> None:
        phases = np.array(phases, dtype=np.float64)
        phases.setflags(write=False)
        self.phases = phases
        self._build = build
        _validate_phases(phases)

    def _adopt(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.complex128)
        _validate_eigenbasis(vectors, self.dimension)
        vectors.setflags(write=False)
        return vectors

    @property
    def vectors(self) -> np.ndarray:
        """The (N, N) eigenbasis; built, validated and cached on first access."""
        if self._vectors is None:
            self._vectors = self._adopt(self._build())
            self._build = None
        return self._vectors

    @property
    def dimension(self) -> int:
        return int(self.phases.shape[0])

    @property
    def theta_min(self) -> float:
        """Smallest nonsource |phase|; the gap protecting the fixed point."""
        return float(np.min(np.abs(self.phases[1:])))

    @property
    def source_state(self) -> np.ndarray:
        return self.vectors[:, 0]


def _validate_phases(phases: np.ndarray) -> None:
    if np.any(phases <= -np.pi) or np.any(phases > np.pi):
        raise SpectrumValidationError("phases must lie in (-pi, pi]")
    source = phases[0] if phases.size else None
    if source != 0.0:
        raise SpectrumValidationError(
            f"source phase must be exactly 0, got {source!r}"
        )
    degenerate = np.flatnonzero(phases[1:] == 0.0)
    if degenerate.size:
        offender = int(degenerate[0]) + 1
        raise SpectrumValidationError(
            f"eigenvector {offender} shares phase 0 with the source; "
            "the fixed point must be non-degenerate"
        )


def _validate_row(row: np.ndarray, n: int) -> None:
    """A closed-form eigenbasis row: length n and unit norm."""
    if row.shape != (n,):
        raise SpectrumValidationError(
            f"eigenbasis row shape {row.shape} does not match {n} phases"
        )
    defect = abs(float(np.vdot(row, row).real) - 1.0)
    if defect > ORTHONORMALITY_ATOL:
        raise SpectrumValidationError(
            f"eigenbasis row not normalized: norm defect {defect:.3e}"
        )


def _validate_eigenbasis(vectors: np.ndarray, n: int) -> None:
    if vectors.shape != (n, n):
        raise SpectrumValidationError(
            f"eigenbasis shape {vectors.shape} does not match {n} phases"
        )
    if n <= FULL_VALIDATION_MAX:
        gram = vectors.conj().T @ vectors
        defect = np.abs(gram - np.eye(n))
        worst = float(defect.max())
        if worst > ORTHONORMALITY_ATOL:
            i, j = np.unravel_index(int(defect.argmax()), defect.shape)
            raise SpectrumValidationError(
                f"eigenbasis not orthonormal: columns ({i}, {j}) have "
                f"gram defect {worst:.3e}"
            )
        return
    # large basis: exact norms plus a sampled gram block
    # |v|^2 from the real and imaginary views: no N x N conjugate copy
    re, im = vectors.real, vectors.imag
    squared = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    norms = np.abs(squared - 1.0)
    if norms.max() > ORTHONORMALITY_ATOL:
        j = int(norms.argmax())
        raise SpectrumValidationError(
            f"eigenbasis not orthonormal: column ({j}, {j}) has "
            f"norm defect {norms.max():.3e}"
        )
    count = min(SAMPLED_VALIDATION_COLUMNS, n)
    idx = np.unique(np.linspace(0, n - 1, count).astype(int))
    sub = vectors[:, idx]
    gram = sub.conj().T @ sub
    defect = np.abs(gram - np.eye(idx.size))
    worst = float(defect.max())
    if worst > ORTHONORMALITY_ATOL:
        a, b = np.unravel_index(int(defect.argmax()), defect.shape)
        raise SpectrumValidationError(
            f"eigenbasis not orthonormal: columns ({int(idx[a])}, {int(idx[b])}) "
            f"have gram defect {worst:.3e}"
        )


def build_diffusion(spec: EigenSpectrum) -> np.ndarray:
    """Dense diffusion matrix with exactly the given eigensystem."""
    if spec.dimension > DENSE_CAP:
        raise DenseCapError(
            f"dimension {spec.dimension} exceeds dense cap {DENSE_CAP}"
        )
    return (spec.vectors * np.exp(1j * spec.phases)) @ spec.vectors.conj().T


@dataclass(frozen=True)
class SearchInstance:
    """A diffusion spectrum with its target, basis state 0, and cached moments.

    ``alpha`` is the source-target overlap magnitude; ``lambda1``/``lambda2``
    are the first two cotangent moments of the nonsource phases weighted by
    target overlap; ``b_factor`` is the inverse-sine-weighted norm that sets
    both the peak success probability (~1/b_factor**2) and the iteration
    count of the search.
    """

    spectrum: EigenSpectrum
    alpha: float
    lambda1: float
    lambda2: float
    b_factor: float

    @classmethod
    def build(cls, spectrum: EigenSpectrum) -> "SearchInstance":
        alpha = float(np.abs(spectrum.target_row[0]))
        if not 0.0 < alpha < 1.0:
            raise ValueError(
                f"source-target overlap must lie strictly in (0, 1), got {alpha}"
            )
        lam1 = _moment_sum(spectrum, 1)
        lam2 = _moment_sum(spectrum, 2)
        b2 = _powered_b_squared(spectrum, 1)
        # exact identity: b^2 = 1 + lambda2 - alpha^2 up to basis rounding
        expected = 1.0 + lam2 - alpha**2
        if abs(b2 - expected) > 1e-9 * max(1.0, abs(expected)):
            raise SpectrumValidationError(
                f"b_factor inconsistency: direct {b2:.12e} vs "
                f"moment identity {expected:.12e}"
            )
        return cls(
            spectrum=spectrum,
            alpha=alpha,
            lambda1=lam1,
            lambda2=lam2,
            b_factor=math.sqrt(b2),
        )

    @property
    def dimension(self) -> int:
        return self.spectrum.dimension

    @property
    def theta_min(self) -> float:
        return self.spectrum.theta_min

    def nonsource_phases(self) -> np.ndarray:
        return self.spectrum.phases[1:].copy()

    def nonsource_weights(self) -> np.ndarray:
        """Squared target overlaps of the nonsource eigenvectors, in order."""
        _, weights = _nonsource_arrays(self.spectrum)
        return weights


def _nonsource_arrays(spec: EigenSpectrum):
    return spec.phases[1:], np.abs(spec.target_row[1:]) ** 2


def _moment_sum(spec: EigenSpectrum, p: int) -> float:
    phases, weights = _nonsource_arrays(spec)
    half = 0.5 * phases
    cot = np.cos(half) / np.sin(half)
    return float(np.sum(weights * cot**p))


def _powered_b_squared(spec: EigenSpectrum, r: int) -> float:
    phases, weights = _nonsource_arrays(spec)
    live = weights > 0.0
    resonant = live & (np.remainder(r * phases, 2.0 * np.pi) == 0.0)
    if np.any(resonant):
        offender = int(np.flatnonzero(resonant)[0]) + 1
        raise ResonanceError(
            f"power {r} drives eigenvector {offender} "
            f"(phase {phases[resonant][0]!r}) onto a multiple of 2*pi"
        )
    sines = np.sin(0.5 * r * phases[live])
    return float(np.sum(weights[live] / sines**2))


def naive_power_b(inst: SearchInstance, r: int) -> float:
    """b factor of the r-th power of the diffusion operator.

    Each nonsource phase is multiplied by r before the inverse-sine sum, so
    a phase near a multiple of 2*pi/r makes the result blow up.  Exact
    resonance raises ResonanceError naming the offending eigenvector;
    eigenvectors with exactly zero target weight cannot contribute and are
    exempt from the resonance scan.
    """
    if r < 1:
        raise ValueError(f"power must be a positive integer, got {r}")
    return math.sqrt(_powered_b_squared(inst.spectrum, r))


def _householder(source: np.ndarray):
    """Pivot and reflection of ``_complete_orthonormal``, shared by its row.

    Returns ``(k, v, scale)``: ``k`` indexes the largest entry of ``source``,
    and the reflection I + scale v v^dag sends e_k onto ``source`` up to the
    phase of that entry.  ``scale`` is None when v vanishes, that is when
    ``source`` already is e_k up to that phase.
    """
    k = int(np.argmax(np.abs(source)))
    pivot = source[k]
    v = np.array(source, dtype=np.result_type(source, np.float64))
    v[k] -= pivot / abs(pivot)
    vv = float(np.real(np.vdot(v, v)))
    return k, v, (None if vv < 1e-30 else -2.0 / vv)


def _source_first(n: int, k: int) -> np.ndarray:
    """Column order putting column k, the source, first."""
    return np.r_[k, 0:k, k + 1 : n]


def _complete_orthonormal(source: np.ndarray) -> np.ndarray:
    """Unitary matrix whose column 0 is ``source`` (deterministic).

    One Householder reflection sends the basis vector at the largest entry of
    ``source`` onto it, so the cost is O(n**2).  A real ``source`` gives a
    real orthogonal matrix.
    """
    n = source.shape[0]
    k, v, scale = _householder(source)
    if scale is None:
        basis = np.eye(n, dtype=v.dtype)
    else:
        basis = np.outer(v, v.conj())
        basis *= scale
        basis[np.diag_indices(n)] += 1.0
    basis[:, k] = source  # replace the phase-rotated copy exactly
    return basis[:, _source_first(n, k)]


def _completion_row(source: np.ndarray) -> np.ndarray:
    """Row 0 of ``_complete_orthonormal(source)``, bit for bit, in O(n)."""
    n = source.shape[0]
    k, v, scale = _householder(source)
    if scale is None:
        row = np.zeros_like(v)
    else:
        row = v[0] * v.conj()
        row *= scale
    row[0] += 1.0
    row[k] = source[0]
    return row[_source_first(n, k)]


def grover_spectrum(n: int, source: np.ndarray) -> EigenSpectrum:
    """Spectrum of the familiar reflection about ``source``.

    The source keeps phase 0 and every orthogonal direction gets phase pi,
    which makes both cotangent moments vanish and b_factor = sqrt(1-alpha^2).
    The eigenbasis is a Householder completion of ``source``; its target row
    comes in closed form (``_completion_row``) and the basis is built on the
    first read of ``vectors``.
    """
    source = np.array(source, dtype=np.complex128)
    if source.ndim != 1 or source.shape[0] != n:
        raise ValueError(f"source must be a vector of length {n}")
    norm = float(np.linalg.norm(source))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"source must be normalized, got norm {norm!r}")
    phases = np.full(n, np.pi)
    phases[0] = 0.0
    return EigenSpectrum._generated(
        phases,
        row=_completion_row(source),
        build=lambda: _complete_orthonormal(source),
    )


# normals per call when stepping the stream past the discarded block
_SKIP_CHUNK = 2**20


def _paired_draws(n: int, seed: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The random parts of a paired spectrum: source direction and profile.

    Returns ``w_sub``, the unit direction of the source orthogonal to the
    target, and ``unit``, the unit target profile of the n - 1 complement
    columns (its last entry, the lone slot, is exactly zero).  Between the two
    draws the stream skips (n-1)(n-2) normals, once used to complete
    ``w_sub`` to a basis; skipping them keeps every profile, and so every
    target weight, at the value earlier versions generated.  They are drawn
    in chunks so no (n-1)x(n-2) block is held.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"dimension must be even and at least 4, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    rng = np.random.default_rng(seed)
    w_sub = rng.standard_normal(n - 1)
    w_sub /= np.linalg.norm(w_sub)
    skipped = (n - 1) * (n - 2)
    while skipped > 0:
        count = min(skipped, _SKIP_CHUNK)
        rng.standard_normal(count)
        skipped -= count
    profile = np.concatenate([rng.uniform(0.5, 1.5, size=n - 2), [0.0]])
    return w_sub, profile / np.linalg.norm(profile)


def _pair_weights(unit: np.ndarray, alpha: float) -> np.ndarray:
    """Target weight of each +/- pair, both members together.

    The rotated complement's target row is ``beta * unit`` and pair j is
    built from columns 2j and 2j+1, so its weight is
    beta^2 (unit[2j]^2 + unit[2j+1]^2) with beta^2 = 1 - alpha^2.  The last
    entry of ``unit`` is the lone slot and belongs to no pair.
    """
    return (1.0 - alpha**2) * (unit[0:-1:2] ** 2 + unit[1:-1:2] ** 2)


def _paired_row(alpha: float, unit: np.ndarray) -> np.ndarray:
    """Target row (row 0) of ``_paired_vectors``, in closed form, O(n).

    The source column holds alpha; pair j holds
    beta (unit[2j] +/- i unit[2j+1]) / sqrt(2), the two members exact
    conjugates; the lone slot holds exactly 0.
    """
    n = unit.shape[0] + 1
    scaled = unit * (math.sqrt(1.0 - alpha**2) / math.sqrt(2.0))
    row = np.zeros(n, dtype=np.complex128)
    row[0] = alpha
    row.real[1 : n - 1 : 2] = scaled[0 : n - 2 : 2]
    row.imag[1 : n - 1 : 2] = scaled[1 : n - 2 : 2]
    row.real[2 : n - 1 : 2] = scaled[0 : n - 2 : 2]
    np.negative(scaled[1 : n - 2 : 2], out=row.imag[2 : n - 1 : 2])
    return row


def _paired_vectors(alpha: float, w_sub: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Eigenbasis with the source in column 0 and conjugate pairs after it.

    Column 0 is ``(alpha, beta * w_sub)``.  The complement starts from a real
    frame whose column 0 holds the whole residual target weight and whose
    other columns are a Householder completion of ``w_sub`` (zero target
    component).  A reflection sending e_0 to ``unit``, applied as a rank-1
    update, gives the frame the target row ``beta * unit``.  Columns 2j and
    2j+1 become the pair (a +/- ib)/sqrt(2) and the last column the lone
    eigenvector, whose target amplitude is exactly zero.
    """
    n = w_sub.shape[0] + 1
    beta = math.sqrt(1.0 - alpha**2)
    frame = np.zeros((n, n - 1))
    frame[0, 0] = beta
    frame[1:, 0] = -alpha * w_sub
    frame[1:, 1:] = _complete_orthonormal(w_sub)[:, 1:]
    # unit has >= 2 entries of at least 0.5 before scaling, so v is never 0
    v = -unit
    v[0] += 1.0
    frame -= np.outer(frame @ v, (2.0 / float(v @ v)) * v)

    vectors = np.empty((n, n), dtype=np.complex128)
    vectors[:, 0] = np.concatenate(([alpha], beta * w_sub))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    a = frame[:, 0 : n - 2 : 2] * inv_sqrt2
    b = frame[:, 1 : n - 2 : 2] * inv_sqrt2
    # conjugate members share every bit of magnitude, so the first cotangent
    # moment cancels term by term
    vectors.real[:, 1 : n - 1 : 2] = a
    vectors.imag[:, 1 : n - 1 : 2] = b
    vectors.real[:, 2 : n - 1 : 2] = a
    np.negative(b, out=vectors.imag[:, 2 : n - 1 : 2])
    vectors[:, n - 1] = frame[:, n - 2]
    return vectors


def _paired_spectrum(
    alpha: float,
    w_sub: np.ndarray,
    unit: np.ndarray,
    pair_phases: np.ndarray,
    lone_phase: float,
) -> EigenSpectrum:
    """A spectrum with exact +/- phase pairs and matched weights.

    The target is basis state 0.  Only ``w_sub`` and ``unit`` (from
    ``_paired_draws``) and the phases are random; the complement of the
    source is a deterministic Householder completion, and every reported
    number depends on the phases, the source and the target row alone.
    The spectrum gets the target row in closed form (``_paired_row``), at
    O(n) cost; the eigenbasis (``_paired_vectors``, O(n**2)) is built only
    when ``vectors`` is first read.  Construction guarantees, bit for bit,
    that the two members of each pair carry equal target weight (so the
    first cotangent moment cancels term by term) and that the lone leftover
    eigenvector carries exactly zero target weight.
    """
    n = w_sub.shape[0] + 1
    pairs = (n - 2) // 2
    if pair_phases.shape != (pairs,):
        raise ValueError(f"expected {pairs} pair phases, got {pair_phases.shape}")
    phases = np.empty(n)
    phases[0] = 0.0
    phases[1 : n - 1 : 2] = pair_phases
    phases[2 : n - 1 : 2] = -pair_phases
    phases[n - 1] = lone_phase
    return EigenSpectrum._generated(
        phases,
        row=_paired_row(alpha, unit),
        build=lambda: _paired_vectors(alpha, w_sub, unit),
    )


def symmetric_spectrum(
    n: int,
    seed: int,
    theta_min: float,
    theta_max: float,
    alpha: float | None = None,
    b_target: float | None = None,
) -> EigenSpectrum:
    """Random spectrum with exact +/- phase pairs (first moment is zero).

    Pair phases are drawn uniformly from [theta_min, theta_max], with
    0 < theta_min <= theta_max < pi: the upper end stays open because a pair
    phase of pi would put its partner at -pi, outside (-pi, pi].  If
    ``b_target`` is given, all pair phases are rescaled by one common factor
    so the assembled instance's b factor lands on the target.  ``alpha``
    defaults to 1/sqrt(n); the target is basis state 0.  Only the phases,
    the source direction and the target profile are random; the rest of the
    eigenbasis is a Householder completion (see ``_paired_spectrum``).  The
    spectrum carries the target row in closed form; its N x N eigenbasis is
    built on the first read of ``vectors``.
    """
    if not 0.0 < theta_min <= theta_max < np.pi:
        raise ValueError(
            f"need 0 < theta_min <= theta_max < pi, got [{theta_min}, {theta_max}]"
        )
    if alpha is None:
        alpha = 1.0 / math.sqrt(n)
    pairs = (n - 2) // 2
    rng = np.random.default_rng(seed)
    rng = np.random.default_rng(rng.integers(2**63))  # phase stream decoupled
    drawn = rng.uniform(theta_min, theta_max, size=pairs)
    w_sub, unit = _paired_draws(n, seed, alpha)
    if b_target is not None:
        drawn = _rescale_for_b_target(drawn, _pair_weights(unit, alpha), b_target)
    return _paired_spectrum(alpha, w_sub, unit, drawn, lone_phase=np.pi)


def _rescale_for_b_target(
    drawn: np.ndarray, pair_weights: np.ndarray, b_target: float
) -> np.ndarray:
    """One common scale factor sending the pair phases onto a requested b.

    ``pair_weights`` are the closed-form weights of ``_pair_weights``, so no
    spectrum is built to find the scale.
    """
    if not np.isfinite(b_target) or b_target <= 0.0:
        raise ValueError(f"b_target must be positive and finite, got {b_target}")

    def b_squared(scale: float) -> float:
        return float(np.sum(pair_weights / np.sin(0.5 * scale * drawn) ** 2))

    hi = np.pi / float(np.max(drawn))
    target2 = b_target**2
    if b_squared(hi) >= target2:
        raise ValueError(
            f"b_target {b_target} is below the floor {math.sqrt(b_squared(hi)):.6g} "
            "reachable by stretching these phases"
        )
    lo = hi
    for _ in range(200):
        lo *= 0.5
        if b_squared(lo) >= target2:
            break
    else:  # pragma: no cover - 2**-200 scale never insufficient
        raise ValueError(f"could not bracket b_target {b_target}")
    # b^2(scale) falls strictly on (0, hi]: bisect until lo and hi are
    # adjacent floats, then keep the end with the smaller residual
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if b_squared(mid) >= target2:
            lo = mid
        else:
            hi = mid
    scale = min((lo, hi), key=lambda c: abs(b_squared(c) - target2))
    return drawn * scale


def resonant_spectrum(
    n: int, m: int, epsilon: float, seed: int, alpha: float | None = None
) -> EigenSpectrum:
    """Spectrum whose phases cluster just off the 2*pi/2**m resonance.

    Powering the diffusion operator by r = 2**m drives every pair phase to
    within r*epsilon of a full turn, so the naively powered b factor blows
    up like 1/epsilon while the r = 1 value stays moderate.  Detunings are
    spread over [0.1, 1.0]*epsilon so the blow-up ratio scales cleanly.
    As with ``symmetric_spectrum``, the target row is closed form and the
    eigenbasis is built on the first read of ``vectors``.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if alpha is None:
        alpha = 1.0 / math.sqrt(n)
    base = 2.0 * np.pi / 2**m
    pairs = (n - 2) // 2
    detunings = epsilon * np.linspace(0.1, 1.0, pairs)
    pair_phases = np.abs(wrap_phase(base + detunings))
    lone = float(np.abs(wrap_phase(base + epsilon)))
    w_sub, unit = _paired_draws(n, seed, alpha)
    return _paired_spectrum(alpha, w_sub, unit, pair_phases, lone_phase=lone)


def scaling_family(log2n: int, seed: int) -> EigenSpectrum:
    """Symmetric spectrum tuned so b grows like sqrt(ln N) with dimension.

    Built by ``symmetric_spectrum``, so its eigenbasis is built lazily too.
    """
    if not 6 <= log2n <= 12:
        raise ValueError(f"log2n must lie in [6, 12], got {log2n}")
    n = 2**log2n
    b_target = SCALING_COEFF * math.sqrt(math.log(n))
    return symmetric_spectrum(n, seed, 0.5, 1.5, b_target=b_target)

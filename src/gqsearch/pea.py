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
one coordinate, and the boosted diffusion is a plain search instance on
at most K + 1 entries for K main entries (``boosted_instance``).  b', the
boosted first moment and the boosted run (O(K) per step, whatever m is)
all read it.
The ancilla registers, dense stages and dense joint matrix that check
it at small scale live in ``dense``; ``dense_boosted_matrix`` and
``dense_b_prime_check`` here load that module only when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import round_half_up
from .search import RunReport, _iterate, reflect_target
from .spectra import EigenSpectrum, SearchInstance, SpectrumValidationError
from .spectra import _check_ancilla_count, _power, _resonant


@dataclass(frozen=True)
class BPrimeBreakdown:
    """Split of the boosted b factor into bad-branch and powered parts."""

    sigma1: float
    sigma2: float
    b_prime: float


def pea_amplitude(theta, m: int, k: int):
    """Magnitude of the ancilla-k amplitude after estimating phase theta.

    Evaluates |sin(x) / (2^m sin(x / 2^m))| at x = pi*k - 2^(m-1)*theta,
    with the removable singularity at x = 0 taken as its limit 1.  Accepts
    a scalar or an array of phases in (-pi, pi].  A phase outside that
    range, NaN included, raises ``SpectrumValidationError``, a numerical
    failure (exit 2 from the command line); an m that breaks
    ``_check_ancilla_count`` raises a plain ``ValueError``.
    """
    _check_ancilla_count(m)
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all((theta > -np.pi) & (theta <= np.pi)):  # NaN fails too
        raise SpectrumValidationError("theta must lie in (-pi, pi]")
    x = np.pi * k - 2.0 ** (m - 1) * theta
    denominator = 2**m * np.sin(x / 2**m)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(np.sin(x) / denominator)
    result = np.where(denominator == 0.0, 1.0, ratio)
    return float(result) if result.ndim == 0 else result


def boosted_instance(inst: SearchInstance, m: int) -> SearchInstance:
    """The boosted diffusion on m ancilla qubits as a plain search instance.

    ``_boosted_measure`` in the joint space, of dimension 2^m N.
    """
    return SearchInstance(*_boosted_measure(inst, m), n=2**m * inst.dimension)


def _boosted_measure(inst: SearchInstance, m: int):
    """Phases and target weights of the boosted diffusion, before any merge.

    Main entry l becomes the probe p_l (x) v_l, with phase 2^m theta_l
    powered by ``spectra._power`` and target weight s_l w_l, where
    s_l = pea_amplitude(theta_l, m, 0)^2 is the survival of phase
    estimation; the source stays entry 0 (s_0 = 1).
    The last entry is the unit part of the joint target inside the phase-pi
    eigenspace, with weight sigma1 = sum_l w_l (1 - s_l): the joint source
    has no weight there and the oracle only ever adds the joint target, so
    one coordinate holds that whole eigenspace.  An entry that 2^m drives
    onto a multiple of 2 pi (``spectra._resonant``, the test
    ``naive_power_b`` raises on) gets s_l = 0: its weight joins sigma1, and
    it is left out, its powered phase being 0 to rounding.  Every other
    entry keeps a weight > 0.  The power is odd, so a conjugate spectrum
    boosts to the exact conjugate.
    """
    survival = pea_amplitude(inst.phases, m, 0) ** 2  # checks m before 2**m
    powered = _power(inst.phases, 2**m)
    kept = ~_resonant(powered, 2**m)
    kept[0] = True  # the source, phase 0 and s_0 = 1
    survival[~kept] = 0.0
    sigma1 = float(np.sum(inst.weights * (1.0 - survival)))
    weights = np.append((inst.weights * survival)[kept], sigma1)
    return np.append(powered[kept], np.pi), weights


# The oracle flips |ancilla 0, target>.  On the boosted spectrum that is the
# plain reflection about sqrt of the boosted weights, in place; one query.
# ``boosted_search_run`` looks this name up per run and makes one call per step.
controlled_oracle = reflect_target


def b_prime(inst: SearchInstance, m: int) -> BPrimeBreakdown:
    """b factor of the boosted diffusion, split into its two parts.

    b' is the ``b_factor`` of ``boosted_instance``.  sigma1 is the last
    weight of ``_boosted_measure``, read before a powered phase on pi merges
    with it: the target weight stranded on the flipped (-1) branch; it
    never exceeds 1.  sigma2 = b'^2 - sigma1 is the powered branch's sum,
    which away from resonance equals b^2 / 4^m: the estimation amplitude's
    numerator cancels the powered phase's sine.  A resonant entry adds to
    sigma1 and nothing to sigma2.
    """
    phases, weights = _boosted_measure(inst, m)
    boost, sigma1 = SearchInstance(phases, weights).b_factor, float(weights[-1])
    return BPrimeBreakdown(sigma1=sigma1, sigma2=boost**2 - sigma1, b_prime=boost)


def boosted_lambda1(inst: SearchInstance, m: int) -> float:
    """First cotangent moment of the boosted diffusion at the joint target.

    The ``lambda1`` of ``boosted_instance``.  The flipped branch sits at
    phase pi where the cotangent is 0, and resonant entries drop out, so
    only the surviving powered entries contribute.  Exact +/- phase pairs
    with matched weights make this vanish to rounding.
    """
    return boosted_instance(inst, m).lambda1


def default_ancilla_count(b_factor: float) -> int:
    """max(1, round(log2 b)); any b a spectrum holds is below 1/(2 pi eps): m <= 49."""
    if b_factor <= 0.0:
        raise ValueError(f"b_factor must be positive, got {b_factor}")
    return max(1, round_half_up(math.log2(b_factor)))


def boosted_search_run(
    inst: SearchInstance, m: int, q_max: int | None = None
) -> RunReport:
    """Iterate controlled oracle + boosted diffusion on m ancilla qubits.

    ``_iterate`` on ``boosted_instance``, at most K + 1 entries for K main
    entries whatever m is; it sets the default ``q_max`` (from b' and the
    boosted first moment) and the stepping rules.  Entry q of ``target_probability`` is
    the joint target probability |<ancilla 0, target | state>|^2 after q
    oracle queries; ``ds_per_step`` is 3 * 2^m - 2.

    Raises
    ------
    NormDriftError
        If |<C|C> - 1| exceeds ``search.NORM_DRIFT_LIMIT``, or is NaN, at
        any step.
    """
    boosted = boosted_instance(inst, m)
    # ledger: 2^m - 1 for the controlled power ladder, 2^m for the
    # conditional block power, 2^m - 1 for undoing the estimation
    return _iterate(boosted, q_max, 3 * 2**m - 2, oracle=controlled_oracle)


def dense_boosted_matrix(spec: EigenSpectrum, m: int) -> np.ndarray:
    """The dense boosted diffusion; ``dense.dense_boosted_matrix``, loaded on call."""
    from . import dense

    return dense.dense_boosted_matrix(spec, m)


def dense_b_prime_check(inst: SearchInstance, m: int) -> float:
    """b' from the dense joint matrix; ``dense.dense_b_prime_check``, loaded on call."""
    from . import dense

    return dense.dense_b_prime_check(inst, m)

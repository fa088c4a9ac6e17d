"""Search iteration driven by an arbitrary diffusion operator.

One iteration flips the sign of the target amplitude and then applies the
diffusion operator.  Starting from the diffusion fixed point, the dynamics
live almost entirely in a two dimensional rotating subspace whose rotation
rate, and therefore the peak iteration count and peak success probability,
follow from the cotangent moments cached on the instance through
``peak_law``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import NumericalFailure, bisect_root, round_half_up
from .spectra import SearchInstance


# largest |<state|state> - 1| a run tolerates; eigen-coordinate steps drift
# by roughly 1e-15 each, so this allows about a million steps
NORM_DRIFT_LIMIT = 1e-9


class RelevantPairError(RuntimeError, NumericalFailure):
    """Could not isolate the two eigenvectors carrying the source."""


class NormDriftError(RuntimeError, NumericalFailure):
    """Rounding drift pushed the state norm past NORM_DRIFT_LIMIT."""


@dataclass(frozen=True)
class PredictedSpectrum:
    """Closed-form prediction for the rotating pair of the search operator.

    ``lambda_plus``/``lambda_minus`` are the predicted eigenphases of the
    two eigenvectors overlapping the source, ``eta`` the mixing angle,
    ``q_m`` the iteration count maximizing target probability, and
    ``peak_overlap`` the predicted peak target amplitude magnitude.
    """

    lambda_plus: float
    lambda_minus: float
    eta: float
    q_m: int
    peak_overlap: float


@dataclass(frozen=True)
class IterationRecord:
    q: int
    target_probability: float
    source_overlap: float
    oracle_queries: int
    ds_applications: int


@dataclass(frozen=True, eq=False)
class RunReport:
    """A run as two columns indexed by the iteration count q = 0..q_max.

    ``target_probability[q]`` is |<target|state>|^2 and ``source_overlap[q]``
    is |<source|state>| after q iterations; both are read-only float arrays.
    The ledger is arithmetic on q: q oracle queries and q * ``ds_per_step``
    diffusion applications.  ``peak_q`` maximises the target probability
    over q >= 1 (it is 0 only when q_max = 0), and ``max_norm_drift`` is the
    largest |<state|state> - 1| seen at any step.  ``instance`` is the
    instance the run stepped: the boosted one for a boosted run.
    """

    target_probability: np.ndarray
    source_overlap: np.ndarray
    ds_per_step: int
    peak_q: int
    peak_probability: float
    instance: SearchInstance
    max_norm_drift: float = 0.0

    @cached_property
    def records(self) -> tuple[IterationRecord, ...]:
        """The columns as one ``IterationRecord`` per q, built on first use."""
        rows = zip(self.target_probability.tolist(), self.source_overlap.tolist())
        return tuple(
            IterationRecord(q, p, s, q, q * self.ds_per_step)
            for q, (p, s) in enumerate(rows)
        )


def predict_spectrum(inst: SearchInstance) -> PredictedSpectrum:
    """Rotating-pair eigenphases, mixing angle, and peak location.

    The two phases are +/-(2 alpha / b) scaled by tan(eta)^{+/-1}, where
    cot(2 eta) is the first moment over 2*alpha*b.  A vanishing first
    moment gives eta = pi/4 and the symmetric pair exactly.  ``q_m`` and
    ``peak_overlap`` come from ``peak_law``.
    """
    alpha = inst.alpha
    b = inst.b_factor
    rate = 2.0 * alpha / b
    skew = inst.lambda1 / (2.0 * alpha * b)
    if abs(skew) < 1e-12:
        eta = 0.25 * np.pi
        lam_plus, lam_minus = rate, -rate
    else:
        eta = 0.5 * math.atan2(1.0, skew)  # arccot on (0, pi)
        tan_eta = math.tan(eta)
        lam_plus = rate * tan_eta
        lam_minus = -rate / tan_eta
    q_m, probability = peak_law(b, alpha, inst.lambda1)
    return PredictedSpectrum(
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        eta=eta,
        q_m=q_m,
        peak_overlap=math.sqrt(probability),
    )


def peak_law(b_factor: float, alpha: float, lambda1: float) -> tuple[int, float]:
    """The first probability crest (q, p) predicted from the rotating pair.

    With skew = lambda1 / (2 alpha b) = cot(2 eta), sin^2(2 eta) is
    1 / (1 + skew^2).  The pair's phases differ by 4 alpha / (b sin(2 eta)),
    so the crest sits at q = pi b sin(2 eta) / (4 alpha), rounded half up
    after subtracting 1/2 and never below 1, with target probability
    p = sin^2(2 eta) / b^2.  Serves the plain prediction (b and lambda1 of
    the main space) and the boosted one (b' and the boosted lambda1).
    """
    skew = lambda1 / (2.0 * alpha * b_factor)
    sin2 = 1.0 / (1.0 + skew * skew)
    crest = np.pi * b_factor * math.sqrt(sin2) / (4.0 * alpha)
    q = max(1, round_half_up(crest - 0.5))
    return q, sin2 / b_factor**2


def run_iterations(inst: SearchInstance, q_max: int | None = None) -> RunReport:
    """Iterate the search operator from the source, recording every step.

    ``_iterate`` on ``inst`` at one diffusion application per step; it sets
    the default ``q_max`` and the stepping rules.

    Raises
    ------
    NormDriftError
        If |<c|c> - 1| exceeds NORM_DRIFT_LIMIT, or is NaN, at any step.
    """
    return _iterate(inst, q_max, 1)


def reflect_target(coeff, amplitude, target_conj) -> None:
    """The oracle in eigen-coordinates, in place: c <- c - 2 (t . c) conj(t).

    ``amplitude`` is t . c, which the caller already holds.
    """
    coeff -= 2.0 * amplitude * target_conj


def _iterate(
    inst: SearchInstance, q_max, ds_per_step, oracle=reflect_target
) -> RunReport:
    """Run the search on ``inst`` from its source, recording every step.

    Entry q of the report's columns holds the exact target probability and
    source overlap magnitude after q iterations; q = 0 is the initial state.
    The peak fields ignore q = 0.  ``q_max`` None means twice the
    ``peak_law`` iteration of the instance's b and lambda1, so the scan
    covers the first crest with margin but stops before later crests that
    leakage can push marginally higher.  A default past NORM_DRIFT_LIMIT / eps
    steps, where one rounding unit of drift per step reaches the limit,
    raises ``ValueError`` before anything is allocated.

    The state is kept as eigen-coordinates c = V^dag psi, one per phase,
    from the source's c = e_0.  Each step calls ``oracle(c, t . c, t)``
    once, with t = sqrt(weights) as complex128, real and so its own
    conjugate (by default the rank-1 reflection c - 2 (t . c) conj(t), in
    place), then multiplies by e^{i theta}.  A phase of exactly pi steps by
    exactly -1, where exp(1j * pi) carries 1.2e-16j, so a conjugate
    spectrum runs as the exact conjugate.  A step costs O(K) for K entries
    and ``ds_per_step`` diffusion applications in the ledger.
    The source amplitude c[0] of each step is kept as a complex column
    whose magnitude is taken once at the end, and the target probability
    is |t . c|^2 of each step's scalar amplitude.
    """
    if q_max is None:
        q_max = 2 * peak_law(inst.b_factor, inst.alpha, inst.lambda1)[0]
        if q_max > NORM_DRIFT_LIMIT / np.finfo(np.float64).eps:
            raise ValueError(
                f"default budget q_max = {q_max:.3g} is past the norm drift ceiling; "
                "set q_max, or try boosted-search for a plain run at large b"
            )
    if q_max < 0:
        raise ValueError(f"q_max must be nonnegative, got {q_max}")
    phases = inst.phases
    eigenphase = np.where(phases == np.pi, -1.0, np.exp(1j * phases))
    target = np.sqrt(inst.weights).astype(np.complex128)
    project, multiply, vdot = target.dot, np.multiply, np.vdot
    limit = NORM_DRIFT_LIMIT
    coeff = np.zeros(eigenphase.shape[0], dtype=np.complex128)
    coeff[0] = 1.0
    probability = np.empty(q_max + 1)
    source = np.empty(q_max + 1, dtype=np.complex128)
    amplitude = project(coeff)  # <target|psi>, reused by the next flip
    worst = 0.0
    for q in range(q_max + 1):
        if q:
            oracle(coeff, amplitude, target)
            multiply(coeff, eigenphase, out=coeff)
            amplitude = project(coeff)
        probability[q] = abs(amplitude) ** 2
        source[q] = coeff[0]
        drift = abs(float(vdot(coeff, coeff).real) - 1.0)
        if not drift <= limit:  # a NaN drift fails this too
            raise NormDriftError(
                f"state norm drifted by {drift:.3e} after {q} iterations, "
                f"beyond the limit {limit:.0e}"
            )
        if drift > worst:
            worst = drift
    overlap = np.abs(source)
    peak_q = 1 + int(np.argmax(probability[1:])) if q_max else 0
    probability.flags.writeable = False
    overlap.flags.writeable = False
    return RunReport(
        target_probability=probability,
        source_overlap=overlap,
        ds_per_step=ds_per_step,
        peak_q=peak_q,
        peak_probability=float(probability[peak_q]),
        instance=inst,
        max_norm_drift=worst,
    )


def verify_relevant_pair(inst: SearchInstance) -> tuple[float, float, float]:
    """Solve the rotating pair from the secular equation, in O(N).

    Returns (phase_plus, phase_minus, residual) where the phases belong to
    the two eigenvectors with the largest squared source overlap and the
    residual is the source weight leaking outside that pair.

    In eigen-coordinates the search step is e^{i theta} (1 - 2 t t^T), a
    rank-1 change of a diagonal unitary, with t = sqrt(w) read from the
    target weights w, one entry per distinct phase.  Its eigenphases lambda
    solve

        f(lambda) = sum_l w_l cot((lambda - theta_l) / 2) = 0,

    and the eigenvector of a root has entries of modulus proportional to
    sqrt(w_l) / |sin((lambda - theta_l) / 2)|.  Every entry is weighted
    (``spectra.EigenSpectrum``), and the source, entry 0, has weight
    alpha^2 > 0.  f falls strictly from +inf to -inf between neighbouring
    poles, so the pair is the root in (0, theta_+) and the root in
    (theta_-, 0), where theta_+ and theta_- are the nearest phases above
    and below the source's 0, taken around the circle (theta_+ = pi and
    theta_- = -pi for Grover).  A bracket reaches past pi only when no
    phase lies on its side, and then f(pi) = sum_l w_l tan(theta_l / 2)
    has the sign that keeps the root inside (-pi, pi).
    ``linalg.bisect_root`` finds each root between its poles.  The source
    overlap of a root is

        (alpha^2 / sin^2(lambda / 2)) / sum_l w_l / sin^2((lambda - theta_l) / 2).

    Every other eigenvector overlaps the source by at most the residual
    max(0, 1 - o_+ - o_-), so the pair holds the two largest overlaps
    whenever the residual is below min(o_+, o_-).

    Raises
    ------
    RelevantPairError
        If the smaller pair overlap is at most 0.01, or if the residual
        does not fall below it, so that another eigenvector might outweigh
        the pair.
    """
    theta, weights = inst.phases, inst.weights
    above, below = theta[theta > 0.0], theta[theta < 0.0]
    top = float(np.min(above)) if above.size else float(np.min(below)) + 2 * np.pi
    bottom = float(np.max(below)) if below.size else float(np.max(above)) - 2 * np.pi

    def secular(lam: float) -> float:
        return float(np.sum(weights / np.tan(0.5 * (lam - theta))))

    roots = (bisect_root(secular, 0.0, top), bisect_root(secular, bottom, 0.0))
    overlaps = []
    for root in roots:
        terms = weights / np.sin(0.5 * (root - theta)) ** 2
        overlaps.append(float(terms[0] / np.sum(terms)))
    # a weight, so never below 0: on Grover at N = 64 rounding gives -4.4e-16
    residual = max(0.0, 1.0 - overlaps[0] - overlaps[1])
    if min(overlaps) <= 0.01:
        raise RelevantPairError(
            "source concentrates on fewer than two eigenvectors: "
            f"second overlap {min(overlaps):.3e} is below 0.01"
        )
    if residual >= min(overlaps):
        raise RelevantPairError(
            f"source weight {residual:.3e} outside the pair is not below its "
            f"smaller overlap {min(overlaps):.3e}"
        )
    return roots[0], roots[1], residual

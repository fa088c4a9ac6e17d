"""Search iteration driven by an arbitrary diffusion operator.

One iteration flips the sign of the target amplitude and then applies the
diffusion operator.  Starting from the diffusion fixed point, the dynamics
live almost entirely in a two dimensional rotating subspace whose rotation
rate, and therefore the peak iteration count and peak success probability,
follow from the cotangent moments cached on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import round_half_up
from .spectra import SearchInstance, build_diffusion


# largest |<state|state> - 1| a run tolerates; eigen-coordinate steps drift
# by roughly 1e-15 each, so this allows about a million steps
NORM_DRIFT_LIMIT = 1e-9


class RelevantPairError(RuntimeError):
    """Could not isolate the two eigenvectors carrying the source."""


class NormDriftError(RuntimeError):
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


@dataclass(frozen=True)
class RunReport:
    """Trace of an instrumented run plus its peak summary.

    ``max_norm_drift`` is the largest |<state|state> - 1| seen at any record.
    """

    records: tuple[IterationRecord, ...]
    peak_q: int
    peak_probability: float
    max_norm_drift: float = 0.0


def search_operator(inst: SearchInstance) -> np.ndarray:
    """Dense search operator: target sign flip followed by diffusion."""
    matrix = build_diffusion(inst.spectrum)
    matrix[:, 0] = -matrix[:, 0]
    return matrix


def predict_spectrum(inst: SearchInstance) -> PredictedSpectrum:
    """Rotating-pair eigenphases, mixing angle, and peak location.

    The two phases are +/-(2 alpha / b) scaled by tan(eta)^{+/-1}, where
    cot(2 eta) is the first moment over 2*alpha*b.  A vanishing first
    moment gives eta = pi/4 and the symmetric pair exactly.
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
    q_m = peak_iteration(b, alpha)
    return PredictedSpectrum(
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        eta=eta,
        q_m=q_m,
        peak_overlap=1.0 / b,
    )


def peak_iteration(b_factor: float, alpha: float) -> int:
    """Iteration count of the first probability crest, pi b / (4 alpha).

    Rounded half up after subtracting 1/2, and never below 1.  Serves the
    plain prediction (the main-space b) and the boosted one (b').
    """
    return max(1, round_half_up(np.pi * b_factor / (4.0 * alpha) - 0.5))


def run_iterations(inst: SearchInstance, q_max: int) -> RunReport:
    """Iterate the search operator from the source, recording every step.

    Row q holds the exact target probability and source overlap magnitude
    after q iterations; q = 0 is the initial state.  The peak fields ignore
    the q = 0 row.  The state is kept as diffusion eigen-coordinates
    c = V^dag psi, starting from the source's c = e_0: the target flip is
    the rank-1 reflection c - 2 (t . c) conj(t) with t the target row of V,
    and the diffusion multiplies by e^{i theta}.  Each step and each record
    costs O(N), and the eigenbasis V itself is never built.

    Raises
    ------
    NormDriftError
        If |<c|c> - 1| exceeds NORM_DRIFT_LIMIT at any record.
    """
    spectrum = inst.spectrum
    return _iterate(
        np.exp(1j * spectrum.phases), spectrum.target_row, q_max, ds_per_step=1
    )


def reflect_target(coeff, amplitude, target_conj) -> None:
    """The oracle in eigen-coordinates, in place: c <- c - 2 (t . c) conj(t).

    ``amplitude`` is t . c, which the caller already holds.
    """
    coeff -= 2.0 * amplitude * target_conj


def _iterate(
    eigenphase, target_row, q_max, ds_per_step, oracle=reflect_target
) -> RunReport:
    """Reflect about ``target_row``, then multiply by ``eigenphase``, q_max times.

    Starts from e_0, the source, and records every step.  ``oracle`` is called
    exactly once per step; each step costs ``ds_per_step`` diffusion
    applications in the ledger.
    """
    if q_max < 0:
        raise ValueError(f"q_max must be nonnegative, got {q_max}")
    target_conj = target_row.conj()
    coeff = np.zeros(eigenphase.shape[0], dtype=np.complex128)
    coeff[0] = 1.0
    amplitude = target_row @ coeff  # <target|psi>, reused by the next flip
    records = [_record(0, amplitude, coeff[0], ds_per_step)]
    drift = _checked_drift(0, coeff, 0.0)
    for q in range(1, q_max + 1):
        oracle(coeff, amplitude, target_conj)
        coeff *= eigenphase
        amplitude = target_row @ coeff
        records.append(_record(q, amplitude, coeff[0], ds_per_step))
        drift = _checked_drift(q, coeff, drift)
    return _report(records, drift)


def _record(q, amplitude, source_coeff, ds_per_step):
    """Row q from the target amplitude and the source coordinate."""
    return IterationRecord(
        q=q,
        target_probability=float(np.abs(amplitude) ** 2),
        source_overlap=float(np.abs(source_coeff)),
        oracle_queries=q,
        ds_applications=q * ds_per_step,
    )


def _checked_drift(q, coeff, worst) -> float:
    """Fold |<coeff|coeff> - 1| into ``worst``; raise past the limit."""
    drift = abs(float(np.vdot(coeff, coeff).real) - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise NormDriftError(
            f"state norm drifted by {drift:.3e} after {q} iterations, "
            f"beyond the limit {NORM_DRIFT_LIMIT:.0e}"
        )
    return max(worst, drift)


def _report(records, drift) -> RunReport:
    peak_q, peak_probability = _peak_of(records)
    return RunReport(
        records=tuple(records),
        peak_q=peak_q,
        peak_probability=peak_probability,
        max_norm_drift=drift,
    )


def _peak_of(records) -> tuple[int, float]:
    if len(records) == 1:
        return records[0].q, records[0].target_probability
    probs = np.array([rec.target_probability for rec in records[1:]])
    best = int(np.argmax(probs))
    return records[1 + best].q, float(probs[best])


def verify_relevant_pair(inst: SearchInstance) -> tuple[float, float, float]:
    """Solve the rotating pair from the secular equation, in O(N).

    Returns (phase_plus, phase_minus, residual) where the phases belong to
    the two eigenvectors with the largest squared source overlap and the
    residual is the source weight leaking outside that pair.

    In eigen-coordinates the search step is e^{i theta} (1 - 2 conj(t) t^T),
    a rank-1 change of a diagonal unitary, with t the target row.  With
    weights w_l = |t_l|^2 its eigenphases lambda solve

        f(lambda) = sum_l w_l cot((lambda - theta_l) / 2) = 0,

    and the eigenvector of a root has entries of modulus proportional to
    |t_l| / |sin((lambda - theta_l) / 2)|.  Zero-weight entries are
    eigenvectors on their own, away from the source, and are dropped; the
    source, entry 0, keeps its weight alpha^2 > 0 and its place.  f
    falls strictly from +inf to -inf between neighbouring poles, so the
    pair is the root in (0, theta_+) and the root in (theta_-, 0), where
    theta_+ and theta_- are the nearest weighted phases above and below the
    source's 0, taken around the circle (theta_+ = pi and theta_- = -pi for
    Grover).  A bracket reaches past pi only when no weighted phase lies on
    its side, and then f(pi) = sum_l w_l tan(theta_l / 2) has the sign that
    keeps the root inside (-pi, pi).  Each root is bisected until its
    bracket ends are adjacent floats.  The source overlap of a root is

        (alpha^2 / sin^2(lambda / 2)) / sum_l w_l / sin^2((lambda - theta_l) / 2).

    Every other eigenvector overlaps the source by at most the residual
    1 - o_+ - o_-, so the pair holds the two largest overlaps whenever
    the residual is below min(o_+, o_-).

    Raises
    ------
    RelevantPairError
        If the smaller pair overlap is at most 0.01, or if the residual
        does not fall below it, so that another eigenvector might outweigh
        the pair.
    """
    spectrum = inst.spectrum
    weights = np.abs(spectrum.target_row) ** 2
    kept = weights > 0.0
    theta, weights = spectrum.phases[kept], weights[kept]
    above, below = theta[theta > 0.0], theta[theta < 0.0]
    top = float(np.min(above)) if above.size else float(np.min(below)) + 2 * np.pi
    bottom = float(np.max(below)) if below.size else float(np.max(above)) - 2 * np.pi
    roots = (
        _secular_root(theta, weights, 0.0, top),
        _secular_root(theta, weights, bottom, 0.0),
    )
    overlaps = []
    for root in roots:
        terms = weights / np.sin(0.5 * (root - theta)) ** 2
        overlaps.append(float(terms[0] / np.sum(terms)))
    residual = 1.0 - overlaps[0] - overlaps[1]
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


def _secular_root(theta, weights, lo, hi) -> float:
    """The root of sum_l w_l cot((lambda - theta_l) / 2) between two poles.

    f falls strictly on (lo, hi); bisect until lo and hi are adjacent
    floats, then keep the end with the smaller |f|.  Only midpoints are
    evaluated, never the poles themselves.
    """
    f_lo, f_hi = math.inf, -math.inf
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = float(np.sum(weights / np.tan(0.5 * (mid - theta))))
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if f_lo < -f_hi else hi


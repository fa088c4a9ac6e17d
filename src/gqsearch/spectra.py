"""Diffusion spectra and search instances.

A diffusion operator is specified by its eigendecomposition: column 0 is
the source, with phase exactly zero, and the remaining eigenvectors have
phases bounded away from zero.  The target is computational basis state 0;
both are only labels, so this convention loses nothing.  The search sees
the operator only through its spectral measure at the target, the distinct
eigenphases and the target's weight on each (Chakraborty, Novo & Roland,
PRA 102, 032214 (2020)), so a spectrum is those two arrays and the
dimension N.  Every generator gives the weights in closed form, in O(N);
a dense check completes a basis from them (``dense.eigenbasis``).
"""

from __future__ import annotations

import copy
import functools
import math
import operator
import threading

import numpy as np
import numpy.random  # NumPy 2 loads it lazily; every generator draws from it

from .linalg import NumericalFailure, bisect_root, wrap_phase

ROW_NORM_ATOL = 1e-10

# scaling_family targets b = SCALING_COEFF * sqrt(ln N)
SCALING_COEFF = 2.0


class SpectrumValidationError(ValueError, NumericalFailure):
    """The eigenspectrum violates a structural invariant."""


class ResonanceError(ValueError, NumericalFailure):
    """A weighted powered phase lands on a multiple of 2*pi, to rounding."""


class EigenSpectrum:
    """The spectral measure at the target of a diffusion operator.

    ``phases`` holds K distinct eigenphases in (-pi, pi]: the source's, in
    entry 0, is exactly 0 and no other is.  ``weights`` holds the target's
    weight on each phase's eigenspace: finite, nonnegative, summing to 1.
    ``dimension`` is N, the report's ``n``: the Python int ``n``, at least
    the entry count given and by default that count.  A measure has no
    atom of weight 0, so every nonsource entry of weight exactly 0 is
    dropped: each kept entry has weight > 0, and the weighted entries keep
    their order and bits.  Then exactly equal phases become one entry,
    their weights summed in entry order, in the order each phase first
    occurs; a spectrum with no repeated phase keeps its weighted entries
    bit for bit.  Any unitary with these eigenphases whose row 0 has these
    weights realizes the spectrum, so no basis is kept.  Both arrays are
    read-only copies.
    """

    def __init__(self, phases, weights, *, n=None):
        phases = np.array(phases, dtype=np.float64)
        weights = np.array(weights, dtype=np.float64)
        self.dimension = _validate(phases, weights, n)
        weighted = weights > 0.0
        weighted[0] = True  # the source, kept whatever its weight
        phases, weights = phases[weighted], weights[weighted]
        ordered = np.sort(phases)  # a sort and a compare find a repeat
        if np.any(ordered[1:] == ordered[:-1]):
            phases, weights = _merge_equal_phases(phases, weights)
        phases.setflags(write=False)
        weights.setflags(write=False)
        self.phases, self.weights = phases, weights

    @property
    def theta_min(self) -> float:
        """Smallest weighted nonsource |phase|; the gap protecting the fixed point.

        Zero-weight entries are dropped on construction, so none is read.
        """
        return float(np.min(np.abs(self.phases[1:])))


def _validate(phases: np.ndarray, weights: np.ndarray, n) -> int:
    """Check the phases, the weights and ``n``; return the dimension."""
    # written so that a NaN phase, which fails every comparison, is rejected
    if not np.all((phases > -np.pi) & (phases <= np.pi)):
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
    count = phases.shape[0]
    if weights.shape != (count,):
        raise SpectrumValidationError(
            f"weights shape {weights.shape} does not match {count} phases"
        )
    # a NaN weight fails this test and an infinite one the sum
    if not np.all(weights >= 0.0):
        raise SpectrumValidationError("weights must be nonnegative")
    defect = abs(float(np.sum(weights)) - 1.0)
    if not defect <= ROW_NORM_ATOL:
        raise SpectrumValidationError(f"weights do not sum to 1: defect {defect:.3e}")
    n = count if n is None else operator.index(n)
    if n < count:
        raise SpectrumValidationError(
            f"dimension n = {n} is below the {count} entries given"
        )
    return n


def _merge_equal_phases(phases: np.ndarray, weights: np.ndarray):
    """One entry per phase, in first-occurrence order, weights added in order."""
    _, first, inverse = np.unique(phases, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # a phase's place by first occurrence
    merged = np.zeros(first.size)
    np.add.at(merged, rank[inverse], weights)  # one by one, in entry order
    return phases[np.sort(first)], merged


class SearchInstance(EigenSpectrum):
    """A diffusion spectrum with its target, basis state 0, and cached moments.

    Made from ``(phases, weights, n=...)``, or from a spectrum by ``build``.
    ``alpha`` = sqrt(weights[0]) is the source-target overlap magnitude;
    ``lambda1``/``lambda2`` are the first two cotangent moments of the
    nonsource phases weighted by target overlap; ``b_factor`` is the
    inverse-sine-weighted norm.  With ``lambda1`` it sets the peak success
    probability and the iteration count of the search, through
    ``search.peak_law``.
    """

    def __init__(self, phases, weights, *, n=None):
        super().__init__(phases, weights, n=n)
        alpha = math.sqrt(self.weights[0])
        if not 0.0 < alpha < 1.0:
            raise ValueError(
                f"source-target overlap must lie in (0, 1), alpha^2 > 0, got {alpha}"
            )
        theta, weights = self.phases[1:], self.weights[1:]
        half = 0.5 * theta
        # cot(pi / 2) is exactly 0, where cos(pi / 2) / sin(pi / 2) gives 6.1e-17
        cot = np.where(theta == np.pi, 0.0, np.cos(half) / np.sin(half))
        lam1 = float(np.sum(weights * cot))
        lam2 = float(np.sum(weights * cot**2))
        b2 = _powered_b_squared(self, 1)
        # exact identity: b^2 = 1 + lambda2 - alpha^2 up to the weights' rounding
        expected = 1.0 + lam2 - alpha**2
        if not abs(b2 - expected) <= 1e-9 * max(1.0, abs(expected)):
            raise SpectrumValidationError(
                f"b_factor inconsistency: direct {b2:.12e} vs "
                f"moment identity {expected:.12e}"
            )
        self.alpha, self.lambda1, self.lambda2 = alpha, lam1, lam2
        self.b_factor = math.sqrt(b2)

    @classmethod
    def build(cls, spectrum: EigenSpectrum) -> "SearchInstance":
        """The instance on ``spectrum``'s phases, weights and dimension."""
        return cls(spectrum.phases, spectrum.weights, n=spectrum.dimension)


def _power(phases: np.ndarray, r: int) -> np.ndarray:
    """Phases of the r-th power: sign(theta) wrap(r |theta|), -pi read as pi.

    The one rule that powers and wraps a phase: wrap(r theta) to rounding.
    It is odd bit for bit, so a conjugate spectrum powers to the exact
    conjugate.
    """
    powered = np.sign(phases) * wrap_phase(r * np.abs(phases))
    powered[powered == -np.pi] = np.pi
    return powered


def _resonant(powered, r: int):
    """Where a phase powered by r (``_power``) is a multiple of 2 pi.

    |_power(theta, r)| within 4 r pi eps, the rounding of r theta and of the
    wrap, counts as one (wrap(16 pi) is -3.6e-15, not 0).
    """
    return np.abs(powered) <= 4.0 * r * np.pi * np.finfo(np.float64).eps


def _check_ancilla_count(m: int) -> None:
    """m >= 1 with ``_resonant``'s tolerance at r = 2^m below pi, so m <= 49."""
    # 2^-m > 4 eps, with 2^m never made a float: no int m can overflow
    if not (m >= 1 and math.ldexp(1.0, -int(m)) > 4.0 * np.finfo(np.float64).eps):
        raise ValueError(f"ancilla qubit count m must lie in [1, 49], got {m}")


def _powered_b_squared(spec: EigenSpectrum, r: int) -> float:
    """Squared b of the r-th power, summed over the nonsource entries.

    An entry that r drives onto a multiple of 2 pi (``_resonant``) raises
    ``ResonanceError`` naming r and the eigenvector.
    """
    theta, weights = spec.phases[1:], spec.weights[1:]
    resonant = _resonant(_power(theta, r), r)
    if np.any(resonant):
        offender = 1 + int(np.argmax(resonant))
        raise ResonanceError(
            f"power {r} drives eigenvector {offender} "
            f"(phase {float(spec.phases[offender])!r}) onto a multiple of 2*pi"
        )
    return float(np.sum(weights / np.sin(0.5 * r * theta) ** 2))


def naive_power_b(inst: SearchInstance, r: int) -> float:
    """b factor of the r-th power of the diffusion operator.

    Each nonsource phase is multiplied by r before the inverse-sine sum, so
    a phase near a multiple of 2*pi/r makes the result blow up.  A phase
    on one, to rounding, raises ResonanceError naming r and the
    eigenvector (``_powered_b_squared``).
    """
    if r < 1:
        raise ValueError(f"power must be a positive integer, got {r}")
    return math.sqrt(_powered_b_squared(inst, r))


def grover_spectrum(n: int, alpha: float | None = None) -> EigenSpectrum:
    """Spectrum of the familiar reflection about a source of overlap ``alpha``.

    The source keeps phase 0 and every orthogonal direction gets phase pi,
    which makes both cotangent moments vanish and b_factor = sqrt(1-alpha^2).
    Two entries, phases [0, pi] with weights [alpha^2, 1 - alpha^2], in
    dimension ``n``; ``alpha`` is read by ``_source_weight``.
    """
    source = _source_weight(alpha, n)
    return EigenSpectrum([0.0, np.pi], [source, 1.0 - source], n=n)


def _source_weight(alpha: float | None, n: int) -> float:
    """alpha^2, alpha by default 1/sqrt(n), the uniform source's overlap.

    alpha must lie in (0, 1), and its square must not round to 0.  An n
    past float range gives alpha^2 = 1 / n, which int true division rounds
    once.
    """
    if alpha is None:
        try:
            alpha = 1.0 / math.sqrt(n)
        except OverflowError:
            source = 1 / n
            if not source > 0.0:
                raise ValueError(
                    f"n of {n.bit_length()} bits rounds the default alpha^2 = 1/n to 0"
                ) from None
            return source
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not alpha**2 > 0.0:
        raise ValueError(
            f"source-target overlap must lie in (0, 1), alpha^2 > 0, got {alpha}"
        )
    return alpha**2


# normals per call when stepping the stream past the discarded block, through
# one buffer per sink (``_sink``); the timing is flat from 2**13 to 2**18
_SKIP_CHUNK = 2**14
# discarded normals from which a helper thread draws half of them: N >= 726.
# On a 2-core host (12 fresh processes each, median and quartiles) the split
# does not pay at N = 726, 8.3 ms (7.6-9.6) against 7.0 ms (6.7-7.5) on one
# thread, nor at N = 1024, 17.3 ms (15.2-18.2) against 15.4 ms (14.1-16.7);
# at N = 4096 it takes 155 ms (144-165) against 266 ms (250-277).  No core
# count is read: on one core the split costs 24.4 ms against 21.6 ms at
# N = 1024 and 360 ms against 350 ms at N = 4096
_SPLIT_MIN = 2**19
# NumPy's PCG64 steps a 128-bit LCG by this multiplier once per 64-bit word
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = 2**128 - 1
# (n, seed) draws kept per process; an entry holds n - 1 floats, 8 N bytes
_DRAWS_KEPT = 8


@functools.lru_cache(maxsize=_DRAWS_KEPT)
def _seeded_draws(n: int, seed: int) -> np.ndarray:
    """The random part of a paired spectrum's target weights: its profile.

    Returns ``unit``, the unit target profile: n - 2 pair entries, then one
    exactly zero entry that no spectrum reads.  Before it the
    stream skips (n-1)**2 normals, once used for a source direction and a
    basis completing it; skipping them keeps every profile, and so every
    target weight, at the value earlier versions generated.  They are drawn
    by NumPy's own sampler through a 2**14-entry buffer per thread, so no
    (n-1)x(n-1) block is held, and from ``_SPLIT_MIN`` of them (N = 726) on
    two threads (``_split_skip``), bit for bit the one-thread value.

    The draw is made once per ``(n, seed)`` per process and kept at 8 N
    bytes per entry, shared by every caller and read-only.  ``seed`` must
    be an integer (``_paired_weights`` checks it, and ``n``): a seed of None
    would draw fresh entropy that must not be kept.
    """
    rng = np.random.default_rng(seed)
    skipped = (n - 1) ** 2
    if skipped >= _SPLIT_MIN:
        _split_skip(rng, skipped)
    else:
        _draw_normals(_sink(rng), skipped)
    # the trailing zero changes no value, but the norm's bits hold only with it
    profile = np.concatenate([rng.uniform(0.5, 1.5, size=n - 2), [0.0]])
    unit = profile / np.linalg.norm(profile)
    unit.setflags(write=False)
    return unit


def _sink(rng: np.random.Generator):
    """``drop(k)``: k <= 2**14 normals from ``rng`` into a buffer made here."""
    buf = np.empty(_SKIP_CHUNK)
    return lambda k: rng.standard_normal(out=buf[:k])


def _draw_normals(drop, count: int) -> None:
    """Draw and drop ``count`` standard normals through the sink ``drop``."""
    for start in range(0, count, _SKIP_CHUNK):
        drop(min(count - start, _SKIP_CHUNK))


def _split_skip(rng: np.random.Generator, count: int) -> None:
    """Draw and drop ``count`` normals from ``rng``, half on a helper thread.

    ``PCG64.advance`` moves the stream by raw 64-bit words, and a ziggurat
    normal takes one word or more, so the first ``half`` normals end at a
    word W at least ``half`` words in.  The helper draws ``count - half``
    normals from exactly ``half`` words in while this thread draws the first
    half, which finds W.  A probe from the helper's start then counts the c
    helper normals that end exactly at W (``_normals_to``).  From W on the
    helper's normals are the true ones, so the true end is the helper's end
    plus c normals.  If W falls inside a helper normal, this thread draws
    the second half itself.  An exception on the helper is raised here.
    """
    half = count // 2
    helper = copy.deepcopy(rng.bit_generator)
    helper.advance(half)
    probe = copy.deepcopy(helper)
    # both buffers are made here: the helper's malloc arena would keep its own
    mine, theirs, outcome = _sink(rng), _sink(np.random.Generator(helper)), {}

    def work():
        try:
            _draw_normals(theirs, count - half)
        except BaseException as exc:  # raised again by the caller after the join
            outcome["error"] = exc

    thread = threading.Thread(target=work, name="gqsearch-skip")
    thread.start()
    try:
        _draw_normals(mine, half)
        behind = _normals_to(probe, rng.bit_generator.state)
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    if behind is None:
        _draw_normals(mine, count - half)
    else:
        rng.bit_generator.state = helper.state
        _draw_normals(mine, behind)


def _normals_to(bitgen: np.random.PCG64, target: dict) -> int | None:
    """Normals drawn from ``bitgen`` that end exactly at the state ``target``.

    A normal takes about 1.02 words on average, so a step of half the
    remaining words rarely passes ``target``; a step that does is undone and
    halved.  Returns None when ``target`` falls inside a normal; otherwise
    ``bitgen`` is left at ``target``.
    """
    drop = _sink(np.random.Generator(bitgen))
    drawn, gap = 0, _words_between(bitgen.state, target)
    step = gap // 2
    while gap:
        step = max(1, min(step, gap // 2))
        saved = bitgen.state
        _draw_normals(drop, step)
        left = _words_between(bitgen.state, target)
        if left < gap:  # short of target or on it; a pass wraps modulo 2**128
            drawn, gap = drawn + step, left
        elif step == 1:
            return None
        else:
            bitgen.state = saved
            step //= 2
    return drawn


def _words_between(start: dict, end: dict) -> int:
    """64-bit words a PCG64 stream takes from state ``start`` to ``end``.

    Inverts ``PCG64.advance`` modulo 2**128 bit by bit (Brown 1994, "Random
    Number Generation with Arbitrary Strides"): after i rounds ``mult`` and
    ``plus`` step the LCG by 2**i words at once.  The LCG has full period,
    so every state is reached and the loop ends within 128 rounds.
    """
    here, there = start["state"]["state"], end["state"]["state"]
    mult, plus = _PCG64_MULTIPLIER, start["state"]["inc"]
    words, bit = 0, 1
    while here != there:
        if (here ^ there) & bit:
            here = (here * mult + plus) & _MASK_128
            words |= bit
        plus = (mult + 1) * plus & _MASK_128
        mult = mult * mult & _MASK_128
        bit <<= 1
    return words


def _paired_weights(n: int, seed: int, alpha: float | None) -> np.ndarray:
    """The n - 1 target weights of a paired spectrum, in O(n): source alpha^2.

    The real profile ``beta * unit``, beta^2 = 1 - alpha^2, with ``unit``
    from ``_seeded_draws(n, seed)``, is laid out after it: profile entries
    2j and 2j+1, a and b, give pair j's members, entries 2j+1 and 2j+2, the
    weight |(a +/- ib)/sqrt(2)|^2 each.  Pair members share every bit, so
    the first cotangent moment cancels term by term, and a pair's weight is
    twice that of its first member, exactly.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"n must be even and at least 4, got {n}")
    source = _source_weight(alpha, n)
    # made before the draw, so an n too large to hold fails at once and not
    # after (n-1)**2 skipped normals; past NumPy's largest array its own
    # message names neither n nor what to lower
    try:
        weights = np.empty(n - 1)
    except ValueError:
        raise ValueError(
            f"n of {n.bit_length()} bits is past NumPy's largest array; lower n"
        ) from None
    profile = math.sqrt(1.0 - source) * _seeded_draws(n, operator.index(seed))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    a = profile[0 : n - 2 : 2] * inv_sqrt2
    b = profile[1 : n - 2 : 2] * inv_sqrt2
    weights[0] = source
    # the magnitude of a complex a + ib: np.hypot misses it in the last bit
    weights[1::2] = weights[2::2] = np.abs(a + 1j * b) ** 2
    return weights


def _paired_spectrum(
    weights: np.ndarray, pair_phases: np.ndarray, *, n: int
) -> EigenSpectrum:
    """A spectrum of dimension n with exact +/- phase pairs on ``_paired_weights``.

    Pair j's phases go to entries 2j+1 and 2j+2, whose target weights are
    equal bit for bit.  A pair phase of pi pairs with pi, as -pi lies
    outside (-pi, pi].
    """
    phases = np.empty(weights.shape[0])
    phases[0] = 0.0
    phases[1::2] = pair_phases
    phases[2::2] = np.where(pair_phases == np.pi, np.pi, -pair_phases)
    return EigenSpectrum(phases, weights, n=n)


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
    0 < theta_min <= theta_max < pi: the upper end stays open so every pair
    has two distinct phases.  If ``b_target`` is given, all pair phases are
    rescaled by one common factor so the assembled instance's b factor lands
    on the target.  A pair phase within rounding of 0, where build would
    raise ``ResonanceError``, is a ``ValueError`` naming ``b_target`` if one
    was given and ``theta_min`` otherwise.  ``alpha`` defaults to
    1/sqrt(n); the target is basis state 0.  Only the phases and the
    target profile are random (see ``_paired_weights``).
    """
    if not 0.0 < theta_min <= theta_max < np.pi:
        raise ValueError(
            f"need 0 < theta_min <= theta_max < pi, got [{theta_min}, {theta_max}]"
        )
    weights = _paired_weights(n, seed, alpha)
    pairs = 2.0 * weights[1::2]  # each pair's, exactly
    rng = np.random.default_rng(seed)
    rng = np.random.default_rng(rng.integers(2**63))  # phase stream decoupled
    drawn = rng.uniform(theta_min, theta_max, size=pairs.size)
    if b_target is not None:
        drawn = _rescale_for_b_target(drawn, pairs, b_target)
    # build's r = 1 resonance test (``_powered_b_squared``); ``_power`` is odd,
    # so the positive member of each pair settles both
    if np.any(_resonant(_power(drawn, 1), 1)):
        named = f"b_target {b_target}" if b_target else f"theta_min {theta_min}"
        raise ValueError(f"{named} puts a pair phase within rounding of 0")
    return _paired_spectrum(weights, drawn, n=n)


def _rescale_for_b_target(
    drawn: np.ndarray, pair_weights: np.ndarray, b_target: float
) -> np.ndarray:
    """One common scale factor sending the pair phases onto a requested b.

    ``pair_weights`` are the pair weights of the spectrum it goes into, so
    the scale solves on the sum build makes, and no spectrum is built to
    find it.
    """
    if not 0.0 < b_target <= math.sqrt(np.finfo(np.float64).max):
        raise ValueError(f"b_target must be positive, b^2 finite, got {b_target}")
    target2 = b_target**2

    def excess(scale: float) -> float:  # falls strictly on (0, pi / top]
        return float(np.sum(pair_weights / np.sin(0.5 * scale * drawn) ** 2)) - target2

    top = float(np.max(drawn))
    hi = np.pi / top
    f_hi = excess(hi)
    if f_hi >= 0.0:
        raise ValueError(
            f"b_target {b_target} is below the floor "
            f"{math.sqrt(f_hi + target2):.6g} reachable by stretching these phases"
        )
    lo = hi
    for _ in range(200):
        lo *= 0.5
        f_lo = excess(lo)
        if f_lo >= 0.0:
            break
    else:  # reached from about b = 1e60 up
        raise ValueError(f"could not bracket b_target {b_target}")
    scale = bisect_root(excess, lo, hi, f_lo, f_hi)
    # next to the floor the bisection can keep the bracket end pi / top, and
    # top * (pi / top) may round to pi: clamp to the largest scale keeping
    # every pair phase below pi, as ``symmetric_spectrum``'s theta_max < pi
    # does.  Any scale already in range is returned as it was.
    ceiling = np.pi / top
    while top * ceiling >= np.pi:
        ceiling = math.nextafter(ceiling, 0.0)
    return drawn * min(scale, ceiling)


def resonant_spectrum(
    n: int, m: int, epsilon: float, seed: int, alpha: float | None = None
) -> EigenSpectrum:
    """Spectrum whose phases cluster just off the 2*pi/2**m resonance.

    Powering the diffusion operator by r = 2**m (``_check_ancilla_count``)
    drives every pair phase to within r*epsilon of a full turn, so the
    naively powered b factor blows up like 1/epsilon while the r = 1 value
    stays moderate.  Detunings are spread over [0.1, 1.0]*epsilon so the
    blow-up ratio scales cleanly.  As with ``symmetric_spectrum``, the target
    weights are closed form, and the spectrum holds n - 1 entries.
    """
    _check_ancilla_count(m)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    weights = _paired_weights(n, seed, alpha)
    base = 2.0 * np.pi / 2**m
    detunings = epsilon * np.linspace(0.1, 1.0, (n - 2) // 2)
    pair_phases = np.abs(wrap_phase(base + detunings))
    return _paired_spectrum(weights, pair_phases, n=n)


def scaling_family(log2n: int, seed: int) -> EigenSpectrum:
    """Symmetric spectrum tuned so b grows like sqrt(ln N) with dimension."""
    if not 6 <= log2n <= 12:
        raise ValueError(f"log2n must lie in [6, 12], got {log2n}")
    n = 2**log2n
    b_target = SCALING_COEFF * math.sqrt(math.log(n))
    return symmetric_spectrum(n, seed, 0.5, 1.5, b_target=b_target)

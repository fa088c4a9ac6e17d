"""Spectrum construction, moment sums, generators, the dense eigenbasis."""

import functools
import math
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gqsearch.dense import build_diffusion, eigenbasis, search_operator
from gqsearch.linalg import DENSE_CAP, DenseCapError, wrap_phase
from gqsearch.spectra import (
    EigenSpectrum,
    ResonanceError,
    SearchInstance,
    SpectrumValidationError,
    grover_spectrum,
    naive_power_b,
    resonant_spectrum,
    scaling_family,
    symmetric_spectrum,
)
import gqsearch.dense
from gqsearch import spectra
from gqsearch.harness import ExperimentConfig, run_experiment
from gqsearch.pea import (
    b_prime,
    boosted_lambda1,
    boosted_search_run,
    default_ancilla_count,
    dense_b_prime_check,
)
from gqsearch.search import predict_spectrum, run_iterations, verify_relevant_pair

from helpers import graph_spectrum, hypercube_levels, torus_levels, unitarity_defect


def two_phase_toy():
    """3-dim spectrum: source overlap 0.6, one conjugate pair at +/- pi/2.

    Hand-checkable: both pair weights are 0.32, so lambda1 cancels exactly,
    lambda2 = 0.64 * cot(pi/4)^2 = 0.64 and b^2 = 0.64 / sin(pi/4)^2 = 1.28.
    """
    member = 0.8 / math.sqrt(2.0)
    phases = np.array([0.0, 0.5 * math.pi, -0.5 * math.pi])
    return EigenSpectrum(phases, [0.6**2, member**2, member**2])


def zero_weight_toy():
    """Given 4 entries: entry 1, with no target weight, is dropped; 2 and 3 pair."""
    return EigenSpectrum(
        np.array([0.0, math.pi, math.pi / 2, -math.pi / 2]),
        np.array([0.25, 0.0, 0.375, 0.375]),
    )


def test_toy_instance_matches_hand_computation():
    inst = SearchInstance.build(two_phase_toy())
    assert inst.alpha == 0.6
    assert inst.lambda1 == 0.0
    assert np.isclose(inst.lambda2, 0.64, rtol=1e-12)
    assert np.isclose(inst.b_factor, 1.1313708498984762, rtol=1e-12)


def test_moments_match_plain_loop():
    # oracle: direct python sum over the nonsource overlaps
    spec = symmetric_spectrum(8, 11, 0.8, 2.0)
    inst = SearchInstance.build(spec)
    for p, moment in ((1, inst.lambda1), (2, inst.lambda2)):
        total = 0.0
        for phase, weight in zip(spec.phases[1:], spec.weights[1:]):
            total += weight / math.tan(0.5 * phase) ** p
        assert np.isclose(moment, total, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_b_identity_on_generated_spectra(seed):
    # b^2 = 1 + lambda2 - alpha^2 holds exactly, not just asymptotically
    spec = symmetric_spectrum(32, seed, 0.7, 1.9)
    inst = SearchInstance.build(spec)
    identity = 1.0 + inst.lambda2 - inst.alpha**2
    assert np.isclose(inst.b_factor**2, identity, rtol=1e-12)
    # the asymptotic bound |b - sqrt(1 + lambda2)| <= alpha^2 also holds
    assert abs(inst.b_factor - math.sqrt(1.0 + inst.lambda2)) <= inst.alpha**2


def test_grover_spectrum_moments_vanish():
    inst = SearchInstance.build(grover_spectrum(16))
    assert np.isclose(inst.alpha, 0.25, rtol=1e-15)
    # cot(pi/2) rounds to ~6e-17 rather than zero, so the moments are tiny
    # rather than bit-exact
    assert abs(inst.lambda1) < 1e-15
    assert abs(inst.lambda2) < 1e-30
    assert np.isclose(inst.b_factor, 0.9682458365518543, rtol=1e-12)
    # all nonsource eigenphases sit at pi
    assert np.allclose(np.abs(inst.phases[1:]), math.pi, atol=1e-15)


def test_grover_spectrum_rejects_unnormalized_source():
    # a unit source overlaps the target by less than 1
    for alpha in (1.0, 1.5, 0.0, -0.5):
        with pytest.raises(ValueError, match=r"alpha must lie strictly in \(0, 1\)"):
            grover_spectrum(8, alpha)


def test_build_diffusion_is_unitary_and_fixes_source():
    spec = symmetric_spectrum(16, 9, 0.6, 1.8)
    matrix = build_diffusion(spec)
    assert unitarity_defect(matrix) < 1e-10
    source = eigenbasis(spec)[:, 0]
    assert np.allclose(matrix @ source, source, atol=1e-10)


class TestSymmetricGenerator:
    def test_requested_alpha_is_exact(self):
        spec = symmetric_spectrum(64, 5, 0.9, 2.1, alpha=0.07)
        inst = SearchInstance.build(spec)
        assert np.isclose(inst.alpha, 0.07, rtol=0.0, atol=1e-14)

    def test_pair_cancellation_is_bitexact(self):
        for seed in range(6):
            inst = SearchInstance.build(symmetric_spectrum(32, seed, 0.5, 1.5))
            assert inst.lambda1 == 0.0

    def test_phases_stay_inside_band(self):
        spec = symmetric_spectrum(64, 8, 1.1, 2.3)
        banded = np.abs(spec.phases[1:])
        assert np.all(banded >= 1.1 - 1e-12)
        assert np.all(banded <= 2.3 + 1e-12)

    def test_b_target_is_hit(self):
        spec = symmetric_spectrum(64, 13, 0.5, 0.9, alpha=0.02, b_target=9.0)
        inst = SearchInstance.build(spec)
        assert np.isclose(inst.b_factor, 9.0, rtol=0.0, atol=1e-9)

    def test_large_b_target_reached_by_compression(self):
        spec = symmetric_spectrum(8, 1, 1.0, 1.2, alpha=0.05, b_target=50.0)
        inst = SearchInstance.build(spec)
        assert np.isclose(inst.b_factor, 50.0, rtol=1e-12)

    def test_b_target_below_floor_raises(self):
        # stretching phases toward pi cannot push b below ~sqrt(1 - alpha^2)
        with pytest.raises(ValueError, match="floor"):
            symmetric_spectrum(8, 1, 1.0, 1.2, alpha=0.05, b_target=0.2)

    @pytest.mark.parametrize(
        "b_target, message",
        [
            (1e100, "could not bracket"),
            (1.35e154, r"b\^2 finite"),
            (1.7e308, r"b\^2 finite"),
            (5e14, "within rounding of 0"),
            (1e20, "within rounding of 0"),
        ],
        ids=["1e100", "1.35e154", "1.7e308", "5e14", "1e20"],
    )
    def test_b_target_out_of_reach_is_value_error(self, b_target, message):
        # b_target**2 overflows from 1.35e154, and from about 5e14 the scale
        # puts a pair phase inside the r = 1 resonance: each is refused by
        # the generator, naming b_target, before any instance is built
        with pytest.raises(ValueError, match=message):
            symmetric_spectrum(16, 1, 0.5, 1.5, b_target=b_target)

    def test_b_target_at_the_floor_keeps_pair_phases_below_pi(self):
        # one float above the floor, the bisection settles on the bracket end
        # pi / max(drawn), whose product with max(drawn) can round to pi
        n, alpha = 16, 0.25
        for seed in range(40):
            spec = symmetric_spectrum(n, seed, 0.5, 1.5, alpha=alpha)
            drawn = spec.phases[1::2]
            weights = spec.weights[1::2] + spec.weights[2::2]
            stretched = np.sin(0.5 * (np.pi / float(np.max(drawn))) * drawn) ** 2
            floor = math.sqrt(float(np.sum(weights / stretched)))
            spec = symmetric_spectrum(
                n, seed, 0.5, 1.5, alpha=alpha, b_target=math.nextafter(floor, math.inf)
            )
            assert np.max(np.abs(spec.phases[1:])) < np.pi, seed

    def test_deterministic_per_seed(self):
        first = symmetric_spectrum(32, 21, 0.8, 1.6)
        second = symmetric_spectrum(32, 21, 0.8, 1.6)
        third = symmetric_spectrum(32, 22, 0.8, 1.6)
        assert np.array_equal(first.phases, second.phases)
        assert np.array_equal(first.weights, second.weights)
        assert not np.array_equal(first.phases, third.phases)


class TestDrawMemo:
    """The paired profile is drawn once per (n, seed) and shared read-only."""

    def test_draws_are_read_only(self):
        spectra._seeded_draws.cache_clear()
        for unit in (
            spectra._seeded_draws(16, 3),
            spectra._seeded_draws(16, 3),  # warm
        ):
            assert not unit.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                unit[0] = 0.0

    @pytest.mark.parametrize("seed", [1.0, 1.5, None, "1"])
    def test_non_integer_seed_raises(self, seed):
        with pytest.raises(TypeError):
            spectra._paired_weights(16, seed, 0.25)

    def test_checks_run_on_a_warm_key(self):
        spectra._paired_weights(16, 3, 0.25)
        with pytest.raises(ValueError, match="alpha"):
            spectra._paired_weights(16, 3, 1.0)

    @pytest.mark.parametrize("n, seed", [(4, 0), (16, 3), (64, 7), (256, 11)])
    @pytest.mark.parametrize("kind", ["symmetric", "resonant"])
    def test_warm_spectra_match_cold_bit_for_bit(self, kind, n, seed):
        def make():
            if kind == "symmetric":
                return symmetric_spectrum(n, seed, 0.5, 1.5, b_target=3.0)
            return resonant_spectrum(n, 3, 1e-3, seed)

        spectra._seeded_draws.cache_clear()
        cold = make()
        hits = spectra._seeded_draws.cache_info().hits
        warm = make()
        assert spectra._seeded_draws.cache_info().hits == hits + 1
        for name in ("phases", "weights"):
            assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()


def one_thread_skip(rng, count):
    """The discarded normals drawn on one thread, in fresh arrays of 2**20."""
    while count > 0:
        chunk = min(count, 2**20)
        rng.standard_normal(chunk)
        count -= chunk


def stream_after(seed, normals):
    """The stream of ``seed`` with ``normals`` standard normals drawn."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(normals)
    return rng


@pytest.fixture
def threads_started(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.fixture
def affinity_calls(monkeypatch):
    """Names of the CPU-mask calls made while the test runs.

    Each recorder answers as a two-core mask would.
    """
    calls = []
    for name in ("sched_getaffinity", "sched_setaffinity"):

        def record(*args, name=name):
            calls.append(name)
            return {0, 1}

        monkeypatch.setattr(os, name, record, raising=False)
    return calls


def check_every_drop(monkeypatch, check):
    """Make each ``drop`` that ``_sink`` returns call ``check()`` first."""
    sink = spectra._sink

    def checked_sink(rng):
        drop = sink(rng)

        def checked(count):
            check()
            drop(count)

        return checked

    monkeypatch.setattr(spectra, "_sink", checked_sink)


def one_thread_draws(n, seed):
    """``_seeded_draws(n, seed)`` as a plain one-thread loop."""
    rng = np.random.default_rng(seed)
    one_thread_skip(rng, (n - 1) ** 2)
    profile = np.concatenate([rng.uniform(0.5, 1.5, size=n - 2), [0.0]])
    return profile / np.linalg.norm(profile)


class TestSplitSkip:
    """The two-thread skip leaves the stream where one thread leaves it."""

    @pytest.mark.parametrize("delta", [0, 1, 12345, 2**64 + 3, 2**127 + 1])
    def test_word_count_inverts_advance(self, delta):
        bitgen = np.random.PCG64(7)
        start = bitgen.state
        bitgen.advance(delta)
        assert spectra._words_between(start, bitgen.state) == delta

    @pytest.mark.parametrize("count", [0, 1, 1000, 100_000])
    def test_probe_counts_the_normals_to_a_boundary(self, count):
        for seed in range(20):
            drawn = np.random.Generator(np.random.PCG64(seed))
            drawn.standard_normal(count)
            probe = np.random.PCG64(seed)
            target = drawn.bit_generator.state
            assert spectra._normals_to(probe, target) == count, seed
            assert probe.state == target

    @pytest.mark.parametrize("offset, words", [(2638, 4), (21554, 5)])
    def test_probe_steps_back_from_a_pass(self, offset, words):
        # on the stream of seed 0, the normal starting this many words in
        # takes 4 or 5 words, so the probe's first step of two normals passes
        # the end of that one normal and must be undone
        drawn, probe = np.random.PCG64(0), np.random.PCG64(0)
        drawn.advance(offset)
        probe.advance(offset)
        np.random.Generator(drawn).standard_normal()
        assert spectra._words_between(probe.state, drawn.state) == words
        assert spectra._normals_to(probe, drawn.state) == 1

    @pytest.mark.parametrize("n", [4, 6, 8, 16, 64, 130])
    def test_split_matches_one_thread(self, n, threads_started):
        count = (n - 1) ** 2
        for seed in range(60):
            split = np.random.default_rng(seed)
            serial = np.random.default_rng(seed)
            spectra._split_skip(split, count)
            one_thread_skip(serial, count)
            assert split.bit_generator.state == serial.bit_generator.state, seed
        assert len(threads_started) == 60

    def test_fallback_when_the_join_falls_inside_a_normal(self, monkeypatch):
        # three normals into the stream of seed 2549, the first half of six
        # ends inside a normal the helper drew, so no count of helper
        # normals ends there
        landed = []
        normals_to = spectra._normals_to

        def recorded(bitgen, target):
            landed.append(normals_to(bitgen, target))
            return landed[-1]

        monkeypatch.setattr(spectra, "_normals_to", recorded)
        split, serial = stream_after(2549, 3), stream_after(2549, 3)
        spectra._split_skip(split, 6)
        one_thread_skip(serial, 6)
        assert landed == [None]
        assert split.bit_generator.state == serial.bit_generator.state

    def test_helper_error_propagates(self, monkeypatch):
        # raised in the caller after the join
        def failing_off_main():
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")

        check_every_drop(monkeypatch, failing_off_main)
        with pytest.raises(RuntimeError, match="helper failed"):
            spectra._split_skip(stream_after(0, 15), 15 * 14)

    @pytest.mark.parametrize("helper_fails", [False, True])
    def test_split_makes_no_affinity_call(
        self, monkeypatch, affinity_calls, helper_fails
    ):
        # the helper is started as is, and neither thread reads, narrows or
        # restores the caller's CPU mask, whether the helper fails or not
        def failing_on_helper():
            if helper_fails and threading.current_thread().name == "gqsearch-skip":
                raise RuntimeError("helper failed")

        check_every_drop(monkeypatch, failing_on_helper)
        split, serial = stream_after(3, 129), stream_after(3, 129)
        if helper_fails:
            with pytest.raises(RuntimeError, match="helper failed"):
                spectra._split_skip(split, 129 * 128)
        else:
            spectra._split_skip(split, 129 * 128)
            one_thread_skip(serial, 129 * 128)
            assert split.bit_generator.state == serial.bit_generator.state
        assert affinity_calls == []

    @pytest.mark.parametrize(
        "seed, n",
        [(seed, n) for n in (512, 1024, 4096) for seed in (1, 23)]
        + [(5, 1024), (2, 4096)],
    )
    def test_draws_match_one_thread_loop(
        self, n, seed, threads_started, affinity_calls
    ):
        # the real dispatch, which splits on the draw count alone: N = 512
        # and 1024 are below the threshold, 4096 above it.  No CPU mask is
        # read or set, and the split helper is started as is
        unit = one_thread_draws(n, seed)
        spectra._seeded_draws.cache_clear()
        try:
            drawn = spectra._seeded_draws(n, seed)
        finally:
            spectra._seeded_draws.cache_clear()
        assert drawn.tobytes() == unit.tobytes()
        assert threads_started == (["gqsearch-skip"] if n >= 4096 else [])
        assert affinity_calls == []


class TestSpectrumValidation:
    def test_alpha_whose_square_underflows_rejected(self):
        # alpha^2 rounds to 0: the source would carry no weight at all.  Each
        # generator names the alpha it was given, not the 0.0 it squares to
        for make, alpha in (
            (lambda: symmetric_spectrum(16, 1, 0.5, 1.5, alpha=1e-163), "1e-163"),
            (lambda: resonant_spectrum(16, 3, 1e-3, 1, alpha=1e-170), "1e-170"),
            (lambda: grover_spectrum(16, 1e-163), "1e-163"),
        ):
            message = rf"alpha\^2 > 0, got {alpha}$"
            with pytest.raises(ValueError, match=message) as raised:
                make()
            assert not isinstance(raised.value, SpectrumValidationError)
        # the constructor refuses a zero source weight with its own alpha, 0
        with pytest.raises(ValueError, match=r"alpha\^2 > 0, got 0.0$"):
            SearchInstance([0.0, 1.0], [0.0, 1.0])

    def test_dimension_below_the_entry_count_rejected(self):
        # n counts the entries given, before equal phases merge
        with pytest.raises(
            SpectrumValidationError, match="dimension n = 2 is below the 3 entries"
        ):
            EigenSpectrum([0.0, 1.0, 1.0], [0.2, 0.4, 0.4], n=2)
        assert EigenSpectrum([0.0, 1.0, 1.0], [0.2, 0.4, 0.4], n=3).dimension == 3

    def test_dimension_is_kept_as_a_python_int(self):
        # far past 2^63, as for a Johnson graph's sides
        spec = grover_spectrum(10**60)
        assert type(spec.dimension) is int and spec.dimension == 10**60
        inst = SearchInstance.build(spec)
        assert inst.dimension == 10**60
        assert EigenSpectrum([0.0, 1.0], [0.5, 0.5], n=np.int64(7)).dimension == 7

    def test_nan_b_identity_rejected(self, monkeypatch):
        # a NaN b^2 must fail the moment identity, not pass it
        spec = symmetric_spectrum(16, 2, 0.5, 1.5)
        monkeypatch.setattr(spectra, "_powered_b_squared", lambda spec, r: math.nan)
        with pytest.raises(SpectrumValidationError, match="inconsistency"):
            SearchInstance.build(spec)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: EigenSpectrum([0.0, 1.0, 2.0], [0.36, 0.64]),
             SpectrumValidationError, r"weights shape \(2,\) does not match 3 phases"),
            (lambda: EigenSpectrum([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
             SpectrumValidationError, "eigenvector 1 shares phase 0"),
            (lambda: EigenSpectrum([0.0, 4.0, 1.0], [1.0, 0.0, 0.0]),
             SpectrumValidationError, r"\(-pi, pi\]"),
            # NaN fails every comparison; the range check must still catch it
            (lambda: EigenSpectrum([0.0, 0.5, -0.5, np.nan], [1.0, 0.0, 0.0, 0.0]),
             SpectrumValidationError, r"\(-pi, pi\]"),
            (lambda: EigenSpectrum([0.5, 1.0, 2.0], [1.0, 0.0, 0.0]),
             SpectrumValidationError, "source phase must be exactly 0"),
            (lambda: naive_power_b(SearchInstance.build(two_phase_toy()), 0),
             ValueError, "power must be a positive integer, got 0"),
            (lambda: grover_spectrum(1, 0.5),
             SpectrumValidationError, "dimension n = 1 is below the 2 entries given"),
        ],
        ids=["row-shorter-than-phases", "degenerate-source", "outside-interval",
             "nan-phase", "nonzero-source", "naive-power-0", "grover-n-below-2"],
    )
    def test_malformed_input_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_arrays_are_frozen(self):
        # merged or not, both arrays are read-only
        for made in (
            two_phase_toy(),
            symmetric_spectrum(8, 1, 0.5, 1.5),
            resonant_spectrum(8, 3, 1e-3, 1),
        ):
            for array in (made.phases, made.weights):
                with pytest.raises(ValueError):
                    array[0] = 0.3


class TestNaivePowering:
    def test_r_equals_one_recovers_b(self):
        inst = SearchInstance.build(symmetric_spectrum(16, 2, 0.9, 2.0))
        assert np.isclose(naive_power_b(inst, 1), inst.b_factor, rtol=1e-12)

    def test_near_resonant_value_frozen(self):
        # oracle: plain loop over sin(r * theta / 2); value frozen from it
        spec = resonant_spectrum(32, 3, 1e-3, 7, alpha=0.125)
        inst = SearchInstance.build(spec)
        total = 0.0
        for phase, weight in zip(spec.phases[1:], spec.weights[1:]):
            total += weight / math.sin(0.5 * 8 * phase) ** 2
        value = naive_power_b(inst, 8)
        assert np.isclose(value, math.sqrt(total), rtol=1e-12)
        assert np.isclose(value, 869.5662671822013, rtol=1e-9)
        # powering blows up while the plain b factor stays modest
        assert value > 100.0 * inst.b_factor

    def test_exact_resonance_raises(self):
        # all pair phases at pi/4; the 8th power wraps them onto zero exactly
        spec = symmetric_spectrum(16, 3, math.pi / 4, math.pi / 4)
        inst = SearchInstance.build(spec)
        with pytest.raises(ResonanceError):
            naive_power_b(inst, 8)

    def test_zero_weight_resonance_is_exempt(self):
        # the given entry 1 has no target weight and would resonate at every
        # even power, but the spectrum drops it; the weighted pi/2, now
        # eigenvector 1, resonates from r = 4 on
        inst = SearchInstance.build(zero_weight_toy())
        assert math.isfinite(naive_power_b(inst, 2))
        with pytest.raises(
            ResonanceError, match=r"power 4 drives eigenvector 1 \(phase 1\.57"
        ):
            naive_power_b(inst, 4)
        # the boost drops both resonant entries, and their weight joins the
        # flipped branch: b' is sqrt(1 - alpha^2), as for Grover
        assert abs(b_prime(inst, 2).b_prime - dense_b_prime_check(inst, 2)) <= 1e-12
        assert abs(b_prime(inst, 2).b_prime - math.sqrt(0.75)) <= 1e-15
        assert boosted_lambda1(inst, 2) == 0.0
        # at r = 2 the phases +-pi/2 power onto +-pi, and both boost onto pi,
        # where they merge with the flipped branch; sigma1 is still that
        # branch's alone, so sigma2 is b^2 / 4
        split = b_prime(inst, 1)
        assert abs(split.b_prime - dense_b_prime_check(inst, 1)) <= 1e-12
        assert abs(split.sigma1 - 0.375) <= 1e-15
        assert abs(split.sigma2 - inst.b_factor**2 / 4) <= 1e-12


class TestOnePowerRule:
    """``_power`` is the one rule; the b_target rescale and build agree on it."""

    def test_rescale_and_build_agree_on_resonance(self):
        # 600 spectra whose scaled pair phases sit near the r = 1 tolerance:
        # each b_target is refused by the rescale, naming it, or built
        refused = built = 0
        for n in (16, 64):
            for seed in range(1, 6):
                for b_target in np.geomspace(1e13, 1e16, 60):
                    try:
                        spec = symmetric_spectrum(n, seed, 0.5, 1.5, b_target=b_target)
                    except ValueError as exc:
                        # not its subclass ResonanceError, which build raises
                        assert type(exc) is ValueError and "b_target" in str(exc)
                        refused += 1
                        continue
                    SearchInstance.build(spec)
                    built += 1
        assert refused + built == 600
        assert refused and built

    @pytest.mark.parametrize("r", [1, 2**5, 2**20])
    def test_power_is_odd_bit_for_bit(self, r):
        theta = np.random.default_rng(r).uniform(-np.pi, np.pi, 10_000)
        powered = spectra._power(theta, r)
        assert np.array_equal(spectra._power(-theta, r), -powered)
        assert np.all((powered > -np.pi) & (powered <= np.pi))

    @pytest.mark.parametrize("r", [1, 2, 4, 32])
    def test_power_is_the_wrapped_multiple(self, r):
        # the sign follows the wrapped r theta, not theta: 2.0 powers by 2
        # to wrap(4.0) = -2.28, negative though 2.0 is positive
        theta = np.linspace(-np.pi, np.pi, 4001)[1:]
        gap = wrap_phase(spectra._power(theta, r) - wrap_phase(r * theta))
        assert np.all(np.abs(gap) <= 4.0 * r * np.pi * np.finfo(np.float64).eps)


class TestResonantGenerator:
    def test_phases_cluster_near_resonances(self):
        m, epsilon = 3, 1e-3
        spec = resonant_spectrum(64, m, epsilon, 12)
        live = np.abs(spec.phases[1:])
        step = 2.0 * math.pi / 2**m
        distance = np.abs(live - step * np.round(live / step))
        assert np.all(distance <= epsilon * (1.0 + 1e-9))
        assert np.all(distance > 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pair_phase_rounding_to_pi_pairs_with_pi(self, seed):
        # at m = 1 the detuned phases round to exactly pi, and each partner
        # is pi too, as -pi lies outside (-pi, pi]
        spec = resonant_spectrum(16, 1, 1e-17, seed)
        assert np.all(spec.phases[1:] == np.pi)
        assert SearchInstance.build(spec).lambda1 == 0.0

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            resonant_spectrum(16, 2, 0.0, 1)
        with pytest.raises(ValueError):
            resonant_spectrum(16, 2, 1.5, 1)

    def test_deterministic_per_seed(self):
        first = resonant_spectrum(32, 3, 1e-3, 9)
        second = resonant_spectrum(32, 3, 1e-3, 9)
        assert np.array_equal(first.phases, second.phases)
        assert np.array_equal(first.weights, second.weights)

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_side_n_holds_n_minus_one_entries(self, m):
        # the source and (n - 2) / 2 pairs, on the paired weights bit for bit
        n = 64
        weights = spectra._paired_weights(n, 5, 1.0 / math.sqrt(n))
        spec = resonant_spectrum(n, m, 1e-3, 5)
        assert spec.dimension == n and spec.phases.size == n - 1
        assert spec.weights.tobytes() == weights.tobytes()


class TestPairedConstruction:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_doubled_member_weight_matches_assembled_pairs(self, seed):
        # the b_target rescale reads 2 |row[2j+1]|^2 as pair j's weight: bit
        # for bit the sum of the two members' weights that build reads
        n, alpha = 64, 0.05
        made = spectra._paired_weights(n, seed, alpha)
        phases = np.linspace(0.5, 1.5, (n - 2) // 2)
        spec = spectra._paired_spectrum(made, phases, n=n)
        weights = spec.weights
        assembled = weights[1::2] + weights[2::2]
        closed = 2.0 * made[1::2]
        assert closed.tobytes() == assembled.tobytes()
        # no slot beyond the pairs is laid out: every entry is weighted
        assert spec.dimension == n and np.all(spec.weights > 0.0)


class TestWeightPath:
    @pytest.mark.parametrize("n", [2, 8, 64, 1024, 10**6, 3 * 10**6, 2**50])
    def test_grover_is_two_entries(self, n):
        # the reflection about the uniform source: its measure is alpha^2 = 1/n
        # at 0 and the rest at pi, whatever n is, and n is the dimension
        spec = grover_spectrum(n)
        assert spec.phases.tobytes() == np.array([0.0, np.pi]).tobytes()
        alpha = 1.0 / math.sqrt(n)
        assert spec.weights.tobytes() == np.array([alpha**2, 1.0 - alpha**2]).tobytes()
        assert abs(math.fsum(spec.weights) - 1.0) <= 1e-15
        assert spec.dimension == n

    def test_default_overlap_holds_past_float_range(self):
        # 1 / sqrt(n) overflows there; the default alpha^2 is 1 / n, rounded
        # once, and refused where it rounds to 0
        spec = grover_spectrum(10**309)
        assert spec.weights[0] == 1e-309 > 0.0
        assert spec.dimension == 10**309
        assert spectra._source_weight(None, 2**1075 - 1) == 5e-324
        with pytest.raises(ValueError, match=r"^n of 1076 bits rounds the default"):
            spectra._source_weight(None, 2**1075)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: symmetric_spectrum(64, 1, 0.5, 1.5), id="sym-64"),
            pytest.param(lambda: symmetric_spectrum(1024, 2, 0.5, 1.5), id="sym-1024"),
            pytest.param(lambda: symmetric_spectrum(4096, 1, 0.5, 1.5), id="sym-4096"),
            pytest.param(lambda: scaling_family(6, 3), id="scaling-64"),
            pytest.param(lambda: scaling_family(12, 1), id="scaling-4096"),
            pytest.param(lambda: grover_spectrum(64), id="grover-64"),
        ],
    )
    def test_merge_keeps_an_unrepeated_spectrum_bit_for_bit(self, make):
        # the constructor merges only where a sort finds a repeated phase;
        # the merge itself returns these arrays, so the gate changes speed only
        spec = make()
        assert np.unique(spec.phases).size == spec.phases.size
        phases, weights = spectra._merge_equal_phases(spec.phases, spec.weights)
        assert phases.tobytes() == spec.phases.tobytes()
        assert weights.tobytes() == spec.weights.tobytes()

    @pytest.mark.parametrize(
        "at, unweighted",
        [
            (1, lambda spec: spec.phases[3]),
            (5, lambda spec: 0.1),
            (5, lambda spec: np.pi / 2),
        ],
        ids=["shares-a-later-phase", "nearest-0", "resonant-at-4"],
    )
    def test_zero_weight_entries_are_dropped(self, at, unweighted):
        # a measure has no zero-weight atom: the spectrum given one holds the
        # weighted entries alone, in their order, and every number read from
        # it is, bit for bit, that of the spectrum given without it
        spec = symmetric_spectrum(14, 2, 0.5, 1.5)
        phases = np.insert(spec.phases, at, unweighted(spec))
        given = SearchInstance(phases, np.insert(spec.weights, at, 0.0))
        assert given.dimension == phases.size
        assert given.phases.tobytes() == spec.phases.tobytes()
        assert given.weights.tobytes() == spec.weights.tobytes()
        kept = SearchInstance(spec.phases, spec.weights, n=phases.size)

        def readings(inst):
            split = b_prime(inst, 2)
            plain, boosted = run_iterations(inst, 40), boosted_search_run(inst, 2, 40)
            return [
                inst.b_factor, inst.lambda1, inst.theta_min, naive_power_b(inst, 4),
                split.sigma1, split.sigma2, split.b_prime, *verify_relevant_pair(inst),
                *(report.target_probability.tobytes() for report in (plain, boosted)),
                *(report.source_overlap.tobytes() for report in (plain, boosted)),
            ]

        assert readings(given) == readings(kept)

    def test_weight_path_never_builds_the_eigenbasis(self):
        # every layer a report needs, at N = 4096, where one N x N complex
        # array takes 256 MiB: the peak stays below an eighth of one
        tracemalloc.start()
        try:
            spec = scaling_family(12, 1)
            inst = SearchInstance.build(spec)
            predicted = predict_spectrum(inst)
            m = default_ancilla_count(inst.b_factor)
            b_prime(inst, m)
            boosted_lambda1(inst, m)
            naive_power_b(inst, 2**m)
            run_iterations(inst, 20)
            boosted_search_run(inst, m, 20)
            run_experiment(ExperimentConfig(kind="grover-baseline", n=4096))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert predicted.q_m > 0
        assert peak < 4096 * 4096 * 16 / 8

    def test_caller_row_is_copied(self):
        # the caller's weights and phases are copied, merged or not
        for phases in ([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]):
            phases, weights = np.array(phases), np.array([0.36, 0.64, 0.0])
            spec = EigenSpectrum(phases, weights)
            assert not np.shares_memory(spec.weights, weights)
            assert not np.shares_memory(spec.phases, phases)
            weights[0] = 5.0  # the caller's array stays writable
            assert spec.weights[0] == 0.36

    def test_unnormalized_row_rejected(self):
        # one fixed tolerance, whatever the dimension n
        spec = symmetric_spectrum(16, 2, 0.5, 1.5)
        n = 3_000_000
        for made in (
            lambda: EigenSpectrum(spec.phases, spec.weights * 1.01),
            lambda: EigenSpectrum([0.0, math.pi], [1.0 / n, 1.0 + 1e-6], n=n),
        ):
            with pytest.raises(SpectrumValidationError, match="do not sum to 1"):
                made()

    def test_nan_row_rejected(self):
        # a NaN or negative weight fails the sign test, an infinite one the sum
        spec = symmetric_spectrum(16, 2, 0.5, 1.5)
        for bad, message in (
            (np.nan, "nonnegative"), (-1e-3, "nonnegative"), (np.inf, "sum to 1")
        ):
            weights = spec.weights.copy()
            weights[3] = bad
            with pytest.raises(SpectrumValidationError, match=message):
                EigenSpectrum(spec.phases, weights)


PAIRED_SIDES = [
    (kind, n) for kind in ("symmetric", "resonant") for n in (4, 6, 64, 1024)
]


def paired_spectrum(kind, n):
    """A paired generator's spectrum of side n: n - 1 entries."""
    if kind == "symmetric":
        return symmetric_spectrum(n, 5, 0.5, 1.5)
    return resonant_spectrum(n, 3, 1e-3, 5)


class TestEigenbasis:
    """``dense.eigenbasis`` realizes any spectrum within ``DENSE_CAP``."""

    @pytest.mark.parametrize(
        "make, bound, unweighted",
        [
            (lambda: grover_spectrum(1024), 1e-10, None),
            # the reflection about e_3: the source misses the target
            (lambda: EigenSpectrum([0.0, np.pi], [0.0, 1.0], n=8), 1e-10, 0),
            *(
                (make, 1e-10, None)
                for make in (
                    # alpha^2 = 1e-320 is subnormal, not 0
                    lambda: symmetric_spectrum(16, 1, 0.5, 1.5, alpha=1e-160),
                    lambda: resonant_spectrum(16, 1, 1e-17, 1),
                    lambda: scaling_family(10, 31),
                    lambda: graph_spectrum(hypercube_levels(20), math.pi / 41),
                    lambda: graph_spectrum(torus_levels(2, 32), math.pi / 5),
                    two_phase_toy,
                    zero_weight_toy,
                )
            ),
            (lambda: EigenSpectrum([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]), 1e-10, 0),
            # the paired generators hold a tighter bound
            *(
                (functools.partial(paired_spectrum, kind, n), 1e-13, None)
                for kind, n in PAIRED_SIDES
            ),
        ],
        ids=[
            "grover-uniform-1024", "grover-e3-8", "symmetric-tiny-alpha",
            "resonant-pi-pairs",
            "scaling-10", "hypercube20", "torus2-32", "two_phase_toy",
            "zero_weight_toy", "target-off-the-source",
            *(f"{kind}-{n}" for kind, n in PAIRED_SIDES),
        ],
    )
    def test_basis_is_unitary_with_the_target_row(self, make, bound, unweighted):
        # ``unweighted`` names the entry, the source, whose target weight is
        # exactly zero: the only one a spectrum keeps
        spec = make()
        vectors = eigenbasis(spec)
        assert vectors.shape == (spec.phases.size, spec.phases.size)
        assert unitarity_defect(vectors) <= bound
        assert vectors[0].tobytes() == np.sqrt(spec.weights).tobytes()
        if unweighted is not None:
            assert vectors[0, unweighted] == 0.0

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("source", ["uniform", "random", "e3"])
    def test_householder_completion_keeps_its_source(self, source, n):
        # the completion of a nonnegative unit vector, sqrt(weights) for
        # ``eigenbasis``, is orthogonal with it as column 0 bit for bit
        if source == "uniform":
            vector = np.full(n, 1.0 / math.sqrt(n))
        elif source == "random":
            # largest entry away from index 0: the basis columns get reordered
            vector = np.abs(np.random.default_rng(n).standard_normal(n))
            vector[n // 2] = 4.0 * math.sqrt(n)
            vector /= np.linalg.norm(vector)
        else:
            # already a basis vector: no reflection, the identity completion
            vector = np.zeros(n)
            vector[3] = 1.0
        basis = gqsearch.dense._complete_orthonormal(vector)
        assert basis[:, 0].tobytes() == vector.tobytes()
        assert unitarity_defect(basis) <= 1e-12


class TestDenseCap:
    """No dense object with a side above DENSE_CAP, checked before allocation."""

    N = DENSE_CAP + 2

    def peak_while_raising(self, call, side=N):
        """tracemalloc peak of ``call``, which must raise DenseCapError at ``side``."""
        tracemalloc.start()
        try:
            with pytest.raises(DenseCapError, match=f"dimension {side} exceeds"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["symmetric", "resonant", "grover"])
    def test_reading_the_basis_above_the_cap_raises(self, monkeypatch, kind):
        n = self.N
        if kind == "grover":
            # the cap reads the entry count: two, whatever the dimension
            assert eigenbasis(grover_spectrum(n)).shape == (2, 2)
            return
        if kind == "symmetric":
            spec = symmetric_spectrum(n, 1, 0.5, 1.5)
        else:
            spec = resonant_spectrum(n, 3, 1e-3, 1)
        built = []
        monkeypatch.setattr(
            gqsearch.dense, "_complete_orthonormal", lambda *args: built.append(args)
        )
        # a basis of this side takes n * n * 16 bytes
        peak = self.peak_while_raising(lambda: eigenbasis(spec), spec.phases.size)
        assert peak < n * n // 4
        assert built == []

    @pytest.mark.parametrize(
        "dense",
        [lambda inst: build_diffusion(inst), search_operator],
        ids=["build_diffusion", "search_operator"],
    )
    def test_dense_operators_above_the_cap_raise(self, dense):
        # N - 1 entries, still above the cap
        inst = SearchInstance.build(symmetric_spectrum(self.N, 1, 0.5, 1.5))
        self.peak_while_raising(lambda: dense(inst), inst.phases.size)


class TestScalingFamily:
    @pytest.mark.parametrize("log2n", [6, 9, 12])
    def test_b_tracks_two_sqrt_log(self, log2n):
        spec = scaling_family(log2n, 31)
        inst = SearchInstance.build(spec)
        n = 2**log2n
        assert inst.dimension == n
        assert np.isclose(inst.alpha, 1.0 / math.sqrt(n), rtol=0.0, atol=1e-14)
        assert np.isclose(inst.b_factor, 2.0 * math.sqrt(math.log(n)), atol=1e-9)

    def test_range_is_enforced(self):
        with pytest.raises(ValueError):
            scaling_family(5, 0)
        with pytest.raises(ValueError):
            scaling_family(13, 0)


FROZEN_PATH = Path(__file__).parent / "data" / "frozen_spectra.npz"

# generator outputs recorded before the generator's O(N^2) rewrite; they pin
# the random stream and every number a search reads (phases, target weights).
# They were recorded before equal phases merged, so each is compared after
# passing through the same constructor
FROZEN_CASES = {
    "symmetric_64_7": (lambda: symmetric_spectrum(64, 7, 0.5, 1.5), False),
    "symmetric_256_3_b8": (
        lambda: symmetric_spectrum(256, 3, 0.5, 1.5, b_target=8),
        True,
    ),
    "resonant_64_3_12": (lambda: resonant_spectrum(64, 3, 1e-3, 12), False),
    "scaling_9_31": (lambda: scaling_family(9, 31), True),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_generator_outputs_frozen(name):
    make, rescaled = FROZEN_CASES[name]
    with np.load(FROZEN_PATH) as frozen:
        recorded = EigenSpectrum(frozen[f"{name}/phases"], frozen[f"{name}/weights"])
        alpha, b_factor = frozen[f"{name}/alpha_b"]
    phases, weights = recorded.phases, recorded.weights
    spec = make()
    inst = SearchInstance.build(spec)
    if rescaled:
        # the b_target scale comes out of a root search; rounding may move it
        assert np.allclose(spec.phases, phases, rtol=1e-13, atol=0.0)
    else:
        assert np.array_equal(spec.phases, phases)
    assert np.max(np.abs(spec.weights - weights)) <= 1e-14
    assert abs(inst.alpha - alpha) <= 1e-12
    assert abs(inst.b_factor - b_factor) <= 1e-12


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_instance_from_phases_and_row_is_its_build(name):
    spec = FROZEN_CASES[name][0]()
    made = SearchInstance(spec.phases, spec.weights, n=spec.dimension)
    built = SearchInstance.build(spec)
    assert isinstance(made, EigenSpectrum)
    for field in ("phases", "weights"):
        assert getattr(made, field).tobytes() == getattr(built, field).tobytes()
    for field in ("dimension", "alpha", "lambda1", "lambda2", "b_factor"):
        assert getattr(made, field) == getattr(built, field)


def test_instance_constructor_refuses_what_build_refuses():
    phases, weights = [0.0, 1.0], [1.0, 0.0]  # alpha = 1: the source is the target
    message = r"must lie in \(0, 1\), alpha\^2 > 0, got 1.0"
    for make in (
        lambda: SearchInstance(phases, weights),
        lambda: SearchInstance.build(EigenSpectrum(phases, weights)),
    ):
        with pytest.raises(ValueError, match=message):
            make()

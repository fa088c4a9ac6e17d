"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints as a single pass/fail line under pytest -v.  Instance
sets and tolerances are frozen; a failure here means the library broke,
not that the bar moved.
"""

import math
from functools import lru_cache

import numpy as np

from gqsearch import cli, dense, pea, search, spectra
from gqsearch.harness import load_config, run_experiment


def uniform_grover_instance(n):
    return spectra.SearchInstance.build(spectra.grover_spectrum(n))


@lru_cache(maxsize=1)
def paired_band_instances():
    # wide-band regime: theta_min stays >= 40x the rotating-pair phase
    out = []
    for k in range(20):
        n = 64 if k % 2 == 0 else 128
        spec = spectra.symmetric_spectrum(n, 1000 + k, 1.2, 1.7, alpha=0.02)
        out.append(spectra.SearchInstance.build(spec))
    return tuple(out)


@lru_cache(maxsize=1)
def mixed_boost_instances():
    out = []
    for idx in range(8):
        spec = spectra.symmetric_spectrum(16, 100 + idx, 0.5, 1.5)
        out.append(spectra.SearchInstance.build(spec))
    for idx in range(6):
        spec = spectra.resonant_spectrum(16, 2 + idx % 3, 5e-3, 200 + idx)
        out.append(spectra.SearchInstance.build(spec))
    for idx in range(6):
        spec = spectra.symmetric_spectrum(32, 300 + idx, 0.5, 1.5)
        out.append(spectra.SearchInstance.build(spec))
    return tuple(out)


def test_criterion_1_grover_baseline():
    inst = uniform_grover_instance(256)
    run = search.run_iterations(inst, 26)
    assert run.peak_q in (12, 13)
    assert run.peak_probability >= 0.99
    angle = math.asin(inst.alpha)
    for rec in run.records:
        expected = math.sin((2 * rec.q + 1) * angle) ** 2
        assert abs(rec.target_probability - expected) <= 1e-10


def test_criterion_2_eigenphase_prediction():
    for inst in paired_band_instances():
        drive = 2.0 * inst.alpha / inst.b_factor
        assert inst.theta_min >= 40.0 * drive
        phase_plus, phase_minus, residual = search.verify_relevant_pair(inst)
        assert abs(phase_plus - drive) <= 0.05 * drive
        assert abs(phase_minus + drive) <= 0.05 * drive
        assert residual <= 0.02


def test_criterion_3_peak_law():
    for inst in paired_band_instances():
        predicted = search.predict_spectrum(inst)
        run = search.run_iterations(inst, 2 * predicted.q_m)
        assert abs(run.peak_q - predicted.q_m) <= 2
        expected_peak = 1.0 / inst.b_factor**2
        assert abs(run.peak_probability - expected_peak) <= 0.25 * expected_peak


def test_criterion_4_phase_estimate_amplitude():
    thetas = np.linspace(-3.1, 3.1, 64)
    worst = 0.0
    for m in range(1, 7):
        size = 2**m
        fourier = dense.qft(m)
        combs = np.exp(1j * np.outer(np.arange(size), thetas)) / math.sqrt(size)
        simulated = np.abs(fourier @ combs)
        for k in range(size):
            analytic = pea.pea_amplitude(thetas, m, k)
            worst = max(worst, float(np.max(np.abs(analytic - simulated[k]))))
    assert worst <= 1e-10


def test_criterion_5_boosted_b_identity():
    for inst in mixed_boost_instances():
        for m in range(1, 6):
            split = pea.b_prime(inst, m)
            assert split.sigma1 <= 1.0 + 1e-12
            assert abs(split.sigma2 - inst.b_factor**2 / 4**m) <= 1e-9
            if inst.dimension * 2**m <= 1024:
                dense = pea.dense_b_prime_check(inst, m)
                assert abs(split.b_prime - dense) <= 1e-6


def test_criterion_6_divergence_vs_nullification():
    spec = spectra.resonant_spectrum(32, 3, 1e-3, 7, alpha=0.125)
    inst = spectra.SearchInstance.build(spec)
    naive = spectra.naive_power_b(inst, 8)
    assert naive >= 100.0 * inst.b_factor
    split = pea.b_prime(inst, 3)
    bound = math.sqrt(1.0 + inst.b_factor**2 / 64.0)
    assert split.b_prime <= bound * (1.0 + 1e-6)


def test_criterion_7_boosted_query_advantage():
    spec = spectra.resonant_spectrum(64, 6, 1e-3, 21, alpha=1.0 / 16.0)
    inst = spectra.SearchInstance.build(spec)
    assert inst.b_factor >= 10.0
    m = pea.default_ancilla_count(inst.b_factor)
    assert m == 4

    boosted = pea.boosted_search_run(inst, m)
    assert boosted.ds_per_step == 3 * 2**m - 2
    assert boosted.peak_probability >= 0.35
    peak_record = boosted.records[boosted.peak_q]
    assert peak_record.oracle_queries <= 64
    assert peak_record.ds_applications == boosted.peak_q * (3 * 2**m - 2)

    predicted = search.predict_spectrum(inst)
    plain = search.run_iterations(inst, 2 * predicted.q_m)
    assert plain.peak_q >= math.pi * inst.b_factor / (4.0 * inst.alpha) - 2.0


def test_criterion_8_boosted_flatness(tmp_path):
    config_path = tmp_path / "sweep.ini"
    config_path.write_text(
        "[experiment]\nkind = b-sweep\n"
        "[instance]\nn = 64\nseed = 5\ntheta_min = 0.5\ntheta_max = 0.9\n"
        "alpha = 0.0625\nb_values = 2, 4, 8, 16\n"
    )
    rows = run_experiment(load_config(config_path))
    assert [round(row.b_factor, 6) for row in rows] == [2.0, 4.0, 8.0, 16.0]
    peaks = [row.peak_q for row in rows]
    mean_peak = sum(peaks) / len(peaks)
    assert max(peaks) - min(peaks) <= 0.25 * mean_peak
    for row in rows:
        assert abs(row.lambda1_boosted) <= 1e-8


def test_criterion_9_report_determinism(tmp_path):
    config_path = tmp_path / "config.ini"
    config_path.write_text(
        "[experiment]\nkind = general-search\n"
        "[instance]\nn = 64\nseed = 11\nalpha = 0.1\n"
    )
    for fmt in ("csv", "json"):
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        for out in (first, second):
            code = cli.main(
                ["run", "--config", str(config_path), "--out", str(out), "--format", fmt]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0

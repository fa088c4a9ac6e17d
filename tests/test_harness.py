"""Config parsing, experiment dispatch, report emission, CLI exit codes."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from gqsearch import cli, harness, linalg, pea, search, spectra
from gqsearch.harness import (
    ConfigError,
    ExperimentConfig,
    emit_report,
    load_config,
    load_sweep_configs,
    run_experiment,
    run_validation,
)

from helpers import graph_spectrum, hypercube_levels, parse_report_csv

COLUMNS = (
    "experiment,n,seed,alpha,b_factor,theta_min,m,r,b_prime,lambda1,"
    "lambda1_boosted,naive_b_r,peak_q,peak_probability,oracle_queries_at_peak,"
    "ds_applications_at_peak,predicted_peak_q,predicted_peak_probability"
)


def write_config(tmp_path, body, name="config.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nkind = general-search\n")
        config = load_config(path)
        assert config.kind == "general-search"
        assert config.n == 64
        assert config.seed == 1
        assert config.family == "symmetric"
        assert config.theta_min == 0.5
        assert config.theta_max == 1.5
        assert config.alpha is None
        assert config.b_target is None
        assert config.epsilon == 1e-3
        assert config.resonance_m == 3
        assert config.m is None
        assert config.b_values == (2.0, 4.0, 8.0, 16.0)
        assert config.q_max is None
        assert config.out is None
        assert config.format == "csv"

    def test_empty_values_fall_back_to_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind =\n[instance]\nfamily =\nalpha =\nb_target =\n"
            "[run]\nq_max =\nout =\nformat =\n",
        )
        assert load_config(path) == ExperimentConfig()

    def test_every_field_is_a_typed_key_of_its_section(self, tmp_path):
        # one non-default value per ExperimentConfig field: its INI text and
        # the value it must load as
        values = {
            "kind": ("b-sweep", "b-sweep"),
            "n": ("32", 32),
            "seed": ("9", 9),
            "family": ("resonant", "resonant"),
            "theta_min": ("0.25", 0.25),
            "theta_max": ("2.5", 2.5),
            "alpha": ("0.125", 0.125),
            "b_target": ("4.5", 4.5),
            "epsilon": ("0.01", 0.01),
            "resonance_m": ("2", 2),
            "m": ("4", 4),
            "b_values": ("3, 5", (3.0, 5.0)),
            "q_max": ("40", 40),
            "out": ("result.json", "result.json"),
            "format": ("json", "json"),
        }
        # no kind reads every [instance] key, so the fields are loaded in one
        # config per kind, each setting only keys its kind (and family) reads
        bodies = {
            "b-sweep": ("kind", "n", "seed", "theta_min", "theta_max", "alpha",
                        "m", "b_values", "q_max", "out", "format"),
            "boosted-search": ("family", "epsilon", "resonance_m"),
            "general-search": ("b_target",),
        }
        fields = dataclasses.fields(ExperimentConfig)
        assert sorted(field.name for field in fields) == sorted(values)
        assert sorted(sum(bodies.values(), ())) == sorted(values)
        configs = {}
        for kind, names in bodies.items():
            chosen = [field for field in fields if field.name in names]
            sections: dict[str, list[str]] = {
                "experiment": [] if "kind" in names else [f"kind = {kind}"]
            }
            for field in chosen:
                text = values[field.name][0]
                sections.setdefault(field.metadata["section"], []).append(
                    f"{field.name} = {text}"
                )
            body = "".join(
                f"[{section}]\n" + "\n".join(lines) + "\n"
                for section, lines in sections.items()
            )
            config = configs[kind] = load_config(write_config(tmp_path, body))
            assert config.kind == kind
            for field in chosen:
                loaded = getattr(config, field.name)
                expected = values[field.name][1]
                assert loaded != field.default, field.name
                assert loaded == expected, field.name
                assert type(loaded) is field.metadata["type"], field.name
        assert all(type(b) is float for b in configs["b-sweep"].b_values)

    def test_out_may_hold_a_comma(self, tmp_path):
        path = write_config(tmp_path, "[run]\nout = a,b.csv\n")
        assert load_config(path).out == "a,b.csv"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[mystery]\nx = 1\n", "section"),
            ("[instance]\nqubits = 6\n", "qubits"),
            ("[run]\nn = 4\n", r"unknown config key run\.n$"),
            ("[instance]\nn = many\n", "^config key n: invalid literal"),
            ("[experiment]\nkind = quantum-stuff\n", "kind"),
            ("[instance]\nfamily = chaotic\n", "family"),
            ("[instance]\nseed = 1,2,3\n", "sweep"),
            (None, "^cannot read config"),
        ],
        ids=["unknown-section", "unknown-key", "key-in-another-section", "bad-integer",
             "bad-kind", "bad-family", "comma-list-outside-sweep", "missing-file"],
    )
    def test_refused(self, tmp_path, body, message):
        # a body of None writes no file
        path = tmp_path / "config.ini"
        if body is not None:
            path.write_text(body)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_b_values_list_is_not_a_sweep(self, tmp_path):
        path = write_config(tmp_path, ini("b-sweep", "b_values = 2, 8"))
        assert load_config(path).b_values == (2.0, 8.0)

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nseed = 4\n")
        assert load_config(path, seed=99).seed == 99


class TestSweepExpansion:
    def test_cartesian_product_in_file_order(self, tmp_path):
        path = write_config(
            tmp_path, ini("general-search", "seed = 1, 2, 3\nalpha = 0.1, 0.2")
        )
        configs = load_sweep_configs(path)
        combos = [(c.seed, c.alpha) for c in configs]
        assert combos == [
            (1, 0.1),
            (1, 0.2),
            (2, 0.1),
            (2, 0.2),
            (3, 0.1),
            (3, 0.2),
        ]

    def test_no_lists_gives_single_config(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nseed = 7\n")
        configs = load_sweep_configs(path)
        assert len(configs) == 1
        assert configs[0].seed == 7

    def test_overridden_list_is_not_expanded(self, tmp_path):
        # --seed 5 over seed = 1, 2 is one run at seed 5, not two equal rows
        path = write_config(
            tmp_path, ini("general-search", "seed = 1, 2\nalpha = 0.1, 0.2")
        )
        configs = load_sweep_configs(path, seed=5, alpha=0.3)
        assert len(configs) == 1
        assert (configs[0].seed, configs[0].alpha) == (5, 0.3)
        # a list that no override sets still expands
        configs = load_sweep_configs(path, seed=5)
        assert [(c.seed, c.alpha) for c in configs] == [(5, 0.1), (5, 0.2)]


class TestExperiments:
    def test_grover_baseline_row(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nkind = grover-baseline\n[instance]\nn = 16\n"
        )
        rows = run_experiment(load_config(path))
        assert len(rows) == 1
        row = rows[0]
        assert row.experiment == "grover-baseline"
        assert row.n == 16
        assert row.alpha == 0.25
        assert abs(row.lambda1) < 1e-15
        assert row.m is None and row.r is None and row.b_prime is None
        assert row.naive_b_r is None
        assert row.peak_q == row.predicted_peak_q
        assert row.peak_probability > 0.9

    def test_general_search_row_reproduces_library_instance(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 32\nseed = 6\ntheta_min = 0.9\ntheta_max = 1.9\n"
            "alpha = 0.05\n",
        )
        row = run_experiment(load_config(path))[0]
        spec = spectra.symmetric_spectrum(32, 6, 0.9, 1.9, alpha=0.05)
        inst = spectra.SearchInstance.build(spec)
        assert np.isclose(row.b_factor, inst.b_factor, rtol=1e-15)
        assert np.isclose(row.theta_min, inst.theta_min, rtol=1e-15)
        assert row.oracle_queries_at_peak == row.peak_q

    def test_general_search_reads_family(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 16\nfamily = resonant\n",
        )
        row = run_experiment(load_config(path))[0]
        inst = spectra.SearchInstance.build(spectra.resonant_spectrum(16, 3, 1e-3, 1))
        assert row.b_factor == inst.b_factor
        assert row.lambda1 == inst.lambda1
        assert row.m is None and row.b_prime is None

    def test_boosted_search_row_ledger(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 32\nseed = 2\nfamily = resonant\nalpha = 0.125\n",
        )
        row = run_experiment(load_config(path))[0]
        assert row.experiment == "boosted-search"
        assert row.r == 2**row.m
        assert row.b_prime is not None
        assert row.lambda1_boosted is not None
        assert row.ds_applications_at_peak == row.peak_q * (3 * row.r - 2)

    def test_divergence_demo_reports_naive_sum(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind = divergence-demo\n"
            "[instance]\nn = 32\nseed = 7\nalpha = 0.125\n",
        )
        row = run_experiment(load_config(path))[0]
        inst = spectra.SearchInstance.build(
            spectra.resonant_spectrum(32, 3, 1e-3, 7, alpha=0.125)
        )
        assert row.m == 3
        assert np.isclose(row.naive_b_r, spectra.naive_power_b(inst, 8), rtol=1e-12)
        assert row.naive_b_r > 100.0 * row.b_factor

    def test_b_sweep_hits_each_target(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind = b-sweep\n"
            "[instance]\nn = 16\nseed = 5\ntheta_min = 0.5\ntheta_max = 0.9\n"
            "alpha = 0.0625\nb_values = 2, 4\n",
        )
        rows = run_experiment(load_config(path))
        assert [round(row.b_factor, 6) for row in rows] == [2.0, 4.0]
        assert all(row.experiment == "b-sweep" for row in rows)


# each family's generator, called with a config's n, seed and family keys
FAMILY_GENERATORS = {
    "symmetric": lambda c: spectra.symmetric_spectrum(
        c.n, c.seed, c.theta_min, c.theta_max, alpha=c.alpha, b_target=c.b_target
    ),
    "resonant": lambda c: spectra.resonant_spectrum(
        c.n, c.resonance_m, c.epsilon, c.seed, alpha=c.alpha
    ),
}


@pytest.mark.parametrize("family", list(harness._FAMILY_READS))
def test_each_family_builds_its_own_generator(family):
    # a family row with no branch in _instances would build another
    # family's spectrum
    config = ExperimentConfig(kind="general-search", n=16, family=family)
    (inst,) = harness._instances(config)
    spec = FAMILY_GENERATORS[family](config)
    assert inst.phases.tobytes() == spec.phases.tobytes()
    assert inst.weights.tobytes() == spec.weights.tobytes()
    assert inst.dimension == spec.dimension == 16


class TestHandBuiltConfig:
    """ExperimentConfig checks its own fields, however it is made."""

    def test_unknown_family_raises(self):
        # a misspelt family must not fall back to another family's spectrum
        with pytest.raises(ConfigError, match="unknown instance family 'resonnant'"):
            ExperimentConfig(kind="general-search", n=16, family="resonnant")

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError, match="unknown experiment kind 'bogus'"):
            ExperimentConfig(kind="bogus", n=16)

    def test_replaced_config_is_checked(self):
        with pytest.raises(ConfigError, match="format must be csv or json, got 'xml'"):
            ExperimentConfig(format="xml")
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            dataclasses.replace(ExperimentConfig(), seed=-1)

    def test_unread_key_raises_at_construction(self):
        # refused where the config is made, not when it runs
        with pytest.raises(ConfigError, match="^grover-baseline does not read alpha$"):
            ExperimentConfig(kind="grover-baseline", n=16, alpha=0.3)
        searched = ExperimentConfig(kind="general-search", n=16)
        with pytest.raises(ConfigError, match="^general-search does not read m$"):
            dataclasses.replace(searched, m=4)
        # a replaced kind or family that stops reading a key set before
        swept = ExperimentConfig(kind="b-sweep", n=16, b_values=(2.0,))
        with pytest.raises(ConfigError, match="^general-search does not read b_values$"):
            dataclasses.replace(swept, kind="general-search")
        scaled = dataclasses.replace(searched, b_target=4.0)
        with pytest.raises(ConfigError, match="^general-search does not read b_target$"):
            dataclasses.replace(scaled, family="resonant")


@pytest.mark.parametrize("kind", ["general-search", "boosted-search"])
def test_predicted_cells_read_the_peak_law(tmp_path, monkeypatch, kind):
    # every nonsource phase of the 8-cube at gamma = pi / 17 is negative, so
    # lambda1 is far from 0 and sin^2(2 eta) is well below 1
    inst = spectra.SearchInstance.build(
        graph_spectrum(hypercube_levels(8), math.pi / 17)
    )
    monkeypatch.setattr(
        spectra, "symmetric_spectrum", lambda *args, **kwargs: inst
    )
    path = write_config(
        tmp_path, f"[experiment]\nkind = {kind}\n[run]\nq_max = 20\n"
    )
    row = run_experiment(load_config(path))[0]
    predicted = (row.predicted_peak_q, row.predicted_peak_probability)
    if row.m is None:
        plain = search.predict_spectrum(inst)
        assert predicted[0] == plain.q_m
        assert math.isclose(predicted[1], plain.peak_overlap**2, rel_tol=1e-15)
        assert predicted[1] < 0.1 / row.b_factor**2
    else:
        law = search.peak_law(row.b_prime, row.alpha, row.lambda1_boosted)
        assert predicted == law
        assert predicted[1] < 0.5 / row.b_prime**2


class TestDrawMemo:
    """Runs on one (n, seed) draw the paired spectrum's skipped normals once."""

    def test_boosted_sweep_skips_once(self, tmp_path):
        spectra._seeded_draws.cache_clear()
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 64\nseed = 1\nm = 3, 4, 5\n"
            f"[run]\nq_max = 20\nout = {tmp_path / 'sweep.csv'}\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert len(parse_report_csv(tmp_path / "sweep.csv")) == 3
        # the three rows read one draw, (n - 1)^2 skipped normals and all
        assert spectra._seeded_draws.cache_info().misses == 1

    def test_b_sweep_skips_once(self, tmp_path):
        spectra._seeded_draws.cache_clear()
        path = write_config(
            tmp_path, "[experiment]\nkind = b-sweep\n[instance]\nn = 64\nseed = 4\n"
        )
        rows = run_experiment(load_config(path))
        assert [row.b_factor for row in rows] == pytest.approx([2, 4, 8, 16])
        assert spectra._seeded_draws.cache_info().misses == 1

    def test_warm_sweep_matches_cold_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 64, 128\nseed = 1\nb_target = 4, 8\nm = 2, 3\n"
            f"[run]\nq_max = 30\nout = {tmp_path / 'warm.csv'}\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 0
        rows = []
        for each in load_sweep_configs(config):
            spectra._seeded_draws.cache_clear()
            rows.extend(run_experiment(each))
        emit_report(rows, "csv", tmp_path / "cold.csv")
        assert len(rows) == 8
        warm = (tmp_path / "warm.csv").read_bytes()
        assert warm == (tmp_path / "cold.csv").read_bytes()


# one config of each boosted kind, and the number of rows it reports
BOOSTED_KINDS = pytest.mark.parametrize(
    "body, rows",
    [
        ("kind = boosted-search\n[instance]\nn = 32\nseed = 2\n", 1),
        ("kind = divergence-demo\n[instance]\nn = 32\nseed = 7\n", 1),
        ("kind = b-sweep\n[instance]\nn = 32\nseed = 5\n", 4),
    ],
    ids=["boosted-search", "divergence-demo", "b-sweep"],
)


@pytest.mark.parametrize("q_max", ["20", ""], ids=["q_max-set", "q_max-unset"])
@BOOSTED_KINDS
def test_one_boosted_build_per_row(tmp_path, monkeypatch, body, rows, q_max):
    # b', the boosted lambda1 and the run, with its default budget too, all
    # read one boosted instance; each build evaluates the survival column once
    calls = []
    amplitude = pea.pea_amplitude

    def counted(theta, m, k):
        calls.append(m)
        return amplitude(theta, m, k)

    monkeypatch.setattr(pea, "pea_amplitude", counted)
    path = write_config(tmp_path, f"[experiment]\n{body}[run]\nq_max = {q_max}\n")
    produced = run_experiment(load_config(path))
    assert len(produced) == rows
    assert calls == [row.m for row in produced]


class TestEmission:
    def make_rows(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nkind = grover-baseline\n[instance]\nn = 16\n"
        )
        return run_experiment(load_config(path))

    def test_csv_header_and_round_trip(self, tmp_path):
        rows = self.make_rows(tmp_path)
        out = tmp_path / "report.csv"
        emit_report(rows, "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == COLUMNS
        assert len(lines) == 2
        parsed = parse_report_csv(out)[0]
        row = rows[0]
        assert parsed["experiment"] == row.experiment
        assert parsed["n"] == row.n
        assert parsed["m"] is None
        assert parsed["peak_q"] == row.peak_q
        assert np.isclose(parsed["b_factor"], row.b_factor, rtol=1e-11)
        assert np.isclose(parsed["peak_probability"], row.peak_probability, rtol=1e-11)

    def test_json_structure(self, tmp_path):
        rows = self.make_rows(tmp_path)
        out = tmp_path / "report.json"
        emit_report(rows, "json", out)
        text = out.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        entry = payload["rows"][0]
        assert entry["experiment"] == "grover-baseline"
        assert isinstance(entry["n"], int)
        assert entry["m"] is None
        assert np.isclose(entry["b_factor"], rows[0].b_factor, rtol=1e-11)

    def test_empty_report_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_report([], "csv", out)
        assert out.read_text() == COLUMNS + "\n"
        jout = tmp_path / "empty.json"
        emit_report([], "json", jout)
        assert json.loads(jout.read_text()) == {"rows": []}

    def test_unknown_format_rejected(self, tmp_path):
        out = tmp_path / "report.xml"
        with pytest.raises(ConfigError, match="format must be csv or json, got 'xml'"):
            emit_report([], "xml", out)
        assert not out.exists()


# the benchmark's reference compares these lines byte for byte, and
# ``gqsearch validate`` prints exactly them, so a renamed, added or
# reordered check changes them
VALIDATION_LINES = [
    "PASS grover probability curve",
    "PASS moment identity and pair cancellation",
    "PASS estimation amplitude grid",
    "PASS joint fixed point",
    "PASS boosted b factor split",
    "PASS cost ledger",
    "PASS dense boosted cross-check",
]


def test_run_validation_passes():
    lines = []
    assert run_validation(echo=lines.append) is True
    assert lines == VALIDATION_LINES


def nan_breakdown(inst, m):
    return pea.BPrimeBreakdown(sigma1=math.nan, sigma2=math.nan, b_prime=math.nan)


def nan_amplitude(theta, m, k):
    return np.full(np.shape(theta), math.nan)


@pytest.mark.parametrize(
    "name, poisoned, failing",
    [
        (
            "b_prime",
            nan_breakdown,
            {"boosted b factor split", "dense boosted cross-check"},
        ),
        (
            "pea_amplitude",
            nan_amplitude,
            {"estimation amplitude grid", "boosted b factor split"},
        ),
    ],
)
def test_run_validation_fails_on_nan(monkeypatch, name, poisoned, failing):
    # a NaN deviation is a failure, not a pass
    monkeypatch.setattr(pea, name, poisoned)
    lines = []
    assert run_validation(echo=lines.append) is False
    failed = {line.split(":")[0] for line in lines}
    assert {f"FAIL {check}" for check in failing} <= failed


def ini(kind, instance):
    """A config body: ``kind``, then ``instance`` (and any later sections)."""
    return f"[experiment]\nkind = {kind}\n[instance]\n{instance}\n"


# Each row is a command that must fail fast and write nothing: id, command,
# config body (None writes no config), exit code, stderr text.  It runs as
# ``gqsearch COMMAND --config config.ini`` in an empty directory.  It must
# return the row's code within 10 s, write no report, and print one stderr
# line: the code's prefix, then the row's text.  A text that ends in a
# newline is the whole line.
EXIT_PREFIX = {1: "config error: ", 2: "numerical validation failure: "}
EXIT_CASES = [
    ("missing-config", "run", None, 1, "cannot read config config.ini"),
    # ConfigParser words these over two or three lines
    ("ini-no-section-header", "run", "[experiment\nkind = grover-baseline\n",
     1, "config config.ini is not valid: File contains no section headers."),
    ("ini-bare-line", "run", "[experiment]\nkind = grover-baseline\njunk line\n",
     1, "config config.ini is not valid: Source contains parsing errors: 'config.ini'"),
    ("unknown-key", "run", "[instance]\nqubits = 4\n",
     1, "unknown config key instance.qubits"),
    ("bad-subcommand", "frobnicate", None,
     1, "argument command: invalid choice: 'frobnicate'"),
    # ConfigParser hides [DEFAULT] from sections() and copies its keys into
    # every other section
    ("default-section-alone", "run", "[DEFAULT]\nn = 8\n",
     1, "unknown config section [DEFAULT]"),
    ("default-section-beside-run", "run", "[DEFAULT]\nseed = 3\n[run]\nq_max = 4\n",
     1, "unknown config section [DEFAULT]"),
    # the config check names the key; NumPy's own message would not
    ("negative-seed-config", "run", ini("general-search", "n = 16\nseed = -1"),
     1, "seed must be nonnegative, got -1"),
    ("negative-seed-flag", "run --seed -1", ini("general-search", "n = 16"),
     1, "seed must be nonnegative, got -1"),
    ("n-below-2", "run", ini("grover-baseline", "n = 1"),
     1, "n must be at least 2, got 1\n"),
    ("n-odd", "run", ini("general-search", "n = 5"),
     1, "n must be even and at least 4, got 5\n"),
    ("n-below-4", "run", ini("general-search", "n = 2"),
     1, "n must be even and at least 4, got 2\n"),
    ("format-xml", "run", "[run]\nformat = xml\n",
     1, "format must be csv or json, got 'xml'\n"),
    # the flag's value is checked by the config, as the key's is
    ("format-xml-flag", "run --format xml", ini("grover-baseline", "n = 16"),
     1, "format must be csv or json, got 'xml'\n"),
    ("q_max-negative", "run", "[run]\nq_max = -1\n",
     1, "q_max must be nonnegative, got -1\n"),
    ("run-rejects-sweep-lists", "run", ini("general-search", "seed = 1, 2"),
     1, "config key seed holds a list"),
    ("sweep-list-of-empty-entries", "sweep", ini("general-search", "b_target = ,"),
     1, "config key b_target lists no values"),
    ("b_values-empty-entry", "sweep",
     ini("b-sweep", "n = 16\nb_values = 2, , 8\n[run]\nout = report.csv"),
     1, "config key b_values has an empty entry"),
    ("b_values-empty", "sweep", ini("b-sweep", "b_values ="),
     1, "b_values must list at least one target"),
    ("b_values-not-a-number", "run", ini("b-sweep", "b_values = 2, x"),
     1, "config key b_values: could not convert string to float: 'x'\n"),
    # each b_values entry is checked as a b_target, a key b-sweep refuses
    ("b_values-inf", "run", ini("b-sweep", "n = 16\nb_values = inf"),
     1, "b_values entry must be positive, b^2 finite, got inf"),
    ("b_values-below-floor", "run", ini("b-sweep", "n = 16\nb_values = 0.5"),
     1, "b_values entry 0.5 is below the floor"),
    ("b_values-phase-rounds-to-0", "run", ini("b-sweep", "n = 16\nb_values = 2, 1e20"),
     1, "b_values entry 1e+20 puts a pair phase within rounding"),
    # theta_max < pi keeps a pair's two phases distinct: a pair phase of pi
    # would pair with pi itself
    ("pair-phase-of-pi", "run",
     ini("general-search", f"n = 16\ntheta_min = {math.pi!r}\ntheta_max = {math.pi!r}"),
     1, "need 0 < theta_min <= theta_max < pi"),
    ("ancilla-count-out-of-range", "run", ini("boosted-search", "n = 16\nm = 50"),
     1, "ancilla qubit count m must lie in [1, 49], got 50"),
    # values out of range: a config mistake, not a traceback, a numerical
    # failure, or a run of minutes.  NumPy words an allocation failure, so
    # those rows check the prefix alone.
    ("b_target-1.35e154", "run", ini("general-search", "n = 16\nb_target = 1.35e154"),
     1, "b_target must be positive, b^2 finite, got 1.35e+154"),
    ("b_target-1.7e308", "run", ini("general-search", "n = 16\nb_target = 1.7e308"),
     1, "b_target must be positive, b^2 finite, got 1.7e+308"),
    ("resonance_m-boosted", "run",
     ini("boosted-search", "n = 16\nfamily = resonant\nm = 2\nresonance_m = 1024"),
     1, "ancilla qubit count m must lie in [1, 49], got 1024"),
    ("resonance_m-divergence", "run",
     ini("divergence-demo", "n = 16\nresonance_m = 1100"),
     1, "ancilla qubit count m must lie in [1, 49], got 1100"),
    ("alpha-squared-underflow-boosted", "run",
     ini("boosted-search", "n = 16\nalpha = 1e-163"),
     1, "source-target overlap must lie in (0, 1), alpha^2 > 0, got 1e-163"),
    ("alpha-squared-underflow-plain", "run",
     ini("general-search", "n = 16\nalpha = 1e-170"),
     1, "source-target overlap must lie in (0, 1), alpha^2 > 0, got 1e-170"),
    ("b_target-phase-rounds-to-0-5e14", "run",
     ini("general-search", "n = 16\nb_target = 5e14"),
     1, "b_target 500000000000000.0 puts a pair phase within rounding of 0"),
    ("b_target-phase-rounds-to-0-1e20", "run",
     ini("general-search", "n = 16\nb_target = 1e20"),
     1, "b_target 1e+20 puts a pair phase within rounding of 0"),
    ("default-budget-past-ceiling-b_target-1e7", "run",
     ini("general-search", "n = 16\nb_target = 1e7"),
     1, "default budget q_max = 6.28e+07 is past the norm drift ceiling"),
    ("default-budget-past-ceiling-b_target-1e10", "run",
     ini("general-search", "n = 16\nb_target = 1e10"),
     1, "default budget q_max = 6.28e+10 is past the norm drift ceiling"),
    ("default-budget-past-ceiling-alpha-1e-150", "run",
     ini("general-search", "n = 16\nalpha = 1e-150"),
     1, "default budget q_max = 3.51e+150 is past the norm drift ceiling"),
    ("explicit-q_max-too-large-to-allocate", "run",
     ini("general-search", "n = 16\n[run]\nq_max = 100000000000"), 1, ""),
    ("theta_min-phase-rounds-to-0-plain", "run",
     ini("general-search", "n = 16\ntheta_min = 1e-15\ntheta_max = 1e-15"),
     1, "theta_min 1e-15 puts a pair phase within rounding of 0"),
    ("theta_min-phase-rounds-to-0-boosted", "run",
     ini("boosted-search", "n = 16\ntheta_min = 1e-15\ntheta_max = 1e-15"),
     1, "theta_min 1e-15 puts a pair phase within rounding of 0"),
    ("default-budget-past-ceiling-grover-1e15", "run",
     ini("grover-baseline", "n = 1000000000000000"),
     1, "default budget q_max = 4.97e+07 is past the norm drift ceiling"),
    ("n-too-large-to-allocate-general-search", "run",
     ini("general-search", "n = 1000000000000000"), 1, ""),
    # 1 / sqrt(n) overflows past float range; the default alpha^2 is 1 / n
    ("n-past-float-range-grover-baseline", "run",
     ini("grover-baseline", f"n = {10**400}"),
     1, "n of 1329 bits rounds the default alpha^2 = 1/n to 0\n"),
    ("n-past-float-range-general-search", "run",
     ini("general-search", f"n = {10**400}"),
     1, "n of 1329 bits rounds the default alpha^2 = 1/n to 0\n"),
    # NumPy's own message for an array past its largest names no n
    ("n-past-largest-array-general-search", "run",
     ini("general-search", f"n = {10**20}"),
     1, "n of 67 bits is past NumPy's largest array; lower n\n"),
    ("n-past-largest-array-b-sweep", "run", ini("b-sweep", f"n = {10**309}"),
     1, "n of 1027 bits is past NumPy's largest array; lower n\n"),
    # a key the kind does not read would otherwise be ignored in silence
    ("grover-baseline-alpha", "run", ini("grover-baseline", "n = 16\nalpha = 0.3"),
     1, "grover-baseline does not read alpha\n"),
    ("general-search-m", "run", ini("general-search", "n = 16\nm = 4"),
     1, "general-search does not read m\n"),
    ("resonant-b_target", "run",
     ini("general-search", "n = 16\nfamily = resonant\nb_target = 9"),
     1, "general-search does not read b_target\n"),
    ("symmetric-epsilon", "run",
     ini("general-search", "n = 16\nfamily = symmetric\nepsilon = 0.1"),
     1, "general-search does not read epsilon\n"),
    ("b-sweep-b_target", "run", ini("b-sweep", "n = 16\nb_target = 8"),
     1, "b-sweep does not read b_target\n"),
    ("divergence-demo-family", "run",
     ini("divergence-demo", "n = 16\nfamily = resonant"),
     1, "divergence-demo does not read family\n"),
    ("sweep-general-search-m", "sweep", ini("general-search", "n = 16\nm = 3, 4"),
     1, "general-search does not read m\n"),
    # the divergence demo's naive power lands on the resonance.  At epsilon
    # = 1e-18 every detuning rounds away and the 8x power drives the whole
    # band onto 2 pi exactly; detunings of at most 1e-15 leave 2^m theta
    # within rounding of 2 pi (some wraps are 0.0, others are not); at m = 1
    # the pair phases round to pi
    ("divergence-epsilon-1e-18", "run",
     ini("divergence-demo", "n = 16\nseed = 3\nepsilon = 1e-18"),
     2, "power 8 drives eigenvector"),
    ("divergence-epsilon-1e-15-m3", "run",
     ini("divergence-demo", "n = 16\nseed = 3\nepsilon = 1e-15\nresonance_m = 3"),
     2, "power 8 drives eigenvector"),
    ("divergence-epsilon-1e-15-m4", "run",
     ini("divergence-demo", "n = 16\nseed = 3\nepsilon = 1e-15\nresonance_m = 4"),
     2, "power 16 drives eigenvector"),
    ("divergence-pair-phase-pi-m1", "run",
     ini("divergence-demo", "n = 16\nresonance_m = 1\nepsilon = 1e-17"),
     2, "power 2 drives eigenvector"),
]

# one of each class the command line turns into exit 2
NUMERICAL_FAILURES = [
    spectra.SpectrumValidationError("weights do not sum to 1"),
    spectra.ResonanceError("phase resonates"),
    linalg.EigensolverError("eigendecomposition failed", 1.0),
    search.NormDriftError("norm drifted"),
    search.RelevantPairError("pair not isolated"),
]


class TestCli:
    def test_validate_exits_zero(self, capsys):
        assert cli.main(["validate"]) == 0
        out, err = capsys.readouterr()
        assert out == "".join(f"{line}\n" for line in VALIDATION_LINES)
        assert err == ""

    def test_run_writes_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = grover-baseline\n[instance]\nn = 16\n"
            f"[run]\nout = {tmp_path / 'out.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        assert "wrote 1 row(s)" in capsys.readouterr().out
        assert (tmp_path / "out.csv").exists()
        assert parse_report_csv(tmp_path / "out.csv")[0]["n"] == 16

    def test_run_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path, "[experiment]\nkind = grover-baseline\n[instance]\nn = 16\n"
        )
        assert cli.main(["run", "--config", str(config), "--format", "json"]) == 0
        capsys.readouterr()
        assert (tmp_path / "report.json").exists()

    def test_run_at_q_max_zero_reports_the_start(self, tmp_path, capsys):
        # a budget of no steps is valid: the peak is the start, alpha^2 = 1/16
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n[instance]\nn = 16\n"
            f"[run]\nq_max = 0\nout = {tmp_path / 'start.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        [row] = parse_report_csv(tmp_path / "start.csv")
        assert (row["peak_q"], row["peak_probability"]) == (0, 0.0625)
        assert row["oracle_queries_at_peak"] == row["ds_applications_at_peak"] == 0

    def test_run_seed_override(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 16\nseed = 1\nalpha = 0.1\n"
            f"[run]\nout = {tmp_path / 'seeded.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config), "--seed", "42"]) == 0
        capsys.readouterr()
        assert parse_report_csv(tmp_path / "seeded.csv")[0]["seed"] == 42

    def test_sweep_combines_rows(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 16\nseed = 1, 2\nalpha = 0.1\n"
            f"[run]\nout = {tmp_path / 'sweep.csv'}\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert "wrote 2 row(s)" in capsys.readouterr().out
        rows = parse_report_csv(tmp_path / "sweep.csv")
        assert [row["seed"] for row in rows] == [1, 2]

    def test_sweep_runs_an_empty_entry_as_the_default(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 64\nseed = 1,2\nb_target = ,8\n"
            f"[run]\nout = {tmp_path / 'sweep.csv'}\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert "wrote 4 row(s)" in capsys.readouterr().out
        rows = parse_report_csv(tmp_path / "sweep.csv")
        assert [row["seed"] for row in rows] == [1, 1, 2, 2]
        unscaled, scaled = rows[0::2], rows[1::2]
        assert math.isclose(unscaled[0]["b_factor"], 2.3755, rel_tol=1e-4)
        assert all(not math.isclose(row["b_factor"], 8.0) for row in unscaled)
        assert all(math.isclose(row["b_factor"], 8.0) for row in scaled)

    def test_sweep_names_its_keys_for_an_unsweepable_list(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 16\nfamily = symmetric, resonant\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "config key family holds a list" in err
        assert "expanded by the sweep command" not in err
        assert "alpha, b_target, epsilon, m, n, q_max, resonance_m, seed" in err

    @pytest.mark.parametrize("case", EXIT_CASES, ids=lambda case: case[0])
    def test_exit_case(self, tmp_path, monkeypatch, capsys, case):
        _, command, body, code, text = case
        monkeypatch.chdir(tmp_path)
        if body is not None:
            write_config(tmp_path, body)
        start = time.monotonic()
        assert cli.main([*command.split(), "--config", "config.ini"]) == code
        assert time.monotonic() - start < 10
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(EXIT_PREFIX[code] + text)
        assert err.endswith("\n") and err.count("\n") == 1
        assert {path.name for path in tmp_path.iterdir()} <= {"config.ini"}

    def test_no_command_is_config_error(self, capsys):
        assert cli.main([]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: a command is required: run, sweep, or validate\n"

    def test_out_into_a_missing_directory_is_io_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, ini("grover-baseline", "n = 16"))
        out = str(tmp_path / "absent" / "report.csv")
        assert cli.main(["run", "--config", "config.ini", "--out", out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("io error: ")
        assert err.endswith("\n") and err.count("\n") == 1
        assert {path.name for path in tmp_path.iterdir()} == {"config.ini"}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unread_key_is_refused_before_out_is_claimed(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, ini("grover-baseline", "n = 16\nalpha = 0.3"))
        out = str(tmp_path / "absent" / "report.csv")
        assert cli.main([command, "--config", "config.ini", "--out", out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == "config error: grover-baseline does not read alpha\n"
        assert {path.name for path in tmp_path.iterdir()} == {"config.ini"}

    def test_out_is_claimed_before_the_first_run(self, tmp_path, monkeypatch, capsys):
        # this body's run fails numerically, exit 2; an unwritable --out is
        # found first, exit 1, and an existing report survives the failure
        def failing(config):
            raise spectra.ResonanceError("run_experiment was called")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", failing)
        write_config(tmp_path, ini("divergence-demo", "n = 16\nseed = 3\nepsilon = 1e-18"))
        out = str(tmp_path / "absent" / "r.csv")
        assert cli.main(["run", "--config", "config.ini", "--out", out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("io error: ")
        assert err.endswith("\n") and err.count("\n") == 1
        assert {path.name for path in tmp_path.iterdir()} == {"config.ini"}
        (tmp_path / "report.csv").write_text("kept\n", encoding="ascii")
        assert cli.main(["run", "--config", "config.ini"]) == 2
        assert "run_experiment was called" in capsys.readouterr().err
        assert (tmp_path / "report.csv").read_text(encoding="ascii") == "kept\n"

    def test_boosted_search_takes_ten_ancillas_at_b_1000(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 1024\nb_target = 1000\n"
            f"[run]\nout = {tmp_path / 'boost.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        [row] = parse_report_csv(tmp_path / "boost.csv")
        assert row["m"] == 10
        assert row["peak_probability"] >= 0.7

    @pytest.mark.parametrize(
        "theta, alpha, m",
        [(math.pi / 4, 0.1, 3), (3 * math.pi / 4, 0.25, 3), (3 * math.pi / 4, 0.25, 4)],
        ids=["pi/4-3", "3pi/4-3", "3pi/4-4"],
    )
    def test_resonant_boost_exits_zero(self, tmp_path, capsys, theta, alpha, m):
        # every pair phase resonates at 2^m, exactly or to rounding: the
        # pairs drop out of the boost, and b' is finite and matches the
        # dense joint check
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            f"[instance]\nn = 16\nseed = 3\nalpha = {alpha}\n"
            f"theta_min = {theta!r}\ntheta_max = {theta!r}\nm = {m}\n"
            f"[run]\nout = {tmp_path / 'boost.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        row = parse_report_csv(tmp_path / "boost.csv")[0]
        spec = spectra.symmetric_spectrum(16, 3, theta, theta, alpha=alpha)
        dense = pea.dense_b_prime_check(spectra.SearchInstance.build(spec), m)
        assert abs(row["b_prime"] - dense) <= 1e-12
        assert row["lambda1_boosted"] == 0.0

    def test_long_boosted_run_exits_zero(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 64\nseed = 1\nm = 3\n"
            f"[run]\nq_max = 3000\nout = {tmp_path / 'long.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        assert parse_report_csv(tmp_path / "long.csv")[0]["m"] == 3

    def test_b_target_one_float_above_the_floor_is_not_a_numerical_failure(
        self, tmp_path, capsys
    ):
        # one float above this instance's floor: the floor check admits it,
        # so the largest pair phase must not round to pi
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            "[instance]\nn = 16\nseed = 31\nalpha = 0.25\n"
            "b_target = 1.152621919650269\n"
            f"[run]\nout = {tmp_path / 'floor.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) in (0, 1)
        assert "numerical validation failure" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error", NUMERICAL_FAILURES, ids=lambda error: type(error).__name__
    )
    def test_numerical_failure_class_exits_two(
        self, tmp_path, monkeypatch, capsys, error
    ):
        def failing(config):
            raise error

        assert set(linalg.NumericalFailure.__subclasses__()) == {
            type(each) for each in NUMERICAL_FAILURES
        }
        monkeypatch.setattr(cli, "run_experiment", failing)
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n"
            f"[run]\nout = {tmp_path / 'never.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"{EXIT_PREFIX[2]}{error}\n"
        assert not (tmp_path / "never.csv").exists()

    def test_norm_drift_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(search, "NORM_DRIFT_LIMIT", 1e-18)
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 16\nseed = 1\nm = 2\n"
            f"[run]\nq_max = 50\nout = {tmp_path / 'never.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "numerical validation failure" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

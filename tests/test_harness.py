"""Config parsing, experiment dispatch, report emission, CLI exit codes."""

import json
import math

import numpy as np
import pytest

from gqsearch import cli, search, spectra
from gqsearch.harness import (
    ConfigError,
    emit_report,
    load_config,
    load_sweep_configs,
    parse_report_csv,
    run_experiment,
    run_validation,
)

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
        assert config.fmt == "csv"

    def test_empty_values_fall_back_to_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            "[instance]\nalpha =\nb_target =\n[run]\nq_max =\nout =\n",
        )
        config = load_config(path)
        assert config.alpha is None
        assert config.b_target is None
        assert config.q_max is None
        assert config.out is None

    def test_values_are_typed(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 32\nseed = 9\nalpha = 0.125\nm = 3\n"
            "[run]\nq_max = 40\nformat = json\n",
        )
        config = load_config(path)
        assert config.n == 32 and isinstance(config.n, int)
        assert config.alpha == 0.125
        assert config.m == 3
        assert config.q_max == 40
        assert config.fmt == "json"

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nqubits = 6\n")
        with pytest.raises(ConfigError, match="qubits"):
            load_config(path)

    def test_bad_integer_rejected(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nn = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nkind = quantum-stuff\n")
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)

    def test_bad_family_rejected(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nfamily = chaotic\n")
        with pytest.raises(ConfigError, match="family"):
            load_config(path)

    def test_comma_list_rejected_outside_sweep(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nseed = 1,2,3\n")
        with pytest.raises(ConfigError, match="sweep"):
            load_config(path)

    def test_b_values_list_is_not_a_sweep(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nb_values = 2, 8\n")
        assert load_config(path).b_values == (2.0, 8.0)

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, "[instance]\nseed = 4\n")
        assert load_config(path, seed=99).seed == 99

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestSweepExpansion:
    def test_cartesian_product_in_file_order(self, tmp_path):
        path = write_config(
            tmp_path,
            "[instance]\nseed = 1, 2, 3\nalpha = 0.1, 0.2\n",
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

    def test_csv_bytes_are_deterministic(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        emit_report(self.make_rows(tmp_path), "csv", first)
        emit_report(self.make_rows(tmp_path), "csv", second)
        assert first.read_bytes() == second.read_bytes()

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
        with pytest.raises(ConfigError):
            emit_report([], "xml", tmp_path / "report.xml")


def test_run_validation_passes():
    lines = []
    assert run_validation(echo=lines.append) is True
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 5


class TestCli:
    def test_validate_exits_zero(self, capsys):
        assert cli.main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out

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

    def test_sweep_list_of_empty_entries_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n[instance]\nb_target = ,\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 1
        assert "config key b_target lists no values" in capsys.readouterr().err

    def test_b_values_empty_entry_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = b-sweep\n[instance]\nn = 16\n"
            "b_values = 2, , 8\n[run]\nout = report.csv\n",
        )
        assert cli.main(["sweep", "--config", str(config)]) == 1
        assert "config key b_values has an empty entry" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_empty_b_values_lists_no_target(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "[experiment]\nkind = b-sweep\n[instance]\nb_values =\n"
        )
        assert cli.main(["sweep", "--config", str(config)]) == 1
        assert "b_values must list at least one target" in capsys.readouterr().err

    def test_pair_phase_of_pi_is_config_error(self, tmp_path, capsys):
        # a pair phase of pi would put its partner at -pi, outside (-pi, pi]
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n[instance]\nn = 16\n"
            f"theta_min = {math.pi!r}\ntheta_max = {math.pi!r}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "theta_max < pi" in capsys.readouterr().err

    def test_run_rejects_sweep_lists(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = general-search\n[instance]\nseed = 1, 2\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        capsys.readouterr()

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

    def test_ancilla_count_out_of_range_is_usage_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n[instance]\nn = 16\nm = 9\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "ancilla qubit count m must lie in [1, 8], got 9" in (
            capsys.readouterr().err
        )

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "absent.ini")]) == 1
        capsys.readouterr()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "[instance]\nqubits = 4\n")
        assert cli.main(["run", "--config", str(config)]) == 1
        capsys.readouterr()

    def test_bad_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        # every pair phase at pi/4 exactly: the 8x power drives the whole
        # band onto a 2*pi multiple and the boosted moment must refuse
        config = write_config(
            tmp_path,
            "[experiment]\nkind = boosted-search\n"
            "[instance]\nn = 16\nseed = 3\nalpha = 0.1\n"
            f"theta_min = {math.pi / 4!r}\ntheta_max = {math.pi / 4!r}\nm = 3\n"
            f"[run]\nout = {tmp_path / 'never.csv'}\n",
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        capsys.readouterr()
        assert not (tmp_path / "never.csv").exists()

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

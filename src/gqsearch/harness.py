"""Experiment orchestration: configs in, deterministic report rows out.

Config files are flat ``key = value`` text with three sections:

    [experiment]
    kind = grover-baseline | general-search | boosted-search |
           divergence-demo | b-sweep          (default grover-baseline)

    [instance]
    n = 64                main dimension (even, >= 4 for random families)
    seed = 1              generator seed
    family = symmetric    symmetric | resonant (boosted-search only)
    theta_min = 0.5       lower edge of the raw phase band, above 0
    theta_max = 1.5       upper edge of the raw phase band, below pi
    alpha =               source-target overlap; empty = 1/sqrt(n)
    b_target =            rescale phases to hit this b factor; empty = off
    epsilon = 0.001       resonant-family detuning
    resonance_m = 3       resonant-family power exponent (r = 2^resonance_m)
    m =                   ancilla override for boosted runs; empty = auto
    b_values = 2,4,8,16   b-sweep targets (comma list, no empty entry)

    [run]
    q_max =               iteration budget; empty = auto per experiment
    out =                 output path; empty = report.<format>
    format = csv          csv | json

Unknown sections or keys are rejected.  The ``sweep`` entry point accepts
comma lists in most numeric keys and expands their cartesian product into
one combined report.  Identical configs always produce byte-identical
reports.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass

import numpy as np

from . import pea, search, spectra

DEFAULT_B_VALUES = (2.0, 4.0, 8.0, 16.0)

EXPERIMENT_KINDS = (
    "grover-baseline",
    "general-search",
    "boosted-search",
    "divergence-demo",
    "b-sweep",
)


class ConfigError(ValueError):
    """Config file is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "grover-baseline"
    n: int = 64
    seed: int = 1
    family: str = "symmetric"
    theta_min: float = 0.5
    theta_max: float = 1.5
    alpha: float | None = None
    b_target: float | None = None
    epsilon: float = 1e-3
    resonance_m: int = 3
    m: int | None = None
    b_values: tuple[float, ...] = DEFAULT_B_VALUES
    q_max: int | None = None
    out: str | None = None
    fmt: str = "csv"


@dataclass(frozen=True)
class ReportRow:
    """One experiment outcome with full provenance.

    Field order is the report column order.  None fields render as empty
    CSV cells and JSON nulls; they mark quantities the experiment does not
    define (for example b_prime on a plain search run).
    """

    experiment: str
    n: int
    seed: int
    alpha: float
    b_factor: float
    theta_min: float
    m: int | None
    r: int | None
    b_prime: float | None
    lambda1: float
    lambda1_boosted: float | None
    naive_b_r: float | None
    peak_q: int
    peak_probability: float
    oracle_queries_at_peak: int
    ds_applications_at_peak: int
    predicted_peak_q: int
    predicted_peak_probability: float


_SCHEMA = {
    "experiment": ("kind",),
    "instance": (
        "n",
        "seed",
        "family",
        "theta_min",
        "theta_max",
        "alpha",
        "b_target",
        "epsilon",
        "resonance_m",
        "m",
        "b_values",
    ),
    "run": ("q_max", "out", "format"),
}

# keys the sweep entry point may expand from comma lists
_SWEEPABLE = {
    "n",
    "seed",
    "theta_min",
    "theta_max",
    "alpha",
    "b_target",
    "epsilon",
    "resonance_m",
    "m",
    "q_max",
}


def _read_raw(path) -> dict[str, str]:
    parser = ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigParserError as exc:
        raise ConfigError(f"config {path} is not valid: {exc}") from exc
    raw: dict[str, str] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[key] = value.strip()
    return raw


def _parse_scalar(key: str, text: str):
    if text == "":
        return None
    try:
        if key in ("n", "seed", "resonance_m", "m", "q_max"):
            return int(text)
        if key in ("theta_min", "theta_max", "alpha", "b_target", "epsilon"):
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc
    return text


def _build_config(raw: dict[str, str], overrides: dict) -> ExperimentConfig:
    values: dict = {}
    for key, text in raw.items():
        if key == "kind":
            values["kind"] = text
        elif key == "format":
            values["fmt"] = text
        elif key == "out":
            values["out"] = text or None
        elif key == "b_values":
            values["b_values"] = _parse_b_values(text)
        else:
            if "," in text:
                raise ConfigError(
                    f"config key {key} holds a list; only the sweep command "
                    "expands lists, and only for the keys "
                    f"{', '.join(sorted(_SWEEPABLE))}"
                )
            parsed = _parse_scalar(key, text)
            if parsed is not None:
                values[key] = parsed
    values.update(overrides)
    config = ExperimentConfig(**values)
    _check_config(config)
    return config


def _parse_b_values(text: str) -> tuple[float, ...]:
    """The b-sweep targets; an empty entry next to a target is an error."""
    parts = [part.strip() for part in text.split(",")]
    if any(parts) and not all(parts):
        raise ConfigError(f"config key b_values has an empty entry: {text!r}")
    try:
        return tuple(float(part) for part in parts if part)
    except ValueError as exc:
        raise ConfigError(f"config key b_values: {exc}") from exc


def _check_config(config: ExperimentConfig) -> None:
    if config.kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {config.kind!r}; "
            f"choose from {', '.join(EXPERIMENT_KINDS)}"
        )
    if config.family not in ("symmetric", "resonant"):
        raise ConfigError(f"unknown instance family {config.family!r}")
    if config.fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.fmt!r}")
    if config.n < 2:
        raise ConfigError(f"n must be at least 2, got {config.n}")
    if config.q_max is not None and config.q_max < 0:
        raise ConfigError(f"q_max must be nonnegative, got {config.q_max}")
    if not config.b_values:
        raise ConfigError("b_values must list at least one target")


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse one config file; keyword overrides win over file values."""
    return _build_config(_read_raw(path), overrides)


def load_sweep_configs(path, **overrides) -> list[ExperimentConfig]:
    """Expand comma lists in a config into the cartesian product of runs.

    An empty entry runs the key's empty meaning, as an empty value does in
    a single config: ``b_target = , 8`` sweeps no rescaling and b = 8.
    """
    raw = _read_raw(path)
    axes: list[tuple[str, list[str]]] = []
    fixed: dict[str, str] = {}
    for key, text in raw.items():
        if key in _SWEEPABLE and "," in text:
            parts = [part.strip() for part in text.split(",")]
            if not any(parts):
                raise ConfigError(f"config key {key} lists no values")
            axes.append((key, parts))
        else:
            fixed[key] = text
    if not axes:
        return [_build_config(fixed, overrides)]
    configs = []
    for combo in itertools.product(*(parts for _, parts in axes)):
        merged = dict(fixed)
        merged.update({key: value for (key, _), value in zip(axes, combo)})
        configs.append(_build_config(merged, overrides))
    return configs


def _symmetric_instance(config: ExperimentConfig, b_target=None):
    spectrum = spectra.symmetric_spectrum(
        config.n,
        config.seed,
        config.theta_min,
        config.theta_max,
        alpha=config.alpha,
        b_target=config.b_target if b_target is None else b_target,
    )
    return spectra.SearchInstance.build(spectrum)


def _resonant_instance(config: ExperimentConfig):
    spectrum = spectra.resonant_spectrum(
        config.n,
        config.resonance_m,
        config.epsilon,
        config.seed,
        alpha=config.alpha,
    )
    return spectra.SearchInstance.build(spectrum)


def _plain_row(kind: str, config: ExperimentConfig, inst) -> ReportRow:
    predicted = search.predict_spectrum(inst)
    q_max = config.q_max if config.q_max is not None else 2 * predicted.q_m
    report = search.run_iterations(inst, q_max)
    at_peak = report.records[report.peak_q]
    return ReportRow(
        experiment=kind,
        n=inst.dimension,
        seed=config.seed,
        alpha=inst.alpha,
        b_factor=inst.b_factor,
        theta_min=inst.theta_min,
        m=None,
        r=None,
        b_prime=None,
        lambda1=inst.lambda1,
        lambda1_boosted=None,
        naive_b_r=None,
        peak_q=report.peak_q,
        peak_probability=report.peak_probability,
        oracle_queries_at_peak=at_peak.oracle_queries,
        ds_applications_at_peak=at_peak.ds_applications,
        predicted_peak_q=predicted.q_m,
        predicted_peak_probability=1.0 / inst.b_factor**2,
    )


def _boosted_row(
    kind: str, config: ExperimentConfig, inst, m: int, naive_b_r=None
) -> ReportRow:
    breakdown = pea.b_prime(inst, m)
    lam1_boosted = pea.boosted_lambda1(inst, m)
    report = pea.boosted_search_run(inst, m, config.q_max)
    at_peak = report.records[report.peak_q]
    return ReportRow(
        experiment=kind,
        n=inst.dimension,
        seed=config.seed,
        alpha=inst.alpha,
        b_factor=inst.b_factor,
        theta_min=inst.theta_min,
        m=m,
        r=2**m,
        b_prime=breakdown.b_prime,
        lambda1=inst.lambda1,
        lambda1_boosted=lam1_boosted,
        naive_b_r=naive_b_r,
        peak_q=report.peak_q,
        peak_probability=report.peak_probability,
        oracle_queries_at_peak=at_peak.oracle_queries,
        ds_applications_at_peak=at_peak.ds_applications,
        predicted_peak_q=search.peak_iteration(breakdown.b_prime, inst.alpha),
        predicted_peak_probability=1.0 / breakdown.b_prime**2,
    )


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    """Execute one configured experiment; deterministic for fixed seeds."""
    if config.kind == "grover-baseline":
        uniform = np.full(config.n, 1.0 / math.sqrt(config.n), dtype=np.complex128)
        spectrum = spectra.grover_spectrum(config.n, uniform)
        inst = spectra.SearchInstance.build(spectrum)
        return [_plain_row(config.kind, config, inst)]

    if config.kind == "general-search":
        return [_plain_row(config.kind, config, _symmetric_instance(config))]

    if config.kind == "boosted-search":
        if config.family == "resonant":
            inst = _resonant_instance(config)
        else:
            inst = _symmetric_instance(config)
        m = config.m if config.m is not None else pea.default_ancilla_count(
            inst.b_factor
        )
        return [_boosted_row(config.kind, config, inst, m)]

    if config.kind == "divergence-demo":
        inst = _resonant_instance(config)
        r = 2**config.resonance_m
        naive = spectra.naive_power_b(inst, r)
        m = config.m if config.m is not None else config.resonance_m
        return [_boosted_row(config.kind, config, inst, m, naive_b_r=naive)]

    if config.kind == "b-sweep":
        rows = []
        for b_value in config.b_values:
            inst = _symmetric_instance(config, b_target=b_value)
            m = config.m if config.m is not None else pea.default_ancilla_count(
                inst.b_factor
            )
            rows.append(_boosted_row(config.kind, config, inst, m))
        return rows

    raise ConfigError(f"unknown experiment kind {config.kind!r}")


_INT_FIELDS = {
    "n",
    "seed",
    "m",
    "r",
    "peak_q",
    "oracle_queries_at_peak",
    "ds_applications_at_peak",
    "predicted_peak_q",
}


def _field_names() -> list[str]:
    return [field.name for field in dataclasses.fields(ReportRow)]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12g}"


def emit_report(rows: list[ReportRow], fmt: str, path) -> None:
    """Write rows as CSV or JSON; overwrites; byte-stable for fixed rows."""
    names = _field_names()
    if fmt == "csv":
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for row in rows:
                cells = [_csv_cell(getattr(row, name)) for name in names]
                fh.write(",".join(cells) + "\n")
        return
    if fmt == "json":
        payload = []
        for row in rows:
            entry = {}
            for name in names:
                value = getattr(row, name)
                if isinstance(value, float):
                    value = float(f"{value:.12g}")
                elif value is not None and name in _INT_FIELDS:
                    value = int(value)
                entry[name] = value
            payload.append(entry)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump({"rows": payload}, fh, indent=2)
            fh.write("\n")
        return
    raise ConfigError(f"format must be csv or json, got {fmt!r}")


def parse_report_csv(path) -> list[dict]:
    """Read back an emitted CSV into dicts of typed values (for checks)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        entry = {}
        for name, cell in zip(names, cells):
            if cell == "":
                entry[name] = None
            elif name in _INT_FIELDS:
                entry[name] = int(cell)
            elif name == "experiment":
                entry[name] = cell
            else:
                entry[name] = float(cell)
        rows.append(entry)
    return rows


def _validation_checks():
    """Yield (name, callable) pairs; each callable raises on failure."""

    def grover_curve():
        n = 64
        uniform = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
        inst = spectra.SearchInstance.build(spectra.grover_spectrum(n, uniform))
        report = search.run_iterations(inst, 12)
        angle = math.asin(inst.alpha)
        for rec in report.records:
            expected = math.sin((2 * rec.q + 1) * angle) ** 2
            if abs(rec.target_probability - expected) > 1e-10:
                raise AssertionError(
                    f"q={rec.q}: {rec.target_probability} vs {expected}"
                )

    def moment_identity():
        spectrum = spectra.symmetric_spectrum(32, 3, 0.4, 1.2)
        inst = spectra.SearchInstance.build(spectrum)
        lhs = inst.b_factor**2
        rhs = 1.0 + inst.lambda2 - inst.alpha**2
        if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
            raise AssertionError(f"{lhs} vs {rhs}")
        if abs(inst.lambda1) > 1e-10:
            raise AssertionError(f"lambda1 = {inst.lambda1}")

    def amplitude_grid():
        for m in (1, 2, 3, 4):
            for theta in np.linspace(-np.pi + 1e-3, np.pi, 17):
                eye = np.eye(2, dtype=np.complex128)
                spectrum = spectra.EigenSpectrum(np.array([0.0, theta]), eye)
                blocks = np.zeros((2**m, 2, 1), dtype=np.complex128)
                blocks[0, 1, 0] = 1.0
                after = pea.pea_operator(spectrum, m, blocks)
                measured = float(np.linalg.norm(after[0]))
                expected = pea.pea_amplitude(theta, m, 0)
                if abs(measured - expected) > 1e-10:
                    raise AssertionError(f"m={m} theta={theta}: deviation")

    def fixed_point():
        spectrum = spectra.symmetric_spectrum(16, 5, 0.3, 1.0)
        blocks = np.zeros((4, 16, 1), dtype=np.complex128)
        blocks[0, :, 0] = spectrum.source_state
        for op in (pea.pea_operator, pea.boosted_diffusion):
            moved = op(spectrum, 2, blocks)
            if np.max(np.abs(moved - blocks)) > 1e-12:
                raise AssertionError(f"{op.__name__} moved the joint source")

    def sigma_split():
        inst = spectra.SearchInstance.build(spectra.resonant_spectrum(16, 3, 1e-3, 9))
        for m in (1, 2, 3):
            breakdown = pea.b_prime(inst, m)
            if breakdown.sigma1 > 1.0:
                raise AssertionError(f"sigma1 = {breakdown.sigma1}")
            phases = inst.nonsource_phases()
            weights = inst.nonsource_weights()
            live = weights > 0.0
            survival = pea.pea_amplitude(phases[live], m, 0) ** 2
            termwise = float(
                np.sum(
                    weights[live]
                    * survival
                    / np.sin(2.0 ** (m - 1) * phases[live]) ** 2
                )
            )
            if abs(termwise - breakdown.sigma2) > 1e-9:
                raise AssertionError(f"{termwise} vs {breakdown.sigma2}")

    def cost_ledger():
        inst = spectra.SearchInstance.build(spectra.symmetric_spectrum(8, 2, 0.5, 1.5))
        report = pea.boosted_search_run(inst, 2, 3)
        for rec in report.records:
            if rec.oracle_queries != rec.q:
                raise AssertionError("oracle count drifted")
            if rec.ds_applications != rec.q * (3 * 4 - 2):
                raise AssertionError("ds ledger drifted")

    def dense_boost():
        inst = spectra.SearchInstance.build(spectra.resonant_spectrum(8, 2, 1e-2, 4))
        analytic = pea.b_prime(inst, 2).b_prime
        dense = pea.dense_b_prime_check(inst, 2)
        if abs(analytic - dense) > 1e-6:
            raise AssertionError(f"{analytic} vs {dense}")

    return [
        ("grover probability curve", grover_curve),
        ("moment identity and pair cancellation", moment_identity),
        ("estimation amplitude grid", amplitude_grid),
        ("joint fixed point", fixed_point),
        ("boosted b factor split", sigma_split),
        ("cost ledger", cost_ledger),
        ("dense boosted cross-check", dense_boost),
    ]


def run_validation(echo=print) -> bool:
    """Run the invariant suite, printing one pass/fail line per check."""
    all_ok = True
    for name, check in _validation_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            all_ok = False
            echo(f"FAIL {name}: {exc}")
        else:
            echo(f"PASS {name}")
    return all_ok

"""Experiment orchestration: configs in, deterministic report rows out.

Config files are flat ``key = value`` text in the sections ``[experiment]``,
``[instance]`` and ``[run]``.  ``ExperimentConfig`` declares each key once:
its section, its value type and its default.  Unknown sections, keys in
the wrong section and a ``[DEFAULT]`` section are rejected.

An empty value keeps the key's default, except in ``b_values``, where it
lists no target.  ``b_values`` is always a comma list and ``out`` is a path
that may hold a comma.  In any other key a comma list is an error, except
that the ``sweep`` entry point expands lists in the int and float keys into
the cartesian product of their values and runs it as one combined report.
Identical configs always produce byte-identical reports.
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

# [instance] keys each experiment kind reads besides n and seed; the kinds
# that read m run boosted, the others plain
_KIND_READS = {
    "grover-baseline": (),
    "general-search": ("family",),
    "boosted-search": ("family", "m"),
    "divergence-demo": ("alpha", "epsilon", "resonance_m", "m"),
    "b-sweep": ("theta_min", "theta_max", "alpha", "b_values", "m"),
}
# [instance] keys each instance family reads; ``_instances`` builds each one
_FAMILY_READS = {
    "symmetric": ("theta_min", "theta_max", "alpha", "b_target"),
    "resonant": ("alpha", "epsilon", "resonance_m"),
}
EXPERIMENT_KINDS = tuple(_KIND_READS)


class ConfigError(ValueError):
    """Config file is malformed or inconsistent."""


def _key(section: str, type_: type, default):
    """A config key in ``section`` whose value has type ``type_``."""
    metadata = {"section": section, "type": type_}
    return dataclasses.field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is one config key, with its section and type.

    ``__post_init__`` checks each field's rules and refuses a key the kind
    or family does not read, so every instance is valid however it was made.
    """

    # one of EXPERIMENT_KINDS
    kind: str = _key("experiment", str, "grover-baseline")
    # main dimension (even, >= 4 for random families)
    n: int = _key("instance", int, 64)
    seed: int = _key("instance", int, 1)
    family: str = _key("instance", str, "symmetric")
    # edges of the raw phase band, 0 < theta_min <= theta_max < pi
    theta_min: float = _key("instance", float, 0.5)
    theta_max: float = _key("instance", float, 1.5)
    # source-target overlap; None means 1/sqrt(n)
    alpha: float | None = _key("instance", float, None)
    # rescale phases to hit this b factor; None means no rescaling
    b_target: float | None = _key("instance", float, None)
    # detuning and power exponent (r = 2^resonance_m)
    epsilon: float = _key("instance", float, 1e-3)
    resonance_m: int = _key("instance", int, 3)
    # ancilla count; None picks it from b
    m: int | None = _key("instance", int, None)
    # b factor targets: always a comma list, never expanded by sweep
    b_values: tuple[float, ...] = _key("instance", tuple, DEFAULT_B_VALUES)
    # iteration budget; None picks it per experiment
    q_max: int | None = _key("run", int, None)
    # report path; None means report.<format>
    out: str | None = _key("run", str, None)
    # csv | json
    format: str = _key("run", str, "csv")

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {', '.join(EXPERIMENT_KINDS)}"
            )
        if self.family not in _FAMILY_READS:
            raise ConfigError(f"unknown instance family {self.family!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.n < 2:
            raise ConfigError(f"n must be at least 2, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.q_max is not None and self.q_max < 0:
            raise ConfigError(f"q_max must be nonnegative, got {self.q_max}")
        if not self.b_values:
            raise ConfigError("b_values must list at least one target")
        reads = ("n", "seed") + _KIND_READS[self.kind]
        reads += _FAMILY_READS[self.family] if "family" in reads else ()
        for key, field in _FIELDS.items():
            unread = field.metadata["section"] == "instance" and key not in reads
            if unread and getattr(self, key) != field.default:
                raise ConfigError(f"{self.kind} does not read {key}")


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


# config key -> its ExperimentConfig field
_FIELDS = {field.name: field for field in dataclasses.fields(ExperimentConfig)}
_SECTIONS = {field.metadata["section"] for field in _FIELDS.values()}
# keys the sweep entry point may expand from comma lists
_SWEEPABLE = {
    key for key, field in _FIELDS.items() if field.metadata["type"] in (int, float)
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
    # ConfigParser would copy [DEFAULT] keys into every other section
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    raw: dict[str, str] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _FIELDS or _FIELDS[key].metadata["section"] != section:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[key] = value.strip()
    return raw


def _build_config(raw: dict[str, str], overrides: dict) -> ExperimentConfig:
    values: dict = {}
    for key, text in raw.items():
        if key in overrides:
            continue
        if key == "b_values":
            values[key] = _parse_b_values(text)
        elif "," in text and key != "out":
            raise ConfigError(
                f"config key {key} holds a list; only the sweep command "
                "expands lists, and only for the keys "
                f"{', '.join(sorted(_SWEEPABLE))}"
            )
        elif text:
            try:
                values[key] = _FIELDS[key].metadata["type"](text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
    values.update(overrides)
    return ExperimentConfig(**values)


def _parse_b_values(text: str) -> tuple[float, ...]:
    """The b-sweep targets; an empty entry next to a target is an error."""
    parts = [part.strip() for part in text.split(",")]
    if any(parts) and not all(parts):
        raise ConfigError(f"config key b_values has an empty entry: {text!r}")
    try:
        return tuple(float(part) for part in parts if part)
    except ValueError as exc:
        raise ConfigError(f"config key b_values: {exc}") from exc


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse one config file; keyword overrides (config keys) replace file values."""
    return _build_config(_read_raw(path), overrides)


def load_sweep_configs(path, **overrides) -> list[ExperimentConfig]:
    """Expand comma lists in a config into the cartesian product of runs.

    Only int and float keys expand, and not one an override sets: the
    override is its one value.  An empty entry keeps the key's default, as
    an empty value does in a single config: ``b_target = , 8`` sweeps no
    rescaling and b = 8.
    """
    raw = _read_raw(path)
    axes: list[tuple[str, list[str]]] = []
    fixed: dict[str, str] = {}
    for key, text in raw.items():
        if key in _SWEEPABLE and "," in text and key not in overrides:
            parts = [part.strip() for part in text.split(",")]
            if not any(parts):
                raise ConfigError(f"config key {key} lists no values")
            axes.append((key, parts))
        else:
            fixed[key] = text
    configs = []
    for combo in itertools.product(*(parts for _, parts in axes)):
        merged = dict(fixed)
        merged.update({key: value for (key, _), value in zip(axes, combo)})
        configs.append(_build_config(merged, overrides))
    return configs


def _instances(config: ExperimentConfig):
    """The instance of each report row, built when its row is reached.

    The kind fixes the spectrum for grover-baseline (uniform Grover),
    divergence-demo (resonant) and b-sweep (symmetric, one per ``b_values``
    target); general-search and boosted-search take it from ``family``.
    The config was checked where it was made, so this only builds.
    """
    kind, build = config.kind, spectra.SearchInstance.build
    n, seed, alpha = config.n, config.seed, config.alpha
    if kind == "grover-baseline":
        yield build(spectra.grover_spectrum(n))
    elif kind == "divergence-demo" or config.family == "resonant":
        r_m, eps = config.resonance_m, config.epsilon
        yield build(spectra.resonant_spectrum(n, r_m, eps, seed, alpha=alpha))
    else:
        lo, hi = config.theta_min, config.theta_max
        for b in config.b_values if kind == "b-sweep" else (config.b_target,):
            try:
                spec = spectra.symmetric_spectrum(
                    n, seed, lo, hi, alpha=alpha, b_target=b
                )
            except ValueError as exc:
                # the library names its argument b_target, a key b-sweep refuses
                named = str(exc).replace("b_target", "b_values entry")
                if kind != "b-sweep" or named == str(exc):
                    raise
                raise ConfigError(named) from exc
            yield build(spec)


def _row(
    config: ExperimentConfig,
    inst,
    report,
    m: int | None = None,
    naive_b_r: float | None = None,
) -> ReportRow:
    """The report row of one run; the ledger at the peak is arithmetic on q.

    b', the boosted lambda1 and the predicted cells (``search.peak_law``)
    read the instance the run stepped: ``inst`` itself for a plain run,
    whose boosted-only cells stay None, and the boosted one on ``m``
    ancillas, which keeps inst's alpha, for a boosted run.
    """
    ran = report.instance
    boosted = m is not None
    law = search.peak_law(ran.b_factor, ran.alpha, ran.lambda1)
    return ReportRow(
        experiment=config.kind,
        n=inst.dimension,
        seed=config.seed,
        alpha=inst.alpha,
        b_factor=inst.b_factor,
        theta_min=inst.theta_min,
        m=m,
        r=2**m if boosted else None,
        b_prime=ran.b_factor if boosted else None,
        lambda1=inst.lambda1,
        lambda1_boosted=ran.lambda1 if boosted else None,
        naive_b_r=naive_b_r,
        peak_q=report.peak_q,
        peak_probability=report.peak_probability,
        oracle_queries_at_peak=report.peak_q,
        ds_applications_at_peak=report.peak_q * report.ds_per_step,
        predicted_peak_q=law[0],
        predicted_peak_probability=law[1],
    )


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    """Execute one configured experiment; deterministic for fixed seeds."""
    plain = "m" not in _KIND_READS[config.kind]
    rows = []
    for inst in _instances(config):
        if plain:
            rows.append(_row(config, inst, search.run_iterations(inst, config.q_max)))
            continue
        m, naive_b_r = config.m, None
        if config.kind == "divergence-demo":
            naive_b_r = spectra.naive_power_b(inst, 2**config.resonance_m)
            m = config.resonance_m if m is None else m
        elif m is None:
            m = pea.default_ancilla_count(inst.b_factor)
        report = pea.boosted_search_run(inst, m, config.q_max)
        rows.append(_row(config, inst, report, m, naive_b_r))
    return rows


def _cell(value):
    """A report cell typed by its value: ints exact, floats to 12 digits."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{value:.12g}")
    return value


def emit_report(rows: list[ReportRow], fmt: str, path) -> None:
    """Write rows as CSV or JSON; overwrites; byte-stable for fixed rows."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    names = [field.name for field in dataclasses.fields(ReportRow)]
    table = [[_cell(getattr(row, name)) for name in names] for row in rows]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if fmt == "json":
            payload = [dict(zip(names, cells)) for cells in table]
            json.dump({"rows": payload}, fh, indent=2)
            fh.write("\n")
            return
        fh.write(",".join(names) + "\n")
        for cells in table:
            texts = [
                "" if cell is None
                else f"{cell:.12g}" if isinstance(cell, float)
                else str(cell)
                for cell in cells
            ]
            fh.write(",".join(texts) + "\n")


def _validation_checks():
    """Yield (name, callable) pairs; each callable raises on failure."""
    from . import dense

    def grover_curve():
        inst = spectra.SearchInstance.build(spectra.grover_spectrum(64))
        report = search.run_iterations(inst, 12)
        angle = math.asin(inst.alpha)
        for q, probability in enumerate(report.target_probability):
            expected = math.sin((2 * q + 1) * angle) ** 2
            if not abs(probability - expected) <= 1e-10:
                raise AssertionError(f"q={q}: {probability} vs {expected}")

    def moment_identity():
        spectrum = spectra.symmetric_spectrum(32, 3, 0.4, 1.2)
        inst = spectra.SearchInstance.build(spectrum)
        lhs = inst.b_factor**2
        rhs = 1.0 + inst.lambda2 - inst.alpha**2
        if not abs(lhs - rhs) <= 1e-10 * max(1.0, rhs):
            raise AssertionError(f"{lhs} vs {rhs}")
        if not abs(inst.lambda1) <= 1e-10:
            raise AssertionError(f"lambda1 = {inst.lambda1}")

    def amplitude_grid():
        # on eigen-coordinates the estimation reads only the phases and
        # estimates each main row of a column on its own, one per grid phase
        thetas = np.linspace(-np.pi + 1e-3, np.pi, 17)
        count = len(thetas) + 1
        spectrum = spectra.EigenSpectrum(
            np.append(0.0, thetas), np.full(count, 1.0 / count)
        )
        for m in (1, 2, 3, 4):
            coeff = np.zeros((2**m, count, 1), dtype=np.complex128)
            coeff[0, 1:, 0] = 1.0
            after = dense._apply_estimate(spectrum, m, coeff)
            measured = np.abs(after[0, 1:, 0])
            expected = pea.pea_amplitude(thetas, m, 0)
            for theta, deviation in zip(thetas, np.abs(measured - expected)):
                if not deviation <= 1e-10:
                    raise AssertionError(f"m={m} theta={theta}: deviation")

    def fixed_point():
        spectrum = spectra.symmetric_spectrum(16, 5, 0.3, 1.0)
        blocks = np.zeros((4, spectrum.phases.size, 1), dtype=np.complex128)
        blocks[0, :, 0] = dense.eigenbasis(spectrum)[:, 0]
        for op in (dense.pea_operator, dense.boosted_diffusion):
            moved = op(spectrum, 2, blocks)
            if not np.max(np.abs(moved - blocks)) <= 1e-12:
                raise AssertionError(f"{op.__name__} moved the joint source")

    def sigma_split():
        inst = spectra.SearchInstance.build(spectra.resonant_spectrum(16, 3, 1e-3, 9))
        for m in (1, 2, 3):
            breakdown = pea.b_prime(inst, m)
            if not breakdown.sigma1 <= 1.0:
                raise AssertionError(f"sigma1 = {breakdown.sigma1}")
            phases, weights = inst.phases[1:], inst.weights[1:]
            survival = pea.pea_amplitude(phases, m, 0) ** 2
            termwise = float(
                np.sum(weights * survival / np.sin(2.0 ** (m - 1) * phases) ** 2)
            )
            if not abs(termwise - breakdown.sigma2) <= 1e-9:
                raise AssertionError(f"{termwise} vs {breakdown.sigma2}")

    def cost_ledger():
        inst = spectra.SearchInstance.build(spectra.symmetric_spectrum(8, 2, 0.5, 1.5))
        report = pea.boosted_search_run(inst, 2, 3)
        if report.target_probability.shape != (4,):
            raise AssertionError("run does not hold one row per oracle query")
        if report.ds_per_step != 3 * 4 - 2:
            raise AssertionError("ds ledger drifted")

    def dense_boost():
        inst = spectra.SearchInstance.build(spectra.resonant_spectrum(8, 2, 1e-2, 4))
        analytic = pea.b_prime(inst, 2).b_prime
        dense = pea.dense_b_prime_check(inst, 2)
        if not abs(analytic - dense) <= 1e-6:
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

"""Statevector simulation of search with arbitrary diffusion operators.

The package splits into five layers: ``linalg`` (dense kernels and the
eigensolver), ``spectra`` (diffusion eigenspectra, moments, instance
generators), ``search`` (the basic iteration and its predicted rotating
pair), ``pea`` (the phase-estimation boosted diffusion: runs as plain search
on an (N+1)-entry boosted spectrum at O(N) per step, dense circuit stages on
(2^m, N, K) block arrays as oracles), and ``harness`` (configs, experiments,
reports) with the ``gqsearch`` console script on top.
"""

from .linalg import (
    DENSE_CAP,
    DenseCapError,
    DimensionError,
    EigenSystem,
    EigensolverError,
    round_half_up,
    unitary_eigensystem,
    wrap_phase,
)
from .spectra import (
    EigenSpectrum,
    ResonanceError,
    SearchInstance,
    SpectrumValidationError,
    build_diffusion,
    grover_spectrum,
    naive_power_b,
    resonant_spectrum,
    scaling_family,
    symmetric_spectrum,
)
from .search import (
    IterationRecord,
    NormDriftError,
    PredictedSpectrum,
    RelevantPairError,
    RunReport,
    predict_spectrum,
    run_iterations,
    search_operator,
    verify_relevant_pair,
)
from .pea import (
    BoostedOperator,
    BPrimeBreakdown,
    b_prime,
    boosted_diffusion,
    boosted_lambda1,
    boosted_search_run,
    c_operator,
    controlled_oracle,
    default_ancilla_count,
    dense_b_prime_check,
    dense_boosted_matrix,
    pea_adjoint,
    pea_amplitude,
    pea_operator,
    qft,
    walsh_hadamard,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ReportRow,
    emit_report,
    load_config,
    load_sweep_configs,
    run_experiment,
    run_validation,
)

__version__ = "0.1.0"

__all__ = [
    "DENSE_CAP",
    "DenseCapError",
    "DimensionError",
    "EigenSystem",
    "EigensolverError",
    "round_half_up",
    "unitary_eigensystem",
    "wrap_phase",
    "EigenSpectrum",
    "ResonanceError",
    "SearchInstance",
    "SpectrumValidationError",
    "build_diffusion",
    "grover_spectrum",
    "naive_power_b",
    "resonant_spectrum",
    "scaling_family",
    "symmetric_spectrum",
    "IterationRecord",
    "NormDriftError",
    "PredictedSpectrum",
    "RelevantPairError",
    "RunReport",
    "predict_spectrum",
    "run_iterations",
    "search_operator",
    "verify_relevant_pair",
    "BoostedOperator",
    "BPrimeBreakdown",
    "b_prime",
    "boosted_diffusion",
    "boosted_lambda1",
    "boosted_search_run",
    "c_operator",
    "controlled_oracle",
    "default_ancilla_count",
    "dense_b_prime_check",
    "dense_boosted_matrix",
    "pea_adjoint",
    "pea_amplitude",
    "pea_operator",
    "qft",
    "walsh_hadamard",
    "ConfigError",
    "ExperimentConfig",
    "ReportRow",
    "emit_report",
    "load_config",
    "load_sweep_configs",
    "run_experiment",
    "run_validation",
    "__version__",
]

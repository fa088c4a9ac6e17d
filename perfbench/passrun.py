"""One pass of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/passrun.py --spec SPEC.json --result OUT.json
                                 [--trace] [--setup-only]

Set-up is importing ``gqsearch`` and loading the workload's configs with
``harness.load_sweep_configs``; the result records the monotonic clock
reading when set-up ended, so the parent can time set-up from the spawn.
The pass then makes the calls ``gqsearch sweep`` makes, ``run_experiment``
once per config and ``emit_report`` once, except that an experiment that
raises is recorded and the pass goes on.  Checks and predictions follow as
direct library calls.  Outputs are written at full precision for run.py to
check; nothing is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path


def load_experiments(spec: dict, harness) -> list[tuple[dict, object]]:
    return [
        (entry, config)
        for entry in spec["experiments"]
        for config in harness.load_sweep_configs(entry["config"])
    ]


def _check_output(check: dict, gq) -> dict:
    name = check["check"]
    if name == "verify_relevant_pair":
        inst = gq.spectra.SearchInstance.build(
            gq.spectra.symmetric_spectrum(check["n"], check["seed"], 0.5, 1.5)
        )
        plus, minus, residual = gq.search.verify_relevant_pair(inst)
        return {"phase_plus": plus, "phase_minus": minus, "residual": residual}
    if name == "dense_b_prime_check":
        inst = gq.spectra.SearchInstance.build(
            gq.spectra.resonant_spectrum(
                check["n"], check["m"], check["epsilon"], check["seed"]
            )
        )
        dense = gq.pea.dense_b_prime_check(inst, check["m"])
        return {"dense": dense, "analytic": gq.pea.b_prime(inst, check["m"]).b_prime}
    if name == "run_validation":
        lines: list[str] = []
        ok = gq.harness.run_validation(echo=lines.append)
        return {"ok": ok, "lines": lines}
    raise ValueError(f"unknown check {name!r}")


def _prediction_output(prediction: dict, gq) -> dict:
    """Generator to (b, lambda1, lambda2, q_m, b', naive b_r); no iterations."""
    spectra, search, pea = gq.spectra, gq.search, gq.pea
    inst = spectra.SearchInstance.build(
        spectra.scaling_family(prediction["log2n"], prediction["seed"])
    )
    predicted = search.predict_spectrum(inst)
    m = pea.default_ancilla_count(inst.b_factor)
    breakdown = pea.b_prime(inst, m)
    return {
        "n": inst.dimension,
        "alpha": inst.alpha,
        "b_factor": inst.b_factor,
        "lambda1": inst.lambda1,
        "lambda2": inst.lambda2,
        "q_m": predicted.q_m,
        "lambda_plus": predicted.lambda_plus,
        "lambda_minus": predicted.lambda_minus,
        "m": m,
        "sigma1": breakdown.sigma1,
        "sigma2": breakdown.sigma2,
        "b_prime": breakdown.b_prime,
        "lambda1_boosted": pea.boosted_lambda1(inst, m),
        "naive_b_r": spectra.naive_power_b(inst, 2**m),
    }


def _timed(op: dict, call):
    """Time one operation; an exception is recorded on ``op``, not raised."""
    start = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        op["error"] = type(exc).__name__
        op["message"] = str(exc)[:300]
        value = None
    op["s"] = time.perf_counter() - start
    return value


def run_pass(spec: dict, experiments, gq) -> dict:
    """Run every operation once; returns timings and outputs per operation."""
    harness = gq.harness
    ops = []
    rows = []
    start = time.perf_counter()
    for index, (entry, config) in enumerate(experiments):
        op = {"type": "experiment", "kind": config.kind, "index": index,
              "q_max": config.q_max, "variable_length": entry["variable_length"]}
        produced = _timed(op, lambda: harness.run_experiment(config))
        if produced is not None:
            rows.extend(produced)
            op["output"] = [dataclasses.asdict(row) for row in produced]
        ops.append(op)
    emit_start = time.perf_counter()
    harness.emit_report(rows, "csv", spec["report"])
    emit_s = time.perf_counter() - emit_start
    for check in spec["checks"]:
        op = {"type": "check", "kind": check["check"]}
        op["output"] = _timed(op, lambda: _check_output(check, gq))
        ops.append(op)
    for prediction in spec["predictions"]:
        op = {"type": "prediction", "kind": "predict"}
        op["output"] = _timed(op, lambda: _prediction_output(prediction, gq))
        ops.append(op)
    wall = time.perf_counter() - start
    report = Path(spec["report"]).read_bytes()
    return {
        "ops": ops,
        "emit_s": emit_s,
        "pass_wall_s": wall,
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "report_bytes": len(report),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(gq) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = {}
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gqsearch": gq.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    import gqsearch

    tracer = None
    if args.trace:
        from tracing import Tracer, check_restored

        tracer = Tracer(pass_id=f"{spec['workload']}-seed{spec['seed']}-traced")
        tracer.install(gqsearch)
        root = tracer.open_span("bench.pass")
    try:
        experiments = load_experiments(spec, gqsearch.harness)
        result = {"ready_at": time.monotonic()}
        if not args.setup_only:
            result.update(run_pass(spec, experiments, gqsearch))
    finally:
        if tracer is not None:
            tracer.close_span(root)
            tracer.restore()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["harness.report_bytes"] = result["report_bytes"]
        result["not_restored"] = check_restored(gqsearch)
        spans_path = Path(args.result).with_suffix(".spans.jsonl")
        with open(spans_path, "w", encoding="ascii") as fh:
            for name, start, end, parent, pass_id, error in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "error": error}) + "\n")
        result["spans_file"] = str(spans_path)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.setup_only:
        result["provenance"] = provenance(gqsearch)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

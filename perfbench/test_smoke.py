"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted, that tracing
puts every wrapped attribute back, that an experiment that raises is
counted without aborting the pass, and that a run's pass count is fixed by
the workload and ``--seconds``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gqsearch  # noqa: E402

import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_spec(tmp_path: Path) -> dict:
    """Every operation type at tiny sizes; the n = 5 experiment raises."""
    configs = {
        "plain": "[experiment]\nkind = general-search\n[instance]\nn = 8\n"
                 "[run]\nq_max = 5\n",
        "odd": "[experiment]\nkind = general-search\n[instance]\nn = 5\n"
               "[run]\nq_max = 5\n",
        "boosted": "[experiment]\nkind = boosted-search\n[instance]\nn = 8\n"
                   "m = 2\n[run]\nq_max = 3\n",
    }
    experiments = []
    for name, text in configs.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text, encoding="ascii")
        experiments.append({"config": str(path), "variable_length": False})
    return {
        "workload": "tiny",
        "seed": 1,
        "experiments": experiments,
        "checks": [
            {"check": "verify_relevant_pair", "n": 16, "seed": 1},
            {"check": "dense_b_prime_check", "n": 8, "m": 2, "epsilon": 1e-2,
             "seed": 4},
            {"check": "run_validation"},
        ],
        "predictions": [{"log2n": 6, "seed": 1}],
        "report": str(tmp_path / "report.csv"),
    }


def _measure(tmp_path: Path, trace: bool) -> dict:
    return run.measure(tiny_spec(tmp_path), 1, trace, tmp_path, None,
                       time.monotonic() + 120.0)


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    summary = _measure(tmp_path, trace=False)
    names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert set(summary["final"]["metrics"]) == names
    assert all(m["value"] > 0 for m in summary["final"]["metrics"].values())
    per_kind = summary["passes"][0]["per_kind"]
    assert set(per_kind) == set(run.PER_KIND_UNITS)


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    summary = _measure(tmp_path, trace=True)
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(summary["final"]["metrics"]) == names
    layers = summary["layers"]
    assert layers["search.steps"] == 5 + 12  # tiny run plus the validation run
    assert layers["pea.steps"] > 0 and layers["linalg.eig_calls"] == 3
    assert summary["not_restored"] == []
    spans = Path(summary["spans_file"]).read_text(encoding="ascii").splitlines()
    assert json.loads(spans[0])["name"] == "bench.pass"


def test_raising_experiment_is_counted_and_pass_goes_on(tmp_path):
    summary = _measure(tmp_path, trace=False)
    first = summary["passes"][0]
    assert first["attempted"] == 7
    assert first["failed"] == 1
    (failure,) = first["failures"]
    assert failure["op"] == "experiment:general-search#1"
    assert failure["state"] == "raised" and not failure["known"]
    assert failure["reason"].startswith("ValueError")
    # an unknown exception makes the run incorrect
    assert summary["final"]["failed"] == 1
    assert summary["final"]["correct"] is False


def test_tracer_restores_every_attribute(tmp_path):
    spec = tiny_spec(tmp_path)
    before = {}
    for dotted in tracing.SPANNED + tracing.COUNTED:
        owner, attr = tracing._resolve(gqsearch, dotted)
        before[dotted] = owner.__dict__[attr]
    tracer = tracing.Tracer("test")
    tracer.install(gqsearch)
    try:
        experiments = passrun.load_experiments(spec, gqsearch.harness)
        result = passrun.run_pass(spec, experiments, gqsearch)
    finally:
        tracer.restore()
    for dotted, raw in before.items():
        owner, attr = tracing._resolve(gqsearch, dotted)
        assert owner.__dict__[attr] is raw, dotted
    assert tracing.check_restored(gqsearch) == []
    assert [op.get("error") for op in result["ops"]][:3] == [None, "ValueError", None]
    assert tracer.layer_metrics()["pea.run_failures"] == 0


def test_pass_count_is_fixed_by_workload_and_seconds():
    counts = {name: workloads.pass_count(name, 24.0) for name in workloads.WORKLOADS}
    assert counts == {"plain-1k": 2, "boosted-1k": 2, "audit-small": 2,
                      "predict-4k": 1}
    assert all(workloads.pass_count(name, 0.0) == 1 for name in workloads.WORKLOADS)

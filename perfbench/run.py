"""gqsearch benchmark: one workload as a closed loop from a single client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each pass runs in a fresh interpreter (perfbench/passrun.py) with BLAS
threads fixed at the number of usable cores, and the next pass starts only
after the previous one ended.  A run makes a fixed number of passes, as
many as fit in ``--seconds`` at the workload's nominal pass cost
(workloads.NOMINAL_PASS_S).  With ``--trace 0`` set-up is also timed on its own, several
times, and the last stdout line holds the end-to-end metrics.  With
``--trace 1`` one more pass runs with spans around every layer and the last
line holds the per-layer metrics.  Every output is checked (checks.py); a
full record with provenance goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PLAIN_KINDS = ("general-search", "grover-baseline")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PER_KIND_UNITS = {
    "plain_queries_per_s": "1/s",
    "boosted_queries_per_s": "1/s",
    "predictions_per_s": "1/s",
    "checks_per_s": "1/s",
    "failed_fraction": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not complete a run."""


def _child(spec_path: Path, result_path: Path, deadline: float, *flags) -> dict:
    """Run passrun.py in a fresh interpreter and return its result."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({var: threads for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH_DIR / "passrun.py"), "--spec",
               str(spec_path), "--result", str(result_path), *flags]
    spawn = time.monotonic()
    with subprocess.Popen(command, env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL) as proc:
        try:
            code = proc.wait(timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("pass did not end within the run's time limit") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        raise BenchError(f"pass process exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready_at"] - spawn
    return result


def _rate(ops: list[dict], verdicts: list[dict], select, work) -> float | None:
    chosen = [(op, v) for op, v in zip(ops, verdicts) if select(op)]
    if not chosen:
        return None
    done = sum(work(op) for op, v in chosen if v["state"] == "ok")
    return done / sum(op["s"] for op, _ in chosen)


def analyse_pass(result: dict, expected: dict | None) -> dict:
    """Check one pass's outputs and derive its end-to-end and per-kind metrics."""
    ops = result["ops"]
    verdicts = checks.check_pass(ops, expected)

    def plain(op):
        return op["type"] == "experiment" and op["kind"] in PLAIN_KINDS

    def boosted(op):
        return op["type"] == "experiment" and op["kind"] not in PLAIN_KINDS

    per_kind = {
        "plain_queries_per_s": _rate(ops, verdicts, plain, lambda op: op["q_max"]),
        "boosted_queries_per_s": _rate(ops, verdicts, boosted,
                                       lambda op: op["q_max"]),
        "predictions_per_s": _rate(ops, verdicts,
                                   lambda op: op["type"] == "prediction",
                                   lambda op: 1),
        "checks_per_s": _rate(ops, verdicts, lambda op: op["type"] == "check",
                              lambda op: 1),
    }
    failed = sum(v["state"] != "ok" for v in verdicts)
    per_kind["failed_fraction"] = failed / len(ops) if ops else 0.0
    variable = sum(op["s"] for op in ops if op.get("variable_length"))
    return {
        "pass_s": result["pass_wall_s"] - variable,
        "pass_wall_s": result["pass_wall_s"],
        "peak_rss_mb": result["rss_kb"] / 1024.0,
        "per_kind": {k: v for k, v in per_kind.items() if v is not None},
        "attempted": len(ops),
        "failed": failed,
        "failures": [
            {"op": f"{op['type']}:{op['kind']}#{i}", **v}
            for i, (op, v) in enumerate(zip(ops, verdicts)) if v["state"] != "ok"
        ],
        "report_sha256": result["report_sha256"],
        "op_seconds": [round(op["s"], 6) for op in ops],
    }


def measure(spec: dict, pass_count: int, trace: bool, out_dir: Path,
            expected: dict | None, deadline: float) -> dict:
    """Run ``pass_count`` passes (and the set-up probes or the traced pass)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{spec['workload']}-seed{spec['seed']}"
    spec_path = out_dir / f"spec-{stem}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = out_dir / f"pass-{stem}.json"

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_child(spec_path, result_path, deadline,
                                 "--setup-only")["setup_s"])
    passes, raw = [], None
    for number in range(1, pass_count + 1):
        raw = _child(spec_path, result_path, deadline)
        passes.append(analyse_pass(raw, expected))
        print(_pass_line(number, passes[-1]), flush=True)
    summary = {"passes": passes, "setup_probes_s": setups,
               "provenance": raw["provenance"]}
    traced = None
    if trace:
        traced_path = out_dir / f"pass-{stem}-traced.json"
        raw_traced = _child(spec_path, traced_path, deadline, "--trace")
        traced = analyse_pass(raw_traced, expected)
        layers = dict(raw_traced["layers"])
        layers["trace.overhead_s"] = raw_traced["pass_wall_s"] - statistics.median(
            p["pass_wall_s"] for p in passes
        )
        summary.update(traced=traced, layers=layers,
                       spans_file=raw_traced["spans_file"],
                       not_restored=raw_traced["not_restored"])

    every = passes + ([traced] if traced else [])
    shas = {p["report_sha256"] for p in every}
    problems = list(dict.fromkeys(
        f["op"] + ": " + f["reason"] for p in every for f in p["failures"]
        if f["state"] == "mismatch" or not f.get("known", False)
    ))
    if len(shas) != 1:
        problems.append("report bytes differ between passes")
    if trace and summary["not_restored"]:
        problems.append(f"wrappers left installed: {summary['not_restored']}")
    summary["problems"] = problems
    if trace:
        metrics = {name: (value, _layer_unit(name))
                   for name, value in summary["layers"].items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    summary["final"] = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return summary


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _pass_line(number: int, analysed: dict) -> str:
    parts = [f"pass {number}: pass_s={analysed['pass_s']:.4f} s",
             f"peak_rss_mb={analysed['peak_rss_mb']:.1f} MB"]
    parts += [f"{name}={value:.6g} {PER_KIND_UNITS[name]}"
              for name, value in analysed["per_kind"].items()]
    failures = "; ".join(f"{f['op']} {f['reason'][:80]}" for f in analysed["failures"])
    return "  ".join(parts) + (f"  failed: {failures}" if failures else "")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "gqsearch" / "__init__.py").is_file():
        print(f"error: no gqsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = reference["workloads"].get(args.workload, {}).get(str(args.seed))
    spec = workloads.build(args.workload, args.seed, OUT_DIR)
    try:
        summary = measure(spec, workloads.pass_count(args.workload, args.seconds),
                          bool(args.trace), OUT_DIR, expected, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary["provenance"].update(
        nproc=len(os.sched_getaffinity(0)),
        git_commit=_git_commit(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    summary["reference"] = {
        "seed_recorded": expected is not None,
        "report_sha256": expected["report_sha256"] if expected else None,
        "report_bytes_changed": (
            expected is not None
            and summary["passes"][0]["report_sha256"] != expected["report_sha256"]
        ),
    }
    medians = summary["per_kind_medians"] = {}
    for name, unit in PER_KIND_UNITS.items():
        values = [p["per_kind"][name] for p in summary["passes"]
                  if name in p["per_kind"]]
        if values:
            medians[name] = statistics.median(values)
            print(f"{name}: {medians[name]:.6g} {unit} (median of {len(values)})")
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for problem in summary["problems"]:
        print(f"check failed: {problem}")
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(summary["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

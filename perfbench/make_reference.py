"""Record the reference outputs that run.py checks each pass against.

    python3 perfbench/make_reference.py [--first 0] [--last 31] [WORKLOAD ...]

Runs one pass of each workload per seed, in this process, with the same
BLAS thread count as the benchmark, and stores every operation's outputs
(or the exception class it raised) and the report's sha256 in
``perfbench/reference.json``.  Existing entries for other seeds or
workloads are kept, so the file can be filled in pieces.  Regenerate only
on purpose: the file pins the outputs of the commit it was made on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"


def reference_op(op: dict) -> dict:
    kept = {key: op[key] for key in ("type", "kind") if key in op}
    if "error" in op:
        kept["error"] = op["error"]
    else:
        kept["output"] = op["output"]
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=31)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)

    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    import gqsearch

    import passrun
    import workloads

    names = args.workloads or list(workloads.WORKLOADS)
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    else:
        reference = {"workloads": {}}
    reference["provenance"] = passrun.provenance(gqsearch)
    work = BENCH_DIR / "out" / "reference"
    for seed in range(args.first, args.last + 1):
        for name in names:
            spec = workloads.build(name, seed, work)
            experiments = passrun.load_experiments(spec, gqsearch.harness)
            result = passrun.run_pass(spec, experiments, gqsearch)
            reference["workloads"].setdefault(name, {})[str(seed)] = {
                "ops": [reference_op(op) for op in result["ops"]],
                "report_sha256": result["report_sha256"],
            }
            print(f"{name} seed {seed}: {result['pass_wall_s']:.2f} s", flush=True)
        REFERENCE.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

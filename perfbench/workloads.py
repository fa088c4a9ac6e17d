"""Workload table: each workload turns a seed into the inputs of one pass.

A pass is a list of operations.  Experiments are INI configs written into
the output directory and read back by the pass through
``harness.load_sweep_configs``, exactly as ``gqsearch sweep`` reads them;
checks and predictions are direct library calls described by small dicts.
The same seed always gives the same inputs.  Why each workload exists is in
README.md.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("plain-1k", "boosted-1k", "audit-small", "predict-4k")
DEFAULT_SEED = 1

# 2 * q_m: every N=1024, b=8 instance has q_m = 201 (alpha and b are fixed)
PLAIN_1K_Q_MAX = 402
# about twice the predicted boosted peak at N=1024, b=16 for each m
BOOSTED_1K_Q_MAX = {3: 100, 4: 60, 5: 50}
AUDIT_Q_MAX = 3000
AUDIT_SIZES = (64, 128, 256)

# Wall seconds of one pass, spawn to exit, on a 2-core host at the commit
# that defined the benchmark.  A run makes as many passes as fit in
# ``--seconds`` at these costs, so the number of operations a run attempts
# (and fails) depends only on the workload, the seed and ``--seconds``,
# never on how fast the host happened to be.
NOMINAL_PASS_S = {
    "plain-1k": 10.5,
    "boosted-1k": 10.0,
    "audit-small": 9.0,
    "predict-4k": 23.0,
}


def _ini(kind: str, q_max: int, **instance) -> str:
    lines = ["[experiment]", f"kind = {kind}", "", "[instance]"]
    for key, value in instance.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += ["", "[run]", f"q_max = {q_max}", "format = csv", ""]
    return "\n".join(lines)


def _experiments(name: str, seed: int) -> list[tuple[str, bool]]:
    """(INI text, variable_length) pairs for the workload's experiments.

    ``variable_length`` marks runs whose length depends on the seed through
    where rounding drift trips a check, so their time is kept out of
    ``pass_s`` (it is still measured and reported on its own).
    """
    if name == "plain-1k":
        seeds = (seed, seed + 1, seed + 2)
        return [(_ini("general-search", PLAIN_1K_Q_MAX, n=1024, seed=seeds,
                      b_target=8), False)]
    if name == "boosted-1k":
        return [
            (_ini("boosted-search", q_max, n=1024, seed=seed, b_target=16, m=m),
             False)
            for m, q_max in BOOSTED_1K_Q_MAX.items()
        ]
    if name == "audit-small":
        return [
            (_ini("general-search", AUDIT_Q_MAX, n=AUDIT_SIZES, seed=seed), False),
            (_ini("boosted-search", AUDIT_Q_MAX, n=AUDIT_SIZES, seed=seed, m=3),
             True),
        ]
    return []


def _checks(name: str, seed: int) -> list[dict]:
    if name != "audit-small":
        return []
    return [
        {"check": "verify_relevant_pair", "n": 512, "seed": seed},
        {"check": "dense_b_prime_check", "n": 128, "m": 3, "epsilon": 1e-3,
         "seed": seed},
        {"check": "run_validation"},
    ]


def _predictions(name: str, seed: int) -> list[dict]:
    if name != "predict-4k":
        return []
    return [{"log2n": 12, "seed": seed}]


def pass_count(name: str, seconds: float) -> int:
    """Passes one run makes: as many as fit in ``seconds``, at least one."""
    return max(1, int(seconds // NOMINAL_PASS_S[name]))


def build(name: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's configs under ``out_dir`` and return its spec."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    experiments = []
    for index, (text, variable_length) in enumerate(_experiments(name, seed)):
        path = out_dir / f"{name}-seed{seed}-{index}.ini"
        path.write_text(text, encoding="ascii")
        experiments.append(
            {"config": str(path), "variable_length": variable_length}
        )
    return {
        "workload": name,
        "seed": seed,
        "experiments": experiments,
        "checks": _checks(name, seed),
        "predictions": _predictions(name, seed),
        "report": str(out_dir / f"report-{name}-seed{seed}.csv"),
    }

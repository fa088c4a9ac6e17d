"""Output checks for one pass: invariants always, reference values when known.

Every operation ends in one of three states.  ``ok``: it returned and every
check held.  ``raised``: it raised; ``known`` tells whether the exception is
a defect recorded in KNOWN_DEFECTS.  ``mismatch``: it returned an output
that failed a check.  Raised and mismatched operations both count as
failed; only a mismatch or an unknown exception makes the run incorrect.
"""

from __future__ import annotations

import math

# integers, strings, booleans and None must match exactly; floats within
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12  # for quantities that are zero up to rounding (lambda1)
B_PRIME_ATOL = 1e-6  # analytic against dense b'
IDENTITY_RTOL = 1e-9  # b^2 = 1 + lambda2 - alpha^2, as SearchInstance.build

# (experiment kind, exception class, message prefix) of defects present at
# the commit that defined the benchmark; they count as failed operations
KNOWN_DEFECTS = (
    ("boosted-search", "ValueError", "joint state must be normalized"),
)


def _same(actual, expected, path: str) -> list[str]:
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return []
        return [f"{path}: {actual!r} != reference {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys differ from reference"]
        return [p for key in expected
                for p in _same(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: {len(actual)} items, reference has {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in _same(a, e, f"{path}[{i}]")]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def _invariants(op: dict) -> list[str]:
    out = op["output"]
    kind = op["kind"]
    problems = []
    if op["type"] == "experiment":
        for row in out:
            if row["oracle_queries_at_peak"] != row["peak_q"]:
                problems.append("ledger: oracle_queries_at_peak != peak_q")
            per_step = 1 if row["m"] is None else 3 * 2 ** row["m"] - 2
            if row["ds_applications_at_peak"] != row["peak_q"] * per_step:
                problems.append("ledger: ds_applications_at_peak != peak_q * cost")
    elif kind == "dense_b_prime_check":
        if not abs(out["dense"] - out["analytic"]) <= B_PRIME_ATOL:
            problems.append(
                f"dense b' {out['dense']!r} vs analytic {out['analytic']!r}"
            )
    elif kind == "run_validation":
        if not out["ok"] or not all(line.startswith("PASS ") for line in out["lines"]):
            problems.append("run_validation reported a FAIL")
    elif kind == "verify_relevant_pair":
        if not out["phase_plus"] > 0.0 > out["phase_minus"]:
            problems.append("rotating pair does not straddle phase 0")
    elif kind == "predict":
        b2 = out["b_factor"] ** 2
        expected = 1.0 + out["lambda2"] - out["alpha"] ** 2
        if not abs(b2 - expected) <= IDENTITY_RTOL * max(1.0, abs(expected)):
            problems.append(f"b^2 identity: {b2!r} vs {expected!r}")
    return problems


def is_known_defect(op: dict) -> bool:
    return any(
        op["kind"] == kind and op["error"] == error
        and op.get("message", "").startswith(prefix)
        for kind, error, prefix in KNOWN_DEFECTS
    )


def check_op(op: dict, expected: dict | None) -> dict:
    """Judge one operation against its invariants and reference entry."""
    if "error" in op:
        return {"state": "raised", "known": is_known_defect(op),
                "reason": f"{op['error']}: {op.get('message', '')}"}
    problems = _invariants(op)
    # a reference that raised (a defect since fixed) leaves only invariants
    if expected is not None and "output" in expected:
        problems += _same(op["output"], expected["output"], op["kind"])
    if problems:
        return {"state": "mismatch", "reason": "; ".join(problems[:5])}
    return {"state": "ok"}


def check_pass(ops: list[dict], expected: dict | None) -> list[dict]:
    """One verdict per operation, in order."""
    if expected is None:
        return [check_op(op, None) for op in ops]
    if len(expected["ops"]) != len(ops):
        return [{"state": "mismatch",
                 "reason": "operation count differs from reference"} for _ in ops]
    return [check_op(op, ref) for op, ref in zip(ops, expected["ops"])]

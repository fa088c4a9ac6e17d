"""Spans around the layers' public functions, installed from outside.

The tracer replaces module (or class) attributes of ``gqsearch`` with thin
wrappers that record a span per call: name, start, end, parent span and
pass id.  Callers inside the package look these names up at call time, so
the wrappers see every call that crosses a layer boundary.  ``restore``
puts every original object back; ``check_restored`` proves it.  Spans stay
in memory until the pass writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# dotted paths below the gqsearch package; each call becomes a span
SPANNED = (
    "spectra.symmetric_spectrum",
    "spectra.resonant_spectrum",
    "spectra.grover_spectrum",
    "spectra.scaling_family",
    "spectra.SearchInstance.build",
    "spectra.naive_power_b",
    "search.predict_spectrum",
    "search.run_iterations",
    "search.verify_relevant_pair",
    "pea.b_prime",
    "pea.boosted_lambda1",
    "pea.boosted_search_run",
    "pea.dense_b_prime_check",
    "pea.dense_boosted_matrix",
    "linalg.unitary_eigensystem",
    "harness.load_sweep_configs",
    "harness.run_experiment",
    "harness.emit_report",
    "harness.run_validation",
)
# counted without a span: one call per boosted step, including the steps of
# runs that later raise, which return no records
COUNTED = ("pea.controlled_oracle",)

GENERATORS = (
    "spectra.symmetric_spectrum",
    "spectra.resonant_spectrum",
    "spectra.grover_spectrum",
    "spectra.scaling_family",
)

# per-layer metric -> spans whose self time it sums
SELF_TIMES = {
    "spectra.generate_s": GENERATORS,
    "spectra.build_s": ("spectra.SearchInstance.build",),
    "spectra.naive_b_s": ("spectra.naive_power_b",),
    "search.predict_s": ("search.predict_spectrum",),
    "search.run_s": ("search.run_iterations",),
    "search.verify_s": ("search.verify_relevant_pair",),
    "pea.b_prime_s": ("pea.b_prime", "pea.boosted_lambda1"),
    "pea.run_s": ("pea.boosted_search_run",),
    "pea.dense_check_s": ("pea.dense_b_prime_check",),
    "pea.dense_matrix_s": ("pea.dense_boosted_matrix",),
    "linalg.eig_s": ("linalg.unitary_eigensystem",),
    "harness.load_s": ("harness.load_sweep_configs",),
    "harness.experiment_self_s": ("harness.run_experiment",),
    "harness.emit_s": ("harness.emit_report",),
    "harness.validate_s": ("harness.run_validation",),
}


def _resolve(package, dotted: str):
    parts = dotted.split(".")
    owner = package
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts for one pass; install, run, restore."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent, pass, error]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.pass_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close_span(self, index: int, error: BaseException | None = None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        if error is not None:
            span[5] = type(error).__name__
        self._stack.pop()

    def _spanned(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open_span(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.close_span(index, exc)
                raise
            self.close_span(index)
            self._count_result(name, result)
            return result

        return wrapper

    def _counted(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _count_result(self, name: str, result) -> None:
        # the step ledger comes from the records the run returns
        if name == "search.run_iterations":
            self.counts["search.steps"] += len(result.records) - 1
        elif name == "pea.boosted_search_run":
            self.counts["pea.ds_applications"] += result.records[-1].ds_applications

    def install(self, package) -> None:
        for dotted, make in [(d, self._spanned) for d in SPANNED] + [
            (d, self._counted) for d in COUNTED
        ]:
            owner, attr = _resolve(package, dotted)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(dotted, raw.__func__))
            else:
                replacement = make(dotted, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and ledger counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        failures: Counter = Counter()
        for index, (name, start, end, _, _, error) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            calls[name] += 1
            failures[name] += error is not None
        metrics = {
            metric: sum((self_time[name] for name in names), 0.0)
            for metric, names in SELF_TIMES.items()
        }
        search_steps = self.counts["search.steps"]
        pea_steps = self.counts["pea.controlled_oracle"]
        metrics.update({
            "spectra.generate_calls": sum(calls[name] for name in GENERATORS),
            "linalg.eig_calls": calls["linalg.unitary_eigensystem"],
            "search.steps": search_steps,
            "search.step_us": (
                1e6 * metrics["search.run_s"] / search_steps if search_steps else 0.0
            ),
            "pea.steps": pea_steps,
            "pea.step_us": 1e6 * metrics["pea.run_s"] / pea_steps if pea_steps else 0.0,
            "pea.ds_applications": self.counts["pea.ds_applications"],
            "pea.run_failures": failures["pea.boosted_search_run"],
        })
        return metrics


def check_restored(package) -> list[str]:
    """Dotted names whose attribute is still a tracing wrapper."""
    left = []
    for dotted in SPANNED + COUNTED:
        owner, attr = _resolve(package, dotted)
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(func, "__wrapped__"):
            left.append(dotted)
    return left

"""The dense oracle module behind pea's two dense entry points."""

import gqsearch.dense
from gqsearch import pea
from gqsearch.spectra import SearchInstance, resonant_spectrum


def test_pea_entry_points_call_through_to_dense(monkeypatch):
    # callers, the acceptance tests and the benchmark's tracer among them,
    # read these two names from pea; the work must run inside those calls
    inst = SearchInstance.build(resonant_spectrum(8, 2, 1e-2, 4))
    calls = []

    def recorded(*args):
        calls.append(args)
        return len(calls)

    for name in ("dense_b_prime_check", "dense_boosted_matrix"):
        monkeypatch.setattr(gqsearch.dense, name, recorded)
    assert pea.dense_b_prime_check(inst, 2) == 1
    assert pea.dense_boosted_matrix(inst, 3) == 2
    assert calls == [(inst, 2), (inst, 3)]

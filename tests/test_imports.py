"""What loading the package and running it, dense checks included, pull in.

The module checks run in fresh interpreters, since ``sys.modules`` of the
test process already holds whatever other tests imported.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from test_harness import VALIDATION_LINES

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    """Run a new interpreter with ``args``, ``src`` on its path; its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_fresh(code, cwd):
    """Run ``code`` in a new interpreter; the words of its last output line."""
    result = run_python(["-c", textwrap.dedent(code)], cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()


def test_import_loads_numpy_random_and_no_scipy(tmp_path):
    code = """
        import sys, gqsearch
        scipy = any(name.split(".")[0] == "scipy" for name in sys.modules)
        print(scipy, "numpy.random" in sys.modules)
    """
    assert run_fresh(code, tmp_path) == ["False", "True"]


def test_no_path_loads_scipy(tmp_path):
    # runs and sweeps load neither SciPy nor the dense oracles; validation
    # loads the dense oracles, still without SciPy
    (tmp_path / "general.ini").write_text(
        "[experiment]\nkind = general-search\n"
        "[instance]\nn = 64\nseed = 1\n"
        "[run]\nq_max = 40\nout = general.csv\n",
        encoding="ascii",
    )
    (tmp_path / "boosted.ini").write_text(
        "[experiment]\nkind = boosted-search\n"
        "[instance]\nn = 32\nseed = 2\nfamily = resonant\nalpha = 0.125\n"
        "[run]\nout = boosted.csv\n",
        encoding="ascii",
    )
    (tmp_path / "sweep.ini").write_text(
        "[experiment]\nkind = boosted-search\n"
        "[instance]\nn = 16, 32\nseed = 3\n"
        "[run]\nq_max = 5\nout = sweep.csv\n",
        encoding="ascii",
    )
    code = """
        import sys
        from gqsearch import cli, harness

        def loaded():
            scipy = any(name.split(".")[0] == "scipy" for name in sys.modules)
            return [scipy, "gqsearch.dense" in sys.modules]

        seen = []
        for command, config in (
            ("run", "general.ini"), ("run", "boosted.ini"), ("sweep", "sweep.ini")
        ):
            seen += [cli.main([command, "--config", config]), *loaded()]
        seen += [harness.run_validation(echo=lambda line: None), *loaded()]
        print(*seen)
    """
    quiet = ["0", "False", "False"]
    assert run_fresh(code, tmp_path) == quiet * 3 + ["True", "False", "True"]
    for report in ("general.csv", "boosted.csv", "sweep.csv"):
        assert (tmp_path / report).exists()


def test_relevant_pair_above_the_dense_cap_loads_no_scipy(tmp_path):
    # N = 8192 > DENSE_CAP: no dense eigensolve could run, the secular solve must
    code = """
        import sys
        from gqsearch import search, spectra
        from gqsearch.linalg import DENSE_CAP

        spec = spectra.symmetric_spectrum(8192, 1, 0.5, 1.5, b_target=8)
        plus, minus, residual = search.verify_relevant_pair(
            spectra.SearchInstance.build(spec)
        )
        scipy = any(name.split(".")[0] == "scipy" for name in sys.modules)
        print(spec.dimension > DENSE_CAP, plus > 0.0 > minus,
              0.0 <= residual < 0.02, "gqsearch.dense" not in sys.modules, scipy)
    """
    assert run_fresh(code, tmp_path) == ["True"] * 4 + ["False"]


def test_import_exposes_the_layer_modules(tmp_path):
    code = """
        import types, gqsearch
        public = sorted(name for name in vars(gqsearch) if not name.startswith("_"))
        modules = all(
            isinstance(getattr(gqsearch, name), types.ModuleType) for name in public
        )
        print(*public, modules, isinstance(gqsearch.__version__, str))
    """
    layers = ["harness", "linalg", "pea", "search", "spectra"]
    assert run_fresh(code, tmp_path) == layers + ["True", "True"]


def test_module_entry_point_runs_validate(tmp_path):
    # ``python -m gqsearch`` is the package's __main__, which no other test runs
    result = run_python(["-m", "gqsearch", "validate"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "".join(f"{line}\n" for line in VALIDATION_LINES)
    assert result.stderr == ""

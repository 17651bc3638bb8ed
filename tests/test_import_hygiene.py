"""Import hygiene: the CLI, codec and chunk path start without scipy.

Only the analytic Markov solvers need scipy, so importing the package,
the CLI or the Monte-Carlo chunk module in a fresh interpreter must not
load it.  Each check runs in its own subprocess: the test process itself
has long since imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` first on the path."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC_DIR!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_after(module: str) -> list:
    out = _fresh(
        f"import json, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    return json.loads(out)


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.simulator.montecarlo", "repro.rs.backends"]
)
def test_import_loads_no_scipy(module):
    assert _scipy_after(module) == []


def test_analytic_solve_still_loads_scipy():
    # The other side: a real solve pulls scipy in, so the check above
    # can fail.
    out = _fresh(
        "from repro import ber_curve, duplex_model\n"
        "ber_curve(duplex_model(18, 16, seu_per_bit_day=1.7e-5), [12.0])\n"
        "print('scipy.sparse' in sys.modules)"
    )
    assert out.strip() == "True"


def test_engine_auto_does_not_import_runtime():
    out = _fresh(
        "import warnings\n"
        "from repro.rs.backends import resolve_engine\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    resolve_engine('auto')\n"
        "print('repro.runtime' in sys.modules)"
    )
    assert out.strip() == "False"


def test_quick_start_names_resolve():
    out = _fresh(
        "from repro import duplex_model, ber_curve, RSCode, CTMC\n"
        "import repro\n"
        "print(repro.duplex_model is duplex_model, repro.RSCode.__module__)"
    )
    assert out.split() == ["True", "repro.rs.codec"]


def test_all_is_listed_by_dir():
    out = _fresh(
        "import repro, repro.simulator\n"
        "for pkg in (repro, repro.simulator):\n"
        "    print(set(pkg.__all__) <= set(dir(pkg)))"
    )
    assert out.split() == ["True", "True"]


def test_unknown_attribute_raises_attribute_error():
    out = _fresh(
        "import repro\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__)\n"
        "print(hasattr(repro, 'no_such_name'))"
    )
    assert out.split() == ["AttributeError", "False"]


def test_resilience_warning_keeps_one_identity():
    from repro.resilience import ResilienceWarning
    from repro.runtime import ResilienceWarning as from_runtime
    from repro.runtime.supervisor import ResilienceWarning as from_supervisor

    assert ResilienceWarning is from_runtime is from_supervisor

"""What an entry point loads: exact module sets, not timings.

Each check runs a fresh interpreter, so modules the test process has
already imported cannot hide a regression.
"""

import os
import subprocess
import sys

import pytest

import repro

REPO_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Packages the trace toolkit, the streaming engine and the daemon never
#: run: the simulator stack, sweep execution, chaos and scipy.
NEVER_LOADED = (
    "scipy", "repro.sim", "repro.system", "repro.workloads", "repro.exec",
    "repro.chaos", "repro.experiments.runner",
    *(f"repro.experiments.set{n}" for n in range(1, 7)),
)


def loaded_modules(statement: str) -> list[str]:
    probe = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    return result.stdout.split()


@pytest.mark.parametrize("statement", [
    "import repro.cli",
    "import repro.trace_io, repro.live, repro.diagnose, repro.serve",
], ids=["cli", "streaming"])
def test_entry_point_loads_no_simulator_and_no_scipy(statement):
    modules = loaded_modules(statement)
    assert "repro.core.metrics" in modules  # the probe really ran
    unexpected = sorted(
        name for name in modules
        if any(name == never or name.startswith(never + ".")
               for never in NEVER_LOADED))
    assert unexpected == []


def test_unknown_package_attribute_is_an_attribute_error():
    import repro.experiments
    import repro.faults
    for package in (repro, repro.experiments, repro.faults):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name

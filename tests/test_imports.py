"""Import cost: scipy loads only when a goodness-of-fit test runs.

scipy.stats takes most of a second to import, several times numpy's cost,
and only `gof_test`'s KS tests (the `walkstop dist` battery) need it.  The
VShape chi-square test loads scipy.special alone, about a third of that.
The other commands load no scipy module at all, so the dynamic program
stays numpy-only; neither does a rejected input.  The check runs in a
fresh interpreter, since the pytest process has already loaded scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import walkstop

# Every command but dist, at small sizes; then a rejected input; then a test.
_PROBE = """
import contextlib, io, sys
import numpy as np
import walkstop
from walkstop import cli

commands = [
    "closed-forms",
    "qcheck --grid 10",
    "dp --h 0.1 --cap 30",
    "simulate --h 0.25 --trials 50",
    "bounds --h 0.25 --trials 50",
    "sweep --grid 0.5,0.25 --h 0.125 --trials 50",
]
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split() + ["--no-meta"]) == 0, command
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"a scipy-free command loaded {loaded[:3]}"

try:
    walkstop.gof_test(np.arange(4.0), walkstop.Empirical(values=np.array([1.0, np.nan])))
except ValueError:
    pass
else:
    raise AssertionError("a NaN reference sample was accepted")
assert "scipy.stats" not in sys.modules, "rejected input loaded scipy.stats"

try:
    walkstop.gof_test(np.array([0.5, 1.5, -1.0] * 50), walkstop.VShape(hdiam=2))
except ValueError:
    pass
else:
    raise AssertionError("an off-lattice VShape sample was accepted")
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"a rejected VShape input loaded {loaded[:3]}"

walkstop.gof_test(np.array([-2.0, -1.0, 1.0, 2.0] * 50), walkstop.VShape(hdiam=2))
assert "scipy.special" in sys.modules, "the VShape test ran without scipy.special"
assert "scipy.stats" not in sys.modules, "the VShape test loaded scipy.stats"

walkstop.gof_test(np.arange(1.0, 50.0), walkstop.Exponential(mean=25.0))
assert "scipy.stats" in sys.modules, "gof_test ran without scipy.stats"
"""


def test_scipy_stats_loads_only_for_goodness_of_fit():
    src = str(Path(walkstop.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# The package's public names, each declared once in its submodule's __all__.
_PUBLIC = {
    "path_engine": "LatticeError LatticeSpec PathState init_state advance",
    "stopping_rules": "Drawdown Rise AbsGap Gap DropDrawdown DiameterReach FirstExit"
    " StopRule StoppedPath should_stop default_max_steps run_until_stop",
    "q_process": "QParams DomainError DOMAIN_TOL q_value payoff q_gap_form",
    "exact_walk": "ExitStats exit_stats walk_diameter_pmf absorption_pmf_oracle"
    " exact_stop_steps exact_stop_time closed_forms WalkDP DPSolution dp_solve",
    "mc_harness": "Z99 REWARD_NAMES TrialStats RatioReport CollectResult collect_rewards"
    " stats_from_sample estimate ratio_report ratio_report_from Exponential Uniform"
    " VShape Empirical GofResult gof_test DriftRow DriftReport drift_check"
    " levy_samples SweepPoint SweepResult sweep_payoff",
}


def test_public_names_are_declared_once_per_submodule():
    names = walkstop.__all__
    assert len(names) == len(set(names))
    modules = [getattr(walkstop, module) for module in _PUBLIC]
    assert names == ["__version__", *(n for m in modules for n in m.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(walkstop, name) is getattr(module, name), name
    expected = {n for group in _PUBLIC.values() for n in group.split()}
    assert len(expected) == 56
    assert set(names) == {"__version__"} | expected


def test_positivity_check_is_written_once():
    """`0 < x < inf` lives only in `path_engine._require_positive`.

    FirstExit's two-sided `-inf < lo < 0 < hi < inf` is a different check.
    """
    check = re.compile(r"(?<!< )0\.0 < [\w.]+ < [\w.]*inf\b")
    found = []
    for path in sorted(Path(walkstop.__file__).resolve().parent.glob("*.py")):
        owner = None
        for line in path.read_text().splitlines():
            top = re.match(r"(?:def|class) (\w+)", line)
            owner = top.group(1) if top else owner
            if check.search(line):
                found.append((path.name, owner))
    assert found == [("path_engine.py", "_require_positive")]


def test_block_hint_is_called_once_in_mc_harness():
    """Both first-passage scans size their first block from `_block_hint`:
    across the package its callers are exactly `_run_chunk`, the batched
    engine, and `run_until_stop`, and no other block constant is left."""
    callers, names = [], set()
    for path in sorted(Path(walkstop.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names.add(getattr(node, "id", None))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_block_hint":
                    callers.append(getattr(top, "name", "<module>"))
    assert sorted(callers) == ["_run_chunk", "run_until_stop"]
    assert not names & {"_FIRST_BLOCK", "_MAX_BLOCK"}

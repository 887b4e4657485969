"""Import cost: scipy loads only when a goodness-of-fit p-value needs it,
scipy.stats never does, and the process pool loads only when it starts.

scipy.stats takes most of a second and about 45 MB to import, on top of
scipy.special.  `gof_test` needs scipy.special at most: the VShape
chi-square test takes its p-value from chdtrc, the one-sample KS tests from
kolmogorov (and the exponential CDF from expm1), and the two-sample test
from the finite-n KS law ported into `walkstop._ksstats`, whose kernels are
numpy but for 2 * smirnov at large statistics.  So a two-sample test of two
samples of one law loads no scipy module, and one with D in [1/2, 1)
loads scipy.special alone.  Every command but `dist` loads no scipy module
at all, so the dynamic program stays numpy-only; neither does a rejected
input.  `dist` runs the whole battery and loads scipy.special alone.

`import walkstop` and every run at one worker never load multiprocessing:
`_map_trials` imports the process pool only when it starts one.

Each check runs in a fresh interpreter, since the pytest process has
already loaded scipy and the pool.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import walkstop

# Every command but dist, at small sizes; then rejected inputs; then dist.
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

rejected = {
    "a NaN reference sample": (np.arange(4.0), walkstop.Empirical(values=np.array([1.0, np.nan]))),
    "an infinite sample": (np.array([1.0, 2.0, np.inf]), walkstop.Exponential(mean=1.0)),
    "an off-lattice VShape sample": (np.array([0.5, 1.5, -1.0] * 50), walkstop.VShape(hdiam=2)),
    "a 2-D sample": (np.arange(20.0).reshape(4, 5) + 1, walkstop.Exponential(mean=2.0)),
}
for what, (sample, target) in rejected.items():
    try:
        walkstop.gof_test(sample, target)
    except ValueError:
        pass
    else:
        raise AssertionError(f"{what} was accepted")
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"a rejected input loaded {loaded[:3]}"

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["dist", "--trials", "200", "--no-meta"]) == 0
assert "scipy.special" in sys.modules, "dist ran without scipy.special"
assert "scipy.stats" not in sys.modules, "dist loaded scipy.stats"
"""

# One goodness-of-fit test, alone in a fresh interpreter.
_GOF_PROBE = """
import sys
import numpy as np
import walkstop

assert "scipy" not in sys.modules, "import walkstop loaded scipy"
sample = np.array([-2.0, -1.0, 1.0, 2.0] * 50)
walkstop.gof_test(sample, {target})
assert "scipy.special" in sys.modules, "the test ran without scipy.special"
assert "scipy.stats" not in sys.modules, "the test loaded scipy.stats"
"""

# Two samples of one law at the Levy-identity check's size: D sits below
# every smirnov cut of the finite-n law, so no scipy module loads.
_SAME_LAW_PROBE = """
import sys
import numpy as np
import walkstop

rng = np.random.default_rng(7)
res = walkstop.gof_test(rng.exponential(size=3500), walkstop.Empirical(rng.exponential(size=3500)))
assert 3500 / 2 * res.statistic ** 2 < 2.2 and res.p_value > 0.01, res
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, f"a same-law two-sample test loaded {loaded[:3]}"
"""

# The three Monte Carlo front doors at one worker, then one at two.
_SERIAL_PROBE = """
import sys
import walkstop
from walkstop import mc_harness

POOL = ("multiprocessing", "concurrent.futures.process")

def loaded(*names):
    return [m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names)]

assert not loaded(*POOL), "import walkstop loaded the pool"
spec = walkstop.LatticeSpec(h=0.25)
walkstop.collect_rewards(walkstop.Gap(1.0), ("max",), spec, 50, 3, workers=1)
walkstop.levy_samples(1.0, spec, 50, 3, workers=1)
walkstop.drift_check(1.0, 1.0, 50, 3, (0.0, 1.0), spec=spec, workers=1)
assert not loaded("scipy", *POOL), f"a serial run loaded {loaded('scipy', *POOL)[:3]}"
# Two workers even on a one-CPU host, so the pool must start.
mc_harness._usable_cpus = lambda: 2
walkstop.collect_rewards(walkstop.Gap(1.0), ("max",), spec, 50, 3, workers=2)
assert "concurrent.futures.process" in sys.modules, "workers=2 ran without the pool"
"""


def _run_fresh(code):
    src = str(Path(walkstop.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_goodness_of_fit_loads_scipy_special_only():
    _run_fresh(_PROBE)


@pytest.mark.parametrize(
    "target",
    [
        "walkstop.VShape(hdiam=2)",
        "walkstop.Exponential(mean=2.0)",
        "walkstop.Uniform(hi=3.0)",
        # D = 0.709 against the sample: the finite-n law's 2 * smirnov branch
        # (D >= 1 returns 0 before any kernel)
        "walkstop.Empirical(values=np.arange(0.5, 6.0, 0.1))",
    ],
)
def test_each_gof_target_loads_scipy_special_not_stats(target):
    _run_fresh(_GOF_PROBE.format(target=target))


def test_same_law_two_sample_test_loads_no_scipy():
    _run_fresh(_SAME_LAW_PROBE)


def test_serial_runs_never_load_the_process_pool():
    _run_fresh(_SERIAL_PROBE)


# The package's public names, each declared once in its submodule's __all__.
_PUBLIC = {
    "path_engine": "LatticeError LatticeSpec PathState init_state advance",
    "stopping_rules": "Drawdown Rise AbsGap Gap DropDrawdown DiameterReach FirstExit"
    " StopRule StoppedPath should_stop default_max_steps run_until_stop",
    "q_process": "QParams DomainError DOMAIN_TOL q_value payoff q_gap_form",
    "exact_walk": "walk_diameter_pmf absorption_pmf_oracle exact_stop_steps closed_forms"
    " WalkDP DPSolution dp_solve",
    "mc_harness": "Z99 REWARD_NAMES TrialStats RatioReport CollectResult collect_rewards"
    " stats_from_sample ratio_report_from Exponential Uniform"
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
    assert len(expected) == 51
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


def test_integer_check_is_written_once():
    """Every count argument (n, seed, workers, max_steps, cap) is checked by
    `path_engine._require_int`: across the package only it names `Integral`."""
    owners = []
    for path in sorted(Path(walkstop.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if "Integral" in (getattr(node, f, None) for f in ("attr", "id", "name")):
                    owners.append((path.name, getattr(top, "name", "<module>")))
    assert owners == [("path_engine.py", "_require_int")]


def test_optimal_threshold_is_written_once():
    """d* = 1/(2c) lives only in `QParams.optimal`; every other user reads
    it from there.  `closed_forms` also writes 1/(2c), as the optimal
    drop-drawdown payoff `payoff_plus_opt`, which happens to equal it."""
    found = []
    for path in sorted(Path(walkstop.__file__).resolve().parent.glob("*.py")):
        owner = None
        for line in path.read_text().splitlines():
            top = re.match(r"\s*(?:def|class) (\w+)", line)
            owner = top.group(1) if top else owner
            if "1.0 / (2.0 * c)" in line:
                found.append((path.name, owner))
    assert found == [("exact_walk.py", "closed_forms"), ("q_process.py", "optimal")]


def test_philox_stream_is_read_only_in_steps():
    """The step format has one home, `mc_harness._Steps`: across the package
    only it builds a Philox bit generator, writes its key or counter or
    calls `random_raw`, and the scans see 16-step codes alone."""
    owners, names = [], set()
    for path in sorted(Path(walkstop.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                word = next(
                    (getattr(node, f) for f in ("attr", "id", "name") if hasattr(node, f)), None
                )
                names.add(word)
                if word in {"Philox", "random_raw", "_key", "_counter"}:
                    owners.append((path.name, getattr(top, "name", "<module>"), word))
    assert sorted(set(owners)) == [
        ("mc_harness.py", "_Steps", "Philox"),
        ("mc_harness.py", "_Steps", "_counter"),
        ("mc_harness.py", "_Steps", "_key"),
        ("mc_harness.py", "_Steps", "random_raw"),
    ]
    assert "_codes" not in names


def test_block_hint_callers_are_run_chunk_and_run_until_stop():
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

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


_PACKAGE = Path(walkstop.__file__).resolve().parent


def _nodes():
    """(module file, owner, node) for every node of the package's syntax
    trees.  The owner is the dotted name of the innermost def or class
    around the node ("LatticeSpec.units"), or "<module>" at the top level.
    Every guard below that a rule is written once reads the package here."""
    for path in sorted(_PACKAGE.glob("*.py")):
        todo = [(ast.parse(path.read_text()), "<module>")]
        while todo:
            node, owner = todo.pop()
            for child in ast.iter_child_nodes(node):
                yield path.name, owner, child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    todo.append((child, child.name if owner == "<module>" else f"{owner}.{child.name}"))
                else:
                    todo.append((child, owner))


def _owners(hit):
    """(module file, owner) of every node for which hit(node) holds, sorted."""
    return sorted((name, owner) for name, owner, node in _nodes() if hit(node))


def _word(node):
    """The name a node spells: a Name's id, an Attribute's attr, a def's name."""
    return next((getattr(node, f) for f in ("attr", "id", "name") if hasattr(node, f)), None)


def _code(node, kind):
    """The node's source as `ast.unparse` writes it, if it is of `kind`."""
    return ast.unparse(node) if isinstance(node, kind) else ""


def _names():
    return {_word(node) for _, _, node in _nodes()}


def test_positivity_check_is_written_once():
    """`0 < x < inf` lives only in `path_engine._require_positive`.

    FirstExit's two-sided `-inf < lo < 0 < hi < inf` is a different check.
    """
    check = re.compile(r"(?<!< )0\.0 < [\w.]+ < [\w.]*inf\b")
    found = _owners(lambda node: check.search(_code(node, ast.Compare)))
    assert found == [("path_engine.py", "_require_positive")]


def test_integer_check_is_written_once():
    """Every count argument (n, seed, workers, max_steps, cap, --grid) is
    checked by `path_engine._require_int`: across the package only it names
    `Integral`."""
    owners = _owners(lambda node: _word(node) == "Integral")
    assert owners == [("path_engine.py", "_require_int")]


def test_seed_range_is_written_once():
    """The 64-bit stream key's range lives only in `path_engine._require_seed`:
    across the package only it writes `2**64`, and `_check_trials`, the CLI's
    `main` and `dist` call it."""
    owners = _owners(lambda node: _code(node, ast.BinOp) == "2 ** 64")
    assert owners == [("path_engine.py", "_require_seed")]
    callers = _owners(lambda node: isinstance(node, ast.Call) and _word(node.func) == "_require_seed")
    assert callers == [("cli.py", "_cmd_dist"), ("cli.py", "main"), ("mc_harness.py", "_check_trials")]


def test_lattice_rounding_is_written_once():
    """Levels and times round to whole steps by one rule, in
    `LatticeSpec.units`: across the package only it writes the tolerance
    `1e-9 * max(1.0, ...)` (which `ast.unparse` spells 1e-09), and the
    second rule for times, `_time_units`, is gone."""
    owners = _owners(lambda node: _code(node, ast.BinOp).startswith("1e-09 * max(1.0,"))
    assert owners == [("path_engine.py", "LatticeSpec.units")]
    assert "_time_units" not in _names()


def test_sample_shape_check_is_written_once():
    """A sample is one-dimensional by one check, `mc_harness._sample`, which
    serves both `stats_from_sample` and `gof_test`'s `_finite_sample`."""
    owners = _owners(lambda node: _code(node, ast.Compare).endswith(".ndim != 1"))
    assert owners == [("mc_harness.py", "_sample")]
    callers = _owners(lambda node: isinstance(node, ast.Call) and _word(node.func) == "_sample")
    assert callers == [("mc_harness.py", "_finite_sample"), ("mc_harness.py", "stats_from_sample")]


def test_optimal_threshold_is_written_once():
    """d* = 1/(2c) lives only in `QParams.optimal`; every other user reads
    it from there.  `closed_forms` also writes 1/(2c), as the optimal
    drop-drawdown payoff `payoff_plus_opt`, which happens to equal it."""
    found = _owners(lambda node: _code(node, ast.BinOp) == "1.0 / (2.0 * c)")
    assert found == [("exact_walk.py", "closed_forms"), ("q_process.py", "QParams.optimal")]


def test_philox_stream_is_read_only_in_steps():
    """The step format has one home, `mc_harness._Steps`: across the package
    only it builds a Philox bit generator, writes its key or counter or
    calls `random_raw`, and the scans see 16-step codes alone."""
    owners = {
        (*owner, word)
        for word in ("Philox", "random_raw", "_key", "_counter")
        for owner in _owners(lambda node: _word(node) == word)
    }
    assert sorted(owners) == [
        ("mc_harness.py", "_Steps.__init__", "Philox"),
        ("mc_harness.py", "_Steps.__init__", "_counter"),
        ("mc_harness.py", "_Steps.__init__", "_key"),
        ("mc_harness.py", "_Steps.codes", "_counter"),
        ("mc_harness.py", "_Steps.codes", "_key"),
        ("mc_harness.py", "_Steps.codes", "random_raw"),
    ]
    assert "_codes" not in _names()


def test_block_hint_callers_are_run_chunk_and_run_until_stop():
    """Both first-passage scans size their first block from `_block_hint`:
    across the package its callers are exactly `_run_chunk`, the batched
    engine, and `run_until_stop`, and no other block constant is left."""
    callers = _owners(lambda node: isinstance(node, ast.Call) and _word(node.func) == "_block_hint")
    assert callers == [("mc_harness.py", "_run_chunk"), ("stopping_rules.py", "run_until_stop")]
    assert not _names() & {"_FIRST_BLOCK", "_MAX_BLOCK"}

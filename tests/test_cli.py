"""End-to-end tests for the command-line interface.

Every test drives ``walkstop.cli.main`` in-process with an explicit argv,
so exit codes, stdout/stderr text, and emitted files are all checked
without spawning subprocesses.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from walkstop import cli, exact_walk, mc_harness, q_process
from walkstop.cli import _build_parser, main
from walkstop.stopping_rules import _RULES

META_KEYS = {"command", "params", "results", "censored", "seed"}


def run_cli(argv, capsys):
    """Invoke the CLI once; normalize SystemExit into a return code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- JSON schema and metadata ------------------------------------------------------


def test_json_schema_with_and_without_meta(capsys):
    argv = ["simulate", "--rule", "diameter", "--hdiam", "2", "--h", "1",
            "--trials", "4000", "--seed", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == META_KEYS | {"runtime_s", "timestamp"}
    assert payload["command"] == "simulate"
    assert payload["seed"] == 3
    assert payload["censored"] == 0
    # worker count must never appear in the echoed parameters: output is
    # required to be byte-identical no matter how the work is split
    assert "workers" not in payload["params"]
    est = payload["results"]["estimate"]
    assert est["n"] == 4000
    # stopping at diameter 2 on the unit lattice takes 3 steps on average
    assert abs(est["mean"] - 3.0) < 0.2
    assert est["ci_low"] < 3.0 < est["ci_high"]

    code, out, _ = run_cli(argv + ["--no-meta"], capsys)
    assert code == 0
    assert set(json.loads(out)) == META_KEYS


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["closed-forms", "--c", "1", "--d", "0.5", "--no-meta"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    target = tmp_path / "cf.json"
    code, out2, _ = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 0 and out2 == ""
    assert target.read_text(encoding="utf-8") == out


# --- every rule of the rule table --------------------------------------------------

# The threshold flags each --rule value reads besides --d, in --rule order.
RULE_FLAGS = {
    "drawdown": {},
    "rise": {},
    "absgap": {},
    "gap": {},
    "dropdd": {},
    "diameter": {"hdiam": 0.5},
    "exit": {"lo": -0.25, "hi": 0.5},
}


@pytest.mark.parametrize("rule", list(RULE_FLAGS))
def test_simulate_runs_every_rule_and_echoes_its_thresholds(rule, capsys):
    flags = RULE_FLAGS[rule]
    base = ["simulate", "--rule", rule, "--d", "0.5", "--h", "0.125",
            "--trials", "200", "--no-meta"]
    code, out, err = run_cli(base + [f"--{k}={v}" for k, v in flags.items()], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["censored"] == 0
    params = payload["params"]
    assert params["rule"] == rule
    assert params["d"] == (None if flags else 0.5)
    for name in ("hdiam", "lo", "hi"):
        assert params[name] == flags.get(name)
    if flags:
        code, out, err = run_cli(base, capsys)
        assert code == 1 and out == ""
        wanted = " and ".join(f"--{name}" for name in flags)
        assert err == f"walkstop: invalid parameters: --rule {rule} requires {wanted}\n"


def test_rule_choices_are_the_rule_table():
    simulate = _build_parser()._subparsers._group_actions[0].choices["simulate"]
    (action,) = [a for a in simulate._actions if a.dest == "rule"]
    assert tuple(action.choices) == tuple(_RULES) == tuple(RULE_FLAGS)


# --- closed-forms golden table -----------------------------------------------------


def test_closed_forms_golden_values(capsys):
    code, out, _ = run_cli(
        ["closed-forms", "--c", "1", "--d", "0.5", "--no-meta", "--assert"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    # every entry at (c, d) = (1, 1/2) is dyadic, so equality is exact
    assert results == {
        "E_tau_d": 0.25,
        "E_M_tau_d": 0.5,
        "E_T_gap": 0.75,
        "E_D_at_T_gap": 1.5,
        "payoff_gap": 0.75,
        "payoff_gap_opt": 0.75,
        "E_Tplus_derived": 0.5,
        "E_Tplus_printed": 2.0,
        "E_Dplus_at_Tplus_derived": 1.0,
        "payoff_plus": 0.5,
        "payoff_plus_opt": 0.5,
        "E_delta_2d": 0.5,
        "delta_increment_0_2d": 0.5,
    }


def test_closed_forms_assert_checks_payoff_identity(monkeypatch, capsys):
    """--assert checks payoff_gap against E_D_at_T_gap - c * E_T_gap."""
    # At d = 1/c the two sides are 0 up to rounding of 30 - 30.
    code, _, err = run_cli(["closed-forms", "--c", "0.1", "--d", "10", "--assert"], capsys)
    assert code == 0, err

    def wrong(c, d):
        table = exact_walk.closed_forms(c, d)
        return {**table, "payoff_gap": table["payoff_gap"] + 1e-6}

    monkeypatch.setattr(cli, "closed_forms", wrong)
    code, _, err = run_cli(["closed-forms", "--no-meta", "--assert"], capsys)
    assert code == 2 and "payoff_gap" in err


def test_simulate_csv_is_flat_key_value(capsys):
    code, out, _ = run_cli(
        ["simulate", "--rule", "diameter", "--hdiam", "2", "--h", "1",
         "--trials", "500", "--seed", "3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["key", "value"]
    table = dict(rows)
    assert set(table) == {
        "estimate.mean", "estimate.ci_low", "estimate.ci_high",
        "estimate.n", "estimate.variance",
    }
    assert int(table["estimate.n"]) == 500


# --- subcommand checks under --assert ----------------------------------------------


def test_qcheck_assert_passes(capsys):
    code, out, _ = run_cli(
        ["qcheck", "--grid", "40", "--seed", "11", "--assert", "--no-meta"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["points"] == 1600
    assert results["identity_residual"] < 1e-12
    assert results["min_gap_form"]["value"] >= 0.0
    assert results["zero_on_stopped_set"] == 0.0


def test_dp_assert_value_and_boundary(capsys):
    code, out, _ = run_cli(
        ["dp", "--c", "1", "--h", "0.025", "--cap", "140", "--tol", "1e-8",
         "--assert", "--no-meta"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["value_origin"] - 0.75) <= 0.05 * 0.75
    boundary = {a: b for a, b in results["stop_boundary"]}
    # optimal threshold 1/(2c) is 20 lattice units at h = 1/40; deep in the
    # bulk the first stopped column must sit within one cell of it
    assert abs(boundary[40] - 20) <= 1
    assert abs(boundary[20] - 20) <= 1

    code, out, _ = run_cli(
        ["dp", "--c", "1", "--h", "0.025", "--cap", "140", "--tol", "1e-8",
         "--format", "csv", "--no-meta"],
        capsys,
    )
    header, rows = parse_csv(out)
    assert header == ["a", "b_min"]
    assert len(rows) == 141


def test_bounds_assert_passes_at_fine_step(capsys):
    code, out, _ = run_cli(
        ["bounds", "--h", str(1.0 / 60.0), "--trials", "2500", "--seed", "7",
         "--assert", "--no-meta"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert 1.70 <= results["gap_ratio"]["ratio"] <= 1.77
    assert 1.39 <= results["drop_ratio"]["ratio"] <= 1.45
    assert 0.97 <= results["max_ratio"]["ratio"] <= 1.03


def test_bounds_csv_table(capsys):
    code, out, _ = run_cli(
        ["bounds", "--trials", "400", "--seed", "7", "--format", "csv",
         "--no-meta"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rule", "ratio", "ci_low", "ci_high", "reward_mean",
                      "terminal_second_moment"]
    assert [r[0] for r in rows] == ["gap_ratio", "drop_ratio", "max_ratio"]


def test_sweep_csv_curve(capsys):
    code, out, _ = run_cli(
        ["sweep", "--grid", "0.25,0.5", "--h", "0.0125", "--trials", "400",
         "--seed", "5", "--format", "csv", "--no-meta"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d", "mean", "ci_low", "ci_high"]
    assert [float(r[0]) for r in rows] == [0.25, 0.5]
    for row in rows:
        assert float(row[2]) <= float(row[1]) <= float(row[3])


def _with_argmax(d):
    """sweep_payoff with its reported argmax replaced by d."""

    def sweep(*args):
        return dataclasses.replace(mc_harness.sweep_payoff(*args), argmax_d=d)

    return sweep


def test_sweep_assert_failure_exits_2_after_output(monkeypatch, capsys):
    # an argmax two grid cells from d* = 0.5 on the default grid
    monkeypatch.setattr(cli, "sweep_payoff", _with_argmax(1.0))
    code, out, err = run_cli(
        ["sweep", "--h", "0.0625", "--trials", "300", "--seed", "5",
         "--assert", "--no-meta"],
        capsys,
    )
    assert code == 2
    # the report is still written before the failing exit code
    payload = json.loads(out)
    assert payload["results"]["argmax_d"] == 1.0
    assert "check failed" in err and "argmax_d" in err
    assert "walkstop: check failed: argmax_d = 1.0 more than one grid cell from 0.5\n" in err


def test_sweep_assert_fails_far_from_the_clipped_optimum(monkeypatch, capsys):
    # the grid lies above d* = 0.5, so the target is its lowest point, 1.0
    monkeypatch.setattr(cli, "sweep_payoff", _with_argmax(1.5))
    code, out, err = run_cli(
        ["sweep", "--grid", "1.0,1.25,1.5", "--h", "0.0625", "--trials", "300",
         "--seed", "5", "--assert", "--no-meta"],
        capsys,
    )
    assert code == 2 and json.loads(out)["results"]["argmax_d"] == 1.5
    assert "walkstop: check failed: argmax_d = 1.5 more than one grid cell from 1.0\n" in err


@pytest.mark.parametrize("grid", ["0.1,0.2", "1.0,1.25", "0.25"])
def test_sweep_assert_passes_grids_that_miss_the_optimum(grid, capsys):
    """The payoff is concave in d, so over a grid that misses d* = 1/(2c) it
    peaks at the grid's end nearest d*; the argmax is judged against that."""
    code, out, err = run_cli(["sweep", "--grid", grid, "--trials", "2000", "--no-meta", "--assert"], capsys)
    assert code == 0, err


# --- every documented check can fail --------------------------------------------
# Each case breaks one library result that a handler reads and pins the
# exact stderr line; the report is still written and the exit code is 2.


@pytest.mark.parametrize("ratio", [5.0, math.nan])
def test_bounds_assert_fails_outside_window_and_lattice_band(ratio, monkeypatch, capsys):
    def off(*args):
        return dataclasses.replace(mc_harness.ratio_report_from(*args), ratio=ratio)

    monkeypatch.setattr(cli, "ratio_report_from", off)
    code, out, err = run_cli(
        ["bounds", "--h", "0.25", "--trials", "200", "--no-meta", "--assert"], capsys
    )
    assert code == 2 and json.loads(out)["command"] == "bounds"
    # lattice values at k = 4: 3k / sqrt(3k^2 + 2k), sqrt(2k / (k+1)), sqrt(k / (k+1))
    shown = f"{ratio:.4f}"
    assert err.splitlines() == [
        f"walkstop: check failed: gap_ratio = {shown} outside [1.7, 1.77] and more than "
        "3 standard errors from the lattice value 1.6036",
        f"walkstop: check failed: drop_ratio = {shown} outside [1.39, 1.45] and more than "
        "3 standard errors from the lattice value 1.2649",
        f"walkstop: check failed: max_ratio = {shown} outside [0.97, 1.03] and more than "
        "3 standard errors from the lattice value 0.8944",
    ]


def _plus(fn, when, offset=1e-6):
    """fn with offset added to its result on the calls where when(*args) holds."""

    def shifted(*args):
        value = fn(*args)
        return value + offset if when(*args) else value

    return shifted


def _wider(c, d, delta, gamma):
    """The delta = 2d seam's two branches, the wide one off by 1e-6."""
    narrow, wide = q_process._premium_branches(c, d, delta, gamma)
    return narrow, wide + 1e-6


def _shift_grid(monkeypatch, shift):
    """Add shift(gap_form, gamma) to q and to its gap form on qcheck's
    1600-point grid (--grid 40) only, so q = payoff + gap form still holds."""

    def gap_form(c, delta, gamma):
        g = q_process.q_gap_form(c, delta, gamma)
        return g + shift(g, gamma) if np.size(gamma) == 1600 else g

    def q(p, delta, gamma, t):
        v = q_process.q_value(p, delta, gamma, t)
        if np.size(gamma) == 1600:
            v = v + shift(q_process.q_gap_form(p.c, delta, gamma), gamma)
        return v

    monkeypatch.setattr(cli, "q_gap_form", gap_form)
    monkeypatch.setattr(cli, "q_value", q)


@pytest.mark.parametrize(
    "breakage, lines",
    [
        (lambda mp: mp.setattr(cli, "payoff", _plus(q_process.payoff, lambda *a: True)),
         ["identity_residual = 1.000e-06 >= 1e-12"]),
        (lambda mp: mp.setattr(cli, "payoff", _plus(q_process.payoff, lambda *a: True, math.nan)),
         ["identity_residual = nan >= 1e-12"]),
        (lambda mp: mp.setattr(cli, "_premium_branches", _wider),
         ["continuity_residual_delta_seam = 1.000e-06 >= 1e-12"]),
        # the gamma seam is the only gap-form call with one gamma throughout
        (lambda mp: mp.setattr(cli, "q_gap_form", _plus(
            q_process.q_gap_form, lambda c, delta, gamma: np.ptp(gamma) == 0.0)),
         ["continuity_residual_gamma_seam = 1.000e-06 >= 1e-12"]),
        # the origin probes are the only scalar q calls
        (lambda mp: mp.setattr(cli, "q_value", _plus(
            q_process.q_value, lambda p, delta, gamma, t: np.ndim(delta) == 0)),
         ["origin_payoff_residual = 1.000e-06 >= 1e-12"]),
        (lambda mp: _shift_grid(mp, lambda g, gamma: np.where(gamma >= 0.5, 1e-6, 0.0)),
         ["gap form nonzero (1.000e-06) on the stopped set gamma >= 0.5"]),
        # a negative minimum is a nonzero value on the stopped set or a
        # nonpositive one off it, so min_gap_form never fails alone
        (lambda mp: _shift_grid(mp, lambda g, gamma: np.where(gamma >= 0.5, -1e-6, 0.0)),
         ["min(Q - payoff) = -1e-06 < 0",
          "gap form nonzero (1.000e-06) on the stopped set gamma >= 0.5"]),
        (lambda mp: _shift_grid(mp, lambda g, gamma: np.where(gamma < 0.5, -g, 0.0)),
         ["gap form not strictly positive off the stopped set (min 0.000e+00)"]),
    ],
)
def test_qcheck_assert_reports_each_failed_check(breakage, lines, monkeypatch, capsys):
    breakage(monkeypatch)
    code, out, err = run_cli(["qcheck", "--grid", "40", "--no-meta", "--assert"], capsys)
    assert code == 2 and json.loads(out)["command"] == "qcheck"
    assert err.splitlines() == [f"walkstop: check failed: {line}" for line in lines]


@pytest.mark.parametrize(
    "first_stops, line",
    [
        # row 40 >= k = 20 first stops five cells past the threshold
        ({40: 25}, "stop boundary at a=40 is b=25, more than one cell from 20"),
        # row 5 <= k - 2 stops in the bulk b <= cap - 4k = 120
        ({5: 10}, "interior stop state at a=5 (b=10) below the threshold band"),
        # only the first bad row is reported
        ({40: 25, 5: 10}, "interior stop state at a=5 (b=10) below the threshold band"),
    ],
)
def test_dp_assert_reports_first_box_violation(first_stops, line, monkeypatch, capsys):
    def perturbed(spec):
        sol = exact_walk.dp_solve(spec)
        region = sol.stop_region.copy()
        for a, b in first_stops.items():
            region[a, :b] = False
            region[a, b] = True
        return dataclasses.replace(sol, stop_region=region)

    code, _, err = run_cli(["dp", "--no-meta", "--assert"], capsys)
    assert code == 0 and err == ""
    monkeypatch.setattr(cli, "dp_solve", perturbed)
    code, out, err = run_cli(["dp", "--no-meta", "--assert"], capsys)
    assert code == 2 and json.loads(out)["command"] == "dp"
    assert err == f"walkstop: check failed: {line}\n"


@pytest.mark.parametrize(
    "argv, payoff",
    [
        # continuum 3/(4c) = 0.75; 3kh - (3k^2+2k)h^2 is largest at k = 12 and 10
        (["--c", "1", "--h", "0.04", "--cap", "150"], 0.7104),
        (["--h", "0.05", "--cap", "60"], 0.7),
    ],
)
def test_dp_assert_compares_with_lattice_gap_payoff(argv, payoff, monkeypatch, capsys):
    code, out, err = run_cli(["dp", *argv, "--no-meta", "--assert"], capsys)
    assert code == 0 and err == ""
    value = json.loads(out)["results"]["value_origin"]
    assert abs(value - payoff) < 0.005 and abs(value - 0.75) > 0.05 * 0.75

    def perturbed(spec):
        sol = exact_walk.dp_solve(spec)
        return dataclasses.replace(sol, value_origin=1.06 * sol.value_origin)

    monkeypatch.setattr(cli, "dp_solve", perturbed)
    code, out, err = run_cli(["dp", *argv, "--no-meta", "--assert"], capsys)
    assert code == 2 and json.loads(out)["command"] == "dp"
    assert err == (
        f"walkstop: check failed: value_origin {1.06 * value:.5f} more than 5% "
        f"from the lattice gap payoff {payoff:.5f}\n"
    )


def test_dp_assert_has_no_value_target_below_two_cells(capsys):
    cases = [
        # 1/(2ch) = 0.83: stopping after one step, worth h - ch^2 = 0.08,
        # beats every gap threshold, the best of which pays 0.
        (["--c", "3", "--h", "0.2", "--cap", "20"], 0.08),
        # 1/(2ch) = 1.67 rounds to k = 2, yet the value 0.47906 lies 6.5%
        # above the best gap payoff 0.45.
        (["--c", "1", "--h", "0.3", "--cap", "10"], 0.47906),
    ]
    for argv, value in cases:
        code, out, err = run_cli(["dp", *argv, "--no-meta"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["results"]["value_origin"] == pytest.approx(value, abs=5e-6)
        assert run_cli(["dp", *argv, "--no-meta", "--assert"], capsys) == (0, out, "")


def test_sweep_assert_fails_when_ci_misses_lattice_payoff(monkeypatch, capsys):
    def shifted(*args):
        res = mc_harness.sweep_payoff(*args)
        points = tuple(
            dataclasses.replace(p, payoff=dataclasses.replace(
                p.payoff, mean=p.payoff.mean + 1.0,
                ci_low=p.payoff.ci_low + 1.0, ci_high=p.payoff.ci_high + 1.0))
            for p in res.points
        )
        return dataclasses.replace(res, points=points)

    monkeypatch.setattr(cli, "sweep_payoff", shifted)
    code, out, err = run_cli(
        ["sweep", "--grid", "0.5", "--h", "0.125", "--trials", "300", "--seed", "1",
         "--no-meta", "--assert"],
        capsys,
    )
    assert code == 2
    (point,) = json.loads(out)["results"]["curve"]
    # 3kh - c(3k^2 + 2k)h^2 at k = 4, h = 1/8
    assert err == (
        f"walkstop: check failed: payoff curve at d=0.5: CI [{point['ci_low']:.4f}, "
        f"{point['ci_high']:.4f}] misses lattice payoff 0.6250\n"
    )


def test_closed_forms_assert_checks_decomposition(monkeypatch, capsys):
    def wrong(c, d):
        table = exact_walk.closed_forms(c, d)
        return {**table, "E_tau_d": table["E_tau_d"] + 0.25}

    monkeypatch.setattr(cli, "closed_forms", wrong)
    code, out, err = run_cli(["closed-forms", "--no-meta", "--assert"], capsys)
    assert code == 2 and json.loads(out)["results"]["E_tau_d"] == 0.5
    assert err == "walkstop: check failed: decomposition 0.5 + 0.5 != 0.75\n"


def test_dist_assert_and_tables(capsys):
    code, out, _ = run_cli(
        ["dist", "--trials", "400", "--seed", "11", "--assert", "--no-meta"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert set(results) == {"exp_ks", "uniform_ks", "vshape_chi2", "levy_ks"}
    for res in results.values():
        assert res["p_value"] > 0.01

    code, out, _ = run_cli(
        ["dist", "--trials", "400", "--seed", "11", "--format", "csv",
         "--no-meta"],
        capsys,
    )
    header, rows = parse_csv(out)
    assert header == ["x", "count"]
    assert sum(int(r[1]) for r in rows) == 400
    assert all(abs(int(r[0])) <= 4 for r in rows)

    code, out, _ = run_cli(
        ["dist", "--trials", "400", "--seed", "11", "--format", "csv",
         "--expected", "--no-meta"],
        capsys,
    )
    header, rows = parse_csv(out)
    assert header == ["bin", "mass"]
    masses = {int(r[0]): float(r[1]) for r in rows}
    assert math.isclose(sum(masses.values()), 1.0, rel_tol=0, abs_tol=1e-12)
    # termination spots of the diameter-4 walk are symmetric about the start
    assert all(math.isclose(masses[x], masses[-x], rel_tol=1e-12) for x in masses)


# --- error paths -------------------------------------------------------------------


def test_argument_errors_exit_1(capsys):
    code, _, err = run_cli(["simulate", "--bogus"], capsys)
    assert code == 1 and "argument error" in err
    code, _, err = run_cli([], capsys)
    assert code == 1 and "argument error" in err
    code, _, err = run_cli(["simulate", "--format", "xml"], capsys)
    assert code == 1 and "argument error" in err


def test_lattice_mismatch_exits_1(capsys):
    code, out, err = run_cli(
        ["simulate", "--rule", "gap", "--d", "1.0", "--h", "0.3",
         "--trials", "10"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("walkstop: lattice mismatch:")


def test_dist_lattice_mismatch_fails_before_any_run(monkeypatch, capsys):
    def no_runs(*args):
        raise AssertionError("dist ran trials before checking --d against --h")

    monkeypatch.setattr(mc_harness, "_map_trials", no_runs)
    code, out, err = run_cli(["dist", "--d", "1.05", "--h", "0.1"], capsys)
    assert code == 1 and out == ""
    assert err == "walkstop: lattice mismatch: d=1.05 is not an integer multiple of h=0.1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["qcheck", "--c", "-1"],
        ["dp", "--c", "0"],
        ["sweep", "--grid", "a,b"],
        ["sweep", "--grid", ","],
        ["simulate", "--rule", "diameter", "--trials", "10"],
        ["simulate", "--rule", "exit", "--lo", "-1", "--trials", "10"],
        ["simulate", "--trials", "10", "--seed", "-3"],
        ["simulate", "--trials", "10", "--workers", "0"],
        ["simulate", "--trials", "0"],
        # dist also draws from seed + 1 .. seed + 3
        ["dist", "--seed", str(2**64 - 3)],
        ["qcheck", "--seed", str(2**70)],
        # an exit boundary within one lattice step of the origin
        ["simulate", "--rule", "exit", "--lo=-1e-12", "--hi", "1", "--h", "1"],
        # sweep_payoff rejects c itself
        ["sweep", "--c", "0"],
        # one trial gives no variance, so no interval
        ["simulate", "--trials", "1"],
        # two thresholds on one lattice level would print one run twice
        ["sweep", "--grid", "0.5,0.5", "--trials", "50", "--no-meta"],
    ],
)
def test_invalid_parameters_exit_1(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("walkstop: invalid parameters:")


def test_qcheck_grid_below_two_exits_1(capsys):
    code, out, err = run_cli(["qcheck", "--grid", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "walkstop: invalid parameters: --grid must be >= 2, got 1\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep", "--grid", "0.5,inf", "--trials", "10"], "d"),
        (["simulate", "--rule", "gap", "--d", "inf", "--trials", "10"], "d"),
        (["simulate", "--rule", "diameter", "--hdiam", "inf", "--trials", "10"], "hdiam"),
        (["simulate", "--rule", "exit", "--lo=-inf", "--hi", "1", "--h", "0.5"], "lo"),
        (["simulate", "--d", "1", "--h", "inf", "--trials", "10"], "step size h"),
        (["dp", "--c", "inf"], "--c"),
        (["sweep", "--c", "inf", "--trials", "10"], "c"),
        (["closed-forms", "--d", "inf"], "d"),
        (["dist", "--t", "inf"], "t"),
        (["qcheck", "--c", "inf"], "--c"),
        # checked before cap = ceil(5/(c*h)) is derived from it
        (["dp", "--h", "0"], "--h"),
        (["dp", "--h", "nan"], "--h"),
        # checked before the default h is derived from it
        (["bounds", "--d", "0"], "d"),
        (["bounds", "--d", "inf"], "d"),
        (["dist", "--d", "inf"], "d"),
        (["sweep", "--grid", "inf"], "d"),
        (["sweep", "--grid", "0,0.5"], "d"),
        # checked before any of the four runs, by its own name
        (["dist", "--chi-k", "0"], "--chi-k"),
    ],
)
def test_non_finite_inputs_exit_1(argv, name, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"walkstop: invalid parameters: {name} ")
    assert "finite" in err


@pytest.mark.parametrize("extra", [[], ["--format", "csv"], ["--assert"]])
def test_censored_trials_warn_on_stderr(extra, monkeypatch, capsys):
    """Censoring is reported whatever the format, and --assert still fails on it."""
    code, clean_out, err = run_cli(["closed-forms", "--no-meta"] + extra, capsys)
    assert code == 0 and err == ""
    handler = cli._HANDLERS["closed-forms"]

    def censoring(args):
        params, results, _, table, checks = handler(args)
        return params, results, 3, table, checks

    monkeypatch.setitem(cli._HANDLERS, "closed-forms", censoring)
    code, out, err = run_cli(["closed-forms", "--no-meta"] + extra, capsys)
    assert "walkstop: warning: 3 censored trials excluded\n" in err
    if "--assert" in extra:
        assert code == 2 and err.count("check failed: censored trials: 3") == 1
    else:
        assert code == 0 and err == "walkstop: warning: 3 censored trials excluded\n"
    if "csv" in extra:
        assert out == clean_out
    else:
        assert json.loads(out)["censored"] == 3


def test_negative_values_in_exponent_notation_parse(capsys):
    base = ["simulate", "--rule", "exit", "--hi", "0.002", "--h", "0.001",
            "--trials", "50", "--seed", "1", "--no-meta"]
    code, out, err = run_cli(base + ["--lo", "-1e-3"], capsys)
    assert code == 0, err
    assert json.loads(out)["params"]["lo"] == -0.001
    assert run_cli(base + ["--lo=-1e-3"], capsys) == (0, out, "")


def test_unwritable_out_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run_cli(
        ["closed-forms", "--out", str(target)], capsys
    )
    assert code == 1
    assert "cannot write output" in err


# --- seed resolution ---------------------------------------------------------------


def test_seed_resolution_from_environment(monkeypatch, capsys):
    monkeypatch.delenv("MDL_SEED", raising=False)
    code, out, _ = run_cli(["closed-forms", "--no-meta"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 0

    monkeypatch.setenv("MDL_SEED", "7")
    code, out, _ = run_cli(["closed-forms", "--no-meta"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 7

    # an explicit flag beats the environment
    code, out, _ = run_cli(["closed-forms", "--no-meta", "--seed", "3"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 3

    monkeypatch.setenv("MDL_SEED", "not-a-number")
    code, _, err = run_cli(["closed-forms", "--no-meta"], capsys)
    assert code == 1 and err.startswith("walkstop: invalid parameters:")


# --- byte identity of --no-meta output ---------------------------------------------

# sha256 of each command's stdout with `--seed 1 --no-meta`, recorded before
# the rule table replaced per-module rule dispatch (numpy 2.4, x86-64 Linux).
# Refactors and speed-ups must leave every byte as it is; a change that moves
# the random stream on purpose records new digests and says so.
NO_META_DIGESTS = {
    "simulate --rule drawdown --h 0.1 --trials 2000 --reward terminal_sq":
        "6b9a9714b7daf5a5f1dd80cc8b0e6d809dacd3292480f905c2815e17388210da",
    "simulate --rule rise --d 0.5 --h 0.0625 --trials 2000 --reward min_abs":
        "9b6b7a634a4c879a9103765d8f6380ab7e39ff5b00526b32db83fbf6b93cca19",
    "simulate --rule absgap --h 0.1 --trials 2000 --reward abs_sup":
        "1ef723351e01771a0b87a50ee03dd292152e99555518c602027376e7f4fa48f1",
    "simulate --rule gap --trials 2000 --reward diameter":
        "e362fa15c1b8a4c0c63c7a7c9a90843ec9a2df5813a951bfe38e44bae4bcdc50",
    "simulate --rule dropdd --h 0.1 --trials 2000 --reward drop_sup":
        "d6073fffeb90b074a8bbbb2ba29a6f2df5af3127a2e72e8d0beb6d74a7655e08",
    "simulate --rule diameter --hdiam 0.5 --trials 2000 --reward terminal_x":
        "34fa776d77b66e57262bc25359037961dae771730d3bab110327563e073a24a1",
    "simulate --rule exit --lo -0.25 --hi 0.5 --trials 2000":
        "aeee5396f4d8d9f7f6639a50ad6ef9fbd2078ddd589e26849893ccc05693abcf",
    "bounds --h 0.1 --trials 2000":
        "32dca947e9ce478bc65058ec77c1812d634ba079456a63918353f3f3444f69b6",
    "sweep --grid 0.5,0.25 --h 0.0625 --trials 1000":
        "b3a49baf208df5d61d59e8074ba828fd2aba37d024403dcf0fbc18d1e9db0071",
    # long blocks, a few trials per sub-batch, as in the default sweep
    "sweep --grid 0.5,0.25 --h 0.00625 --trials 40":
        "55bb3246554d65346f04ec190a435f85055b65c49c2ec28704d89c5436b35a28",
    "dist --h 0.05 --trials 1000 --t 0.25":
        "4449baa878ecdfe5e74a4f207d30fc6f1667130f325c3a4de1d6a21f40b00c3c",
    # exact layered solve: value_origin 0.697431640839103, iterations = cap
    "dp --h 0.05 --cap 60":
        "134dac3a8bd679b8a72b1d6a9736840338ca54f9b4d415a4d67dc184067e9b5d",
    "qcheck --grid 40":
        "882742a6bd3a3a5f951d0b26693c1d989fa8a8365a124988099f2f7e33a96c84",
    "closed-forms":
        "5bddaf4a2ede2225565c591e320d9fde0d1a9fb95fa632e75bc787898f3e8560",
}


@pytest.mark.parametrize("command", list(NO_META_DIGESTS))
def test_no_meta_output_bytes_match_recorded_digest(command, capsys):
    code, out, err = run_cli(command.split() + ["--seed", "1", "--no-meta"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == NO_META_DIGESTS[command]


# --- determinism across worker counts ----------------------------------------------


def test_output_bytes_identical_across_workers(tmp_path, capsys):
    base = ["simulate", "--rule", "gap", "--d", "1", "--h", "0.05",
            "--trials", "6000", "--seed", "42", "--no-meta"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    code, _, _ = run_cli(base + ["--workers", "1", "--out", str(one)], capsys)
    assert code == 0
    code, _, _ = run_cli(base + ["--workers", "2", "--out", str(two)], capsys)
    assert code == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--trials", "10", "--seed", "-3"], "seed must be >= 0, got -3"),
        (["sweep", "--grid", "0.5", "--trials", "10", "--seed", str(2**64)],
         f"seed must be below 2**64, got {2**64}"),
        # dist also draws from seed + 1 .. seed + 3
        (["dist", "--seed", str(2**64 - 3)], f"seed + 3 must be below 2**64, got {2**64}"),
    ],
)
def test_seed_range_messages(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"walkstop: invalid parameters: {message}\n"


def test_seed_beyond_64_bits_exits_1(capsys):
    code, out, err = run_cli(
        ["sweep", "--grid", "0.5", "--h", "0.125", "--trials", "10",
         "--seed", str(2**64)],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("walkstop: invalid parameters:") and "2**64" in err


def test_assert_checks_compare_with_lattice_values(capsys):
    # On coarse lattices the O(h) bias puts every estimate far from its
    # continuum value; --assert must judge it against the lattice value.
    code, out, err = run_cli(
        ["sweep", "--grid", "0.5", "--h", "0.125", "--trials", "2000",
         "--seed", "1", "--assert", "--no-meta"],
        capsys,
    )
    assert code == 0, err
    (point,) = json.loads(out)["results"]["curve"]
    assert not (point["ci_low"] <= 0.75 <= point["ci_high"])  # 3d - 3cd^2
    assert point["ci_low"] <= 0.625 <= point["ci_high"]  # 3kh - c(3k^2+2k)h^2

    code, out, err = run_cli(
        ["bounds", "--d", "1", "--h", "0.25", "--trials", "4000", "--seed", "1",
         "--assert", "--no-meta"],
        capsys,
    )
    assert code == 0, err
    results = json.loads(out)["results"]
    k = 4
    lattice = {
        "gap_ratio": 3 * k / math.sqrt(3 * k * k + 2 * k),
        "drop_ratio": math.sqrt(2 * k / (k + 1)),
        "max_ratio": math.sqrt(k / (k + 1)),
    }
    for key, windows in (("gap_ratio", (1.70, 1.77)), ("drop_ratio", (1.39, 1.45)),
                         ("max_ratio", (0.97, 1.03))):
        ratio = results[key]["ratio"]
        assert not (windows[0] <= ratio <= windows[1])
        assert results[key]["ci_low"] <= lattice[key] <= results[key]["ci_high"]

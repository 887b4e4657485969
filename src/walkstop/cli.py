"""Command-line interface: every verification as a reproducible batch command.

Seven subcommands (simulate, bounds, dist, qcheck, dp, sweep, closed-forms)
emit machine-readable JSON (or CSV tables) with a fixed schema:
{command, params, results, censored, runtime_s, seed} plus a timestamp;
`--no-meta` drops the timestamp and runtime so identical flags and seed
produce byte-identical output.  Exit codes: 0 success, 1 validation error,
2 when `--assert` is passed and a documented check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .exact_walk import WalkDP, closed_forms, dp_solve, walk_diameter_pmf
from .mc_harness import (
    REWARD_NAMES,
    Z99,
    Empirical,
    Exponential,
    Uniform,
    VShape,
    collect_rewards,
    gof_test,
    levy_samples,
    ratio_report_from,
    stats_from_sample,
    sweep_payoff,
)
from .path_engine import LatticeError, LatticeSpec, _require_int, _require_positive, _require_seed
from .q_process import QParams, _premium_branches, payoff, q_gap_form, q_value
from .stopping_rules import _RULES, DiameterReach, Drawdown, rule_units

__all__ = ["main"]

_PROG = "walkstop"


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports argument errors on stderr with exit 1.

    Negative numbers in exponent notation (`--lo -1e-3`) are values, not options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{_PROG}: argument error: {message}\n")
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master seed (default: MDL_SEED env var, else 0)")
    p.add_argument("--workers", type=int, default=1, help="worker processes (results never depend on this)")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="out_format", help="output format")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    p.add_argument("--no-meta", action="store_true", dest="no_meta", help="omit timestamp and runtime from the output")
    p.add_argument("--assert", action="store_true", dest="run_checks", help="exit 2 unless all documented checks pass")


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="Monte Carlo estimate of one reward under one stopping rule")
    p.add_argument("--rule", choices=tuple(_RULES), default="gap")
    p.add_argument("--d", type=float, default=1.0, help="threshold for the rules that take d")
    p.add_argument("--hdiam", type=float, default=None, help="target diameter for --rule diameter")
    p.add_argument("--lo", type=float, default=None, help="lower boundary for --rule exit")
    p.add_argument("--hi", type=float, default=None, help="upper boundary for --rule exit")
    p.add_argument("--reward", choices=REWARD_NAMES, default="stop_time")
    p.add_argument("--h", type=float, default=None, help="lattice step (default: scale/20)")
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p)

    p = sub.add_parser("bounds", help="ratio reports for the gap, drop-drawdown, and drawdown rules")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--h", type=float, default=None, help="lattice step (default: d/20)")
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p)

    p = sub.add_parser("dist", help="goodness-of-fit battery: exponential, uniform, V-shaped, reflection identity")
    p.add_argument("--d", type=float, default=1.0, help="threshold scale for the exponential/uniform laws")
    p.add_argument("--h", type=float, default=None, help="lattice step (default: d/160; keep fine so positional atoms stay below KS resolution)")
    p.add_argument("--trials", type=int, default=10_000, help="sample size per test (keep near 1e4: the targets are continuum laws)")
    p.add_argument("--chi-k", type=int, default=4, dest="chi_k", help="diameter (lattice units) for the termination-count chi-square")
    p.add_argument("--t", type=float, default=1.0, help="fixed time for the two-sample reflection-identity test")
    p.add_argument("--expected", action="store_true", help="CSV: emit the exact termination pmf (bin,mass) instead of observed counts")
    _add_common(p)

    p = sub.add_parser("qcheck", help="value-function property grid: nonnegativity, identities, continuity")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=200, help="N: the randomized domain grid has N^2 points")
    _add_common(p)

    p = sub.add_parser("dp", help="lattice dynamic program for the optimal threshold and payoff")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--h", type=float, default=None, help="lattice step (default: 1/(40c))")
    p.add_argument("--cap", type=int, default=None, help="state cap in lattice units (default: 5/(c*h))")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="tie tolerance: a state stops where its exact value is within tol of stop")
    _add_common(p)

    p = sub.add_parser("sweep", help="payoff curve over a grid of gap thresholds")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--grid", default="0.25,0.5,0.75,1.0", help="comma-separated thresholds")
    p.add_argument("--h", type=float, default=None, help="lattice step (default: min(grid)/40)")
    p.add_argument("--trials", type=int, default=4000)
    _add_common(p)

    p = sub.add_parser("closed-forms", help="exact closed-form table for (c, d)")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=0.5)
    _add_common(p)

    return parser


def _stats_dict(st) -> dict:
    return {
        "mean": st.mean,
        "ci_low": st.ci_low,
        "ci_high": st.ci_high,
        "n": st.n,
        "variance": st.variance,
    }


def _ratio_dict(rep) -> dict:
    return {
        "ratio": rep.ratio,
        "ci_low": rep.ratio_ci[0],
        "ci_high": rep.ratio_ci[1],
        "reward_mean": rep.reward_mean.mean,
        "terminal_second_moment": rep.terminal_second_moment.mean,
        "n": rep.reward_mean.n,
    }


def _flat_rows(results: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, val in results.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.extend(_flat_rows(val, prefix=f"{name}."))
        else:
            rows.append((name, val))
    return rows


def _lattice_gap_payoff(c, h, k):
    """Lattice-exact gap-rule payoff 3kh - c(3k^2+2k)h^2 at k = d/h (an int
    or an array); the continuum value 3d - 3cd^2 sits 2cdh above it."""
    gap = _RULES["gap"]
    return gap.reward_mean(k, 0, 0) * h - c * gap.mean(k, 0, 0) * (h * h)


# --- command handlers ------------------------------------------------------
# Each returns (params, results, censored, table, checks): table is the
# (header, rows) pair used for CSV output and checks lists every documented
# check as an (ok, message) pair; main adds the censored-trials check and,
# under --assert, reports the messages whose ok is false.


def _cmd_simulate(args):
    row = _RULES[args.rule]
    values = [getattr(args, name) for name in row.fields]
    if None in values:
        flags = " and ".join(f"--{name}" for name in row.fields)
        raise ValueError(f"--rule {args.rule} requires {flags}")
    rule = row.cls(*values)
    scale = max(abs(value) for value in values)
    h = args.h if args.h is not None else scale / 20.0
    spec = LatticeSpec(h=h)
    run = collect_rewards(rule, (args.reward,), spec, args.trials, args.seed, args.workers)
    st = stats_from_sample(run.values[args.reward])
    params = {
        "rule": args.rule,
        "d": args.d if "d" in row.fields else None,
        "hdiam": args.hdiam,
        "lo": args.lo,
        "hi": args.hi,
        "reward": args.reward,
        "h": h,
        "trials": args.trials,
    }
    results = {"estimate": _stats_dict(st)}
    table = (("key", "value"), _flat_rows(results))
    return params, results, st.censored, table, []


# result key -> (rule kind, published window of E[reward] / sqrt(E[T]))
_BOUNDS_WINDOWS = {
    "gap_ratio": ("gap", 1.70, 1.77),
    "drop_ratio": ("dropdd", 1.39, 1.45),
    "max_ratio": ("drawdown", 0.97, 1.03),
}


def _cmd_bounds(args):
    _require_positive(args.d, "d")  # before the default h derived from it
    h = args.h if args.h is not None else args.d / 20.0
    spec = LatticeSpec(h=h)
    results = {}
    censored = 0
    checks = []
    for key, (kind, lo, hi) in _BOUNDS_WINDOWS.items():
        row = _RULES[kind]
        rule = row.cls(args.d)
        run = collect_rewards(
            rule, (row.reward, "terminal_sq"), spec, args.trials, args.seed, args.workers
        )
        rep = ratio_report_from(run, row.reward)
        results[key] = _ratio_dict(rep)
        censored += rep.reward_mean.censored
        se = (rep.ratio_ci[1] - rep.ratio_ci[0]) / (2.0 * Z99)
        # Lattice-exact E[reward] / sqrt(E[T]) from the rule's row.
        units = rule_units(rule, spec)[1:]
        lattice = row.reward_mean(*units) / math.sqrt(row.mean(*units))
        # accept if inside the published window (calibrated for desk-scale
        # runs) or within 3 standard errors of the lattice value, so the
        # check stays honest at small --trials and on coarse lattices
        checks.append((
            lo <= rep.ratio <= hi or abs(rep.ratio - lattice) <= 3.0 * se,
            f"{key} = {rep.ratio:.4f} outside [{lo}, {hi}] and more than "
            f"3 standard errors from the lattice value {lattice:.4f}",
        ))
    params = {"d": args.d, "h": h, "trials": args.trials}
    table = (
        ("rule", "ratio", "ci_low", "ci_high", "reward_mean", "terminal_second_moment"),
        [
            (k, v["ratio"], v["ci_low"], v["ci_high"], v["reward_mean"], v["terminal_second_moment"])
            for k, v in results.items()
        ],
    )
    return params, results, censored, table, checks


def _cmd_dist(args):
    _require_seed(args.seed + 3, "seed + 3")  # the four tests draw seeds seed..seed + 3
    _require_positive(args.d, "d")  # before the default h derived from it
    _require_positive(args.chi_k, "--chi-k")  # before any run
    h = args.h if args.h is not None else args.d / 160.0
    spec = LatticeSpec(h=h)
    rule_units(Drawdown(args.d), spec)  # before any run
    n = args.trials
    censored = 0
    # First, so that a bad --t fails before the other three runs.
    drop_sample, abs_sample = levy_samples(args.t, spec, n, args.seed + 3, args.workers)

    # result key -> (rule, reward, lattice, target), run at seed, seed + 1, seed + 2
    batteries = {
        "exp_ks": (Drawdown(args.d), "max", spec, Exponential(mean=args.d)),
        "uniform_ks": (DiameterReach(args.d), "max", spec, Uniform(hi=args.d)),
        "vshape_chi2": (
            DiameterReach(float(args.chi_k)), "terminal_x", LatticeSpec(h=1.0), VShape(hdiam=args.chi_k)
        ),
    }
    results = {}
    for offset, (key, (rule, reward, lattice, target)) in enumerate(batteries.items()):
        run = collect_rewards(rule, (reward,), lattice, n, args.seed + offset, args.workers)
        censored += run.censored
        sample = run.values[reward][run.fired]
        res = gof_test(sample, target)
        results[key] = {"statistic": res.statistic, "p_value": res.p_value}
    chi_sample = sample  # the V-shape battery runs last
    levy_res = gof_test(drop_sample, Empirical(values=abs_sample))
    results["levy_ks"] = {"statistic": levy_res.statistic, "p_value": levy_res.p_value}
    params = {
        "d": args.d,
        "h": h,
        "trials": n,
        "chi_k": args.chi_k,
        "t": args.t,
    }
    if args.expected:
        pmf = walk_diameter_pmf(args.chi_k)
        table = (("bin", "mass"), [(x, pmf[x]) for x in sorted(pmf)])
    else:
        xs, counts = np.unique(chi_sample.astype(int), return_counts=True)
        table = (("x", "count"), list(zip(xs.tolist(), counts.tolist())))
    checks = [
        (res["p_value"] > 0.01, f"{name} p_value = {res['p_value']:.5f} <= 0.01")
        for name, res in results.items()
    ]
    return params, results, censored, table, checks


def _cmd_qcheck(args):
    c = args.c
    _require_positive(c, "--c")
    _require_int(args.grid, "--grid", 2)
    n_points = args.grid * args.grid
    rng = np.random.default_rng(args.seed)
    params_q = QParams.optimal(c)
    d = params_q.d
    delta = rng.uniform(0.0, 4.0 / c, n_points)
    gamma = rng.uniform(0.0, delta / 2.0)
    t = rng.uniform(0.0, 4.0 / (c * c), n_points)

    gap_form = q_gap_form(c, delta, gamma)
    i_min = int(np.argmin(gap_form))
    identity_resid = float(
        np.max(np.abs(q_value(params_q, delta, gamma, t) - payoff(delta, t, c) - gap_form))
    )

    # delta = 2d seam: q_value's two neighbouring branch expressions
    gb = rng.uniform(0.0, d, args.grid)
    b_narrow, b_wide = _premium_branches(c, d, 2.0 * d, gb)
    delta_seam = float(np.max(np.abs(b_narrow - b_wide)))
    # gamma = d seam (only reachable for delta >= 2d): the premium must vanish
    # continuously as gamma approaches the stopping boundary from below
    db = rng.uniform(2.0 * d, 4.0 / c, args.grid)
    gamma_seam = float(np.max(np.abs(q_gap_form(c, db, np.full_like(db, d * (1.0 - 1e-8))))))

    d_probe = rng.uniform(0.1 / c, 2.0 / c, 8)
    origin_resid = float(
        max(
            abs(q_value(QParams(c=c, d=float(di)), 0.0, 0.0, 0.0) - closed_forms(c, di)["payoff_gap"])
            for di in d_probe
        )
    )

    stopped_mask = gamma >= d
    zero_on_stopped = float(np.max(np.abs(gap_form[stopped_mask]))) if stopped_mask.any() else 0.0
    min_active = float(np.min(gap_form[~stopped_mask])) if (~stopped_mask).any() else float("inf")

    results = {
        "min_gap_form": {
            "value": float(gap_form[i_min]),
            "at_delta": float(delta[i_min]),
            "at_gamma": float(gamma[i_min]),
        },
        "identity_residual": identity_resid,
        "continuity_residual_delta_seam": delta_seam,
        "continuity_residual_gamma_seam": gamma_seam,
        "origin_payoff_residual": origin_resid,
        "zero_on_stopped_set": zero_on_stopped,
        "min_off_stopped_set": min_active,
        "points": n_points,
    }
    params = {"c": c, "grid": args.grid, "points": n_points}
    table = (("key", "value"), _flat_rows(results))
    min_value = results["min_gap_form"]["value"]
    residuals = ("identity_residual", "continuity_residual_delta_seam",
                 "continuity_residual_gamma_seam", "origin_payoff_residual")
    checks = [
        (min_value >= 0.0, f"min(Q - payoff) = {min_value} < 0"),
        *((results[key] < 1e-12, f"{key} = {results[key]:.3e} >= 1e-12") for key in residuals),
        (zero_on_stopped == 0.0, f"gap form nonzero ({zero_on_stopped:.3e}) on the stopped set gamma >= {d}"),
        (min_active > 0.0, f"gap form not strictly positive off the stopped set (min {min_active:.3e})"),
    ]
    return params, results, 0, table, checks


def _cmd_dp(args):
    c = args.c
    _require_positive(c, "--c")
    h = args.h if args.h is not None else 1.0 / (40.0 * c)
    _require_positive(h, "--h")
    cap = args.cap if args.cap is not None else int(math.ceil(5.0 / (c * h)))
    spec = WalkDP(c=c, h=h, cap=cap, tol=args.tol)
    sol = dp_solve(spec)
    b_min = sol.stop_boundary
    boundary = [[a, int(b)] for a, b in enumerate(b_min)]
    target_value = float(np.max(_lattice_gap_payoff(c, h, np.arange(cap + 1))))  # over integer k
    cells = QParams.optimal(c).d / h
    k = round(cells)
    results = {
        "value_origin": sol.value_origin,
        "iterations": sol.iterations,
        "stop_boundary": boundary,
    }
    params = {"c": c, "h": h, "cap": cap, "tol": args.tol}
    table = (("a", "b_min"), [tuple(r) for r in boundary])
    # The forced stop at the cap depresses continuation values nearby, so the
    # computed region stops early in a band hugging the cap corner.  The box
    # law is only claimed in the bulk, a safe margin away from that band.
    bulk = cap - 4 * k
    a = np.arange(b_min.size)
    bad = (a <= bulk) & np.where(a >= k, np.abs(b_min - k) > 1, (a <= k - 2) & (b_min <= bulk))
    i = int(np.argmax(bad))  # the first bad row, else row 0
    checks = [
        # Below two cells another rule can beat every gap threshold.
        (cells < 2 or not (abs(sol.value_origin - target_value) > 0.05 * target_value),
         f"value_origin {sol.value_origin:.5f} more than 5% from the lattice gap payoff {target_value:.5f}"),
        (not bad.any(),
         f"stop boundary at a={i} is b={b_min[i]}, more than one cell from {k}" if i >= k
         else f"interior stop state at a={i} (b={b_min[i]}) below the threshold band"),
    ]
    return params, results, 0, table, checks


def _cmd_sweep(args):
    c = args.c
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--grid must be comma-separated numbers, got {args.grid!r}") from exc
    if not grid:
        raise ValueError("--grid is empty")
    for d in grid:  # before the default h derived from them
        _require_positive(d, "d")
    h = args.h if args.h is not None else min(grid) / 40.0
    spec = LatticeSpec(h=h)
    result = sweep_payoff(c, grid, spec, args.trials, args.seed, args.workers)
    curve = [
        {
            "d": p.d,
            "mean": p.payoff.mean,
            "ci_low": p.payoff.ci_low,
            "ci_high": p.payoff.ci_high,
            "n": p.payoff.n,
        }
        for p in result.points
    ]
    censored = sum(p.payoff.censored for p in result.points)
    results = {"curve": curve, "argmax_d": result.argmax_d}
    params = {"c": c, "grid": grid, "h": h, "trials": args.trials}
    table = (
        ("d", "mean", "ci_low", "ci_high"),
        [(p["d"], p["mean"], p["ci_low"], p["ci_high"]) for p in curve],
    )
    # The payoff is concave in d, so over the grid it peaks nearest d* = 1/(2c).
    ds = sorted(grid)
    target = min(max(QParams.optimal(c).d, ds[0]), ds[-1])
    cell = max((b - a for a, b in zip(ds, ds[1:])), default=0.0)
    checks = [(not (abs(result.argmax_d - target) > cell + 1e-12),
               f"argmax_d = {result.argmax_d} more than one grid cell from {target}")]
    for p in curve:
        exact = _lattice_gap_payoff(c, h, spec.units(p["d"], "d"))
        checks.append((
            p["ci_low"] <= exact <= p["ci_high"],
            f"payoff curve at d={p['d']}: CI [{p['ci_low']:.4f}, {p['ci_high']:.4f}] "
            f"misses lattice payoff {exact:.4f}",
        ))
    return params, results, censored, table, checks


def _cmd_closed_forms(args):
    table_cf = closed_forms(args.c, args.d)
    c, d = args.c, args.d
    results = {k: v for k, v in table_cf.items() if not callable(v)}
    results["E_delta_2d"] = table_cf["E_delta_h"](2.0 * d)
    results["delta_increment_0_2d"] = table_cf["delta_increment"](0.0, 2.0 * d)
    params = {"c": c, "d": d}
    table = (("key", "value"), sorted(results.items()))
    chain = results["delta_increment_0_2d"] + results["E_tau_d"]
    checks = [
        (math.isclose(chain, results["E_T_gap"], rel_tol=1e-12),
         f"decomposition {results['delta_increment_0_2d']} + {results['E_tau_d']} "
         f"!= {results['E_T_gap']}"),
        # The terms cancel near d = 1/c, so the slack scales with E_D_at_T_gap.
        (math.isclose(
            results["payoff_gap"],
            results["E_D_at_T_gap"] - c * results["E_T_gap"],
            rel_tol=1e-12,
            abs_tol=1e-12 * results["E_D_at_T_gap"],
        ), "payoff_gap does not match E_D_at_T_gap - c * E_T_gap"),
    ]
    return params, results, 0, table, checks


_HANDLERS = {
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "dist": _cmd_dist,
    "qcheck": _cmd_qcheck,
    "dp": _cmd_dp,
    "sweep": _cmd_sweep,
    "closed-forms": _cmd_closed_forms,
}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("MDL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MDL_SEED={raw!r} is not an integer") from None


def _csv_text(table) -> str:
    header, rows = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"{_PROG}: cannot write output: {out_path}: {exc.strerror}\n")
        raise SystemExit(1) from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        args.seed = _resolve_seed(args)
        _require_seed(args.seed)
        _require_int(args.workers, "--workers", 1)
        params, results, censored, table, checks = _HANDLERS[args.command](args)
    except LatticeError as exc:
        sys.stderr.write(f"{_PROG}: lattice mismatch: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"{_PROG}: invalid parameters: {exc}\n")
        return 1

    if args.out_format == "csv":
        text = _csv_text(table)
    else:
        payload = {
            "command": args.command,
            "params": params,
            "results": results,
            "censored": censored,
            "seed": args.seed,
        }
        if not args.no_meta:
            payload["runtime_s"] = round(time.perf_counter() - t0, 3)
            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    if censored:
        sys.stderr.write(f"{_PROG}: warning: {censored} censored trials excluded\n")
    checks.append((not censored, f"censored trials: {censored} (expected 0)"))

    failures = [message for ok, message in checks if not ok] if args.run_checks else []
    for failure in failures:
        sys.stderr.write(f"{_PROG}: check failed: {failure}\n")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

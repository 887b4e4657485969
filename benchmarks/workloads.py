"""The benchmark's four workloads.

Each workload builds its inputs from the seed, makes one tiny warm-up call
of every walkstop function it uses, runs rounds of the same operations
(every call goes through `Recorder.call`), checks the last round's
outputs with `checks`, and turns span totals into per-layer metrics.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from walkstop import (
    AbsGap,
    DiameterReach,
    Drawdown,
    DropDrawdown,
    Empirical,
    FirstExit,
    Gap,
    LatticeSpec,
    QParams,
    Rise,
    VShape,
    WalkDP,
    absorption_pmf_oracle,
    collect_rewards,
    dp_solve,
    drift_check,
    gof_test,
    levy_samples,
    q_gap_form,
    q_value,
    ratio_report_from,
    run_until_stop,
    stats_from_sample,
)
from walkstop import cli as walkstop_cli

import checks as C

RULE_KEYS = ("gap", "dropdd", "drawdown", "rise", "absgap", "diam", "exit")
REWARDS = ("max", "min_abs", "abs_sup", "diameter", "drop_sup", "stop_time", "terminal_sq", "terminal_x")
_RULES = {"gap": Gap, "dropdd": DropDrawdown, "drawdown": Drawdown, "rise": Rise, "absgap": AbsGap, "diam": DiameterReach}
REDUCE_PREFIXES = ("mc_harness.stats_from_sample", "mc_harness.ratio_report_from", "mc_harness.gof_test")


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)]


@dataclass(frozen=True)
class Case:
    """One rule on one lattice: thresholds are 1.0 (exit: lo -0.5, hi 1.0), h = 1/per_unit."""

    key: str
    per_unit: int

    @property
    def spec(self) -> LatticeSpec:
        return LatticeSpec(h=1.0 / self.per_unit)

    @property
    def units(self) -> tuple[int, int, int]:
        """(k, klo, khi) in lattice units."""
        if self.key == "exit":
            return 0, -self.per_unit // 2, self.per_unit
        return self.per_unit, 0, 0

    def rule(self):
        if self.key == "exit":
            return FirstExit(-0.5, 1.0)
        return _RULES[self.key](1.0)


def _collect_counts(spec):
    return lambda r: {"trials": r.n, "steps": int(round(np.nansum(r.values["stop_time"]) / spec.time_per_step))}


def _path_counts(r):
    return {"trials": 1, "steps": r.final_state.steps}


def _walks_from_collect(chk, label, res, h):
    v = res.values
    w = {}
    for key, name, unit in (("x", "terminal_x", h), ("top", "max", h), ("min_abs", "min_abs", h),
                            ("abs_sup", "abs_sup", h), ("diameter", "diameter", h),
                            ("drop_sup", "drop_sup", h), ("steps", "stop_time", h * h),
                            ("x_sq", "terminal_sq", h * h)):
        w[key], exact = C.to_units(v[name], unit)
        chk.expect(exact, f"{label}: {name} is not on the lattice")
    w["bot"] = -w.pop("min_abs")
    return w


def _walks_from_paths(chk, label, paths, h):
    tps = h * h
    st = [p.final_state for p in paths]
    chk.expect(all(p.fired for p in paths), f"{label}: censored trials")
    chk.expect(all(p.stop_time == s.t and p.terminal_x == s.x for p, s in zip(paths, st)),
               f"{label}: stop_time/terminal_x disagree with the final state")
    fields = {"x": [s.x for s in st], "top": [s.run_max for s in st], "bot": [s.run_min for s in st],
              "abs_sup": [s.abs_sup for s in st], "diameter": [s.diameter for s in st],
              "drop_sup": [s.drop_sup for s in st], "rise_sup": [s.rise_sup for s in st],
              "gap": [s.gap for s in st]}
    w = {}
    for key, vals in fields.items():
        w[key], exact = C.to_units(vals, h)
        chk.expect(exact, f"{label}: {key} is not on the lattice")
    w["steps"] = np.array([s.steps for s in st], dtype=np.int64)
    t_units, exact = C.to_units([s.t for s in st], tps)
    chk.expect(exact and np.array_equal(t_units, w["steps"]), f"{label}: t != steps * h^2")
    chk.expect(np.array_equal(w["gap"], np.minimum(w["top"] - w["x"], w["x"] - w["bot"])),
               f"{label}: gap != min(max - x, x - min)")
    chk.expect(np.all(w["rise_sup"] >= w["x"] - w["bot"]), f"{label}: rise_sup below the final rise")
    w["x_sq"] = w["x"] * w["x"]
    return w


def _check_stats(chk, label, st, sample):
    """stats_from_sample against moments recomputed here."""
    n = sample.size
    mean = float(np.mean(sample))
    half = C.Z99 * math.sqrt(float(np.var(sample, ddof=1)) / n)
    chk.expect(st.n == n and st.censored == 0, f"{label}: n/censored {st.n}/{st.censored}")
    chk.close(f"{label}: mean", st.mean, mean)
    chk.close(f"{label}: CI", (st.ci_low, st.ci_high), (mean - half, mean + half))


def _check_ratio(chk, label, rep, x, y):
    """ratio_report_from against the ratio and delta-method CI recomputed here."""
    mx, my = float(np.mean(x)), float(np.mean(y))
    ratio = mx / math.sqrt(my)
    cov = np.cov(x, y, ddof=1)
    gx, gy = 1.0 / math.sqrt(my), -mx / (2.0 * my ** 1.5)
    se = math.sqrt(max((gx * gx * cov[0, 0] + 2 * gx * gy * cov[0, 1] + gy * gy * cov[1, 1]) / x.size, 0.0))
    chk.close(f"{label}: ratio", rep.ratio, ratio)
    chk.close(f"{label}: ratio CI", rep.ratio_ci, (ratio - C.Z99 * se, ratio + C.Z99 * se), rel=1e-6)


class Workload:
    name = ""

    def build(self, seed: int, workers: int) -> dict:
        raise NotImplementedError

    def warm_up(self, inp: dict) -> None:
        raise NotImplementedError

    def round(self, inp: dict, s) -> dict:
        raise NotImplementedError

    def extra(self, inp: dict, s, outputs: dict, chk) -> None:
        """Traced runs only: work measured outside the timed rounds."""

    def check(self, inp: dict, out: dict, chk) -> None:
        raise NotImplementedError

    def layer_metrics(self, totals: dict, rounds: int, round_wall_s: float) -> dict:
        raise NotImplementedError


def _per_round(totals, prefix, key, rounds):
    return sum(agg[key] for name, agg in totals.items() if name.startswith(prefix)) / rounds


def _mc_common(totals, rounds, round_wall_s):
    trials = _per_round(totals, "", "trials", rounds)
    steps = _per_round(totals, "", "steps", rounds)
    return {
        "mc_harness.reduce_ms": 1e3 * sum(_per_round(totals, p, "self_s", rounds) for p in REDUCE_PREFIXES),
        "mc_harness.steps_simulated": steps,
        "mc_harness.trials": trials,
        "mc_harness.steps_per_s": steps / round_wall_s,
        "mc_harness.trials_per_s": trials / round_wall_s,
    }


class Walks(Workload):
    """Every rule through collect_rewards and through run_until_stop.

    A round is sized to outlast a 10-second run (about 15 s on the reference
    box), so each run times one round: the host's speed drifts over seconds,
    and one long round averages that drift better than a median of short ones.
    """

    cases: tuple[Case, ...] = ()
    n_collect = 0
    n_run = 0

    def build(self, seed, workers):
        seeds = _seeds(seed, 2 * len(self.cases) + 4)
        return {
            "seed": seed,
            "seeds": seeds,
            "cases": [(c, c.rule(), c.spec, seeds[2 * i], seeds[2 * i + 1]) for i, c in enumerate(self.cases)],
        }

    def warm_up(self, inp):
        case, rule, spec, sc, sr = inp["cases"][0]
        res = collect_rewards(rule, REWARDS, spec, 2, sc)
        run_until_stop(rule, spec, np.random.default_rng(sr))
        stats_from_sample(res.values["stop_time"])
        ratio_report_from(res, "diameter")

    def round(self, inp, s):
        out = {}
        for case, rule, spec, seed_c, seed_r in inp["cases"]:
            key = case.key
            res = s.call(f"mc_harness.collect_rewards.{key}", collect_rewards, rule, REWARDS, spec,
                         self.n_collect, seed_c, counts=_collect_counts(spec))
            out[f"collect.{key}"] = res
            gen = np.random.default_rng(seed_r)
            out[f"run.{key}"] = [
                s.call(f"stopping_rules.run_until_stop.{key}", run_until_stop, rule, spec, gen, counts=_path_counts)
                for _ in range(self.n_run)
            ]
            if res is not None:
                out[f"stats.{key}"] = s.call(f"mc_harness.stats_from_sample.{key}", stats_from_sample,
                                             res.values["stop_time"])
                if key == "gap":
                    out["ratio.gap"] = s.call("mc_harness.ratio_report_from.gap", ratio_report_from, res, "diameter")
        return out

    def check(self, inp, out, chk):
        for case, rule, spec, _, _ in inp["cases"]:
            key, (k, klo, khi), h = case.key, case.units, spec.h
            res = out.get(f"collect.{key}")
            if res is not None:
                chk.expect(res.n == self.n_collect and res.censored == 0,
                           f"collect_rewards.{key}: n {res.n}, censored {res.censored}")
                w = _walks_from_collect(chk, f"collect_rewards.{key}", res, h)
                C.check_walks(chk, f"collect_rewards.{key}", key, k, klo, khi, w)
                if out.get(f"stats.{key}") is not None:
                    _check_stats(chk, f"stats_from_sample.{key}", out[f"stats.{key}"], res.values["stop_time"])
                if key == "gap" and out.get("ratio.gap") is not None:
                    _check_ratio(chk, "ratio_report_from.gap", out["ratio.gap"],
                                 res.values["diameter"], res.values["terminal_sq"])
            paths = [p for p in out[f"run.{key}"] if p is not None]
            if paths:
                w = _walks_from_paths(chk, f"run_until_stop.{key}", paths, h)
                C.check_walks(chk, f"run_until_stop.{key}", key, k, klo, khi, w)

    def layer_metrics(self, totals, rounds, round_wall_s):
        m = _mc_common(totals, rounds, round_wall_s)
        for key in RULE_KEYS:
            for module, fn in (("stopping_rules", "run_until_stop"), ("mc_harness", "collect_rewards")):
                agg = totals.get(f"{module}.{fn}.{key}")
                us, ns = (1e6 * agg["self_s"] / agg["trials"], 1e9 * agg["self_s"] / agg["steps"]) if agg else (0.0, 0.0)
                m[f"{module}.{fn}.us_per_trial.{key}"] = us
                m[f"{module}.{fn}.ns_per_step.{key}"] = ns
        return m


class ShortWalks(Walks):
    """Coarse lattices (about 100-220 steps per trial) plus the unit-lattice diameter run."""

    name = "short-walks"
    cases = (Case("gap", 8), Case("dropdd", 8), Case("drawdown", 12), Case("rise", 12),
             Case("absgap", 8), Case("diam", 16), Case("exit", 16))
    n_collect = 15000
    n_run = 4500
    n_unit = 90000
    unit_k = 4

    def warm_up(self, inp):
        super().warm_up(inp)
        res = collect_rewards(DiameterReach(float(self.unit_k)), ("terminal_x", "stop_time"), LatticeSpec(1.0), 64, 1)
        gof_test(res.values["terminal_x"], VShape(hdiam=self.unit_k))

    def round(self, inp, s):
        out = super().round(inp, s)
        unit = LatticeSpec(1.0)
        res = s.call("mc_harness.collect_rewards.unit_diam", collect_rewards, DiameterReach(float(self.unit_k)),
                     ("terminal_x", "stop_time"), unit, self.n_unit, inp["seeds"][-1], counts=_collect_counts(unit))
        out["collect.unit_diam"] = res
        if res is not None:
            out["gof.vshape"] = s.call("mc_harness.gof_test.vshape", gof_test, res.values["terminal_x"],
                                       VShape(hdiam=self.unit_k))
        return out

    def check(self, inp, out, chk):
        super().check(inp, out, chk)
        res, k = out.get("collect.unit_diam"), self.unit_k
        if res is None:
            return
        label = "collect_rewards.unit_diam"
        chk.expect(res.n == self.n_unit and res.censored == 0, f"{label}: n {res.n}, censored {res.censored}")
        x, ex = C.to_units(res.values["terminal_x"], 1.0)
        steps, es = C.to_units(res.values["stop_time"], 1.0)
        chk.expect(ex and es, f"{label}: outputs not on the unit lattice")
        chk.mean_near(f"{label}: mean steps", steps, C.exact_mean_steps("diam", k, 0, 0))
        counts = C.check_vshape_counts(chk, label, x, k)
        gof = out.get("gof.vshape")
        if gof is not None:
            pmf = C.vshape_pmf(k)
            expected = x.size * np.array([pmf[s] for s in sorted(pmf)])
            chk.close("gof_test.vshape: chi-square statistic", gof.statistic,
                      float(np.sum((counts - expected) ** 2 / expected)), rel=1e-9)
            chk.expect(0.0 <= gof.p_value <= 1.0, f"gof_test.vshape: p-value {gof.p_value}")


class LongWalks(Walks):
    """Fine lattices (7k-26k steps per trial) plus the fixed-horizon ensembles."""

    name = "long-walks"
    cases = (Case("gap", 60), Case("dropdd", 60), Case("drawdown", 160), Case("rise", 120),
             Case("absgap", 60), Case("diam", 160), Case("exit", 160))
    n_collect = 840
    n_run = 840
    n_drift = 8400
    drift_spec = LatticeSpec(h=1.0 / 40)
    checkpoints = (0.0, 1.0, 2.0, 3.0, 4.0)
    n_levy = 3500
    levy_spec = LatticeSpec(h=1.0 / 160)

    def warm_up(self, inp):
        super().warm_up(inp)
        drift_check(1.0, 0.25, 4, 1, (0.0, 0.25), spec=self.drift_spec)
        levy_samples(0.0625, self.levy_spec, 4, 1)

    def round(self, inp, s):
        out = super().round(inp, s)
        seeds = inp["seeds"]
        n_drift_steps = round(self.checkpoints[-1] / self.drift_spec.time_per_step)
        out["drift"] = s.call("mc_harness.drift_check", drift_check, 1.0, self.checkpoints[-1], self.n_drift,
                              seeds[-2], self.checkpoints, spec=self.drift_spec,
                              counts=lambda r: {"trials": r.n, "steps": r.n * n_drift_steps})
        levy_steps = round(1.0 / self.levy_spec.time_per_step)
        levy = s.call("mc_harness.levy_samples", levy_samples, 1.0, self.levy_spec, self.n_levy, seeds[-1],
                      counts=lambda r: {"trials": 2 * r[0].size, "steps": 2 * r[0].size * levy_steps})
        out["levy"] = levy
        if levy is not None:
            out["gof.levy"] = s.call("mc_harness.gof_test.levy", gof_test, levy[0], Empirical(values=levy[1]))
        return out

    def check(self, inp, out, chk):
        super().check(inp, out, chk)
        rep = out.get("drift")
        if rep is not None:
            chk.close("drift_check: q_origin = 3/(4c)", rep.q_origin, 0.75, rel=1e-12)
            chk.expect(rep.n == self.n_drift and tuple(rep.checkpoints) == self.checkpoints
                       and len(rep.unstopped) == len(self.checkpoints) - 1,
                       "drift_check: report shape")
            for row in rep.unstopped:
                chk.expect(row.mean <= C.SIGMAS * row.stderr,
                           f"drift_check: unstopped drift {row.mean:.4g} > 0 on [{row.t_start}, {row.t_end}]")
        levy = out.get("levy")
        if levy is None:
            return
        h = self.levy_spec.h
        n_steps = round(1.0 / self.levy_spec.time_per_step)
        drop, ed = C.to_units(levy[0], h)
        absx, ea = C.to_units(levy[1], h)
        chk.expect(ed and ea and drop.size == self.n_levy and absx.size == self.n_levy,
                   "levy_samples: sample size or lattice")
        chk.expect(np.all(drop >= 0) and np.all(absx >= 0) and np.all((absx - n_steps) % 2 == 0),
                   "levy_samples: negative value or wrong parity of |x|/h")
        mean_drop, mean_abs = C.free_walk_means(n_steps)
        chk.mean_near("levy_samples: E[M - x]", drop, mean_drop)
        chk.mean_near("levy_samples: E|x|", absx, mean_abs)
        gof = out.get("gof.levy")
        if gof is not None:
            a, b = np.sort(levy[0]), np.sort(levy[1])
            pooled = np.concatenate([a, b])
            ks = np.max(np.abs(np.searchsorted(a, pooled, "right") / a.size
                               - np.searchsorted(b, pooled, "right") / b.size))
            chk.close("gof_test.levy: two-sample KS statistic", gof.statistic, ks, rel=1e-12)

    def layer_metrics(self, totals, rounds, round_wall_s):
        m = super().layer_metrics(totals, rounds, round_wall_s)
        for name, key, metric in (("mc_harness.drift_check", "trials", "mc_harness.drift_check.us_per_path"),
                                  ("mc_harness.levy_samples", "trials", "mc_harness.levy_samples.us_per_trial")):
            agg = totals.get(name)
            m[metric] = 1e6 * agg["self_s"] / agg[key] if agg else 0.0
        return m


@dataclass(frozen=True)
class CliRun:
    rc: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = walkstop_cli.main(argv)
    return CliRun(rc, out.getvalue(), err.getvalue())


class CliPool(Workload):
    """`walkstop sweep` at its defaults and `walkstop bounds` at 20k trials, in-process."""

    name = "cli-pool"
    sweep_trials = 4000
    sweep_grid = (0.25, 0.5, 0.75, 1.0)
    bounds_trials = 20000
    # `bounds --assert` exits 2 at every seed on the default lattice h = d/20:
    # the lattice drop ratio is sqrt(2k/(k+1)) = 1.380 at k = 20, below the
    # continuum window [1.39, 1.45].  Its seed is fixed so that it fails on
    # every run, not only on most.
    bounds_seed = 0

    def _argv(self, seed, workers):
        w = ["--workers", str(workers), "--no-meta"]
        return {
            "sweep": ["sweep", "--seed", str(seed)] + w,
            "bounds": ["bounds", "--trials", str(self.bounds_trials), "--seed", str(self.bounds_seed)] + w + ["--assert"],
        }

    def build(self, seed, workers):
        return {"seed": seed, "workers": workers, "argv": self._argv(seed, workers), "argv1": self._argv(seed, 1)}

    def warm_up(self, inp):
        run_cli(["sweep", "--trials", "2", "--grid", "0.25", "--no-meta"])
        run_cli(["bounds", "--trials", "2", "--no-meta"])

    def _run(self, s, argv, suffix=""):
        out = {}
        trials = {"sweep": self.sweep_trials * len(self.sweep_grid), "bounds": 3 * self.bounds_trials}
        for cmd, args in argv.items():
            res = s.call(f"cli.main.{cmd}{suffix}", run_cli, args, counts=lambda r, n=trials[cmd]: {"trials": n})
            if res is not None and res.rc != 0:
                s.fail(f"cli.main.{cmd}{suffix}", f"exit {res.rc}: {res.stderr.strip()}")
            out[cmd] = res
        return out

    def round(self, inp, s):
        return self._run(s, inp["argv"])

    def extra(self, inp, s, outputs, chk):
        """The same commands at --workers 1: byte-identical output, and the pool speed-up."""
        single = self._run(s, inp["argv1"], ".w1")
        for cmd, res in single.items():
            other = outputs.get(cmd)
            chk.expect(res is not None and other is not None and res.stdout == other.stdout,
                       f"cli {cmd}: --workers 1 and --workers {inp['workers']} outputs differ")

    def check(self, inp, out, chk):
        sweep = out.get("sweep")
        if sweep is not None:
            self._check_sweep(inp, json.loads(sweep.stdout), chk)
        bounds = out.get("bounds")
        if bounds is not None:
            self._check_bounds(json.loads(bounds.stdout), chk)

    def _check_sweep(self, inp, doc, chk):
        c = 1.0
        h = min(self.sweep_grid) / 40.0
        chk.expect(doc["command"] == "sweep" and doc["seed"] == inp["seed"] and doc["censored"] == 0
                   and doc["params"] == {"c": c, "grid": list(self.sweep_grid), "h": h, "trials": self.sweep_trials},
                   f"sweep: header {doc['command']}, seed {doc['seed']}, censored {doc['censored']}, {doc['params']}")
        curve = doc["results"]["curve"]
        chk.expect([p["d"] for p in curve] == list(self.sweep_grid), "sweep: grid points")
        exact = {}
        for p in curve:
            k = round(p["d"] / h)
            exact[p["d"]] = C.gap_payoff(k, h, c)
            se = (p["ci_high"] - p["ci_low"]) / (2.0 * C.Z99)
            chk.close(f"sweep d={p['d']}: CI centre", (p["ci_low"] + p["ci_high"]) / 2.0, p["mean"], rel=1e-12)
            chk.expect(p["n"] == self.sweep_trials and se > 0.0
                       and abs(p["mean"] - exact[p["d"]]) <= C.SIGMAS * se,
                       f"sweep d={p['d']}: mean {p['mean']:.5f} vs lattice {exact[p['d']]:.5f} (se {se:.3g})")
        chk.expect(doc["results"]["argmax_d"] == max(exact, key=exact.get),
                   f"sweep: argmax_d {doc['results']['argmax_d']}")

    def _check_bounds(self, doc, chk):
        d, h, n = 1.0, 1.0 / 20.0, self.bounds_trials
        k = round(d / h)
        chk.expect(doc["command"] == "bounds" and doc["censored"] == 0
                   and doc["params"] == {"d": d, "h": h, "trials": n},
                   f"bounds: header {doc['command']}, censored {doc['censored']}, {doc['params']}")
        exact = {  # (E[reward], E[steps]) in lattice units
            "gap_ratio": (3 * k, C.exact_mean_steps("gap", k, 0, 0)),
            "drop_ratio": (2 * k, C.exact_mean_steps("dropdd", k, 0, 0)),
            "max_ratio": (k, C.exact_mean_steps("drawdown", k, 0, 0)),
        }
        for key, (reward, steps) in exact.items():
            r = doc["results"][key]
            cv_reward, cv_sq = C.BOUNDS_CV[key]
            mean_r, mean_sq = reward * h, steps * h * h
            se = (r["ci_high"] - r["ci_low"]) / (2.0 * C.Z99)
            chk.expect(r["n"] == n, f"bounds {key}: n {r['n']}")
            chk.close(f"bounds {key}: ratio = mean/sqrt(second moment)", r["ratio"],
                      r["reward_mean"] / math.sqrt(r["terminal_second_moment"]), rel=1e-12)
            chk.expect(abs(r["reward_mean"] - mean_r) <= C.SIGMAS * cv_reward * mean_r / math.sqrt(n),
                       f"bounds {key}: reward mean {r['reward_mean']:.5f} vs lattice {mean_r:.5f}")
            chk.expect(abs(r["terminal_second_moment"] - mean_sq) <= C.SIGMAS * cv_sq * mean_sq / math.sqrt(n),
                       f"bounds {key}: E[x^2] {r['terminal_second_moment']:.5f} vs lattice E[T] {mean_sq:.5f}")
            lattice_ratio = mean_r / math.sqrt(mean_sq)
            chk.expect(se > 0.0 and abs(r["ratio"] - lattice_ratio) <= C.SIGMAS * se,
                       f"bounds {key}: ratio {r['ratio']:.5f} vs lattice {lattice_ratio:.5f} (se {se:.3g})")

    def layer_metrics(self, totals, rounds, round_wall_s):
        def self_s(name):
            agg = totals.get(name)
            return agg["self_s"] / rounds if agg else 0.0

        pooled = self_s("cli.main.sweep") + self_s("cli.main.bounds")
        single = self_s("cli.main.sweep.w1") + self_s("cli.main.bounds.w1")
        m = _mc_common(totals, rounds, round_wall_s)
        m.update({
            "mc_harness.pool.speedup": single / pooled if pooled else 0.0,
            "cli.sweep_s": self_s("cli.main.sweep"),
            "cli.bounds_s": self_s("cli.main.bounds"),
        })
        # The w1 comparison runs once outside the rounds; keep only the rounds' work.
        m["mc_harness.trials"] = sum(totals[n]["trials"] for n in ("cli.main.sweep", "cli.main.bounds")
                                     if n in totals) / rounds
        m["mc_harness.trials_per_s"] = m["mc_harness.trials"] / round_wall_s
        return m


class ExactDP(Workload):
    """The lattice DP at two sizes, the absorbing-chain oracle and the certificate q."""

    name = "exact-dp"
    c = 1.0
    dp_cases = (("default", 40, 200), ("fine", 60, 300))  # (label, 1/h, cap)
    oracle_ks = tuple(range(1, 13))
    n_points = 400_000

    def build(self, seed, workers):
        rng = np.random.default_rng(seed)
        c = self.c
        delta = rng.uniform(0.0, 4.0 / c, self.n_points)
        gamma = rng.uniform(0.0, delta / 2.0)
        t = rng.uniform(0.0, 4.0 / (c * c), self.n_points)
        dps = [(label, WalkDP(c=c, h=1.0 / per_unit, cap=cap, tol=1e-10)) for label, per_unit, cap in self.dp_cases]
        return {"seed": seed, "delta": delta, "gamma": gamma, "t": t, "dps": dps,
                "params": QParams.optimal(c)}

    def warm_up(self, inp):
        dp_solve(WalkDP(c=1.0, h=0.25, cap=12, tol=1e-6))
        absorption_pmf_oracle(2)
        q_value(inp["params"], inp["delta"][:3], inp["gamma"][:3], inp["t"][:3])
        q_gap_form(self.c, inp["delta"][:3], inp["gamma"][:3])

    def round(self, inp, s):
        out = {}
        for label, spec in inp["dps"]:
            out[f"dp.{label}"] = s.call(f"exact_walk.dp_solve.{label}", dp_solve, spec,
                                        counts=lambda r: {"sweeps": r.iterations})
        for k in self.oracle_ks:
            out[f"oracle.{k}"] = s.call(f"exact_walk.absorption_pmf_oracle.k{k}", absorption_pmf_oracle, k)
        n = {"points": self.n_points}
        out["q_value"] = s.call("q_process.q_value", q_value, inp["params"], inp["delta"], inp["gamma"], inp["t"],
                                counts=lambda r: n)
        out["q_gap_form"] = s.call("q_process.q_gap_form", q_gap_form, self.c, inp["delta"], inp["gamma"],
                                   counts=lambda r: n)
        return out

    def check(self, inp, out, chk):
        c = self.c
        for label, spec in inp["dps"]:
            sol = out.get(f"dp.{label}")
            if sol is None:
                continue
            k, cap = round(1.0 / (2.0 * c * spec.h)), spec.cap
            target = C.gap_payoff(k, spec.h, c)
            chk.expect(abs(sol.value_origin - target) <= C.DP_VALUE_TOL,
                       f"dp_solve.{label}: value {sol.value_origin:.7f} vs lattice gap value {target:.7f}")
            chk.expect(sol.iterations > 0 and sol.stop_region.shape == (cap + 1, cap + 1)
                       and sol.stop_region[cap, :].all() and sol.stop_region[:, cap].all(),
                       f"dp_solve.{label}: stop region shape or forced cap boundary")
            # The box min(a, b) >= k to within one cell, away from the band
            # near the forced cap where truncation makes stopping early optimal.
            bulk = cap - 4 * k
            a = np.arange(bulk + 1)
            m = np.minimum(a[:, None], a[None, :])
            region = sol.stop_region[: bulk + 1, : bulk + 1]
            chk.expect(np.all(region[m >= k + 1]) and not np.any(region[m <= k - 2]),
                       f"dp_solve.{label}: stop region is not the box min(a, b) >= {k} within one cell")
        for k in self.oracle_ks:
            pmf = out.get(f"oracle.{k}")
            if pmf is not None:
                want = C.vshape_pmf(k)
                chk.expect(sorted(pmf) == sorted(want), f"absorption_pmf_oracle({k}): support")
                chk.close(f"absorption_pmf_oracle({k})", [pmf[x] for x in sorted(want)],
                          [want[x] for x in sorted(want)], rel=0.0, abs_tol=1e-12)
        q, g = out.get("q_value"), out.get("q_gap_form")
        if q is not None and g is not None:
            delta, gamma, t = inp["delta"], inp["gamma"], inp["t"]
            d = 1.0 / (2.0 * c)
            chk.close("q_value - payoff = q_gap_form", q - (delta - c * t), g, rel=0.0,
                      abs_tol=1e-12 * (1.0 + float(np.max(np.abs(q)))))
            stop = gamma >= d
            chk.expect(np.all(g[stop] == 0.0) and np.all(g[~stop] > 0.0),
                       "q_gap_form: not zero exactly on the stop set gamma >= d and positive off it")

    def layer_metrics(self, totals, rounds, round_wall_s):
        def agg(name, key="self_s"):
            a = totals.get(name)
            return a[key] / rounds if a else 0.0

        m = {}
        for lab, _, _ in self.dp_cases:
            m[f"exact_walk.dp_solve_s.{lab}"] = agg(f"exact_walk.dp_solve.{lab}")
            m[f"exact_walk.dp_sweeps.{lab}"] = agg(f"exact_walk.dp_solve.{lab}", "sweeps")
        # Per-sweep cost grows with cap^2, so it is quoted for the default lattice only.
        sweeps = m["exact_walk.dp_sweeps.default"]
        m["exact_walk.dp_us_per_sweep"] = 1e6 * m["exact_walk.dp_solve_s.default"] / sweeps if sweeps else 0.0
        m["exact_walk.absorption_pmf_oracle_ms"] = 1e3 * _per_round(totals, "exact_walk.absorption_pmf_oracle",
                                                                    "self_s", rounds)
        points = agg("q_process.q_value", "points")
        m["q_process.q_value_ns_per_point"] = 1e9 * agg("q_process.q_value") / points if points else 0.0
        return m


WORKLOADS = {w.name: w for w in (ShortWalks(), LongWalks(), CliPool(), ExactDP())}

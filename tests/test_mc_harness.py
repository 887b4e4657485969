"""Monte Carlo harness: means against exact lattice values, determinism across
workers, censoring accounting, the goodness-of-fit battery, and ratio CIs."""

import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.stats

from walkstop import (
    AbsGap,
    DiameterReach,
    Drawdown,
    DropDrawdown,
    Empirical,
    Exponential,
    FirstExit,
    Gap,
    LatticeError,
    LatticeSpec,
    Rise,
    Uniform,
    VShape,
    Z99,
    absorption_pmf_oracle,
    collect_rewards,
    drift_check,
    exact_stop_steps,
    gof_test,
    levy_samples,
    q_value,
    QParams,
    ratio_report_from,
    stats_from_sample,
    sweep_payoff,
    walk_diameter_pmf,
)
from walkstop import mc_harness, stopping_rules
from walkstop.mc_harness import (
    REWARD_NAMES,
    CollectResult,
    _CHUNK,
    _Steps,
    _chunk_tables,
    _run_chunk,
)
from walkstop.stopping_rules import _RULES, default_max_steps, rule_units, run_until_stop

UNIT = LatticeSpec(h=1.0)


def _philox_stream(seed: int, trial: int) -> np.random.Generator:
    """The reference stream: trial's own generator, as `_Steps` reads it."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _signs(stream: _Steps, trial: int, start: int, length: int) -> np.ndarray:
    """Steps start .. start + length - 1 of the trial as int64 +-1."""
    codes = stream.codes([trial], start, -(-length // 16))
    steps = ((codes[0, :, None] >> np.arange(16)) & 1).ravel()[:length]
    return 2 * steps.astype(np.int64) - 1


def se_of(stats) -> float:
    return (stats.ci_high - stats.mean) / Z99


# --- means vs exact lattice expectations --------------------------------------

@pytest.mark.parametrize(
    "rule, exact_steps",
    [
        (Gap(1.0), 5.0),
        (Drawdown(1.0), 2.0),
        (Rise(1.0), 2.0),
        (DropDrawdown(1.0), 4.0),
        (DiameterReach(2.0), 3.0),
        (FirstExit(-2.0, 1.0), 2.0),
    ],
)
def test_estimate_matches_exact_steps(rule, exact_steps):
    run = collect_rewards(rule, ("stop_time",), UNIT, 30_000, seed=9)
    st = stats_from_sample(run.values["stop_time"])
    assert st.censored == 0
    assert abs(st.mean - exact_steps) <= 4 * se_of(st)


@pytest.mark.parametrize("kind", list(_RULES))
def test_means_match_rule_table(kind):
    """Mean step count and mean of the row's reward against the row's exact
    lattice means: k = 6 units at h = 1/4, exit at -4 and 6 units."""
    row = _RULES[kind]
    spec = LatticeSpec(h=0.25)
    levels = {"d": 1.5, "hdiam": 1.5, "lo": -1.0, "hi": 1.5}
    rule = row.cls(*(levels[name] for name in row.fields))
    units = rule_units(rule, spec)[1:]
    run = collect_rewards(rule, ("stop_time", row.reward), spec, 40_000, 61)
    assert run.censored == 0
    steps = stats_from_sample(run.values["stop_time"] / spec.time_per_step)
    assert abs(steps.mean - row.mean(*units)) <= 4 * se_of(steps)
    # The diameter rule's diameter is the same in every trial: se = 0.
    reward = stats_from_sample(run.values[row.reward])
    target = row.reward_mean(*units) * spec.h
    assert abs(reward.mean - target) <= max(4 * se_of(reward), 1e-12)


def test_estimate_exact_unit_mean_rewards():
    for rule, reward, seed, exact in (
        # E[max at drawdown firing] = d exactly, every h
        (Drawdown(1.0), "max", 13, 1.0),
        # diameter at Gap(d) firing: 3d exactly
        (Gap(1.0), "diameter", 14, 3.0),
        # |run_min| under the diameter rule: max + |min| = 2 and symmetry -> 1
        (DiameterReach(2.0), "min_abs", 15, 1.0),
    ):
        run = collect_rewards(rule, (reward,), UNIT, 40_000, seed)
        st = stats_from_sample(run.values[reward])
        assert abs(st.mean - exact) <= 4 * se_of(st)
    # |terminal| via the signed terminal reward: sum |x|*|x|/(k(k+1)) = 5/3
    run = collect_rewards(DiameterReach(2.0), ("terminal_x",), UNIT, 40_000, 15)
    st = stats_from_sample(np.abs(run.values["terminal_x"]))
    assert abs(st.mean - 5.0 / 3.0) <= 4 * se_of(st)


def test_wald_second_moment_identity():
    """E[x(T)^2] = E[T] (quadratic martingale, exact on the lattice):
    the paired difference is mean-zero."""
    run = collect_rewards(Gap(1.0), ("stop_time", "terminal_sq"), UNIT, 40_000, 21)
    diff = run.values["terminal_sq"] - run.values["stop_time"]
    st = stats_from_sample(diff)
    assert abs(st.mean) <= 4 * se_of(st)


def test_reward_vocabulary_and_validation():
    run = collect_rewards(
        Gap(1.0),
        ("max", "min_abs", "abs_sup", "diameter", "drop_sup", "stop_time",
         "terminal_sq", "terminal_x"),
        UNIT, 500, 3,
    )
    assert set(run.values) == {
        "max", "min_abs", "abs_sup", "diameter", "drop_sup", "stop_time",
        "terminal_sq", "terminal_x",
    }
    with pytest.raises(ValueError):
        collect_rewards(Gap(1.0), ("no_such_reward",), UNIT, 100, 3)
    with pytest.raises(ValueError):
        collect_rewards(Gap(1.0), ("max",), UNIT, 0, 3)
    with pytest.raises(LatticeError):
        collect_rewards(Gap(0.3), ("max",), LatticeSpec(h=0.25), 100, 3)


# --- determinism -----------------------------------------------------------------

def test_bitwise_determinism_same_seed():
    a = collect_rewards(Gap(1.0), ("stop_time", "terminal_x"), UNIT, 5000, 77)
    b = collect_rewards(Gap(1.0), ("stop_time", "terminal_x"), UNIT, 5000, 77)
    for key in a.values:
        assert np.array_equal(a.values[key], b.values[key], equal_nan=True)


def test_bitwise_determinism_across_workers():
    a = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 6000, 77, workers=1)
    b = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 6000, 77, workers=3)
    assert np.array_equal(a.values["stop_time"], b.values["stop_time"], equal_nan=True)


def test_different_seeds_differ():
    a = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 2000, 1)
    b = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 2000, 2)
    assert not np.array_equal(a.values["stop_time"], b.values["stop_time"])


# --- censoring --------------------------------------------------------------------

def test_censoring_accounting():
    # Gap(1) on the unit lattice needs diameter >= 2 plus an interior return,
    # so it cannot fire within 2 steps: every trial is censored at max_steps=2
    run = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 300, 5, max_steps=2)
    assert run.n == 300 and run.censored == 300 and not run.fired.any()
    assert np.isnan(run.values["stop_time"]).all()
    # a fully censored sample has no contributing trials to summarize
    with pytest.raises(ValueError, match="all censored"):
        stats_from_sample(run.values["stop_time"])
    # generous guard: nothing censored
    run = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 300, 5, max_steps=4000)
    assert run.censored == 0 and run.n == 300 and run.fired.all()


def test_partial_censoring_excludes_only_unfired():
    run = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 4000, 19, max_steps=7)
    assert 0 < run.censored < 4000
    vals = run.values["stop_time"]
    assert np.isnan(vals).sum() == run.censored
    assert np.nanmax(vals) <= 7.0


# --- statistics helpers -------------------------------------------------------------

def test_z99_matches_scipy():
    assert Z99 == pytest.approx(scipy.stats.norm.ppf(0.995), abs=1e-12)


def test_stats_from_sample_basics():
    st = stats_from_sample(np.array([1.0, 2.0, 3.0, 4.0]))
    assert st.mean == 2.5 and st.n == 4
    assert st.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
    half = Z99 * math.sqrt(st.variance / 4)
    assert st.ci_high - st.mean == pytest.approx(half)
    with pytest.raises(ValueError):
        stats_from_sample(np.array([]))
    # one trial has no variance: no zero-width interval is reported
    for sample in ([1.0], [np.nan, 1.0, np.nan]):
        with pytest.raises(ValueError, match="one contributing trial"):
            stats_from_sample(np.array(sample))
    st = stats_from_sample(np.array([1.0, np.nan, 3.0]))
    assert (st.n, st.censored, st.variance) == (2, 1, 2.0)
    # NaN is a censored trial; an infinite value is no trial's value.
    for sample in ([1.0, 2.0, np.inf], [1.0, np.nan, -np.inf, 2.0]):
        with pytest.raises(ValueError, match="^sample contains an infinite value$"):
            stats_from_sample(np.array(sample))
    # A sample is one-dimensional, as gof_test's: a grid is not pooled, and a
    # bare number is no sample.
    for sample, shape in ((np.arange(6.0).reshape(2, 3), (2, 3)), (3.0, ())):
        with pytest.raises(ValueError) as info:
            stats_from_sample(sample)
        assert str(info.value) == f"sample must be one-dimensional, got shape {shape}"


def test_ratio_ci_coverage():
    """Delta-method 99% CI: coverage over 200 replications of a known ratio."""
    rng = np.random.default_rng(1234)
    true_ratio = math.sqrt(2.0 / math.pi)  # E|Z| / sqrt(E[Z^2])
    hits = 0
    for _ in range(200):
        z = rng.standard_normal(500)
        x, y = np.abs(z), z * z
        m1, m2 = x.mean(), y.mean()
        ratio = m1 / math.sqrt(m2)
        cov = np.cov(x, y, ddof=1)
        gx = 1.0 / math.sqrt(m2)
        gy = -m1 / (2.0 * m2 ** 1.5)
        se = math.sqrt(
            (gx * gx * cov[0, 0] + 2 * gx * gy * cov[0, 1] + gy * gy * cov[1, 1]) / 500
        )
        if abs(ratio - true_ratio) <= Z99 * se:
            hits += 1
    assert hits >= 188  # 99% nominal; binomial 3-sigma floor


def test_ratio_report_matches_manual_computation():
    run = collect_rewards(Gap(1.0), ("diameter", "terminal_sq"), UNIT, 4000, 31)
    rep = ratio_report_from(run, "diameter")
    d, q = run.values["diameter"], run.values["terminal_sq"]
    assert rep.ratio == pytest.approx(d.mean() / math.sqrt(q.mean()), rel=1e-12)


# --- goodness-of-fit battery -----------------------------------------------------------

def test_gof_accepts_true_distributions():
    rng = np.random.default_rng(99)
    assert gof_test(rng.exponential(2.0, 4000), Exponential(mean=2.0)).p_value > 0.01
    assert gof_test(rng.uniform(0, 1.5, 4000), Uniform(hi=1.5)).p_value > 0.01
    support = np.array([-3, -2, -1, 1, 2, 3])
    probs = np.abs(support) / 12.0
    draws = rng.choice(support, size=4000, p=probs).astype(float)
    assert gof_test(draws, VShape(hdiam=3)).p_value > 0.01
    a = rng.standard_normal(3000)
    b = rng.standard_normal(3000)
    assert gof_test(a, Empirical(values=b)).p_value > 0.01


def test_gof_rejects_wrong_distributions():
    rng = np.random.default_rng(100)
    assert gof_test(rng.uniform(0, 1, 3000), Exponential(mean=1.0)).p_value < 1e-6
    assert gof_test(rng.exponential(1.0, 3000), Uniform(hi=4.0)).p_value < 1e-6
    support = np.array([-2.0, -1.0, 1.0, 2.0])
    flat = rng.choice(support, size=4000)  # uniform, not V-shaped
    assert gof_test(flat, VShape(hdiam=2)).p_value < 1e-6
    a = rng.standard_normal(3000)
    b = rng.standard_normal(3000) + 0.5
    assert gof_test(a, Empirical(values=b)).p_value < 1e-6


def test_gof_rejects_degenerate_input():
    with pytest.raises(ValueError):
        gof_test(np.array([]), Exponential(mean=1.0))
    with pytest.raises(ValueError):
        gof_test(np.array([1.0, np.nan]), Exponential(mean=1.0))
    with pytest.raises(ValueError):
        gof_test(np.full(100, 2.0), Exponential(mean=1.0))
    with pytest.raises(ValueError):
        gof_test(np.array([0.5, 1.5, -1.0] * 50), VShape(hdiam=2))  # off-lattice
    with pytest.raises(ValueError):
        gof_test(np.array([-3.0, 1.0, 2.0] * 50), VShape(hdiam=2))  # out of support
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="^sample contains an infinite value$"):
            gof_test(np.array([1.0, 2.0, bad]), Exponential(mean=1.0))
    sample = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="^reference sample contains an infinite value$"):
        gof_test(sample, Empirical(values=np.array([1.0, np.inf])))
    with pytest.raises(ValueError, match="reference sample contains NaN"):
        gof_test(sample, Empirical(values=np.array([1.0, np.nan, 2.0, 5.0])))
    with pytest.raises(ValueError, match="reference sample is empty"):
        gof_test(sample, Empirical(values=np.array([])))
    grid = np.arange(20.0).reshape(4, 5) + 1
    with pytest.raises(ValueError, match="sample must be one-dimensional"):
        gof_test(grid, Exponential(mean=2.0))
    with pytest.raises(ValueError, match="reference sample must be one-dimensional"):
        gof_test(sample, Empirical(values=grid))


def test_gof_target_validation():
    with pytest.raises(ValueError):
        Exponential(mean=0.0)
    with pytest.raises(ValueError):
        Uniform(hi=-1.0)
    with pytest.raises(ValueError, match="mean must be positive"):
        Exponential(mean=np.inf)
    with pytest.raises(ValueError, match="hi must be positive"):
        Uniform(hi=np.inf)
    with pytest.raises(ValueError):
        VShape(hdiam=0)


@pytest.mark.parametrize("hdiam", [2.5, math.nan, math.inf, 0, -1])
@pytest.mark.parametrize("make", [VShape, walk_diameter_pmf, absorption_pmf_oracle])
def test_hdiam_must_be_a_positive_finite_integer(make, hdiam):
    with pytest.raises(ValueError, match="hdiam must be"):
        make(hdiam)


def test_gof_vshape_is_scipy_chisquare_bit_for_bit():
    """The VShape test's own statistic and chdtrc p-value equal
    scipy.stats.chisquare's exactly, on true and skewed samples, from p
    below 1e-12 to near 1."""
    rng = np.random.default_rng(2027)
    p_values = []
    for k in range(1, 13):
        pmf = walk_diameter_pmf(k)
        support = np.array(sorted(pmf), dtype=float)
        probs = np.array([pmf[int(x)] for x in support])
        skewed = probs * np.linspace(0.5, 1.5, support.size)
        for size in (10, 1000, 200_000):
            for draw in (probs, skewed / skewed.sum()):
                x = rng.choice(support, size=size, p=draw)
                counts = np.array([(x == s).sum() for s in support], dtype=float)
                ref = scipy.stats.chisquare(counts, size * probs)
                got = gof_test(x, VShape(hdiam=k))
                assert got.statistic == float(ref.statistic), (k, size)
                assert got.p_value == float(ref.pvalue), (k, size)
                p_values.append(got.p_value)
    assert min(p_values) < 1e-12 and max(p_values) > 0.95


# --- fixed-time ensembles and the drift probe ---------------------------------------

def test_levy_samples_shapes_and_lattice():
    spec = LatticeSpec(h=0.25)
    drop, abs_x = levy_samples(1.0, spec, 800, 7)
    assert drop.shape == (800,) and abs_x.shape == (800,)
    assert (drop >= 0).all() and (abs_x >= 0).all()
    # drop lives on the h-lattice; |x| after an even step count on the 2h-lattice
    assert np.allclose(np.round(drop / 0.25), drop / 0.25)
    assert np.allclose(np.round(abs_x / 0.5), abs_x / 0.5)
    again = levy_samples(1.0, spec, 800, 7)
    assert np.array_equal(drop, again[0]) and np.array_equal(abs_x, again[1])
    with pytest.raises(LatticeError):
        levy_samples(0.3, spec, 100, 7)  # 0.3/h^2 is not an integer step count
    # Times round by LatticeSpec.units' rule on the time lattice, step h^2.
    with pytest.raises(LatticeError) as info:
        levy_samples(0.035, LatticeSpec(h=0.1), 100, 7)
    assert str(info.value) == f"t=0.035 is not an integer multiple of h={0.1 * 0.1!r}"


def test_levy_ensembles_are_disjoint_streams():
    drop, abs_x = levy_samples(1.0, UNIT, 400, 11)
    # same trial index in the two ensembles must come from different streams:
    # identical sequences would make the two-sample test vacuous
    assert not np.array_equal(drop, np.abs(abs_x))


def test_drift_check_structure_and_validation():
    report = drift_check(1.0, 1.0, 400, 3, (0.0, 0.5, 1.0), spec=LatticeSpec(h=0.1))
    assert len(report.unstopped) == 2 and len(report.stopped) == 2
    assert report.q_origin == pytest.approx(
        q_value(QParams.optimal(1.0), 0.0, 0.0, 0.0)
    )
    assert report.unstopped[0].t_start == 0.0
    assert report.unstopped[-1].t_end == 1.0
    with pytest.raises(ValueError, match="c must be positive and finite"):
        drift_check(0.0, 1.0, 100, 3, (0.0, 1.0))
    with pytest.raises(ValueError, match="d must be positive and finite"):
        drift_check(1e-310, 1.0, 100, 3, (0.0, 1.0))
    with pytest.raises(ValueError):
        drift_check(1.0, 1.0, 100, 3, (0.5, 0.2, 1.0), spec=LatticeSpec(h=0.1))
    with pytest.raises(ValueError):
        drift_check(1.0, 1.0, 100, 3, (0.0, 2.0), spec=LatticeSpec(h=0.1))
    with pytest.raises(LatticeError):
        drift_check(1.0, 1.0, 100, 3, (0.0, 0.035), spec=LatticeSpec(h=0.1))
    # distinct times that round to the same step count
    with pytest.raises(ValueError, match="strictly increasing steps"):
        drift_check(1.0, 1.0, 100, 3, (0.0, 1e-12, 1.0), spec=LatticeSpec(h=0.1))


def test_drift_check_compares_checkpoints_with_the_horizon_in_steps():
    """A checkpoint that rounds to the horizon's step count lies within it,
    and one a step past it does not."""
    spec = LatticeSpec(h=0.5)  # a step takes time 1/4
    cps = (0.0, 1000.0 + 1e-10)  # both times round to step 4000
    report = drift_check(1.0, 1000.0, 10, 0, cps, spec=spec)
    assert report == drift_check(1.0, 1000.0 + 1e-10, 10, 0, cps, spec=spec)
    for bad in ((0.0, 1000.25), (-0.25, 1000.0)):
        with pytest.raises(ValueError) as info:
            drift_check(1.0, 1000.0, 10, 0, bad, spec=spec)
        assert str(info.value) == f"checkpoints must lie in [0, horizon], got {bad}"


def test_drift_check_deterministic():
    a = drift_check(1.0, 1.0, 300, 17, (0.0, 1.0), spec=LatticeSpec(h=0.125))
    b = drift_check(1.0, 1.0, 300, 17, (0.0, 1.0), spec=LatticeSpec(h=0.125))
    assert a.unstopped[0].mean == b.unstopped[0].mean
    assert a.stopped[0].mean == b.stopped[0].mean


# --- payoff sweep -----------------------------------------------------------------------

def test_sweep_payoff_basics():
    spec = LatticeSpec(h=0.125)
    result = sweep_payoff(1.0, [0.25, 0.5, 1.0], spec, 1200, 23)
    assert [p.d for p in result.points] == [0.25, 0.5, 1.0]
    best = max(result.points, key=lambda p: p.payoff.mean)
    assert result.argmax_d == best.d
    with pytest.raises(ValueError):
        sweep_payoff(1.0, [], spec, 100, 23)
    with pytest.raises(LatticeError):
        sweep_payoff(1.0, [0.3], LatticeSpec(h=0.25), 100, 23)


def test_sweep_uses_common_random_numbers():
    """The same seed drives every grid point, so a shared d gives identical stats."""
    spec = LatticeSpec(h=0.25)
    solo = sweep_payoff(1.0, [0.5], spec, 800, 29)
    joint = sweep_payoff(1.0, [0.25, 0.5, 0.75], spec, 800, 29)
    assert solo.points[0].payoff.mean == joint.points[1].payoff.mean
    assert solo.points[0].payoff.variance == joint.points[1].payoff.variance


def test_estimate_seed_validation():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        collect_rewards(Gap(1.0), ("max",), UNIT, 100, -1)


# --- one-pass sweep, fan-out and stream pins -------------------------------------------

def test_sweep_matches_separate_gap_runs_on_unsorted_grid(monkeypatch):
    spec = LatticeSpec(h=0.0625)
    grid = [0.75, 0.25, 1.0, 0.5]

    def check():
        result = sweep_payoff(1.0, grid, spec, 600, 37)
        assert [p.d for p in result.points] == grid
        for point in result.points:
            run = collect_rewards(Gap(point.d), ("diameter", "stop_time"), spec, 600, 37)
            payoff = run.values["diameter"] - 1.0 * run.values["stop_time"]
            assert point.payoff == stats_from_sample(payoff)
        return result

    first = check()
    # Blocks of 16, 32, 64, ... steps (the hint rounds up to a multiple of
    # 16) with every row in one sub-batch: the thresholds fire in later
    # blocks, some rows ahead of others.
    monkeypatch.setattr(mc_harness, "_block_hint", lambda *units: 8)
    assert check() == first


def test_sweep_pass_censors_each_threshold_at_its_own_guard(monkeypatch):
    ks, guards = (1, 2, 3), (5, 200, 12)
    rules = tuple(Gap(float(k)) for k in ks)
    monkeypatch.setattr(mc_harness, "_block_hint", lambda *units: 64)
    fired, diameter, stop_time = _run_chunk(
        0, 400, rules, guards, UNIT, 41, ("diameter", "stop_time")
    )
    assert diameter.shape == stop_time.shape == (400, 3)
    for i, (k, guard) in enumerate(zip(ks, guards)):
        run = collect_rewards(
            Gap(float(k)), ("diameter", "stop_time"), UNIT, 400, 41, max_steps=guard
        )
        assert np.array_equal(diameter[:, i], run.values["diameter"], equal_nan=True)
        assert np.array_equal(stop_time[:, i], run.values["stop_time"], equal_nan=True)
        assert np.array_equal(fired[:, i], run.fired)
    # Gap(1) cannot fire within 5 steps on a few paths, Gap(3) mostly not
    # within 12, Gap(2) always within 200.
    censored = np.isnan(stop_time).sum(axis=0)
    assert 0 < censored[0] < 400 and censored[1] == 0 and censored[2] > censored[0]


def test_worker_count_invariance_below_one_chunk():
    n = 900
    assert n < _CHUNK
    spec = LatticeSpec(h=0.125)
    a = collect_rewards(Gap(0.5), ("diameter", "terminal_x"), spec, n, 43, workers=1)
    b = collect_rewards(Gap(0.5), ("diameter", "terminal_x"), spec, n, 43, workers=2)
    for key in a.values:
        assert np.array_equal(a.values[key], b.values[key], equal_nan=True)
    assert np.array_equal(a.fired, b.fired)
    one = sweep_payoff(1.0, [0.25, 0.5, 1.0], spec, n, 43, workers=1)
    two = sweep_payoff(1.0, [0.25, 0.5, 1.0], spec, n, 43, workers=2)
    assert one == two


def test_philox_stream_block_splits_match_one_draw():
    """run_until_stop draws from its caller's generator in blocks sized by
    the rule; its results rely on a stream giving the same signs however
    its draws are split."""
    split = _philox_stream(5, 3)
    parts = [split.integers(0, 2, size=m, dtype=np.int64) for m in (1, 7, 3, 2048)]
    whole = _philox_stream(5, 3).integers(0, 2, size=2059, dtype=np.int64)
    assert np.array_equal(np.concatenate(parts), whole)


def test_seeds_beyond_64_bits_rejected():
    spec = LatticeSpec(h=0.25)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        collect_rewards(Gap(1.0), ("max",), UNIT, 10, 2**64)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        sweep_payoff(1.0, [0.5], spec, 10, 2**64)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        drift_check(1.0, 1.0, 10, 2**64, (0.0, 1.0), spec=spec)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        levy_samples(1.0, spec, 10, 2**64)
    # the largest 64-bit seed is still a valid, distinct stream from seed 0
    top = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 200, 2**64 - 1)
    low = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 200, 0)
    assert not np.array_equal(top.values["stop_time"], low.values["stop_time"])


@pytest.mark.parametrize("n, seed", [(50, 1.5), (50, 7.9), (10.0, 3), (50, np.float64(2.0))])
@pytest.mark.parametrize(
    "run",
    [
        lambda n, seed: collect_rewards(Gap(1.0), ("stop_time",), LatticeSpec(h=0.25), n, seed),
        lambda n, seed: sweep_payoff(1.0, [0.5], LatticeSpec(h=0.25), n, seed),
        lambda n, seed: drift_check(1.0, 1.0, n, seed, (0.0, 1.0)),
        lambda n, seed: levy_samples(1.0, LatticeSpec(h=0.25), n, seed),
    ],
    ids=["collect_rewards", "sweep_payoff", "drift_check", "levy_samples"],
)
def test_fractional_seed_or_n_rejected(run, n, seed):
    """A float seed would alias the integer the 64-bit key truncates it to."""
    name = "n" if isinstance(n, float) else "seed"
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run(n, seed)


def test_numpy_integer_seed_and_n_accepted():
    spec = LatticeSpec(h=0.25)
    want = collect_rewards(Gap(1.0), ("stop_time",), spec, 50, 7)
    got = collect_rewards(Gap(1.0), ("stop_time",), spec, np.int64(50), np.uint64(7))
    assert np.array_equal(got.values["stop_time"], want.values["stop_time"])


# --- batched engine, raw-bit stream and pool size -------------------------------------

def test_step_stream_matches_generator_integers():
    """The raw-bit steps equal the reference generator's integers(0, 2), so a
    numpy release that changes either mapping fails here, not silently."""
    for seed, trial in ((0, 0), (5, 3), (2**64 - 1, 7), (11, 2**32), (2**64 - 1, 2**64 - 1)):
        stream = _Steps(seed)
        ref = 2 * _philox_stream(seed, trial).integers(0, 2, size=2101, dtype=np.int64) - 1
        for start, length in ((0, 1), (0, 7), (0, 2101), (16, 13), (32, 1), (1024, 1077)):
            steps = _signs(stream, trial, start, length)
            assert steps.dtype == np.int64
            assert np.array_equal(steps, ref[start : start + length])
    for start in (4, 8, 24):
        with pytest.raises(ValueError, match="multiple of 16"):
            _signs(_Steps(0), 0, start, 10)


def _reference_rewards(rule, spec, n, seed, max_steps):
    """Per-trial reference: run_until_stop on the reference generator,
    rewards from its Python-float final state."""
    fired = np.zeros(n, dtype=bool)
    values = {name: np.full(n, np.nan) for name in REWARD_NAMES}
    for trial in range(n):
        out = run_until_stop(rule, spec, _philox_stream(seed, trial), max_steps)
        fired[trial] = out.fired
        if out.fired:
            s = out.final_state
            for name, value in (
                ("max", s.run_max),
                # abs, not -run_min: the engine gives 0.0 where -0.0 would
                # differ in its bytes
                ("min_abs", abs(s.run_min)),
                ("abs_sup", s.abs_sup),
                ("diameter", s.diameter),
                ("drop_sup", s.drop_sup),
                ("stop_time", s.t),
                ("terminal_sq", s.x ** 2),
                ("terminal_x", s.x),
            ):
                values[name][trial] = value
    return fired, values


def _check_small_blocks(monkeypatch, rule, spec, seed, max_steps, fired, values):
    """run_until_stop drawing blocks of 1, 5 and 16 steps gives the
    per-trial reference `fired`, `values`, already matched to the engine.

    With `_SLICE` set to `size`, every block is `size` steps (each hint is
    at least 64), so blocks start at multiples of `size`.  Only the first
    tenth of the trials is rerun, since a one-step block costs one scan
    per step.  Some paths fire at a block's first step and some at its
    last; censored paths end in a block the guard cuts short.
    """
    m = fired.size // 10
    at_first = at_last = False
    for size in (1, 5, 16):
        monkeypatch.setattr(stopping_rules, "_SLICE", size)
        sub_fired, sub_values = _reference_rewards(rule, spec, m, seed, max_steps)
        assert sub_fired.tobytes() == fired[:m].tobytes(), size
        for name in REWARD_NAMES:
            assert sub_values[name].tobytes() == values[name][:m].tobytes(), (size, name)
        steps = np.round(sub_values["stop_time"] / spec.time_per_step)
        at = (steps[sub_fired] - 1) % size
        at_first |= size > 1 and bool((at == 0).any())
        at_last |= size > 1 and bool((at == size - 1).any())
    assert at_first and at_last


# A non-dyadic lattice on which Python's float (x * h) ** 2 (libm pow) and
# numpy's x * x already disagree at small |x|/h (11 is the first); on
# h = 1/60 the first is 161, beyond these short walks.
_H157 = 1.0 / 157


@pytest.mark.parametrize(
    "rule, max_steps",
    [
        (Gap(4 * _H157), 110),
        (DropDrawdown(4 * _H157), 90),
        (Drawdown(6 * _H157), 110),
        (Rise(6 * _H157), 110),
        (AbsGap(5 * _H157), 110),
        (DiameterReach(11 * _H157), 130),
        (FirstExit(-11 * _H157, 4 * _H157), 110),
    ],
)
def test_batched_engine_matches_per_trial_reference(monkeypatch, rule, max_steps):
    spec = LatticeSpec(h=_H157)
    n, seed = 1500, 61
    fired, values = _reference_rewards(rule, spec, n, seed, max_steps)
    assert 0 < (~fired).sum() < n
    x = values["terminal_x"][fired]
    assert (values["terminal_sq"][fired] != x * x).any()

    def check(run):
        assert run.fired.tobytes() == fired.tobytes()
        for name in REWARD_NAMES:
            assert run.values[name].tobytes() == values[name].tobytes(), name

    for workers in (1, 2):
        check(collect_rewards(rule, REWARD_NAMES, spec, n, seed, workers, max_steps))
    # Blocks of 16, 32, 64, ... steps (the hint rounds up to a multiple of
    # 16): trials stopping after step 56 fire in their third block or later.
    monkeypatch.setattr(mc_harness, "_block_hint", lambda *units: 8)
    assert (values["stop_time"] > 56 * spec.time_per_step).sum() > 10
    for workers in (1, 2):
        check(collect_rewards(rule, REWARD_NAMES, spec, n, seed, workers, max_steps))
    _check_small_blocks(monkeypatch, rule, spec, seed, max_steps, fired, values)


def _reference_signs(seed, trial, n_steps):
    return 2 * _philox_stream(seed, trial).integers(0, 2, size=n_steps, dtype=np.int64) - 1


def _reference_drift(c, horizon, n, seed, checkpoints, spec):
    """drift_check's rows, each path walked alone to the horizon on the
    reference generator; also the number of paths stopped by the last
    checkpoint."""
    d = 1.0 / (2.0 * c)
    h, tps = spec.h, spec.time_per_step
    k = spec.units(d, "d")
    cp = np.array([round(t / tps) for t in checkpoints])
    cp_times = cp * tps
    d_un, g_un, d_st, g_st, t_st = (np.empty((n, cp.size)) for _ in range(5))
    stopped_by_end = 0
    for trial in range(n):
        pos = np.cumsum(_reference_signs(seed, trial, round(horizon / tps)))
        rmax = np.maximum(np.maximum.accumulate(pos), 0)
        rmin = np.minimum(np.minimum.accumulate(pos), 0)
        # Entry u is the state after u steps.
        diam = np.concatenate(([0], rmax - rmin))
        gap = np.concatenate(([0], np.minimum(rmax - pos, pos - rmin)))
        d_un[trial] = diam[cp] * h
        g_un[trial] = gap[cp] * h
        s = int(np.argmax(gap >= k))  # 0: never fired, as gap[0] < k
        stopped = (cp >= s) if s else np.zeros(cp.size, dtype=bool)
        stopped_by_end += bool(stopped[-1])
        d_st[trial] = np.where(stopped, diam[s] * h, d_un[trial])
        g_st[trial] = np.where(stopped, k * h, g_un[trial])
        t_st[trial] = np.where(stopped, s * tps, cp_times)
    params = QParams(c=c, d=d)
    q_un = q_value(params, d_un, g_un, np.broadcast_to(cp_times, d_un.shape))
    q_st = q_value(params, d_st, g_st, t_st)

    def rows(q):
        diffs = np.diff(q, axis=1)
        return [
            (float(np.mean(col)), float(np.std(col, ddof=1) / math.sqrt(n)))
            for col in diffs.T
        ]

    return rows(q_un), rows(q_st), stopped_by_end


@pytest.mark.parametrize(
    "c, h, horizon, checkpoints, n",
    [
        # a checkpoint at 0 and a last checkpoint before the horizon
        (1.0, 0.1, 1.0, (0.0, 0.25, 0.5, 0.8), 500),
        # first checkpoint after 0, c = 2
        (2.0, 1.0 / 40, 0.5, (0.05, 0.2, 0.4), 300),
    ],
)
def test_drift_check_matches_per_path_reference(c, h, horizon, checkpoints, n):
    spec = LatticeSpec(h=h)
    seed = 67
    unstopped, stopped, stopped_by_end = _reference_drift(
        c, horizon, n, seed, checkpoints, spec
    )
    assert 0 < stopped_by_end < n  # some paths never fire
    for workers in (1, 2):
        report = drift_check(c, horizon, n, seed, checkpoints, spec, workers)
        assert [(r.mean, r.stderr) for r in report.unstopped] == unstopped
        assert [(r.mean, r.stderr) for r in report.stopped] == stopped
        assert report.checkpoints == checkpoints


@pytest.mark.parametrize(
    "h, n_steps", [(0.25, 16), (0.1, 37), (1.0 / 157, 1001), (0.5, 1)]
)
def test_levy_samples_match_per_path_reference(h, n_steps):
    spec = LatticeSpec(h=h)
    n, seed = 300, 71
    drop, abs_x = np.empty(n), np.empty(n)
    for trial in range(2 * n):
        sgn = _reference_signs(seed, trial, n_steps)
        x = int(np.sum(sgn))
        top = int(max(np.max(np.cumsum(sgn)), 0))
        if trial < n:
            drop[trial] = (top - x) * h
        else:
            abs_x[trial - n] = abs(x) * h
    for workers in (1, 2):
        got = levy_samples(n_steps * spec.time_per_step, spec, n, seed, workers)
        assert got[0].tobytes() == drop.tobytes()
        assert got[1].tobytes() == abs_x.tobytes()


# --- packed 16-step scan ----------------------------------------------------------


def test_chunk_tables_match_expanded_steps():
    """Every entry of the five tables, for all 65536 chunk codes, equals the
    quantity computed from the code's sixteen steps."""
    steps = 2 * ((np.arange(2**16)[:, None] >> np.arange(16)) & 1) - 1
    pos = np.cumsum(steps, axis=1)  # relative to the chunk's start
    expected = (
        pos[:, -1],
        pos.max(axis=1),
        pos.min(axis=1),
        (np.maximum.accumulate(pos, axis=1) - pos).max(axis=1),
        (pos - np.minimum.accumulate(pos, axis=1)).max(axis=1),
    )
    tables = _chunk_tables()
    assert tables.dtype == np.int8 and tables.shape == (5, 2**16)
    for table, want in zip(tables, expected):
        assert np.array_equal(table, want)


def test_chunk_codes_hold_the_stream_steps():
    """A sub-batch's codes are its trials' own, chunk j's step i in bit i."""
    stream = _Steps(5)
    trials = [0, 3, 2**40, 2**64 - 1]
    codes = stream.codes(trials, 16, 5)
    assert codes.dtype == np.uint16 and codes.shape == (4, 5)
    for row, trial in zip(codes, trials):
        ref = 2 * _philox_stream(5, trial).integers(0, 2, size=96, dtype=np.int64) - 1
        bits = ((row[:, None] >> np.arange(16)) & 1).astype(np.int64)
        assert np.array_equal(2 * bits.ravel() - 1, ref[16:])
        assert np.array_equal(row, stream.codes([trial], 16, 5)[0])
    assert np.array_equal(stream.codes(trials, 0, 6)[:, 1:], codes)


def _chunk_walk(codes, x, mx, mn, dr):
    """Position, running extremes and drop supremum at each step of each
    chunk, walked step by step."""
    pos = x[:, None] + np.cumsum(2 * ((codes[:, None] >> np.arange(16)) & 1) - 1, axis=1)
    rmax = np.maximum(np.maximum.accumulate(pos, axis=1), mx[:, None])
    rmin = np.minimum(np.minimum.accumulate(pos, axis=1), mn[:, None])
    drop_run = np.maximum(np.maximum.accumulate(rmax - pos, axis=1), dr[:, None])
    return pos, rmax, rmin, drop_run


@pytest.mark.parametrize("kind", list(_RULES))
def test_chunk_tests_bound_the_firing_predicate(kind):
    """The chunk score is at least the rule's level at every step of the
    chunk, and equals the chunk's largest level where the scan relies on it
    being exact.  So at every threshold k in 1..24, score >= k is False
    only where the rule fires at no step of the chunk.  FirstExit compares
    its level with k = 0; its upper threshold runs over 1..24 instead."""
    rng = np.random.default_rng(97)
    n = 40_000
    codes = rng.integers(0, 2**16, n).astype(np.uint16)
    x = rng.integers(-30, 31, n)
    mx = np.maximum(x, 0) + rng.integers(0, 20, n)
    mn = np.minimum(x, 0) - rng.integers(0, 20, n)
    dr = mx - x + rng.integers(0, 12, n)
    up, down, dd, ri = np.take(_chunk_tables()[1:], codes, axis=1)
    walk = _chunk_walk(codes, x, mx, mn, dr)
    row = _RULES[kind]
    mixed = 0
    for t in range(1, 25):
        k, klo, khi = t, -12, 9
        if kind == "exit":
            k, khi = 0, t
        top = row.level(klo, khi, *walk).max(axis=1)
        score = row.score(klo, khi, x, mx, mn, dr, up, down, dd, ri)
        # _run_chunk writes into the score, so it must own its memory.
        assert not any(np.shares_memory(score, a) for a in (x, mx, mn, dr, up, down, dd, ri))
        assert (score >= top).all(), t
        if kind in ("drawdown", "rise", "diameter", "exit"):
            assert np.array_equal(score, top), t
        truth = top >= k
        mixed += truth.any() and not truth.all()
    assert mixed >= 20


_H64 = 1.0 / 64


@pytest.mark.parametrize(
    "rule, max_steps",
    [
        (Gap(10 * _H64), 16 * 24 + 7),
        (DropDrawdown(10 * _H64), 16 * 17 + 7),
        (Drawdown(16 * _H64), 16 * 20 + 7),
        (Rise(16 * _H64), 16 * 20 + 7),
        (AbsGap(12 * _H64), 16 * 24 + 7),
        (DiameterReach(24 * _H64), 16 * 23 + 7),
        (FirstExit(-20 * _H64, 12 * _H64), 16 * 18 + 7),
    ],
)
def test_packed_scan_matches_reference_across_chunks_and_blocks(monkeypatch, rule, max_steps):
    """Trials span many 16-step chunks and several blocks and sub-batches,
    and each guard lies 7 steps into a chunk, so the censoring edge falls
    inside one."""
    spec = LatticeSpec(h=_H64)
    n, seed = 300, 83
    fired, values = _reference_rewards(rule, spec, n, seed, max_steps)
    assert 0 < (~fired).sum() < n

    def check():
        run = collect_rewards(rule, REWARD_NAMES, spec, n, seed, 1, max_steps)
        assert run.fired.tobytes() == fired.tobytes()
        for name in REWARD_NAMES:
            assert run.values[name].tobytes() == values[name].tobytes(), name

    check()
    # Blocks of 16, 32, 64, 128, 256 steps, at most 512 steps per sub-batch:
    # trials stopping after step 240 fire in their fifth block, in 2-row
    # sub-batches.
    monkeypatch.setattr(mc_harness, "_block_hint", lambda *units: 8)
    monkeypatch.setattr(mc_harness, "_BATCH_STEPS", 2**9)
    assert (values["stop_time"] > 240 * spec.time_per_step).sum() > 10
    check()
    _check_small_blocks(monkeypatch, rule, spec, seed, max_steps, fired, values)


def test_nested_gap_chain_passes_over_candidate_chunks_that_do_not_fire(monkeypatch):
    """Gap's chunk score is only a bound: in some candidate chunks both
    extremes are d away, but never at one step.  Those chunks are expanded
    and passed over, and every threshold of the chain still fires where a
    step-by-step run of it does.  Walked alone, no trial expands a chunk
    twice, and the batch expands just the chunks its trials do alone."""
    spec = LatticeSpec(h=1.0 / 32)
    ks, guards = (3, 5, 8), (16 * 5 + 7, 16 * 20 + 7, 16 * 40 + 7)
    rules = tuple(Gap(k * spec.h) for k in ks)
    n, seed = 300, 89
    reference = [_reference_rewards(r, spec, n, seed, g) for r, g in zip(rules, guards)]
    misses = []
    gap = _RULES["gap"]

    def level(*args):
        out = gap.level(*args)
        # An expanded chunk whose level stays below the smallest threshold
        # fires none.
        misses.append(int((out.max(axis=1) < ks[0]).sum()))
        return out

    expand, seen = mc_harness._expand, []

    def probe(codes, x, mx, mn, dr):
        # A chunk-start state and code name the chunk within its trial.
        seen.extend(zip(*(a.tolist() for a in (codes, x, mx, mn))))
        return expand(codes, x, mx, mn, dr)

    monkeypatch.setitem(_RULES, "gap", dataclasses.replace(gap, level=level))
    monkeypatch.setattr(mc_harness, "_block_hint", lambda *units: 16)
    monkeypatch.setattr(mc_harness, "_expand", probe)
    fired, diameter, stop_time = _run_chunk(
        0, n, rules, guards, spec, seed, ("diameter", "stop_time")
    )
    assert sum(misses) > 0
    batch, alone = seen[:], []
    for t in range(n):
        seen.clear()
        _run_chunk(t, t + 1, rules, guards, spec, seed, ("diameter", "stop_time"))
        assert len(set(seen)) == len(seen), t
        alone.extend(seen)
    assert sorted(batch) == sorted(alone)
    for i, (ok, values) in enumerate(reference):
        assert ok.any()
        assert fired[:, i].tobytes() == ok.tobytes()
        assert diameter[:, i].tobytes() == values["diameter"].tobytes()
        assert stop_time[:, i].tobytes() == values["stop_time"].tobytes()


@pytest.mark.parametrize("kind", ["gap", "drawdown", "rise", "absgap", "dropdd", "diameter"])
def test_chain_matches_per_threshold_runs_byte_for_byte(monkeypatch, kind):
    """A chain of close thresholds, walked once, equals a separate
    collect_rewards run at each threshold, byte for byte.  Some row fires
    two thresholds inside one 16-step chunk, which is expanded once, and
    rows of one sub-batch wait on different thresholds in one candidate
    pass."""
    spec = LatticeSpec(h=1.0 / 16)
    row = _RULES[kind]
    rules = tuple(row.cls(k * spec.h) for k in (2, 3, 4, 5, 7))
    guards = tuple(default_max_steps(rule, spec) for rule in rules)
    n, seed = 400, 53
    # Blocks of 16, 32, 64, ... steps; up to 256 steps all rows share one
    # sub-batch.
    monkeypatch.setattr(mc_harness, "_block_hint", lambda *units: 16)
    fired, *values = _run_chunk(0, n, rules, guards, spec, seed, REWARD_NAMES)
    steps = np.round(values[REWARD_NAMES.index("stop_time")] / spec.time_per_step)
    chunk = (steps - 1) // 16
    twice = np.flatnonzero((chunk[:, 1:] == chunk[:, :-1]).any(axis=1))
    assert twice.size
    pending = [(steps <= walked).sum(axis=1) for walked in (16, 48, 112, 240)]
    assert any(np.unique(p[p < len(rules)]).size > 1 for p in pending)
    # Walked alone, a trial that fires two thresholds in one chunk expands
    # each of its chunks once: no chunk-start state repeats.
    expand, seen = mc_harness._expand, []

    def probe(codes, x, mx, mn, dr):
        seen.extend(zip(*(a.tolist() for a in (codes, x, mx, mn, dr))))
        return expand(codes, x, mx, mn, dr)

    monkeypatch.setattr(mc_harness, "_expand", probe)
    for t in twice[:8].tolist():
        seen.clear()
        alone = _run_chunk(t, t + 1, rules, guards, spec, seed, REWARD_NAMES)
        assert seen and len(set(seen)) == len(seen), t
        for a, b in zip(alone, (fired, *values)):
            assert a.tobytes() == b[t : t + 1].tobytes(), t
    for i, (rule, guard) in enumerate(zip(rules, guards)):
        run = collect_rewards(rule, REWARD_NAMES, spec, n, seed, max_steps=guard)
        assert fired[:, i].tobytes() == run.fired.tobytes()
        for name, value in zip(REWARD_NAMES, values):
            assert value[:, i].tobytes() == run.values[name].tobytes(), (i, name)


def test_blocks_capped_small_match_the_default_schedule(monkeypatch):
    """With blocks doubling from 16 steps up to a _SLICE of 48, trials span
    many capped blocks; a Gap chain and a single DropDrawdown, which
    carries the drop supremum across blocks, are unchanged."""
    spec = LatticeSpec(h=1.0 / 32)
    chain = tuple(Gap(k * spec.h) for k in (3, 5, 10))
    guards = tuple(default_max_steps(rule, spec) for rule in chain)
    drop = DropDrawdown(10 * spec.h)
    n, seed = 300, 59

    def run():
        with monkeypatch.context() as m:
            m.setattr(mc_harness, "_block_hint", lambda *units: 8)
            walked = _run_chunk(0, n, chain, guards, spec, seed, REWARD_NAMES)
        single = collect_rewards(drop, REWARD_NAMES, spec, n, seed)
        return walked, (single.fired, *single.values.values())

    want = run()
    monkeypatch.setattr(mc_harness, "_SLICE", 48)
    got = run()
    for stop_time in (want[0][1 + REWARD_NAMES.index("stop_time")][:, -1],
                      want[1][1 + REWARD_NAMES.index("stop_time")]):
        assert (stop_time > 8 * 48 * spec.time_per_step).sum() > 10
    for a, b in zip(want[0] + want[1], got[0] + got[1]):
        assert a.tobytes() == b.tobytes()


def test_library_fan_out_rejects_fewer_than_one_worker():
    spec = LatticeSpec(h=0.25)
    # A fractional count used to fail deep in the fan-out with a TypeError.
    for workers, message in ((0, "must be >= 1, got 0"), (-2, "must be >= 1, got -2"),
                             (1.5, "must be an integer, got 1.5")):
        match = f"^workers {re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            collect_rewards(Gap(1.0), ("max",), spec, 10, 1, workers=workers)
        with pytest.raises(ValueError, match=match):
            levy_samples(1.0, spec, 10, 1, workers=workers)
        with pytest.raises(ValueError, match=match):
            drift_check(1.0, 1.0, 10, 1, (0.0, 1.0), spec=spec, workers=workers)
        with pytest.raises(ValueError, match=match):
            sweep_payoff(1.0, [0.5], spec, 10, 1, workers=workers)


def test_collect_rewards_rejects_nonpositive_max_steps():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            collect_rewards(Gap(1.0), ("stop_time",), UNIT, 10, 3, max_steps=bad)
    # A fractional guard used to run silently as its integer part.
    with pytest.raises(ValueError, match="^max_steps must be an integer, got 20.5$"):
        collect_rewards(Gap(1.0), ("stop_time",), UNIT, 10, 3, max_steps=20.5)


def test_pool_is_capped_at_usable_cpus(monkeypatch):
    requested, mapped = [], []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            mapped.append(len(tasks))
            return map(fn, tasks)

    # _map_trials imports the pool only when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(mc_harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    one = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 10_000, 7, workers=1)
    assert requested == []
    many = collect_rewards(Gap(1.0), ("stop_time",), UNIT, 10_000, 7, workers=1000)
    assert requested == [2] and mapped == [4]  # 2 workers x 2 chunks, not 1000 tasks
    assert many.values["stop_time"].tobytes() == one.values["stop_time"].tobytes()
    # Without affinity masks the cap falls back to the CPU count.
    monkeypatch.delattr(mc_harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc_harness.os, "cpu_count", lambda: 3)
    sweep_payoff(1.0, [1.0], UNIT, 600, 7, workers=1000)
    assert requested[-1] == 3 and mapped[-1] == 3


NOT_A_TARGET = object()
NO_VARIANCE = CollectResult(
    values={"max": np.ones(4), "terminal_sq": np.zeros(4)}, fired=np.ones(4, dtype=bool)
)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: collect_rewards(Gap(1.0), (), UNIT, 10, 0),
         ValueError, "at least one reward is required"),
        (lambda: collect_rewards(Gap(1.0), ("max", "max"), UNIT, 10, 0),
         ValueError, "duplicate reward names in ('max', 'max')"),
        (lambda: ratio_report_from(NO_VARIANCE, "max"),
         ValueError, "terminal second moment must be positive"),
        (lambda: gof_test(np.arange(5.0), NOT_A_TARGET),
         TypeError, f"unknown target {NOT_A_TARGET!r}"),
        (lambda: drift_check(1.0, 0.0, 10, 0, (0.0, 1.0)),
         ValueError, "horizon must be positive and finite, got 0.0"),
        (lambda: drift_check(1.0, math.inf, 10, 0, (0.0, 1.0)),
         ValueError, "horizon must be positive and finite, got inf"),
        (lambda: drift_check(1.0, 1.0, 1, 0, (0.0, 1.0)),
         ValueError, "n must be >= 2, got 1"),
        (lambda: drift_check(1.0, 1.0, 1.5, 0, (0.0, 1.0)),
         ValueError, "n must be an integer, got 1.5"),
        # at h = 1/2 a step takes time 1/4, so 1e-12 rounds to 0 steps (so it
        # does at the default h = 1/40: within 1e-9 of 0 on the time lattice)
        (lambda: drift_check(1.0, 1e-12, 10, 0, (0.0, 1e-12), spec=LatticeSpec(h=0.5)),
         ValueError, "horizon shorter than one step"),
        (lambda: drift_check(1.0, 1.0, 10, 0, (1.0,)),
         ValueError, "need at least two checkpoints"),
        (lambda: levy_samples(1e-12, UNIT, 10, 0),
         ValueError, "t shorter than one step"),
        # two thresholds on one lattice level would report one run twice,
        # also when they differ within the lattice tolerance
        (lambda: sweep_payoff(1.0, [0.5, 0.25, 0.5], LatticeSpec(h=0.125), 10, 0),
         ValueError, "d_grid values 0.5 and 0.5 share the lattice level 4 (h = 0.125)"),
        (lambda: sweep_payoff(1.0, [0.5, 0.5 + 1e-12], LatticeSpec(h=0.125), 10, 0),
         ValueError, f"d_grid values 0.5 and {0.5 + 1e-12} share the lattice level 4 (h = 0.125)"),
    ],
)
def test_rejections_name_the_bad_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

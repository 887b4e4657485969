"""Deterministic parallel Monte Carlo estimation and hypothesis testing.

The stream for trial k is a counter-based generator keyed by (seed, k), and
trials are dispatched to workers in contiguous chunks merged back in trial
order, so every result is bit-identical for a given seed regardless of the
worker count.  Censored trials (step guard exhausted) are excluded from all
moments but always counted and reported.

Two scans walk the paths: the batched first-passage engine `_run_chunk`,
which serves `collect_rewards` and, with nested thresholds, `sweep_payoff`,
and the checkpoint kernel `_fixed_time_chunk`, which serves `levy_samples`
and `drift_check`.  Both read the steps as packed 16-step chunks: tables
indexed by a chunk's code give its displacement, extremes, fall and rise,
chunk-level sums and running extremes give the exact state at each chunk's
start, and only the chunks where a rule may fire, or that a checkpoint
splits, are expanded to single steps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache
from math import ceil, sqrt

import numpy as np

from .exact_walk import _unit_hdiam, walk_diameter_pmf
from .path_engine import LatticeSpec, _require_int, _require_positive, _require_seed
from .q_process import QParams, q_value
from .stopping_rules import (
    _RULES,
    _SLICE,
    _block_hint,
    Gap,
    StopRule,
    default_max_steps,
    rule_units,
)

__all__ = [
    "Z99",
    "REWARD_NAMES",
    "TrialStats",
    "RatioReport",
    "CollectResult",
    "collect_rewards",
    "stats_from_sample",
    "ratio_report_from",
    "Exponential",
    "Uniform",
    "VShape",
    "Empirical",
    "GofResult",
    "gof_test",
    "DriftRow",
    "DriftReport",
    "drift_check",
    "levy_samples",
    "SweepPoint",
    "SweepResult",
    "sweep_payoff",
]

# Two-sided 99% normal quantile (checked against scipy in the test suite).
Z99 = 2.5758293035489004

# Each reward per trial from its lattice-unit state at the stop, in the
# CLI's --reward order.
_REWARDS = {
    "max": lambda spec, steps, ix, imax, imin, idrop: imax * spec.h,
    "min_abs": lambda spec, steps, ix, imax, imin, idrop: -imin * spec.h,
    "abs_sup": lambda spec, steps, ix, imax, imin, idrop: np.maximum(imax, -imin) * spec.h,
    "diameter": lambda spec, steps, ix, imax, imin, idrop: (imax - imin) * spec.h,
    "drop_sup": lambda spec, steps, ix, imax, imin, idrop: idrop * spec.h,
    "stop_time": lambda spec, steps, ix, imax, imin, idrop: steps * spec.time_per_step,
    # float_power calls libm pow, as Python's float ** 2 does; numpy's
    # ** 2 is x * x, which differs in the last bit for some x.
    "terminal_sq": lambda spec, steps, ix, imax, imin, idrop: np.float_power(ix * spec.h, 2.0),
    "terminal_x": lambda spec, steps, ix, imax, imin, idrop: ix * spec.h,
}
REWARD_NAMES = tuple(_REWARDS)

# Largest number of trials per task.  Output never depends on the split:
# each trial's stream is keyed by (seed, trial) alone.
_CHUNK = 4096

# Most steps scanned at once by either scan: trials x steps per trial.  The
# raw words then take 512 KB, and each int64 chunk-level array 64 KB.
_BATCH_STEPS = 2**17


@dataclass(frozen=True)
class TrialStats:
    """Pooled sample moments with a 99% normal-approximation interval."""

    n: int
    mean: float
    variance: float
    ci_low: float
    ci_high: float
    censored: int


@dataclass(frozen=True)
class RatioReport:
    """Reward mean over the terminal standard deviation, with a delta-method CI.

    The denominator uses sqrt(E[terminal position squared]), which equals
    sqrt(E[stop time]) for the driftless walk.
    """

    reward_mean: TrialStats
    terminal_second_moment: TrialStats
    ratio: float
    ratio_ci: tuple[float, float]


class _Steps:
    """The +-1 steps of every trial of one seed: the one source of walk steps.

    Trial t walks the Philox stream keyed by (seed, t).  Its step i is +1
    when bit 31 of the i-th 32-bit half of the raw output is set, low half
    of each 64-bit word first, and -1 otherwise.  That is the sequence
    `Generator(Philox(key=[seed, t])).integers(0, 2)` maps to +-1, as the
    tests pin, read without building a generator per trial: one bit
    generator serves every trial, its key and counter rewritten for each
    draw.  Callers see only 16-step chunks.
    """

    def __init__(self, seed: int) -> None:
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        # A fresh state has nothing buffered (buffer_pos 4, has_uint32 0),
        # so setting it starts the output at its counter.
        self._state = self._bg.state
        self._key = self._state["state"]["key"]
        self._counter = self._state["state"]["counter"]

    def codes(self, trials, start: int, chunks: int) -> np.ndarray:
        """uint16 codes, one row per trial, of `chunks` chunks from step `start`.

        A chunk's code holds its step j in bit j, 1 for +1.  `start` must be
        a multiple of 16; a counter value yields eight steps.  Byte pairs
        are joined with a shift, not a uint16 view, which would swap them
        on a big-endian host.
        """
        if start % 16:
            raise ValueError(f"start must be a multiple of 16, got {start}")
        words = np.empty((len(trials), 8 * chunks), dtype=np.uint64)
        self._counter[0] = start // 8
        for r, trial in enumerate(trials):
            self._key[1] = trial
            self._bg.state = self._state
            words[r] = self._bg.random_raw(8 * chunks)
        plus = words.view(np.uint32) >= 1 << 31
        packed = np.packbits(plus, axis=-1, bitorder="little")
        return packed[:, 0::2] | packed[:, 1::2].astype(np.uint16) << 8


# --- the packed scan ----------------------------------------------------------
#
# Both scans read the steps sixteen at a time, as `_Steps.codes`; per-chunk
# facts come from tables indexed by the code, and only a chunk that needs
# its single steps is expanded.

_BITS = np.arange(16, dtype=np.uint16)


@cache
def _chunk_tables() -> np.ndarray:
    """Five int8 facts of every 16-step chunk, in rows indexed by its code.

    The rows are: the displacement; the highest and the lowest position
    after the chunk's start, relative to it (`up`, `down`); the largest fall
    below an earlier position of the chunk (`dd`) and the largest rise
    above one (`ri`).  Each row is composed from the same facts of the two
    8-step halves.  Built on first use (320 KB, well under a millisecond)
    and read-only.
    """
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    pos = np.cumsum(2 * bits - 1, axis=1)
    eight = np.stack([
        pos[:, -1],
        pos.max(axis=1),
        pos.min(axis=1),
        (np.maximum.accumulate(pos, axis=1) - pos).max(axis=1),
        (pos - np.minimum.accumulate(pos, axis=1)).max(axis=1),
    ]).astype(np.int8)
    # Code a | b << 8 walks the half a (columns here), then b (rows) from
    # where a ends.
    d, up, down, dd, ri = eight[:, None, :]
    bd, bup, bdown, bdd, bri = eight[:, :, None]
    tables = np.empty((5, 256, 256), dtype=np.int8)
    np.add(d, bd, out=tables[0])
    np.maximum(up, d + bup, out=tables[1])
    np.minimum(down, d + bdown, out=tables[2])
    np.maximum(np.maximum(dd, bdd), up - d - bdown, out=tables[3])
    np.maximum(np.maximum(ri, bri), d + bup - down, out=tables[4])
    tables.flags.writeable = False
    return tables.reshape(5, -1)


def _scan(start: np.ndarray, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """`ufunc` accumulated along each row of `values`, from `start`.

    Column c of the result holds the value before values[:, c], column
    c + 1 the value after it.
    """
    out = np.empty((values.shape[0], values.shape[1] + 1), dtype=np.int64)
    out[:, 0] = start
    out[:, 1:] = values
    return ufunc.accumulate(out, axis=1, out=out)


def _expand(codes, x, mx, mn, dr):
    """Position, running extremes and drop supremum at each step of chunks.

    Row r walks the 16 steps of codes[r] from the state x[r], mx[r], mn[r]
    and dr[r] at its start; `dr` may be None, and then so is the drop
    supremum.  Results have shape (len(codes), 16).
    """
    pos = ((codes[:, None] >> _BITS) & 1).astype(np.int64)
    pos *= 2
    pos -= 1
    pos[:, 0] += x
    np.cumsum(pos, axis=1, out=pos)
    rmax = np.maximum.accumulate(pos, axis=1)
    np.maximum(rmax, mx[:, None], out=rmax)
    rmin = np.minimum.accumulate(pos, axis=1)
    np.minimum(rmin, mn[:, None], out=rmin)
    drop_run = None
    if dr is not None:
        drop_run = np.maximum.accumulate(rmax - pos, axis=1)
        np.maximum(drop_run, dr[:, None], out=drop_run)
    return pos, rmax, rmin, drop_run


def _check_trials(n: int, seed: int) -> None:
    _require_int(n, "n", 1)
    _require_seed(seed)


def _trial_task(task):
    fn, lo, hi, args = task
    return fn(lo, hi, *args)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _map_trials(fn, n: int, workers: int, *args) -> tuple[np.ndarray, ...]:
    """Run fn(lo, hi, *args) over trials [0, n); join its arrays in trial order.

    `fn` returns a tuple of arrays indexed by trial along the first axis.
    Trials are split into equal contiguous chunks of at most _CHUNK, their
    count a multiple of `workers` so every worker gets the same share.
    Workers beyond the CPUs this process may use would only queue, so
    `workers` is capped at that count.  One worker runs the chunks in this
    process; only more than one imports the process pool, so a serial run
    never loads multiprocessing.
    """
    _require_int(workers, "workers", 1)
    workers = min(workers, _usable_cpus())
    parts = workers * ceil(n / (workers * _CHUNK))
    cuts = [i * n // parts for i in range(parts + 1)]
    tasks = [(fn, lo, hi, args) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    if workers == 1:
        results = [_trial_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_trial_task, tasks))
    return tuple(np.concatenate(arrays) for arrays in zip(*results))


def _run_chunk(
    lo: int,
    hi: int,
    rules: tuple[StopRule, ...],
    guards: tuple[int, ...],
    spec: LatticeSpec,
    seed: int,
    rewards: tuple[str, ...],
) -> tuple[np.ndarray, ...]:
    """Rewards of trials [lo, hi) at each rule, all trials walked together.

    `rules` are rules of one kind with strictly increasing thresholds, so
    each fires no earlier than the one before; a single rule is the common
    case.  Every trial still walking takes the same block of steps, in
    sub-batches of at most _BATCH_STEPS steps, as rows of one array.  The
    first block is `_block_hint` of the last rule rounded up to a multiple
    of 16; blocks then double up to _SLICE.  A block is read as 16-step
    chunks: the state at each chunk's start is exact, continued from the
    state carried from the row's last block, so results never depend on the
    block split.  Each pass expands, for every row still walking, the first
    chunk whose score reaches the threshold of its first rule yet to fire; each
    rule yet to fire whose threshold the running max of the level reaches there
    fires at the first step it does, and the chunk's score becomes -1, below
    every threshold.  A trial records its state at each rule's first firing
    step and leaves when the last rule fires; rule i is censored when that step
    exceeds guards[i].  Results have shape (hi - lo, len(rules)).
    """
    units = [rule_units(rule, spec) for rule in rules]
    kind, _, klo, khi = units[0]
    ks = np.array([k for _, k, _, _ in units])
    row = _RULES[kind]
    need_drop = row.reads_drop or "drop_sup" in rewards
    stream = _Steps(seed)
    m, u = hi - lo, len(rules)
    # Each trial's state at each rule's first firing step, 0 until then.
    steps, ix, imax, imin, idrop = np.zeros((5, m, u), dtype=np.int64)
    # The state at the end of the latest block, carried into the next.
    cx, cmax, cmin, cdrop = np.zeros((4, m), dtype=np.int64)
    pending = np.zeros(m, dtype=np.int64)  # each trial's first rule yet to fire
    live = np.arange(m)
    walked = 0
    block = min(-(-_block_hint(*units[-1]) // 16) * 16, _SLICE)
    while live.size and walked < max(guards):
        batch = max(1, _BATCH_STEPS // block)
        for a in range(0, live.size, batch):
            idx = live[a : a + batch]
            codes = stream.codes((lo + idx).tolist(), walked, block // 16)
            disp, up, down, dd, ri = np.take(_chunk_tables(), codes, axis=1)
            # Column c of x, mx, mn and dr is the state at the start of
            # chunk c; the last column is the state at the block's end.
            x = _scan(cx[idx], disp, np.add)
            mx = _scan(cmax[idx], x[:, :-1] + up, np.maximum)
            mn = _scan(cmin[idx], x[:, :-1] + down, np.minimum)
            dr = None
            if need_drop:
                fall = np.maximum(mx[:, :-1] - x[:, :-1] - down, dd)
                dr = _scan(cdrop[idx], fall, np.maximum)
            score = row.score(klo, khi, x[:, :-1], mx[:, :-1], mn[:, :-1],
                              dr[:, :-1] if need_drop else None, up, down, dd, ri)
            # A chunk before the one expanded stays below every later threshold.
            todo, look = pending[idx], np.arange(idx.size)
            while True:
                cand = score[look] >= ks[todo[look], None]
                hit = cand.any(axis=1)
                if not hit.any():
                    break
                look, c = look[hit], cand[hit].argmax(axis=1)
                pos, rmax, rmin, drop_run = _expand(
                    codes[look, c], x[look, c], mx[look, c], mn[look, c],
                    dr[look, c] if need_drop else None,
                )
                level = row.level(klo, khi, pos, rmax, rmin, drop_run)
                top = np.maximum.accumulate(level, axis=1)
                # Each rule yet to fire whose threshold the running max reaches
                # fires here; now is the row's first rule left after the chunk.
                r, i = np.nonzero((ks >= ks[todo[look], None]) & (ks <= top[:, -1:]))
                now = np.searchsorted(ks, top[:, -1], side="right")
                j = (top[r] >= ks[i, None]).argmax(axis=1)
                t = idx[look[r]]
                steps[t, i] = walked + 16 * c[r] + j + 1
                ix[t, i] = pos[r, j]
                imax[t, i] = rmax[r, j]
                imin[t, i] = rmin[r, j]
                if need_drop:
                    idrop[t, i] = drop_run[r, j]
                score[look, c] = -1
                todo[look] = np.maximum(todo[look], now)
                look = look[todo[look] < u]
            cx[idx], cmax[idx], cmin[idx] = x[:, -1], mx[:, -1], mn[:, -1]
            if need_drop:
                cdrop[idx] = dr[:, -1]
            pending[idx] = todo
        live = live[pending[live] < u]
        walked += block
        block = min(2 * block, _SLICE)
    fired = (steps > 0) & (steps <= np.array(guards))
    state = (spec, steps, ix, imax, imin, idrop)
    return fired, *(np.where(fired, _REWARDS[r](*state), np.nan) for r in rewards)


@dataclass(frozen=True)
class CollectResult:
    """Per-trial reward values in trial order; censored slots hold NaN."""

    values: dict[str, np.ndarray]
    fired: np.ndarray

    @property
    def n(self) -> int:
        return int(self.fired.size)

    @property
    def censored(self) -> int:
        return int(self.fired.size - self.fired.sum())


def collect_rewards(
    rule: StopRule,
    rewards,
    spec: LatticeSpec,
    n: int,
    seed: int,
    workers: int = 1,
    max_steps: int | None = None,
) -> CollectResult:
    """Run n independent trials of the rule, collecting the named rewards.

    One underlying run serves any subset of REWARD_NAMES, so quantities that
    must be compared (reward vs terminal second moment, diameter vs stop
    time) come from the same paths.  `stats_from_sample` summarizes one
    reward; `ratio_report_from` its ratio to sqrt(E[terminal_sq]), from a
    run that also collects "terminal_sq".
    """
    rewards = tuple(rewards)
    if not rewards:
        raise ValueError("at least one reward is required")
    unknown = [r for r in rewards if r not in REWARD_NAMES]
    if unknown:
        raise ValueError(f"unknown rewards {unknown}; choose from {REWARD_NAMES}")
    if len(set(rewards)) != len(rewards):
        raise ValueError(f"duplicate reward names in {rewards}")
    _check_trials(n, seed)

    if max_steps is None:
        max_steps = default_max_steps(rule, spec)
    _require_int(max_steps, "max_steps", 1)
    fired, *arrays = _map_trials(
        _run_chunk, n, workers, (rule,), (max_steps,), spec, seed, rewards
    )
    values = {name: a[:, 0] for name, a in zip(rewards, arrays)}
    return CollectResult(values=values, fired=fired[:, 0])


def _sample(values, name: str) -> np.ndarray:
    """`values` as a one-dimensional float array with no infinite entry."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if np.isinf(arr).any():
        raise ValueError(f"{name} contains an infinite value")
    return arr


def stats_from_sample(sample) -> TrialStats:
    """Pooled moments of a 1-D sample; NaN entries count as censored trials.

    At least two trials must contribute: one gives no variance, so no
    interval.  An infinite entry is no trial's value and is rejected.
    """
    arr = _sample(sample, "sample")
    finite = arr[~np.isnan(arr)]
    m = int(finite.size)
    if m < 1:
        raise ValueError("no contributing trials (all censored)")
    if m < 2:
        raise ValueError("one contributing trial: a 99% interval needs at least 2")
    mean = float(np.mean(finite))
    variance = float(np.var(finite, ddof=1))
    half = Z99 * sqrt(variance / m)
    return TrialStats(
        n=m,
        mean=mean,
        variance=variance,
        ci_low=mean - half,
        ci_high=mean + half,
        censored=int(arr.size - finite.size),
    )


def ratio_report_from(result: CollectResult, reward: str) -> RatioReport:
    """Ratio statistics computed from an existing collection.

    Requires the collection to contain `reward` and `terminal_sq`; the delta
    method uses the empirical covariance of the two per-trial series.
    """
    x = result.values[reward]
    y = result.values["terminal_sq"]
    keep = ~np.isnan(x)
    xf, yf = x[keep], y[keep]
    sx = stats_from_sample(x)
    sy = stats_from_sample(y)
    if not (sy.mean > 0.0):
        raise ValueError("terminal second moment must be positive")

    ratio = sx.mean / sqrt(sy.mean)
    cov = np.cov(xf, yf, ddof=1)
    gx = 1.0 / sqrt(sy.mean)
    gy = -sx.mean / (2.0 * sy.mean**1.5)
    var_ratio = (
        gx * gx * cov[0, 0] + 2.0 * gx * gy * cov[0, 1] + gy * gy * cov[1, 1]
    ) / sx.n
    se = sqrt(max(var_ratio, 0.0))
    return RatioReport(
        reward_mean=sx,
        terminal_second_moment=sy,
        ratio=ratio,
        ratio_ci=(ratio - Z99 * se, ratio + Z99 * se),
    )


# --- goodness of fit -------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given mean, support (0, inf)."""

    mean: float

    def __post_init__(self) -> None:
        _require_positive(self.mean, "mean")


@dataclass(frozen=True)
class Uniform:
    """Uniform law on (0, hi)."""

    hi: float

    def __post_init__(self) -> None:
        _require_positive(self.hi, "hi")


@dataclass(frozen=True)
class VShape:
    """Discrete termination law of the unit walk at first diameter hdiam.

    Samples must be integer lattice offsets in [-hdiam, hdiam] \\ {0}.
    """

    hdiam: int

    def __post_init__(self) -> None:
        _unit_hdiam(self.hdiam)


@dataclass(frozen=True)
class Empirical:
    """Two-sample comparison against a reference sample."""

    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    p_value: float


def _finite_sample(values, name: str) -> np.ndarray:
    arr = _sample(values, name)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN (censored trials must be excluded)")
    return arr


def gof_test(sample, target) -> GofResult:
    """Goodness-of-fit test of a sample against a target law.

    Exponential and Uniform: the two-sided one-sample Kolmogorov-Smirnov
    statistic D, with the Kolmogorov limit's p-value at D * sqrt(N).
    Empirical: the two-sided two-sample KS statistic, with its p-value from
    the finite-n law of D_n at n = round(mn / (m + n)) (Simard & L'Ecuyer).
    VShape: Pearson's chi-square on the counts of each support point, with
    the chi-square law's p-value on (support size - 1) degrees of freedom.
    Each result equals scipy.stats' (kstest and ks_2samp with
    method="asymp", chisquare) bit for bit, but scipy.stats is never
    imported: `_ksstats` ports the finite-n KS law.  scipy.special loads
    only after the inputs are checked, and only where a p-value needs it:
    always for VShape, Exponential and Uniform, and for Empirical only when
    the statistic reaches a branch of the finite-n law that takes smirnov
    (D >= 1/2, or p below about 0.025 at large n).  Below that, the
    two-sample test runs on numpy alone.
    """
    arr = _finite_sample(sample, "sample")
    if np.ptp(arr) == 0.0:
        raise ValueError("degenerate sample: all values equal")
    if isinstance(target, VShape):
        pmf = walk_diameter_pmf(target.hdiam)
        support = np.array(sorted(pmf), dtype=float)
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise ValueError("VShape samples must be integer lattice offsets")
        counts = np.array([(arr == x).sum() for x in support], dtype=float)
        if counts.sum() != arr.size:
            raise ValueError(
                f"sample values outside the support [-{target.hdiam}, {target.hdiam}]"
            )
        expected = arr.size * np.array([pmf[int(x)] for x in support])
        from scipy.special import chdtrc

        stat = np.sum((counts - expected) ** 2 / expected)
        return GofResult(float(stat), float(chdtrc(counts.size - 1.0, stat)))
    if isinstance(target, Empirical):
        ref = _finite_sample(target.values, "reference sample")
    elif not isinstance(target, (Exponential, Uniform)):
        raise TypeError(f"unknown target {target!r}")

    from ._ksstats import expon_cdf, ks_1samp, ks_2samp, uniform_cdf

    if isinstance(target, Exponential):
        return GofResult(*ks_1samp(arr / target.mean, expon_cdf))
    if isinstance(target, Uniform):
        return GofResult(*ks_1samp(arr / target.hi, uniform_cdf))
    return GofResult(*ks_2samp(arr, ref))


# --- drift checks ----------------------------------------------------------


@dataclass(frozen=True)
class DriftRow:
    """Paired estimate of E[value(t_end) - value(t_start)] over n paths."""

    t_start: float
    t_end: float
    mean: float
    stderr: float


@dataclass(frozen=True)
class DriftReport:
    """Checkpointed drift estimates for the certificate process.

    `unstopped` rows estimate the raw increments (nonpositive in expectation:
    the certificate is a supermartingale); `stopped` rows estimate increments
    of the process frozen at the gap rule's firing time (zero in expectation
    in the continuum limit).  `q_origin` is the exact starting value 3/(4c).
    """

    c: float
    d: float
    h: float
    n: int
    checkpoints: tuple[float, ...]
    unstopped: tuple[DriftRow, ...]
    stopped: tuple[DriftRow, ...]
    q_origin: float


def _fixed_time_chunk(
    lo: int, hi: int, seed: int, cp_units: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Position, running max and running min after each checkpoint's steps.

    Trials [lo, hi) each walk cp_units[-1] steps; `cp_units` are strictly
    increasing step counts.  Results are in lattice units, the origin counts
    in the extremes, and each has shape (hi - lo, len(cp_units)).
    """
    cp = np.array(cp_units, dtype=np.int64)
    n_chunks = -(-cp_units[-1] // 16)
    # Checkpoint j lies rem[j] steps into chunk q[j]; the state at each
    # chunk's start comes from chunk-level sums and running extremes, and
    # only a chunk that a checkpoint splits is expanded.
    q, rem = np.divmod(cp, 16)
    split = np.flatnonzero(rem)
    m = hi - lo
    x, top, bot = np.empty((3, m, cp.size), dtype=np.int64)
    stream = _Steps(seed)
    batch = max(1, _BATCH_STEPS // (16 * n_chunks))
    for a in range(0, m, batch):
        b = min(a + batch, m)
        codes = stream.codes(range(lo + a, lo + b), 0, n_chunks)
        disp, up, down = np.take(_chunk_tables()[:3], codes, axis=1)
        xs = _scan(0, disp, np.add)
        xa = xs[:, q]
        ta = _scan(0, xs[:, :-1] + up, np.maximum)[:, q]
        ba = _scan(0, xs[:, :-1] + down, np.minimum)[:, q]
        if split.size:
            pos, rmax, rmin, _ = _expand(
                codes[:, q[split]].ravel(), xa[:, split].ravel(),
                ta[:, split].ravel(), ba[:, split].ravel(), None,
            )
            k = np.arange(pos.shape[0]), np.tile(rem[split] - 1, b - a)
            for out, run in ((xa, pos), (ta, rmax), (ba, rmin)):
                out[:, split] = run[k].reshape(b - a, split.size)
        x[a:b], top[a:b], bot[a:b] = xa, ta, ba
    return x, top, bot


def _paired_rows(
    q_matrix: np.ndarray, checkpoints: tuple[float, ...]
) -> tuple[DriftRow, ...]:
    n = q_matrix.shape[0]
    return tuple(
        DriftRow(
            t_start=checkpoints[i],
            t_end=checkpoints[i + 1],
            mean=float(np.mean(col)),
            stderr=float(np.std(col, ddof=1) / sqrt(n)),
        )
        for i, col in enumerate(np.diff(q_matrix, axis=1).T)
    )


def drift_check(
    c: float,
    horizon: float,
    n: int,
    seed: int,
    checkpoints,
    spec: LatticeSpec | None = None,
    workers: int = 1,
) -> DriftReport:
    """Estimate certificate drift between checkpoints at d = 1/(2c).

    Simulates n walk paths to the last checkpoint and forms paired
    increments of Q(t) = q(D(t), G(t), t) at consecutive checkpoints, both
    for the raw process and for the process frozen at the gap rule's firing
    time.  The frozen process reads that firing from `collect_rewards` of
    Gap(d), which walks the same (seed, trial) streams.

    `horizon` only bounds the checkpoints, which must lie in [0, horizon]
    in steps: paths are walked to the last checkpoint, never beyond it, so
    two calls that differ only in `horizon` return the same report.
    """
    params = QParams.optimal(c)
    _require_positive(horizon, "horizon")
    _require_int(n, "n", 2)
    _check_trials(n, seed)
    d = params.d
    if spec is None:
        spec = LatticeSpec(h=d / 20.0)
    k = spec.units(d, "d")
    clock = LatticeSpec(h=spec.time_per_step)
    horizon_units = clock.units(horizon, "horizon")
    if horizon_units < 1:
        raise ValueError("horizon shorter than one step")

    cps = tuple(float(t) for t in checkpoints)
    if len(cps) < 2:
        raise ValueError("need at least two checkpoints")
    cp_units = tuple(clock.units(t, "checkpoint") for t in cps)
    if cp_units[0] < 0 or cp_units[-1] > horizon_units:
        raise ValueError(f"checkpoints must lie in [0, horizon], got {cps}")
    if any(b <= a for a, b in zip(cp_units, cp_units[1:])):
        raise ValueError(f"checkpoints must be strictly increasing steps, got {cps}")

    h = spec.h
    x, top, bot = _map_trials(_fixed_time_chunk, n, workers, seed, cp_units)
    d_un = (top - bot) * h
    g_un = np.minimum(top - x, x - bot) * h
    run = collect_rewards(
        Gap(d), ("diameter", "stop_time"), spec, n, seed, workers, cp_units[-1]
    )
    cp_times = np.array(cp_units, dtype=float) * spec.time_per_step
    stop_time = run.values["stop_time"][:, None]
    stopped = stop_time <= cp_times  # NaN, not fired by then, compares False
    d_st = np.where(stopped, run.values["diameter"][:, None], d_un)
    g_st = np.where(stopped, k * h, g_un)
    t_st = np.where(stopped, stop_time, cp_times)

    q_un = q_value(params, d_un, g_un, np.broadcast_to(cp_times, d_un.shape))
    q_st = q_value(params, d_st, g_st, t_st)
    return DriftReport(
        c=c,
        d=d,
        h=spec.h,
        n=n,
        checkpoints=cps,
        unstopped=_paired_rows(q_un, cps),
        stopped=_paired_rows(q_st, cps),
        q_origin=q_value(params, 0.0, 0.0, 0.0),
    )


# --- fixed-time ensembles --------------------------------------------------


def levy_samples(
    t: float,
    spec: LatticeSpec,
    n: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent fixed-time ensembles: run_max - x and |x| at time t.

    Uses 2n trials: the first n contribute the drop values M(t) - x(t), the
    second n contribute |x(t)|, so the two samples are independent and fit
    for a two-sample test of their (continuum-identical) laws.
    """
    _check_trials(n, seed)
    n_steps = LatticeSpec(h=spec.time_per_step).units(t, "t")
    if n_steps < 1:
        raise ValueError("t shorter than one step")
    x, top, _ = _map_trials(_fixed_time_chunk, 2 * n, workers, seed, (n_steps,))
    return (top[:n, 0] - x[:n, 0]) * spec.h, np.abs(x[n:, 0]) * spec.h


# --- payoff sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    d: float
    payoff: TrialStats


@dataclass(frozen=True)
class SweepResult:
    """Estimated payoff curve d -> E[D - cT] under the gap rule."""

    c: float
    n: int
    points: tuple[SweepPoint, ...]
    argmax_d: float


def sweep_payoff(
    c: float,
    d_grid,
    spec: LatticeSpec,
    n: int,
    seed: int,
    workers: int = 1,
) -> SweepResult:
    """Estimate the gap-rule payoff at each threshold in d_grid.

    The same seed (hence the same sign sequences) is reused across grid
    points — common random numbers — which leaves each point's estimate
    unbiased while stabilizing comparisons across d.  Each path is walked
    once for the whole grid, as nested thresholds of the batched engine, up
    to the largest threshold; every point equals a separate
    `collect_rewards` run of Gap(d) with its own guard.  Two thresholds on
    one lattice level would report one run twice, so they are rejected.
    """
    _require_positive(c, "c")
    grid = [float(d) for d in d_grid]
    if not grid:
        raise ValueError("d_grid is empty")
    _check_trials(n, seed)
    level = {}  # each threshold's lattice level -> the threshold
    for d in grid:
        k = rule_units(Gap(d), spec)[1]
        if k in level:
            raise ValueError(
                f"d_grid values {level[k]} and {d} share the lattice level {k} (h = {spec.h})"
            )
        level[k] = d
    ks = sorted(level)
    chain = tuple(Gap(level[k]) for k in ks)
    guards = tuple(default_max_steps(rule, spec) for rule in chain)
    _, diameter, stop_time = _map_trials(
        _run_chunk, n, workers, chain, guards, spec, seed, ("diameter", "stop_time")
    )
    points = []
    for k, d in level.items():  # grid order
        i = ks.index(k)
        payoff = diameter[:, i] - c * stop_time[:, i]
        points.append(SweepPoint(d=d, payoff=stats_from_sample(payoff)))
    best = max(points, key=lambda p: p.payoff.mean)
    return SweepResult(c=c, n=n, points=tuple(points), argmax_d=best.d)

"""Stopping rules over lattice walk paths and the driver that runs them.

Each rule is a frozen dataclass; the five with one threshold d subclass
`_Threshold`, which declares d and its check.  `should_stop` evaluates a
rule's predicate on a PathState.  `run_until_stop` drives a fresh path, in
exact integer lattice units, until the predicate first holds or a step
guard runs out.

Each rule's facts live in one row of the table `_RULES`: its kind name (the
CLI's --rule value), the fields that carry its thresholds, its exact
expected step count, the reward it is judged by and that reward's exact
mean, its level, the integer it fires on once it reaches the threshold,
and its chunk score, at least the level at every step of a 16-step chunk.
`run_until_stop`, the batched engine, the exact layer and the CLI read
that row; `should_stop` stays the scalar reference they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .path_engine import LatticeSpec, PathState, _require_int, _require_positive

__all__ = [
    "Drawdown",
    "Rise",
    "AbsGap",
    "Gap",
    "DropDrawdown",
    "DiameterReach",
    "FirstExit",
    "StopRule",
    "StoppedPath",
    "should_stop",
    "default_max_steps",
    "run_until_stop",
]


@dataclass(frozen=True)
class _Threshold:
    """Base of the rules with one threshold d, positive and finite."""

    d: float

    def __post_init__(self) -> None:
        _require_positive(self.d, "d")


@dataclass(frozen=True)
class Drawdown(_Threshold):
    """Stop when the walk sits d below its running maximum."""


@dataclass(frozen=True)
class Rise(_Threshold):
    """Stop when the walk sits d above its running minimum."""


@dataclass(frozen=True)
class AbsGap(_Threshold):
    """Stop when sup|x| exceeds the current |x| by d."""


@dataclass(frozen=True)
class Gap(_Threshold):
    """Stop when the walk is at least d away from both running extremes."""


@dataclass(frozen=True)
class DropDrawdown(_Threshold):
    """Stop when the drop process (run_max - x) falls d below its own sup."""


@dataclass(frozen=True)
class DiameterReach:
    """Stop when the diameter (run_max - run_min) first reaches hdiam."""

    hdiam: float

    def __post_init__(self) -> None:
        _require_positive(self.hdiam, "hdiam")


@dataclass(frozen=True)
class FirstExit:
    """Stop on first exit from the open interval (lo, hi) around the origin."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (-math.inf < self.lo < 0.0 < self.hi < math.inf):
            raise ValueError(f"lo and hi must be finite, lo < 0 < hi, got lo={self.lo}, hi={self.hi}")


StopRule = Union[Drawdown, Rise, AbsGap, Gap, DropDrawdown, DiameterReach, FirstExit]


@dataclass(frozen=True)
class StoppedPath:
    """Result of driving a path: where and when the rule fired."""

    stop_time: float
    terminal_x: float
    final_state: PathState
    fired: bool


def should_stop(rule: StopRule, state: PathState) -> bool:
    """Evaluate the rule predicate on a path state."""
    if isinstance(rule, Drawdown):
        return state.run_max - state.x >= rule.d
    if isinstance(rule, Rise):
        return state.x - state.run_min >= rule.d
    if isinstance(rule, AbsGap):
        return state.abs_sup - abs(state.x) >= rule.d
    if isinstance(rule, Gap):
        return state.gap >= rule.d
    if isinstance(rule, DropDrawdown):
        return state.drop_sup - (state.run_max - state.x) >= rule.d
    if isinstance(rule, DiameterReach):
        return state.diameter >= rule.hdiam
    if isinstance(rule, FirstExit):
        return state.x <= rule.lo or state.x >= rule.hi
    raise TypeError(f"unknown rule {rule!r}")


@dataclass(frozen=True)
class _Rule:
    """One row of the rule table: a rule's facts, thresholds in lattice units.

    `fields` names the dataclass fields that carry the thresholds: one, of
    k units, or FirstExit's two, of klo and khi units.  `mean(k, klo, khi)`
    is the exact expected step count; `reward_mean(k, klo, khi)` is the exact
    mean at the stop, in lattice units, of the rule's `reward` (one of
    `mc_harness.REWARD_NAMES`).  The rule fires at the first step where
    `level(klo, khi, pos, rmax, rmin, drop_run)` >= k (k = 0 for FirstExit,
    whose thresholds are in its level), elementwise over lattice-unit
    arrays of any shape, so a walk runs along the last axis of a 1-D block
    or of a batch of trials alike: `pos` holds positions, `rmax`/`rmin` the
    running extremes (the origin included) and `drop_run` the running drop
    supremum, which is read only when `reads_drop` is set.

    `score(klo, khi, x, mx, mn, dr, up, down, dd, ri)` is the chunk score
    of the packed scan: at least the level at every step of a 16-step
    chunk.  `x`, `mx`, `mn` and `dr` are the position, running extremes
    and drop supremum at the chunk's start; `up`/`down` are the highest and
    lowest positions the chunk reaches after its start, relative to it,
    and `dd`/`ri` its largest fall below and rise above an earlier position
    of the chunk.  The score is the chunk's largest level for drawdown,
    rise, diameter and exit, and a bound on it for gap, dropdd and absgap.
    """

    cls: type
    fields: tuple[str, ...]
    mean: Callable[[int, int, int], float]
    reward: str
    reward_mean: Callable[[int, int, int], float]
    level: Callable[..., np.ndarray]
    score: Callable[..., np.ndarray]
    reads_drop: bool = False


# Keyed by kind name, in the CLI's --rule order.  The scores' largest fall
# below the running max in a chunk is max(mx - x - down, dd), and their
# largest rise above the running min is max(x + up - mn, ri).
_RULES = {
    "drawdown": _Rule(
        Drawdown, ("d",), lambda k, lo, hi: k * (k + 1), "max", lambda k, lo, hi: k,
        lambda lo, hi, x, mx, mn, dr: mx - x,
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: np.maximum(mx - x - down, dd),
    ),
    "rise": _Rule(
        Rise, ("d",), lambda k, lo, hi: k * (k + 1), "min_abs", lambda k, lo, hi: k,
        lambda lo, hi, x, mx, mn, dr: x - mn,
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: np.maximum(x + up - mn, ri),
    ),
    "absgap": _Rule(
        AbsGap, ("d",), lambda k, lo, hi: 2 * k * k + k, "abs_sup", lambda k, lo, hi: 2 * k,
        lambda lo, hi, x, mx, mn, dr: np.maximum(mx, -mn) - np.abs(x),
        # The largest |extreme| by the chunk's end, less the least |x| in it.
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: (
            np.maximum(np.maximum(mx, x + up), -np.minimum(mn, x + down))
            - np.maximum(np.maximum(x + down, -x - up), 0)
        ),
    ),
    "gap": _Rule(
        Gap, ("d",), lambda k, lo, hi: 3 * k * k + 2 * k, "diameter", lambda k, lo, hi: 3 * k,
        lambda lo, hi, x, mx, mn, dr: np.minimum(mx - x, x - mn),
        # Both extremes are d away somewhere in the chunk, if not at one
        # step, and the diameter reaches 2d by its end.
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: np.minimum(
            np.minimum(np.maximum(mx - x - down, dd), np.maximum(x + up - mn, ri)),
            (np.maximum(mx, x + up) - np.minimum(mn, x + down)) >> 1,
        ),
    ),
    "dropdd": _Rule(
        DropDrawdown, ("d",), lambda k, lo, hi: 2 * k * k + 2 * k, "drop_sup", lambda k, lo, hi: 2 * k,
        lambda lo, hi, x, mx, mn, dr: dr - (mx - x),
        # The drop supremum at the chunk's end, less the least drop in it.
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: (
            np.maximum(np.maximum(dr, mx - x - down), dd) - np.maximum(mx - x - up, 0)
        ),
        reads_drop=True,
    ),
    "diameter": _Rule(
        DiameterReach, ("hdiam",), lambda k, lo, hi: k * (k + 1) / 2.0, "diameter", lambda k, lo, hi: k,
        lambda lo, hi, x, mx, mn, dr: mx - mn,
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: (
            np.maximum(mx, x + up) - np.minimum(mn, x + down)
        ),
    ),
    "exit": _Rule(
        FirstExit, ("lo", "hi"), lambda k, lo, hi: -lo * hi, "terminal_x", lambda k, lo, hi: 0,
        lambda lo, hi, x, mx, mn, dr: np.maximum(x - hi, lo - x),
        lambda lo, hi, x, mx, mn, dr, up, down, dd, ri: np.maximum(x + up - hi, lo - x - down),
    ),
}
_KINDS = {row.cls: kind for kind, row in _RULES.items()}


def rule_units(rule: StopRule, spec: LatticeSpec) -> tuple[str, int, int, int]:
    """Validate rule thresholds against the lattice; return (kind, k, klo, khi)."""
    kind = _KINDS.get(type(rule))
    if kind is None:
        raise TypeError(f"unknown rule {rule!r}")
    fields = _RULES[kind].fields
    units = [spec.units(getattr(rule, name), name) for name in fields]
    for name, unit in zip(fields, units):
        if abs(unit) < 1:  # FirstExit's lo lies -unit steps out
            label = "threshold" if name == "d" else name
            raise ValueError(f"{label} {getattr(rule, name)} is below one lattice step")
    if len(units) == 2:
        return kind, 0, *units
    return kind, units[0], 0, 0


def default_max_steps(rule: StopRule, spec: LatticeSpec) -> int:
    """Step guard: 400 * scale**2, about 100x the expected step count.

    `scale` is the largest threshold in lattice units.
    """
    return _guard(*rule_units(rule, spec)[1:])


def _guard(k: int, klo: int, khi: int) -> int:
    return 400 * max(k, -klo, khi) ** 2


# The longest block of both first-passage scans; 8192 int64 steps fit cache.
_SLICE = 8192


def _block_hint(kind: str, k: int, klo: int, khi: int) -> int:
    """First block size of a scan from `rule_units`' result: a bit over the
    exact expected step count.
    """
    return int(max(64, 1.25 * _RULES[kind].mean(k, klo, khi) + 8))


def run_until_stop(
    rule: StopRule,
    spec: LatticeSpec,
    stream: np.random.Generator,
    max_steps: int | None = None,
) -> StoppedPath:
    """Drive a fresh path from the origin until the rule first fires.

    Consumes steps from `stream`; firing is checked after every step, so
    the returned state is the first one satisfying the predicate.  When the
    step guard is exhausted instead, `fired` is False and the caller must
    treat the trial as censored rather than dropping it.
    """
    kind, k, klo, khi = rule_units(rule, spec)
    if max_steps is None:
        max_steps = _guard(k, klo, khi)
    _require_int(max_steps, "max_steps", 1)

    # The batched engine's schedule, without its rounding to 16: the steps
    # drawn past the firing step are used up from `stream`, so the schedule
    # is part of the output.
    row = _RULES[kind]
    steps = ix = imax = imin = idrop = irise = 0
    fired = False
    block = min(_block_hint(kind, k, klo, khi), _SLICE)
    while not fired and steps < max_steps:
        pos = stream.integers(0, 2, size=min(block, max_steps - steps), dtype=np.int64)
        block = min(2 * block, _SLICE)
        pos *= 2
        pos -= 1
        pos[0] += ix
        np.add.accumulate(pos, out=pos)
        # The carried extremes include the origin, visited before step 1.
        rmax = np.maximum.accumulate(pos)
        np.maximum(rmax, imax, out=rmax)
        rmin = np.minimum.accumulate(pos)
        np.minimum(rmin, imin, out=rmin)
        # Only a rule that reads the running drop supremum accumulates it;
        # for the others the supremum at the stop is one reduction.
        drop_run = None
        if row.reads_drop:
            drop_run = np.maximum.accumulate(rmax - pos)
            if idrop:
                np.maximum(drop_run, idrop, out=drop_run)
        mask = row.level(klo, khi, pos, rmax, rmin, drop_run) >= k
        first = int(mask.argmax())
        fired = bool(mask[first])
        end = first + 1 if fired else pos.size
        irise = max(irise, int((pos[:end] - rmin[:end]).max()))
        if drop_run is None:
            idrop = max(idrop, int((rmax[:end] - pos[:end]).max()))
        else:
            idrop = int(drop_run[end - 1])
        steps += end
        ix, imax, imin = (int(a[end - 1]) for a in (pos, rmax, rmin))

    h = spec.h
    state = PathState(
        t=steps * spec.time_per_step,
        x=ix * h,
        run_max=imax * h,
        run_min=imin * h,
        diameter=(imax - imin) * h,
        gap=min(imax - ix, ix - imin) * h,
        abs_sup=max(imax, -imin) * h,
        drop_sup=idrop * h,
        rise_sup=irise * h,
        steps=steps,
    )
    return StoppedPath(
        stop_time=state.t, terminal_x=state.x, final_state=state, fired=fired
    )

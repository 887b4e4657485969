"""Stopping rules over lattice walk paths and the driver that runs them.

Each rule is a small frozen dataclass; `should_stop` evaluates the rule
predicate on a PathState, and `run_until_stop` advances a fresh path until
the predicate first holds (or a step guard runs out).  The driver works in
integer lattice units internally, so threshold comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .path_engine import LatticeSpec, PathState

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


def _require_positive(value: float, name: str) -> None:
    if not (value > 0.0):
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class Drawdown:
    """Stop when the walk sits d below its running maximum."""

    d: float

    def __post_init__(self) -> None:
        _require_positive(self.d, "d")


@dataclass(frozen=True)
class Rise:
    """Stop when the walk sits d above its running minimum."""

    d: float

    def __post_init__(self) -> None:
        _require_positive(self.d, "d")


@dataclass(frozen=True)
class AbsGap:
    """Stop when sup|x| exceeds the current |x| by d."""

    d: float

    def __post_init__(self) -> None:
        _require_positive(self.d, "d")


@dataclass(frozen=True)
class Gap:
    """Stop when the walk is at least d away from both running extremes."""

    d: float

    def __post_init__(self) -> None:
        _require_positive(self.d, "d")


@dataclass(frozen=True)
class DropDrawdown:
    """Stop when the drop process (run_max - x) falls d below its own sup."""

    d: float

    def __post_init__(self) -> None:
        _require_positive(self.d, "d")


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
        if not (self.lo < 0.0 < self.hi):
            raise ValueError(f"need lo < 0 < hi, got lo={self.lo}, hi={self.hi}")


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


# Internal integer-unit encoding of a rule under a given lattice.

_GAP_FAMILY = {
    Drawdown: "drawdown",
    Rise: "rise",
    AbsGap: "absgap",
    Gap: "gap",
    DropDrawdown: "dropdd",
}


def rule_units(rule: StopRule, spec: LatticeSpec) -> tuple[str, int, int, int]:
    """Validate rule thresholds against the lattice; return (kind, k, klo, khi)."""
    kind = _GAP_FAMILY.get(type(rule))
    if kind is not None:
        k = spec.units(rule.d, "d")
        if k < 1:
            raise ValueError(f"threshold {rule.d} is below one lattice step")
        return kind, k, 0, 0
    if isinstance(rule, DiameterReach):
        k = spec.units(rule.hdiam, "hdiam")
        if k < 1:
            raise ValueError(f"hdiam {rule.hdiam} is below one lattice step")
        return "diam", k, 0, 0
    if isinstance(rule, FirstExit):
        klo = spec.units(rule.lo, "lo")
        khi = spec.units(rule.hi, "hi")
        return "exit", 0, klo, khi
    raise TypeError(f"unknown rule {rule!r}")


def default_max_steps(rule: StopRule, spec: LatticeSpec) -> int:
    """Step guard: 400 * (scale/h)**2, roughly 100x the expected step count."""
    kind, k, klo, khi = rule_units(rule, spec)
    if kind == "exit":
        half = max(-klo, khi)
        return 400 * half * half
    return 400 * k * k


_FIRST_BLOCK = 2048
_MAX_BLOCK = 32768


def _fire_mask(
    kind: str,
    k: int,
    klo: int,
    khi: int,
    pos: np.ndarray,
    rmax: np.ndarray,
    rmin: np.ndarray,
    drop_run: np.ndarray | None,
) -> np.ndarray:
    """Where the rule's predicate holds, elementwise over lattice-unit arrays.

    `pos` holds positions, `rmax`/`rmin` the running extremes (the origin
    included) and `drop_run` the running drop supremum, which only the
    dropdd rule reads.  Arrays of any shape work, so a walk runs along the
    last axis of a 1-D block or of a batch of trials alike.
    """
    if kind == "drawdown":
        return rmax - pos >= k
    if kind == "rise":
        return pos - rmin >= k
    if kind == "absgap":
        return np.maximum(rmax, -rmin) - np.abs(pos) >= k
    if kind == "gap":
        return (rmax - pos >= k) & (pos - rmin >= k)
    if kind == "dropdd":
        return drop_run - (rmax - pos) >= k
    if kind == "diam":
        return rmax - rmin >= k
    if kind == "exit":
        return (pos <= klo) | (pos >= khi)
    raise ValueError(f"unknown kind {kind!r}")


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
        max_steps = default_max_steps(rule, spec)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")

    # Blocks of 2048 steps, doubling up to _MAX_BLOCK, each draw clipped to
    # the steps left: the steps drawn past the firing step are used up from
    # `stream`, so this schedule is part of the output.
    steps = ix = imax = imin = idrop = irise = 0
    fired = False
    block = min(_FIRST_BLOCK, max_steps)
    while not fired and steps < max_steps:
        length = min(block, max_steps - steps)
        pos = np.cumsum(2 * stream.integers(0, 2, size=length, dtype=np.int64) - 1)
        if ix:
            pos += ix
        # The carried extremes include the origin, visited before step 1.
        rmax = np.maximum.accumulate(pos)
        np.maximum(rmax, imax, out=rmax)
        rmin = np.minimum.accumulate(pos)
        np.minimum(rmin, imin, out=rmin)
        drop_run = np.maximum.accumulate(rmax - pos)
        if idrop:
            np.maximum(drop_run, idrop, out=drop_run)
        mask = _fire_mask(kind, k, klo, khi, pos, rmax, rmin, drop_run)
        fired = bool(mask.any())
        end = int(mask.argmax()) + 1 if fired else length
        irise = max(irise, int((pos[:end] - rmin[:end]).max()))
        steps += end
        ix = int(pos[end - 1])
        imax = int(rmax[end - 1])
        imin = int(rmin[end - 1])
        idrop = int(drop_run[end - 1])
        block = min(2 * block, _MAX_BLOCK)

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

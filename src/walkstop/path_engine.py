"""Symmetric lattice random walk with running extremal statistics.

The walk moves by +-h per step and each step advances time by exactly
h**2, so hitting levels that are integer multiples of h are attained
with no overshoot.  A path state carries the running maximum/minimum,
the diameter (range), the gap to the nearer extreme, and the running
suprema of the drop process (run_max - x) and rise process (x - run_min).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["LatticeError", "LatticeSpec", "PathState", "init_state", "advance"]


class LatticeError(ValueError):
    """A level or threshold is not an integer multiple of the step size."""


def _require_positive(value: float, name: str) -> None:
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_int(value, name: str, low: int) -> None:
    # A float count would be truncated (a seed aliased) or fail deep inside.
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _require_seed(seed, name: str = "seed") -> None:
    # The stream key holds 64 bits; a larger seed would alias a smaller one.
    _require_int(seed, name, 0)
    if seed >= 2**64:
        raise ValueError(f"{name} must be below 2**64, got {seed}")


@dataclass(frozen=True)
class LatticeSpec:
    """Spatial step h of the walk; every step advances time by h**2."""

    h: float

    def __post_init__(self) -> None:
        _require_positive(self.h, "step size h")

    @property
    def time_per_step(self) -> float:
        return self.h * self.h

    def units(self, level: float, name: str = "level") -> int:
        """Convert a real level to lattice units, requiring an exact multiple.

        Raises ValueError when `level` is not finite, and LatticeError when
        |k * h - level| > 1e-9 * max(1, |level|) for k = round(level / h),
        relative at |level| >= 1 and absolute below.  Times round by this same
        rule on the time lattice, `LatticeSpec(h=spec.time_per_step)`.
        """
        if not math.isfinite(level):
            raise ValueError(f"{name} must be finite, got {level!r}")
        k = round(level / self.h)
        if abs(k * self.h - level) > 1e-9 * max(1.0, abs(level)):
            raise LatticeError(
                f"{name}={level!r} is not an integer multiple of h={self.h!r}"
            )
        return k


@dataclass(frozen=True)
class PathState:
    """Snapshot of a walk after `steps` steps (time t = steps * h**2)."""

    t: float
    x: float
    run_max: float
    run_min: float
    diameter: float
    gap: float
    abs_sup: float
    drop_sup: float
    rise_sup: float
    steps: int


def init_state() -> PathState:
    """State of a fresh path started at the origin."""
    return PathState(
        t=0.0,
        x=0.0,
        run_max=0.0,
        run_min=0.0,
        diameter=0.0,
        gap=0.0,
        abs_sup=0.0,
        drop_sup=0.0,
        rise_sup=0.0,
        steps=0,
    )


def advance(state: PathState, direction: str, spec: LatticeSpec) -> PathState:
    """Advance one lattice step ("up" or "down") and refresh all statistics.

    Constant-time incremental update; the returned state satisfies
    t = steps * h**2, run_min <= x <= run_max and gap <= diameter / 2.
    """
    if direction == "up":
        x = state.x + spec.h
    elif direction == "down":
        x = state.x - spec.h
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")

    run_max = x if x > state.run_max else state.run_max
    run_min = x if x < state.run_min else state.run_min
    drop = run_max - x
    rise = x - run_min
    steps = state.steps + 1
    return PathState(
        t=steps * spec.time_per_step,
        x=x,
        run_max=run_max,
        run_min=run_min,
        diameter=run_max - run_min,
        gap=drop if drop < rise else rise,
        abs_sup=max(run_max, -run_min),
        drop_sup=max(state.drop_sup, drop),
        rise_sup=max(state.rise_sup, rise),
        steps=steps,
    )

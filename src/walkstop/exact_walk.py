"""Exact, simulation-free results for the lattice walk and its continuum limit.

Contents: the exact termination pmf of the walk stopped at a target
diameter (with an independent absorbing-chain oracle), exact expected step
counts for the lattice stopping rules, the table of continuum closed forms
the simulations must reproduce, and an exact dynamic program that recovers
the optimal gap threshold and payoff from scratch.

The diameter only grows, so both exact solvers go one diameter layer at a
time: the oracle carries the walk's mass forward, one small absorbing-chain
solve per layer; the dynamic program solves back from the forced stop at
diameter cap, each layer in closed form as a least concave majorant.  No
iteration and no per-state Python loop is involved.  The cap alone sets
how far the DP value lies below the uncapped lattice value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .path_engine import LatticeSpec, _require_int, _require_positive
from .stopping_rules import _RULES, StopRule, rule_units

__all__ = [
    "walk_diameter_pmf",
    "absorption_pmf_oracle",
    "exact_stop_steps",
    "closed_forms",
    "WalkDP",
    "DPSolution",
    "dp_solve",
]


def _unit_hdiam(hdiam: float) -> int:
    """hdiam as an int; ValueError unless it is a positive finite integer."""
    _require_positive(hdiam, "hdiam")  # nan and inf never reach int()
    k = int(hdiam)
    if k != hdiam:
        raise ValueError(f"hdiam must be a positive integer, got {hdiam}")
    return k


def walk_diameter_pmf(hdiam: int) -> dict[int, float]:
    """Termination pmf of the unit walk stopped at first diameter hdiam.

    Mass |x| / (hdiam*(hdiam+1)) at each x in [-hdiam, hdiam] except 0;
    positions are relative to the start.
    """
    k = _unit_hdiam(hdiam)
    denom = k * (k + 1)
    return {x: abs(x) / denom for x in range(-k, k + 1) if x != 0}


def absorption_pmf_oracle(hdiam: int) -> dict[int, float]:
    """Same pmf computed by exact absorption analysis, with no formula.

    While the diameter is d the walk moves on the d + 1 cells from its min
    to its max, having entered at an edge; a linear solve of that layer's
    absorbing system gives its exit chances from either edge.  The mass is
    carried over (edge, distance of the min below the start) from layer to
    layer up to diameter hdiam, where each exit is a terminal position.
    """
    k = _unit_hdiam(hdiam)
    mass = np.zeros((2, k))  # rows: entered at the min, at the max
    mass[0, 0] = 1.0
    for d in range(k):
        n = d + 1
        system = np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
        exits = np.zeros((n, 2))  # columns: leave below cell 0, above cell d
        exits[0, 0] = exits[-1, 1] = 0.5
        hit = np.linalg.solve(system, exits)[[0, -1]]
        flow = mass.T @ hit
        # leaving below lowers the min by one; leaving above keeps it
        mass = np.zeros((2, k))
        mass[0, 1:] = flow[:-1, 0]
        mass[1] = flow[:, 1]
    # with the min i below the start, the exits land at -(i + 1) and k - i
    terminals = [*range(-k, 0), *range(1, k + 1)]
    return dict(zip(terminals, flow[::-1].T.ravel().tolist()))


def exact_stop_steps(rule: StopRule, spec: LatticeSpec) -> float:
    """Exact expected number of walk steps until the rule fires.

    Closed forms in lattice units k = threshold/h: diameter k(k+1)/2,
    drawdown (and rise) k(k+1), gap 3k^2 + 2k, drop-drawdown 2k^2 + 2k,
    AbsGap 2k^2 + k, first exit (-lo)(hi)/h^2.
    """
    kind, k, klo, khi = rule_units(rule, spec)
    return float(_RULES[kind].mean(k, klo, khi))


def closed_forms(c: float, d: float) -> dict:
    """Continuum closed-form table for cost rate c and threshold d.

    Scalar entries are the expectations and payoffs the simulations
    reproduce; `E_delta_h` and `delta_increment` are callables because
    they take their own level arguments.  Both candidate values for the
    mean drop-drawdown time are reported: `E_Tplus_derived` (2d^2, the
    value consistent with the payoff 2d - 2cd^2 and the sqrt(2) ratio)
    and `E_Tplus_printed` (2/c^2); simulation adjudicates between them.
    """
    _require_positive(c, "c")
    _require_positive(d, "d")
    return {
        "E_tau_d": d * d,
        "E_M_tau_d": d,
        "E_delta_h": lambda h: h * h / 2.0,
        "delta_increment": lambda h1, h2: (h2 * h2 - h1 * h1) / 2.0,
        "E_T_gap": 3.0 * d * d,
        "E_D_at_T_gap": 3.0 * d,
        "payoff_gap": 3.0 * d - 3.0 * c * d * d,
        "payoff_gap_opt": 3.0 / (4.0 * c),
        "E_Tplus_derived": 2.0 * d * d,
        "E_Tplus_printed": 2.0 / (c * c),
        "E_Dplus_at_Tplus_derived": 2.0 * d,
        "payoff_plus": 2.0 * d - 2.0 * c * d * d,
        "payoff_plus_opt": 1.0 / (2.0 * c),
    }


@dataclass(frozen=True)
class WalkDP:
    """Lattice dynamic program for the time-costed range reward.

    State (a, b) = (lattice distance below the running max, lattice
    distance above the running min); stopping pays (a+b)*h, each step
    costs c*h^2.  States with a = cap or b = cap are forced stops.  A state
    with a + b >= cap can only move within its diameter layer, so it
    stops too, and the box problem equals stopping forced at diameter cap.

    `tol` is only the tie tolerance of the stop region (see dp_solve); the
    value is exact.  The cap sets how far it lies below the uncapped
    lattice value: at c = 1, h = 1/40 the origin value is 0.7249502432 at
    cap = 200 and 0.7250000000 at cap = 640, the value 0.725 of the
    lattice gap rule at k = 20.
    """

    c: float
    h: float
    cap: int
    tol: float

    def __post_init__(self) -> None:
        _require_positive(self.c, "c")
        _require_positive(self.h, "h")
        _require_int(self.cap, "cap", 2)
        if self.cap * self.h < 3.0 / self.c - 1e-9:
            raise ValueError(
                f"cap*h = {self.cap * self.h} must reach 3/c = {3.0 / self.c} "
                "so the forced boundary sits beyond the stopping region"
            )
        _require_positive(self.tol, "tol")


@dataclass(frozen=True)
class DPSolution:
    """Exact value at the origin, stop-region bitmap, and layers solved (cap)."""

    value_origin: float
    stop_region: np.ndarray
    iterations: int

    @property
    def stop_boundary(self) -> np.ndarray:
        """First stopping column b of each row a of the stop region."""
        return np.argmax(self.stop_region, axis=1)


def _layer_majorant(y: np.ndarray) -> np.ndarray:
    """Least concave majorant of one layer's obstacle, read at every i.

    y has two equal ends and a concave parabola in between, so its majorant
    is a tangent from each end (to the interior point of greatest slope seen
    from there) joined by the parabola between the tangent points, or flat
    if no interior point lies above the ends.
    """
    n, end = len(y), y[0]
    i = np.arange(n, dtype=float)
    rise = y[1:-1] - end
    left = rise / i[1:-1]
    t = int(np.argmax(left)) + 1
    if not left[t - 1] > 0.0:
        return np.full(n, end)
    right = rise / i[-2:0:-1]
    r = int(np.argmax(right)) + 1
    out = y.copy()
    out[1:t] = left[t - 1] * i[1:t] + end
    out[r + 1 : -1] = -right[r - 1] * (i[r + 1 : -1] - r) + y[r]
    return out


def dp_solve(spec: WalkDP) -> DPSolution:
    """Exact backward induction over the diameter layers s = a + b.

    Within layer s the walk moves a -> a -/+ 1 and leaves only by an up
    step at a = 0 or a down step at b = 0.  Both exits land in layer s + 1
    at a state worth e = V(0, s + 1), by symmetry; V(0, cap) = cap*h is a
    forced stop.  So layer s is the optimal stopping of a walk on
    a = -1..s+1 absorbed at e at both ends, with stop value s*h and step
    cost c*h^2, solved from s = cap - 1 down to 0.  With
    g(a) = f(a) - c*h^2*a*(a - s) (a^2 up to a linear term, centred to keep
    its size small), the Bellman inequality f(a) >= mean(f(a +/- 1)) - c*h^2
    says exactly that g is concave, so the layer's value is c*h^2*a*(a - s)
    plus the least concave majorant of stop - c*h^2*a*(a - s).  Layers
    s >= cap have no exit and only cost steps, so every state there stops.

    The stop region marks the states whose exact value is within tol of
    their stop value (stop preferred at ties); the forced cap boundary
    always stops.
    """
    cap, h = spec.cap, spec.h
    # Row s holds layer s at a = -1..s+1 in its first s + 3 columns.
    layers = np.arange(cap)[:, None]
    a = np.arange(-1, cap + 2)
    bowl = spec.c * h * h * a * (a - layers)
    obstacle = layers * h - bowl
    rows = np.empty((cap, cap))  # rows[s, a] = V(a, s - a)
    exit_value = cap * h  # V(0, s + 1): at s + 1 = cap a forced stop
    for s in range(cap - 1, -1, -1):
        y = obstacle[s, : s + 3]
        y[0] = y[-1] = exit_value - bowl[s, 0]  # the bowl is equal at a = -1 and s + 1
        layer = bowl[s, : s + 3] + _layer_majorant(y)
        np.maximum(layer[1:-1], s * h, out=rows[s, : s + 1])
        exit_value = rows[s, 0]
    stop = np.ones((cap + 1, cap + 1), dtype=bool)
    s, a = np.tril_indices(cap)
    stop[a, s - a] = rows[s, a] <= s * h + spec.tol
    return DPSolution(value_origin=float(rows[0, 0]), stop_region=stop, iterations=cap)

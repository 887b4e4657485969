"""Exact lattice identities: hand-solved micro cases, independent linear-solve
oracles, closed-form table consistency, and the dynamic program."""

import math

import numpy as np
import pytest

from walkstop import (
    DiameterReach,
    Drawdown,
    DropDrawdown,
    FirstExit,
    Gap,
    LatticeSpec,
    Rise,
    AbsGap,
    WalkDP,
    absorption_pmf_oracle,
    closed_forms,
    dp_solve,
    exact_stop_steps,
    walk_diameter_pmf,
)
from walkstop import exact_walk

UNIT = LatticeSpec(h=1.0)


# --- terminal pmf of the diameter rule ----------------------------------------

def test_walk_diameter_pmf_small_cases():
    pmf1 = walk_diameter_pmf(1)
    assert pmf1[1] == pytest.approx(0.5) and pmf1[-1] == pytest.approx(0.5)
    pmf2 = walk_diameter_pmf(2)
    assert pmf2[1] == pytest.approx(1.0 / 6.0)
    assert pmf2[2] == pytest.approx(2.0 / 6.0)
    assert sum(pmf2.values()) == pytest.approx(1.0)


def test_walk_diameter_pmf_mass_proportional_to_distance():
    for k in (1, 2, 3, 5, 8, 13):
        pmf = walk_diameter_pmf(k)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        for x, mass in pmf.items():
            assert mass == pytest.approx(abs(x) / (k * (k + 1)), abs=1e-14)
            assert pmf[-x] == mass  # symmetric


def test_walk_diameter_pmf_second_moment_is_expected_steps():
    # sum x^2 * |x|/(k(k+1)) over -k..k equals k(k+1)/2, the exact mean
    # step count of the diameter rule: the quadratic-martingale identity
    for k in (1, 2, 3, 7, 12):
        pmf = walk_diameter_pmf(k)
        second = sum(x * x * m for x, m in pmf.items())
        assert second == pytest.approx(k * (k + 1) / 2.0, abs=1e-10)
        assert second == pytest.approx(exact_stop_steps(DiameterReach(k), UNIT))


def _dense_absorption_pmf(k: int) -> dict[int, float]:
    """Reference: one dense absorbing-chain solve over every transient
    (position, running max, running min) with diameter below k."""
    index: dict[tuple[int, int, int], int] = {}
    for diam in range(k):
        for top in range(diam + 1):
            bot = top - diam
            for x in range(bot, top + 1):
                index[(x, top, bot)] = len(index)

    terminals = [x for x in range(-k, k + 1) if x != 0]
    t_index = {x: i for i, x in enumerate(terminals)}
    nt = len(index)
    trans = np.zeros((nt, nt))
    absorb = np.zeros((nt, len(terminals)))
    for (x, top, bot), i in index.items():
        for step in (1, -1):
            x2 = x + step
            top2 = max(top, x2)
            bot2 = min(bot, x2)
            if top2 - bot2 == k:
                absorb[i, t_index[x2]] += 0.5
            else:
                trans[i, index[(x2, top2, bot2)]] += 0.5

    hit = np.linalg.solve(np.eye(nt) - trans, absorb)
    start = index[(0, 0, 0)]
    return {x: float(hit[start, t_index[x]]) for x in terminals}


def test_absorption_oracle_matches_pmf():
    for k in range(1, 13):
        pmf = walk_diameter_pmf(k)
        oracle = absorption_pmf_oracle(k)
        assert list(oracle) == sorted(pmf)
        for x in pmf:
            assert pmf[x] == pytest.approx(oracle[x], abs=1e-12)


def test_layered_oracle_matches_dense_solve():
    """The layer-by-layer solve equals one dense solve of the whole chain."""
    for k in range(1, 13):
        dense = _dense_absorption_pmf(k)
        oracle = absorption_pmf_oracle(k)
        assert list(oracle) == list(dense)
        for x in dense:
            assert oracle[x] == pytest.approx(dense[x], abs=1e-14)


def test_absorption_oracle_bounds():
    with pytest.raises(ValueError):
        absorption_pmf_oracle(0)
    # No upper limit: the layered solve stays exact and cheap at large hdiam.
    for k in (40, 100):
        pmf, oracle = walk_diameter_pmf(k), absorption_pmf_oracle(k)
        assert list(oracle) == sorted(pmf)
        assert max(abs(oracle[x] - pmf[x]) for x in pmf) <= 1e-12


# --- exact mean step counts ----------------------------------------------------

def drawdown_steps_by_linear_solve(k: int) -> float:
    """Independent oracle: mean absorption time of the drawdown chain.

    State j = current drawdown in units (0..k-1 live).  From j: up goes to
    max(j-1, 0) (at j=0 a new maximum keeps j=0), down goes to j+1, absorbed
    at j=k.  Solve (I - P) E = 1.
    """
    size = k
    a = np.zeros((size, size))
    b = np.ones(size)
    for j in range(size):
        a[j, j] = 1.0
        up = max(j - 1, 0)
        a[j, up] -= 0.5
        if j + 1 < size:
            a[j, j + 1] -= 0.5
    return float(np.linalg.solve(a, b)[0])


def test_drawdown_steps_against_linear_solve():
    for k in (1, 2, 3, 5, 10, 25):
        assert exact_stop_steps(Drawdown(k), UNIT) == pytest.approx(
            drawdown_steps_by_linear_solve(k), rel=1e-12
        )
        assert exact_stop_steps(Drawdown(k), UNIT) == k * (k + 1)


def test_hand_counts_k1_k2():
    assert exact_stop_steps(Drawdown(1), UNIT) == 2
    assert exact_stop_steps(Rise(1), UNIT) == 2
    assert exact_stop_steps(Gap(1), UNIT) == 5
    assert exact_stop_steps(DropDrawdown(1), UNIT) == 4
    assert exact_stop_steps(DiameterReach(1), UNIT) == 1
    assert exact_stop_steps(FirstExit(-1, 1), UNIT) == 1
    assert exact_stop_steps(Drawdown(2), UNIT) == 6
    assert exact_stop_steps(Gap(2), UNIT) == 16
    assert exact_stop_steps(DiameterReach(2), UNIT) == 3
    assert exact_stop_steps(DropDrawdown(2), UNIT) == 12
    assert exact_stop_steps(FirstExit(-2, 3), UNIT) == 6
    # AbsGap: k^2 steps until |x| first reaches k, then k(k+1) more until |x|
    # falls k below sup|x|, as a drawdown of the walk |x|, which stays positive
    for k, steps in ((1, 3), (2, 10), (3, 21), (5, 55), (8, 136)):
        assert exact_stop_steps(AbsGap(k), UNIT) == steps


def test_two_stage_decomposition_identity():
    """gap(k) = diameter(2k) + drawdown(k): reach range 2d, then the fresh
    one-sided threshold from the worse extreme; also dropdd(k) = 2*drawdown(k)."""
    for k in range(1, 51):
        gap = exact_stop_steps(Gap(k), UNIT)
        assert gap == exact_stop_steps(DiameterReach(2 * k), UNIT) + exact_stop_steps(
            Drawdown(k), UNIT
        )
        assert exact_stop_steps(DropDrawdown(k), UNIT) == 2 * exact_stop_steps(
            Drawdown(k), UNIT
        )


# --- closed-form table ----------------------------------------------------------

def test_closed_forms_values():
    cf = closed_forms(1.0, 0.5)
    assert cf["E_tau_d"] == pytest.approx(0.25)
    assert cf["E_M_tau_d"] == pytest.approx(0.5)
    assert cf["E_T_gap"] == pytest.approx(0.75)
    assert cf["E_D_at_T_gap"] == pytest.approx(1.5)
    assert cf["payoff_gap"] == pytest.approx(0.75)
    assert cf["payoff_gap_opt"] == pytest.approx(0.75)
    assert cf["E_Tplus_derived"] == pytest.approx(0.5)
    assert cf["E_Dplus_at_Tplus_derived"] == pytest.approx(1.0)
    assert cf["payoff_plus"] == pytest.approx(0.5)
    assert cf["payoff_plus_opt"] == pytest.approx(0.5)
    assert cf["E_Tplus_printed"] == pytest.approx(2.0)
    assert cf["E_delta_h"](0.2) == pytest.approx(0.02)
    assert cf["delta_increment"](0.2, 0.6) == pytest.approx((0.36 - 0.04) / 2)


def test_closed_forms_consistency_chain():
    rng = np.random.default_rng(5)
    for c, d in zip(rng.uniform(0.1, 4, 30), rng.uniform(0.05, 3, 30)):
        cf = closed_forms(c, d)
        # stage decomposition: climb to spread 2d, then one fresh threshold
        assert cf["delta_increment"](0.0, 2 * d) + cf["E_tau_d"] == pytest.approx(
            cf["E_T_gap"], rel=1e-12
        )
        assert cf["E_T_gap"] == pytest.approx(3 * d * d, rel=1e-12)
        assert cf["E_Tplus_derived"] == pytest.approx(2 * d * d, rel=1e-12)
        assert cf["payoff_gap"] == pytest.approx(
            cf["E_D_at_T_gap"] - c * cf["E_T_gap"], rel=1e-12
        )
        assert cf["payoff_plus"] == pytest.approx(2 * d - 2 * c * d * d, rel=1e-12)
        # optima over d
        assert cf["payoff_gap_opt"] == pytest.approx(3.0 / (4.0 * c), rel=1e-12)
        assert cf["payoff_plus_opt"] == pytest.approx(1.0 / (2.0 * c), rel=1e-12)
        assert cf["E_Tplus_printed"] == pytest.approx(2.0 / (c * c), rel=1e-12)


def test_payoff_gap_concave_with_argmax_at_half_over_c():
    for c in (0.5, 1.0, 2.5):
        grid = np.linspace(0.05, 1.6 / c, 97)
        values = [closed_forms(c, float(d))["payoff_gap"] for d in grid]
        i = int(np.argmax(values))
        assert grid[i] == pytest.approx(1.0 / (2.0 * c), abs=grid[1] - grid[0])
        diffs2 = np.diff(values, 2)
        assert (diffs2 < 1e-12).all()  # concave along the grid


def test_closed_forms_validation():
    with pytest.raises(ValueError):
        closed_forms(0.0, 1.0)
    with pytest.raises(ValueError):
        closed_forms(1.0, -0.5)


# --- dynamic program -------------------------------------------------------------

def test_walkdp_validation():
    with pytest.raises(ValueError):
        WalkDP(c=0.0, h=0.1, cap=100, tol=1e-8)
    with pytest.raises(ValueError):
        WalkDP(c=1.0, h=-0.1, cap=100, tol=1e-8)
    with pytest.raises(ValueError):
        WalkDP(c=1.0, h=0.1, cap=10, tol=1e-8)  # cap*h = 1 < 3/c
    with pytest.raises(ValueError):
        WalkDP(c=1.0, h=0.1, cap=100, tol=0.0)
    # non-finite inputs used to run: c=inf and tol=inf stopped after one
    # sweep with a meaningless value, h=inf produced NaN
    with pytest.raises(ValueError):
        WalkDP(c=math.inf, h=0.1, cap=100, tol=1e-8)
    with pytest.raises(ValueError):
        WalkDP(c=1.0, h=math.inf, cap=100, tol=1e-8)
    with pytest.raises(ValueError):
        WalkDP(c=1.0, h=0.1, cap=100, tol=math.inf)
    # an integral float cap used to pass here and fail inside dp_solve
    with pytest.raises(ValueError, match="^cap must be an integer, got 60.0$"):
        WalkDP(c=1.0, h=0.05, cap=60.0, tol=1e-8)
    with pytest.raises(ValueError, match="^cap must be >= 2, got 1$"):
        WalkDP(c=1.0, h=5.0, cap=1, tol=1e-8)
    assert WalkDP(c=1.0, h=0.05, cap=np.int64(60), tol=1e-8).cap == 60


def test_dp_small_config_recovers_value_and_boundary():
    h = 0.1
    sol = dp_solve(WalkDP(c=1.0, h=h, cap=60, tol=1e-9))
    # biased continuum value: 0.75 - 2cdh = 0.65 plus O(h^2)
    assert sol.value_origin == pytest.approx(0.65, abs=0.02)
    assert sol.iterations > 0
    units = round(0.5 / h)
    bulk = 60 - 4 * units
    for a in range(bulk + 1):
        row = sol.stop_region[a]
        b_min = int(np.argmax(row))
        if a >= units:
            assert abs(b_min - units) <= 1
        elif a <= units - 2:
            assert b_min > bulk


def test_dp_cap_insensitivity_at_origin():
    # the cap-corner distortion leaks to the origin only through paths that
    # reach the cap before stopping; measured ~5e-6 at cap*h = 6, shrinking
    # with cap, so doubling the margin must not move the origin value
    a = dp_solve(WalkDP(c=1.0, h=0.05, cap=120, tol=1e-9)).value_origin
    b = dp_solve(WalkDP(c=1.0, h=0.05, cap=160, tol=1e-9)).value_origin
    assert a == pytest.approx(b, abs=2e-5)


def test_dp_value_monotone_in_cost():
    values = [
        dp_solve(WalkDP(c=c, h=1.0 / (20.0 * c), cap=80, tol=1e-9)).value_origin
        for c in (0.5, 1.0, 2.0)
    ]
    assert values[0] > values[1] > values[2]
    for c, v in zip((0.5, 1.0, 2.0), values):
        assert v == pytest.approx(3.0 / (4.0 * c), rel=0.15)


def _full_grid_dp(spec):
    """Reference value iteration over the whole grid, run to a residual below 1e-15."""
    cap, step_cost = spec.cap, spec.c * spec.h * spec.h
    levels = np.arange(cap + 1, dtype=float)
    stop = (levels[:, None] + levels[None, :]) * spec.h

    def continuation(v):
        up = np.vstack([v[:1, 1:], v[: cap - 1, 1:]])
        down = np.hstack([v[1:, :1], v[1:, : cap - 1]])
        return 0.5 * (up + down) - step_cost

    values = stop.copy()
    for _ in range(200_000):
        new = stop.copy()
        np.maximum(stop[:cap, :cap], continuation(values), out=new[:cap, :cap])
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual < 1e-15:
            break
    else:
        raise RuntimeError(f"reference value iteration stalled at residual {residual:.3e}")
    region = np.ones((cap + 1, cap + 1), dtype=bool)
    region[:cap, :cap] = stop[:cap, :cap] >= continuation(values) - spec.tol
    return float(values[0, 0]), region


@pytest.mark.parametrize(
    "c, h, cap, tol",
    [
        (2.0, 0.05, 40, 1e-8),
        (0.7, 0.1, 60, 1e-12),
        (1.0, 0.25, 12, 1e-6),
        (3.0, 1 / 30, 40, 1e-10),
        (1.0, 1.0, 3, 1e-10),
    ],
)
def test_dp_banded_sweep_matches_full_grid(c, h, cap, tol):
    """The layered solve equals the converged full-grid reference."""
    spec = WalkDP(c=c, h=h, cap=cap, tol=tol)
    value, region = _full_grid_dp(spec)
    sol = dp_solve(spec)
    assert sol.value_origin == pytest.approx(value, abs=1e-12)
    assert sol.iterations == cap
    assert np.array_equal(sol.stop_region, region)
    assert np.array_equal(sol.stop_boundary, [int(np.argmax(row)) for row in region])


def _concave_majorant(y: list[float]) -> np.ndarray:
    """Reference: least concave majorant of the points (i, y[i]), read at
    every i, as a monotone-chain upper hull and linear interpolation
    between its vertices."""
    hull: list[int] = []
    for i, yi in enumerate(y):
        # drop the last vertex while it lies on or below the chord to i
        while len(hull) > 1:
            j, k = hull[-2], hull[-1]
            if (y[k] - y[j]) * (i - j) > (yi - y[j]) * (k - j):
                break
            hull.pop()
        hull.append(i)
    return np.interp(np.arange(len(y)), hull, [y[i] for i in hull])


@pytest.mark.parametrize(
    "c, h, cap",
    [
        (2.0, 0.05, 40),
        (0.7, 0.1, 60),
        (1.0, 0.25, 12),
        (3.0, 1 / 30, 40),
        (1.0, 1.0, 3),
        (1.0, 1 / 40, 200),
        (1.0, 1 / 60, 300),
    ],
)
def test_layer_majorant_matches_monotone_chain(c, h, cap, monkeypatch):
    """On every layer dp_solve builds, the two-tangent majorant equals the
    general upper hull bit for bit; these layers include flat ones, where no
    interior point lies above the ends."""
    layer_majorant = exact_walk._layer_majorant
    seen = []

    def checked(y):
        out = layer_majorant(y)
        want = _concave_majorant(y.tolist())
        seen.append(np.array_equal(out, want))
        return out

    monkeypatch.setattr(exact_walk, "_layer_majorant", checked)
    dp_solve(WalkDP(c=c, h=h, cap=cap, tol=1e-10))
    assert len(seen) == cap and all(seen)


def _per_layer_dp(spec):
    """Reference: the layer loop that builds each layer's bowl and obstacle
    and scatters its values into the (a, b) grid inside the loop."""
    cap, h = spec.cap, spec.h
    step_cost = spec.c * h * h
    levels = np.arange(cap + 1, dtype=float)
    stop_values = (levels[:, None] + levels[None, :]) * h
    values = stop_values.copy()
    for s in range(cap - 1, -1, -1):
        a = np.arange(-1, s + 2)
        bowl = step_cost * a * (a - s)
        obstacle = s * h - bowl
        obstacle[[0, -1]] = values[0, s + 1] - bowl[[0, -1]]
        layer = bowl + exact_walk._layer_majorant(obstacle)
        inner = a[1:-1]
        values[inner, s - inner] = np.maximum(layer[1:-1], s * h)
    return float(values[0, 0]), values <= stop_values + spec.tol


@pytest.mark.parametrize(
    "c, h, cap",
    [
        (2.0, 0.05, 40),
        (0.7, 0.1, 60),
        (1.0, 0.25, 12),
        (3.0, 1 / 30, 40),
        (1.0, 1.0, 3),
        (1.0, 1 / 40, 200),
        (1.0, 1 / 60, 300),
        (1.0, 1 / 40, 640),
        (2.0, 1 / 80, 640),
    ],
)
def test_hoisted_layers_match_per_layer_loop(c, h, cap):
    """Building every layer's bowl and obstacle up front and scattering the
    rows once gives the per-layer loop's value and stop region bit for bit."""
    spec = WalkDP(c=c, h=h, cap=cap, tol=1e-10)
    value, region = _per_layer_dp(spec)
    sol = dp_solve(spec)
    assert np.float64(sol.value_origin).tobytes() == np.float64(value).tobytes()
    assert np.array_equal(sol.stop_region, region)


def test_dp_value_is_lattice_exact():
    # with the cap far beyond the stop box, the optimum is the lattice gap
    # rule at k = 1/(2ch): payoff 3kh - c*h^2*(3k^2 + 2k)
    for c, h in ((1.0, 1 / 40), (2.0, 1 / 80)):
        k = round(1.0 / (2.0 * c * h))
        target = 3 * k * h - c * h * h * exact_stop_steps(Gap(k * h), LatticeSpec(h=h))
        sol = dp_solve(WalkDP(c=c, h=h, cap=640, tol=1e-10))
        assert sol.value_origin == pytest.approx(target, abs=1e-10)
    # a lower cap forces earlier stops, so the value rises with the cap
    values = [dp_solve(WalkDP(c=1.0, h=1 / 40, cap=cap, tol=1e-10)).value_origin
              for cap in (200, 300, 400)]
    assert values == pytest.approx([0.7249502432, 0.7249997054, 0.7249999983], abs=1e-10)
    assert values[0] < values[1] < values[2] < 0.725

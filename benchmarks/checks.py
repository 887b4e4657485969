"""Expected values and output checks for the walkstop benchmark.

Nothing here imports walkstop: every target is computed from the lattice
walk's own laws (exact step counts, the Wald identity, binomial laws of the
free walk, the gap-rule payoff) or is a property the method must have
(exact firing on the threshold, step-count parity, determinism).
Statistical checks accept a sample mean within SIGMAS standard errors of
its target, so a correct program fails one at no seed in practice.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

SIGMAS = 5.0
# Two-sided 99% normal quantile, for reading a standard error off a 99% CI.
Z99 = NormalDist().inv_cdf(0.995)
# Largest distance of the DP value from the lattice gap-policy value that is
# accepted; today the truncated DP sits 5e-5 below that value.
DP_VALUE_TOL = 2.5e-4
# Per-trial coefficient of variation bounds (sd / mean) used to size the
# windows on the `bounds` moments, which the CLI reports without a spread.
# Measured at h = d/20 with 20k trials and rounded up by about 20%.
BOUNDS_CV = {
    "gap_ratio": (0.45, 2.2),  # (diameter, terminal x^2)
    "drop_ratio": (0.65, 2.8),  # (drop supremum, terminal x^2)
    "max_ratio": (1.25, 3.6),  # (running max, terminal x^2)
}


class Checks:
    """Counts output checks and keeps a line for each one that failed."""

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.count += 1
        ok = bool(ok)
        if not ok:
            self.failures.append(what)
        return ok

    def close(self, what: str, value, target, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
        value = np.asarray(value, dtype=float)
        target = np.asarray(target, dtype=float)
        ok = value.shape == target.shape or target.ndim == 0
        ok = ok and bool(np.all(np.abs(value - target) <= abs_tol + rel * np.abs(target)))
        return self.expect(ok, f"{what}: {_short(value)} != {_short(target)}")

    def mean_near(self, what: str, sample, target: float) -> bool:
        """Sample mean within SIGMAS standard errors of an exact expectation."""
        arr = np.asarray(sample, dtype=float)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
        ok = abs(mean - target) <= SIGMAS * se + 1e-12 * max(1.0, abs(target))
        return self.expect(ok, f"{what}: mean {mean:.6g} vs exact {target:.6g} (se {se:.3g})")


def _short(arr: np.ndarray) -> str:
    flat = np.ravel(arr)
    return repr(flat[:4].tolist()) + ("..." if flat.size > 4 else "")


# --- lattice laws ----------------------------------------------------------


def exact_mean_steps(kind: str, k: int, klo: int, khi: int) -> float | None:
    """Expected steps to firing on the lattice; None where no closed form is known."""
    return {
        "gap": 3 * k * k + 2 * k,
        "dropdd": 2 * k * k + 2 * k,
        "drawdown": k * (k + 1),
        "rise": k * (k + 1),
        "diam": k * (k + 1) / 2,
        "exit": -klo * khi,
    }.get(kind)


def firing_residual(kind: str, k: int, klo: int, khi: int, w: dict) -> np.ndarray:
    """Distance (in lattice units) of each stopped state from its rule's threshold.

    Steps are +-1, so the first state that satisfies a threshold predicate
    sits on the threshold exactly; every entry must be 0.
    """
    x, top, bot = w["x"], w["top"], w["bot"]
    if kind == "gap":
        return np.minimum(top - x, x - bot) - k
    if kind == "dropdd":
        return w["drop_sup"] - (top - x) - k
    if kind == "drawdown":
        return top - x - k
    if kind == "rise":
        return x - bot - k
    if kind == "absgap":
        return w["abs_sup"] - np.abs(x) - k
    if kind == "diam":
        return top - bot - k
    if kind == "exit":
        return np.where((x == klo) | (x == khi), 0, 1)
    raise ValueError(f"unknown rule kind {kind!r}")


def to_units(values, unit: float) -> tuple[np.ndarray, bool]:
    """Integer lattice units of float outputs, and whether all were exact."""
    arr = np.asarray(values, dtype=float) / unit
    ints = np.rint(arr)
    exact = bool(np.all(np.abs(arr - ints) <= 1e-6 * np.maximum(1.0, np.abs(arr))))
    return ints.astype(np.int64), exact


def check_walks(chk: Checks, label: str, kind: str, k: int, klo: int, khi: int, w: dict) -> None:
    """Shared checks on a sample of stopped walks given in lattice units.

    `w` holds int arrays x, top, bot, steps, drop_sup, abs_sup, diameter,
    x_sq, one entry per trial.
    """
    x, top, bot, steps = w["x"], w["top"], w["bot"], w["steps"]
    chk.expect(np.all(top >= np.maximum(x, 0)) and np.all(bot <= np.minimum(x, 0)),
               f"{label}: position outside its running extremes")
    chk.expect(np.array_equal(w["diameter"], top - bot), f"{label}: diameter != max - min")
    chk.expect(np.array_equal(w["abs_sup"], np.maximum(top, -bot)), f"{label}: abs_sup != max(max, -min)")
    chk.expect(np.array_equal(w["x_sq"], x * x), f"{label}: terminal_sq != terminal_x^2")
    chk.expect(np.all(w["drop_sup"] >= top - x), f"{label}: drop_sup below the final drop")
    chk.expect(np.all((steps - x) % 2 == 0) and np.all(steps >= np.abs(x)),
               f"{label}: stop step count has the wrong parity for x/h")
    res = firing_residual(kind, k, klo, khi, w)
    chk.expect(np.all(res == 0), f"{label}: {int(np.count_nonzero(res))} trials stopped off the threshold")

    expected = exact_mean_steps(kind, k, klo, khi)
    if expected is not None:
        chk.mean_near(f"{label}: mean steps", steps, expected)
    chk.mean_near(f"{label}: Wald identity mean(x^2 - steps)", x * x - steps, 0.0)
    if kind == "gap":
        chk.mean_near(f"{label}: E[D] at the gap stop", top - bot, 3 * k)
    elif kind == "dropdd":
        chk.mean_near(f"{label}: E[drop sup] at the drop-drawdown stop", w["drop_sup"], 2 * k)
    elif kind == "drawdown":
        chk.mean_near(f"{label}: E[max] at the drawdown stop", top, k)
    elif kind == "rise":
        chk.mean_near(f"{label}: E[-min] at the rise stop", -bot, k)
    elif kind == "exit":
        chk.mean_near(f"{label}: P(exit at hi)", (x == khi).astype(float), -klo / (khi - klo))


def vshape_pmf(k: int) -> dict[int, float]:
    """Termination law of the unit walk at first diameter k: |x| / (k(k+1))."""
    return {x: abs(x) / (k * (k + 1)) for x in range(-k, k + 1) if x != 0}


def check_vshape_counts(chk: Checks, label: str, x_units: np.ndarray, k: int) -> np.ndarray:
    """Per-bin binomial check of the termination offsets; returns the counts."""
    pmf = vshape_pmf(k)
    n = x_units.size
    support = np.array(sorted(pmf))
    counts = np.array([(x_units == s).sum() for s in support])
    chk.expect(counts.sum() == n, f"{label}: offsets outside [-{k}, {k}] minus 0")
    for s, c in zip(support, counts):
        p = pmf[int(s)]
        se = math.sqrt(n * p * (1.0 - p))
        chk.expect(abs(c - n * p) <= SIGMAS * se, f"{label}: bin {s} count {c} vs {n * p:.1f}")
    return counts


def free_walk_means(n_steps: int) -> tuple[float, float]:
    """Exact E[M_n - S_n] and E|S_n| for the n-step simple walk, in lattice units.

    M_n - S_n has the law of M_n (time reversal), and
    P(M_n >= m) = P(S_n >= m) + P(S_n >= m + 1) for m >= 1 (reflection).
    """
    j = np.arange(n_steps + 1)
    logpmf = np.array([math.lgamma(n_steps + 1) - math.lgamma(i + 1) - math.lgamma(n_steps - i + 1)
                       for i in j]) - n_steps * math.log(2.0)
    pmf = np.exp(logpmf)
    s = 2 * j - n_steps
    mean_abs = float(np.sum(np.abs(s) * pmf))
    # tail[i] = P(S_n >= s[i]); S_n >= m  <=>  j >= ceil((m + n) / 2)
    tail = np.cumsum(pmf[::-1])[::-1]
    m = np.arange(1, n_steps + 1)

    def p_ge(levels):
        idx = -((-(levels + n_steps)) // 2)
        out = np.zeros(levels.shape)
        ok = idx <= n_steps
        out[ok] = tail[idx[ok]]
        return out

    mean_max = float(np.sum(p_ge(m) + p_ge(m + 1)))
    return mean_max, mean_abs


def gap_payoff(k: int, h: float, c: float) -> float:
    """Lattice payoff E[D - cT] of the gap rule at k units: 3kh - c(3k^2+2k)h^2."""
    return 3 * k * h - c * (3 * k * k + 2 * k) * h * h

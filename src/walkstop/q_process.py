"""Closed-form value function for the gap-rule stopping problem.

`q_value` evaluates the piecewise certificate function q(delta, gamma, t)
for cost rate c and gap threshold d; `payoff` is the realized reward
delta - c*t; `q_gap_form` is the certificate-minus-payoff gap specialized
to the optimal pairing d = 1/(2c), which is nonnegative everywhere and
vanishes exactly where the gap rule stops.

All three accept scalars or numpy arrays (broadcast together); scalar
inputs return plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .path_engine import _require_positive

__all__ = [
    "DomainError",
    "QParams",
    "DOMAIN_TOL",
    "q_value",
    "payoff",
    "q_gap_form",
]

# Absolute slack admitted on domain boundary comparisons, so points that
# land on gamma = delta/2 (or 0) up to floating-point error are accepted.
DOMAIN_TOL = 1e-12


class DomainError(ValueError):
    """Raised when (delta, gamma, t) is NaN or leaves 0 <= gamma <= delta/2, t >= 0."""


@dataclass(frozen=True)
class QParams:
    """Cost rate and gap threshold for the stopping problem."""

    c: float
    d: float

    def __post_init__(self) -> None:
        _require_positive(self.c, "c")
        _require_positive(self.d, "d")

    @classmethod
    def optimal(cls, c: float) -> "QParams":
        """The threshold that maximizes the expected payoff: d = 1/(2c)."""
        return cls(c=c, d=1.0 / (2.0 * c))


def _check_domain(delta: np.ndarray, gamma: np.ndarray, t: np.ndarray | None) -> None:
    # NaN fails every comparison below, so it must be rejected on its own.
    if any(np.isnan(a).any() for a in (delta, gamma, t) if a is not None):
        raise DomainError("delta, gamma and t must not be NaN")
    if np.any(gamma < -DOMAIN_TOL) or np.any(delta < -DOMAIN_TOL):
        raise DomainError("delta and gamma must be nonnegative")
    if np.any(gamma > delta / 2.0 + DOMAIN_TOL):
        raise DomainError("gamma must not exceed delta/2")
    if t is not None and np.any(t < 0.0):
        raise DomainError("t must be nonnegative")


def _premium_branches(c, d, delta, gamma):
    """The premium's narrow (delta < 2d) and wide branch expressions."""
    narrow = 3.0 * d - delta - c * (gamma * (delta - gamma) + 3.0 * d * d - delta * delta / 2.0)
    wide = (d - gamma) * (1.0 - c * (d + gamma))
    return narrow, wide


def q_value(p: QParams, delta, gamma, t):
    """Piecewise value function: delta - c*t plus the continuation premium.

    Branches (dispatched in order): zero premium once gamma >= d; a
    quadratic expression while delta < 2d; and (d - gamma)(1 - c(d + gamma))
    for wide-but-lopsided states.  The gamma = d seam always matches (both
    sides vanish); the delta = 2d seam is continuous exactly at the
    canonical pairing d = 1/(2c), where the two branch values differ by
    gamma*(1 - 2cd) = 0.
    """
    delta_a, gamma_a, t_a = np.broadcast_arrays(
        np.asarray(delta, dtype=float),
        np.asarray(gamma, dtype=float),
        np.asarray(t, dtype=float),
    )
    _check_domain(delta_a, gamma_a, t_a)
    c, d = p.c, p.d
    narrow, wide = _premium_branches(c, d, delta_a, gamma_a)
    premium = np.where(gamma_a >= d, 0.0, np.where(delta_a < 2.0 * d, narrow, wide))
    out = delta_a - c * t_a + premium
    return float(out) if out.ndim == 0 else out


def payoff(delta, t, c):
    """Realized reward of stopping with spread delta at time t: delta - c*t."""
    delta_a, t_a = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(t, dtype=float)
    )
    _require_positive(c, "c")
    if np.isnan(delta_a).any() or np.isnan(t_a).any():
        raise ValueError("delta and t must not be NaN")
    if np.any(delta_a < 0.0):
        raise ValueError("delta must be nonnegative")
    if np.any(t_a < 0.0):
        raise ValueError("t must be nonnegative")
    out = delta_a - c * t_a
    return float(out) if out.ndim == 0 else out


def q_gap_form(c, delta, gamma):
    """Certificate minus payoff at the optimal threshold d = 1/(2c).

    Equals 0 once gamma >= 1/(2c); a sum of two quadratics while
    delta < 1/c; and c*(1/(2c) - gamma)^2 otherwise.  Nonnegative on the
    whole domain.
    """
    _require_positive(c, "c")
    delta_a, gamma_a = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(gamma, dtype=float)
    )
    _check_domain(delta_a, gamma_a, None)

    d = 1.0 / (2.0 * c)
    narrow = c * (
        0.25 * (1.0 / c - delta_a) * (3.0 / c - delta_a)
        + (delta_a / 2.0 - gamma_a) ** 2
    )
    wide = c * (d - gamma_a) ** 2
    out = np.where(gamma_a >= d, 0.0, np.where(delta_a < 1.0 / c, narrow, wide))
    out = out + 0.0  # collapse 0-d arrays produced by where
    return float(out) if out.ndim == 0 else out

"""Closed-form value function for the gap-rule stopping problem.

`q_value` evaluates the piecewise certificate function q(delta, gamma, t)
for cost rate c and gap threshold d; `payoff` is the realized reward
delta - c*t; `q_gap_form` is the certificate-minus-payoff gap specialized
to the optimal pairing d = 1/(2c), which is nonnegative everywhere and
vanishes exactly where the gap rule stops.

All three accept scalars or numpy arrays (broadcast together); scalar
inputs return plain floats.  `q_value` and `q_gap_form` evaluate arrays in
slices of `_SLICE` elements written into one output; each element goes
through the same IEEE operations, so the result is bit-identical to a
whole-array evaluation.  There is no option to change this.
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
    """Raised when (delta, gamma, t) is NaN or infinite, or leaves 0 <= gamma <= delta/2, t >= 0."""


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
        _require_positive(c, "c")  # c = 0 would raise ZeroDivisionError below
        return cls(c=c, d=1.0 / (2.0 * c))


def _check_domain(delta: np.ndarray, gamma: np.ndarray, t: np.ndarray | None = None) -> None:
    # NaN fails every comparison below, so it must be rejected on its own.
    if any(np.isnan(a).any() for a in (delta, gamma, t) if a is not None):
        raise DomainError("delta, gamma and t must not be NaN")
    if any(np.isinf(a).any() for a in (delta, gamma, t) if a is not None):
        raise DomainError("delta, gamma and t must be finite")
    if np.any(gamma < -DOMAIN_TOL) or np.any(delta < -DOMAIN_TOL):
        raise DomainError("delta and gamma must be nonnegative")
    if np.any(gamma > delta / 2.0 + DOMAIN_TOL):
        raise DomainError("gamma must not exceed delta/2")
    if t is not None and np.any(t < 0.0):
        raise DomainError("t must be nonnegative")


def _in_domain(delta: np.ndarray, gamma: np.ndarray, t: np.ndarray | None = None) -> bool:
    """_check_domain's verdict from tests that fail on NaN; a finite delta bounds gamma."""
    return bool(
        (gamma <= delta * 0.5 + DOMAIN_TOL).all()
        and gamma.min() >= -DOMAIN_TOL
        and delta.min() >= -DOMAIN_TOL
        and delta.max() < np.inf
        and (t is None or (t.min() >= 0.0 and t.max() < np.inf))
    )


# 8192 float64 elements are 64 KiB: each temporary stays in L2 and below
# glibc's mmap threshold, so it is never a fresh, page-faulting mapping.
_SLICE = 8192


def _sliced(kernel, *inputs):
    """kernel(delta, gamma[, t]) over the broadcast inputs, slice by slice.

    A slice that fails the fast test sends the whole input to _check_domain,
    which raises the whole-array error.  A 0-d input is a one-element slice
    and returns a float.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in inputs))
    it = np.nditer([*arrays, None], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"]] * len(arrays) + [["writeonly", "allocate"]], buffersize=_SLICE)
    with it:
        for *part, out in it:
            if not _in_domain(*part):
                _check_domain(*arrays)
            out[...] = kernel(*part)
        result = it.operands[-1]
    return float(result) if result.ndim == 0 else result


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
    c, d = p.c, p.d

    def kernel(delta, gamma, t):
        narrow, wide = _premium_branches(c, d, delta, gamma)
        premium = np.where(gamma >= d, 0.0, np.where(delta < 2.0 * d, narrow, wide))
        return delta - c * t + premium

    return _sliced(kernel, delta, gamma, t)


def payoff(delta, t, c):
    """Realized reward of stopping with spread delta at time t: delta - c*t."""
    delta_a, t_a = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(t, dtype=float)
    )
    _require_positive(c, "c")
    if not (np.isfinite(delta_a).all() and np.isfinite(t_a).all()):
        if np.isnan(delta_a).any() or np.isnan(t_a).any():
            raise ValueError("delta and t must not be NaN")
        raise ValueError("delta and t must be finite")
    if np.any(delta_a < 0.0):
        raise ValueError("delta must be nonnegative")
    if np.any(t_a < 0.0):
        raise ValueError("t must be nonnegative")
    # In place: a c * t temporary would be a second page-faulting mapping.
    out = np.multiply(c, t_a, out=np.empty(t_a.shape))
    np.subtract(delta_a, out, out=out)
    return float(out) if out.ndim == 0 else out


def q_gap_form(c, delta, gamma):
    """Certificate minus payoff at the optimal threshold d = 1/(2c).

    Equals 0 once gamma >= 1/(2c); a sum of two quadratics while
    delta < 1/c; and c*(1/(2c) - gamma)^2 otherwise.  Nonnegative on the
    whole domain.
    """
    d = QParams.optimal(c).d

    def kernel(delta, gamma):
        narrow = c * (0.25 * (1.0 / c - delta) * (3.0 / c - delta) + (delta / 2.0 - gamma) ** 2)
        wide = c * (d - gamma) ** 2
        return np.where(gamma >= d, 0.0, np.where(delta < 1.0 / c, narrow, wide))

    return _sliced(kernel, delta, gamma)

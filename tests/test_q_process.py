"""Value-function algebra: hand-computed fixed points, the payoff-plus-premium
identity, branch continuity at the canonical pairing, and domain policing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkstop import DomainError, QParams, payoff, q_gap_form, q_value


def test_qparams_validation_and_optimal():
    p = QParams.optimal(2.0)
    assert p.c == 2.0 and p.d == 0.25
    with pytest.raises(ValueError):
        QParams(c=0.0, d=1.0)
    with pytest.raises(ValueError):
        QParams(c=1.0, d=-1.0)
    with pytest.raises(ValueError, match="d must be positive"):
        QParams(c=1.0, d=np.inf)
    # c = inf used to pass, leaving d = 1/(2c) = 0 to take the blame
    with pytest.raises(ValueError, match="c must be positive and finite"):
        QParams.optimal(np.inf)
    with pytest.raises(ValueError, match="c must be positive and finite"):
        payoff(1.0, 0.0, np.inf)
    with pytest.raises(ValueError, match="c must be positive and finite"):
        q_gap_form(np.inf, 1.0, 0.25)


def test_payoff_is_linear():
    assert payoff(2.0, 1.0, 1.0) == 1.0
    assert payoff(0.0, 0.0, 3.0) == 0.0
    assert payoff(1.5, 2.0, 0.25) == 1.0


def test_hand_values_origin():
    # fresh start: premium equals the full optimal value 3d - 3cd^2
    assert q_value(QParams(c=1.0, d=0.5), 0.0, 0.0, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert q_value(QParams(c=2.0, d=0.25), 0.0, 0.0, 0.0) == pytest.approx(0.375, abs=1e-15)
    # general (c, d): 3d - 3cd^2 at the origin
    for c in (0.3, 1.0, 4.0):
        for d in (0.1, 0.5, 2.0):
            assert q_value(QParams(c=c, d=d), 0.0, 0.0, 0.0) == pytest.approx(
                3 * d - 3 * c * d * d, abs=1e-14
            )


def test_hand_values_gap_form():
    # c=1 so d = 1/2.  Wide branch (delta >= 1): c*(d-gamma)^2
    assert q_gap_form(1.0, 1.0, 0.1) == pytest.approx(0.16, abs=1e-15)
    assert q_gap_form(1.0, 2.0, 0.25) == pytest.approx(0.0625, abs=1e-15)
    # narrow branch (delta < 1): c*[ (1/c-delta)(3/c-delta)/4 + (delta/2-gamma)^2 ]
    assert q_gap_form(1.0, 0.5, 0.1) == pytest.approx(0.3125 + 0.0225, abs=1e-15)
    # stopped region: gamma >= d gives exactly zero
    assert q_gap_form(1.0, 2.0, 0.5) == 0.0
    assert q_gap_form(1.0, 3.0, 1.2) == 0.0


def test_stopped_region_q_equals_payoff():
    p = QParams(c=1.0, d=0.5)
    for t in (0.0, 0.7, 3.0):
        assert q_value(p, 1.2, 0.6, t) == pytest.approx(1.2 - t, abs=1e-15)


def test_identity_premium_decomposition():
    """q(delta, gamma, t) = payoff(delta, t) + gap_form(delta, gamma) at d = 1/(2c)."""
    rng = np.random.default_rng(7)
    for c in (0.25, 1.0, 3.0):
        p = QParams.optimal(c)
        delta = rng.uniform(0.0, 4.0 / c, 20_000)
        gamma = rng.uniform(0.0, delta / 2.0)
        t = rng.uniform(0.0, 5.0 / (c * c), 20_000)
        lhs = q_value(p, delta, gamma, t)
        rhs = payoff(delta, t, c) + q_gap_form(c, delta, gamma)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12


def test_gap_form_nonnegative_with_exact_zero_set():
    rng = np.random.default_rng(11)
    for c in (0.5, 1.0, 2.0):
        d = 1.0 / (2.0 * c)
        delta = rng.uniform(0.0, 5.0 / c, 50_000)
        gamma = rng.uniform(0.0, delta / 2.0)
        g = q_gap_form(c, delta, gamma)
        assert g.min() >= 0.0
        stopped = gamma >= d
        if stopped.any():
            assert float(np.max(np.abs(g[stopped]))) == 0.0
        assert float(np.min(g[~stopped])) > 0.0


def test_branch_continuity_at_canonical_pairing():
    """At d = 1/(2c) the two q branches agree along delta = 2d."""
    for c in (0.25, 1.0, 4.0):
        p = QParams.optimal(c)
        d = p.d
        # gamma = d itself is reachable only at delta >= 2d exactly, so the
        # two-sided probe runs over interior gamma values
        for gamma in np.linspace(0.0, d, 9)[:-1]:
            below = q_value(p, 2 * d - 1e-11, float(gamma), 1.0)
            above = q_value(p, 2 * d + 1e-11, float(gamma), 1.0)
            assert abs(below - above) < 1e-9


def test_branch_jump_off_canonical_pairing():
    """For d != 1/(2c) the seam jumps by exactly gamma*(1 - 2cd)."""
    c, d, gamma = 1.0, 0.4, 0.2
    p = QParams(c=c, d=d)
    below = q_value(p, 2 * d - 1e-12, gamma, 0.0)
    above = q_value(p, 2 * d + 1e-12, gamma, 0.0)
    assert below - above == pytest.approx(gamma * (1 - 2 * c * d), abs=1e-9)


def test_domain_rejection():
    p = QParams(c=1.0, d=0.5)
    with pytest.raises(DomainError):
        q_value(p, 1.0, 0.6, 0.0)  # gamma > delta/2
    with pytest.raises(DomainError):
        q_value(p, -0.1, 0.0, 0.0)
    with pytest.raises(DomainError):
        q_value(p, 1.0, -0.05, 0.0)
    with pytest.raises(DomainError):
        q_value(p, 1.0, 0.2, -1.0)
    with pytest.raises(DomainError):
        q_gap_form(1.0, 1.0, 0.7)
    # boundary slack: gamma = delta/2 + eps inside the 1e-12 tolerance passes
    assert q_value(p, 1.0, 0.5 + 1e-13, 0.0) >= 0.0


def test_nan_is_a_domain_error():
    # NaN fails every domain comparison; q_gap_form(1, nan, 0) used to
    # fall through to the wide branch and return 0.25.
    p = QParams(c=1.0, d=0.5)
    for delta, gamma in ((np.nan, 0.0), (1.0, np.nan), (np.array([1.0, np.nan]), 0.2)):
        with pytest.raises(DomainError, match="NaN"):
            q_gap_form(1.0, delta, gamma)
        with pytest.raises(DomainError, match="NaN"):
            q_value(p, delta, gamma, 0.0)
    with pytest.raises(DomainError, match="NaN"):
        q_value(p, 1.0, 0.2, np.nan)


def test_payoff_rejects_nan():
    for delta, t in ((np.nan, 0.0), (1.0, np.nan), (np.array([1.0, np.nan]), 0.0)):
        with pytest.raises(ValueError, match="NaN"):
            payoff(delta, t, 1.0)


def test_scalar_in_scalar_out_array_in_array_out():
    p = QParams.optimal(1.0)
    out = q_value(p, 1.0, 0.25, 0.5)
    assert isinstance(out, float)
    arr = q_value(p, np.array([1.0, 2.0]), np.array([0.25, 0.5]), 0.5)
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
    g = q_gap_form(1.0, np.array([0.5, 2.0]), np.array([0.1, 0.5]))
    assert isinstance(g, np.ndarray)
    assert isinstance(q_gap_form(1.0, 0.5, 0.1), float)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_premium_nonnegative_property(c, delta, frac, t):
    """The continuation premium never drops below the immediate payoff."""
    p = QParams.optimal(c)
    gamma = frac * delta
    assert q_value(p, delta, gamma, t) - payoff(delta, t, c) >= -1e-12

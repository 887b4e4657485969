"""Value-function algebra: hand-computed fixed points, the payoff-plus-premium
identity, branch continuity at the canonical pairing, and domain policing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkstop import DomainError, QParams, payoff, q_gap_form, q_value
from walkstop import q_process

SLICE = q_process._SLICE


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
    # c = 0 is reported as a bad c, not as a ZeroDivisionError from 1/(2c)
    with pytest.raises(ValueError, match="c must be positive and finite"):
        QParams.optimal(0.0)
    with pytest.raises(ValueError, match="c must be positive and finite"):
        q_gap_form(0.0, 1.0, 0.25)
    # a c so small that 1/(2c) overflows leaves no finite threshold
    with pytest.raises(ValueError, match="d must be positive and finite"):
        q_gap_form(1e-310, 1.0, 0.25)


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
    # infinities used to pass: q(inf, inf, inf) was nan, q(1, 0.1, inf) was -inf
    for delta, gamma, t in (
        (np.inf, np.inf, np.inf),
        (1.0, 0.1, np.inf),
        (1.0, 0.1, -np.inf),
        (np.inf, 0.1, 0.0),
        (-np.inf, 0.0, 0.0),
        (1.0, -np.inf, 0.0),
        (np.array([1.0, np.inf]), 0.1, 0.0),
    ):
        with pytest.raises(DomainError, match="delta, gamma and t must be finite"):
            q_value(p, delta, gamma, t)
        if np.isfinite(t):
            with pytest.raises(DomainError, match="delta, gamma and t must be finite"):
                q_gap_form(1.0, delta, gamma)
    # NaN keeps its own message when an infinity sits beside it
    with pytest.raises(DomainError, match="NaN"):
        q_value(p, np.inf, 0.1, np.nan)


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
    # payoff(inf, inf, 1) used to return nan
    for delta, t in ((np.inf, np.inf), (np.inf, 0.0), (1.0, np.inf), (1.0, -np.inf),
                     (np.array([1.0, np.inf]), 0.0)):
        with pytest.raises(ValueError, match="delta and t must be finite"):
            payoff(delta, t, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        payoff(np.inf, np.nan, 1.0)


def test_scalar_in_scalar_out_array_in_array_out():
    p = QParams.optimal(1.0)
    out = q_value(p, 1.0, 0.25, 0.5)
    assert isinstance(out, float)
    arr = q_value(p, np.array([1.0, 2.0]), np.array([0.25, 0.5]), 0.5)
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
    g = q_gap_form(1.0, np.array([0.5, 2.0]), np.array([0.1, 0.5]))
    assert isinstance(g, np.ndarray)
    assert isinstance(q_gap_form(1.0, 0.5, 0.1), float)


# --- slice-by-slice evaluation ------------------------------------------------


def _whole_q_value(p, delta, gamma, t):
    """Reference: q_value as one whole-array evaluation, as before slicing."""
    delta_a, gamma_a, t_a = np.broadcast_arrays(
        np.asarray(delta, dtype=float),
        np.asarray(gamma, dtype=float),
        np.asarray(t, dtype=float),
    )
    q_process._check_domain(delta_a, gamma_a, t_a)
    c, d = p.c, p.d
    narrow = 3.0 * d - delta_a - c * (
        gamma_a * (delta_a - gamma_a) + 3.0 * d * d - delta_a * delta_a / 2.0
    )
    wide = (d - gamma_a) * (1.0 - c * (d + gamma_a))
    premium = np.where(gamma_a >= d, 0.0, np.where(delta_a < 2.0 * d, narrow, wide))
    out = delta_a - c * t_a + premium
    return float(out) if out.ndim == 0 else out


def _whole_q_gap_form(c, delta, gamma):
    """Reference: q_gap_form as one whole-array evaluation, as before slicing."""
    delta_a, gamma_a = np.broadcast_arrays(
        np.asarray(delta, dtype=float), np.asarray(gamma, dtype=float)
    )
    q_process._check_domain(delta_a, gamma_a, None)
    d = 1.0 / (2.0 * c)
    # np.square, as `** 2` is on arrays: on 0-d input `** 2` would be the
    # scalar power, C pow, which can differ in the last bit.
    narrow = c * (
        0.25 * (1.0 / c - delta_a) * (3.0 / c - delta_a)
        + np.square(delta_a / 2.0 - gamma_a)
    )
    wide = c * np.square(d - gamma_a)
    out = np.where(gamma_a >= d, 0.0, np.where(delta_a < 1.0 / c, narrow, wide))
    out = out + 0.0
    return float(out) if out.ndim == 0 else out


def _whole_payoff(delta, t, c):
    """Reference: payoff as one whole-array expression with its temporary."""
    delta_a, t_a = np.broadcast_arrays(np.asarray(delta, dtype=float), np.asarray(t, dtype=float))
    out = delta_a - c * t_a
    return float(out) if out.ndim == 0 else out


def _domain_points(c, d, n, seed=3):
    """n points spread over both sides of the delta = 2d and gamma = d seams,
    with the seams and the gamma = delta/2 edge themselves mixed in."""
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.0, 4.0 * d, n)
    k = n // 4
    delta[:k:3] = 2.0 * d
    gamma = rng.uniform(0.0, delta / 2.0)
    t = rng.uniform(0.0, 4.0 / (c * c), n)
    gamma[1:k:3] = delta[1:k:3] / 2.0
    gamma[2:k:3] = np.minimum(d, delta[2:k:3] / 2.0)
    return delta, gamma, t


def _same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 7, 400_000])
@pytest.mark.parametrize(
    "p", [QParams.optimal(0.3), QParams.optimal(1.0), QParams.optimal(2.0), QParams.optimal(7.0),
          QParams(c=1.0, d=0.4)],
    ids=["c0.3", "c1", "c2", "c7", "c1-d0.4"],
)
def test_slices_match_whole_array_bit_for_bit(n, p):
    delta, gamma, t = _domain_points(p.c, p.d, n)
    _same_bits(q_value(p, delta, gamma, t), _whole_q_value(p, delta, gamma, t))
    _same_bits(q_gap_form(p.c, delta, gamma), _whole_q_gap_form(p.c, delta, gamma))
    _same_bits(payoff(delta, t, p.c), _whole_payoff(delta, t, p.c))


def test_slices_match_whole_array_on_scalars_and_layouts():
    p = QParams(c=1.0, d=0.4)
    delta, gamma, t = _domain_points(1.0, 0.4, 3 * SLICE + 7)
    # 0-d inputs go through the same slice loop and return a float
    for i in range(0, len(delta), 97):
        args = float(delta[i]), float(gamma[i]), float(t[i])
        _same_bits(q_value(p, *args), _whole_q_value(p, *args))
        _same_bits(q_gap_form(1.0, *args[:2]), _whole_q_gap_form(1.0, *args[:2]))
        _same_bits(payoff(args[0], args[2], 1.0), _whole_payoff(args[0], args[2], 1.0))
    _same_bits(q_value(p, np.float64(1.0), np.array(0.2), 0.5), _whole_q_value(p, 1.0, 0.2, 0.5))
    # (3, 1) x (1, 5) broadcasting
    db, gb = np.array([[0.8], [1.0], [2.0]]), np.array([[0.0, 0.1, 0.2, 0.3, 0.4]])
    _same_bits(q_value(p, db, gb, 1.5), _whole_q_value(p, db, gb, 1.5))
    _same_bits(q_gap_form(1.0, db, gb), _whole_q_gap_form(1.0, db, gb))
    # a read-only broadcast t, as drift_check passes its checkpoint times
    d2, g2 = delta[: 5 * 2000].reshape(2000, 5), gamma[: 5 * 2000].reshape(2000, 5)
    cp = np.broadcast_to(np.linspace(0.5, 2.5, 5), d2.shape)
    _same_bits(q_value(p, d2, g2, cp), _whole_q_value(p, d2, g2, cp))
    # non-contiguous views
    _same_bits(q_value(p, delta[::3], gamma[::3], t[::3]),
               _whole_q_value(p, delta[::3], gamma[::3], t[::3]))
    _same_bits(q_gap_form(1.0, d2.T, g2.T), _whole_q_gap_form(1.0, d2.T, g2.T))


def test_scalar_gap_form_equals_the_array_value():
    """A scalar call squares as an array call does: at this point C pow,
    numpy's scalar `** 2`, and np.square differ in the last bit."""
    point = (0.9974848667047844, 0.11367418323788413)
    inside = q_gap_form(1.0, np.array([point[0], 2.0]), np.array([point[1], 0.5]))[0]
    _same_bits(q_gap_form(1.0, *point), float(inside))
    assert np.float64(point[0] / 2.0 - point[1]) ** 2 != np.square(point[0] / 2.0 - point[1])


def _message(f, *args):
    with pytest.raises(DomainError) as err:
        f(*args)
    return str(err.value)


def test_error_precedence_across_slices():
    """Bad points in different slices raise the whole-array check's error."""
    p = QParams.optimal(1.0)
    n = 3 * SLICE + 7
    base = _domain_points(p.c, p.d, n)

    def case(**bad):
        delta, gamma, t = (a.copy() for a in base)
        for name, (i, value) in bad.items():
            {"delta": delta, "gamma": gamma, "t": t}[name][i] = value
        return delta, gamma, t

    # negative gamma in slice 0 and NaN in the last slice: the NaN check wins
    delta, gamma, t = case(gamma=(5, -0.5), delta=(n - 1, np.nan))
    assert _message(q_value, p, delta, gamma, t) == "delta, gamma and t must not be NaN"
    assert _message(q_value, p, delta, gamma, t) == _message(_whole_q_value, p, delta, gamma, t)
    assert _message(q_gap_form, 1.0, delta, gamma) == "delta, gamma and t must not be NaN"
    delta, gamma, t = case(gamma=(5, -0.5), t=(n - 1, np.nan))
    assert _message(q_value, p, delta, gamma, t) == "delta, gamma and t must not be NaN"
    # gamma > delta/2 only in the last slice, just past the tolerance
    delta, gamma, t = case(gamma=(n - 1, 0.5 + 2e-12), delta=(n - 1, 1.0))
    assert _message(q_value, p, delta, gamma, t) == "gamma must not exceed delta/2"
    assert _message(q_gap_form, 1.0, delta, gamma) == "gamma must not exceed delta/2"
    # t < 0 only in the last slice
    delta, gamma, t = case(t=(n - 1, -1e-300))
    assert _message(q_value, p, delta, gamma, t) == "t must be nonnegative"
    # an infinity in the last slice, a negative delta in slice 0
    delta, gamma, t = case(delta=(3, -1.0), t=(n - 1, np.inf))
    assert _message(q_value, p, delta, gamma, t) == "delta, gamma and t must be finite"
    # gamma = delta/2 + 1e-13 is inside the tolerance, in every slice
    delta, gamma, t = (a.copy() for a in base)
    gamma[::SLICE // 2] = delta[::SLICE // 2] / 2.0 + 1e-13
    _same_bits(q_value(p, delta, gamma, t), _whole_q_value(p, delta, gamma, t))
    _same_bits(q_gap_form(1.0, delta, gamma), _whole_q_gap_form(1.0, delta, gamma))


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


@pytest.mark.parametrize(
    "delta, t, message",
    [(-1.0, 0.0, "delta must be nonnegative"), (1.0, -1.0, "t must be nonnegative")],
)
def test_payoff_rejects_negative_inputs_by_name(delta, t, message):
    with pytest.raises(ValueError) as info:
        payoff(delta, t, 1.0)
    assert str(info.value) == message

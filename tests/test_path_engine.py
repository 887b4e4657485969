"""Path-state bookkeeping: hand traces, an independent two-pass oracle, and
exhaustive/property checks of every running statistic."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkstop import LatticeError, LatticeSpec, PathState, advance, init_state


def walk(word: str, h: float = 1.0) -> PathState:
    spec = LatticeSpec(h=h)
    state = init_state()
    for ch in word:
        state = advance(state, "up" if ch == "U" else "down", spec)
    return state


def oracle(word: str, h: float = 1.0) -> dict:
    """Two-pass reference: build the position sequence, then reduce."""
    xs = [0.0]
    for ch in word:
        xs.append(xs[-1] + (h if ch == "U" else -h))
    prefix_max = list(itertools.accumulate(xs, max))
    prefix_min = list(itertools.accumulate(xs, min))
    drops = [m - x for m, x in zip(prefix_max, xs)]
    rises = [x - m for m, x in zip(prefix_min, xs)]
    return {
        "x": xs[-1],
        "run_max": prefix_max[-1],
        "run_min": prefix_min[-1],
        "diameter": prefix_max[-1] - prefix_min[-1],
        "gap": min(drops[-1], rises[-1]),
        "abs_sup": max(prefix_max[-1], -prefix_min[-1]),
        "drop_sup": max(drops),
        "rise_sup": max(rises),
        "steps": len(word),
    }


def assert_matches_oracle(word: str, h: float) -> None:
    state = walk(word, h)
    ref = oracle(word, h)
    for field, expected in ref.items():
        assert getattr(state, field) == expected, (field, word)
    assert state.t == state.steps * h * h


def test_init_state_is_all_zero():
    s = init_state()
    assert (s.t, s.x, s.run_max, s.run_min) == (0.0, 0.0, 0.0, 0.0)
    assert (s.diameter, s.gap, s.abs_sup) == (0.0, 0.0, 0.0)
    assert (s.drop_sup, s.rise_sup, s.steps) == (0.0, 0.0, 0)


def test_hand_trace_up_down_down_up():
    h = 0.5
    s = walk("U", h)
    assert (s.x, s.run_max, s.run_min) == (0.5, 0.5, 0.0)
    assert (s.diameter, s.gap, s.rise_sup, s.drop_sup) == (0.5, 0.0, 0.5, 0.0)
    s = walk("UD", h)
    assert (s.x, s.diameter, s.gap) == (0.0, 0.5, 0.0)
    assert (s.drop_sup, s.rise_sup) == (0.5, 0.5)
    s = walk("UDD", h)
    assert (s.x, s.run_max, s.run_min) == (-0.5, 0.5, -0.5)
    assert (s.diameter, s.gap, s.abs_sup, s.drop_sup) == (1.0, 0.0, 0.5, 1.0)
    s = walk("UDDU", h)
    assert (s.x, s.diameter, s.gap) == (0.0, 1.0, 0.5)
    assert (s.drop_sup, s.rise_sup, s.t) == (1.0, 0.5, 4 * 0.25)


def test_gap_requires_both_sides():
    # gap is the distance to the NEARER extreme: a one-sided path keeps gap 0
    s = walk("UUUU")
    assert s.gap == 0.0 and s.rise_sup == 4.0 and s.drop_sup == 0.0
    s = walk("UUUUDD")
    assert s.gap == 2.0  # drop 2 vs rise 2: both sides now count


def test_advance_rejects_bad_direction():
    with pytest.raises(ValueError):
        advance(init_state(), "sideways", LatticeSpec(h=1.0))


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(h=0.0)
    with pytest.raises(ValueError):
        LatticeSpec(h=-0.5)
    spec = LatticeSpec(h=0.05)
    assert spec.units(1.0) == 20
    assert spec.units(-0.25) == -5
    assert spec.time_per_step == pytest.approx(0.0025)
    with pytest.raises(LatticeError):
        spec.units(0.03)
    with pytest.raises(LatticeError):
        LatticeSpec(h=0.25).units(0.3, "threshold")
    # Non-finite steps and levels are ValueErrors naming the parameter,
    # not an OverflowError or a NaN cast.
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="step size h must be positive and finite"):
            LatticeSpec(h=bad)
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="threshold must be finite") as err:
            spec.units(bad, "threshold")
        assert not isinstance(err.value, LatticeError)


def test_exhaustive_short_words_match_oracle():
    for n in range(1, 9):
        for bits in itertools.product("UD", repeat=n):
            assert_matches_oracle("".join(bits), 0.5)


@given(
    st.text(alphabet="UD", min_size=1, max_size=300),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_random_words_match_oracle(word, h):
    assert_matches_oracle(word, h)


@given(st.text(alphabet="UD", min_size=1, max_size=300))
def test_invariants(word):
    spec = LatticeSpec(h=0.5)
    state = init_state()
    prev_diam = 0.0
    for ch in word:
        state = advance(state, "up" if ch == "U" else "down", spec)
        assert state.run_min <= state.x <= state.run_max
        assert state.gap <= state.diameter / 2
        assert state.diameter >= prev_diam  # monotone
        assert state.abs_sup == max(state.run_max, -state.run_min)
        assert state.drop_sup >= state.run_max - state.x
        assert state.rise_sup >= state.x - state.run_min
        prev_diam = state.diameter


@given(st.text(alphabet="UD", min_size=1, max_size=200))
def test_mirror_symmetry(word):
    """Negating every step swaps max/min, drop/rise, and negates x."""
    mirrored = word.translate(str.maketrans("UD", "DU"))
    a = walk(word, 0.5)
    b = walk(mirrored, 0.5)
    assert a.x == -b.x
    assert a.run_max == -b.run_min
    assert a.drop_sup == b.rise_sup
    assert a.diameter == b.diameter
    assert a.gap == b.gap
    assert a.abs_sup == b.abs_sup

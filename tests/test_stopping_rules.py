"""Stopping predicates and the vectorized kernel: exhaustive equivalence with
the step-by-step reference, firing-order properties, and censoring semantics."""

import dataclasses
import hashlib
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkstop import (
    AbsGap,
    DiameterReach,
    Drawdown,
    DropDrawdown,
    FirstExit,
    Gap,
    LatticeError,
    LatticeSpec,
    PathState,
    Rise,
    advance,
    init_state,
    run_until_stop,
    should_stop,
)
from walkstop.stopping_rules import _SLICE, _block_hint, default_max_steps, rule_units

UNIT = LatticeSpec(h=1.0)


def mk_state(**kw) -> PathState:
    base = dict(
        t=0.0, x=0.0, run_max=0.0, run_min=0.0, diameter=0.0, gap=0.0,
        abs_sup=0.0, drop_sup=0.0, rise_sup=0.0, steps=0,
    )
    base.update(kw)
    return PathState(**base)


class ScriptStream:
    """Deterministic stand-in for a Generator: replays a fixed U/D word."""

    def __init__(self, word: str):
        self.bits = np.array([1 if ch == "U" else 0 for ch in word], dtype=np.int64)
        self.cursor = 0

    def integers(self, low, high, size, dtype=np.int64):
        assert (low, high) == (0, 2)
        assert self.cursor + size <= len(self.bits), "script exhausted"
        out = self.bits[self.cursor : self.cursor + size].astype(dtype)
        self.cursor += size
        return out


def reference_run(rule, word: str, spec: LatticeSpec):
    """Step-by-step first-firing via advance + should_stop."""
    state = init_state()
    for i, ch in enumerate(word, start=1):
        state = advance(state, "up" if ch == "U" else "down", spec)
        if should_stop(rule, state):
            return True, i, state
    return False, len(word), state


RULES = [
    Drawdown(1.0), Rise(1.0), AbsGap(1.0), Gap(1.0), DropDrawdown(1.0),
    DiameterReach(1.0), DiameterReach(2.0), FirstExit(-1.0, 1.0),
    FirstExit(-2.0, 1.0), Drawdown(2.0), Gap(2.0),
]


# --- predicate unit checks ---------------------------------------------------

def test_should_stop_hand_states():
    assert should_stop(Drawdown(2.0), mk_state(run_max=5.0, x=3.0))
    assert not should_stop(Drawdown(2.0), mk_state(run_max=5.0, x=3.5))
    assert should_stop(Rise(1.0), mk_state(x=0.0, run_min=-1.0))
    assert should_stop(AbsGap(1.0), mk_state(abs_sup=3.0, x=-2.0))
    assert not should_stop(AbsGap(1.0), mk_state(abs_sup=3.0, x=-2.5))
    assert should_stop(Gap(1.0), mk_state(gap=1.0))
    assert not should_stop(Gap(1.0), mk_state(gap=0.5))
    assert should_stop(
        DropDrawdown(1.0), mk_state(drop_sup=2.0, run_max=3.0, x=2.0)
    )
    assert not should_stop(
        DropDrawdown(1.0), mk_state(drop_sup=2.0, run_max=3.0, x=1.5)
    )
    assert should_stop(DiameterReach(2.0), mk_state(diameter=2.0))
    assert should_stop(FirstExit(-1.0, 2.0), mk_state(x=2.0))
    assert should_stop(FirstExit(-1.0, 2.0), mk_state(x=-1.0))
    assert not should_stop(FirstExit(-1.0, 2.0), mk_state(x=1.0))


def test_rule_validation():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        for cls in (Drawdown, Rise, AbsGap, Gap, DropDrawdown):
            with pytest.raises(ValueError, match="d must be positive and finite"):
                cls(bad)
        with pytest.raises(ValueError):
            DiameterReach(bad)
    with pytest.raises(ValueError):
        FirstExit(1.0, 2.0)  # lower bound must be below the start
    with pytest.raises(ValueError):
        FirstExit(-1.0, -0.5)
    for lo, hi in ((-float("inf"), 1.0), (-1.0, float("inf"))):
        with pytest.raises(ValueError, match="must be finite"):
            FirstExit(lo, hi)


def test_threshold_rules_stay_distinct_frozen_values():
    """The five one-threshold rules share a base but keep their own identity."""
    assert repr(Gap(1.0)) == "Gap(d=1.0)"
    assert Gap(1.0) != Drawdown(1.0)
    for cls in (Drawdown, Rise, AbsGap, Gap, DropDrawdown):
        rule = cls(0.5)
        # the process pool pickles rules
        clone = pickle.loads(pickle.dumps(rule))
        assert type(clone) is cls and clone == rule and hash(clone) == hash(rule)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.d = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.extra = 1.0


def test_rule_units_and_lattice_errors():
    spec = LatticeSpec(h=0.25)
    assert rule_units(Gap(1.0), spec) == ("gap", 4, 0, 0)
    assert rule_units(FirstExit(-0.5, 1.0), spec) == ("exit", 0, -2, 4)
    with pytest.raises(LatticeError):
        rule_units(Gap(0.3), spec)
    with pytest.raises(LatticeError):
        rule_units(FirstExit(-0.3, 1.0), spec)
    # an exit boundary within one step of the origin is not aliased to it
    with pytest.raises(ValueError, match="lo -1e-12 is below one lattice step"):
        rule_units(FirstExit(-1e-12, 3.0), UNIT)
    with pytest.raises(ValueError, match="hi 1e-12 is below one lattice step"):
        rule_units(FirstExit(-3.0, 1e-12), UNIT)


def test_default_max_steps_formula():
    assert default_max_steps(Gap(1.0), UNIT) == 400
    assert default_max_steps(Gap(2.0), UNIT) == 1600
    assert default_max_steps(FirstExit(-3.0, 2.0), UNIT) == 400 * 9


# --- kernel vs reference -------------------------------------------------------

def assert_kernel_matches_reference(rule, word, spec):
    fired_ref, steps_ref, state_ref = reference_run(rule, word, spec)
    out = run_until_stop(rule, spec, ScriptStream(word), max_steps=len(word))
    assert out.fired == fired_ref
    assert out.final_state.steps == steps_ref
    assert out.stop_time == pytest.approx(steps_ref * spec.time_per_step)
    assert out.terminal_x == state_ref.x
    for field in ("x", "run_max", "run_min", "diameter", "gap",
                  "abs_sup", "drop_sup", "rise_sup", "steps"):
        assert getattr(out.final_state, field) == getattr(state_ref, field), (
            field, rule, word,
        )
    return out


def test_exhaustive_words_all_rules():
    for word_bits in itertools.product("UD", repeat=10):
        word = "".join(word_bits)
        for rule in RULES:
            assert_kernel_matches_reference(rule, word, UNIT)


@given(
    st.text(alphabet="UD", min_size=1, max_size=250),
    st.sampled_from(RULES),
    st.sampled_from([0.25, 1.0]),
)
def test_random_words_all_rules(word, rule_unit, h):
    # rescale the rule thresholds to the lattice
    scale = {0.25: 0.25, 1.0: 1.0}[h]
    if isinstance(rule_unit, FirstExit):
        rule = FirstExit(rule_unit.lo * scale, rule_unit.hi * scale)
    elif isinstance(rule_unit, DiameterReach):
        rule = DiameterReach(rule_unit.hdiam * scale)
    else:
        rule = type(rule_unit)(rule_unit.d * scale)
    assert_kernel_matches_reference(rule, word, LatticeSpec(h=h))


def test_words_longer_than_one_slice():
    """Drawdown(100) and Rise(100) draw blocks of _SLICE = 8192 steps, so
    blocks start after steps 8192, 16384 and 24576: these words fire at the
    last and the first step of a block.  On a random word, rules fire in
    later blocks or run out inside one."""
    tail = "UD" * 50  # the guard lies in the next block
    for stop in (16384, 16385):
        assert_kernel_matches_reference(Drawdown(100.0), "U" * (stop - 100) + "D" * 100 + tail, UNIT)
    for stop in (24576, 24577):
        assert_kernel_matches_reference(Rise(100.0), "D" * (stop - 100) + "U" * 100 + tail, UNIT)
    word = "".join(np.random.default_rng(8192).choice(["U", "D"], size=3 * 8192 + 7))
    late = censored = 0
    for rule in (
        Gap(60.0), DropDrawdown(70.0), Drawdown(100.0), Rise(100.0),
        AbsGap(70.0), DiameterReach(300.0), FirstExit(-120.0, 100.0),
    ):
        out = assert_kernel_matches_reference(rule, word, UNIT)
        late += out.fired and out.final_state.steps > 8192
        censored += not out.fired
    assert late > 0 and censored > 0


class RecordingStream(ScriptStream):
    """A ScriptStream that logs the size of each draw."""

    def __init__(self, word: str):
        super().__init__(word)
        self.sizes = []

    def integers(self, low, high, size, dtype=np.int64):
        self.sizes.append(size)
        return super().integers(low, high, size, dtype)


def test_draw_schedule_is_the_batched_engines():
    """run_until_stop draws a first block of _block_hint steps, at most
    _SLICE, then doubles up to _SLICE, each draw clipped to the steps left.
    Gap(2)'s hint is 64.  Drawdown(40)'s is 2058, not rounded to 16."""
    assert _block_hint(*rule_units(Drawdown(40.0), UNIT)) == 2058
    cases = [
        # Gap(2) fires at step 304, in its third block.
        (Gap(2.0), "UD" * 148 + "DDUUUUDD" + "UD" * 100, None, 304, [64, 128, 256]),
        # Drawdown(40) fires at step 15000, in its fourth block.
        (Drawdown(40.0), "U" * 14960 + "D" * 8000, None, 15000, [2058, 4116, 8192, 8192]),
        # A guard of 10000 steps clips the third block.
        (Drawdown(40.0), "U" * 10000, 10_000, 10_000, [2058, 4116, 3826]),
    ]
    for rule, word, guard, steps, sizes in cases:
        stream = RecordingStream(word)
        out = run_until_stop(rule, UNIT, stream, guard)
        assert (out.fired, out.final_state.steps) == (guard is None, steps), rule
        assert stream.sizes == sizes, rule


def test_shared_generator_draw_schedule_is_pinned():
    """Paths drawn one after another from one generator: each path uses up
    its last block of draws whole, so the block schedule decides every
    later path.  Some path spans at least four full _SLICE blocks, and a
    guard of 20000 steps clips one.  A schedule change fails here; it is a
    stream change, to be made on purpose and recorded.  A path drawn from
    a fresh generator never depends on the schedule: its hash is the one
    recorded before the schedule last changed."""
    h = 1.0 / 32
    cases = [
        (Gap(64 * h), None), (Gap(64 * h), 20_000), (DropDrawdown(80 * h), None),
        (Drawdown(110 * h), None), (Rise(110 * h), None), (AbsGap(80 * h), None),
        (DiameterReach(156 * h), None), (FirstExit(-100 * h, 120 * h), None),
    ]
    spec, gen = LatticeSpec(h=h), np.random.default_rng(20081)
    paths = [run_until_stop(rule, spec, gen, guard) for rule, guard in cases for _ in range(40)]
    assert max(p.final_state.steps for p in paths) > 4 * _SLICE
    assert any(not p.fired and p.final_state.steps == 20_000 for p in paths)
    blob = repr([(p.fired, p.stop_time, p.terminal_x, dataclasses.astuple(p.final_state)) for p in paths])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "310a2314adcb4ff0bea134df28645d27b6613fb4ae4f0406f5bfcae783da5060"
    )
    fresh = run_until_stop(Drawdown(110 * h), spec, np.random.default_rng(15))
    assert fresh.final_state.steps == 41552  # five blocks of the earlier schedule
    blob = repr((fresh.fired, dataclasses.astuple(fresh.final_state)))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "c82eaec4f1b71df3736cbe9ef5ce18e0d01b2c68dfad8eb11844c08358bb6758"
    )


def test_first_firing_is_minimal():
    """The kernel reports the FIRST step at which the predicate holds."""
    word = "UDDUUDDDUU"
    out = run_until_stop(Gap(1.0), UNIT, ScriptStream(word), max_steps=len(word))
    assert out.fired
    # replay: the predicate must be false strictly before the firing step
    state = init_state()
    for i, ch in enumerate(word[: out.final_state.steps], start=1):
        state = advance(state, "up" if ch == "U" else "down", UNIT)
        held = should_stop(Gap(1.0), state)
        assert held == (i == out.final_state.steps)


def test_censoring_semantics():
    out = run_until_stop(Gap(1.0), UNIT, ScriptStream("UU"), max_steps=2)
    assert not out.fired
    assert out.final_state.steps == 2
    assert out.stop_time == pytest.approx(2.0)
    assert out.terminal_x == 2.0


# --- firing-order properties -------------------------------------------------------

@given(st.text(alphabet="UD", min_size=1, max_size=300))
def test_drawdown_rise_mirror_duality(word):
    mirrored = word.translate(str.maketrans("UD", "DU"))
    a = reference_run(Drawdown(1.0), word, UNIT)
    b = reference_run(Rise(1.0), mirrored, UNIT)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2].x == -b[2].x


@given(st.text(alphabet="UD", min_size=1, max_size=300))
def test_drop_drawdown_fires_strictly_after_drawdown(word):
    fired_dd, step_dd, _ = reference_run(DropDrawdown(1.0), word, UNIT)
    fired_d, step_d, _ = reference_run(Drawdown(1.0), word, UNIT)
    if fired_dd:
        assert fired_d and step_d < step_dd


@given(st.text(alphabet="UD", min_size=1, max_size=300))
def test_gap_fires_strictly_after_double_diameter(word):
    """Two-stage structure: a gap of d needs diameter 2d first, and the step
    that completes the diameter leaves the path at an extreme (gap 0)."""
    fired_g, step_g, _ = reference_run(Gap(1.0), word, UNIT)
    fired_2, step_2, _ = reference_run(DiameterReach(2.0), word, UNIT)
    if fired_g:
        assert fired_2 and step_2 < step_g


@given(st.text(alphabet="UD", min_size=1, max_size=200))
def test_gap_dominates_absgap(word):
    """abs_sup - |x| >= min-gap always, so AbsGap fires no later than Gap."""
    fired_g, step_g, _ = reference_run(Gap(1.0), word, UNIT)
    fired_a, step_a, _ = reference_run(AbsGap(1.0), word, UNIT)
    if fired_g:
        assert fired_a and step_a <= step_g


NOT_A_RULE = object()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: should_stop(NOT_A_RULE, init_state()), TypeError, f"unknown rule {NOT_A_RULE!r}"),
        (lambda: rule_units(NOT_A_RULE, UNIT), TypeError, f"unknown rule {NOT_A_RULE!r}"),
        (lambda: run_until_stop(Gap(1.0), UNIT, np.random.default_rng(0), max_steps=0),
         ValueError, "max_steps must be >= 1, got 0"),
        (lambda: run_until_stop(Gap(1.0), UNIT, np.random.default_rng(0), max_steps=20.5),
         ValueError, "max_steps must be an integer, got 20.5"),
    ],
)
def test_rejections_name_the_bad_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

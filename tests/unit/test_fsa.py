"""Unit and property tests for the PSE classification FSA (Figure 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RuntimeToolError
from repro.runtime.fsa import (
    FORCED_JOIN, FORCED_LETTERS, STATES, Event, State, TRANSITIONS, classify,
    force_states, step,
)
from repro.runtime.psec import PsecEntry


class TestBasicTransitions:
    def test_first_read_gives_input(self):
        assert step(State.EPS, Event.RF) is State.I

    def test_first_write_gives_output(self):
        assert step(State.EPS, Event.WF) is State.O

    def test_paper_example_variable_y(self):
        """Figure 1's y: read, then written (inv 1), then read (inv 2)."""
        state = State.EPS
        state = step(state, Event.RF)   # first read, invocation 1
        assert state is State.I
        state = step(state, Event.WN)   # write, same invocation
        assert state is State.IO
        state = step(state, Event.RF)   # read, invocation 2 -> transfer
        assert state is State.TIO
        assert classify(state) == frozenset("TIO")

    def test_write_only_across_invocations_is_cloneable(self):
        """Figure 1's x: written first in every invocation."""
        state = step(State.EPS, Event.WF)
        state = step(state, Event.RN)  # reads its own value
        state = step(state, Event.WF)  # next invocation overwrites
        assert state is State.CO
        assert "C" in classify(state)

    def test_read_only_stays_input(self):
        state = State.EPS
        for _ in range(5):
            state = step(state, Event.RF)
            state = step(state, Event.RN)
        assert state is State.I

    def test_cloneable_revoked_by_cross_invocation_read(self):
        state = step(State.EPS, Event.WF)
        state = step(state, Event.WF)
        assert state is State.CO
        state = step(state, Event.RF)  # reads the previous write
        assert state is State.TO
        assert "C" not in classify(state)

    def test_tio_is_sink(self):
        for event in Event:
            assert step(State.TIO, event) is State.TIO

    def test_to_is_sink(self):
        for event in Event:
            assert step(State.TO, event) is State.TO

    def test_epsilon_rejects_subsequent_events(self):
        with pytest.raises(RuntimeToolError):
            step(State.EPS, Event.RN)
        with pytest.raises(RuntimeToolError):
            step(State.EPS, Event.WN)

    def test_input_then_new_invocation_write_is_io_not_cloneable(self):
        # Only one invocation ever wrote -> not cloneable yet.
        state = step(State.EPS, Event.RF)
        state = step(state, Event.WF)
        assert state is State.IO
        # A second writing invocation makes it cloneable.
        state = step(state, Event.WF)
        assert state is State.CIO


class TestTableShape:
    def test_every_non_eps_state_is_total(self):
        for state in State:
            for event in Event:
                if state is State.EPS and event in (Event.RN, Event.WN):
                    continue
                assert (state, event) in TRANSITIONS

    def test_any_write_implies_output(self):
        for (state, event), target in TRANSITIONS.items():
            if event in (Event.WF, Event.WN):
                assert "O" in target.sets


# -- property-based tests ----------------------------------------------------


def _valid_sequences():
    """Sequences of (is_write, new_invocation) access descriptors."""
    return st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40
    )


def _run(seq):
    state = State.EPS
    invocation = 0
    last = -1
    for is_write, new_inv in seq:
        if new_inv or last < 0:
            invocation += 1
        fresh = invocation != last
        last = invocation
        if is_write:
            event = Event.WF if fresh else Event.WN
        else:
            event = Event.RF if fresh else Event.RN
        state = step(state, event)
    return state


@given(_valid_sequences())
def test_cloneable_and_transfer_never_coexist(seq):
    letters = classify(_run(seq))
    assert not ({"C", "T"} <= letters)


@given(_valid_sequences())
def test_input_iff_first_access_is_read(seq):
    letters = classify(_run(seq))
    first_is_read = not seq[0][0]
    assert ("I" in letters) == first_is_read


@given(_valid_sequences())
def test_output_iff_any_write(seq):
    letters = classify(_run(seq))
    any_write = any(w for w, _ in seq)
    assert ("O" in letters) == any_write


@given(_valid_sequences())
def test_transfer_matches_cross_invocation_raw(seq):
    """T iff some invocation reads data written by an earlier invocation."""
    written_by = None  # invocation that last wrote
    invocation = 0
    last = -1
    expect_transfer = False
    for is_write, new_inv in seq:
        if new_inv or last < 0:
            invocation += 1
        last = invocation
        if is_write:
            written_by = invocation
        elif written_by is not None and written_by != invocation:
            expect_transfer = True
    assert ("T" in classify(_run(seq))) == expect_transfer


@given(_valid_sequences(), st.sampled_from(["I", "O", "C", "IO", "CO"]))
def test_force_states_is_monotone_join(seq, letters):
    state = _run(seq)
    merged = force_states(state, letters)
    assert state.sets <= merged.sets or "C" in state.sets
    assert not ({"C", "T"} <= merged.sets)


#: Every subset of ``CIOT``, each spelled in sorted order.
CIOT_SUBSETS = ["", "C", "I", "O", "T", "CI", "CO", "CT", "IO", "IT", "OT",
                "CIO", "CIT", "COT", "IOT", "CIOT"]


@pytest.mark.parametrize("code", range(len(STATES)))
def test_forced_join_table_matches_force_states(code):
    assert sorted(FORCED_JOIN[code]) == sorted(CIOT_SUBSETS)
    for forced in CIOT_SUBSETS:
        assert FORCED_JOIN[code][forced] == "".join(
            sorted(force_states(STATES[code], forced).sets))


@pytest.mark.parametrize("code", range(len(STATES)))
def test_forced_letters_table_matches_force_states(code):
    assert sorted(FORCED_LETTERS[code]) == sorted(CIOT_SUBSETS)
    for forced in CIOT_SUBSETS:
        assert FORCED_LETTERS[code][forced] == \
            force_states(STATES[code], forced).sets


def test_entry_letters_fall_back_outside_the_table():
    # An unsorted spelling misses FORCED_LETTERS; the letters are still
    # force_states' answer.
    entry = PsecEntry(("var", 1), state=State.CO, forced="OI")
    assert entry.letters == force_states(State.CO, "IO").sets

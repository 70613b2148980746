"""Flat FSA transition-table properties backing the packed hot path.

The packed fold walks ``FLAT_TRANSITIONS`` directly instead of the enum
table.  These tests pin the two representations together and prove
(exhaustively — the table is tiny) two algebraic properties of repeated
non-fresh accesses within one ROI invocation:

1. every step reaches a fixpoint of the non-fresh event of its kind, so
   *k* repeats of an access add no step, for any *k*;
2. non-fresh runs are confluent: the final state depends only on the
   multiset of events, not their order."""

from itertools import permutations

import pytest

from repro.errors import RuntimeToolError
from repro.runtime import fsa


class TestFlatTableMatchesEnumTable:
    def test_every_state_event_pair_agrees(self):
        for s_code, state in enumerate(fsa.STATES):
            for event, e_code in fsa.EVENT_CODES.items():
                flat = fsa.FLAT_TRANSITIONS[s_code * fsa.N_EVENTS + e_code]
                target = fsa.TRANSITIONS.get((state, event))
                if target is None:
                    assert flat == -1
                    with pytest.raises(RuntimeToolError):
                        fsa.step_code(s_code, e_code)
                else:
                    assert flat == fsa.STATE_CODES[target]
                    assert fsa.step_code(s_code, e_code) == flat

    def test_only_eps_nonfresh_is_invalid(self):
        invalid = [
            (s, e)
            for s in range(len(fsa.STATES))
            for e in range(fsa.N_EVENTS)
            if fsa.FLAT_TRANSITIONS[s * fsa.N_EVENTS + e] < 0
        ]
        assert invalid == [(0, fsa.RN), (0, fsa.WN)]

    def test_event_code_arithmetic_matches_enum(self):
        # The hot path computes the code as kind + 2*not-fresh.
        assert (fsa.RF, fsa.WF) == (0, 1)
        assert (fsa.RN, fsa.WN) == (fsa.RF + 2, fsa.WF + 2)


def _walk(state_code, events):
    for event_code in events:
        state_code = fsa.FLAT_TRANSITIONS[
            state_code * fsa.N_EVENTS + event_code
        ]
        assert state_code >= 0
    return state_code


class TestNonFreshRepeatProperties:
    def test_one_nonfresh_step_is_a_fixpoint(self):
        """flat[flat[s, e], e] == flat[s, e] for non-fresh e: repeats
        beyond the first add nothing to the state."""
        for s in range(len(fsa.STATES)):
            for e in (fsa.RN, fsa.WN):
                nxt = fsa.FLAT_TRANSITIONS[s * fsa.N_EVENTS + e]
                if nxt < 0:
                    continue
                assert fsa.FLAT_TRANSITIONS[nxt * fsa.N_EVENTS + e] == nxt

    def test_every_step_lands_on_a_nonfresh_fixpoint(self):
        """flat[flat[s, e], e'] == flat[s, e], where e' is the non-fresh
        event of e's kind: repeats never move the state the first
        access of a run reached."""
        for s in range(len(fsa.STATES)):
            for e in range(fsa.N_EVENTS):
                nxt = fsa.FLAT_TRANSITIONS[s * fsa.N_EVENTS + e]
                if nxt < 0:
                    continue
                repeat = (e % 2) + 2  # RN for reads, WN for writes
                assert fsa.FLAT_TRANSITIONS[
                    nxt * fsa.N_EVENTS + repeat] == nxt

    def test_nonfresh_runs_are_confluent(self):
        """Any interleaving of a non-fresh read/write multiset ends in the
        same state."""
        for s in range(1, len(fsa.STATES)):  # EPS has no non-fresh edges
            for reads in range(3):
                for writes in range(3):
                    events = (fsa.RN,) * reads + (fsa.WN,) * writes
                    finals = {
                        _walk(s, order)
                        for order in set(permutations(events))
                    }
                    assert len(finals) <= 1

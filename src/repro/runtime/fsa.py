"""The PSE classification Finite State Automaton (Figure 3).

Each (PSE, ROI) pair owns one FSA instance.  Events are the first read or
write of the PSE in a *new* dynamic ROI invocation (``Rf``/``Wf``) or a
subsequent access within the same invocation (``Rn``/``Wn``).  The terminal
state's letters name the Sets the PSE belongs to: I(nput), O(utput),
C(loneable), T(ransfer).  ``C`` and ``T`` are mutually exclusive — a
cross-invocation read of previously-written data permanently revokes
Cloneable (the CO→TO and CIO→TIO edges).

The conservative Output assumption of §4.1 is visible in the table: any
write puts ``O`` in the state, because CARMOT does not profile code outside
ROIs and must assume ROI-written data is read afterwards.
"""

from __future__ import annotations

import enum
from array import array
from itertools import combinations
from typing import Dict, FrozenSet, Tuple

from repro.errors import RuntimeToolError


class State(enum.Enum):
    """FSA states; the value string lists set membership letters."""

    EPS = ""
    I = "I"
    O = "O"
    IO = "IO"
    CO = "CO"
    TO = "TO"
    CIO = "CIO"
    TIO = "TIO"

    @property
    def sets(self) -> FrozenSet[str]:
        return frozenset(self.value)


class Event(enum.Enum):
    RF = "Rf"  # first read in a new dynamic invocation
    WF = "Wf"  # first write in a new dynamic invocation
    RN = "Rn"  # subsequent read, same invocation
    WN = "Wn"  # subsequent write, same invocation


#: The transition table of Figure 3.
TRANSITIONS: Dict[Tuple[State, Event], State] = {
    (State.EPS, Event.RF): State.I,
    (State.EPS, Event.WF): State.O,
    (State.I, Event.RN): State.I,
    (State.I, Event.WN): State.IO,
    (State.I, Event.RF): State.I,
    (State.I, Event.WF): State.IO,
    (State.O, Event.RN): State.O,
    (State.O, Event.WN): State.O,
    (State.O, Event.RF): State.TO,
    (State.O, Event.WF): State.CO,
    (State.IO, Event.RN): State.IO,
    (State.IO, Event.WN): State.IO,
    (State.IO, Event.RF): State.TIO,
    (State.IO, Event.WF): State.CIO,
    (State.CO, Event.RN): State.CO,
    (State.CO, Event.WN): State.CO,
    (State.CO, Event.RF): State.TO,
    (State.CO, Event.WF): State.CO,
    (State.CIO, Event.RN): State.CIO,
    (State.CIO, Event.WN): State.CIO,
    (State.CIO, Event.RF): State.TIO,
    (State.CIO, Event.WF): State.CIO,
    (State.TO, Event.RF): State.TO,
    (State.TO, Event.WF): State.TO,
    (State.TO, Event.RN): State.TO,
    (State.TO, Event.WN): State.TO,
    (State.TIO, Event.RF): State.TIO,
    (State.TIO, Event.WF): State.TIO,
    (State.TIO, Event.RN): State.TIO,
    (State.TIO, Event.WN): State.TIO,
}


#: Dense integer codes for the flat transition table.  The state order is
#: fixed (golden PSEC output sorts by letters elsewhere, never by code) and
#: the event codes are chosen so hot-path callers can compute them without
#: branching on enum members: ``(0 if fresh else 2) + (1 if write else 0)``.
STATES: Tuple[State, ...] = (
    State.EPS, State.I, State.O, State.IO,
    State.CO, State.TO, State.CIO, State.TIO,
)
STATE_CODES: Dict[State, int] = {s: i for i, s in enumerate(STATES)}

N_EVENTS = 4
RF, WF, RN, WN = 0, 1, 2, 3
EVENT_CODES: Dict[Event, int] = {
    Event.RF: RF, Event.WF: WF, Event.RN: RN, Event.WN: WN,
}

#: ``FLAT_TRANSITIONS[state_code * N_EVENTS + event_code]`` → next state
#: code, or -1 for the impossible ε+Rn/Wn combinations.  Built from
#: :data:`TRANSITIONS` so the two representations cannot drift.
FLAT_TRANSITIONS = array("b", [-1] * (len(STATES) * N_EVENTS))
for (_s, _e), _t in TRANSITIONS.items():
    FLAT_TRANSITIONS[STATE_CODES[_s] * N_EVENTS + EVENT_CODES[_e]] = STATE_CODES[_t]
del _s, _e, _t


def step_code(state_code: int, event_code: int) -> int:
    """Flat-table counterpart of :func:`step` on integer codes."""
    nxt = FLAT_TRANSITIONS[state_code * N_EVENTS + event_code]
    if nxt < 0:
        raise RuntimeToolError(
            f"invalid FSA transition: {STATES[state_code].name} has no "
            f"edge for event code {event_code} (a PSE's first access "
            f"must be Rf/Wf)"
        )
    return nxt


def step(state: State, event: Event) -> State:
    """One FSA transition; raises on the impossible ε+Rn/Wn combinations."""
    key = (state, event)
    if key not in TRANSITIONS:
        raise RuntimeToolError(
            f"invalid FSA transition: {event.value} from state "
            f"{state.name} (a PSE's first access must be Rf/Wf)"
        )
    return TRANSITIONS[key]


def classify(state: State) -> FrozenSet[str]:
    """Set membership letters of a (terminal) state."""
    return state.sets


def force_states(state: State, letters: str) -> State:
    """Merge compile-time-proven set letters (opt 3) into a state.

    ``ProbeClassify`` asserts membership directly; combining it with the
    dynamic state is a monotone join on the letter sets, respecting C∩T=∅
    (T wins, matching the cross-run merge rule of §4.2).
    """
    combined = set(state.sets) | set(letters)
    if "T" in combined:
        combined.discard("C")
    return _state_for_letters(frozenset(combined))


def _state_for_letters(letters: FrozenSet[str]) -> State:
    for state in State:
        if state.sets == letters:
            return state
    # Letter combinations that have no named state normalize to the nearest
    # legal superset state: a write implies O in every reachable state.
    if letters == frozenset("I"):
        return State.I
    if letters <= frozenset("IO"):
        return State.IO if "I" in letters else State.O
    if "T" in letters:
        return State.TIO if "I" in letters else State.TO
    if "C" in letters:
        return State.CIO if "I" in letters else State.CO
    raise RuntimeToolError(f"no FSA state for letters {sorted(letters)}")


def join_forced(state_code: int, forced: str) -> str:
    """The epoch-commit join: sorted letters of the state forced by
    ``forced`` (the fold reads :data:`FORCED_JOIN` instead)."""
    return "".join(sorted(force_states(STATES[state_code], forced).sets))


#: ``FORCED_JOIN[state_code][forced]`` → :func:`join_forced`, for every
#: subset of ``CIOT`` spelled in sorted order.
FORCED_JOIN: Tuple[Dict[str, str], ...] = tuple(
    {"".join(f): join_forced(code, "".join(f))
     for n in range(5) for f in combinations("CIOT", n)}
    for code in range(len(STATES))
)


#: ``FORCED_LETTERS[state_code][forced]`` → ``force_states(state,
#: forced).sets``, for every subset of ``CIOT`` spelled in sorted order.
FORCED_LETTERS: Tuple[Dict[str, FrozenSet[str]], ...] = tuple(
    {"".join(f): force_states(STATES[code], "".join(f)).sets
     for n in range(5) for f in combinations("CIOT", n)}
    for code in range(len(STATES))
)

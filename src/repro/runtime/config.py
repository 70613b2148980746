"""Runtime configuration: what to track (Table 1) and how (§4.4–§4.6)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import RuntimeToolError
from repro.resilience.budgets import ResiliencePolicy


@dataclass(frozen=True)
class InstrumentationPolicy:
    """What the profiler must record for a given target abstraction.

    Mirrors Table 1 plus the engineering notes in §5.2/§5.3:

    - ``parallel_for``  needs Sets and Use-callstacks;
    - ``task`` and ``stats`` need only Sets (no Use-callstacks — why the
      STATS naive/CARMOT gap is one order of magnitude, not two);
    - ``smart_pointers`` needs allocations and the Reachability Graph; its
      Sets come for free from allocation/escape observations (§5.2).
    """

    name: str
    track_sets: bool = True
    track_use_callstacks: bool = False
    track_reachability: bool = False
    needs_pin: bool = True


POLICIES: Dict[str, InstrumentationPolicy] = {
    "parallel_for": InstrumentationPolicy(
        "parallel_for", track_sets=True, track_use_callstacks=True,
        track_reachability=False, needs_pin=True,
    ),
    "task": InstrumentationPolicy(
        "task", track_sets=True, track_use_callstacks=False,
        track_reachability=False, needs_pin=True,
    ),
    "smart_pointers": InstrumentationPolicy(
        "smart_pointers", track_sets=False, track_use_callstacks=False,
        track_reachability=True, needs_pin=True,
    ),
    "stats": InstrumentationPolicy(
        "stats", track_sets=True, track_use_callstacks=False,
        track_reachability=False, needs_pin=True,
    ),
}

#: Fallback when an ROI does not name an abstraction: track everything.
FULL_POLICY = InstrumentationPolicy(
    "full", track_sets=True, track_use_callstacks=True,
    track_reachability=True, needs_pin=True,
)

#: What a profiler without CARMOT's engineering insight records: Table 1
#: taken literally.  It differs from :data:`POLICIES` only for smart
#: pointers, where Table 1 lists the Sets but CARMOT derives everything it
#: needs from allocations and the Reachability Graph alone (§5.2) — the
#: source of that use case's two-order-of-magnitude gap.
NAIVE_POLICIES: Dict[str, InstrumentationPolicy] = {
    "parallel_for": POLICIES["parallel_for"],
    "task": POLICIES["task"],
    "stats": POLICIES["stats"],
    "smart_pointers": InstrumentationPolicy(
        "smart_pointers_table1", track_sets=True,
        track_use_callstacks=False, track_reachability=True, needs_pin=True,
    ),
}


def policy_for(abstraction: Optional[str]) -> InstrumentationPolicy:
    if abstraction is None:
        return FULL_POLICY
    return POLICIES[abstraction]


def naive_policy_for(abstraction: Optional[str]) -> InstrumentationPolicy:
    if abstraction is None:
        return FULL_POLICY
    return NAIVE_POLICIES[abstraction]


@dataclass
class RuntimeConfig:
    """Knobs of the CARMOT runtime.

    ``callstack_clustering`` is optimization 7 of §4.4 (one callstack
    capture per function invocation instead of per allocation).
    ``batch_size`` sets how many events one packed block carries into the
    batching pipeline of §4.6, which folds blocks in sequence order (so
    PSECs are bit-identical run to run) on the producing thread.
    """

    policy: InstrumentationPolicy = FULL_POLICY
    callstack_clustering: bool = True
    #: CARMOT maintains a shadow callstack at call boundaries so capturing a
    #: use-callstack is cheap; the naive runtime walks the stack per use.
    shadow_callstacks: bool = True
    #: The naive runtime lacks the §4.6 pipeline and processes events inline
    #: on the main thread.
    inline_processing: bool = False
    batch_size: int = 1024
    #: Memory guard: the naive configuration can accumulate unboundedly many
    #: use-callstack records; the paper marks such runs with "*" in Figure 7.
    max_use_records: int = 4_000_000
    #: Runtime-layer resilience: the per-ROI event budget.  The all-off
    #: default keeps every PSEC bit-identical to the unbudgeted runtime.
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise RuntimeToolError("batch_size must be >= 1")

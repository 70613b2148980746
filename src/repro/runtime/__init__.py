"""CARMOT runtime: FSA, PSEC, ASMT, reachability graph, and the engine
that folds each event into the PSECs at its hook (§4.6's batching and
shadow workers are represented by the cost model)."""

from repro.runtime.asmt import Asmt, AsmtEntry
from repro.runtime.config import (
    FULL_POLICY,
    POLICIES,
    InstrumentationPolicy,
    RuntimeConfig,
    naive_policy_for,
    policy_for,
)
from repro.runtime.engine import CarmotHooks, CarmotRuntime, RuntimeStats
from repro.runtime.fsa import Event, State, classify, step
from repro.resilience import (
    DegradationRecord,
    DegradationReport,
    ExecutionBudgets,
    ResiliencePolicy,
    parse_budget_spec,
)
from repro.runtime.psec import (
    MemoryBudgetExceeded,
    Psec,
    PsecEntry,
    PseKey,
    merge_psecs,
)
from repro.runtime.reachability import CycleReport, ReachabilityGraph

__all__ = [
    "Asmt", "AsmtEntry", "FULL_POLICY", "POLICIES", "InstrumentationPolicy",
    "RuntimeConfig", "policy_for", "naive_policy_for", "CarmotHooks", "CarmotRuntime",
    "RuntimeStats", "Event", "State", "classify", "step",
    "MemoryBudgetExceeded", "Psec", "PsecEntry",
    "PseKey", "merge_psecs", "CycleReport", "ReachabilityGraph",
    "DegradationRecord", "DegradationReport", "ExecutionBudgets",
    "ResiliencePolicy", "parse_budget_spec",
]

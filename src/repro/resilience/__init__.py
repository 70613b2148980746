"""Resilience subsystem: fault injection, budgets, degraded-mode PSEC.

Makes the profiling runtime fail-soft: a misbehaving program or an
injected fault degrades the run (conservative Sets, recorded in a
:class:`DegradationReport`) instead of killing the session.
"""

from repro.resilience.budgets import (
    BudgetSpec,
    ExecutionBudgets,
    QUEUE_POLICIES,
    ResiliencePolicy,
    parse_budget_spec,
)
from repro.resilience.degradation import (
    ACTION_CLASSIFY_ONLY,
    ACTION_CONSERVATIVE,
    ACTION_DELAYED,
    ACTION_RETRIED,
    CONSERVATIVE_READ,
    CONSERVATIVE_WRITE,
    DegradationRecord,
    DegradationReport,
)
from repro.resilience.faultinject import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ACTION_CLASSIFY_ONLY", "ACTION_CONSERVATIVE", "ACTION_DELAYED",
    "ACTION_RETRIED",
    "CONSERVATIVE_READ", "CONSERVATIVE_WRITE",
    "BudgetSpec", "DegradationRecord", "DegradationReport",
    "ExecutionBudgets", "FaultInjector", "FaultKind", "FaultPlan",
    "FaultSpec", "QUEUE_POLICIES", "ResiliencePolicy", "parse_budget_spec",
]

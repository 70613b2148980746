"""Resilience subsystem: execution budgets and degraded-mode PSEC.

Bounds every run of an untrusted program: a runaway program trips a VM
budget (a clean error), and an ROI past its event budget degrades to
conservative Sets, recorded in a :class:`DegradationReport`, instead of
killing the session.
"""

from repro.resilience.budgets import (
    BudgetSpec,
    ExecutionBudgets,
    ResiliencePolicy,
    parse_budget_spec,
)
from repro.resilience.degradation import (
    ACTION_CLASSIFY_ONLY,
    CONSERVATIVE_READ,
    CONSERVATIVE_WRITE,
    DegradationRecord,
    DegradationReport,
)

__all__ = [
    "ACTION_CLASSIFY_ONLY", "CONSERVATIVE_READ", "CONSERVATIVE_WRITE",
    "BudgetSpec", "DegradationRecord", "DegradationReport",
    "ExecutionBudgets", "ResiliencePolicy", "parse_budget_spec",
]

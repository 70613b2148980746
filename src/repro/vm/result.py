"""The outcome of one VM run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class RunResult:
    """Outcome of one program execution."""

    return_value: object
    cost: int
    baseline_cost: int
    instructions: int
    output: List[str]
    access_counts: Dict[str, int]
    leaked_bytes: int

    @property
    def overhead(self) -> float:
        """Cost relative to an uninstrumented run of the same module."""
        if self.baseline_cost <= 0:
            return 1.0
        return self.cost / self.baseline_cost

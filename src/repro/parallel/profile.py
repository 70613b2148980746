"""Execution profiling for the parallel-execution simulator (Figure 6).

The simulator needs, for each parallel loop: the cost of every iteration
(one ROI dynamic invocation), and how much of each iteration is serialized
(critical/ordered sections).  Two sources provide the serialized part:

- **original pragmas**: ``omp critical``/``ordered``/``master`` regions are
  explicit marker instructions, so the profiler measures them exactly;
- **generated pragmas**: the recommendation names the *source lines* whose
  statements must be wrapped; the profiler attributes cost per source line
  (``trace_lines``, the bytecode VM's line tracer) and charges those
  lines as the serial fraction.

The profiler also measures ``omp parallel sections``: the per-section costs
feed the sections simulator used for the pthreads/sections benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.module import Module
from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.codegen import lower_module
from repro.vm.hooks import ExecutionHooks
from repro.vm.result import RunResult


@dataclass
class LoopProfile:
    """Per-invocation costs of one ROI loop."""

    roi_id: int
    iteration_costs: List[int] = field(default_factory=list)
    serial_costs: List[int] = field(default_factory=list)  # marker-measured

    @property
    def total_cost(self) -> int:
        return sum(self.iteration_costs)

    @property
    def iterations(self) -> int:
        return len(self.iteration_costs)


@dataclass
class SectionsProfile:
    """Costs of one ``omp parallel sections`` region's sections."""

    region_id: int
    section_costs: List[int] = field(default_factory=list)
    serial_extra: int = 0  # master regions + barrier-adjacent code
    total_cost: int = 0


@dataclass
class ExecutionProfile:
    loops: Dict[int, LoopProfile] = field(default_factory=dict)
    sections: Dict[int, SectionsProfile] = field(default_factory=dict)
    line_costs: Dict[Tuple[str, int], int] = field(default_factory=dict)
    total_cost: int = 0
    result: Optional[RunResult] = None

    def serial_fraction_of_lines(self, roi_id: int,
                                 lines: Set[Tuple[str, int]]) -> float:
        """Cost share of the given source lines within one loop's total."""
        loop = self.loops.get(roi_id)
        if loop is None or loop.total_cost == 0:
            return 0.0
        serial = sum(self.line_costs.get(line, 0) for line in lines)
        return min(1.0, serial / loop.total_cost)


class ProfilingHooks(ExecutionHooks):
    """Collects per-iteration, per-region, and per-line costs."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.profile = ExecutionProfile()
        self.vm: Optional[BytecodeInterpreter] = None
        self._roi_start: Dict[int, int] = {}
        self._serial_acc: Dict[int, int] = {}
        self._region_start: Dict[int, int] = {}
        self._sections_stack: List[int] = []

    # -- ROI markers = loop iterations -----------------------------------

    def on_roi_begin(self, roi_id: int) -> int:
        self._roi_start[roi_id] = self.vm.cost
        self._serial_acc[roi_id] = 0
        self.profile.loops.setdefault(roi_id, LoopProfile(roi_id))
        return 0

    def on_roi_end(self, roi_id: int) -> int:
        start = self._roi_start.pop(roi_id, None)
        if start is None:
            return 0
        loop = self.profile.loops[roi_id]
        loop.iteration_costs.append(self.vm.cost - start)
        loop.serial_costs.append(self._serial_acc.pop(roi_id, 0))
        return 0

    # -- OMP marker regions --------------------------------------------------

    def on_omp_region(self, kind: str, region_id: int, begin: bool) -> int:
        if begin:
            self._region_start[region_id] = self.vm.cost
            if kind == "parallel_sections":
                self.profile.sections.setdefault(
                    region_id, SectionsProfile(region_id)
                )
                self._sections_stack.append(region_id)
            return 0
        start = self._region_start.pop(region_id, None)
        if start is None:
            return 0
        elapsed = self.vm.cost - start
        if kind in ("critical", "ordered", "master"):
            for roi_id in self._roi_start:
                self._serial_acc[roi_id] = (
                    self._serial_acc.get(roi_id, 0) + elapsed
                )
            if kind == "master" and self._sections_stack:
                parent = self.profile.sections[self._sections_stack[-1]]
                parent.serial_extra += elapsed
        elif kind == "section":
            if self._sections_stack:
                parent = self.profile.sections[self._sections_stack[-1]]
                parent.section_costs.append(elapsed)
        elif kind == "parallel_sections":
            if self._sections_stack and self._sections_stack[-1] == region_id:
                self._sections_stack.pop()
            self.profile.sections[region_id].total_cost = elapsed
        return 0

    def finish(self) -> None:
        self.profile.total_cost = self.vm.cost


def profile_execution(
    module: Module,
    entry: str = "main",
    args: Tuple = (),
    max_instructions: int = 2_000_000_000,
    trace_lines: bool = True,
) -> ExecutionProfile:
    """Run ``module`` (typically the baseline build) and profile it.

    The run lowers its own bytecode: the line tracer needs codegen's line
    table, and a traced run must not share execution streams that other
    runs quicken.
    """
    hooks = ProfilingHooks(module)
    interp = BytecodeInterpreter(lower_module(module), hooks,
                                 max_instructions=max_instructions)
    if trace_lines:
        hooks.profile.line_costs = interp.enable_line_tracing()
    result = interp.run(entry, args)
    hooks.profile.result = result
    return hooks.profile

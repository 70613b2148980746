"""Execution hooks: how the VM talks to the CARMOT runtime (and the Pintool).

The interpreter is profiling-agnostic; everything PSEC-related happens in an
:class:`ExecutionHooks` implementation.  Hook methods return the *cost* (in
cost-model units) the action charges to the program's critical path — the
CARMOT runtime overlaps FSA processing on worker threads (§4.6), so only the
push/capture work done on the main thread is charged.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ir.instructions import AccessKind, SourceLoc, VarInfo
from repro.vm.memory import MemoryObject


class ExecutionHooks:
    """No-op default hooks (uninstrumented baseline execution)."""

    def on_roi_begin(self, roi_id: int) -> int:
        return 0

    def on_roi_end(self, roi_id: int) -> int:
        return 0

    def on_roi_reset(self, roi_id: int) -> int:
        return 0

    def on_probe_access(
        self,
        kind: AccessKind,
        addr: int,
        size: int,
        var: Optional[VarInfo],
        count: int,
        stride: int,
        loc: Optional[SourceLoc],
        callstack: Tuple[str, ...],
        site_id: Optional[int] = None,
    ) -> int:
        return 0

    def on_probe_classify(
        self,
        states: str,
        addr: int,
        size: int,
        var: Optional[VarInfo],
        count: int,
        stride: int,
        loc: Optional[SourceLoc],
        roi_id: Optional[int] = None,
        site_id: Optional[int] = None,
    ) -> int:
        return 0

    def on_probe_escape(
        self, value_addr: int, dest_addr: int, loc: Optional[SourceLoc]
    ) -> int:
        return 0

    def on_alloc(self, obj: MemoryObject) -> int:
        return 0

    def on_free(self, obj: MemoryObject) -> int:
        return 0

    def on_call_enter(self, function_name: str, instrumented: bool) -> int:
        return 0

    def on_call_exit(self, function_name: str) -> int:
        return 0

    def on_omp_region(self, kind: str, region_id: int, begin: bool) -> int:
        """Original-OpenMP marker regions (used by the Figure 6 simulator)."""
        return 0

    def on_omp_barrier(self) -> int:
        return 0

    def wants_pin(self) -> bool:
        """Whether Pin tracing should be enabled around pin-gated calls."""
        return False

    def on_pin_attach(self) -> int:
        return 0

    def on_pin_access(self, kind: AccessKind, addr: int, size: int) -> int:
        return 0

    def finish(self) -> None:
        """Called once when program execution completes."""

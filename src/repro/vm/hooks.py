"""Execution hooks: how the VM talks to the CARMOT runtime (and the Pintool).

The interpreter is profiling-agnostic; everything PSEC-related happens in an
:class:`ExecutionHooks` implementation.  Hook methods return the *cost* (in
cost-model units) the action charges to the program's critical path — the
CARMOT runtime overlaps FSA processing on worker threads (§4.6), so only the
push/capture work done on the main thread is charged.

The VM spills its instruction and cost counters into ``hooks.vm`` before
every hook call, with one exception: a compiled ``probe.access`` site
calls the closure :meth:`ExecutionHooks.probe_site` made for it, and
passes the counters as arguments.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.ir.instructions import AccessKind, SourceLoc, VarInfo
from repro.vm.memory import MemoryObject


class ExecutionHooks:
    """No-op default hooks (uninstrumented baseline execution).

    The VM sets ``vm`` to itself for the length of a run.  Hooks other
    than the probe sites' closures find its counters exact in it."""

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
    ) -> int:
        return 0

    def probe_site(
        self,
        kind: AccessKind,
        size: int,
        var: Optional[VarInfo],
        stride: int,
        loc: Optional[SourceLoc],
    ) -> Callable[..., int]:
        """The closure one compiled ``probe.access`` site calls, made when
        the site's function is first compiled in a run:
        ``probe(ic, cost, addr, callstack, count=1)`` reports one access
        and returns its charge, with ``ic`` and ``cost`` the VM's live
        counters.  This default spills them into ``self.vm`` and calls
        :meth:`on_probe_access`."""
        vm, hook = self.vm, self.on_probe_access

        def probe(ic, cost, addr, callstack, count=1) -> int:
            vm.instructions = ic
            vm.cost = cost
            return hook(kind, addr, size, var, count, stride, loc, callstack)
        return probe

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

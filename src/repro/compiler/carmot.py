"""The CARMOT optimizations: PSEC-specific passes 1–7 (§4.4–4.5).

Each optimization is a registered pass over the shared
:class:`~repro.passes.manager.AnalysisManager`; the ``"carmot"``
pipeline alias runs them in the paper's order on a freshly-lowered
module:

1. ``callgraph-o3`` — **opt 5** (call graph): functions that can never be
   on the callstack when an ROI starts get the full conventional ``-O3``
   treatment;
2. ``selective-mem2reg`` — **opt 4**: in the remaining ("tagged")
   functions, promote locals never used in any ROI, plus the ROI loops'
   governing induction variables (which the pragma generator privatizes
   implicitly);
3. ``fixed-classification`` — **opt 3** (fixed FSA states):
   loop-invariant scalar loads → hoisted ``classify I``; never-read
   stores → hoisted ``classify O`` (+``C`` when the store provably
   executes in ≥2 invocations);
4. ``aggregation`` — **opt 2** (PSE aggregation): single-site,
   induction-indexed contiguous accesses inside the ROI collapse to one
   ranged probe per invocation;
5. ``subsequent-accesses`` — **opt 1**: must-already-accessed data-flow
   marks redundant probes;
6. ``pin-reduction`` — **opt 6**: clear gates on calls that provably
   never reach precompiled code that touches program memory;
7. ``out-of-roi-suppression`` — the second half of **opt 5**: accesses
   statically outside every ROI that cannot execute in an ROI's dynamic
   extent need no probes at all;
8. ``instrument`` — materialize the plan.

**Opt 7** (callstack clustering) is no pass: it is the runtime's
``RuntimeConfig.callstack_clustering``, on in a CARMOT run unless the
run switches it off.  Every pass is switched off by pipeline text
(``"carmot,-pin-reduction"``), which is how Figure 8 measures the
per-optimization contribution.  Passes 3–7 are *planning* passes: they
only fill the shared :class:`InstrumentationPlan`, leaving the IR (and
therefore the analysis cache) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import builtins_spec
from repro.lang import types as ct
from repro.ir.instructions import (
    AccessKind,
    AddrOffset,
    Alloca,
    Call,
    Instr,
    Load,
    ProbeAccess,
    ProbeClassify,
    Store,
)
from repro.ir.module import Function, Module, RoiInfo
from repro.ir.values import Const, FunctionRef, GlobalRef, Temp, Value
from repro.analysis.loops import (
    Loop,
    innermost_loop_containing,
    match_trip_count,
)
from repro.analysis.mustaccess import pse_key_of_address
from repro.analysis.regions import RoiRegion
from repro.compiler.instrument import InstrumentationReport
from repro.compiler.mem2reg import promotable_allocas, promote_allocas
from repro.compiler.opts import optimize_o3
from repro.passes.manager import (
    AnalysisManager,
    Pass,
    PassTimingReport,
    PipelineContext,
)
from repro.passes.registry import register_alias, register_pass


@dataclass
class CarmotBuildInfo:
    """Metadata about one CARMOT compilation, for tests and Figure 8."""

    o3_functions: List[str] = field(default_factory=list)
    promoted_locals: int = 0
    report: Optional[InstrumentationReport] = None
    pass_report: Optional[PassTimingReport] = None


# ---------------------------------------------------------------------------
# Opt 5 (first half): conventional optimization of ROI-free functions
# ---------------------------------------------------------------------------


@register_pass
class CallgraphO3Pass(Pass):
    """-O3 for functions provably never on the callstack at ROI start."""

    name = "callgraph-o3"
    mutates_ir = True

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        tagged = am.get("roi-tagged-functions")
        changed = False
        for function in module.functions.values():
            if function.name not in tagged:
                optimize_o3(function)
                if ctx.build_info is not None:
                    ctx.build_info.o3_functions.append(function.name)
                changed = True
        return changed


# ---------------------------------------------------------------------------
# Opt 4: selective mem2reg inside tagged functions
# ---------------------------------------------------------------------------


@register_pass
class SelectiveMem2RegPass(Pass):
    """Promote locals never used in any ROI + ROI induction variables."""

    name = "selective-mem2reg"
    mutates_ir = True

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        tagged = am.get("roi-tagged-functions")
        regions = am.get("roi-regions")
        regions_by_fn: Dict[str, List[RoiRegion]] = {}
        for region in regions.values():
            regions_by_fn.setdefault(region.function.name, []).append(region)
        induction_uids: Dict[str, Set[int]] = {}
        for roi in module.rois.values():
            if roi.induction_var is not None:
                induction_uids.setdefault(roi.function, set()).add(
                    roi.induction_var.uid
                )
        promoted = 0
        for function in module.functions.values():
            if (function.name not in tagged
                    or function.conventionally_optimized):
                continue
            used_in_roi: Set[str] = set()
            for region in regions_by_fn.get(function.name, ()):
                for _, _, instr in region.instructions():
                    if isinstance(instr, (Load, Store)) and isinstance(
                        instr.ptr, Temp
                    ):
                        used_in_roi.add(instr.ptr.name)
            inductions = induction_uids.get(function.name, set())
            chosen: List[Alloca] = []
            for alloca in promotable_allocas(function):
                is_induction = (alloca.var is not None
                                and alloca.var.uid in inductions)
                if alloca.result.name not in used_in_roi or is_induction:
                    chosen.append(alloca)
            promoted += promote_allocas(function, chosen)
        if ctx.build_info is not None:
            ctx.build_info.promoted_locals = promoted
        return promoted > 0


# ---------------------------------------------------------------------------
# Opts 3 + 2: fixed classification (scalars) and aggregation (arrays)
# ---------------------------------------------------------------------------


def _roi_loop_anchor(
    am: AnalysisManager, module: Module, region: RoiRegion
) -> Optional[Tuple[Loop, Instr]]:
    """For a loop-body ROI: its loop and the preheader terminator that
    hoisted probes anchor to.  None when the shape is not recognisable."""
    function = region.function
    loops = am.get("loops", function)
    loop = innermost_loop_containing(loops, region.begin_block)
    if loop is None or loop.preheader is None:
        return None
    anchor = loop.preheader.terminator
    if anchor is None:
        return None
    return loop, anchor


@register_pass
class FixedClassificationPass(Pass):
    """Opt 3: hoist provably-fixed FSA states out of the ROI loop.

    Loop-invariant scalar loads become one ``classify I`` per invocation;
    never-read stores become ``classify O`` (+``C`` when the store
    provably executes in ≥2 invocations).  Handled PSE keys are recorded
    in the pipeline context so opt 1 skips them."""

    name = "fixed-classification"

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        plan = ctx.ensure_plan()
        for roi_id, region in am.get("roi-regions").items():
            roi = module.rois[roi_id]
            if not roi.is_loop_body:
                continue
            found = _roi_loop_anchor(am, module, region)
            if found is None:
                continue
            loop, anchor = found
            function = region.function
            dom = am.get("dominators", function)
            deps = am.get("memory-deps", function, region)
            handled = ctx.handled.setdefault(roi_id, set())
            accesses = _group_region_accesses(function, region)
            multi_trip = _provably_multi_trip(function, loop, roi)
            for key, (loads, stores) in accesses.items():
                if key in handled:
                    continue  # classified by an earlier run of this pass
                addr = (loads or stores)[0][2].ptr
                var = (loads or stores)[0][2].var
                size = _probe_size_of(loads, stores)
                if stores and not loads:
                    if all(deps.store_unread_in_roi(s) for _, _, s in stores):
                        letters = "O"
                        if multi_trip and _unconditional(stores, region, dom):
                            letters = "CO"
                        plan.insertions.setdefault(id(anchor), []).append(
                            ProbeClassify(letters, addr, size, var,
                                          stores[0][2].loc, roi_id=roi.roi_id)
                        )
                        for _, _, store in stores:
                            plan.suppressed.add(id(store))
                        handled.add(key)
                elif loads and not stores:
                    if all(deps.load_invariant_in_roi(l) for _, _, l in loads):
                        plan.insertions.setdefault(id(anchor), []).append(
                            ProbeClassify("I", addr, size, var,
                                          loads[0][2].loc, roi_id=roi.roi_id)
                        )
                        for _, _, load in loads:
                            plan.suppressed.add(id(load))
                        handled.add(key)
        return False


def _group_region_accesses(function: Function, region: RoiRegion):
    """Group in-region loads/stores by syntactic PSE key (alloca/global)."""
    accesses: Dict[Tuple, Tuple[list, list]] = {}
    for block, index, instr in region.instructions():
        if isinstance(instr, Load):
            key = pse_key_of_address(function, instr.ptr)
            if key is not None:
                accesses.setdefault(key, ([], []))[0].append(
                    (block, index, instr)
                )
        elif isinstance(instr, Store):
            key = pse_key_of_address(function, instr.ptr)
            if key is not None:
                accesses.setdefault(key, ([], []))[1].append(
                    (block, index, instr)
                )
    return accesses


def _probe_size_of(loads, stores) -> int:
    if loads:
        return 1 if isinstance(loads[0][2].result.ty, ct.CharType) else 8
    store = stores[0][2]
    pointee = (store.ptr.ty.pointee
               if isinstance(store.ptr.ty, ct.PointerType) else ct.INT)
    return 1 if isinstance(pointee, ct.CharType) else 8


def _provably_multi_trip(function: Function, loop: Loop, roi: RoiInfo) -> bool:
    induction_addr = None
    if roi.induction_var is not None:
        alloca = function.var_allocas.get(roi.induction_var.uid)
        if alloca is not None and not alloca.promoted:
            induction_addr = alloca.result
    trip = match_trip_count(function, loop, induction_addr)
    trips = trip.constant_trips if trip else None
    return trips is not None and trips >= 2


def _unconditional(stores, region: RoiRegion, dom) -> bool:
    """Does at least one of the stores execute on every invocation?  True
    when its block dominates every ROI exit site."""
    exit_blocks = [block for block, _ in region.end_sites]
    for block, _, _ in stores:
        if all(dom.dominates(block, exit_block) for exit_block in exit_blocks):
            return True
    return False


@register_pass
class AggregationPass(Pass):
    """Opt 2: collapse induction-indexed single-site array traffic inside
    the region into one ranged probe per dynamic invocation."""

    name = "aggregation"

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        plan = ctx.ensure_plan()
        for roi_id, region in am.get("roi-regions").items():
            roi = module.rois[roi_id]
            # Loop-body ROIs without a recognisable loop shape get no
            # hoisting anchor at all (matching opt 3's gate); block-shaped
            # ROIs aggregate their inner loops directly.
            if roi.is_loop_body and _roi_loop_anchor(am, module,
                                                     region) is None:
                continue
            self._plan_region(am, region, plan)
        return False

    def _plan_region(self, am: AnalysisManager, region: RoiRegion,
                     plan) -> None:
        function = region.function
        dom = am.get("dominators", function)
        loops = am.get("loops", function)
        region_blocks = region.blocks
        exit_blocks = [block for block, _ in region.end_sites]
        for loop in loops:
            if not loop.blocks <= region_blocks:
                continue
            if loop.preheader is None or loop.preheader not in region_blocks:
                continue
            anchor = loop.preheader.terminator
            if anchor is None:
                continue
            # The inner loop must run on every invocation for "same
            # operation at every dynamic invocation" to hold.
            if not all(dom.dominates(loop.preheader, e) for e in exit_blocks):
                continue
            trip = match_trip_count(function, loop, None)
            if trip is None:
                continue
            for probe in _aggregate_candidates(am, function, region, loop,
                                               trip, plan):
                plan.insertions.setdefault(id(anchor), []).append(probe)


def _aggregate_candidates(am, function, region, loop, trip, plan):
    """Find `arr[induction]` single-site accesses eligible for aggregation."""
    points_to = am.get("points-to")
    induction_loads = {
        instr.result.name
        for block in loop.blocks
        for instr in block.instrs
        if isinstance(instr, Load) and instr.ptr is trip.induction_alloca
    }
    addr_map: Dict[str, AddrOffset] = {}
    for block in loop.blocks:
        for instr in block.instrs:
            if (isinstance(instr, AddrOffset)
                    and isinstance(instr.index, Temp)
                    and instr.index.name in induction_loads
                    and instr.offset == 0
                    and instr.scale > 0):
                addr_map[instr.result.name] = instr

    probes: List[ProbeAccess] = []
    fn = function.name
    for addr_name, addr_instr in addr_map.items():
        users: List[Tuple[str, Instr]] = []
        for _, _, instr in region.instructions():
            if isinstance(instr, Load) and isinstance(instr.ptr, Temp) \
                    and instr.ptr.name == addr_name:
                users.append(("load", instr))
            elif isinstance(instr, Store) and isinstance(instr.ptr, Temp) \
                    and instr.ptr.name == addr_name:
                users.append(("store", instr))
        if len(users) != 1:
            continue
        kind, access = users[0]
        if id(access) in plan.suppressed:
            continue  # already claimed by fixed classification
        # No other in-region access may touch the same array.
        conflict = False
        for _, _, other in region.instructions():
            if other is access:
                continue
            if isinstance(other, (Load, Store)):
                other_base = other.ptr
                if isinstance(other_base, Temp) and other_base.name == addr_name:
                    continue
                if points_to.may_alias(fn, addr_instr.base, fn, other.ptr):
                    conflict = True
                    break
        if conflict:
            continue
        base = addr_instr.base
        if not _available_at(am, function, base, loop.preheader):
            continue
        if trip.bound_const is not None:
            count: Value = Const(trip.bound_const, ct.INT)
            extra: List[Instr] = []
        elif trip.bound_addr is not None and _available_at(
            am, function, trip.bound_addr, loop.preheader
        ):
            bound_temp = Temp(function.new_temp_name(), ct.INT)
            extra = [Load(bound_temp, trip.bound_addr, None, access.loc)]
            count = bound_temp
        else:
            continue
        probes.extend(extra)
        probes.append(
            ProbeAccess(
                AccessKind.WRITE if kind == "store" else AccessKind.READ,
                base,
                addr_instr.scale,
                None,
                access.loc,
                count=count,
                stride=addr_instr.scale,
            )
        )
        plan.suppressed.add(id(access))
    return probes


def _available_at(am: AnalysisManager, function: Function, value: Value,
                  block) -> bool:
    """Is ``value`` usable in ``block`` (defined in a dominating block)?"""
    if isinstance(value, (Const, GlobalRef, FunctionRef)):
        return True
    if isinstance(value, Temp):
        if value.name.startswith("arg"):
            return True
        dom = am.get("dominators", function)
        for candidate in function.blocks:
            for instr in candidate.instrs:
                if instr.result is value:
                    return dom.dominates(candidate, block)
    return False


# ---------------------------------------------------------------------------
# Opt 1: subsequent accesses
# ---------------------------------------------------------------------------


@register_pass
class SubsequentAccessesPass(Pass):
    """Opt 1: must-already-accessed data-flow marks redundant probes."""

    name = "subsequent-accesses"

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        plan = ctx.ensure_plan()
        for roi_id, region in am.get("roi-regions").items():
            function = region.function
            handled = ctx.handled.get(roi_id, set())
            result = am.get("must-access", function, region)
            for block, index, instr in region.instructions():
                if id(instr) in plan.suppressed:
                    continue
                if isinstance(instr, Load):
                    key = pse_key_of_address(function, instr.ptr)
                    if key in handled:
                        continue
                    if result.load_is_redundant(function, block, index,
                                                instr):
                        plan.suppressed.add(id(instr))
                elif isinstance(instr, Store):
                    key = pse_key_of_address(function, instr.ptr)
                    if key in handled:
                        continue
                    if result.store_is_redundant(function, block, index,
                                                 instr):
                        plan.suppressed.add(id(instr))
        return False


# ---------------------------------------------------------------------------
# Opt 5 (second half): suppression outside every ROI's dynamic extent
# ---------------------------------------------------------------------------


@register_pass
class OutOfRoiSuppressionPass(Pass):
    """Accesses statically outside every ROI region only matter if they
    can execute in an ROI's *dynamic* extent — i.e. if the enclosing
    function is transitively callable from a call site inside some ROI
    region.  Everything else needs no probes at all."""

    name = "out-of-roi-suppression"

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        plan = ctx.ensure_plan()
        callgraph = am.get("callgraph")
        regions = am.get("roi-regions")
        called_in_roi: Set[str] = set()
        for region in regions.values():
            for _, _, instr in region.instructions():
                if isinstance(instr, Call):
                    target = instr.direct_target
                    if target is None:
                        called_in_roi |= set(
                            callgraph.points_to.call_targets(
                                region.function.name, instr
                            )
                        )
                    elif target in module.functions:
                        called_in_roi.add(target)
        dynamic_roi_fns = callgraph.transitive_callees(sorted(called_in_roi))
        regions_by_fn: Dict[str, List[RoiRegion]] = {}
        for region in regions.values():
            regions_by_fn.setdefault(region.function.name, []).append(region)
        for function in module.functions.values():
            if function.name in dynamic_roi_fns:
                continue
            fn_regions = regions_by_fn.get(function.name, [])
            for block in function.blocks:
                for index, instr in enumerate(block.instrs):
                    if not isinstance(instr, (Load, Store)):
                        continue
                    if any(r.contains(block, index) for r in fn_regions):
                        continue
                    plan.suppressed.add(id(instr))
                    plan.escape_suppressed.add(id(instr))
        return False


# ---------------------------------------------------------------------------
# Opt 6: Pin-gate reduction
# ---------------------------------------------------------------------------


@register_pass
class PinReductionPass(Pass):
    """Clear Pin gates on calls that provably never reach precompiled code
    that touches program memory (pure-math builtins are modelled by the
    tool's libc knowledge and need no tracing)."""

    name = "pin-reduction"

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        plan = ctx.ensure_plan()
        points_to = am.get("points-to")
        for function in module.functions.values():
            for block in function.blocks:
                for instr in block.instrs:
                    if not isinstance(instr, Call):
                        continue
                    target = instr.direct_target
                    if target is not None:
                        if target in builtins_spec.BUILTINS:
                            if not builtins_spec.BUILTINS[
                                target
                            ].touches_memory:
                                plan.pin_cleared.add(id(instr))
                        else:
                            plan.pin_cleared.add(id(instr))
                    else:
                        if not points_to.may_reach_builtin(function.name,
                                                           instr):
                            plan.pin_cleared.add(id(instr))
        return False


# Pipeline aliases: the three build modes, by name.
register_alias("carmot", [
    "callgraph-o3",
    "selective-mem2reg",
    "fixed-classification",
    "aggregation",
    "subsequent-accesses",
    "pin-reduction",
    "out-of-roi-suppression",
    "instrument",
])
register_alias("naive", ["naive-instrument"])
register_alias("baseline", ["o3"])

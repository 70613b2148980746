"""Probe insertion.

The instrumenter turns a lowered module into a *profiling* module by
inserting ``probe.*`` instructions around memory operations and setting Pin
gates on calls.  What gets inserted is controlled by an
:class:`InstrumentationPlan`:

- the **naive** plan (``InstrumentationPlan.naive``) probes every load and
  store, gates every call (it cannot guarantee anything about callees), and
  tracks every event class the abstraction's policy asks for — this is the
  no-PSEC-specific-optimization baseline of Figures 7/10/11;
- the **CARMOT** plan is produced by :mod:`repro.compiler.carmot`, which
  fills the suppression/insertion tables using the analyses of §4.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lang import types as ct
from repro.ir.instructions import (
    AccessKind,
    Alloca,
    Call,
    Instr,
    Load,
    ProbeAccess,
    ProbeClassify,
    Store,
    ProbeEscape,
)
from repro.ir.module import Function, Module
from repro.ir.values import Temp
from repro.errors import ReproError
from repro.passes.manager import Pass
from repro.passes.registry import register_pass
from repro.runtime.config import InstrumentationPolicy


@dataclass
class InstrumentationPlan:
    """Decisions feeding :func:`instrument_module`.

    ``suppressed`` holds ids of Load/Store instructions whose access probe
    is redundant (opts 1–3); ``insertions`` maps an *anchor* instruction id
    to probes spliced in immediately before that instruction (opts 2–3
    hoisted probes — anchors survive the block rewrites of mem2reg);
    ``pin_cleared`` holds ids of Call instructions whose Pin gate is safe
    to drop (opt 6).
    """

    policy: InstrumentationPolicy
    suppressed: Set[int] = field(default_factory=set)
    escape_suppressed: Set[int] = field(default_factory=set)
    insertions: Dict[int, List[Instr]] = field(default_factory=dict)
    pin_cleared: Set[int] = field(default_factory=set)
    gate_all_calls: bool = True

    @classmethod
    def naive(cls, policy: InstrumentationPolicy) -> "InstrumentationPlan":
        return cls(policy=policy, gate_all_calls=True)


@dataclass
class InstrumentationReport:
    """What the instrumenter did — consumed by tests and Figure 8."""

    access_probes: int = 0
    escape_probes: int = 0
    classify_probes: int = 0
    suppressed_probes: int = 0
    pin_gates: int = 0
    pin_gates_cleared: int = 0


def _compiler_temp_slots(function: Function) -> Set[str]:
    """Alloca temps without source variables (short-circuit/ternary slots).

    These are lowering artifacts, not PSEs; neither naive nor CARMOT
    profiles them (clang would have kept them in registers)."""
    return {
        instr.result.name
        for instr in function.entry.instrs
        if isinstance(instr, Alloca) and instr.var is None
    }


def _access_size(ty: ct.Type) -> int:
    return 1 if isinstance(ty, ct.CharType) else 8


def instrument_module(
    module: Module,
    plan: InstrumentationPlan,
) -> InstrumentationReport:
    """Insert probes and set Pin gates, in place."""
    report = InstrumentationReport()
    for function in module.functions.values():
        _instrument_function(function, plan, report)
    return report


def _instrument_function(
    function: Function,
    plan: InstrumentationPlan,
    report: InstrumentationReport,
) -> None:
    policy = plan.policy
    temp_slots = _compiler_temp_slots(function)
    for block in function.blocks:
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            for hoisted in plan.insertions.get(id(instr), ()):
                new_instrs.append(hoisted)
                if isinstance(hoisted, ProbeClassify):
                    report.classify_probes += 1
                elif isinstance(hoisted, ProbeAccess):
                    report.access_probes += 1
            probe = _probe_for(instr, policy, temp_slots, plan, report)
            if probe is not None:
                new_instrs.append(probe)
            escape = _escape_for(instr, policy, temp_slots)
            if escape is not None and id(instr) in plan.escape_suppressed:
                escape = None
            if escape is not None:
                new_instrs.append(escape)
                report.escape_probes += 1
            if isinstance(instr, Call):
                _gate_call(instr, plan, report)
            new_instrs.append(instr)
        block.instrs = new_instrs


def _probe_for(instr, policy, temp_slots, plan, report) -> Optional[ProbeAccess]:
    if not policy.track_sets:
        return None
    if isinstance(instr, Load):
        if isinstance(instr.ptr, Temp) and instr.ptr.name in temp_slots:
            return None
        if id(instr) in plan.suppressed:
            report.suppressed_probes += 1
            return None
        report.access_probes += 1
        return ProbeAccess(
            AccessKind.READ, instr.ptr, _access_size(instr.result.ty),
            instr.var, instr.loc,
        )
    if isinstance(instr, Store):
        if isinstance(instr.ptr, Temp) and instr.ptr.name in temp_slots:
            return None
        if id(instr) in plan.suppressed:
            report.suppressed_probes += 1
            return None
        pointee = (instr.ptr.ty.pointee
                   if isinstance(instr.ptr.ty, ct.PointerType)
                   else instr.value.ty)
        report.access_probes += 1
        return ProbeAccess(
            AccessKind.WRITE, instr.ptr, _access_size(pointee),
            instr.var, instr.loc,
        )
    return None


def _escape_for(instr, policy, temp_slots) -> Optional[ProbeEscape]:
    if not policy.track_reachability:
        return None
    if not isinstance(instr, Store):
        return None
    if isinstance(instr.ptr, Temp) and instr.ptr.name in temp_slots:
        return None
    if not isinstance(instr.value.ty, ct.PointerType):
        return None
    return ProbeEscape(instr.value, instr.ptr, instr.loc)


def _gate_call(instr: Call, plan: InstrumentationPlan,
               report: InstrumentationReport) -> None:
    if id(instr) in plan.pin_cleared:
        instr.pin_gated = False
        report.pin_gates_cleared += 1
        return
    if plan.gate_all_calls:
        instr.pin_gated = True
        report.pin_gates += 1


# ---------------------------------------------------------------------------
# Registered passes
# ---------------------------------------------------------------------------


@register_pass
class InstrumentPass(Pass):
    """Materialize the pipeline's accumulated plan into probe IR.

    With no planning passes ahead of it the plan is empty, so this gates
    every call and probes every access under the context's policy."""

    name = "instrument"
    mutates_ir = True

    def run(self, module, am, ctx) -> bool:
        report = instrument_module(module, ctx.ensure_plan())
        ctx.instrument_report = report
        if ctx.build_info is not None:
            ctx.build_info.report = report
        return True


@register_pass
class NaiveInstrumentPass(Pass):
    """The no-PSEC-specific-optimization instrumenter of Figures 7/10/11:
    probe every access, gate every call, ignore any accumulated plan."""

    name = "naive-instrument"
    mutates_ir = True

    def run(self, module, am, ctx) -> bool:
        if ctx.policy is None:
            raise ReproError("naive-instrument needs an instrumentation "
                             "policy in the pipeline context")
        ctx.plan = InstrumentationPlan.naive(ctx.policy)
        report = instrument_module(module, ctx.plan)
        ctx.instrument_report = report
        if ctx.build_info is not None:
            ctx.build_info.report = report
        return True

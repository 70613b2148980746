"""IR instructions.

Each instruction carries a :class:`SourceLoc` pointing back at the MiniC
source — the reversible source↔IR mapping of §4.4 — and, where relevant, the
:class:`VarInfo` of the source variable it touches.  Instrumentation probes
(``Probe*``) are ordinary instructions inserted by the CARMOT compiler
(:mod:`repro.compiler`); the VM forwards them to the runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.ir.values import Const, FunctionRef, Temp, Value

#: Arithmetic/bitwise binary opcodes.
ARITH_OPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr")
#: Comparison opcodes (result is int 0/1).
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Commutative/associative opcodes usable in an OpenMP ``reduction`` clause,
#: mapped to the pragma operator spelling (§3.2).
REDUCIBLE_OPS = {
    "add": "+",
    "mul": "*",
    "and": "&",
    "or": "|",
    "xor": "^",
    "min": "min",
    "max": "max",
}


@dataclass(frozen=True, slots=True)
class SourceLoc:
    """Where an instruction came from in the MiniC source.

    Frozen and interned: :meth:`of` returns one shared instance per
    (filename, line, column), so the runtime can key intern tables on
    location identity without holding duplicate objects per instruction.
    """

    filename: str
    line: int
    column: int

    _interned = {}

    @classmethod
    def of(cls, pos: SourcePos) -> "SourceLoc":
        key = (pos.filename, pos.line, pos.column)
        loc = cls._interned.get(key)
        if loc is None:
            loc = cls(*key)
            cls._interned[key] = loc
        return loc

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"


@dataclass
class VarInfo:
    """Identity of a source-level variable PSE.

    ``uid`` matches :class:`repro.lang.sema.Symbol.uid`; ``storage`` is one
    of ``local``/``param``/``global``.  The VM keys variable PSEs on this.
    """

    uid: int
    name: str
    storage: str
    ty: ct.Type
    decl_loc: Optional[SourceLoc] = None

    def __str__(self) -> str:
        return f"{self.storage}:{self.name}#{self.uid}"


class Instr:
    """Base class.  Subclasses define ``result`` (Temp or None) and operands."""

    loc: Optional[SourceLoc]
    result: Optional[Temp]

    def operands(self) -> Sequence[Value]:
        return ()

    def replace_operand(self, old: Value, new: Value) -> None:
        for fname in self.__dataclass_fields__:  # type: ignore[attr-defined]
            if getattr(self, fname) is old:
                setattr(self, fname, new)

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Jump, Branch, Ret))


@dataclass
class Alloca(Instr):
    """Reserve a stack slot for a source variable (or a lowering temp)."""

    result: Temp
    allocated_type: ct.Type
    var: Optional[VarInfo]
    loc: Optional[SourceLoc] = None
    promoted: bool = False  # set by selective mem2reg (opt 4)

    def __str__(self) -> str:
        who = f" ; {self.var}" if self.var else ""
        return f"{self.result} = alloca {self.allocated_type}{who}"


@dataclass
class Load(Instr):
    result: Temp
    ptr: Value
    var: Optional[VarInfo] = None
    loc: Optional[SourceLoc] = None

    def operands(self):
        return (self.ptr,)

    def __str__(self) -> str:
        return f"{self.result} = load {self.result.ty}, {self.ptr}"


@dataclass
class Store(Instr):
    value: Value
    ptr: Value
    var: Optional[VarInfo] = None
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def operands(self):
        return (self.value, self.ptr)

    def __str__(self) -> str:
        return f"store {self.value}, {self.ptr}"


@dataclass
class BinOp(Instr):
    result: Temp
    op: str
    lhs: Value
    rhs: Value
    loc: Optional[SourceLoc] = None

    def operands(self):
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{self.result} = {self.op} {self.lhs}, {self.rhs}"


@dataclass
class Cast(Instr):
    """Type conversion: int<->float, pointer bitcasts, int<->pointer."""

    result: Temp
    value: Value
    loc: Optional[SourceLoc] = None

    def operands(self):
        return (self.value,)

    def __str__(self) -> str:
        return f"{self.result} = cast {self.value} to {self.result.ty}"


@dataclass
class AddrOffset(Instr):
    """Address arithmetic: ``result = base + index * scale + offset``.

    The single explicit addressing instruction (GEP analogue).  Keeping
    index and scale structured—rather than folding into generic adds—is what
    lets the aggregation optimization (§4.4.2) recognise loop-indexed
    contiguous accesses.
    """

    result: Temp
    base: Value
    index: Value
    scale: int
    offset: int
    loc: Optional[SourceLoc] = None

    def operands(self):
        return (self.base, self.index)

    def __str__(self) -> str:
        return (
            f"{self.result} = addr {self.base} + {self.index}*{self.scale}"
            f" + {self.offset}"
        )


@dataclass
class Phi(Instr):
    """SSA φ-node, introduced only by mem2reg (baseline ``-O3`` analogue and
    the selective mem2reg of §4.4.4).  ``incomings`` maps predecessor Block
    -> incoming value; all φs at a block head read their inputs atomically.
    """

    result: Temp
    incomings: "dict"  # Block -> Value
    loc: Optional[SourceLoc] = None

    def operands(self):
        return tuple(self.incomings.values())

    def replace_operand(self, old: Value, new: Value) -> None:
        for block, value in list(self.incomings.items()):
            if value is old:
                self.incomings[block] = new

    def __str__(self) -> str:
        arms = ", ".join(
            f"[{getattr(b, 'label', b)}: {v}]" for b, v in self.incomings.items()
        )
        return f"{self.result} = phi {arms}"


@dataclass
class Call(Instr):
    result: Optional[Temp]
    callee: Value  # FunctionRef or a pointer-typed value
    args: List[Value]
    loc: Optional[SourceLoc] = None
    #: True when the Pintool must be enabled around this call because it may
    #: reach precompiled code (§4.5); opt 6 clears it where provably safe.
    pin_gated: bool = False

    def operands(self):
        return (self.callee, *self.args)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.callee is old:
            self.callee = new
        self.args = [new if arg is old else arg for arg in self.args]

    @property
    def direct_target(self) -> Optional[str]:
        if isinstance(self.callee, FunctionRef):
            return self.callee.name
        return None

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        gate = " !pin" if self.pin_gated else ""
        prefix = f"{self.result} = " if self.result else ""
        return f"{prefix}call {self.callee}({args}){gate}"


@dataclass
class Jump(Instr):
    target: "object"  # Block; stringly typed to avoid a circular import
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return f"jmp {getattr(self.target, 'label', self.target)}"


@dataclass
class Branch(Instr):
    cond: Value
    if_true: "object"
    if_false: "object"
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def operands(self):
        return (self.cond,)

    def __str__(self) -> str:
        t = getattr(self.if_true, "label", self.if_true)
        f = getattr(self.if_false, "label", self.if_false)
        return f"br {self.cond}, {t}, {f}"


@dataclass
class Ret(Instr):
    value: Optional[Value]
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def operands(self):
        return (self.value,) if self.value is not None else ()

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


@dataclass
class RoiBegin(Instr):
    """Marks entry into a Region Of Interest (a new dynamic invocation)."""

    roi_id: int
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return f"roi.begin #{self.roi_id}"


@dataclass
class RoiEnd(Instr):
    roi_id: int
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return f"roi.end #{self.roi_id}"


@dataclass
class RoiReset(Instr):
    """Starts a new PSEC *epoch* for a loop-body ROI.

    Emitted before each entry to the ROI's loop: dependences crossing whole
    loop executions are not loop-carried within one execution, so each
    execution is characterized separately and the per-epoch PSECs combine
    by the §4.2 set-union rule (Cloneable ⊔ Transfer → Transfer).
    """

    roi_id: int
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return f"roi.reset #{self.roi_id}"


@dataclass
class OmpRegionBegin(Instr):
    """Marks the start of an original-OpenMP region (critical/ordered/task/
    section/master/parallel_sections).  Zero-cost marker used by the
    parallel-execution simulator (Figure 6) — CARMOT itself ignores these.
    """

    kind: str
    region_id: int
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return f"omp.begin {self.kind} #{self.region_id}"


@dataclass
class OmpRegionEnd(Instr):
    kind: str
    region_id: int
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return f"omp.end {self.kind} #{self.region_id}"


@dataclass
class OmpBarrier(Instr):
    """An original ``#pragma omp barrier`` site (unsupported by CARMOT §5.1)."""

    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def __str__(self) -> str:
        return "omp.barrier"


# ---------------------------------------------------------------------------
# Instrumentation probes (inserted by repro.compiler, consumed by the VM,
# forwarded to the CARMOT runtime).
# ---------------------------------------------------------------------------


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class ProbeAccess(Instr):
    """Report one PSE access to the runtime.

    ``ptr`` is the accessed address (for variables: the alloca/global
    address), ``size`` the accessed bytes.  ``count``/``stride`` describe an
    aggregated range access (opt 2): the probe covers ``count`` elements of
    ``size`` bytes, ``stride`` bytes apart, starting at ``ptr``.
    """

    kind: AccessKind
    ptr: Value
    size: int
    var: Optional[VarInfo] = None
    loc: Optional[SourceLoc] = None
    count: Optional[Value] = None
    stride: int = 0
    result: Optional[Temp] = None
    #: Dense call-site id assigned at compile time by the ``site-table``
    #: analysis; the packed runtime encoding uses it to avoid interning
    #: (var, loc) per event.  Not part of the IR dump.
    site_id: Optional[int] = None

    def operands(self):
        ops: Tuple[Value, ...] = (self.ptr,)
        if self.count is not None:
            ops = ops + (self.count,)
        return ops

    def __str__(self) -> str:
        agg = f" x{self.count}/{self.stride}" if self.count is not None else ""
        who = f" ; {self.var}" if self.var else ""
        return f"probe.{self.kind.value} {self.ptr}, {self.size}{agg}{who}"


@dataclass
class ProbeClassify(Instr):
    """Directly force FSA set membership for a PSE (opt 3, §4.4).

    Emitted once (e.g. in a loop preheader) for PSEs whose classification is
    provable at compile time: ``states`` is a string drawn from "IOC" —
    the FSA sets the PSE's membership without per-access events.
    """

    states: str
    ptr: Value
    size: int
    var: Optional[VarInfo] = None
    loc: Optional[SourceLoc] = None
    count: Optional[Value] = None
    stride: int = 0
    #: Explicit ROI binding: hoisted classify probes execute outside the
    #: ROI's dynamic extent (e.g. in a loop preheader) and must name it.
    roi_id: Optional[int] = None
    result: Optional[Temp] = None
    #: See :attr:`ProbeAccess.site_id`.
    site_id: Optional[int] = None

    def operands(self):
        ops: Tuple[Value, ...] = (self.ptr,)
        if self.count is not None:
            ops = ops + (self.count,)
        return ops

    def __str__(self) -> str:
        return f"probe.classify[{self.states}] {self.ptr}, {self.size}"


@dataclass
class ProbeEscape(Instr):
    """Report a pointer escape: ``value`` (a pointer) stored into ``ptr``.

    Feeds the Reachability Graph (§3.1) used for reference-cycle discovery.
    """

    value: Value
    ptr: Value
    loc: Optional[SourceLoc] = None
    result: Optional[Temp] = None

    def operands(self):
        return (self.value, self.ptr)

    def __str__(self) -> str:
        return f"probe.escape {self.value} -> {self.ptr}"

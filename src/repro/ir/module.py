"""IR containers: basic blocks, functions, modules, and the ROI table."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.ir.instructions import (
    Alloca,
    Branch,
    Instr,
    Jump,
    Ret,
    SourceLoc,
    VarInfo,
)


class Block:
    """A basic block: a label, a list of instructions, one terminator."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.instrs: List[Instr] = []
        self.parent: Optional["Function"] = None

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["Block"]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]  # type: ignore[list-item]
        if isinstance(term, Branch):
            if term.if_true is term.if_false:
                return [term.if_true]  # type: ignore[list-item]
            return [term.if_true, term.if_false]  # type: ignore[list-item]
        return []

    def append(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr}" for instr in self.instrs)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Block {self.label}>"


class Function:
    """An IR function.

    ``param_vars`` holds the VarInfo of each parameter (in order) and
    ``var_allocas`` maps variable uid -> its Alloca instruction: this is the
    source-to-IR variable mapping PSEC depends on.
    """

    def __init__(self, name: str, ftype: ct.FunctionType) -> None:
        self.name = name
        self.type = ftype
        self.blocks: List[Block] = []
        self.param_vars: List[VarInfo] = []
        self.var_allocas: Dict[int, Alloca] = {}
        self._label_counter = itertools.count()
        self._temp_counter = itertools.count()
        #: Set by the call-graph optimization (§4.4.5) when this function can
        #: never be live on the callstack at an ROI start and was therefore
        #: optimized conventionally (-O3 analogue) and left uninstrumented.
        self.conventionally_optimized = False

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def new_block(self, hint: str = "bb") -> Block:
        block = Block(f"{hint}{next(self._label_counter)}")
        block.parent = self
        self.blocks.append(block)
        return block

    def new_temp_name(self) -> str:
        return f"t{next(self._temp_counter)}"

    def predecessors(self) -> Dict[Block, List[Block]]:
        preds: Dict[Block, List[Block]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def instruction_count(self) -> int:
        return sum(len(block.instrs) for block in self.blocks)

    def remove_unreachable_blocks(self) -> None:
        reachable = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block in reachable:
                continue
            reachable.add(block)
            stack.extend(block.successors())
        self.blocks = [b for b in self.blocks if b in reachable]

    def __str__(self) -> str:
        params = ", ".join(str(v) for v in self.param_vars)
        head = f"func {self.name}({params}) -> {self.type.return_type} {{"
        body = "\n".join(str(b) for b in self.blocks)
        return f"{head}\n{body}\n}}"


@dataclass(frozen=True)
class IrStats:
    """Module size counters; deltas of these summarize what a pass did."""

    functions: int
    blocks: int
    instructions: int


@dataclass
class GlobalVariable:
    name: str
    ty: ct.Type
    var: VarInfo
    init: Optional[object] = None  # int/float literal


@dataclass
class RoiInfo:
    """Static metadata about one Region Of Interest.

    ``is_loop_body`` is true when the ROI wraps the body of a loop (the
    common case for parallelization: each loop iteration is one dynamic
    invocation).  ``function`` is the enclosing function's name.
    """

    roi_id: int
    name: str
    abstraction: Optional[str]
    function: str
    loc: SourceLoc
    is_loop_body: bool = False
    #: For loop-body ROIs: VarInfo of the loop-governing induction variable,
    #: filled in by lowering when the loop has a recognisable `for` shape.
    induction_var: Optional[VarInfo] = None
    #: Original OpenMP pragmas attached to the same statement, if any (used
    #: by the Figure 6 harness to compare with generated pragmas).
    original_omp: List[object] = field(default_factory=list)


@dataclass
class OmpRegionInfo:
    """Static metadata about an original-OpenMP marker region."""

    region_id: int
    kind: str
    pragma: object  # repro.lang.pragmas.OmpPragma
    function: str
    loc: SourceLoc


@dataclass
class OmpLoopInfo:
    """An original ``#pragma omp parallel for`` site; ``roi_id`` links it to
    the CARMOT ROI wrapping the same loop body (when one exists)."""

    pragma: object
    function: str
    loc: SourceLoc
    roi_id: Optional[int] = None


class Module:
    """A compiled MiniC translation unit."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.rois: Dict[int, RoiInfo] = {}
        self.omp_regions: Dict[int, OmpRegionInfo] = {}
        self.omp_loops: List[OmpLoopInfo] = []
        self._roi_counter = itertools.count()
        self._region_counter = itertools.count()
        #: Dense call-site table, (var, loc) per site id, filled by the
        #: ``site-table`` analysis after instrumentation.  Probes carry the
        #: matching ``site_id``; the runtime seeds its site table from
        #: this so the hot path never re-interns.
        self.site_table: List[tuple] = []

    def new_omp_region(
        self, kind: str, pragma: object, function: str, pos: SourcePos
    ) -> OmpRegionInfo:
        region_id = next(self._region_counter)
        info = OmpRegionInfo(region_id, kind, pragma, function, SourceLoc.of(pos))
        self.omp_regions[region_id] = info
        return info

    def add_function(self, function: Function) -> Function:
        self.functions[function.name] = function
        return function

    def new_roi(
        self,
        name: str,
        abstraction: Optional[str],
        function: str,
        pos: SourcePos,
    ) -> RoiInfo:
        roi_id = next(self._roi_counter)
        info = RoiInfo(
            roi_id=roi_id,
            name=name or f"roi{roi_id}",
            abstraction=abstraction,
            function=function,
            loc=SourceLoc.of(pos),
        )
        self.rois[roi_id] = info
        return info

    def ir_stats(self) -> "IrStats":
        """Cheap size snapshot, used for per-pass IR-delta reporting."""
        return IrStats(
            functions=len(self.functions),
            blocks=sum(len(f.blocks) for f in self.functions.values()),
            instructions=sum(f.instruction_count()
                             for f in self.functions.values()),
        )

    def __str__(self) -> str:
        parts = [f"; module {self.name}"]
        for gvar in self.globals.values():
            init = f" = {gvar.init}" if gvar.init is not None else ""
            parts.append(f"global @{gvar.name} : {gvar.ty}{init}")
        parts.extend(str(f) for f in self.functions.values())
        return "\n\n".join(parts)

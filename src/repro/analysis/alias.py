"""Flow-insensitive, field-insensitive Andersen-style points-to analysis.

This is the memory alias analysis underpinning the complete call graph
(§4.4.5), the memory-dependence queries of the fixed-classification
optimization (§4.4.3), and Pin-gate reduction (§4.4.6): indirect calls are
resolved through the points-to sets of function-pointer values.

Abstract objects:

- ``("alloca", fn, temp)`` — one per static alloca;
- ``("global", name)`` — one per global;
- ``("heap", fn, line)`` — one per malloc/calloc call site;
- ``("func", name)`` — functions (for function pointers).

The analysis is a standard inclusion-constraint worklist solve with one
content variable per abstract object.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.instructions import (
    AddrOffset,
    Alloca,
    Call,
    Cast,
    Load,
    Phi,
    Ret,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Const, FunctionRef, GlobalRef, Temp, Value

AbstractObject = Tuple  # see module docstring
VarKey = Tuple[str, str]  # (function, temp name) or ("<obj>", object key)


class PointsTo:
    """Points-to solution with alias and call-target queries."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._pts: Dict[object, Set[AbstractObject]] = defaultdict(set)
        self._copy_edges: Dict[object, Set[object]] = defaultdict(set)
        self._loads: List[Tuple[object, object]] = []   # dst ⊇ *(src)
        self._stores: List[Tuple[object, object]] = []  # *(dst) ⊇ src
        self._indirect_calls: List[Tuple[str, Call]] = []
        self._returns: Dict[str, List[object]] = defaultdict(list)
        self._address_taken_funcs: Set[str] = set()
        self._build()
        self._solve()

    # -- constraint generation -------------------------------------------

    def _var(self, fn: str, value: Value) -> Optional[object]:
        if isinstance(value, Temp):
            return (fn, value.name)
        if isinstance(value, GlobalRef):
            return ("<addr>", ("global", value.name))
        if isinstance(value, FunctionRef):
            return ("<addr>", ("func", value.name))
        if isinstance(value, Const):
            return None
        return None

    def _seed(self, key: object) -> None:
        if isinstance(key, tuple) and key[0] == "<addr>":
            self._pts[key].add(key[1])

    def _content(self, obj: AbstractObject) -> object:
        return ("<content>", obj)

    def _build(self) -> None:
        for function in self.module.functions.values():
            fn = function.name
            for block in function.blocks:
                for instr in block.instrs:
                    self._constrain(fn, instr)

    def _constrain(self, fn: str, instr) -> None:
        kind = type(instr)
        if kind is Alloca:
            self._pts[(fn, instr.result.name)].add(("alloca", fn,
                                                    instr.result.name))
        elif kind is AddrOffset or kind is Cast:
            src = self._var(fn, instr.base if kind is AddrOffset else instr.value)
            if src is not None:
                self._seed(src)
                self._copy_edges[src].add((fn, instr.result.name))
        elif kind is Phi:
            for value in instr.incomings.values():
                src = self._var(fn, value)
                if src is not None:
                    self._seed(src)
                    self._copy_edges[src].add((fn, instr.result.name))
        elif kind is Load:
            src = self._var(fn, instr.ptr)
            if src is not None:
                self._seed(src)
                self._loads.append(((fn, instr.result.name), src))
        elif kind is Store:
            dst = self._var(fn, instr.ptr)
            src = self._var(fn, instr.value)
            if dst is not None and src is not None:
                self._seed(dst)
                self._seed(src)
                self._stores.append((dst, src))
            if isinstance(instr.value, FunctionRef):
                self._address_taken_funcs.add(instr.value.name)
        elif kind is Ret:
            if instr.value is not None:
                src = self._var(fn, instr.value)
                if src is not None:
                    self._seed(src)
                    self._returns[fn].append(src)
        elif kind is Call:
            self._constrain_call(fn, instr)

    def _constrain_call(self, fn: str, instr: Call) -> None:
        for arg in instr.args:
            if isinstance(arg, FunctionRef):
                self._address_taken_funcs.add(arg.name)
        target = instr.direct_target
        if target is None:
            self._indirect_calls.append((fn, instr))
            return
        if isinstance(instr.callee, FunctionRef) and instr.callee.is_builtin:
            if target in ("malloc", "calloc") and instr.result is not None:
                self._pts[(fn, instr.result.name)].add(
                    ("heap", fn, instr.loc.line if instr.loc else 0)
                )
            return
        self._bind_call(fn, instr, target)

    def _bind_call(self, fn: str, instr: Call, target: str) -> None:
        callee = self.module.functions.get(target)
        if callee is None:
            return
        for index, arg in enumerate(instr.args):
            src = self._var(fn, arg)
            if src is not None:
                self._seed(src)
                self._copy_edges[src].add((target, f"arg{index}"))
        if instr.result is not None:
            for src in self._returns.get(target, ()):
                self._copy_edges[src].add((fn, instr.result.name))

    # -- solving ------------------------------------------------------------

    def _solve(self) -> None:
        bound_indirect: Set[Tuple[int, str]] = set()
        changed = True
        while changed:
            changed = False
            # Copy edges.
            worklist = [k for k in list(self._pts) if self._pts[k]]
            while worklist:
                key = worklist.pop()
                pts = self._pts[key]
                for dst in self._copy_edges.get(key, ()):
                    before = len(self._pts[dst])
                    self._pts[dst] |= pts
                    if len(self._pts[dst]) != before:
                        worklist.append(dst)
                        changed = True
            # Loads and stores through contents.
            for dst, src in self._loads:
                for obj in self._pts.get(src, ()):
                    content = self._content(obj)
                    if not self._pts[content] <= self._pts[dst]:
                        self._pts[dst] |= self._pts[content]
                        changed = True
            for dst, src in self._stores:
                for obj in self._pts.get(dst, ()):
                    content = self._content(obj)
                    if not self._pts[src] <= self._pts[content]:
                        self._pts[content] |= self._pts[src]
                        changed = True
            # Newly resolved indirect calls.
            for fn, instr in self._indirect_calls:
                callee_key = self._var(fn, instr.callee)
                if callee_key is None:
                    continue
                for obj in list(self._pts.get(callee_key, ())):
                    if obj[0] == "func":
                        mark = (id(instr), obj[1])
                        if mark not in bound_indirect:
                            bound_indirect.add(mark)
                            self._bind_call(fn, instr, obj[1])
                            changed = True

    # -- queries -------------------------------------------------------------

    def points_to(self, fn: str, value: Value) -> FrozenSet[AbstractObject]:
        key = self._var(fn, value)
        if key is None:
            if isinstance(value, GlobalRef):
                return frozenset({("global", value.name)})
            return frozenset()
        if isinstance(key, tuple) and key[0] == "<addr>":
            return frozenset({key[1]})
        return frozenset(self._pts.get(key, ()))

    def may_alias(self, fn_a: str, a: Value, fn_b: str, b: Value) -> bool:
        """May the addresses ``a`` and ``b`` point into the same object?

        Empty points-to sets (unknown provenance) answer True, keeping the
        analysis conservative.
        """
        pts_a = self.points_to(fn_a, a)
        pts_b = self.points_to(fn_b, b)
        if not pts_a or not pts_b:
            return True
        return bool(pts_a & pts_b)

    def call_targets(self, fn: str, instr: Call) -> List[str]:
        """Possible user-function targets of a call.

        For indirect calls with empty points-to information, every
        address-taken function is a candidate (completeness requirement of
        §4.4.5).
        """
        direct = instr.direct_target
        if direct is not None:
            return [direct] if direct in self.module.functions else []
        pts = self.points_to(fn, instr.callee)
        targets = sorted(obj[1] for obj in pts if obj[0] == "func")
        if not targets:
            targets = sorted(
                self._address_taken_funcs & set(self.module.functions)
            )
        return targets

    def may_reach_builtin(self, fn: str, instr: Call) -> bool:
        """May this call (possibly indirectly) invoke precompiled code?"""
        if isinstance(instr.callee, FunctionRef):
            return instr.callee.is_builtin
        pts = self.points_to(fn, instr.callee)
        if not pts:
            return True  # unknown target: must keep the Pin gate
        return any(obj[0] == "func" and obj[1] not in self.module.functions
                   for obj in pts)

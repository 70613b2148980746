"""The VM memory model.

A single flat 64-bit-style address space with three bump-allocated regions
(globals, stack, heap).  Every allocation is a :class:`MemoryObject` backed
by a ``bytearray``; scalar accesses use little-endian 8-byte ints/doubles
(1 byte for ``char``), so pointer values are plain Python ints and
``memcpy``-style byte traffic works across object types.

The memory keeps allocation metadata (site, callstack, logical time) because
PSEC needs it: the Sets classification reports *where and in which context*
a PSE was allocated (§3.1), and the smart-pointer use case ranks cycle nodes
by access time (§3.2).

The VM does its typed loads and stores itself: each load or store
instruction keeps the object it resolved last (a per-run cache, see
:mod:`repro.vm.bcinterp`), packs and unpacks with :data:`SCALAR_CODECS`,
and calls :meth:`Memory._resolve` only when the access is not inside that
object or the object is freed.  ``_resolve`` is the one place that raises
invalid-address, use-after-free and out-of-bounds faults, so their types
and messages do not depend on the cache.  :meth:`Memory.read_scalar` and
:meth:`Memory.write_scalar` serve global initialisation and the test
oracle.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import BudgetExceeded, MemoryFault, TrapError, VMError
from repro.lang import types as ct
from repro.ir.instructions import SourceLoc, VarInfo

GLOBAL_BASE = 0x0001_0000
STACK_BASE = 0x1000_0000
HEAP_BASE = 0x4000_0000
#: Function "addresses" for function pointers live above all data segments.
FUNC_PTR_BASE = 0x7000_0000

#: Exclusive upper bound of each bump-allocated segment.  A segment that
#: grew past its neighbour's base would alias foreign objects (or, for the
#: heap, function-pointer "addresses"), so :meth:`Memory.allocate` refuses
#: to cross these.
SEGMENT_LIMITS = {
    "global": STACK_BASE,
    "stack": HEAP_BASE,
    "heap": FUNC_PTR_BASE,
}


_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_CHAR = struct.Struct("<B")

#: ``(size, unpack_from, pack_into, convert, wrap)`` for int, float and
#: char, in the order of the bytecode's ``TY_*`` codes.  A store packs
#: ``convert(value)`` and falls back to the C-style ``wrap(value)`` when
#: that is out of the type's range.
SCALAR_CODECS = (
    (8, _INT.unpack_from, _INT.pack_into, int, lambda v: _wrap64(int(v))),
    (8, _FLOAT.unpack_from, _FLOAT.pack_into, float, float),
    (1, _CHAR.unpack_from, _CHAR.pack_into, int, lambda v: int(v) & 0xFF),
)


@dataclass(slots=True)
class MemoryObject:
    """One allocation: a global, a stack slot, or a heap block."""

    obj_id: int
    base: int
    size: int
    kind: str  # "global" | "stack" | "heap"
    data: bytearray
    var: Optional[VarInfo] = None
    alloc_loc: Optional[SourceLoc] = None
    alloc_callstack: Tuple[str, ...] = ()
    alloc_time: int = 0
    freed: bool = False
    #: set when free() is called; leak accounting uses alive heap objects.
    free_time: Optional[int] = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:
        who = self.var.name if self.var else "?"
        return f"<obj#{self.obj_id} {self.kind} {who} @{self.base:#x}+{self.size}>"


class Memory:
    """Flat memory with object bookkeeping and bounds/liveness checking."""

    def __init__(self) -> None:
        # Each segment is bump-allocated, so per-segment base lists stay
        # sorted even though allocations interleave across segments.
        self._objects: Dict[str, List[MemoryObject]] = {
            "global": [], "stack": [], "heap": [],
        }
        self._bases: Dict[str, List[int]] = {
            "global": [], "stack": [], "heap": [],
        }
        self._next: Dict[str, int] = {
            "global": GLOBAL_BASE,
            "stack": STACK_BASE,
            "heap": HEAP_BASE,
        }
        self._obj_counter = 0
        self._dead = 0
        #: Last object a lookup resolved, checked before the bisect (loop
        #: bodies re-touch the same array); starts empty, matching nothing.
        self._last = MemoryObject(0, 0, 0, "global", bytearray())
        self.clock = 0  # logical time, bumped by the interpreter
        self.heap_bytes_allocated = 0
        self.heap_bytes_freed = 0
        #: Live-heap budget in bytes (0 = unlimited); allocations past it
        #: raise :class:`BudgetExceeded` instead of growing host memory.
        self.heap_limit = 0

    # -- allocation ---------------------------------------------------------

    def allocate(
        self,
        size: int,
        kind: str,
        var: Optional[VarInfo] = None,
        loc: Optional[SourceLoc] = None,
        callstack: Tuple[str, ...] = (),
        zero: bool = True,
    ) -> MemoryObject:
        if size < 0:
            raise MemoryFault(f"negative allocation size {size}")
        size = max(size, 1)
        if kind == "heap" and self.heap_limit:
            live = self.heap_bytes_allocated - self.heap_bytes_freed
            if live + size > self.heap_limit:
                raise BudgetExceeded(
                    f"heap budget exceeded: {live} bytes live + {size} "
                    f"requested > limit {self.heap_limit}"
                )
        base = self._next[kind]
        # Refuse to grow a segment into its neighbour (checked before the
        # backing bytearray exists, so a huge request cannot consume host
        # memory on its way to the error).
        if base + size + 1 > SEGMENT_LIMITS[kind]:
            raise VMError(
                f"{kind} segment overflow: allocating {size} bytes at "
                f"{base:#x} would cross {SEGMENT_LIMITS[kind]:#x}"
            )
        # Pad with a guard byte so adjacent objects are never contiguous and
        # off-by-one pointers fault instead of silently touching a neighbour.
        self._next[kind] = base + size + 1
        self._obj_counter += 1
        obj = MemoryObject(
            obj_id=self._obj_counter,
            base=base,
            size=size,
            kind=kind,
            data=bytearray(size),
            var=var,
            alloc_loc=loc,
            alloc_callstack=callstack,
            alloc_time=self.clock,
        )
        if kind == "heap":
            self.heap_bytes_allocated += size
        self._objects[kind].append(obj)
        self._bases[kind].append(base)
        return obj

    def free(self, addr: int) -> MemoryObject:
        obj = self.object_at(addr)
        if obj.base != addr:
            raise MemoryFault(f"free of interior pointer {addr:#x} into {obj!r}")
        if obj.kind != "heap":
            raise MemoryFault(f"free of non-heap object {obj!r}")
        obj.freed = True
        obj.free_time = self.clock
        self.heap_bytes_freed += obj.size
        self._dead += 1
        return obj

    def release_stack_object(self, obj: MemoryObject) -> None:
        """Called by the interpreter when a frame pops."""
        obj.freed = True
        obj.free_time = self.clock
        self._dead += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._dead > 4096 and self._dead * 2 > len(self._objects["stack"]):
            alive = [o for o in self._objects["stack"] if not o.freed]
            self._objects["stack"] = alive
            self._bases["stack"] = [o.base for o in alive]
            self._dead = 0

    # -- lookup ----------------------------------------------------------------

    def object_at(self, addr: int) -> MemoryObject:
        obj = self._last
        base = obj.base
        if base <= addr < base + obj.size and not obj.freed:
            return obj
        obj = self._bisect(addr)
        if obj is None:
            raise MemoryFault(f"invalid address {addr:#x}")
        if obj.freed:
            raise MemoryFault(f"use-after-free at {addr:#x} in {obj!r}")
        self._last = obj
        return obj

    def try_object_at(self, addr: int) -> Optional[MemoryObject]:
        """Like :meth:`object_at` but returns None for invalid/freed addrs."""
        obj = self._last
        base = obj.base
        if base <= addr < base + obj.size and not obj.freed:
            return obj
        obj = self._bisect(addr)
        if obj is None or obj.freed:
            return None
        self._last = obj
        return obj

    def _bisect(self, addr: int) -> Optional[MemoryObject]:
        """The object whose bytes hold ``addr``, freed or not."""
        segment = ("heap" if addr >= HEAP_BASE
                   else "stack" if addr >= STACK_BASE else "global")
        index = bisect.bisect_right(self._bases[segment], addr) - 1
        if index >= 0:
            obj = self._objects[segment][index]
            if addr < obj.base + obj.size:
                return obj
        return None

    @property
    def leaked_bytes(self) -> int:
        return self.heap_bytes_allocated - self.heap_bytes_freed

    # -- typed access --------------------------------------------------------------

    def read_scalar(self, addr: int, ty: ct.Type):
        size, unpack, _, _, _ = SCALAR_CODECS[_type_code(ty)]
        obj, off = self._resolve(addr, size)
        return unpack(obj.data, off)[0]

    def write_scalar(self, addr: int, value, ty: ct.Type) -> None:
        size, _, pack, convert, wrap = SCALAR_CODECS[_type_code(ty)]
        obj, off = self._resolve(addr, size)
        try:
            pack(obj.data, off, convert(value))
        except struct.error:
            pack(obj.data, off, wrap(value))

    def read_bytes(self, addr: int, size: int) -> bytes:
        obj, off = self._resolve(addr, size)
        return bytes(obj.data[off : off + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        obj, off = self._resolve(addr, len(payload))
        obj.data[off : off + len(payload)] = payload

    def _resolve(self, addr: int, size: int) -> Tuple[MemoryObject, int]:
        """The live object holding ``size`` bytes at ``addr`` and the
        offset of ``addr`` in it, or a fault."""
        obj = self.object_at(addr)
        off = addr - obj.base
        if off + size > obj.size:
            raise MemoryFault(
                f"out-of-bounds access at {addr:#x} (+{size}) in {obj!r}"
            )
        return obj, off


def _type_code(ty: ct.Type) -> int:
    """The :data:`SCALAR_CODECS` index of a scalar type."""
    if isinstance(ty, ct.CharType):
        return 2
    if isinstance(ty, ct.FloatType):
        return 1
    return 0


def to_int(value) -> int:
    """``int(value)`` for a cast, trapping on infinity and NaN (undefined
    behaviour in C) instead of leaking a Python conversion error."""
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise TrapError(f"cannot convert {value} to an integer") from None


def _wrap64(value: int) -> int:
    """Wrap a Python int into signed 64-bit range, C-style."""
    value &= (1 << 64) - 1
    if value >= 1 << 63:
        value -= 1 << 64
    return value


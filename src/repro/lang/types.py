"""The MiniC type system.

These types are shared between the front-end (semantic analysis) and the IR
(instruction result types), which keeps the source-to-IR mapping that PSEC
relies on trivially reversible.  Layout matches a 64-bit target: ``int`` and
``float`` are 8 bytes, ``char`` is 1 byte, pointers are 8 bytes.  Struct
fields are laid out in declaration order with natural alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SemanticError

POINTER_SIZE = 8


class Type:
    """Base class for MiniC types.  Types are compared structurally."""

    def size(self) -> int:
        raise NotImplementedError

    def alignment(self) -> int:
        return min(self.size(), POINTER_SIZE) or 1

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, (IntType, FloatType, CharType, PointerType))


@dataclass(frozen=True)
class VoidType(Type):
    def size(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    def size(self) -> int:
        return 8

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class CharType(Type):
    def size(self) -> int:
        return 1

    def __str__(self) -> str:
        return "char"


@dataclass(frozen=True)
class FloatType(Type):
    def size(self) -> int:
        return 8

    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def size(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def size(self) -> int:
        return self.element.size() * self.count

    def alignment(self) -> int:
        return self.element.alignment()

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass
class StructType(Type):
    """A named struct.

    Structs are nominal: two structs with the same fields but different
    names are distinct.  Field layout is computed lazily once the body is
    attached (supporting self-referential structs via pointers).
    """

    name: str
    fields: List[Tuple[str, Type]] = field(default_factory=list)
    _layout: Optional[Dict[str, int]] = None
    _size: Optional[int] = None

    def set_body(self, fields: List[Tuple[str, Type]]) -> None:
        self.fields = list(fields)
        self._layout = None
        self._size = None

    def _compute_layout(self) -> None:
        offset = 0
        layout: Dict[str, int] = {}
        max_align = 1
        for fname, ftype in self.fields:
            align = ftype.alignment()
            max_align = max(max_align, align)
            offset = _align_up(offset, align)
            layout[fname] = offset
            offset += ftype.size()
        self._layout = layout
        self._size = _align_up(offset, max_align) if offset else 0

    def field_offset(self, name: str) -> int:
        if self._layout is None:
            self._compute_layout()
        assert self._layout is not None
        if name not in self._layout:
            raise SemanticError(f"struct {self.name} has no field {name!r}")
        return self._layout[name]

    def field_type(self, name: str) -> Type:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise SemanticError(f"struct {self.name} has no field {name!r}")

    def size(self) -> int:
        if self._size is None:
            self._compute_layout()
        assert self._size is not None
        return self._size

    def alignment(self) -> int:
        if not self.fields:
            return 1
        return max(ftype.alignment() for _, ftype in self.fields)

    def __str__(self) -> str:
        return f"struct {self.name}"

    def __hash__(self) -> int:
        return hash(("struct", self.name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name


@dataclass(frozen=True)
class FunctionType(Type):
    return_type: Type
    param_types: Tuple[Type, ...]

    def size(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type}({params})"


INT = IntType()
CHAR = CharType()
FLOAT = FloatType()
VOID = VoidType()


def _align_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align


def is_integer(t: Type) -> bool:
    return isinstance(t, (IntType, CharType))


def is_arithmetic(t: Type) -> bool:
    return isinstance(t, (IntType, CharType, FloatType))


def decay(t: Type) -> Type:
    """Array-to-pointer decay, as in C expression contexts."""
    if isinstance(t, ArrayType):
        return PointerType(t.element)
    if isinstance(t, FunctionType):
        return PointerType(t)
    return t


def common_arithmetic_type(a: Type, b: Type) -> Type:
    """Usual arithmetic conversions for binary operators."""
    if not (is_arithmetic(a) and is_arithmetic(b)):
        raise SemanticError(f"no common arithmetic type for {a} and {b}")
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        return FLOAT
    return INT


def assignable(target: Type, value: Type) -> bool:
    """Whether ``value`` can be assigned to an lvalue of type ``target``."""
    target = decay(target)
    value = decay(value)
    if target == value:
        return True
    if is_arithmetic(target) and is_arithmetic(value):
        return True
    if isinstance(target, PointerType) and isinstance(value, PointerType):
        # Permit void*-style mixing through char* and exact match otherwise.
        return True
    if isinstance(target, PointerType) and is_integer(value):
        # NULL (and 0) is an integer literal in MiniC.
        return True
    return False

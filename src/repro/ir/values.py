"""IR values: constants, virtual registers, and symbol references.

The IR is deliberately LLVM-shaped but *unoptimized by construction*: every
source variable lives in an ``alloca`` slot and every use goes through an
explicit load/store.  §2.3 of the paper explains why PSEC needs exactly this
form — ``mem2reg`` would destroy the mapping between source variables and IR
locations.  Temporaries (:class:`Temp`) hold intermediate expression values
only and never correspond to source PSEs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.lang import types as ct


class Value:
    """Base class for IR operand values."""

    ty: ct.Type


@dataclass(frozen=True)
class Const(Value):
    """A literal constant (int, float, or null pointer as integer 0)."""

    value: Union[int, float]
    ty: ct.Type

    def __str__(self) -> str:
        return f"{self.ty} {self.value}"


@dataclass(frozen=True)
class Temp(Value):
    """A virtual register, assigned exactly once by the builder."""

    name: str
    ty: ct.Type

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class GlobalRef(Value):
    """The address of a global variable (type: pointer to the global)."""

    name: str
    ty: ct.Type  # PointerType(global's type)

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class FunctionRef(Value):
    """A direct reference to a function or builtin."""

    name: str
    ty: ct.Type  # FunctionType
    is_builtin: bool = False

    def __str__(self) -> str:
        prefix = "!" if self.is_builtin else "@"
        return f"{prefix}{self.name}"


def const_int(value: int) -> Const:
    return Const(int(value), ct.INT)


def const_float(value: float) -> Const:
    return Const(float(value), ct.FLOAT)

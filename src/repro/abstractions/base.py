"""Shared infrastructure for abstraction recommendation generators.

Table 1 of the paper — which PSEC components each abstraction needs — is
declared per-recommender in :mod:`repro.recommend.recommenders` and
regenerated from the registry by
:func:`repro.recommend.registry.table1_requirements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ir.module import RoiInfo
from repro.runtime.asmt import Asmt
from repro.runtime.psec import Psec, PseKey


@dataclass(frozen=True)
class PsecRequirements:
    """One row of Table 1."""

    sets: bool
    use_callstacks: bool
    reachability_graph: bool


@dataclass
class PseDescriptor:
    """Human-readable identity of one PSE, resolved through the ASMT."""

    key: PseKey
    name: str
    is_variable: bool
    storage: str  # local/param/global/heap/stack
    alloc_loc: Optional[str] = None
    alloc_callstack: Tuple[str, ...] = ()
    element_index: Optional[int] = None

    def __str__(self) -> str:
        return self.name


def describe_pse(key: PseKey, psec: Psec, asmt: Asmt) -> PseDescriptor:
    """Resolve a PSE key into a named descriptor."""
    entry = psec.entries.get(key)
    if key[0] == "var":
        var = entry.var if entry else None
        if var is not None:
            return PseDescriptor(key, var.name, True, var.storage,
                                 str(var.decl_loc) if var.decl_loc else None)
        meta = asmt.get(key[1])
        name = meta.display_name if meta else f"pse#{key[1]}"
        return PseDescriptor(key, name, True, meta.kind if meta else "?")
    _, obj_id, offset, size = key
    meta = asmt.get(obj_id)
    if meta is None:
        return PseDescriptor(key, f"mem#{obj_id}+{offset}", False, "?")
    index = offset // size if size else offset
    base = meta.display_name
    name = f"{base}[{index}]" if meta.size > size else base
    return PseDescriptor(
        key, name, False, meta.kind,
        str(meta.alloc_loc) if meta.alloc_loc else None,
        meta.alloc_callstack, index,
    )


@dataclass
class Recommendation:
    """Base class for generated recommendations."""

    roi: RoiInfo
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        raise NotImplementedError

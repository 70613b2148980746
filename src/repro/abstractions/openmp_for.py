"""``#pragma omp parallel for`` recommendation generation (§3.2).

Mapping from the PSEC Sets (with the worked example of §2.2 in mind):

- Cloneable **variables** → ``private`` (plus ``firstprivate`` if also
  Input, ``lastprivate`` if also Output *after* the read-after-region
  refinement that keeps Figure 1's ``x`` plain-private);
- Cloneable **memory** → cloning advice: allocation site + callstack from
  the ASMT, plus ``omp_get_thread_num()`` indexing guidance;
- Input-only PSEs → ``shared``;
- Transfer variables with a uniform reducible update → ``reduction``;
- every other Transfer PSE → wrap its use statements (reported with their
  Use-callstacks) in ``critical``/``ordered`` — the choice stays with the
  programmer, exactly as the paper leaves it;
- the loop-governing induction variable → ``private`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.liveness import locals_read_after_region
from repro.analysis.regions import find_roi_region
from repro.ir.module import Module, RoiInfo
from repro.runtime.asmt import Asmt
from repro.runtime.psec import Psec, PseKey
from repro.abstractions.base import Recommendation, describe_pse
from repro.abstractions.reductions import detect_reduction
from repro.errors import RecommendationError


@dataclass
class CloneAdvice:
    """Clone a memory PSE per thread to break WAR/WAW dependences."""

    object_name: str
    alloc_loc: Optional[str]
    alloc_callstack: Tuple[str, ...]
    written_elements: int

    def render(self) -> str:
        stack = " <- ".join(reversed(self.alloc_callstack)) or "?"
        return (
            f"clone {self.object_name} per thread (allocated at "
            f"{self.alloc_loc or '?'} via {stack}); index clones with "
            f"omp_get_thread_num()"
        )


@dataclass
class OrderedAdvice:
    """Statements that must run in a critical or ordered section."""

    pse_name: str
    use_sites: List[str]

    def render(self) -> str:
        sites = ", ".join(self.use_sites) or "?"
        return (
            f"wrap statements touching {self.pse_name} (at {sites}) in "
            f"#pragma omp critical or #pragma omp ordered"
        )


@dataclass
class ParallelForRecommendation(Recommendation):
    private: List[str] = field(default_factory=list)
    firstprivate: List[str] = field(default_factory=list)
    lastprivate: List[str] = field(default_factory=list)
    shared: List[str] = field(default_factory=list)
    reductions: List[Tuple[str, str]] = field(default_factory=list)
    ordered: List[OrderedAdvice] = field(default_factory=list)
    clones: List[CloneAdvice] = field(default_factory=list)

    @property
    def needs_serialization(self) -> bool:
        return bool(self.ordered)

    def pragma_text(self) -> str:
        clauses: List[str] = []
        if self.private:
            clauses.append(f"private({', '.join(sorted(self.private))})")
        if self.firstprivate:
            clauses.append(
                f"firstprivate({', '.join(sorted(self.firstprivate))})"
            )
        if self.lastprivate:
            clauses.append(
                f"lastprivate({', '.join(sorted(self.lastprivate))})"
            )
        if self.shared:
            clauses.append(f"shared({', '.join(sorted(self.shared))})")
        for op, name in sorted(self.reductions):
            clauses.append(f"reduction({op}:{name})")
        if self.ordered:
            clauses.append("ordered")
        suffix = " " + " ".join(clauses) if clauses else ""
        return f"#pragma omp parallel for{suffix}"

    def render(self) -> str:
        lines = [
            f"ROI {self.roi.name} ({self.roi.loc}): recommended pragma:",
            f"  {self.pragma_text()}",
        ]
        for clone in self.clones:
            lines.append(f"  - {clone.render()}")
        for advice in self.ordered:
            lines.append(f"  - {advice.render()}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def generate_parallel_for(
    module: Module,
    psec: Psec,
    asmt: Asmt,
    roi: RoiInfo,
) -> ParallelForRecommendation:
    """Synthesize a parallel-for recommendation from one ROI's PSEC."""
    if not roi.is_loop_body:
        raise RecommendationError(
            f"ROI {roi.name} does not wrap a loop body; parallel for needs "
            "one dynamic invocation per iteration"
        )
    function = module.functions[roi.function]
    region = find_roi_region(function, roi.roi_id)
    rec = ParallelForRecommendation(roi=roi)
    read_after = (locals_read_after_region(function, region, True)
                  if region is not None else set())

    induction_name: Optional[str] = None
    if roi.induction_var is not None:
        induction_name = roi.induction_var.name
        rec.private.append(induction_name)

    memory_written: Dict[int, int] = {}
    memory_transfer: Dict[int, List[PseKey]] = {}
    memory_all_input: Dict[int, bool] = {}

    for key, entry in psec.entries.items():
        letters = entry.letters
        if not letters:
            continue
        desc = describe_pse(key, psec, asmt)
        if desc.is_variable and desc.storage in ("local", "param"):
            name = desc.name
            if name == induction_name:
                continue
            uid = entry.var.uid if entry.var else None
            is_output = "O" in letters and (uid is None or uid in read_after)
            if "T" in letters:
                _classify_transfer_variable(module, function, region, rec,
                                            entry, desc)
            elif "C" in letters or "O" in letters:
                rec.private.append(name)
                if "I" in letters:
                    rec.firstprivate.append(name)
                if is_output:
                    rec.lastprivate.append(name)
            elif letters == frozenset("I"):
                rec.shared.append(name)
        elif desc.is_variable:  # global scalar variable
            if "T" in letters:
                _classify_transfer_variable(module, function, region, rec,
                                            entry, desc)
            elif "C" in letters or "O" in letters:
                rec.notes.append(
                    f"global {desc.name} is written per iteration; make a "
                    "per-thread copy (globals cannot be private)"
                )
                obj_id = key[1]
                memory_written[obj_id] = memory_written.get(obj_id, 0) + 1
            else:
                rec.shared.append(desc.name)
        else:
            obj_id = key[1]
            if "T" in letters:
                memory_transfer.setdefault(obj_id, []).append(key)
            if "C" in letters or ("O" in letters and "T" not in letters):
                memory_written[obj_id] = memory_written.get(obj_id, 0) + 1
            all_input = memory_all_input.get(obj_id, True)
            memory_all_input[obj_id] = all_input and letters == frozenset("I")

    _emit_memory_advice(psec, asmt, rec, memory_written, memory_transfer,
                        memory_all_input)
    # `private` may have been double-added via firstprivate path; dedupe.
    rec.private = sorted(set(rec.private))
    rec.firstprivate = sorted(set(rec.firstprivate))
    rec.lastprivate = sorted(set(rec.lastprivate))
    rec.shared = sorted(set(rec.shared))
    return rec


def _classify_transfer_variable(module, function, region, rec, entry, desc):
    slot = None
    if entry.var is not None:
        alloca = function.var_allocas.get(entry.var.uid)
        if alloca is not None and not alloca.promoted:
            slot = alloca.result
    op = None
    if slot is not None and region is not None:
        op = detect_reduction(function, region, slot)
    if op is not None:
        rec.reductions.append((op, desc.name))
        return
    sites = sorted({site for site, _ in entry.uses})
    rec.ordered.append(OrderedAdvice(desc.name, sites))


def _emit_memory_advice(psec, asmt, rec, memory_written, memory_transfer,
                        memory_all_input):
    for obj_id, keys in sorted(memory_transfer.items()):
        meta = asmt.get(obj_id)
        base = meta.display_name if meta else f"obj#{obj_id}"
        for key in sorted(keys, key=str):
            desc = describe_pse(key, psec, asmt)
            entry = psec.entries[key]
            sites = sorted({site for site, _ in entry.uses})
            rec.ordered.append(OrderedAdvice(desc.name, sites))
    for obj_id, count in sorted(memory_written.items()):
        if obj_id in memory_transfer:
            # Transfer elements force synchronization; the rest of the
            # object can still be cloned (Figure 2's pattern).
            pass
        meta = asmt.get(obj_id)
        rec.clones.append(
            CloneAdvice(
                meta.display_name if meta else f"obj#{obj_id}",
                str(meta.alloc_loc) if meta and meta.alloc_loc else None,
                meta.alloc_callstack if meta else (),
                count,
            )
        )
    for obj_id, all_input in sorted(memory_all_input.items()):
        if all_input and obj_id not in memory_written:
            meta = asmt.get(obj_id)
            rec.shared.append(meta.display_name if meta else f"obj#{obj_id}")

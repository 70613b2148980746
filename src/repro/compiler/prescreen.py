"""Hybrid static+dynamic PSEC: the pre-screening pass.

PSEC is a *dynamic* characterization, but many PSEs of a loop-body ROI
have Set memberships that are already decidable at compile time: a
non-escaping scalar that is written before it is read on every
invocation lands in Output (+Cloneable from the second invocation on)
no matter what the data is.  The ``prescreen`` pass proves such verdicts
from the existing static analyses (dominators, loops + trip counts,
regions, the call graph) and then *strips the probes*: every access
site of a claimed PSE is suppressed, and a single ``probe.static`` per
ROI invocation replaces the whole event traffic.

The proof obligations are chosen so the hybrid result is **identical**
(at Sets level) to the fully-dynamic PSEC:

- the PSE must be a non-escaping local ``alloca`` whose address is used
  only as a ``load``/``store`` pointer (safe mode) or only through the
  canonical array-decay + induction-indexed ``addr.offset`` chain
  (aggressive mode) — so the claimed sites are provably *all* accesses;
- the ROI's function must not be transitively callable from inside any
  ROI region (no overlapping activation could observe the sites);
- a unique *first* site must dominate every other site, and execute on
  every invocation (it dominates the ROI ends, or sits in an inner loop
  with a provable ``>= 1`` trip count that runs on every invocation);
- the per-invocation access pattern must land in an FSA state closed
  under the remaining accesses, yielding one of three verdict shapes:

  ============================  =========  ============
  per-invocation pattern        1st inv.   steady state
  ============================  =========  ============
  write-first                   ``O``      ``CO``
  read-only                     ``I``      ``I``
  read-first, guaranteed write  ``IO``     ``TIO``
  ============================  =========  ============

Everything else stays dynamic.  Epoch boundaries (``roi.reset``) are
handled at runtime: ``probe.static`` executes once per invocation, the
runtime counts executions per epoch, and resolves ``once``/``steady``
letters per epoch exactly like the FSA's epoch-commit rule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.lang import types as ct
from repro.ir.instructions import (
    AddrOffset,
    Alloca,
    BinOp,
    Instr,
    Load,
    ProbeStatic,
    Store,
)
from repro.ir.module import Block, Function, Module
from repro.ir.values import Const, Temp
from repro.analysis.loops import (
    Loop,
    innermost_loop_containing,
    match_trip_count,
)
from repro.analysis.mustaccess import pse_key_of_address
from repro.analysis.regions import RoiRegion
from repro.passes.manager import AnalysisManager, Pass, PipelineContext
from repro.passes.registry import register_pass
from repro._version import PRESCREEN_SCHEMA_VERSION

PRESCREEN_MODES = ("off", "safe", "aggressive")

#: The three provable verdict shapes: (first-invocation letters,
#: steady-state letters from the second invocation of an epoch on).
VERDICT_WRITE_FIRST = ("O", "CO")
VERDICT_READ_ONLY = ("I", "I")
VERDICT_READ_THEN_WRITE = ("IO", "TIO")


@dataclass(frozen=True)
class StaticFact:
    """One compile-time Set verdict, indexed by ``probe.static``.

    ``kind`` is ``"slot"`` (a scalar local: one ``("var", obj_id)`` PSE)
    or ``"elements"`` (an induction-walked array: ``count`` contiguous
    ``("mem", obj_id, offset, size)`` granules starting at ``start``
    bytes past the probed address, ``stride`` apart).
    """

    roi_id: int
    kind: str  # "slot" | "elements"
    pse: Tuple  # syntactic key, e.g. ("alloca", fn_name, temp_name)
    var_name: Optional[str]
    once_letters: str
    steady_letters: str
    size: int
    start: int = 0
    stride: int = 0
    count: int = 1
    sites: int = 0  # access sites stripped by this fact
    mode: str = "safe"

    def to_json(self) -> Dict:
        return {
            "roi": self.roi_id,
            "kind": self.kind,
            "pse": list(self.pse),
            "var": self.var_name,
            "once": self.once_letters,
            "steady": self.steady_letters,
            "size": self.size,
            "start": self.start,
            "stride": self.stride,
            "count": self.count,
            "sites": self.sites,
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "StaticFact":
        return cls(
            roi_id=doc["roi"],
            kind=doc["kind"],
            pse=tuple(doc["pse"]),
            var_name=doc.get("var"),
            once_letters=doc["once"],
            steady_letters=doc["steady"],
            size=doc["size"],
            start=doc.get("start", 0),
            stride=doc.get("stride", 0),
            count=doc.get("count", 1),
            sites=doc.get("sites", 0),
            mode=doc.get("mode", "safe"),
        )


@dataclass
class StaticFacts:
    """The sidecar the runtime consumes: all facts of one module."""

    mode: str = "safe"
    facts: List[StaticFact] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.facts)

    def to_json(self) -> Dict:
        return {
            "format": "repro-prescreen",
            "version": PRESCREEN_SCHEMA_VERSION,
            "mode": self.mode,
            "facts": [fact.to_json() for fact in self.facts],
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "StaticFacts":
        if doc.get("format") != "repro-prescreen":
            raise ReproError("not a repro-prescreen document")
        if doc.get("version") != PRESCREEN_SCHEMA_VERSION:
            raise ReproError(
                f"prescreen schema version mismatch: artifact has "
                f"{doc.get('version')}, tool speaks "
                f"{PRESCREEN_SCHEMA_VERSION}"
            )
        return cls(
            mode=doc.get("mode", "safe"),
            facts=[StaticFact.from_json(f) for f in doc.get("facts", ())],
        )

    def serialize(self) -> str:
        """Canonical text payload (the session artifact format)."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def deserialize(cls, text: str) -> "StaticFacts":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ReproError(f"corrupt prescreen artifact: {exc}") from None
        if not isinstance(doc, dict):
            raise ReproError("corrupt prescreen artifact: not an object")
        try:
            return cls.from_json(doc)
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError) as exc:
            raise ReproError(f"corrupt prescreen artifact: {exc}") from None

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Proof helpers
# ---------------------------------------------------------------------------


Site = Tuple[Block, int, Instr, bool]  # (block, index, instr, is_store)


def _dynamic_roi_functions(module: Module, callgraph, regions) -> Set[str]:
    """Functions that can execute inside some ROI's dynamic extent (the
    same closure opt 5's suppression half computes)."""
    from repro.ir.instructions import Call

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
    return callgraph.transitive_callees(sorted(called_in_roi))


def _first_site(sites: Sequence[Site], dom) -> Optional[Site]:
    """The site that provably executes before every other site within an
    invocation, or None when no site dominates all others."""
    for cand in sites:
        cand_block, cand_index = cand[0], cand[1]
        first = True
        for other in sites:
            if other is cand:
                continue
            if other[0] is cand_block:
                if other[1] < cand_index:
                    first = False
                    break
            elif not dom.dominates(cand_block, other[0]):
                first = False
                break
        if first:
            return cand
    return None


def _executes_every_invocation(
    function: Function,
    region: RoiRegion,
    loops: List[Loop],
    dom,
    site_block: Block,
    end_blocks: List[Block],
) -> bool:
    """Does an instruction in ``site_block`` run on every ROI invocation?

    Either its block dominates every ROI end site, or it sits in an
    inner loop that provably runs ``>= 1`` iterations on every
    invocation and executes the block on every iteration."""
    if all(dom.dominates(site_block, end) for end in end_blocks):
        return True
    loop = innermost_loop_containing(loops, site_block)
    if loop is None or loop.preheader is None:
        return False
    if not loop.blocks <= region.blocks:
        return False
    if loop.preheader not in region.blocks:
        return False
    if not all(dom.dominates(loop.preheader, end) for end in end_blocks):
        return False
    trip = match_trip_count(function, loop, None)
    if trip is None or trip.constant_trips is None or trip.constant_trips < 1:
        return False
    return all(dom.dominates(site_block, latch) for latch in loop.latches)


def _classify_sites(
    sites: Sequence[Site],
    guaranteed,
    dom,
) -> Optional[Tuple[str, str]]:
    """Map a site set to one of the three verdict shapes, or None.

    ``guaranteed(block)`` must answer "does this block execute on every
    invocation".  The first site must be guaranteed so every invocation
    produces at least one (fresh) access; the FSA state after it must be
    closed under the remaining sites' (non-fresh) accesses."""
    first = _first_site(sites, dom)
    if first is None:
        return None
    if not guaranteed(first[0]):
        return None
    stores = [site for site in sites if site[3]]
    if first[3]:
        # Wf lands in O; O (and CO from the 2nd invocation) are closed
        # under any subsequent same-invocation access.
        return VERDICT_WRITE_FIRST
    if not stores:
        # Rf lands in I; I is closed under Rn only.
        return VERDICT_READ_ONLY
    if any(guaranteed(store[0]) for store in stores):
        # Rf -> I, guaranteed Wn -> IO; IO is closed, and the next
        # epoch-fresh read moves IO -> TIO (absorbing).
        return VERDICT_READ_THEN_WRITE
    # Read-first with only conditional writes: the first-invocation
    # letters depend on whether a write happened -- not provable.
    return None


def _slot_escapes(function: Function, temp: Temp) -> bool:
    """Is the alloca address used anywhere except as a load/store ptr?"""
    for block in function.blocks:
        for instr in block.instrs:
            if isinstance(instr, Alloca) and instr.result is temp:
                continue
            for value in instr.operands():
                if not (isinstance(value, Temp) and value.name == temp.name):
                    continue
                if isinstance(instr, Load) and instr.ptr is value:
                    continue
                if isinstance(instr, Store) and instr.ptr is value \
                        and instr.value is not value:
                    continue
                return True
    return False


def _overlaps_other_region(
    sites: Sequence[Site], regions, roi_id: int, function: Function
) -> bool:
    others = [
        region for other_id, region in regions.items()
        if other_id != roi_id and region.function is function
    ]
    for block, index, _, _ in sites:
        if any(region.contains(block, index) for region in others):
            return True
    return False


def _access_size_of(instr) -> int:
    if isinstance(instr, Load):
        return 1 if isinstance(instr.result.ty, ct.CharType) else 8
    pointee = (instr.ptr.ty.pointee
               if isinstance(instr.ptr.ty, ct.PointerType)
               else instr.value.ty)
    return 1 if isinstance(pointee, ct.CharType) else 8


# ---------------------------------------------------------------------------
# Aggressive mode: induction-walked array elements
# ---------------------------------------------------------------------------


def _unit_step(function: Function, loop: Loop, trip) -> bool:
    """Verify the canonical ``++i`` latch: exactly one in-loop store to
    the induction slot, of ``load(slot) + 1``."""
    slot = trip.induction_alloca
    stores = [
        instr
        for block in loop.blocks
        for instr in block.instrs
        if isinstance(instr, Store) and instr.ptr is slot
    ]
    if len(stores) != 1:
        return False
    value = stores[0].value
    if not isinstance(value, Temp):
        return False
    defn = None
    for block in loop.blocks:
        for instr in block.instrs:
            if getattr(instr, "result", None) is value:
                defn = instr
    if not isinstance(defn, BinOp) or defn.op != "add":
        return False
    if isinstance(defn.rhs, Const) and defn.rhs.value == 1:
        source = defn.lhs
    elif isinstance(defn.lhs, Const) and defn.lhs.value == 1:
        source = defn.rhs
    else:
        return False
    if not isinstance(source, Temp):
        return False
    for block in loop.blocks:
        for instr in block.instrs:
            if getattr(instr, "result", None) is source:
                return isinstance(instr, Load) and instr.ptr is slot
    return False


@dataclass
class _AddrRep:
    """Shape of an address temp derived from an array alloca: a constant
    byte offset plus at most one induction term (``i * scale``)."""

    const: int = 0
    scale: Optional[int] = None  # None: no induction term
    index_pos: Optional[Tuple[Block, int]] = None  # defining load's site
    unknown: bool = False


def _array_candidates(function: Function) -> List[Alloca]:
    return [
        instr for instr in function.entry.instrs
        if isinstance(instr, Alloca) and instr.var is not None
        and isinstance(instr.allocated_type, ct.ArrayType)
    ]


def _element_fact_for(
    function: Function,
    region: RoiRegion,
    regions,
    roi_id: int,
    loop: Loop,
    trip,
    dom,
    alloca: Alloca,
    induction_loads: Dict[str, Tuple[Block, int]],
) -> Optional[Tuple[Tuple[str, str], List[Site], int, int]]:
    """Try to prove an elements verdict for ``alloca`` walked by ``loop``.

    Returns (verdict, in-region sites, element size, start offset), or
    None.  The address-chain walk covers the whole function: any use of
    the array address outside the load/store-pointer role rejects (the
    address may not escape), while out-of-region accesses of any shape
    are allowed (they execute outside the ROI's dynamic extent)."""
    root = alloca.result
    reps: Dict[str, _AddrRep] = {}
    positions: Dict[str, Tuple[Block, int]] = {}
    for block in function.blocks:
        for index, instr in enumerate(block.instrs):
            if not isinstance(instr, AddrOffset):
                continue
            base = instr.base
            if isinstance(base, Temp) and base.name == root.name:
                base_rep = _AddrRep()
            elif isinstance(base, Temp) and base.name in reps:
                base_rep = reps[base.name]
            else:
                continue
            rep = _AddrRep(base_rep.const, base_rep.scale,
                           base_rep.index_pos, base_rep.unknown)
            rep.const += instr.offset
            if isinstance(instr.index, Const):
                rep.const += instr.index.value * instr.scale
            elif (isinstance(instr.index, Temp)
                    and instr.index.name in induction_loads
                    and rep.scale is None):
                rep.scale = instr.scale
                rep.index_pos = induction_loads[instr.index.name]
            elif instr.scale != 0 or not isinstance(instr.index, Const):
                rep.unknown = True
            reps[instr.result.name] = rep
            positions[instr.result.name] = (block, index)

    # Escape check: the root and every derived address temp may appear
    # only as addr.offset base or load/store pointer.
    tracked = {root.name} | set(reps)
    for block in function.blocks:
        for instr in block.instrs:
            for value in instr.operands():
                if not (isinstance(value, Temp) and value.name in tracked):
                    continue
                if isinstance(instr, AddrOffset) and instr.base is value:
                    continue
                if isinstance(instr, Load) and instr.ptr is value:
                    continue
                if isinstance(instr, Store) and instr.ptr is value \
                        and instr.value is not value:
                    continue
                return None

    sites: List[Site] = []
    size: Optional[int] = None
    for block, index, instr in region.instructions():
        if not isinstance(instr, (Load, Store)):
            continue
        ptr = instr.ptr
        if not (isinstance(ptr, Temp) and ptr.name in reps):
            continue
        rep = reps[ptr.name]
        access = _access_size_of(instr)
        if rep.unknown or rep.scale is None or rep.const != 0:
            return None
        if rep.scale != access:
            return None
        if size is None:
            size = access
        elif size != access:
            return None
        if block not in loop.blocks:
            return None
        if not all(dom.dominates(block, latch) for latch in loop.latches):
            return None
        # The index load must execute (afresh) before the access on
        # every iteration.
        load_block, load_index = rep.index_pos
        addro_block, addro_index = positions[ptr.name]
        if load_block is addro_block:
            if load_index >= addro_index:
                return None
        elif not dom.dominates(load_block, addro_block):
            return None
        if not all(dom.dominates(load_block, latch)
                   for latch in loop.latches):
            return None
        sites.append((block, index, instr, isinstance(instr, Store)))
    if not sites or size is None:
        return None
    if _overlaps_other_region(sites, regions, roi_id, function):
        return None
    # All sites run on every iteration of a >=1-trip loop, so every
    # store is guaranteed; classification needs only first-site order.
    verdict = _classify_sites(sites, lambda block: True, dom)
    if verdict is None:
        return None
    return verdict, sites, size, trip.start * size


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@register_pass
class PrescreenPass(Pass):
    """Prove Set verdicts at compile time and strip the probes.

    A planning pass: fills ``plan.suppressed``/``plan.static_suppressed``
    and ``plan.insertions`` (one ``probe.static`` per fact, anchored
    right after the ROI's ``roi.begin``), publishes the facts on
    ``module.static_facts``, and records claimed syntactic PSE keys in
    ``ctx.handled`` so opts 1 and 3 skip them."""

    name = "prescreen"

    def run(self, module: Module, am: AnalysisManager,
            ctx: PipelineContext) -> bool:
        plan = ctx.ensure_plan()
        mode = self._mode(ctx)
        counts = {"slot_facts": 0, "element_facts": 0, "sites_stripped": 0,
                  "rejected": 0}
        facts = StaticFacts(mode=mode)
        if plan.policy.track_sets:
            regions = am.get("roi-regions")
            callgraph = am.get("callgraph")
            dynamic_roi_fns = _dynamic_roi_functions(module, callgraph,
                                                     regions)
            for roi_id in sorted(regions):
                region = regions[roi_id]
                roi = module.rois[roi_id]
                if not roi.is_loop_body:
                    continue
                if region.function.name in dynamic_roi_fns:
                    continue
                self._screen_region(module, am, plan, ctx, region, roi_id,
                                    mode, facts, regions, counts)
        module.static_facts = facts if facts.facts else None
        counts["mode"] = mode
        for key, value in sorted(counts.items()):
            am.annotate(key, value)
        if ctx.build_info is not None and hasattr(ctx.build_info,
                                                  "static_facts"):
            ctx.build_info.static_facts = module.static_facts
        return False

    @staticmethod
    def _mode(ctx: PipelineContext) -> str:
        options = getattr(ctx.build_info, "options", None)
        mode = getattr(options, "prescreen", "safe")
        if mode not in ("safe", "aggressive"):
            # Pass named in pipeline text without a carrier option:
            # default to the conservative tier.
            mode = "safe"
        return mode

    def _screen_region(self, module, am, plan, ctx, region, roi_id, mode,
                       facts, regions, counts) -> None:
        function = region.function
        dom = am.get("dominators", function)
        loops = am.get("loops", function)
        end_blocks = [block for block, _ in region.end_sites]
        anchor = region.begin_block.instrs[region.begin_index + 1]
        handled = ctx.handled.setdefault(roi_id, set())

        def claim(fact: StaticFact, sites: List[Site], addr) -> None:
            probe = ProbeStatic(ptr=addr, roi_id=roi_id,
                                fact_index=len(facts.facts))
            plan.insertions.setdefault(id(anchor), []).append(probe)
            for _, _, instr, _ in sites:
                plan.suppressed.add(id(instr))
                plan.static_suppressed.add(id(instr))
            facts.facts.append(fact)
            counts["sites_stripped"] += len(sites)

        # -- safe tier: non-escaping scalar slots -------------------------
        grouped: Dict[Tuple, List[Site]] = {}
        for block, index, instr in region.instructions():
            if not isinstance(instr, (Load, Store)):
                continue
            key = pse_key_of_address(function, instr.ptr)
            if key is None or key[0] != "alloca":
                continue
            grouped.setdefault(key, []).append(
                (block, index, instr, isinstance(instr, Store))
            )
        for key in sorted(grouped):
            sites = grouped[key]
            verdict = self._slot_verdict(function, region, regions, roi_id,
                                         loops, dom, end_blocks, key, sites)
            if verdict is None:
                counts["rejected"] += 1
                continue
            instr = sites[0][2]
            fact = StaticFact(
                roi_id=roi_id,
                kind="slot",
                pse=key,
                var_name=instr.var.name if instr.var else None,
                once_letters=verdict[0],
                steady_letters=verdict[1],
                size=_access_size_of(instr),
                sites=len(sites),
                mode="safe",
            )
            claim(fact, sites, instr.ptr)
            handled.add(key)
            counts["slot_facts"] += 1

        # -- aggressive tier: induction-walked array elements -------------
        if mode != "aggressive":
            return
        for loop in loops:
            if not loop.blocks <= region.blocks:
                continue
            if loop.preheader is None or loop.preheader not in region.blocks:
                continue
            if not all(dom.dominates(loop.preheader, end)
                       for end in end_blocks):
                continue
            trip = match_trip_count(function, loop, None)
            if (trip is None or trip.constant_trips is None
                    or trip.constant_trips < 1):
                continue
            if not _unit_step(function, loop, trip):
                continue
            induction_loads = {
                instr.result.name: (block, index)
                for block in loop.blocks
                for index, instr in enumerate(block.instrs)
                if isinstance(instr, Load)
                and instr.ptr is trip.induction_alloca
            }
            for alloca in _array_candidates(function):
                found = _element_fact_for(
                    function, region, regions, roi_id, loop, trip, dom,
                    alloca, induction_loads,
                )
                if found is None:
                    counts["rejected"] += 1
                    continue
                verdict, sites, size, start = found
                if any(id(instr) in plan.suppressed
                       for _, _, instr, _ in sites):
                    continue  # already claimed (e.g. by another loop)
                fact = StaticFact(
                    roi_id=roi_id,
                    kind="elements",
                    pse=("alloca", function.name, alloca.result.name),
                    var_name=alloca.var.name if alloca.var else None,
                    once_letters=verdict[0],
                    steady_letters=verdict[1],
                    size=size,
                    start=start,
                    stride=size,
                    count=trip.constant_trips,
                    sites=len(sites),
                    mode="aggressive",
                )
                claim(fact, sites, alloca.result)
                counts["element_facts"] += 1

    def _slot_verdict(self, function, region, regions, roi_id, loops, dom,
                      end_blocks, key, sites) -> Optional[Tuple[str, str]]:
        # Every site must carry a source variable: a var-annotated
        # single-word access is what makes the dynamic side use the
        # ("var", obj_id) key this fact claims.
        if any(instr.var is None for _, _, instr, _ in sites):
            return None
        sizes = {_access_size_of(instr) for _, _, instr, _ in sites}
        if len(sizes) != 1:
            return None
        temp = sites[0][2].ptr
        if not isinstance(temp, Temp):
            return None
        if _slot_escapes(function, temp):
            return None
        if _overlaps_other_region(sites, regions, roi_id, function):
            return None

        def guaranteed(block: Block) -> bool:
            return _executes_every_invocation(function, region, loops, dom,
                                              block, end_blocks)

        return _classify_sites(sites, guaranteed, dom)

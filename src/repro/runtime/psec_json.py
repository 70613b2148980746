"""Versioned JSON schema for profiling results (PSECs + ASMT + more).

One profiling run produces more than the four Sets: per-PSE FSA state and
use-callstacks, the Reachability Graph, the ASMT allocation metadata, the
degradation report, and the VM run result.  :func:`serialize_profile`
captures all of it as canonical JSON so characterization results are
cacheable and diffable run-to-run; :func:`deserialize_profile` rebuilds a
:class:`Profile` that duck-types :class:`~repro.runtime.engine.CarmotRuntime`
closely enough that ``recommend()``, ``describe_pse()``, and the CLI's
PSEC rendering produce byte-identical output from a cached profile.

Layout: the bulk of a profile is its PSEC entries, so they are stored
*column by column* — each PSEC's ``entries`` is one object of equally
long arrays (``key``, ``var``, ``state_code``, ``forced``,
``first_time``, ``uses``, ``access_count``), row ``i`` of every array
describing the same entry.
A PSE's use-callstack set is interned into the per-profile ``uses``
table (a list of sorted ``[loc, callstack]`` lists) and the ``uses``
column holds indices into it; most PSEs of one array share one set.
The ASMT is a columnar table of the same kind.  The fold's own state
(``PsecEntry.last_invocation``, ``last_epoch``, ``last_time``,
``write_seen``) is not stored: no reader of a finished profile looks at
it, so a decoded entry carries its initial values.  :func:`deserialize_profile` refuses a column that is
not a list, a column longer or shorter than its table's first, a column
the schema does not name, and a ``uses`` index outside the table.

Determinism notes:

- every set (``entry.uses``, ``allocated_in_roi``, reachability edges) is
  emitted sorted;
- entries are emitted in ``(first_time, key)`` order, and ``uses`` table
  rows in order of first reference, so the text is a function of the
  entries alone;
- the document is key-sorted compact JSON, so equal profiles are equal
  byte strings and :func:`profile_digest` is a meaningful identity.

The format carries ``PROFILE_SCHEMA_VERSION``; bump it on any shape
change (cache keys include it — see :mod:`repro.session.keys`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, List, Optional

from repro._version import PROFILE_SCHEMA_VERSION
from repro.errors import ReproError
from repro.ir.instructions import VarInfo
from repro.ir.serialize import _dec_loc, _dec_type, _enc_loc, _enc_type
from repro.resilience.degradation import DegradationRecord, DegradationReport
from repro.runtime.asmt import Asmt, AsmtEntry
from repro.runtime.psec import Psec, PsecEntry
from repro.runtime.reachability import ReachabilityGraph
from repro.vm.result import RunResult

FORMAT_NAME = "repro-profile"


class ProfileSerializeError(ReproError):
    """Malformed or incompatible serialized profile."""


class Profile:
    """A deserialized profiling run.

    Duck-types the slice of ``CarmotRuntime`` the read-side consumers use:
    ``module``, ``psecs``, ``asmt``, ``degradation``, ``degraded``.
    """

    def __init__(
        self,
        module,
        psecs: Dict[int, Psec],
        asmt: Asmt,
        degradation: DegradationReport,
        result: RunResult,
    ) -> None:
        self.module = module
        self.psecs = psecs
        self.asmt = asmt
        self.degradation = degradation
        self.result = result

    @property
    def degraded(self) -> bool:
        return self.degradation.degraded


# ---------------------------------------------------------------------------
# serialize
# ---------------------------------------------------------------------------


class _VarTable:
    """uid-keyed VarInfo table shared by PSEC entries and the ASMT."""

    def __init__(self) -> None:
        self.vars: Dict[int, VarInfo] = {}
        self.structs: Dict[str, object] = {}

    def ref(self, var: Optional[VarInfo]) -> Optional[int]:
        if var is None:
            return None
        self.vars.setdefault(var.uid, var)
        return var.uid

    def doc(self) -> List[Dict]:
        return [
            {
                "uid": var.uid, "name": var.name, "storage": var.storage,
                "ty": _enc_type(var.ty, self.structs),
                "decl_loc": _enc_loc(var.decl_loc),
            }
            for _, var in sorted(self.vars.items())
        ]

    def structs_doc(self) -> List[Dict]:
        return [
            {
                "name": name,
                "fields": [
                    [fname, _enc_type(ftype, self.structs)]
                    for fname, ftype in self.structs[name].fields
                ],
            }
            for name in sorted(self.structs)
        ]


class _UsesTable:
    """Per-profile table of distinct use-callstack sets."""

    def __init__(self) -> None:
        self.index: Dict[FrozenSet, int] = {}
        self.rows: List[List] = []

    def ref(self, uses) -> int:
        frozen = frozenset(uses)
        row = self.index.get(frozen)
        if row is None:
            row = self.index[frozen] = len(self.rows)
            self.rows.append(sorted([loc, list(stack)] for loc, stack in uses))
        return row


#: Column names of a PSEC's ``entries`` table, in decode order.
ENTRY_COLUMNS = (
    "key", "var", "state_code", "forced", "first_time", "uses",
    "access_count",
)

#: Column names of the ``asmt`` table, in decode order.
ASMT_COLUMNS = (
    "obj_id", "size", "kind", "var", "alloc_loc", "alloc_callstack",
    "alloc_time", "freed", "free_time",
)


def _enc_entries(psec: Psec, vars_table: _VarTable,
                 uses_table: _UsesTable) -> Dict[str, List]:
    # Sorted by (first_time, key), not insertion order, so the artifact
    # is a function of the entries alone: a fold that builds the same
    # entries in another order (the tests' recording oracle, for one)
    # serializes to the same bytes.
    entries = sorted(psec.entries.values(),
                     key=lambda e: (e.first_time, e.key[0], e.key[1:]))
    ref_var = vars_table.ref
    ref_uses = uses_table.ref
    return {
        "key": [list(e.key) for e in entries],
        "var": [ref_var(e.var) for e in entries],
        "state_code": [e.state_code for e in entries],
        "forced": [e.forced for e in entries],
        "first_time": [e.first_time for e in entries],
        "uses": [ref_uses(e.uses) for e in entries],
        "access_count": [e.access_count for e in entries],
    }


def _enc_reachability(graph: ReachabilityGraph) -> Dict:
    nodes = [
        {
            "obj_id": node.obj_id,
            "allocated_in_roi": node.allocated_in_roi,
            "alloc_time": node.alloc_time,
            "first_access_time": node.first_access_time,
        }
        for _, node in sorted(graph._nodes.items())
    ]
    edges = sorted(
        (
            [edge.src, edge.dst, edge.src_offset, edge.time, edge.loc]
            for edge in graph.edges()
        ),
    )
    return {"nodes": nodes, "edges": edges}


def _enc_psec(psec: Psec, vars_table: _VarTable,
              uses_table: _UsesTable) -> Dict:
    return {
        "roi_id": psec.roi_id,
        "roi_name": psec.roi_name,
        "abstraction": psec.abstraction,
        "invocations": psec.invocations,
        "entries": _enc_entries(psec, vars_table, uses_table),
        "reachability": _enc_reachability(psec.reachability),
        "allocated_in_roi": sorted(psec.allocated_in_roi),
        "use_records": psec.use_records,
        "total_accesses": psec.total_accesses,
        "degraded": psec.degraded,
        "degradation_reasons": list(psec.degradation_reasons),
        "use_callstacks_complete": psec.use_callstacks_complete,
        "sets_exact": psec.sets_exact,
    }


def _enc_asmt(asmt: Asmt, vars_table: _VarTable) -> Dict[str, List]:
    entries = [entry for _, entry in sorted(asmt.entries().items())]
    return {
        "obj_id": [a.obj_id for a in entries],
        "size": [a.size for a in entries],
        "kind": [a.kind for a in entries],
        "var": [vars_table.ref(a.var) for a in entries],
        "alloc_loc": [_enc_loc(a.alloc_loc) for a in entries],
        "alloc_callstack": [list(a.alloc_callstack) for a in entries],
        "alloc_time": [a.alloc_time for a in entries],
        "freed": [a.freed for a in entries],
        "free_time": [a.free_time for a in entries],
    }


def serialize_profile(runtime, result: RunResult) -> str:
    """Canonical JSON for a finished profiling run.

    ``runtime`` is a ``CarmotRuntime`` (or a :class:`Profile` — the
    round-trip is closed).
    """
    vars_table = _VarTable()
    uses_table = _UsesTable()
    # One PSEC at a time: a PSEC's entry columns take several times the
    # memory of their text, and encoding all of them at once set the
    # peak memory of a cold request.
    psecs = "[" + ",".join(
        _dumps(_enc_psec(psec, vars_table, uses_table))
        for _, psec in sorted(runtime.psecs.items())
    ) + "]"
    asmt = _enc_asmt(runtime.asmt, vars_table)
    degradation = [
        {
            "kind": record.kind, "rois": list(record.rois),
            "events": record.events, "action": record.action,
            "sets_complete": record.sets_complete,
            "use_callstacks_complete": record.use_callstacks_complete,
            "detail": record.detail,
        }
        for record in runtime.degradation.records()
    ]
    result_doc = {
        "return_value": result.return_value,
        "cost": result.cost,
        "baseline_cost": result.baseline_cost,
        "instructions": result.instructions,
        "output": list(result.output),
        "access_counts": dict(result.access_counts),
        "leaked_bytes": result.leaked_bytes,
    }
    # The same bytes as dumping the whole document with sorted keys.
    # ``vars`` first: encoding the variables' types collects the structs.
    fields = {"vars": _dumps(vars_table.doc())}
    fields.update({
        "format": _dumps(FORMAT_NAME),
        "version": _dumps(PROFILE_SCHEMA_VERSION),
        "structs": _dumps(vars_table.structs_doc()),
        "psecs": psecs,
        "asmt": _dumps(asmt),
        "degradation": _dumps(degradation),
        "result": _dumps(result_doc),
        "uses": _dumps(uses_table.rows),
    })
    return "{" + ",".join(
        f"{_dumps(name)}:{text}" for name, text in sorted(fields.items())
    ) + "}"


def _dumps(value) -> str:
    """Canonical compact JSON: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def profile_digest(text: str) -> str:
    """SHA-256 of a serialized profile (its cache identity)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def psec_sets_doc(
    psecs: Dict[int, Psec],
    sets: Optional[Dict[int, Dict[str, List]]] = None,
) -> Dict:
    """Canonical JSON view of just the four Sets per ROI (the
    :func:`psec_sets_digest` material; also what ``psec --json`` prints
    so CI can byte-diff hybrid vs dynamic runs).

    ``sets`` maps ROI id to ``psec.sets()`` when the caller already
    derived them, so each ROI's Sets are built once per request.
    """
    if sets is None:
        sets = {roi_id: psec.sets() for roi_id, psec in psecs.items()}
    return {
        str(roi_id): {
            name: [list(map(str, key)) for key in keys]
            for name, keys in sets[roi_id].items()
        }
        for roi_id in sorted(psecs)
    }


def psec_sets_digest(psecs: Dict[int, Psec],
                     doc: Optional[Dict] = None) -> str:
    """Digest of just the four Sets per ROI — the byte-identity gate used
    by the warm/cold and differential tests.

    ``doc`` is ``psec_sets_doc(psecs)`` when the caller already built it.
    """
    if doc is None:
        doc = psec_sets_doc(psecs)
    return hashlib.sha256(_dumps(doc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# deserialize
# ---------------------------------------------------------------------------


def _columns(table, names, what: str) -> List[List]:
    """The columns ``names`` of a columnar ``table``, in that order.

    Every column must be a list as long as the first, and the table may
    name no other column: zipping the rows would otherwise drop the
    tail of a longer column without a word.
    """
    if not isinstance(table, dict) or set(table) != set(names):
        raise ProfileSerializeError(
            f"malformed profile artifact: {what} columns are "
            f"{sorted(table) if isinstance(table, dict) else table!r}, "
            f"expected {sorted(names)}"
        )
    columns = [table[name] for name in names]
    for name, column in zip(names, columns):
        if not isinstance(column, list):
            raise ProfileSerializeError(
                f"malformed profile artifact: {what} column {name!r} is "
                f"not a list"
            )
        if len(column) != len(columns[0]):
            raise ProfileSerializeError(
                f"malformed profile artifact: {what} column {name!r} has "
                f"{len(column)} rows, column {names[0]!r} has "
                f"{len(columns[0])}"
            )
    return columns


def deserialize_profile(text: str, module=None) -> Profile:
    """Rebuild a :class:`Profile` from :func:`serialize_profile` output;
    raises :class:`ProfileSerializeError` on any malformed or stale
    payload.

    ``module`` (optional) attaches the IR module the consumers expect on a
    runtime-like object; cached profiles are only meaningful next to the
    module they were profiled from, which the session layer guarantees by
    keying the profile artifact on the module digest.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProfileSerializeError(f"malformed profile artifact: {error}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ProfileSerializeError("not a serialized profile")
    if doc.get("version") != PROFILE_SCHEMA_VERSION:
        raise ProfileSerializeError(
            f"profile artifact version {doc.get('version')!r} does not "
            f"match this toolchain's {PROFILE_SCHEMA_VERSION}"
        )
    try:
        return _decode_profile(doc, module)
    except ProfileSerializeError:
        raise
    except (ReproError, KeyError, IndexError, TypeError, ValueError,
            AttributeError, OverflowError) as error:
        raise ProfileSerializeError(f"malformed profile artifact: {error}")


def _decode_profile(doc: Dict, module) -> Profile:
    from repro.lang import types as ct

    structs: Dict[str, ct.StructType] = {}
    for struct_doc in doc["structs"]:
        structs[struct_doc["name"]] = ct.StructType(struct_doc["name"])
    for struct_doc in doc["structs"]:
        structs[struct_doc["name"]].set_body([
            (fname, _dec_type(ftype, structs))
            for fname, ftype in struct_doc["fields"]
        ])
    vars_table: Dict[int, VarInfo] = {}
    for var_doc in doc["vars"]:
        vars_table[var_doc["uid"]] = VarInfo(
            uid=var_doc["uid"], name=var_doc["name"],
            storage=var_doc["storage"],
            ty=_dec_type(var_doc["ty"], structs),
            decl_loc=_dec_loc(var_doc["decl_loc"]),
        )

    def var_of(uid: Optional[int]) -> Optional[VarInfo]:
        return None if uid is None else vars_table[uid]

    use_sets = [
        frozenset((loc, tuple(stack)) for loc, stack in row)
        for row in doc["uses"]
    ]
    psecs: Dict[int, Psec] = {}
    for pdoc in doc["psecs"]:
        psec = Psec(
            roi_id=pdoc["roi_id"], roi_name=pdoc["roi_name"],
            abstraction=pdoc["abstraction"],
        )
        psec.invocations = pdoc["invocations"]
        columns = _columns(pdoc["entries"], ENTRY_COLUMNS, "entries")
        uses_column = columns[ENTRY_COLUMNS.index("uses")]
        if uses_column and not (
                0 <= min(uses_column) and max(uses_column) < len(use_sets)):
            raise ProfileSerializeError(
                f"malformed profile artifact: a uses index is outside "
                f"the table of {len(use_sets)}"
            )
        for (key, uid, state_code, forced, first_time, uses,
             access_count) in zip(*columns):
            entry = PsecEntry(key=tuple(key), var=var_of(uid))
            entry.state_code = state_code
            entry.forced = forced
            entry.first_time = first_time
            entry.uses = set(use_sets[uses])
            entry.access_count = access_count
            psec.entries[entry.key] = entry
        rdoc = pdoc["reachability"]
        for ndoc in rdoc["nodes"]:
            psec.reachability.add_node(
                ndoc["obj_id"], ndoc["allocated_in_roi"],
                ndoc["alloc_time"], ndoc["first_access_time"],
            )
        for src, dst, src_offset, time, loc in rdoc["edges"]:
            psec.reachability.add_edge(src, dst, src_offset, time, loc)
        psec.allocated_in_roi = set(pdoc["allocated_in_roi"])
        psec.use_records = pdoc["use_records"]
        psec.total_accesses = pdoc["total_accesses"]
        psec.degraded = pdoc["degraded"]
        psec.degradation_reasons = list(pdoc["degradation_reasons"])
        psec.use_callstacks_complete = pdoc["use_callstacks_complete"]
        psec.sets_exact = pdoc["sets_exact"]
        psecs[psec.roi_id] = psec
    asmt = Asmt()
    for (obj_id, size, kind, uid, alloc_loc, alloc_callstack, alloc_time,
         freed, free_time) in zip(*_columns(doc["asmt"], ASMT_COLUMNS,
                                            "asmt")):
        asmt.register(AsmtEntry(
            obj_id=obj_id, size=size, kind=kind, var=var_of(uid),
            alloc_loc=_dec_loc(alloc_loc),
            alloc_callstack=tuple(alloc_callstack), alloc_time=alloc_time,
            freed=freed, free_time=free_time,
        ))
    degradation = DegradationReport()
    for ddoc in doc["degradation"]:
        degradation.add(DegradationRecord(
            kind=ddoc["kind"], rois=tuple(ddoc["rois"]),
            events=ddoc["events"],
            action=ddoc["action"], sets_complete=ddoc["sets_complete"],
            use_callstacks_complete=ddoc["use_callstacks_complete"],
            detail=ddoc["detail"],
        ))
    rdoc = doc["result"]
    result = RunResult(
        return_value=rdoc["return_value"], cost=rdoc["cost"],
        baseline_cost=rdoc["baseline_cost"],
        instructions=rdoc["instructions"], output=list(rdoc["output"]),
        access_counts=dict(rdoc["access_counts"]),
        leaked_bytes=rdoc["leaked_bytes"],
    )
    return Profile(module, psecs, asmt, degradation, result)

"""Versioned JSON schema for profiling results (PSECs + ASMT + more).

One profiling run produces more than the four Sets: per-PSE FSA state and
use-callstacks, the Reachability Graph, the ASMT allocation metadata, the
degradation report, and the VM run result.  :func:`serialize_profile`
captures all of it as canonical JSON so characterization results are
cacheable and diffable run-to-run; :func:`deserialize_profile` rebuilds a
:class:`Profile` that duck-types :class:`~repro.runtime.engine.CarmotRuntime`
closely enough that ``recommend()``, ``describe_pse()``, and the CLI's
PSEC rendering produce byte-identical output from a cached profile.

Determinism notes:

- every set (``entry.uses``, ``allocated_in_roi``, reachability edges) is
  emitted sorted;
- ``Psec.entries`` keeps insertion order (the order the runtime first saw
  each PSE), so downstream renderings that iterate entries match a live
  run exactly;
- the document is key-sorted compact JSON, so equal profiles are equal
  byte strings and :func:`profile_digest` is a meaningful identity.

The format carries ``PROFILE_SCHEMA_VERSION``; bump it on any shape
change (cache keys include it — see :mod:`repro.session.keys`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

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


def _enc_entry(entry: PsecEntry, vars_table: _VarTable) -> Dict:
    return {
        "key": list(entry.key),
        "var": vars_table.ref(entry.var),
        "state_code": entry.state_code,
        "forced": entry.forced,
        "last_invocation": entry.last_invocation,
        "first_time": entry.first_time,
        "last_time": entry.last_time,
        "uses": sorted([loc, list(stack)] for loc, stack in entry.uses),
        "write_seen": entry.write_seen,
        "access_count": entry.access_count,
        "last_epoch": entry.last_epoch,
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


def _enc_psec(psec: Psec, vars_table: _VarTable) -> Dict:
    return {
        "roi_id": psec.roi_id,
        "roi_name": psec.roi_name,
        "abstraction": psec.abstraction,
        "invocations": psec.invocations,
        # Sorted by (first_time, key), not insertion order, so the
        # artifact is a function of the entries alone: a fold that builds
        # the same entries in another order (the tests' decoder oracle,
        # for one) serializes to the same bytes.
        "entries": [
            _enc_entry(entry, vars_table)
            for entry in sorted(
                psec.entries.values(),
                key=lambda e: (e.first_time, e.key[0], e.key[1:]),
            )
        ],
        "reachability": _enc_reachability(psec.reachability),
        "allocated_in_roi": sorted(psec.allocated_in_roi),
        "use_records": psec.use_records,
        "total_accesses": psec.total_accesses,
        "degraded": psec.degraded,
        "degradation_reasons": list(psec.degradation_reasons),
        "use_callstacks_complete": psec.use_callstacks_complete,
        "sets_exact": psec.sets_exact,
    }


def serialize_profile(runtime, result: RunResult) -> str:
    """Canonical JSON for a finished profiling run.

    ``runtime`` is a ``CarmotRuntime`` (or a :class:`Profile` — the
    round-trip is closed).
    """
    vars_table = _VarTable()
    # One PSEC at a time: a PSEC's entry docs take several times the
    # memory of their text, and encoding all of them at once set the
    # peak memory of a cold request.
    psecs = "[" + ",".join(
        _dumps(_enc_psec(psec, vars_table))
        for _, psec in sorted(runtime.psecs.items())
    ) + "]"
    asmt = [
        {
            "obj_id": entry.obj_id, "size": entry.size, "kind": entry.kind,
            "var": vars_table.ref(entry.var),
            "alloc_loc": _enc_loc(entry.alloc_loc),
            "alloc_callstack": list(entry.alloc_callstack),
            "alloc_time": entry.alloc_time,
            "freed": entry.freed, "free_time": entry.free_time,
        }
        for _, entry in sorted(runtime.asmt.entries().items())
    ]
    degradation = [
        {
            "batch_seq": record.batch_seq, "kind": record.kind,
            "rois": list(record.rois), "events": record.events,
            "action": record.action, "sets_complete": record.sets_complete,
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
    fields = {
        "format": _dumps(FORMAT_NAME),
        "version": _dumps(PROFILE_SCHEMA_VERSION),
        "structs": _dumps(vars_table.structs_doc()),
        "vars": _dumps(vars_table.doc()),
        "psecs": psecs,
        "asmt": _dumps(asmt),
        "degradation": _dumps(degradation),
        "result": _dumps(result_doc),
    }
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


def _tuple_key(doc: List):
    return tuple(doc)


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

    psecs: Dict[int, Psec] = {}
    for pdoc in doc["psecs"]:
        psec = Psec(
            roi_id=pdoc["roi_id"], roi_name=pdoc["roi_name"],
            abstraction=pdoc["abstraction"],
        )
        psec.invocations = pdoc["invocations"]
        for edoc in pdoc["entries"]:
            entry = PsecEntry(
                key=_tuple_key(edoc["key"]), var=var_of(edoc["var"]),
            )
            entry.state_code = edoc["state_code"]
            entry.forced = edoc["forced"]
            entry.last_invocation = edoc["last_invocation"]
            entry.first_time = edoc["first_time"]
            entry.last_time = edoc["last_time"]
            entry.uses = {
                (loc, tuple(stack)) for loc, stack in edoc["uses"]
            }
            entry.write_seen = edoc["write_seen"]
            entry.access_count = edoc["access_count"]
            entry.last_epoch = edoc["last_epoch"]
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
    for adoc in doc["asmt"]:
        asmt.register(AsmtEntry(
            obj_id=adoc["obj_id"], size=adoc["size"], kind=adoc["kind"],
            var=var_of(adoc["var"]), alloc_loc=_dec_loc(adoc["alloc_loc"]),
            alloc_callstack=tuple(adoc["alloc_callstack"]),
            alloc_time=adoc["alloc_time"], freed=adoc["freed"],
            free_time=adoc["free_time"],
        ))
    degradation = DegradationReport()
    for ddoc in doc["degradation"]:
        degradation.add(DegradationRecord(
            batch_seq=ddoc["batch_seq"], kind=ddoc["kind"],
            rois=tuple(ddoc["rois"]), events=ddoc["events"],
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

"""Versioned, canonical IR serialization with byte-stable digests.

:func:`serialize_module` turns a :class:`~repro.ir.module.Module` into
canonical JSON text: key-sorted objects, compact separators, arrays in
module order, and every unordered table (the VarInfo table, the struct
table) emitted in a sorted order that does not depend on hash seeds or
walk order.  The guarantees the artifact cache is built on:

- ``serialize(deserialize(serialize(m))) == serialize(m)`` byte for byte;
- :func:`module_digest` is stable across process runs (no reliance on
  ``PYTHONHASHSEED``);
- a deserialized module is a faithful working copy: the verifier passes,
  passes can keep transforming it (def/use identity of temps, interned
  :class:`SourceLoc` and :class:`VarInfo` instances, live label/temp
  counters), and the VM executes it to the same PSECs;
- :func:`deserialize_module` raises nothing but :class:`IRSerializeError`
  on a bad payload (syntax, format, version or shape), which the session
  treats as a cache miss.

The format carries ``IR_SCHEMA_VERSION``; any shape change must bump it
(stale cache entries then simply never match — see
:mod:`repro.session.keys`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from typing import Dict, List, Optional, Tuple

from repro._version import IR_SCHEMA_VERSION
from repro.errors import ReproError
from repro.lang import types as ct
from repro.lang.pragmas import CarmotRoi, OmpPragma
from repro.lang.tokens import SourcePos
from repro.ir.instructions import (
    AccessKind,
    AddrOffset,
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Instr,
    Jump,
    Load,
    OmpBarrier,
    OmpRegionBegin,
    OmpRegionEnd,
    Phi,
    ProbeAccess,
    ProbeClassify,
    ProbeEscape,
    Ret,
    RoiBegin,
    RoiEnd,
    RoiReset,
    SourceLoc,
    Store,
    VarInfo,
)
from repro.ir.module import (
    Block,
    Function,
    GlobalVariable,
    Module,
    OmpLoopInfo,
    OmpRegionInfo,
    RoiInfo,
)
from repro.ir.values import Const, FunctionRef, GlobalRef, Temp, Value

FORMAT_NAME = "repro-ir"


class IRSerializeError(ReproError):
    """Malformed or incompatible serialized IR."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_SCALARS = {
    ct.VoidType: "void",
    ct.IntType: "int",
    ct.CharType: "char",
    ct.FloatType: "float",
}


def _collect_structs(ty: ct.Type, structs: Dict[str, ct.StructType]) -> None:
    if isinstance(ty, ct.StructType):
        if ty.name in structs:
            return
        structs[ty.name] = ty
        for _, ftype in ty.fields:
            _collect_structs(ftype, structs)
    elif isinstance(ty, ct.PointerType):
        _collect_structs(ty.pointee, structs)
    elif isinstance(ty, ct.ArrayType):
        _collect_structs(ty.element, structs)
    elif isinstance(ty, ct.FunctionType):
        _collect_structs(ty.return_type, structs)
        for param in ty.param_types:
            _collect_structs(param, structs)


def _enc_type(ty: ct.Type, structs: Dict[str, ct.StructType]):
    tag = _SCALARS.get(type(ty))
    if tag is not None:
        return tag
    if isinstance(ty, ct.PointerType):
        return ["p", _enc_type(ty.pointee, structs)]
    if isinstance(ty, ct.ArrayType):
        return ["a", _enc_type(ty.element, structs), ty.count]
    if isinstance(ty, ct.StructType):
        _collect_structs(ty, structs)
        return ["s", ty.name]
    if isinstance(ty, ct.FunctionType):
        _collect_structs(ty, structs)
        return [
            "f",
            _enc_type(ty.return_type, structs),
            [_enc_type(p, structs) for p in ty.param_types],
        ]
    raise IRSerializeError(f"unserializable type {ty!r}")


_SCALAR_TYPES = {
    "void": ct.VOID,
    "int": ct.INT,
    "char": ct.CHAR,
    "float": ct.FLOAT,
}


def _dec_type(doc, structs: Dict[str, ct.StructType]) -> ct.Type:
    if isinstance(doc, str):
        try:
            return _SCALAR_TYPES[doc]
        except KeyError:
            raise IRSerializeError(f"unknown scalar type tag {doc!r}")
    tag = doc[0]
    if tag == "p":
        return ct.PointerType(_dec_type(doc[1], structs))
    if tag == "a":
        return ct.ArrayType(_dec_type(doc[1], structs), doc[2])
    if tag == "s":
        struct = structs.get(doc[1])
        if struct is None:
            raise IRSerializeError(f"reference to undeclared struct {doc[1]!r}")
        return struct
    if tag == "f":
        return ct.FunctionType(
            _dec_type(doc[1], structs),
            tuple(_dec_type(p, structs) for p in doc[2]),
        )
    raise IRSerializeError(f"unknown type tag {tag!r}")


# ---------------------------------------------------------------------------
# Source locations, variables, pragmas
# ---------------------------------------------------------------------------


def _enc_loc(loc: Optional[SourceLoc]):
    if loc is None:
        return None
    return [loc.filename, loc.line, loc.column]


def _dec_loc(doc) -> Optional[SourceLoc]:
    if doc is None:
        return None
    # SourceLoc.of interns: every deserialized reference to one source
    # position shares one instance, same as a freshly-lowered module.
    return SourceLoc.of(SourcePos(doc[0], doc[1], doc[2]))


def _enc_pragma(pragma) -> Dict:
    if isinstance(pragma, CarmotRoi):
        return {
            "kind": "carmot",
            "raw": pragma.raw,
            "abstraction": pragma.abstraction,
            "name": pragma.name,
        }
    if isinstance(pragma, OmpPragma):
        return {
            "kind": "omp",
            "raw": pragma.raw,
            "directive": pragma.directive,
            "private": list(pragma.private),
            "firstprivate": list(pragma.firstprivate),
            "lastprivate": list(pragma.lastprivate),
            "shared": list(pragma.shared),
            "reductions": [list(r) for r in pragma.reductions],
            "depend_in": list(pragma.depend_in),
            "depend_out": list(pragma.depend_out),
            "num_threads": pragma.num_threads,
            "has_ordered_clause": pragma.has_ordered_clause,
        }
    raise IRSerializeError(f"unserializable pragma {pragma!r}")


def _dec_pragma(doc: Dict):
    if doc["kind"] == "carmot":
        return CarmotRoi(
            raw=doc["raw"], abstraction=doc["abstraction"], name=doc["name"]
        )
    if doc["kind"] == "omp":
        return OmpPragma(
            raw=doc["raw"],
            directive=doc["directive"],
            private=list(doc["private"]),
            firstprivate=list(doc["firstprivate"]),
            lastprivate=list(doc["lastprivate"]),
            shared=list(doc["shared"]),
            reductions=[tuple(r) for r in doc["reductions"]],
            depend_in=list(doc["depend_in"]),
            depend_out=list(doc["depend_out"]),
            num_threads=doc["num_threads"],
            has_ordered_clause=doc["has_ordered_clause"],
        )
    raise IRSerializeError(f"unknown pragma kind {doc['kind']!r}")


class _Encoder:
    """Single-pass module walk accumulating the shared tables."""

    def __init__(self) -> None:
        self.structs: Dict[str, ct.StructType] = {}
        self.vars: Dict[int, VarInfo] = {}

    def ty(self, ty: ct.Type):
        return _enc_type(ty, self.structs)

    def var(self, var: Optional[VarInfo]):
        if var is None:
            return None
        known = self.vars.get(var.uid)
        if known is None:
            self.vars[var.uid] = var
        return var.uid

    def value(self, value: Optional[Value]):
        if value is None:
            return None
        if isinstance(value, Const):
            return ["c", value.value, self.ty(value.ty)]
        if isinstance(value, Temp):
            return ["t", value.name, self.ty(value.ty)]
        if isinstance(value, GlobalRef):
            return ["g", value.name, self.ty(value.ty)]
        if isinstance(value, FunctionRef):
            return ["fr", value.name, self.ty(value.ty), value.is_builtin]
        raise IRSerializeError(f"unserializable value {value!r}")

    # -- instructions -------------------------------------------------------

    def instr(self, instr: Instr) -> Dict:
        loc = _enc_loc(instr.loc)
        if isinstance(instr, Alloca):
            return {
                "op": "alloca", "result": self.value(instr.result),
                "ty": self.ty(instr.allocated_type),
                "var": self.var(instr.var), "loc": loc,
                "promoted": instr.promoted,
            }
        if isinstance(instr, Load):
            return {
                "op": "load", "result": self.value(instr.result),
                "ptr": self.value(instr.ptr), "var": self.var(instr.var),
                "loc": loc,
            }
        if isinstance(instr, Store):
            return {
                "op": "store", "value": self.value(instr.value),
                "ptr": self.value(instr.ptr), "var": self.var(instr.var),
                "loc": loc,
            }
        if isinstance(instr, BinOp):
            return {
                "op": "bin", "o": instr.op,
                "result": self.value(instr.result),
                "lhs": self.value(instr.lhs), "rhs": self.value(instr.rhs),
                "loc": loc,
            }
        if isinstance(instr, Cast):
            return {
                "op": "cast", "result": self.value(instr.result),
                "value": self.value(instr.value), "loc": loc,
            }
        if isinstance(instr, AddrOffset):
            return {
                "op": "addr", "result": self.value(instr.result),
                "base": self.value(instr.base),
                "index": self.value(instr.index),
                "scale": instr.scale, "offset": instr.offset, "loc": loc,
            }
        if isinstance(instr, Phi):
            return {
                "op": "phi", "result": self.value(instr.result),
                "incomings": [
                    [block.label, self.value(value)]
                    for block, value in instr.incomings.items()
                ],
                "loc": loc,
            }
        if isinstance(instr, Call):
            return {
                "op": "call", "result": self.value(instr.result),
                "callee": self.value(instr.callee),
                "args": [self.value(a) for a in instr.args],
                "loc": loc, "pin_gated": instr.pin_gated,
            }
        if isinstance(instr, Jump):
            return {"op": "jmp", "target": instr.target.label, "loc": loc}
        if isinstance(instr, Branch):
            return {
                "op": "br", "cond": self.value(instr.cond),
                "t": instr.if_true.label, "f": instr.if_false.label,
                "loc": loc,
            }
        if isinstance(instr, Ret):
            return {"op": "ret", "value": self.value(instr.value), "loc": loc}
        if isinstance(instr, RoiBegin):
            return {"op": "roi.begin", "roi": instr.roi_id, "loc": loc}
        if isinstance(instr, RoiEnd):
            return {"op": "roi.end", "roi": instr.roi_id, "loc": loc}
        if isinstance(instr, RoiReset):
            return {"op": "roi.reset", "roi": instr.roi_id, "loc": loc}
        if isinstance(instr, OmpRegionBegin):
            return {
                "op": "omp.begin", "kind": instr.kind,
                "region": instr.region_id, "loc": loc,
            }
        if isinstance(instr, OmpRegionEnd):
            return {
                "op": "omp.end", "kind": instr.kind,
                "region": instr.region_id, "loc": loc,
            }
        if isinstance(instr, OmpBarrier):
            return {"op": "omp.barrier", "loc": loc}
        if isinstance(instr, ProbeAccess):
            return {
                "op": "probe.access", "kind": instr.kind.value,
                "ptr": self.value(instr.ptr), "size": instr.size,
                "var": self.var(instr.var), "loc": loc,
                "count": self.value(instr.count), "stride": instr.stride,
                "site": instr.site_id,
            }
        if isinstance(instr, ProbeClassify):
            return {
                "op": "probe.classify", "states": instr.states,
                "ptr": self.value(instr.ptr), "size": instr.size,
                "var": self.var(instr.var), "loc": loc,
                "count": self.value(instr.count), "stride": instr.stride,
                "roi": instr.roi_id, "site": instr.site_id,
            }
        if isinstance(instr, ProbeEscape):
            return {
                "op": "probe.escape", "value": self.value(instr.value),
                "ptr": self.value(instr.ptr), "loc": loc,
            }
        raise IRSerializeError(f"unserializable instruction {instr!r}")


# ---------------------------------------------------------------------------
# serialize
# ---------------------------------------------------------------------------


def serialize_module(module: Module) -> str:
    """Canonical JSON text for ``module`` (see module docstring)."""
    enc = _Encoder()
    functions = []
    for function in module.functions.values():
        instr_index: Dict[int, Tuple[int, int]] = {}
        blocks = []
        for bi, block in enumerate(function.blocks):
            instrs = []
            for ii, instr in enumerate(block.instrs):
                instr_index[id(instr)] = (bi, ii)
                instrs.append(enc.instr(instr))
            blocks.append({"label": block.label, "instrs": instrs})
        var_allocas = []
        for uid, alloca in function.var_allocas.items():
            enc.var(alloca.var)
            where = instr_index.get(id(alloca))
            if where is None:
                # mem2reg detaches promoted allocas from their block but
                # keeps them in var_allocas (consumers read .promoted and
                # .result off them) — serialize those inline.
                var_allocas.append([uid, enc.instr(alloca)])
            else:
                var_allocas.append([uid, [where[0], where[1]]])
        functions.append({
            "name": function.name,
            "type": enc.ty(function.type),
            "params": [enc.var(v) for v in function.param_vars],
            "blocks": blocks,
            "var_allocas": var_allocas,
            "conv_opt": function.conventionally_optimized,
        })
    globals_doc = [
        {
            "name": gvar.name, "ty": enc.ty(gvar.ty),
            "var": enc.var(gvar.var), "init": gvar.init,
        }
        for gvar in module.globals.values()
    ]
    rois = [
        {
            "roi_id": roi.roi_id, "name": roi.name,
            "abstraction": roi.abstraction, "function": roi.function,
            "loc": _enc_loc(roi.loc), "is_loop_body": roi.is_loop_body,
            "induction_var": enc.var(roi.induction_var),
            "original_omp": [_enc_pragma(p) for p in roi.original_omp],
        }
        for roi in module.rois.values()
    ]
    omp_regions = [
        {
            "region_id": region.region_id, "kind": region.kind,
            "pragma": _enc_pragma(region.pragma),
            "function": region.function, "loc": _enc_loc(region.loc),
        }
        for region in module.omp_regions.values()
    ]
    omp_loops = [
        {
            "pragma": _enc_pragma(loop.pragma), "function": loop.function,
            "loc": _enc_loc(loop.loc), "roi_id": loop.roi_id,
        }
        for loop in module.omp_loops
    ]
    site_table = [
        [enc.var(var), _enc_loc(loc)] for var, loc in module.site_table
    ]
    # Shared tables, emitted in content order (uid / name), never walk or
    # hash order — this is what keeps digests process-stable.
    vars_doc = [
        {
            "uid": var.uid, "name": var.name, "storage": var.storage,
            "ty": enc.ty(var.ty), "decl_loc": _enc_loc(var.decl_loc),
        }
        for _, var in sorted(enc.vars.items())
    ]
    structs_doc = [
        {
            "name": name,
            "fields": [
                [fname, _enc_type(ftype, enc.structs)]
                for fname, ftype in enc.structs[name].fields
            ],
        }
        for name in sorted(enc.structs)
    ]
    doc = {
        "format": FORMAT_NAME,
        "version": IR_SCHEMA_VERSION,
        "name": module.name,
        "structs": structs_doc,
        "vars": vars_doc,
        "globals": globals_doc,
        "functions": functions,
        "rois": rois,
        "omp_regions": omp_regions,
        "omp_loops": omp_loops,
        "site_table": site_table,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def module_digest(module: Module) -> str:
    """SHA-256 over the canonical serialization — the cache identity of
    an IR module, stable across processes and machines."""
    return hashlib.sha256(serialize_module(module).encode("utf-8")).hexdigest()


def payload_digest(payload: str) -> str:
    """SHA-256 of an already-serialized artifact payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# deserialize
# ---------------------------------------------------------------------------

_TRAILING_INT = re.compile(r"(\d+)$")
_TEMP_NAME = re.compile(r"^t(\d+)$")


class _Decoder:
    def __init__(self, doc: Dict) -> None:
        self.structs: Dict[str, ct.StructType] = {}
        # Two-phase struct build supports self-referential bodies.
        for struct_doc in doc["structs"]:
            self.structs[struct_doc["name"]] = ct.StructType(
                struct_doc["name"]
            )
        for struct_doc in doc["structs"]:
            self.structs[struct_doc["name"]].set_body([
                (fname, _dec_type(ftype, self.structs))
                for fname, ftype in struct_doc["fields"]
            ])
        #: uid → one shared VarInfo instance (source-variable identity).
        self.vars: Dict[int, VarInfo] = {}
        for var_doc in doc["vars"]:
            self.vars[var_doc["uid"]] = VarInfo(
                uid=var_doc["uid"], name=var_doc["name"],
                storage=var_doc["storage"],
                ty=_dec_type(var_doc["ty"], self.structs),
                decl_loc=_dec_loc(var_doc["decl_loc"]),
            )
        #: Interned value instances: def/use identity of temps (and the
        #: cheap sharing of refs) survives the round-trip, which is what
        #: lets passes keep running on a deserialized module.
        self._values: Dict[Tuple, Value] = {}

    def ty(self, doc) -> ct.Type:
        return _dec_type(doc, self.structs)

    def var(self, uid: Optional[int]) -> Optional[VarInfo]:
        if uid is None:
            return None
        try:
            return self.vars[uid]
        except KeyError:
            raise IRSerializeError(f"reference to unknown var uid {uid}")

    def value(self, doc) -> Optional[Value]:
        if doc is None:
            return None
        key = json.dumps(doc, sort_keys=True)
        known = self._values.get(key)
        if known is not None:
            return known
        tag = doc[0]
        if tag == "c":
            value: Value = Const(doc[1], self.ty(doc[2]))
        elif tag == "t":
            value = Temp(doc[1], self.ty(doc[2]))
        elif tag == "g":
            value = GlobalRef(doc[1], self.ty(doc[2]))
        elif tag == "fr":
            value = FunctionRef(doc[1], self.ty(doc[2]), doc[3])
        else:
            raise IRSerializeError(f"unknown value tag {tag!r}")
        self._values[key] = value
        return value

    def instr(self, doc: Dict, blocks: Dict[str, Block]) -> Instr:
        op = doc["op"]
        loc = _dec_loc(doc["loc"])
        if op == "alloca":
            return Alloca(
                result=self.value(doc["result"]),
                allocated_type=self.ty(doc["ty"]),
                var=self.var(doc["var"]), loc=loc,
                promoted=doc["promoted"],
            )
        if op == "load":
            return Load(
                result=self.value(doc["result"]),
                ptr=self.value(doc["ptr"]), var=self.var(doc["var"]),
                loc=loc,
            )
        if op == "store":
            return Store(
                value=self.value(doc["value"]),
                ptr=self.value(doc["ptr"]), var=self.var(doc["var"]),
                loc=loc,
            )
        if op == "bin":
            return BinOp(
                result=self.value(doc["result"]), op=doc["o"],
                lhs=self.value(doc["lhs"]), rhs=self.value(doc["rhs"]),
                loc=loc,
            )
        if op == "cast":
            return Cast(
                result=self.value(doc["result"]),
                value=self.value(doc["value"]), loc=loc,
            )
        if op == "addr":
            return AddrOffset(
                result=self.value(doc["result"]),
                base=self.value(doc["base"]),
                index=self.value(doc["index"]),
                scale=doc["scale"], offset=doc["offset"], loc=loc,
            )
        if op == "phi":
            return Phi(
                result=self.value(doc["result"]),
                incomings={
                    blocks[label]: self.value(value)
                    for label, value in doc["incomings"]
                },
                loc=loc,
            )
        if op == "call":
            return Call(
                result=self.value(doc["result"]),
                callee=self.value(doc["callee"]),
                args=[self.value(a) for a in doc["args"]],
                loc=loc, pin_gated=doc["pin_gated"],
            )
        if op == "jmp":
            return Jump(target=blocks[doc["target"]], loc=loc)
        if op == "br":
            return Branch(
                cond=self.value(doc["cond"]), if_true=blocks[doc["t"]],
                if_false=blocks[doc["f"]], loc=loc,
            )
        if op == "ret":
            return Ret(value=self.value(doc["value"]), loc=loc)
        if op == "roi.begin":
            return RoiBegin(roi_id=doc["roi"], loc=loc)
        if op == "roi.end":
            return RoiEnd(roi_id=doc["roi"], loc=loc)
        if op == "roi.reset":
            return RoiReset(roi_id=doc["roi"], loc=loc)
        if op == "omp.begin":
            return OmpRegionBegin(
                kind=doc["kind"], region_id=doc["region"], loc=loc
            )
        if op == "omp.end":
            return OmpRegionEnd(
                kind=doc["kind"], region_id=doc["region"], loc=loc
            )
        if op == "omp.barrier":
            return OmpBarrier(loc=loc)
        if op == "probe.access":
            return ProbeAccess(
                kind=AccessKind(doc["kind"]), ptr=self.value(doc["ptr"]),
                size=doc["size"], var=self.var(doc["var"]), loc=loc,
                count=self.value(doc["count"]), stride=doc["stride"],
                site_id=doc["site"],
            )
        if op == "probe.classify":
            return ProbeClassify(
                states=doc["states"], ptr=self.value(doc["ptr"]),
                size=doc["size"], var=self.var(doc["var"]), loc=loc,
                count=self.value(doc["count"]), stride=doc["stride"],
                roi_id=doc["roi"], site_id=doc["site"],
            )
        if op == "probe.escape":
            return ProbeEscape(
                value=self.value(doc["value"]), ptr=self.value(doc["ptr"]),
                loc=loc,
            )
        raise IRSerializeError(f"unknown instruction op {op!r}")


def deserialize_module(text: str) -> Module:
    """Rebuild a :class:`Module` from :func:`serialize_module` output;
    raises :class:`IRSerializeError` on any malformed or stale payload."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as error:
        raise IRSerializeError(f"malformed IR artifact: {error}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise IRSerializeError("not a serialized IR module")
    if doc.get("version") != IR_SCHEMA_VERSION:
        raise IRSerializeError(
            f"IR artifact version {doc.get('version')!r} does not match "
            f"this toolchain's {IR_SCHEMA_VERSION}"
        )
    try:
        return _decode_module(doc)
    except IRSerializeError:
        raise
    except (ReproError, KeyError, IndexError, TypeError, ValueError,
            AttributeError, OverflowError) as error:
        raise IRSerializeError(f"malformed IR artifact: {error}")


def _decode_module(doc: Dict) -> Module:
    dec = _Decoder(doc)
    module = Module(doc["name"])
    for gvar_doc in doc["globals"]:
        module.globals[gvar_doc["name"]] = GlobalVariable(
            name=gvar_doc["name"], ty=dec.ty(gvar_doc["ty"]),
            var=dec.var(gvar_doc["var"]), init=gvar_doc["init"],
        )
    for fdoc in doc["functions"]:
        function = Function(fdoc["name"], dec.ty(fdoc["type"]))
        function.param_vars = [dec.var(uid) for uid in fdoc["params"]]
        function.conventionally_optimized = fdoc["conv_opt"]
        blocks: Dict[str, Block] = {}
        max_label = -1
        for bdoc in fdoc["blocks"]:
            block = Block(bdoc["label"])
            block.parent = function
            function.blocks.append(block)
            blocks[block.label] = block
            match = _TRAILING_INT.search(block.label)
            if match:
                max_label = max(max_label, int(match.group(1)))
        max_temp = -1
        for bdoc, block in zip(fdoc["blocks"], function.blocks):
            for idoc in bdoc["instrs"]:
                instr = dec.instr(idoc, blocks)
                block.instrs.append(instr)
                result = instr.result
                if result is not None:
                    match = _TEMP_NAME.match(result.name)
                    if match:
                        max_temp = max(max_temp, int(match.group(1)))
        for uid, where in fdoc["var_allocas"]:
            if isinstance(where, dict):
                function.var_allocas[uid] = dec.instr(where, blocks)
            else:
                bi, ii = where
                function.var_allocas[uid] = function.blocks[bi].instrs[ii]
        # Fresh counters resume past every used label/temp so later
        # passes can keep allocating without collisions.
        function._label_counter = itertools.count(max_label + 1)
        function._temp_counter = itertools.count(max_temp + 1)
        module.add_function(function)
    max_roi = -1
    for rdoc in doc["rois"]:
        roi = RoiInfo(
            roi_id=rdoc["roi_id"], name=rdoc["name"],
            abstraction=rdoc["abstraction"], function=rdoc["function"],
            loc=_dec_loc(rdoc["loc"]), is_loop_body=rdoc["is_loop_body"],
            induction_var=dec.var(rdoc["induction_var"]),
            original_omp=[_dec_pragma(p) for p in rdoc["original_omp"]],
        )
        module.rois[roi.roi_id] = roi
        max_roi = max(max_roi, roi.roi_id)
    max_region = -1
    for rdoc in doc["omp_regions"]:
        region = OmpRegionInfo(
            region_id=rdoc["region_id"], kind=rdoc["kind"],
            pragma=_dec_pragma(rdoc["pragma"]), function=rdoc["function"],
            loc=_dec_loc(rdoc["loc"]),
        )
        module.omp_regions[region.region_id] = region
        max_region = max(max_region, region.region_id)
    for ldoc in doc["omp_loops"]:
        module.omp_loops.append(OmpLoopInfo(
            pragma=_dec_pragma(ldoc["pragma"]), function=ldoc["function"],
            loc=_dec_loc(ldoc["loc"]), roi_id=ldoc["roi_id"],
        ))
    module.site_table = [
        (dec.var(uid), _dec_loc(loc)) for uid, loc in doc["site_table"]
    ]
    module._roi_counter = itertools.count(max_roi + 1)
    module._region_counter = itertools.count(max_region + 1)
    return module

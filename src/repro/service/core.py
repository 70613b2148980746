"""Transport-agnostic service core: execute requests, return documents.

:class:`ServiceCore` is the single orchestration path over the session
layer.  It executes a typed request (:mod:`repro.service.requests`)
against a :class:`~repro.session.Session` and returns a **response
document** — a plain JSON-able dict — instead of printing.  The CLI
renders that document to the historical byte-exact output
(:mod:`repro.service.format`); the ``repro serve`` daemon ships it over
a socket; tests digest it.

Response envelope::

    {"kind": "...", "ok": true, "service_schema": 1,
     "body": {...},   # deterministic: equal runs produce equal bodies
     "meta": {...}}   # volatile: cache stage hits, pass timings, ...

The body/meta split is the digest contract: :func:`response_digest`
hashes ``kind`` + ``body`` only, so a cold daemon response, a warm one,
and an in-process run of the same request all share one digest — that is
what the daemon and differential suites gate on.  Every
response is normalized through JSON: a round trip does not return the
Python values it was given (tuples come back as lists), and the
in-process caller must see exactly the object a socket client would
parse.  The session stages behind a response hand their live results
downstream; only this wire shape is normalized.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro._version import SERVICE_SCHEMA_VERSION
from repro.abstractions import describe_pse
from repro.compiler import CompiledProgram
from repro.errors import ReproError
from repro.recommend import parse_selection, recommender_registry_fingerprint
from repro.runtime.psec_json import psec_sets_digest, psec_sets_doc
from repro.service.requests import (
    DisRequest,
    IrRequest,
    OverheadRequest,
    PsecRequest,
    RecommendRequest,
    RunOptions,
    parse_request_doc,
)
from repro.session import Session, keys
from repro.session.store import ArtifactStore


def response_digest(doc: Dict[str, object]) -> str:
    """SHA-256 over the deterministic part of a response document.

    Meta (cache stage hits, pass timings, queue waits) is excluded: the
    digest witnesses *what was computed*, not how it was served, so warm
    and cold paths — and the daemon vs the in-process core — must agree.
    """
    material = {"kind": doc.get("kind"), "body": doc.get("body")}
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Format marker of a stored ``response`` artifact payload.
RESPONSE_FORMAT = "repro-response"

#: Body keys of the kinds whose finished response is stored as an
#: artifact; a stored body with any other key set is a miss.
_BODY_KEYS = {
    "psec": {"sets_digest", "rois", "degraded", "degradation"},
    "recommend": {"output", "recommend_schema", "recommenders", "rois",
                  "degraded", "degradation"},
}


def _envelope(kind: str, body: Dict[str, object],
              meta: Dict[str, object]) -> Dict[str, object]:
    return {
        "kind": kind,
        "ok": True,
        "service_schema": SERVICE_SCHEMA_VERSION,
        "body": body,
        "meta": meta,
    }


def _stored_body(payload: Optional[str],
                 kind: str) -> Optional[Dict[str, object]]:
    """The body of a stored ``response`` payload, or None when the
    payload is absent or not a well-formed response for ``kind``."""
    if payload is None:
        return None
    try:
        doc = json.loads(payload)
    except ValueError:
        return None
    if not (isinstance(doc, dict)
            and doc.get("format") == RESPONSE_FORMAT
            and doc.get("version") == SERVICE_SCHEMA_VERSION
            and doc.get("kind") == kind):
        return None
    body = doc.get("body")
    if not isinstance(body, dict) or body.keys() != _BODY_KEYS[kind]:
        return None
    return body


def error_response(kind: Optional[str], error_type: str,
                   message: str) -> Dict[str, object]:
    """The canonical failure envelope (also used for ``overloaded``)."""
    return {
        "kind": kind,
        "ok": False,
        "service_schema": SERVICE_SCHEMA_VERSION,
        "error": {"type": error_type, "message": message},
        "body": None,
        "meta": {},
    }


def _pass_stats_block(options: RunOptions,
                      program: CompiledProgram) -> Optional[str]:
    """The stdout block ``--print-pass-stats`` emits: the report and a
    trailing blank line."""
    if not options.print_pass_stats or program.pass_report is None:
        return None
    return program.pass_report.render() + "\n\n"


class ServiceCore:
    """Executes service requests against one artifact store.

    One core serves many requests; each request gets a fresh
    :class:`Session` honoring its options (``no_cache`` etc.), all
    sessions sharing the core's cache directory and namespace.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 namespace: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.namespace = namespace

    # -- public API ----------------------------------------------------------

    def execute(self, request) -> Dict[str, object]:
        """Execute a typed request; returns the response document.

        A ``psec``/``recommend`` request with the cache enabled is first
        looked up as a stored ``response`` artifact: a hit returns the
        stored body with ``meta.stages == {"response": "hit"}`` and runs
        no other stage.  A miss computes the body through the stage
        artifacts and stores it.

        Raises :class:`ReproError` on request/toolchain errors — wrap
        with :meth:`execute_doc` for the never-raises wire behaviour.
        """
        store = key = None
        if request.kind in _BODY_KEYS and request.options.session_enabled:
            store = ArtifactStore.open(self.cache_dir,
                                       namespace=self.namespace)
            key = keys.response_key(request.to_doc(),
                                    recommender_registry_fingerprint())
            body = _stored_body(store.get(key), request.kind)
            if body is not None:
                return _envelope(request.kind, body,
                                 {"stages": {"response": "hit"}})
        handler = {
            "recommend": self._recommend,
            "psec": self._psec,
            "overhead": self._overhead,
            "ir": self._ir,
            "dis": self._dis,
        }[request.kind]
        body, meta = handler(request)
        if store is not None:
            # Not key-sorted: the order of the psec Sets is output.
            payload = json.dumps(
                {"format": RESPONSE_FORMAT, "version": SERVICE_SCHEMA_VERSION,
                 "kind": request.kind, "body": body},
                separators=(",", ":"),
            )
            store.put(key, payload, "response")
            # Normalize through the artifact: a miss hands back exactly
            # the body a later hit will (meta here is plain JSON already).
            meta["stages"] = {**meta["stages"], "response": "miss"}
            return _envelope(request.kind, json.loads(payload)["body"], meta)
        # Normalize through the wire format: the in-process caller and a
        # socket client must be handed indistinguishable objects.
        return json.loads(json.dumps(_envelope(request.kind, body, meta)))

    def execute_doc(self, doc: Dict[str, object]) -> Dict[str, object]:
        """Wire entry point: request document in, response document out.

        Never raises for request-shaped failures — toolchain errors
        come back as the canonical error envelope.
        """
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if not isinstance(kind, str):
            kind = None
        try:
            request = parse_request_doc(doc)
            return self.execute(request)
        except ReproError as error:
            return error_response(kind, "error", str(error))
        except Exception as error:  # noqa: BLE001 — daemon must not die
            return error_response(
                kind, "internal", f"{type(error).__name__}: {error}"
            )

    # -- shared stages -------------------------------------------------------

    def _session(self, options: RunOptions) -> Session:
        return Session(cache_dir=self.cache_dir,
                       enabled=options.session_enabled,
                       namespace=self.namespace)

    def _profile(self, request):
        """Session-backed compile+profile shared by recommend/psec.

        Returns ``(profiled, meta, session)`` — the session is handed
        back so follow-on stages (the recommend artifact) share it.
        """
        options = request.options
        session = self._session(options)
        profiled = session.profile(
            request.source, options.profiling_pipeline(),
            abstraction=options.abstraction,
            name=request.name, entry=options.entry,
            trace=options.trace, **options.run_kwargs(),
        )
        meta: Dict[str, object] = {"stages": dict(profiled.stages)}
        block = _pass_stats_block(options, profiled.program)
        if block is not None:
            meta["pass_stats"] = [block]
        return profiled, meta, session

    @staticmethod
    def _degradation_fields(runtime) -> Dict[str, object]:
        degraded = bool(runtime is not None and runtime.degraded)
        return {
            "degraded": degraded,
            "degradation": runtime.degradation.summary() if degraded
            else None,
        }

    # -- kind: recommend -----------------------------------------------------

    def _recommend(self, request: RecommendRequest):
        # Validate the selection before paying for the profile.
        parse_selection(request.options.recommenders)
        profiled, meta, session = self._profile(request)
        result, runtime = profiled.result, profiled.runtime
        doc, stage = session.recommend_doc(
            profiled, abstraction=request.options.abstraction,
            recommenders=request.options.recommenders,
        )
        meta["stages"] = {**meta["stages"], "recommend": stage}
        body = {
            "output": [str(token) for token in result.output],
            "recommend_schema": doc["version"],
            "recommenders": doc["recommenders"],
            "rois": doc["rois"],
            **self._degradation_fields(runtime),
        }
        return body, meta

    # -- kind: psec ----------------------------------------------------------

    def _psec(self, request: PsecRequest):
        profiled, meta, _ = self._profile(request)
        program, runtime = profiled.program, profiled.runtime
        # One Sets build per ROI feeds the listing, the keys and the digest.
        sets = {roi_id: psec.sets() for roi_id, psec in runtime.psecs.items()}
        sets_doc = psec_sets_doc(runtime.psecs, sets)
        rois: List[Dict[str, object]] = []
        for roi_id, psec in sorted(runtime.psecs.items()):
            roi = program.module.rois[roi_id]
            reachability = None
            if psec.reachability.edge_count:
                reachability = {
                    "nodes": psec.reachability.node_count,
                    "edges": psec.reachability.edge_count,
                    "cycles": len(psec.reachability.find_cycles()),
                }
            rois.append({
                "id": roi_id,
                "name": roi.name,
                "loc": str(roi.loc),
                "invocations": psec.invocations,
                "degraded": bool(psec.degraded),
                "degradation_reasons": list(psec.degradation_reasons),
                # Human-listing view: described PSE names per set, in the
                # canonical psec.sets() set order.
                "sets": {
                    set_name: sorted(
                        str(describe_pse(k, psec, runtime.asmt))
                        for k in set_keys
                    )
                    for set_name, set_keys in sets[roi_id].items()
                },
                # Machine view: the raw key tuples (psec --json material).
                "sets_keys": sets_doc[str(roi_id)],
                "reachability": reachability,
            })
        body = {
            "sets_digest": psec_sets_digest(runtime.psecs, sets_doc),
            "rois": rois,
            **self._degradation_fields(runtime),
        }
        return body, meta

    # -- kind: overhead ------------------------------------------------------

    def _overhead(self, request: OverheadRequest):
        options = request.options
        kwargs = options.run_kwargs()
        session = self._session(options)
        # Baseline builds have no profile artifact (nothing but a
        # RunResult); the compile is still cached, the VM run is live.
        base_compile = session.compile(
            request.source, "baseline", name=request.name
        )
        base, _ = base_compile.program.run(
            entry=options.entry, budgets=kwargs.get("budgets"),
        )
        pass_stats: List[str] = []
        legs: Dict[str, object] = {}
        # --passes swaps out the CARMOT leg of the comparison.
        for leg_name, pipeline in (
            ("naive", "naive"),
            ("carmot", options.profiling_pipeline()),
        ):
            profiled = session.profile(
                request.source, pipeline, abstraction=options.abstraction,
                name=request.name, entry=options.entry, **kwargs,
            )
            block = _pass_stats_block(options, profiled.program)
            if block is not None:
                pass_stats.append(block)
            legs[leg_name] = profiled.result.cost
        body = {
            "baseline_cost": base.cost,
            "naive_cost": legs["naive"],
            "carmot_cost": legs["carmot"],
        }
        meta: Dict[str, object] = {}
        if pass_stats:
            meta["pass_stats"] = pass_stats
        return body, meta

    # -- kind: ir ------------------------------------------------------------

    @staticmethod
    def _resolve_ir_pipeline(request: IrRequest) -> Optional[str]:
        if request.options.passes:
            # An explicit pipeline overrides the mode.
            return request.options.passes
        if request.mode in ("baseline", "naive", "carmot"):
            return request.mode
        return None  # plain: frontend only

    def _ir(self, request: IrRequest):
        options = request.options
        session = self._session(options)
        pipeline = self._resolve_ir_pipeline(request)
        meta: Dict[str, object] = {}
        if pipeline is None:
            module, _, _ = session.frontend(request.source, request.name)
        else:
            compiled = session.compile(
                request.source, pipeline, options.abstraction,
                name=request.name,
            )
            block = _pass_stats_block(options, compiled.program)
            if block is not None:
                meta["pass_stats"] = [block]
            meta["stages"] = dict(compiled.stages)
            module = compiled.program.module
        body = {"ir": str(module), "pipeline": pipeline}
        return body, meta

    # -- kind: dis -----------------------------------------------------------

    def _dis(self, request: DisRequest):
        from repro.vm.bytecode import disassemble

        options = request.options
        session = self._session(options)
        pipeline = options.passes if options.passes else request.mode
        compiled = session.compile(
            request.source, pipeline, options.abstraction,
            name=request.name,
        )
        program = compiled.program
        stages = dict(compiled.stages)
        stages["codegen"] = session.codegen(program, compiled.ir_digest)
        meta: Dict[str, object] = {"stages": stages}
        block = _pass_stats_block(options, program)
        if block is not None:
            meta["pass_stats"] = [block]
        return {"listing": disassemble(program.bytecode)}, meta

"""Cache-key derivation for session stages.

Every key is the SHA-256 of a canonical JSON document that names the
stage, embeds the **environment fingerprint**, and lists exactly the
inputs the stage's output depends on.  Stage keys compose — the pipeline
key embeds the frontend artifact digest, the profile key embeds the
post-pipeline IR digest — which yields the invalidation matrix for free:

===================  ========  ========  =======  =========  ========
changed input        frontend  pipeline  profile  recommend  response
===================  ========  ========  =======  =========  ========
source text          miss      miss      miss     miss       miss
pass pipeline        hit       miss      miss     miss       miss
registry version     hit       miss      miss     miss       miss
budgets              hit       hit       miss     miss       miss
entry/args/costs     hit       hit       miss     miss       miss
recommender select   hit       hit       hit      miss       miss
recommender registry hit       hit       hit      miss       miss
request kind         hit       hit       hit      -          miss
service schema       hit       hit       hit      hit        miss
Python major.minor   miss      miss      miss     miss       miss
schema versions      miss      miss      miss     miss       miss
===================  ========  ========  =======  =========  ========

The ``response`` artifact is the finished ``psec``/``recommend`` body,
keyed on the request document itself rather than on stage digests, so a
repeat request is answered without touching any other stage.  Its key
is a function of the request's *spelling* (``carmot`` and its literal
seven-pass pipeline are two keys), which costs at most one extra miss;
the stages underneath still share their artifacts.

The environment fingerprint (the stale-cache footgun fix) carries the
Python ``major.minor`` and every artifact schema version, so 3.10 and
3.12 CI runners never share entries and a schema bump orphans old
artifacts instead of misreading them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from typing import Dict, Optional, Sequence

from repro._version import (
    BYTECODE_SCHEMA_VERSION,
    IR_SCHEMA_VERSION,
    PROFILE_SCHEMA_VERSION,
    RECOMMEND_SCHEMA_VERSION,
    SERVICE_SCHEMA_VERSION,
    STORE_VERSION,
)
from repro.passes.registry import registry_fingerprint


def environment_fingerprint() -> Dict[str, object]:
    """The part of every cache key that pins the toolchain environment."""
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "ir_schema": IR_SCHEMA_VERSION,
        "profile_schema": PROFILE_SCHEMA_VERSION,
        "bytecode_schema": BYTECODE_SCHEMA_VERSION,
        "recommend_schema": RECOMMEND_SCHEMA_VERSION,
        "store": STORE_VERSION,
    }


def _digest(stage: str, material: Dict[str, object]) -> str:
    doc = {"stage": stage, "env": environment_fingerprint(), **material}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def frontend_key(source: str, name: str) -> str:
    """Key of the parse+lower stage output (the pre-pass IR module)."""
    return _digest("frontend", {"source": source, "name": name})


def pipeline_key(
    frontend_digest: str,
    pass_names: Sequence[str],
    abstraction: Optional[str],
) -> str:
    """Key of the pass-pipeline+instrument stage output.

    ``pass_names`` is the *parsed* pipeline (aliases expanded, removals
    applied), so ``"carmot"`` and its literal seven-pass spelling share
    one artifact.  The registry fingerprint folds in pass availability
    and :data:`~repro.passes.registry.REGISTRY_VERSION`.
    """
    return _digest("pipeline", {
        "frontend": frontend_digest,
        "passes": list(pass_names),
        "abstraction": abstraction,
        "registry": registry_fingerprint(),
    })


def codegen_key(ir_digest: str) -> str:
    """Key of the bytecode-lowering stage output (the register bytecode).

    Keyed on the post-pipeline IR *content* digest alone: lowering is a
    pure function of the module, so any pipeline producing identical IR
    shares one bytecode artifact.  The environment fingerprint carries
    :data:`~repro._version.BYTECODE_SCHEMA_VERSION`, so an opcode-layout
    change orphans old entries instead of misreading them.
    """
    return _digest("codegen", {"ir": ir_digest})


def profile_key(
    ir_digest: str,
    mode: str,
    run_config: Dict[str, object],
) -> str:
    """Key of the execute+characterize stage output (the profile).

    Keyed on the post-pipeline IR *content* digest — not the pipeline
    key — so two pipelines producing identical instrumented IR share one
    profile.  ``run_config`` carries everything that steers execution:
    entry/args, cost model, VM budgets, resilience policy.
    """
    return _digest("profile", {
        "ir": ir_digest,
        "mode": mode,
        "run": run_config,
    })


def recommend_key(
    ir_digest: str,
    profile_digest: str,
    recommender_names: Sequence[str],
    abstraction: Optional[str],
    recommender_registry: str,
) -> str:
    """Key of the recommendation-doc stage output.

    Keyed on the post-pipeline IR digest *and* the profile payload
    digest: the doc consumes both dynamic evidence (Sets, ASMT) and
    static evidence (loops, regions, induction facts), and two policies
    can produce byte-identical profiles over different modules.
    ``recommender_names`` is the *parsed* selection (aliases expanded,
    removals applied) and ``abstraction`` the per-request override, so
    ``--recommenders roles`` and its literal spelling share one
    artifact.  ``recommender_registry`` is
    :func:`repro.recommend.registry.recommender_registry_fingerprint`;
    the environment fingerprint already carries
    :data:`~repro._version.RECOMMEND_SCHEMA_VERSION`.
    """
    return _digest("recommend", {
        "ir": ir_digest,
        "profile": profile_digest,
        "recommenders": list(recommender_names),
        "abstraction": abstraction,
        "registry": recommender_registry,
    })


def response_key(
    request_doc: Dict[str, object],
    recommender_registry: str,
) -> str:
    """Key of a finished ``psec``/``recommend`` response body.

    ``request_doc`` is the request's canonical wire document (kind,
    source, name, and the non-default run options), so any option that
    can change the body changes the key.  The pass and recommender
    registry fingerprints cover the code the body is derived with; the
    environment fingerprint already carries every artifact schema
    version, and :data:`~repro._version.SERVICE_SCHEMA_VERSION` pins the
    body's own shape.
    """
    return _digest("response", {
        "request": request_doc,
        "service_schema": SERVICE_SCHEMA_VERSION,
        "passes": registry_fingerprint(),
        "recommenders": recommender_registry,
    })


def run_config_doc(
    entry: str,
    args: Sequence[object],
    cost_model,
    max_instructions: int,
    budgets,
    abstraction: Optional[str],
    config_kwargs: Dict[str, object],
) -> Dict[str, object]:
    """Canonical, JSON-able view of one ``CompiledProgram.run()`` call.

    ``config_kwargs`` are the ``RuntimeConfig`` overrides of the run
    (the CLI's ``resilience``, Figure 8's ``callstack_clustering``);
    dataclass values are flattened via ``asdict`` so
    two equal policies produce equal documents.
    """
    config: Dict[str, object] = {}
    for key in sorted(config_kwargs):
        config[key] = _jsonable(config_kwargs[key])
    return {
        "entry": entry,
        "args": [_jsonable(a) for a in args],
        "cost_model": _jsonable(cost_model),
        "max_instructions": max_instructions,
        "budgets": _jsonable(budgets),
        "abstraction": abstraction,
        "config": config,
    }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        doc = asdict(value)
        return {k: _jsonable(v) for k, v in sorted(doc.items())}
    if hasattr(value, "value") and hasattr(type(value), "__members__"):
        return value.value  # enum
    return repr(value)

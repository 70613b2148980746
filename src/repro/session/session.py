"""Staged toolchain sessions with incremental artifact reuse.

A :class:`Session` decomposes the monolithic "parse-and-run" flow into
stages backed by the content-addressed :class:`ArtifactStore`:

``frontend``
    parse + lower + verify → the pre-pass IR module, cached as a
    serialized IR artifact keyed on the source text;
``pipeline``
    pass pipeline + instrumentation → the runnable module, keyed on the
    frontend artifact digest, the parsed pass list, options, and the
    registry fingerprint;
``codegen``
    bytecode lowering → the register bytecode the dispatch-loop VM
    executes, keyed on the post-pipeline IR digest alone;
``profile``
    execute + characterize → the full profile (PSECs, ASMT, degradation,
    run result), keyed on the post-pipeline IR digest and the complete
    run configuration.

A stage miss stores the serialized result (those bytes are the cache
entry, and their digest is what every later key is built on) and hands
the *live* result downstream; only a hit decodes.  The contract that
makes this sound: a live stage output and its decoded artifact are
interchangeable — every downstream artifact and response built from one
is byte-identical to the one built from the other, so a cold run and a
warm run agree (``tests/integration/test_live_stage_outputs.py`` pins
this per stage).  The recommendation doc is the exception: JSON does not
return the Python values it was given (tuples come back as lists), so a
miss hands back the decoded doc, exactly what a later hit returns.

A stale or foreign artifact (schema bump, hand-edited entry) fails
deserialization and is treated as a miss: the stage recomputes and
overwrites.  With ``enabled=False`` the session runs every stage live —
semantics are identical, nothing touches disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.carmot import (
    CarmotBuildInfo,
    CarmotOptions,
    carmot_pass_names,
)
from repro.compiler.driver import BuildMode, CompiledProgram
from repro.compiler.driver import frontend as live_frontend
from repro.compiler.driver import _resolve_abstraction
from repro.errors import ReproError
from repro.ir.module import Module
from repro.ir.serialize import (
    IRSerializeError,
    deserialize_module,
    payload_digest,
    serialize_module,
)
from repro.ir.verifier import verify_module
from repro.passes.manager import PassManager, PipelineContext
from repro.passes.registry import parse_pipeline
from repro.resilience.budgets import ExecutionBudgets
from repro.runtime.config import naive_policy_for, policy_for
from repro.runtime.psec_json import (
    Profile,
    ProfileSerializeError,
    deserialize_profile,
    serialize_profile,
)
from repro.session import keys
from repro.session.store import ArtifactStore
from repro.vm.bytecode import (
    BytecodeSerializeError,
    deserialize_bytecode,
    serialize_bytecode,
)
from repro.vm.codegen import lower_module
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel

#: Stage names, in flow order (parse/lower share the frontend artifact,
#: pass-pipeline/instrument share the pipeline artifact, lowering owns
#: the bytecode artifact, execute/characterize share the profile
#: artifact, and recommendation-doc generation owns the recommend
#: artifact).  The ``recommend`` stage only appears in ``stages`` for
#: :meth:`Session.recommend_doc` callers.
STAGES = ("frontend", "pipeline", "codegen", "profile", "recommend")


@dataclass
class CompileResult:
    """Outcome of the frontend+pipeline stages."""

    program: CompiledProgram
    #: Content digest of the post-pipeline IR artifact (profile key input).
    ir_digest: str
    #: Stage → "hit" | "miss" for this call.
    stages: Dict[str, str]


@dataclass
class ProfileResult:
    """Outcome of the full flow up to characterization.

    ``runtime`` is a live ``CarmotRuntime`` on a cache miss and a
    :class:`~repro.runtime.psec_json.Profile` on a hit; both expose
    ``psecs``/``asmt``/``degradation``/``degraded``/``module``, which is
    every attribute the read-side consumers use.
    """

    result: object
    runtime: object
    program: CompiledProgram
    #: Canonical serialized profile (byte-identical warm vs cold).
    payload: str
    stages: Dict[str, str]
    #: Content digest of the post-pipeline IR artifact (recommend key
    #: input — two policies can produce byte-identical profiles over
    #: different modules).
    ir_digest: str = ""

    @property
    def cached(self) -> bool:
        return self.stages.get("profile") == "hit"


class Session:
    """One toolchain session over one artifact store.

    ``namespace`` selects a per-client partition of the store (the
    ``repro serve`` daemon opens one namespaced session per client);
    ``None`` is the default root partition.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        enabled: bool = True,
        namespace: Optional[str] = None,
    ) -> None:
        self.store: Optional[ArtifactStore] = (
            ArtifactStore.open(cache_dir, namespace=namespace)
            if enabled else None
        )

    # -- stage: frontend (parse + lower) ------------------------------------

    def frontend(self, source: str, name: str = "program"
                 ) -> Tuple[Module, str, str]:
        """Returns ``(module, artifact_digest, "hit"|"miss")``."""
        key = keys.frontend_key(source, name)
        payload = self.store.get(key) if self.store else None
        if payload is not None:
            try:
                return deserialize_module(payload), \
                    payload_digest(payload), "hit"
            except IRSerializeError:
                payload = None
        module = live_frontend(source, name)
        payload = serialize_module(module)
        if self.store is not None:
            self.store.put(key, payload, "ir")
        return module, payload_digest(payload), "miss"

    # -- stage: pass pipeline + instrument ----------------------------------

    def compile(
        self,
        source: str,
        pipeline: Union[str, Sequence[str]] = "carmot",
        abstraction: Optional[str] = None,
        options: Optional[CarmotOptions] = None,
        name: str = "program",
    ) -> CompileResult:
        """The session analogue of ``compile_pipeline``."""
        if pipeline == "carmot" and options is not None:
            # The bare alias is frozen at default options; expand it from
            # the caller's options instead (``compile_carmot`` parity) so
            # the pipeline follows the per-optimization toggles.
            names = list(carmot_pass_names(options))
        else:
            names = parse_pipeline(pipeline)
        module, frontend_digest, frontend_stage = self.frontend(source, name)
        if "naive-instrument" in names:
            mode = BuildMode.NAIVE
            policy = naive_policy_for(_resolve_abstraction(module, abstraction))
        elif "instrument" in names:
            mode = BuildMode.CARMOT
            policy = policy_for(_resolve_abstraction(module, abstraction))
        else:
            mode = BuildMode.BASELINE
            policy = None
        if mode is BuildMode.CARMOT:
            options = options or CarmotOptions()
        key = keys.pipeline_key(
            frontend_digest, names, abstraction, keys._jsonable(options)
        )
        payload = self.store.get(key) if self.store else None
        compiled: Optional[Module] = None
        build_info = None
        instrument_report = None
        pass_report = None
        if payload is not None:
            try:
                compiled = deserialize_module(payload)
                pipeline_stage = "hit"
            except IRSerializeError:
                payload = None
        if compiled is None:
            build_info = (
                CarmotBuildInfo(options=options)
                if mode is BuildMode.CARMOT else None
            )
            ctx = PipelineContext(policy=policy, build_info=build_info)
            manager = PassManager(names, ctx)
            pass_report = manager.run(module)
            if build_info is not None:
                build_info.pass_report = pass_report
            verify_module(module)
            instrument_report = ctx.instrument_report
            payload = serialize_module(module)
            if self.store is not None:
                self.store.put(key, payload, "ir")
            compiled = module
            pipeline_stage = "miss"
        program = CompiledProgram(
            compiled, mode, policy=policy,
            options=options if mode is BuildMode.CARMOT else None,
            build_info=build_info, report=instrument_report,
            pass_report=pass_report,
        )
        return CompileResult(
            program=program,
            ir_digest=payload_digest(payload),
            stages={"frontend": frontend_stage, "pipeline": pipeline_stage},
        )

    # -- stage: bytecode lowering --------------------------------------------

    def codegen(self, program: CompiledProgram, ir_digest: str) -> str:
        """Lower (cached) the program to register bytecode.

        Attaches the bytecode to ``program.bytecode`` and returns
        ``"hit"`` or ``"miss"``.  A miss attaches the live lowering,
        whose variable table already holds the module's own ``VarInfo``
        instances.  A hit rebinds the decoded table against the
        program's IR module — the engine keys access sites by
        ``VarInfo`` identity, so the bytecode must share the module's
        instances, not deserialized clones.
        """
        key = keys.codegen_key(ir_digest)
        payload = self.store.get(key) if self.store else None
        if payload is not None:
            try:
                bytecode = deserialize_bytecode(payload)
            except BytecodeSerializeError:
                payload = None
            else:
                bytecode.rebind_vars(program.module)
                program.bytecode = bytecode
                return "hit"
        program.bytecode = lower_module(program.module)
        if self.store is not None:
            self.store.put(key, serialize_bytecode(program.bytecode),
                           "bytecode")
        return "miss"

    # -- stage: execute + characterize --------------------------------------

    def profile(
        self,
        source: str,
        pipeline: Union[str, Sequence[str]] = "carmot",
        abstraction: Optional[str] = None,
        options: Optional[CarmotOptions] = None,
        name: str = "program",
        entry: str = "main",
        args: Tuple = (),
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 2_000_000_000,
        budgets: Optional[ExecutionBudgets] = None,
        trace: bool = False,
        **config_kwargs,
    ) -> ProfileResult:
        """Compile (cached) and profile (cached): the full flow.

        On a profile hit the VM never executes — result, PSECs, ASMT and
        degradation report all load from the artifact.
        """
        compile_result = self.compile(
            source, pipeline, abstraction=abstraction, options=options,
            name=name,
        )
        program = compile_result.program
        if program.mode is BuildMode.BASELINE:
            raise ReproError(
                "cannot profile an uninstrumented (baseline) build"
            )
        stages = dict(compile_result.stages)
        stages["codegen"] = self.codegen(program, compile_result.ir_digest)
        run_doc = keys.run_config_doc(
            entry, args, cost_model, max_instructions, budgets,
            abstraction, options, config_kwargs,
        )
        key = keys.profile_key(
            compile_result.ir_digest, program.mode.value, run_doc
        )
        payload = self.store.get(key) if self.store else None
        if payload is not None:
            try:
                profile = deserialize_profile(payload, program.module)
                stages["profile"] = "hit"
                return ProfileResult(
                    result=profile.result, runtime=profile, program=program,
                    payload=payload, stages=stages,
                    ir_digest=compile_result.ir_digest,
                )
            except ProfileSerializeError:
                payload = None
        result, runtime = program.run(
            entry=entry, args=args, cost_model=cost_model,
            max_instructions=max_instructions, budgets=budgets,
            trace=trace, **config_kwargs,
        )
        payload = serialize_profile(runtime, result)
        if self.store is not None:
            self.store.put(key, payload, "profile")
        stages["profile"] = "miss"
        return ProfileResult(
            result=result, runtime=runtime, program=program,
            payload=payload, stages=stages,
            ir_digest=compile_result.ir_digest,
        )

    # -- stage: recommendation doc -------------------------------------------

    def recommend_doc(
        self,
        profiled: ProfileResult,
        abstraction: Optional[str] = None,
        recommenders: Optional[str] = None,
    ) -> Tuple[Dict[str, object], str]:
        """The (cached) RecommendationDoc for a profiled program.

        Returns ``(doc, "hit" | "miss")``.  Keyed on the post-pipeline
        IR digest, the profile payload digest, the parsed recommender
        selection, and the recommender registry fingerprint — so a warm
        doc is byte-identical to a cold one and any recommender change
        orphans old entries (the environment fingerprint carries
        ``RECOMMEND_SCHEMA_VERSION``).
        """
        import json

        from repro.recommend import (
            RECOMMEND_DOC_FORMAT,
            build_recommendation_doc,
            parse_selection,
            recommender_registry_fingerprint,
        )
        from repro._version import RECOMMEND_SCHEMA_VERSION
        from repro.runtime.psec_json import profile_digest

        names = parse_selection(recommenders)
        key = keys.recommend_key(
            profiled.ir_digest, profile_digest(profiled.payload), names,
            abstraction, recommender_registry_fingerprint(),
        )
        payload = self.store.get(key) if self.store else None
        if payload is not None:
            try:
                doc = json.loads(payload)
            except ValueError:
                payload = None
            else:
                if (isinstance(doc, dict)
                        and doc.get("format") == RECOMMEND_DOC_FORMAT
                        and doc.get("version") == RECOMMEND_SCHEMA_VERSION):
                    return doc, "hit"
                payload = None
        doc = build_recommendation_doc(
            profiled.runtime, abstraction=abstraction,
            recommender_names=names,
        )
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        if self.store is not None:
            self.store.put(key, payload, "recommend")
        # Hand back the decoded doc, as a hit would (see module docstring).
        return json.loads(payload), "miss"

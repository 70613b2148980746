"""Top-level compilation driver: source text → runnable configurations.

Three build modes mirror the evaluation's three measurement subjects:

- **baseline** — the overhead denominator: conventional full optimization
  ("clang -O3"), no instrumentation;
- **naive**    — correct PSEC without any PSEC-specific optimization:
  unoptimized IR, a probe on every access, a Pin gate on every call, no
  callstack clustering;
- **carmot**   — the full pipeline of §4.4/§4.5 (individually toggleable
  for the Figure 8 breakdown).

All three are thin wrappers over :func:`compile_pipeline`: each mode is a
named pass pipeline run by the :class:`~repro.passes.manager.PassManager`
(``baseline`` → ``o3``; ``naive`` → ``naive-instrument``; ``carmot`` →
the seven-optimization sequence).  Custom pipelines — e.g. the CLI's
``--passes carmot,-pin-reduction`` — go through the same path.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.ir.lowering import lower_program
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.compiler.carmot import (
    CarmotBuildInfo,
    CarmotOptions,
    carmot_pass_names,
)
from repro.compiler.instrument import InstrumentationReport
from repro.passes.manager import (
    PassManager,
    PassTimingReport,
    PipelineContext,
)
from repro.passes.registry import parse_pipeline
from repro.resilience.budgets import ExecutionBudgets
from repro.runtime.config import (
    InstrumentationPolicy,
    RuntimeConfig,
    naive_policy_for,
    policy_for,
)
from repro.runtime.engine import CarmotHooks, CarmotRuntime
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vm import RunResult, run_module


class BuildMode(enum.Enum):
    BASELINE = "baseline"
    NAIVE = "naive"
    CARMOT = "carmot"


@dataclass
class CompiledProgram:
    """A compiled module plus everything needed to run and profile it."""

    module: Module
    mode: BuildMode
    policy: Optional[InstrumentationPolicy] = None
    options: Optional[CarmotOptions] = None
    build_info: Optional[CarmotBuildInfo] = None
    report: Optional[InstrumentationReport] = None
    pass_report: Optional[PassTimingReport] = None
    #: Lowered register bytecode, when a session attached a cached (or
    #: freshly keyed) artifact.  ``run`` lowers lazily when absent.
    bytecode: Optional[object] = None

    def make_runtime(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        **config_kwargs,
    ) -> Tuple[CarmotRuntime, CarmotHooks]:
        """A fresh runtime + hooks pair for one profiling run."""
        if self.mode is BuildMode.BASELINE:
            raise ValueError("baseline builds are not instrumented")
        is_carmot = self.mode is BuildMode.CARMOT
        clustering = (is_carmot and self.options is not None
                      and self.options.callstack_clustering)
        config = RuntimeConfig(
            policy=self.policy,
            callstack_clustering=clustering,
            # The co-designed runtime (shadow callstacks + the §4.6
            # pipeline) belongs to CARMOT; the naive profiler walks the
            # stack per use and processes events inline.
            shadow_callstacks=is_carmot,
            inline_processing=not is_carmot,
            **config_kwargs,
        )
        runtime = CarmotRuntime(self.module, config)
        return runtime, CarmotHooks(runtime, cost_model)

    def run(
        self,
        entry: str = "main",
        args: Tuple = (),
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 2_000_000_000,
        budgets: Optional[ExecutionBudgets] = None,
        trace: bool = False,
        **config_kwargs,
    ):
        """Run the program; instrumented modes also return the runtime.

        ``budgets`` bounds the VM (steps/heap/recursion); ``trace``
        streams a per-opcode execution trace to stderr.  Runtime-layer
        resilience flows through ``config_kwargs`` (``resilience=...``,
        ``batch_size=...``) into the :class:`RuntimeConfig`.
        """
        trace_stream = sys.stderr if trace else None
        if self.mode is BuildMode.BASELINE:
            result = run_module(self.module, entry, args,
                                cost_model=cost_model,
                                max_instructions=max_instructions,
                                budgets=budgets,
                                bytecode=self.bytecode,
                                trace_stream=trace_stream)
            return result, None
        runtime, hooks = self.make_runtime(cost_model, **config_kwargs)
        result = run_module(self.module, entry, args, hooks=hooks,
                            cost_model=cost_model,
                            max_instructions=max_instructions,
                            budgets=budgets,
                            bytecode=self.bytecode,
                            trace_stream=trace_stream)
        return result, runtime


def frontend(source: str, name: str = "program") -> Module:
    """Parse, type-check, lower, and verify MiniC source text."""
    module = lower_program(analyze(parse(source, name)), name)
    verify_module(module)
    return module


def _resolve_abstraction(module: Module,
                         abstraction: Optional[str]) -> Optional[str]:
    if abstraction is not None:
        return abstraction
    for roi in module.rois.values():
        if roi.abstraction is not None:
            return roi.abstraction
    return None


def compile_pipeline(
    source: str,
    pipeline: Union[str, Sequence[str]],
    abstraction: Optional[str] = None,
    options: Optional[CarmotOptions] = None,
    name: str = "program",
) -> CompiledProgram:
    """Compile with an explicit pass pipeline (text or list of names).

    The build mode follows from the instrumenter in the pipeline:
    ``naive-instrument`` → NAIVE, ``instrument`` → CARMOT, neither →
    BASELINE (uninstrumented).  ``options`` only feeds runtime knobs and
    build metadata — which passes run is decided by ``pipeline`` alone.
    """
    names = parse_pipeline(pipeline)
    module = frontend(source, name)
    if "naive-instrument" in names:
        mode = BuildMode.NAIVE
        policy: Optional[InstrumentationPolicy] = naive_policy_for(
            _resolve_abstraction(module, abstraction)
        )
    elif "instrument" in names:
        mode = BuildMode.CARMOT
        policy = policy_for(_resolve_abstraction(module, abstraction))
    else:
        mode = BuildMode.BASELINE
        policy = None
    info: Optional[CarmotBuildInfo] = None
    if mode is BuildMode.CARMOT:
        options = options or CarmotOptions()
        info = CarmotBuildInfo(options=options)
    ctx = PipelineContext(policy=policy, build_info=info)
    manager = PassManager(names, ctx)
    pass_report = manager.run(module)
    if info is not None:
        info.pass_report = pass_report
    verify_module(module)
    return CompiledProgram(
        module, mode, policy=policy,
        options=options if mode is BuildMode.CARMOT else None,
        build_info=info, report=ctx.instrument_report,
        pass_report=pass_report,
    )


def compile_baseline(source: str, name: str = "program") -> CompiledProgram:
    return compile_pipeline(source, "baseline", name=name)


def compile_naive(
    source: str,
    abstraction: Optional[str] = None,
    name: str = "program",
) -> CompiledProgram:
    return compile_pipeline(source, "naive", abstraction=abstraction,
                            name=name)


def compile_carmot(
    source: str,
    abstraction: Optional[str] = None,
    options: Optional[CarmotOptions] = None,
    name: str = "program",
    pipeline: Optional[Union[str, Sequence[str]]] = None,
) -> CompiledProgram:
    """Compile the full CARMOT build (or a custom ``pipeline`` override;
    by default the pipeline is derived from ``options``)."""
    options = options or CarmotOptions()
    if pipeline is None:
        pipeline = carmot_pass_names(options)
    return compile_pipeline(source, pipeline, abstraction=abstraction,
                            options=options, name=name)

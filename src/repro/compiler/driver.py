"""Top-level compilation driver: source text → runnable configurations.

Three build modes mirror the evaluation's three measurement subjects:

- **baseline** — the overhead denominator: conventional full optimization
  ("clang -O3"), no instrumentation;
- **naive**    — correct PSEC without any PSEC-specific optimization:
  unoptimized IR, a probe on every access, a Pin gate on every call, no
  callstack clustering;
- **carmot**   — the full pipeline of §4.4/§4.5 (each pass switched off
  by pipeline text for the Figure 8 breakdown).

A build is its pass pipeline: the three modes are the named pipelines
``baseline`` → ``o3``, ``naive`` → ``naive-instrument`` and ``carmot`` →
the seven-optimization sequence, and custom pipelines — e.g. the CLI's
``--passes carmot,-pin-reduction`` — are built the same way.
:func:`run_pipeline` is the one place a pipeline runs; the build mode it
infers from the instrumenter sets the runtime's defaults, and opt 7
(callstack clustering) is the one runtime knob a run may override.
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
from repro.compiler.carmot import CarmotBuildInfo
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
from repro.vm import run_module


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
        """A fresh runtime + hooks pair for one profiling run.

        The build mode picks the runtime: CARMOT's co-designed one with
        callstack clustering (opt 7), or the naive one without.
        ``config_kwargs`` may override ``callstack_clustering`` (Figure
        8 switches it off) and set the other :class:`RuntimeConfig`
        knobs.
        """
        if self.mode is BuildMode.BASELINE:
            raise ValueError("baseline builds are not instrumented")
        is_carmot = self.mode is BuildMode.CARMOT
        config_kwargs.setdefault("callstack_clustering", is_carmot)
        config = RuntimeConfig(policy=self.policy, codesigned=is_carmot,
                               **config_kwargs)
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
        resilience flows through ``config_kwargs`` (``resilience=...``)
        into the :class:`RuntimeConfig`.
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


def build_mode(
    names: Sequence[str],
    module: Optional[Module] = None,
    abstraction: Optional[str] = None,
) -> Tuple[BuildMode, Optional[InstrumentationPolicy]]:
    """The build a pipeline of pass ``names`` makes, and its policy.

    The instrumenter decides: ``naive-instrument`` → NAIVE,
    ``instrument`` → CARMOT, neither → BASELINE (no policy).  The policy
    is that of ``abstraction``, else of the first ROI of ``module`` that
    names one, else the full policy.
    """
    if "naive-instrument" in names:
        choose = naive_policy_for
        mode = BuildMode.NAIVE
    elif "instrument" in names:
        choose = policy_for
        mode = BuildMode.CARMOT
    else:
        return BuildMode.BASELINE, None
    if abstraction is None and module is not None:
        abstraction = next((roi.abstraction for roi in module.rois.values()
                            if roi.abstraction is not None), None)
    return mode, choose(abstraction)


def run_pipeline(
    module: Module,
    names: Sequence[str],
    abstraction: Optional[str] = None,
) -> CompiledProgram:
    """Run the parsed pass pipeline ``names`` over a lowered ``module``,
    in place.

    The build mode and policy follow from the pipeline
    (:func:`build_mode`); a CARMOT build also collects its
    :class:`CarmotBuildInfo`.  The caller verifies the result.
    """
    mode, policy = build_mode(names, module, abstraction)
    info = CarmotBuildInfo() if mode is BuildMode.CARMOT else None
    ctx = PipelineContext(policy=policy, build_info=info)
    pass_report = PassManager(names, ctx).run(module)
    if info is not None:
        info.pass_report = pass_report
    return CompiledProgram(
        module, mode, policy=policy, build_info=info,
        report=ctx.instrument_report, pass_report=pass_report,
    )


def compile_pipeline(
    source: str,
    pipeline: Union[str, Sequence[str]],
    abstraction: Optional[str] = None,
    name: str = "program",
) -> CompiledProgram:
    """Compile with an explicit pass pipeline (text or list of names)."""
    names = parse_pipeline(pipeline)
    program = run_pipeline(frontend(source, name), names, abstraction)
    verify_module(program.module)
    return program


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
    name: str = "program",
) -> CompiledProgram:
    """Compile the full CARMOT build (the ``carmot`` pipeline)."""
    return compile_pipeline(source, "carmot", abstraction=abstraction,
                            name=name)

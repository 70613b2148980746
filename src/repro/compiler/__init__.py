"""The CARMOT compiler: instrumentation, PSEC-specific optimizations, -O3.

Importing this package registers every compiler pass (the CARMOT
planners, the instrumenters, and the conventional ``o3`` / ``mem2reg`` /
``cleanup`` transforms) plus the ``carmot`` / ``naive`` / ``baseline``
pipeline aliases with :mod:`repro.passes.registry`.
"""

from repro.compiler.carmot import (
    OPTION_PASSES,
    CarmotBuildInfo,
    CarmotOptions,
    apply_carmot,
    carmot_pass_names,
)
from repro.compiler.driver import (
    BuildMode,
    CompiledProgram,
    compile_baseline,
    compile_carmot,
    compile_naive,
    compile_pipeline,
    frontend,
)
from repro.compiler.instrument import (
    InstrumentationPlan,
    InstrumentationReport,
    instrument_module,
)
from repro.compiler.mem2reg import promotable_allocas, promote_allocas
from repro.compiler.opts import (
    eliminate_dead_code,
    fold_constants,
    optimize_function,
    optimize_module_o3,
    optimize_o3,
    simplify_cfg,
)

__all__ = [
    "OPTION_PASSES", "CarmotBuildInfo", "CarmotOptions", "apply_carmot",
    "carmot_pass_names", "BuildMode", "CompiledProgram", "compile_baseline",
    "compile_carmot", "compile_naive", "compile_pipeline", "frontend",
    "InstrumentationPlan", "InstrumentationReport", "instrument_module",
    "promotable_allocas", "promote_allocas", "optimize_module_o3",
    "optimize_o3", "eliminate_dead_code", "fold_constants",
    "optimize_function", "simplify_cfg",
]

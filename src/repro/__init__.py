"""repro - a from-scratch reproduction of CARMOT (CGO 2023).

Program State Element Characterization (PSEC) for MiniC programs: a
compiler + runtime + abstraction-recommendation toolchain mirroring
"Program State Element Characterization", Deiana et al., CGO 2023.

Typical use::

    from repro import compile_carmot, recommend

    program = compile_carmot(source)
    result, runtime = program.run()
    print(recommend(runtime, roi_id=0).render())

See README.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured evaluation.
"""

from repro.abstractions import (
    ParallelForRecommendation,
    SmartPointerRecommendation,
    StatsRecommendation,
    TaskRecommendation,
    recommend,
)
from repro.compiler import (
    BuildMode,
    CompiledProgram,
    compile_baseline,
    compile_carmot,
    compile_naive,
    frontend,
)
from repro.errors import ReproError
from repro.runtime import CarmotRuntime, Psec, merge_psecs
from repro.vm import RunResult, run_module
from repro._version import __version__

__all__ = [
    "ParallelForRecommendation",
    "SmartPointerRecommendation",
    "StatsRecommendation",
    "TaskRecommendation",
    "recommend",
    "BuildMode",
    "CompiledProgram",
    "compile_baseline",
    "compile_carmot",
    "compile_naive",
    "frontend",
    "ReproError",
    "CarmotRuntime",
    "Psec",
    "merge_psecs",
    "RunResult",
    "run_module",
    "__version__",
]

"""Abstraction recommendation generators (§3.2): PSEC → source-level advice.

The generator functions and recommendation dataclasses live here; the
registry that selects, sequences, and caches them lives in
:mod:`repro.recommend`.  :func:`recommend` is the stable single-ROI
entry point — it now routes through the registry, so an unknown
abstraction name reports the registered recommender names instead of a
bare "unsupported".
"""

from typing import Optional

from repro.runtime.engine import CarmotRuntime
from repro.abstractions.base import (
    PsecRequirements,
    Recommendation,
    describe_pse,
)
from repro.abstractions.openmp_for import (
    CloneAdvice,
    OrderedAdvice,
    ParallelForRecommendation,
    generate_parallel_for,
)
from repro.abstractions.openmp_task import TaskRecommendation, generate_task
from repro.abstractions.reductions import detect_reduction
from repro.abstractions.smart_pointers import (
    CycleAdvice,
    SmartPointerRecommendation,
    generate_smart_pointers,
    simulated_leak_with_cycles,
)
from repro.abstractions.stats import StatsRecommendation, generate_stats


def recommend(runtime: CarmotRuntime, roi_id: int,
              abstraction: Optional[str] = None) -> Recommendation:
    """Generate the recommendation for one profiled ROI.

    ``abstraction`` overrides the one named in the ROI's pragma.
    Resolution goes through the recommender registry
    (:mod:`repro.recommend`): an unknown name raises
    :class:`~repro.errors.RecommendationError` listing the registered
    recommenders.
    """
    from repro.recommend.doc import generate
    return generate(runtime, roi_id, abstraction)


__all__ = [
    "PsecRequirements", "Recommendation",
    "describe_pse", "CloneAdvice", "OrderedAdvice",
    "ParallelForRecommendation", "generate_parallel_for",
    "TaskRecommendation", "generate_task", "detect_reduction",
    "CycleAdvice", "SmartPointerRecommendation", "generate_smart_pointers",
    "simulated_leak_with_cycles", "StatsRecommendation", "generate_stats",
    "recommend",
]

"""Static analyses: dominators, data-flow, loops, alias, call graph, PDG."""

from repro.analysis.alias import PointsTo
from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import ForwardMustProblem
from repro.analysis.dominators import DominatorInfo
from repro.analysis.liveness import locals_read_after_region
from repro.analysis.loops import (
    Loop,
    TripCount,
    find_loops,
    innermost_loop_containing,
    match_trip_count,
)
from repro.analysis.mustaccess import (
    MustAccessResult,
    analyze_must_access,
    pse_key_of_address,
)
from repro.analysis.pdg import MemoryDependences, address_taken_allocas
from repro.analysis.regions import RoiRegion, all_roi_regions, find_roi_region

__all__ = [
    "PointsTo", "CallGraph", "ForwardMustProblem",
    "DominatorInfo", "locals_read_after_region", "Loop", "TripCount",
    "find_loops", "innermost_loop_containing", "match_trip_count",
    "MustAccessResult", "analyze_must_access", "pse_key_of_address",
    "MemoryDependences", "address_taken_allocas", "RoiRegion",
    "all_roi_regions", "find_roi_region",
]

"""Experiment drivers: one function per table/figure of the evaluation (§5).

Every driver returns structured rows and can render itself as text; the
``benchmarks/`` suite wraps these with pytest-benchmark and asserts the
paper's qualitative claims (who wins, by roughly what factor)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.abstractions import (
    ParallelForRecommendation,
    generate_parallel_for,
    recommend,
    simulated_leak_with_cycles,
)
from repro.compiler import (
    compile_baseline,
    compile_carmot,
    compile_naive,
    compile_pipeline,
    frontend,
)
from repro.harness.reporting import render_table
from repro.parallel import (
    DEFAULT_MACHINE,
    ParallelMachine,
    profile_execution,
    program_speedup,
    simulate_parallel_for,
    simulate_sections,
)
from repro.recommend import table1_requirements
from repro.runtime.psec import MemoryBudgetExceeded, Psec
from repro.vm import run_module
from repro.workloads import ALL_WORKLOADS, Workload, figure6_workloads

_USE_CASE_OF = {"openmp": "openmp", "cycles": "cycles", "stats": "stats"}
_ABSTRACTION_OF = {
    "openmp": "parallel_for",
    "cycles": "smart_pointers",
    "stats": "stats",
}


# ---------------------------------------------------------------------------
# Overheads (Figures 7, 10, 11)
# ---------------------------------------------------------------------------


@dataclass
class OverheadRow:
    benchmark: str
    baseline_cost: int
    naive_overhead: Optional[float]  # None = did not complete (the "*")
    carmot_overhead: float

    @property
    def gap(self) -> Optional[float]:
        if self.naive_overhead is None:
            return None
        return self.naive_overhead / self.carmot_overhead


def measure_overheads(
    workload: Workload, use_case: str
) -> OverheadRow:
    """Baseline vs naive vs CARMOT cost on the test-size input (§5)."""
    source = workload.test_source(use_case)
    abstraction = _ABSTRACTION_OF[use_case]
    baseline, _ = compile_baseline(source, workload.name).run()
    naive_overhead: Optional[float]
    try:
        naive, _ = compile_naive(source, abstraction, workload.name).run()
        naive_overhead = naive.cost / baseline.cost
    except MemoryBudgetExceeded:
        naive_overhead = None
    carmot, _ = compile_carmot(source, abstraction, name=workload.name).run()
    return OverheadRow(
        workload.name, baseline.cost, naive_overhead,
        carmot.cost / baseline.cost,
    )


#: Memo for the full-suite overhead sweeps: cross-figure comparisons (the
#: Fig. 10/11 benches compare against Fig. 7) reuse one measurement.
_overhead_memo: Dict[str, List[OverheadRow]] = {}


def _overhead_sweep(use_case: str,
                    workloads: Optional[List[Workload]]) -> List[OverheadRow]:
    if workloads is not None:
        return [measure_overheads(w, use_case) for w in workloads]
    if use_case not in _overhead_memo:
        _overhead_memo[use_case] = [
            measure_overheads(w, use_case) for w in ALL_WORKLOADS
        ]
    return list(_overhead_memo[use_case])


def figure7(workloads: Optional[List[Workload]] = None) -> List[OverheadRow]:
    """OpenMP use case overhead: naive vs CARMOT (Figure 7)."""
    return _overhead_sweep("openmp", workloads)


def figure10(workloads: Optional[List[Workload]] = None) -> List[OverheadRow]:
    """Reference-cycle use case overhead (Figure 10)."""
    return _overhead_sweep("cycles", workloads)


def figure11(workloads: Optional[List[Workload]] = None) -> List[OverheadRow]:
    """STATS use case overhead (Figure 11)."""
    return _overhead_sweep("stats", workloads)


def render_overheads(title: str, rows: List[OverheadRow]) -> str:
    table = [
        (r.benchmark,
         "*" if r.naive_overhead is None else round(r.naive_overhead, 1),
         round(r.carmot_overhead, 2),
         "*" if r.gap is None else round(r.gap, 1))
        for r in rows
    ]
    return render_table(title, ["benchmark", "naive_x", "carmot_x", "gap_x"],
                        table)


# ---------------------------------------------------------------------------
# Figure 8: per-optimization breakdown
# ---------------------------------------------------------------------------

#: The four categories of Figure 8, each a configuration with that
#: group switched off: (pipeline text, runtime overrides of the run).
#: Opt 7 is the runtime's callstack clustering, so its group runs the
#: full pipeline; the others drop the group's passes.
BREAKDOWN_GROUPS: Dict[str, Tuple[str, Dict[str, bool]]] = {
    "reduce_pin": ("carmot,-pin-reduction", {}),
    "callstack_clustering": ("carmot", {"callstack_clustering": False}),
    "callgraph_o3": ("carmot,-callgraph-o3,-out-of-roi-suppression", {}),
    "redundant_instrumentation": (
        "carmot,-subsequent-accesses,-aggregation,-fixed-classification,"
        "-selective-mem2reg", {}),
}


@dataclass
class BreakdownRow:
    benchmark: str
    #: group -> share (%) of the total measured optimization benefit.
    shares: Dict[str, float]
    full_overhead: float


def figure8(workloads: Optional[List[Workload]] = None) -> List[BreakdownRow]:
    """Contribution of each PSEC-specific optimization (Figure 8): for each
    group, the overhead increase when only that group is disabled,
    normalized across groups."""
    rows: List[BreakdownRow] = []
    for workload in workloads or ALL_WORKLOADS:
        source = workload.test_source("openmp")
        baseline, _ = compile_baseline(source, workload.name).run()
        full, _ = compile_carmot(source, name=workload.name).run()
        full_overhead = full.cost / baseline.cost
        deltas: Dict[str, float] = {}
        for group, (pipeline, overrides) in BREAKDOWN_GROUPS.items():
            result, _ = compile_pipeline(
                source, pipeline, name=workload.name,
            ).run(**overrides)
            deltas[group] = max(0.0, result.cost / baseline.cost
                                - full_overhead)
        total = sum(deltas.values()) or 1.0
        rows.append(BreakdownRow(
            workload.name,
            {g: 100.0 * d / total for g, d in deltas.items()},
            full_overhead,
        ))
    return rows


def render_breakdown(rows: List[BreakdownRow]) -> str:
    headers = ["benchmark"] + list(BREAKDOWN_GROUPS) + ["carmot_x"]
    table = [
        [r.benchmark] + [round(r.shares[g], 1) for g in BREAKDOWN_GROUPS]
        + [round(r.full_overhead, 2)]
        for r in rows
    ]
    return render_table("Figure 8: overhead reduction per optimization [%]",
                        headers, table)


# ---------------------------------------------------------------------------
# Figure 6: speedups
# ---------------------------------------------------------------------------


@dataclass
class SpeedupRow:
    benchmark: str
    original_speedup: float
    carmot_speedup: float
    original_kind: str
    unsupported_original: bool


def _serial_fraction_for(
    rec: ParallelForRecommendation,
    psec: Psec,
    profile,
    roi_id: int,
) -> float:
    """Serialized share of one iteration under the generated pragma.

    Scalar Transfer variables serialize their statements (measured by the
    per-line cost attribution); memory-element Transfers serialize only the
    accesses touching those elements (Figure 2's precision), estimated from
    the PSEC access counts."""
    scalar_lines: Set[Tuple[str, int]] = set()
    transfer_mem_accesses = 0
    names_with_ordered = {advice.pse_name for advice in rec.ordered}
    for key, entry in psec.entries.items():
        if "T" not in entry.letters:
            continue
        if key[0] == "var" and entry.var is not None:
            # Reduction variables run fully parallel; only PSEs the
            # recommendation actually wraps in critical/ordered serialize.
            if entry.var.name not in names_with_ordered:
                continue
            for site, _ in entry.uses:
                if ":" in site:
                    filename, _, line = site.rpartition(":")
                    if line.isdigit():
                        scalar_lines.add((filename, int(line)))
        else:
            transfer_mem_accesses += entry.access_count
    fraction = profile.serial_fraction_of_lines(roi_id, scalar_lines)
    loop = profile.loops.get(roi_id)
    if (transfer_mem_accesses and loop is not None and loop.iterations
            and psec.invocations):
        # Fine-grained synchronization around the transfer elements only
        # (Figure 2's precision): estimate the guarded work as ~4 cost
        # units per transfer-element access per invocation.
        per_invocation = transfer_mem_accesses / psec.invocations
        avg_iteration = loop.total_cost / loop.iterations
        if avg_iteration > 0:
            fraction += min(1.0, 4.0 * per_invocation / avg_iteration)
    return min(1.0, fraction)


def _loop_overhead(profile, module, roi_id: int) -> int:
    """Cost of the ROI loop's own control (init/cond/step): those
    instructions run outside the body markers but belong to the region and
    parallelize with it (each thread iterates its own chunk)."""
    roi = module.rois.get(roi_id)
    if roi is None:
        return 0
    return profile.line_costs.get((roi.loc.filename, roi.loc.line), 0)


def _padded(loop, overhead: int) -> List[int]:
    if not loop.iterations:
        return list(loop.iteration_costs)
    extra = overhead // loop.iterations
    return [c + extra for c in loop.iteration_costs]


def figure6(
    workloads: Optional[List[Workload]] = None,
    machine: ParallelMachine = DEFAULT_MACHINE,
) -> List[SpeedupRow]:
    """Original vs CARMOT-induced parallelism on reference inputs."""
    rows: List[SpeedupRow] = []
    for workload in workloads or figure6_workloads():
        source = workload.ref_source("openmp")
        baseline = compile_baseline(source, workload.name)
        profile = profile_execution(baseline.module)
        total = profile.total_cost

        original_regions: List[dict] = []
        if workload.original_kind == "sections":
            for sections in profile.sections.values():
                original_regions.append({
                    "serial": sections.total_cost,
                    "parallel": simulate_sections(
                        sections.section_costs, sections.serial_extra,
                        machine,
                    ),
                })
        else:
            for loop_info in baseline.module.omp_loops:
                if loop_info.roi_id is None:
                    continue
                loop = profile.loops.get(loop_info.roi_id)
                if loop is None or not loop.iterations:
                    continue
                pragma = loop_info.pragma
                overhead = _loop_overhead(profile, baseline.module,
                                          loop_info.roi_id)
                original_regions.append({
                    "serial": loop.total_cost + overhead,
                    "parallel": simulate_parallel_for(
                        _padded(loop, overhead),
                        serial_costs=loop.serial_costs,
                        ordered=getattr(pragma, "has_ordered_clause", False),
                        has_reduction=bool(getattr(pragma, "reductions", ())),
                        machine=machine,
                    ),
                })
        original = program_speedup(total, original_regions)

        carmot = compile_carmot(source, name=workload.name)
        _, runtime = carmot.run()
        carmot_regions: List[dict] = []
        for roi_id, roi in carmot.module.rois.items():
            if roi.abstraction != "parallel_for" or not roi.is_loop_body:
                continue
            loop = profile.loops.get(roi_id)
            if loop is None or not loop.iterations:
                continue
            psec = runtime.psecs[roi_id]
            rec = generate_parallel_for(carmot.module, psec, runtime.asmt,
                                        roi)
            fraction = _serial_fraction_for(rec, psec, profile, roi_id)
            overhead = _loop_overhead(profile, baseline.module, roi_id)
            carmot_regions.append({
                "serial": loop.total_cost + overhead,
                "parallel": simulate_parallel_for(
                    _padded(loop, overhead),
                    serial_fraction=fraction,
                    ordered=rec.needs_serialization,
                    has_reduction=bool(rec.reductions),
                    machine=machine,
                ),
            })
        carmot_speedup = program_speedup(total, carmot_regions)
        rows.append(SpeedupRow(
            workload.name, original, carmot_speedup,
            workload.original_kind, workload.unsupported_original,
        ))
    return rows


def render_speedups(rows: List[SpeedupRow]) -> str:
    table = [
        (r.benchmark, round(r.original_speedup, 2),
         round(r.carmot_speedup, 2),
         "sections/pthreads" if r.original_kind == "sections" else "omp",
         "yes" if r.unsupported_original else "no")
        for r in rows
    ]
    return render_table(
        "Figure 6: speedup over serial (16 simulated threads)",
        ["benchmark", "original_x", "carmot_x", "original_kind",
         "unsupported"],
        table,
    )


# ---------------------------------------------------------------------------
# Table 1 and §2.3
# ---------------------------------------------------------------------------


def table1() -> str:
    rows = [
        (name, "v" if req.sets else "x",
         "v" if req.use_callstacks else "x",
         "v" if req.reachability_graph else "x")
        for name, req in table1_requirements().items()
    ]
    return render_table(
        "Table 1: PSEC components needed per abstraction",
        ["abstraction", "sets(IOCT)", "use-callstacks", "reachability"],
        rows,
    )


def access_ratio(workloads: Optional[List[Workload]] = None) -> List[Tuple[str, float]]:
    """§2.3: how many more accesses PSEC tracks (variables + memory) than a
    memory-only tool (memory locations only)."""
    rows: List[Tuple[str, float]] = []
    for workload in workloads or ALL_WORKLOADS:
        module = frontend(workload.test_source("openmp"), workload.name)
        result = run_module(module)
        mem = max(result.access_counts["mem"], 1)
        ratio = (result.access_counts["var"] + mem) / mem
        rows.append((workload.name, ratio))
    return rows


# ---------------------------------------------------------------------------
# §5.2: the nab leak experiment
# ---------------------------------------------------------------------------


@dataclass
class LeakReport:
    leaked_bytes_before: int
    cycle_count: int
    cycle_held_bytes: int
    still_held_after_fix: int

    @property
    def leaked_bytes_after(self) -> int:
        return (self.leaked_bytes_before - self.cycle_held_bytes
                + self.still_held_after_fix)

    @property
    def reduction_percent(self) -> float:
        if self.leaked_bytes_before == 0:
            return 0.0
        return 100.0 * (1 - self.leaked_bytes_after
                        / self.leaked_bytes_before)


def nab_leak_experiment(workload: Optional[Workload] = None,
                        params: Optional[dict] = None) -> LeakReport:
    """§5.2: bytes leaked before/after porting the CARMOT-reported cycle
    to smart pointers (weak-pointer fix applied to the suggested edges)."""
    from repro.workloads import workload as get_workload

    wl = workload or get_workload("nab")
    source = wl.source(params or wl.ref_params, "cycles")
    program = compile_carmot(source, name="nab")
    result, runtime = program.run()
    roi_id = next(roi_id for roi_id, roi in program.module.rois.items()
                  if roi.abstraction == "smart_pointers")
    psec = runtime.psecs[roi_id]
    rec = recommend(runtime, roi_id)
    cycles = psec.reachability.find_cycles()
    held = simulated_leak_with_cycles(psec, runtime.asmt)
    broken = [(c.raw.weak_edge.src, c.raw.weak_edge.dst) for c in rec.cycles]
    still = simulated_leak_with_cycles(psec, runtime.asmt, broken)
    return LeakReport(result.leaked_bytes, len(cycles), held, still)

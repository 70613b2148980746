"""Experiment harness: regenerates every table and figure of the paper."""

from repro.harness.experiments import (
    BREAKDOWN_GROUPS,
    BreakdownRow,
    LeakReport,
    OverheadRow,
    SpeedupRow,
    access_ratio,
    figure6,
    figure7,
    figure8,
    figure10,
    figure11,
    measure_overheads,
    nab_leak_experiment,
    render_breakdown,
    render_overheads,
    render_speedups,
    table1,
)

__all__ = [
    "BREAKDOWN_GROUPS", "BreakdownRow", "LeakReport", "OverheadRow",
    "SpeedupRow", "access_ratio", "figure6", "figure7", "figure8",
    "figure10", "figure11", "measure_overheads", "nab_leak_experiment",
    "render_breakdown", "render_overheads", "render_speedups", "table1",
]

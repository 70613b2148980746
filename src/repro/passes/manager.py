"""Pass-manager infrastructure: cached analyses and observable passes.

Two managers, mirroring the LLVM/NOELLE architecture the paper's seven
optimizations were written against:

- :class:`AnalysisManager` — computes registered analyses on demand and
  caches the results, keyed by scope (whole module, one function, or one
  ROI region).  Transform passes that mutate the IR trigger **explicit
  invalidation** so no consumer can ever observe a stale dominator tree or
  points-to set.
- :class:`PassManager` — runs a sequence of registered passes over a
  module, recording per-pass wall time, the analyses each pass requested
  (with cache hit/miss attribution), and IR-delta statistics into a
  :class:`PassTimingReport` (surfaced by ``--print-pass-stats``).

Analyses are plain compute functions registered with
:func:`register_analysis`; passes subclass :class:`Pass` and register via
:func:`repro.passes.registry.register_pass`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.ir.module import Function, Module

#: Valid analysis scopes.
SCOPES = ("module", "function", "region")


class UnknownAnalysisError(ReproError):
    pass


@dataclass(frozen=True)
class AnalysisInfo:
    """One registered analysis: a name, a scope, and a compute function.

    Compute signatures by scope:

    - ``module``:   ``compute(am, module)``
    - ``function``: ``compute(am, function)``
    - ``region``:   ``compute(am, function, region)``

    A compute function may itself call ``am.get`` — nested requests are
    cached (and attributed to the running pass) like any other.
    """

    name: str
    scope: str
    compute: Callable[..., Any]


_ANALYSES: Dict[str, AnalysisInfo] = {}


def register_analysis(name: str, scope: str):
    """Decorator registering a compute function as a named analysis."""
    if scope not in SCOPES:
        raise ValueError(f"bad analysis scope {scope!r}")

    def decorator(compute: Callable[..., Any]) -> Callable[..., Any]:
        if name in _ANALYSES:
            raise ValueError(f"analysis {name!r} registered twice")
        _ANALYSES[name] = AnalysisInfo(name, scope, compute)
        return compute

    return decorator


def registered_analysis_names() -> List[str]:
    return sorted(_ANALYSES)


def analysis_info(name: str) -> AnalysisInfo:
    try:
        return _ANALYSES[name]
    except KeyError:
        raise UnknownAnalysisError(
            f"unknown analysis {name!r}; registered analyses: "
            + ", ".join(registered_analysis_names())
        ) from None


# ---------------------------------------------------------------------------
# Observability records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisRequest:
    """One ``am.get`` call, as attributed to the pass that issued it."""

    name: str
    scope: str  # "module", "fn:<name>", or "fn:<name>/roi:<id>"
    hit: bool


@dataclass
class PassRunStats:
    """Everything recorded about one pass execution."""

    name: str
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    requests: List[AnalysisRequest] = field(default_factory=list)
    instrs_before: int = 0
    instrs_after: int = 0
    blocks_before: int = 0
    blocks_after: int = 0
    changed: bool = False

    @property
    def instr_delta(self) -> int:
        return self.instrs_after - self.instrs_before

    @property
    def block_delta(self) -> int:
        return self.blocks_after - self.blocks_before

    def analyses_used(self) -> List[str]:
        """Distinct analysis names this pass requested, in request order."""
        seen: List[str] = []
        for request in self.requests:
            if request.name not in seen:
                seen.append(request.name)
        return seen


@dataclass
class PassTimingReport:
    """Per-pass observability for one pipeline run."""

    runs: List[PassRunStats] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(r.wall_time for r in self.runs)

    @property
    def total_hits(self) -> int:
        return sum(r.cache_hits for r in self.runs)

    @property
    def total_misses(self) -> int:
        return sum(r.cache_misses for r in self.runs)

    def stats_for(self, pass_name: str) -> Optional[PassRunStats]:
        for run in self.runs:
            if run.name == pass_name:
                return run
        return None

    def hits_for_analysis(self, analysis_name: str) -> int:
        return sum(1 for run in self.runs for req in run.requests
                   if req.name == analysis_name and req.hit)

    def analysis_summary(self) -> Dict[str, Tuple[int, int]]:
        """analysis name -> (times computed, times served from cache)."""
        summary: Dict[str, Tuple[int, int]] = {}
        for run in self.runs:
            for req in run.requests:
                computed, served = summary.get(req.name, (0, 0))
                if req.hit:
                    summary[req.name] = (computed, served + 1)
                else:
                    summary[req.name] = (computed + 1, served)
        return summary

    def render(self) -> str:
        """Human-readable table for ``--print-pass-stats``."""
        headers = ["pass", "time_ms", "hit", "miss", "Δinstr", "Δblock",
                   "analyses"]
        rows: List[List[str]] = []
        for run in self.runs:
            rows.append([
                run.name,
                f"{1000.0 * run.wall_time:.2f}",
                str(run.cache_hits),
                str(run.cache_misses),
                f"{run.instr_delta:+d}" if run.instr_delta else "0",
                f"{run.block_delta:+d}" if run.block_delta else "0",
                ", ".join(run.analyses_used()) or "-",
            ])
        rows.append([
            "total", f"{1000.0 * self.total_time:.2f}",
            str(self.total_hits), str(self.total_misses), "", "", "",
        ])
        widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
                  for i in range(len(headers))]
        lines = ["pass statistics:"]
        lines.append("  " + "  ".join(h.ljust(widths[i])
                                      for i, h in enumerate(headers)))
        lines.append("  " + "  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  " + "  ".join(cell.ljust(widths[i])
                                          for i, cell in enumerate(row)))
        summary = self.analysis_summary()
        if summary:
            lines.append("  analysis cache: " + "; ".join(
                f"{name} computed {computed}x, served {served}x"
                for name, (computed, served) in sorted(summary.items())
            ))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# AnalysisManager
# ---------------------------------------------------------------------------


class AnalysisManager:
    """On-demand analysis cache with explicit invalidation.

    Results are keyed by ``(analysis, scope key)``; fetching a cached key
    is a *hit*, computing is a *miss*.  Hits/misses are attributed to the
    pass currently running under a :class:`PassManager` (if any) and to
    the manager-wide counters either way.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self._cache: Dict[Tuple, Any] = {}
        self.hits = 0
        self.misses = 0
        self._current_stats: Optional[PassRunStats] = None

    # -- fetching --------------------------------------------------------

    def get(self, name: str, function: Optional[Function] = None,
            region: Any = None) -> Any:
        info = analysis_info(name)
        key, scope_desc = self._key_for(info, function, region)
        if key in self._cache:
            self._record(info.name, scope_desc, hit=True)
            return self._cache[key]
        self._record(info.name, scope_desc, hit=False)
        if info.scope == "module":
            result = info.compute(self, self.module)
        elif info.scope == "function":
            result = info.compute(self, function)
        else:
            result = info.compute(self, function, region)
        self._cache[key] = result
        return result

    def cached(self, name: str, function: Optional[Function] = None,
               region: Any = None) -> bool:
        """Is the result already in the cache?  (No compute, no stats.)"""
        info = analysis_info(name)
        key, _ = self._key_for(info, function, region)
        return key in self._cache

    def _key_for(self, info: AnalysisInfo, function: Optional[Function],
                 region: Any) -> Tuple[Tuple, str]:
        if info.scope == "module":
            return (info.name,), "module"
        if function is None:
            raise ValueError(
                f"analysis {info.name!r} is {info.scope}-scoped and needs "
                "a function"
            )
        if info.scope == "function":
            return (info.name, function.name), f"fn:{function.name}"
        if region is None:
            raise ValueError(
                f"analysis {info.name!r} is region-scoped and needs a region"
            )
        roi_id = region.roi_id
        return ((info.name, function.name, roi_id),
                f"fn:{function.name}/roi:{roi_id}")

    def _record(self, name: str, scope_desc: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        stats = self._current_stats
        if stats is not None:
            if hit:
                stats.cache_hits += 1
            else:
                stats.cache_misses += 1
            stats.requests.append(AnalysisRequest(name, scope_desc, hit))

    # -- invalidation ----------------------------------------------------

    def invalidate_all(self, preserve: Tuple[str, ...] = ()) -> None:
        """Drop every cached result except the named analyses."""
        if not preserve:
            self._cache.clear()
            return
        keep = set(preserve)
        self._cache = {key: value for key, value in self._cache.items()
                       if key[0] in keep}

    def invalidate(self, name: str) -> None:
        """Drop every cached result of one analysis."""
        self._cache = {key: value for key, value in self._cache.items()
                       if key[0] != name}

    def invalidate_function(self, function: Function) -> None:
        """Drop results scoped to ``function`` plus all module-scope
        results (which may embed facts about it)."""
        dropped: Set[Tuple] = set()
        for key in self._cache:
            info = _ANALYSES.get(key[0])
            if info is None:
                continue
            if info.scope == "module":
                dropped.add(key)
            elif len(key) >= 2 and key[1] == function.name:
                dropped.add(key)
        for key in dropped:
            del self._cache[key]

    # -- pass attribution (driven by PassManager) ------------------------

    def _begin_pass(self, stats: PassRunStats) -> None:
        self._current_stats = stats

    def _end_pass(self) -> None:
        self._current_stats = None


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass:
    """Base class for registered passes.

    ``mutates_ir`` declares whether a pass rewrites the module; when such a
    pass reports a change, the :class:`PassManager` invalidates the
    analysis cache (minus ``preserves``) so later passes recompute.
    Plan-only passes (the CARMOT probe planners) leave the IR untouched
    and keep the cache warm.
    """

    name: str = "<anonymous>"
    mutates_ir: bool = False
    preserves: Tuple[str, ...] = ()

    def run(self, module: Module, am: AnalysisManager,
            ctx: "PipelineContext") -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Pass {self.name}>"


@dataclass
class PipelineContext:
    """Mutable state shared by the passes of one pipeline run.

    ``policy`` feeds probe planning; ``plan`` accumulates the
    instrumentation decisions; ``build_info`` collects CARMOT build
    metadata; ``handled`` maps roi_id -> syntactic PSE keys already
    covered by fixed classification (so opt 1 skips them).
    """

    policy: Optional[Any] = None
    plan: Optional[Any] = None
    build_info: Optional[Any] = None
    instrument_report: Optional[Any] = None
    handled: Dict[int, Set[Tuple]] = field(default_factory=dict)

    def ensure_plan(self) -> Any:
        if self.plan is None:
            from repro.compiler.instrument import InstrumentationPlan

            if self.policy is None:
                raise ReproError(
                    "pipeline needs an instrumentation policy to plan probes"
                )
            self.plan = InstrumentationPlan(policy=self.policy,
                                            gate_all_calls=True)
        return self.plan


class PassManager:
    """Runs a pipeline of passes with caching, invalidation, and stats."""

    def __init__(self, passes, ctx: Optional[PipelineContext] = None) -> None:
        from repro.passes.registry import create_pass

        self.passes: List[Pass] = [
            p if isinstance(p, Pass) else create_pass(p) for p in passes
        ]
        self.ctx = ctx or PipelineContext()
        self.report: Optional[PassTimingReport] = None

    def run(self, module: Module,
            am: Optional[AnalysisManager] = None) -> PassTimingReport:
        am = am or AnalysisManager(module)
        report = PassTimingReport()
        for pass_ in self.passes:
            stats = PassRunStats(name=pass_.name)
            before = module.ir_stats()
            stats.instrs_before = before.instructions
            stats.blocks_before = before.blocks
            am._begin_pass(stats)
            start = time.perf_counter()
            try:
                changed = bool(pass_.run(module, am, self.ctx))
            finally:
                stats.wall_time = time.perf_counter() - start
                am._end_pass()
            after = module.ir_stats()
            stats.instrs_after = after.instructions
            stats.blocks_after = after.blocks
            stats.changed = changed
            if changed and pass_.mutates_ir:
                am.invalidate_all(preserve=pass_.preserves)
            report.runs.append(stats)
        self.report = report
        return report

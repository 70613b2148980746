"""Outside-in layer spans for the traced benchmark run.

The benchmark wraps the public entry point of each layer (a module
function or a class method, looked up by name) in a timing wrapper, and
restores the original function objects afterwards.  Nothing under
``src/`` knows about it.

Span stacks are thread-local, because the daemon runs requests on
worker threads.  A span's *self* time is its duration minus the
durations of the spans nested directly inside it, so the self times of
one request sum to the duration of its outermost span.  Timestamps are
``perf_counter_ns``, which on Linux reads ``CLOCK_MONOTONIC`` and so is
comparable between the benchmark and the daemon it starts.
"""

from __future__ import annotations

import functools
import os
import threading
from importlib import import_module
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

#: (span, module, attribute path): the function each span wraps.  A span
#: may wrap several targets; each call site reaches exactly one of them.
TARGETS = (
    ("lang.parse", "repro.compiler.driver", "parse"),
    ("lang.sema", "repro.compiler.driver", "analyze"),
    ("ir.lower", "repro.compiler.driver", "lower_program"),
    ("ir.verify", "repro.compiler.driver", "verify_module"),
    ("ir.verify", "repro.session.session", "verify_module"),
    ("passes.run", "repro.passes.manager", "PassManager.run"),
    ("ir.serialize", "repro.session.session", "serialize_module"),
    ("ir.deserialize", "repro.session.session", "deserialize_module"),
    ("vm.codegen", "repro.session.session", "lower_module"),
    ("vm.bytecode_io", "repro.session.session", "serialize_bytecode"),
    ("vm.bytecode_io", "repro.session.session", "deserialize_bytecode"),
    # Self time: dispatch, probe hooks and event capture.
    ("vm.run", "repro.compiler.driver", "run_module"),
    ("runtime.finish", "repro.runtime.engine", "CarmotRuntime.finish"),
    ("runtime.profile_serialize", "repro.session.session",
     "serialize_profile"),
    ("runtime.profile_deserialize", "repro.session.session",
     "deserialize_profile"),
    ("runtime.sets_doc", "repro.service.core", "psec_sets_doc"),
    ("runtime.sets_digest", "repro.service.core", "psec_sets_digest"),
    ("recommend.build", "repro.recommend", "build_recommendation_doc"),
    ("session.store_get", "repro.session.store", "ArtifactStore.get"),
    ("session.store_put", "repro.session.store", "ArtifactStore.put"),
    # Self time: the envelope, the describe_pse listing and JSON
    # normalization.
    ("service.execute", "repro.service.core", "ServiceCore.execute"),
)

#: Layer spans, in table order.
SPANS = tuple(dict.fromkeys(span for span, _, _ in TARGETS))


def _payload_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["payload"]


#: Counters read at a span's boundary: (args, kwargs, result) -> dict.
COUNTERS: Dict[str, Callable] = {
    "vm.run": lambda args, kwargs, result: {
        "instructions": result.instructions},
    "runtime.finish": lambda args, kwargs, result: {
        "access_events": args[0].stats.access_events},
    "session.store_get": lambda args, kwargs, result: {
        "hit": result is not None,
        "chars": len(result) if result is not None else 0},
    "session.store_put": lambda args, kwargs, result: {
        "chars": len(_payload_arg(args, kwargs))},
}


def resolve(module: str, path: str):
    """(object holding the attribute, attribute name) of a target."""
    owner = import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Span(NamedTuple):
    name: str
    pid: int
    tid: int
    start_ns: int
    end_ns: int
    self_ns: int
    counters: Optional[Dict[str, object]]


class Tracer:
    """Records spans in memory; ``install`` wraps the layer seams."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._installed: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             counters: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            children = [0]
            stack.append(children)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                counts = (counters(args, kwargs, result)
                          if ok and counters is not None else None)
                self.spans.append(Span(
                    name, self._pid, threading.get_ident(), start, end,
                    duration - children[0], counts,
                ))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in :data:`TARGETS`."""
        for span, module, path in TARGETS:
            owner, attr = resolve(module, path)
            original = vars(owner)[attr]
            setattr(owner, attr,
                    self.wrap(span, original, COUNTERS.get(span)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every original function object."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def summarize(spans: Sequence[Span], requests: int) -> Dict[str, object]:
    """Per-request self time and calls of every layer span, plus the
    counters read at span boundaries (totals over all requests)."""
    layers = {name: {"self_ns": 0, "calls": 0} for name in SPANS}
    totals = {"instructions": 0, "vm_ns": 0, "access_events": 0,
              "gets": 0, "hits": 0, "get_chars": 0, "put_chars": 0}
    for span in spans:
        if span.name not in layers:
            continue
        layers[span.name]["self_ns"] += span.self_ns
        layers[span.name]["calls"] += 1
        counts = span.counters or {}
        if span.name == "vm.run":
            totals["instructions"] += counts.get("instructions", 0)
            totals["vm_ns"] += span.self_ns
        elif span.name == "runtime.finish":
            totals["access_events"] += counts.get("access_events", 0)
        elif span.name == "session.store_get":
            totals["gets"] += 1
            totals["hits"] += bool(counts.get("hit"))
            totals["get_chars"] += counts.get("chars", 0)
        elif span.name == "session.store_put":
            totals["put_chars"] += counts.get("chars", 0)
    return {
        "layers": {
            name: {"self_ms": row["self_ns"] / 1e6 / requests,
                   "calls": row["calls"] / requests}
            for name, row in layers.items()
        },
        "totals": totals,
        "self_ns": sum(row["self_ns"] for row in layers.values()),
    }


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """Chrome trace-event JSON (complete events), which Perfetto and
    ``chrome://tracing`` open."""
    events = []
    for span in spans:
        args = {"self_us": span.self_ns / 1000}
        if span.counters:
            args.update(span.counters)
        events.append({
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "ts": span.start_ns / 1000, "dur": (span.end_ns - span.start_ns)
            / 1000, "pid": span.pid, "tid": span.tid, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}

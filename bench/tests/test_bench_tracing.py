import threading

import pytest

import tracing
from tracing import SPANS, TARGETS, Tracer, chrome_trace, resolve, summarize


@pytest.fixture
def scripted_clock(monkeypatch):
    """perf_counter_ns reads a per-thread script of timestamps."""
    local = threading.local()

    def clock():
        return local.ticks.pop(0)

    monkeypatch.setattr(tracing, "perf_counter_ns", clock)
    return local


def test_self_time_on_nested_spans_in_two_threads(scripted_clock):
    tracer = Tracer()
    both_inside = threading.Barrier(2)

    def leaf():
        both_inside.wait(timeout=10)

    inner = tracer.wrap("inner", leaf)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))

    def run(ticks):
        scripted_clock.ticks = list(ticks)
        outer()

    # Thread A: outer 0..100 holds inner 10..30 and 40..45.
    # Thread B: outer 1000..1500 holds inner 1100..1400 and 1400..1450.
    threads = [
        threading.Thread(target=run, args=([0, 10, 30, 40, 45, 100],)),
        threading.Thread(target=run,
                         args=([1000, 1100, 1400, 1400, 1450, 1500],)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    by_thread = {}
    for span in tracer.spans:
        by_thread.setdefault(span.tid, []).append(span)
    assert len(by_thread) == 2
    selves = sorted(
        sorted((span.name, span.self_ns) for span in spans)
        for spans in by_thread.values()
    )
    assert selves == [
        [("inner", 5), ("inner", 20), ("outer", 75)],
        [("inner", 50), ("inner", 300), ("outer", 150)],
    ]
    for spans in by_thread.values():
        root = next(span for span in spans if span.name == "outer")
        assert sum(span.self_ns for span in spans) \
            == root.end_ns - root.start_ns


def test_summarize_is_per_request_and_counts_boundaries():
    spans = [
        tracing.Span("vm.run", 1, 1, 0, 4_000_000, 3_000_000,
                     {"instructions": 1500}),
        tracing.Span("session.store_get", 1, 1, 0, 10, 10,
                     {"hit": True, "chars": 2048}),
        tracing.Span("session.store_get", 1, 1, 0, 10, 10,
                     {"hit": False, "chars": 0}),
        tracing.Span("request", 1, 1, 0, 9_000_000, 1, None),
    ]
    summary = summarize(spans, requests=2)
    assert summary["layers"]["vm.run"] == {"self_ms": 1.5, "calls": 0.5}
    assert summary["layers"]["session.store_get"]["calls"] == 1.0
    assert summary["totals"]["instructions"] == 1500
    assert summary["totals"]["hits"] == 1
    assert summary["totals"]["get_chars"] == 2048
    # The benchmark's own "request" span is not a layer.
    assert summary["self_ns"] == 3_000_020
    assert set(summary["layers"]) == set(SPANS)
    event = chrome_trace(spans)["traceEvents"][0]
    assert (event["ph"], event["ts"], event["dur"]) == ("X", 0, 4000)


def test_install_wraps_every_target_and_uninstall_restores_it():
    from drive import WARMUP_PATH
    from repro.service import ServiceCore
    from repro.service.requests import PsecRequest, RunOptions

    originals = {(module, path): vars(owner)[attr]
                 for _, module, path in TARGETS
                 for owner, attr in [resolve(module, path)]}
    tracer = Tracer()
    tracer.install()
    try:
        for _, module, path in TARGETS:
            owner, attr = resolve(module, path)
            assert vars(owner)[attr].__wrapped__ \
                is originals[(module, path)]
        doc = ServiceCore().execute(PsecRequest(
            source=WARMUP_PATH.read_text(),
            options=RunOptions(no_cache=True)))
        assert doc["ok"]
    finally:
        tracer.uninstall()
    for _, module, path in TARGETS:
        owner, attr = resolve(module, path)
        assert vars(owner)[attr] is originals[(module, path)]
    names = {span.name for span in tracer.spans}
    assert {"lang.parse", "passes.run", "vm.run", "runtime.finish",
            "runtime.sets_doc", "service.execute"} <= names
    run = next(span for span in tracer.spans if span.name == "vm.run")
    assert run.counters["instructions"] > 0

"""Units for the crash-tolerant multi-process drain: the shared-memory
ring framing, the supervised worker pool, injected worker deaths
(recovery and retry exhaustion), and hung-worker deadline detection."""

import os
import signal

import pytest

from repro.errors import RuntimeToolError
from repro.ir.instructions import SourceLoc, VarInfo
from repro.ir.module import Module
from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.parallel.procdrain import (
    ALIGN,
    FRAME_BATCH,
    FRAME_TABLES,
    ShmRing,
)
from repro.resilience import FaultInjector, FaultPlan, ResiliencePolicy
from repro.resilience.degradation import ACTION_FALLBACK
from repro.runtime.config import RuntimeConfig, policy_for
from repro.runtime.engine import CarmotRuntime

LOC = SourceLoc.of(SourcePos("m.mc", 3, 1))
VAR = VarInfo(uid=1, name="v", storage="local", ty=ct.IntType())
CS = ("main",)


# -- shared-memory ring -------------------------------------------------------


class TestShmRing:
    def test_frame_roundtrip(self):
        ring = ShmRing.create(1024)
        try:
            assert ring.try_read() is None
            assert ring.try_write(FRAME_BATCH, 7, 1, b"hello")
            assert ring.try_write(FRAME_TABLES, 2, 0, b"")
            assert ring.try_read() == (FRAME_BATCH, 7, 1, b"hello")
            assert ring.try_read() == (FRAME_TABLES, 2, 0, b"")
            assert ring.try_read() is None
        finally:
            ring.close()
            ring.unlink()

    def test_wrap_inserts_pad_frames_transparently(self):
        # Capacity of a few frames: repeated write/read cycles force the
        # head past the end of the buffer many times; payloads must come
        # back intact (frames never split across the wrap).
        ring = ShmRing.create(ALIGN * 8)
        try:
            for i in range(50):
                payload = bytes([i]) * (8 + 8 * (i % 9))
                assert ring.try_write(FRAME_BATCH, i, 0, payload)
                assert ring.try_read() == (FRAME_BATCH, i, 0, payload)
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_returns_false_until_drained(self):
        ring = ShmRing.create(ALIGN * 4)  # 128 bytes: two 64-byte frames
        try:
            assert ring.try_write(FRAME_BATCH, 0, 0, b"a" * 32)
            assert ring.try_write(FRAME_BATCH, 1, 0, b"b" * 32)
            assert not ring.try_write(FRAME_BATCH, 2, 0, b"")
            assert ring.try_read() == (FRAME_BATCH, 0, 0, b"a" * 32)
            assert ring.try_write(FRAME_BATCH, 2, 0, b"")
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_frame_rejected(self):
        ring = ShmRing.create(ALIGN * 4)
        try:
            with pytest.raises(RuntimeToolError, match="exceeds ring"):
                ring.try_write(FRAME_BATCH, 0, 0, b"x" * 4096)
        finally:
            ring.close()
            ring.unlink()

    def test_heartbeat_counter(self):
        ring = ShmRing.create(ALIGN)
        try:
            assert ring.heartbeat() == 0
            ring.beat(41)
            assert ring.heartbeat() == 41
        finally:
            ring.close()
            ring.unlink()


# -- fault-plan plumbing ------------------------------------------------------


class TestExitSpecs:
    def test_exit_specs_extraction(self):
        plan = FaultPlan.parse("seed=9;exit@1;exit@4!;crash@2")
        assert FaultInjector(plan).exit_specs() == {1: False, 4: True}

    def test_no_exit_specs(self):
        plan = FaultPlan.parse("seed=9;crash@2")
        assert FaultInjector(plan).exit_specs() == {}


# -- engine-level drain behaviour ---------------------------------------------


def run_stream(drain, n_events=300, batch_size=16, **config_kwargs):
    """Drive one seeded packed stream through the engine under ``drain``."""
    module = Module("m")
    module.new_roi("r", "parallel_for", "main", SourcePos("m.mc", 1, 1))
    runtime = CarmotRuntime(module, RuntimeConfig(
        policy=policy_for("parallel_for"),
        shadow_callstacks=True,
        inline_processing=False,
        batch_size=batch_size,
        drain=drain,
        **config_kwargs,
    ))
    roi_id = next(iter(runtime.psecs))
    runtime.roi_begin(roi_id)
    for t in range(n_events):
        obj = 500 + (t % 7)
        var = VAR if obj == 501 else None
        offset = 0 if var is not None else 8 * (t % 5)
        runtime.packed_access(t % 2, obj, offset, 8, 1, 0, var, LOC, None,
                              CS, t)
        if t % 90 == 89:
            runtime.roi_end(roi_id)
            runtime.roi_begin(roi_id)
    runtime.roi_end(roi_id)
    runtime.finish()
    return runtime


def state_of(runtime):
    """Full observable PSEC state (sets plus per-entry scalars)."""
    out = {}
    for roi_id, psec in sorted(runtime.psecs.items()):
        out[roi_id] = (
            psec.total_accesses,
            psec.use_records,
            {name: sorted(map(str, keys))
             for name, keys in psec.sets().items()},
            {str(key): (entry.letters, entry.forced, entry.access_count,
                        entry.first_time, entry.last_time,
                        sorted(map(str, entry.uses)))
             for key, entry in psec.entries.items()},
        )
    return out


class TestProcDrainEngine:
    def test_procs_matches_inproc(self):
        oracle = run_stream("inproc")
        procs = run_stream("procs")
        assert state_of(procs) == state_of(oracle)
        assert procs.drain_stats["mode"] == "procs"
        assert procs.drain_stats["worker_respawns"] == 0
        assert not procs.degradation.degraded

    def test_worker_exit_recovers_exactly(self):
        oracle = run_stream("inproc")
        procs = run_stream(
            "procs",
            fault_plan=FaultPlan.parse("seed=1;exit@1"),
            resilience=ResiliencePolicy(max_retries=2),
        )
        assert state_of(procs) == state_of(oracle)
        # Recovery is exact, so the degradation report stays empty; the
        # intervention is visible only in the drain counters.
        assert not procs.degradation.degraded
        assert procs.drain_stats["worker_respawns"] == 1
        assert procs.drain_stats["replays"] >= 1

    def test_two_worker_exits_recover_exactly(self):
        oracle = run_stream("inproc")
        procs = run_stream(
            "procs",
            fault_plan=FaultPlan.parse("seed=1;exit@1;exit@3"),
            resilience=ResiliencePolicy(max_retries=3),
        )
        assert state_of(procs) == state_of(oracle)
        assert not procs.degradation.degraded
        assert procs.drain_stats["worker_respawns"] == 2

    def test_persistent_exit_exhausts_retries_and_absorbs(self):
        oracle = run_stream("inproc")
        procs = run_stream(
            "procs",
            fault_plan=FaultPlan.parse("seed=1;exit@2!"),
            resilience=ResiliencePolicy(max_retries=1),
        )
        # The absorbed in-process fold is exact — same bytes — but the
        # run records the intervention as a canonical fallback.
        assert state_of(procs) == state_of(oracle)
        assert procs.drain_stats["fallbacks"] == 1
        assert procs.degradation.degraded
        (record,) = procs.degradation.records()
        assert record.kind == "worker_lost"
        assert record.action == ACTION_FALLBACK
        assert record.sets_complete

    def test_recovery_is_deterministic(self):
        runs = [
            run_stream(
                "procs",
                fault_plan=FaultPlan.parse("seed=1;exit@1;exit@3"),
                resilience=ResiliencePolicy(max_retries=3),
            )
            for _ in range(2)
        ]
        assert state_of(runs[0]) == state_of(runs[1])
        assert (runs[0].drain_stats["worker_respawns"]
                == runs[1].drain_stats["worker_respawns"] == 2)

    def test_hung_worker_hits_deadline_and_respawns(self):
        module = Module("m")
        module.new_roi("r", "parallel_for", "main", SourcePos("m.mc", 1, 1))
        oracle = run_stream("inproc", n_events=120)
        runtime = CarmotRuntime(module, RuntimeConfig(
            policy=policy_for("parallel_for"),
            shadow_callstacks=True,
            inline_processing=False,
            batch_size=16,
            drain="procs",
            resilience=ResiliencePolicy(max_retries=2, heartbeat_ms=2,
                                        worker_deadline_ms=300),
        ))
        roi_id = next(iter(runtime.psecs))
        runtime.roi_begin(roi_id)
        for t in range(120):
            obj = 500 + (t % 7)
            var = VAR if obj == 501 else None
            offset = 0 if var is not None else 8 * (t % 5)
            runtime.packed_access(t % 2, obj, offset, 8, 1, 0, var, LOC,
                                  None, CS, t)
            if t % 90 == 89:
                runtime.roi_end(roi_id)
                runtime.roi_begin(roi_id)
            if t == 60:
                # Freeze one worker mid-stream: its heartbeat stops, the
                # supervisor's deadline must declare it hung and kill it.
                os.kill(runtime._proc_drain._workers[0].proc.pid,
                        signal.SIGSTOP)
        runtime.roi_end(roi_id)
        runtime.finish()
        assert state_of(runtime) == state_of(oracle)
        assert runtime.drain_stats["worker_respawns"] >= 1
        assert not runtime.degradation.degraded


class TestDrainConfig:
    def test_unknown_drain_rejected(self):
        for drain in ("fibers", "threads", "auto"):
            with pytest.raises(ValueError, match="unknown drain"):
                RuntimeConfig(drain=drain)

    def test_cli_implies_packed_and_rejects_object(self):
        """Packed is the only encoding: ``--drain procs`` needs no
        companion flag, and the removed ``--event-encoding`` is an
        argparse error, not a traceback."""
        import argparse

        from repro.cli import build_parser
        from repro.service import RunOptions

        implied = RunOptions.from_args(
            argparse.Namespace(drain="procs")
        ).run_kwargs()
        assert implied == {"drain": "procs"}
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["psec", "x.mc", "--drain", "procs",
                 "--event-encoding", "object"]
            )
        assert exit_info.value.code == 2

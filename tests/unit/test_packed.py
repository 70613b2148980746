"""Units for the packed event encoding: block/intern-table containers and
the capture-side run merging of repeated identical accesses."""

from repro.ir.instructions import SourceLoc, VarInfo
from repro.ir.module import Module
from repro.lang import types as ct
from repro.lang.tokens import SourcePos
from repro.resilience import ResiliencePolicy
from repro.runtime.config import RuntimeConfig, policy_for
from repro.runtime.engine import CarmotRuntime
from repro.runtime.packed import (
    F_AUX,
    F_LAST,
    F_TIME,
    InternTable,
    PackedBlock,
    ROW_STRIDE,
)

LOC = SourceLoc.of(SourcePos("m.mc", 3, 1))
VAR = VarInfo(uid=1, name="v", storage="local", ty=ct.IntType())
CS = ("main",)


def make_runtime(**config_kwargs):
    module = Module("m")
    module.new_roi("r", "parallel_for", "main", SourcePos("m.mc", 1, 1))
    config_kwargs.setdefault("batch_size", 64)
    runtime = CarmotRuntime(module, RuntimeConfig(
        policy=policy_for("parallel_for"),
        shadow_callstacks=True,
        inline_processing=False,
        **config_kwargs,
    ))
    return runtime, next(iter(runtime.psecs))


def access(runtime, time, is_write=0, obj=500, offset=0):
    runtime.packed_access(is_write, obj, offset, 8, 1, 0, VAR, LOC, None,
                          CS, time)


class TestContainers:
    def test_intern_table_dense_ids(self):
        table = InternTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert len(table) == 2
        assert table.values == ["a", "b"]

    def test_block_len_counts_events_not_rows(self):
        block = PackedBlock()
        block.data.extend(range(ROW_STRIDE))
        assert block.rows() == 1
        assert len(block) == 0  # events is stamped at flush time
        block.events = 5
        assert len(block) == 5
        assert block.row(0) == tuple(range(ROW_STRIDE))


class TestRunMerging:
    def test_identical_accesses_merge_into_one_row(self):
        runtime, roi_id = make_runtime()
        runtime.roi_begin(roi_id)
        for time in range(5):
            access(runtime, time)
        block = runtime._block
        assert block.rows() == 1
        assert block.data[F_AUX] == 4
        assert block.data[F_TIME] == 0
        assert block.data[F_LAST] == 4
        runtime.roi_end(roi_id)
        runtime.finish()
        assert runtime.pipeline.events_seen == 5
        psec = runtime.psecs[roi_id]
        assert psec.total_accesses == 5
        (entry,) = psec.entries.values()
        assert entry.access_count == 5
        assert entry.first_time == 0
        assert entry.last_time == 4

    def test_different_offsets_do_not_merge(self):
        runtime, roi_id = make_runtime()
        runtime.roi_begin(roi_id)
        access(runtime, 0, obj=500, offset=0)
        access(runtime, 1, obj=500, offset=8)
        assert runtime._block.rows() == 2
        runtime.roi_end(roi_id)
        runtime.finish()

    def test_invocation_boundary_breaks_merging(self):
        # A new invocation changes the active-snapshot id in the row head,
        # so the fold still sees the fresh re-access (Rf/Wf) it needs.
        runtime, roi_id = make_runtime()
        runtime.roi_begin(roi_id)
        access(runtime, 0)
        runtime.roi_end(roi_id)
        runtime.roi_begin(roi_id)
        access(runtime, 1)
        assert runtime._block.rows() == 2
        runtime.roi_end(roi_id)
        runtime.finish()
        (entry,) = runtime.psecs[roi_id].entries.values()
        assert entry.access_count == 2

    def test_flush_resets_anchors_and_stamps_event_count(self):
        runtime, roi_id = make_runtime(batch_size=4)
        flushed = []
        push_block = runtime.pipeline.push_block
        runtime.pipeline.push_block = lambda block: (
            flushed.append((block.rows(), block.events)),
            push_block(block),
        )
        runtime.roi_begin(roi_id)
        for time in range(6):
            access(runtime, time)
        runtime.roi_end(roi_id)
        runtime.finish()
        # 6 identical events: one anchor row flushed at the 4-event batch
        # boundary, then a fresh anchor for the remaining 2.
        assert flushed == [(1, 4), (1, 2)]
        assert runtime.pipeline.events_seen == 6
        (entry,) = runtime.psecs[roi_id].entries.values()
        assert entry.access_count == 6
        assert entry.last_time == 5

    def test_event_budget_disables_merging(self):
        runtime, roi_id = make_runtime(
            resilience=ResiliencePolicy(max_events_per_roi=100, degrade=True)
        )
        runtime.roi_begin(roi_id)
        for time in range(5):
            access(runtime, time)
        assert runtime._block.rows() == 5
        runtime.roi_end(roi_id)
        runtime.finish()
        assert runtime.psecs[roi_id].total_accesses == 5

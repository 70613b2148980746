"""Units for the packed event encoding: block/intern-table containers,
one row per captured event, and the fold's PSE keys."""

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


class TestOneRowPerEvent:
    """Capture appends one row per access event; batches are cut every
    ``batch_size`` events."""

    def test_identical_accesses_append_one_row_each(self):
        runtime, roi_id = make_runtime()
        runtime.roi_begin(roi_id)
        for time in range(5):
            access(runtime, time)
        block = runtime._block
        assert block.rows() == 5
        for index in range(5):
            row = block.row(index)
            assert (row[F_TIME], row[F_AUX], row[F_LAST]) == (index, 0, index)
        runtime.roi_end(roi_id)
        runtime.finish()
        assert runtime.pipeline.events_seen == 5
        psec = runtime.psecs[roi_id]
        assert psec.total_accesses == 5
        (entry,) = psec.entries.values()
        assert entry.access_count == 5
        assert (entry.first_time, entry.last_time) == (0, 4)

    def test_flush_every_batch_size_events(self):
        runtime, roi_id = make_runtime(batch_size=4)
        flushed = []
        push_block = runtime.pipeline.push_block
        runtime.pipeline.push_block = lambda block: (
            flushed.append((block.rows(), block.events)),
            push_block(block),
        )
        runtime.roi_begin(roi_id)
        for time in range(6):
            access(runtime, time, offset=8 * (time % 2))
        runtime.roi_end(roi_id)
        runtime.finish()
        assert flushed == [(4, 4), (2, 2)]
        assert runtime.pipeline.events_seen == 6
        assert runtime.psecs[roi_id].total_accesses == 6

    def test_event_budget_keeps_one_row_per_event(self):
        runtime, roi_id = make_runtime(
            resilience=ResiliencePolicy(max_events_per_roi=100)
        )
        runtime.roi_begin(roi_id)
        for time in range(5):
            access(runtime, time)
        assert runtime._block.rows() == 5
        runtime.roi_end(roi_id)
        runtime.finish()
        assert runtime.psecs[roi_id].total_accesses == 5


class TestFoldKeys:
    def test_single_mem_key_interns_like_the_general_path(self):
        # A count == 1 row without a variable builds its ``mem`` key
        # directly; it must be the very tuple the count > 1 path interns.
        runtime, roi_id = make_runtime()
        runtime.roi_begin(roi_id)
        runtime.packed_access(0, 500, 16, 8, 1, 0, None, LOC, None, CS, 0)
        runtime.packed_access(1, 500, 8, 8, 3, 8, None, LOC, None, CS, 1)
        runtime.roi_end(roi_id)
        runtime.finish()
        single = ("mem", 500, 16, 8)
        interned = runtime._pse_keys[single]
        entries = runtime.psecs[roi_id].entries
        assert list(entries) == [single, ("mem", 500, 8, 8),
                                 ("mem", 500, 24, 8)]
        (key,) = (k for k in entries if k == single)
        assert key is interned
        entry = entries[single]
        assert entry.access_count == 2
        assert (entry.first_time, entry.last_time) == (0, 1)

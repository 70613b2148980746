"""Unit tests for the batching pipeline (§4.6)."""

import pytest

from repro.errors import RuntimeToolError
from repro.runtime.config import RuntimeConfig
from repro.runtime.pipeline import BatchingPipeline


def make_pipeline(fail_on=None):
    postprocessed = []

    def postprocess(batch):
        if fail_on is not None and fail_on in batch.events:
            raise ValueError(f"boom on {fail_on}")
        postprocessed.extend(batch.events)

    return BatchingPipeline(postprocess), postprocessed


def push_all(pipeline, items, size):
    """Ship ``items`` as consecutive blocks of ``size`` events."""
    for start in range(0, len(items), size):
        pipeline.push_block(list(items[start:start + size]))


class TestDeterministicMode:
    def test_batches_fill_and_flush(self):
        pipeline, post = make_pipeline()
        push_all(pipeline, range(7), 3)
        pipeline.close()
        assert post == list(range(7))
        assert pipeline.batches_processed == 3  # 3 + 3 + 1

    def test_empty_close_is_noop(self):
        pipeline, post = make_pipeline()
        pipeline.close()
        assert post == []
        assert pipeline.batches_processed == 0

    def test_empty_block_is_skipped(self):
        pipeline, post = make_pipeline()
        pipeline.push_block([])
        pipeline.push_block(["a"])
        pipeline.close()
        assert post == ["a"]
        assert pipeline.batches_processed == 1

    def test_events_seen_counter(self):
        pipeline, _ = make_pipeline()
        push_all(pipeline, range(5), 2)
        assert pipeline.events_seen == 5

    def test_invalid_batch_size(self):
        with pytest.raises(RuntimeToolError):
            RuntimeConfig(batch_size=0)


class TestCloseSemantics:
    def test_push_after_close_raises(self):
        pipeline, _ = make_pipeline()
        pipeline.close()
        with pytest.raises(RuntimeToolError):
            pipeline.push_block(["late"])

    def test_close_is_idempotent(self):
        pipeline, post = make_pipeline()
        push_all(pipeline, range(5), 2)
        pipeline.close()
        pipeline.close()  # no error, no double-processing
        assert post == list(range(5))
        assert pipeline.batches_processed == 3

    def test_second_close_does_not_swallow_pending_error(self):
        pipeline, _ = make_pipeline(fail_on=0)
        with pytest.raises(ValueError):
            pipeline.push_block([0])
        # The error is retained: later pushes and every close re-raise
        # instead of treating the half-folded run as complete.
        with pytest.raises(ValueError):
            pipeline.push_block([1])
        with pytest.raises(ValueError):
            pipeline.close()
        with pytest.raises(ValueError):
            pipeline.close()

"""The batching pipeline of §4.6.

Instrumentation appends events to a packed block
(:mod:`repro.runtime.packed`); each full block enters the pipeline as one
batch, stamped with the next sequence number, and is folded synchronously
in sequence order — the paper's ordered queue feeding the final
processing stage.  The paper's parallel worker stage is modelled by the
cost model (FSA processing is off the program's critical path); the
pipeline never runs host threads or processes, so PSECs are
bit-identical run to run.

A fold failure (e.g. :class:`~repro.runtime.psec.MemoryBudgetExceeded`)
is retained: it re-raises from the failing ``push_block()`` and again on
every later ``push_block()``/``close()``, so a half-folded run can never
be closed as if it were complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import RuntimeToolError


@dataclass
class Batch:
    seq: int
    #: The batch payload: a :class:`~repro.runtime.packed.PackedBlock`
    #: (anything with ``len()`` counting its events).
    events: object


class BatchingPipeline:
    """Sequence-ordered batch pipeline: ``postprocess`` folds each batch
    (FSA application) as it arrives."""

    def __init__(self, postprocess: Callable[[Batch], None]) -> None:
        self._postprocess = postprocess
        self._seq = 0
        self._closed = False
        self.batches_processed = 0
        self.events_seen = 0
        self._error: Optional[BaseException] = None

    def push_block(self, block) -> None:
        """Fold one block as the next batch (empty blocks are skipped).

        Each event counts once in ``events_seen``, and the block takes
        the next batch sequence number.
        """
        if self._closed:
            raise RuntimeToolError("push_block() on a closed pipeline")
        self._raise_pending()
        if not len(block):
            return
        self.events_seen += len(block)
        batch = Batch(seq=self._seq, events=block)
        self._seq += 1
        try:
            self._postprocess(batch)
        except BaseException as exc:
            self._error = exc
            raise
        self.batches_processed += 1

    def close(self) -> None:
        """Idempotent: a second ``close()`` does no work, but a retained
        fold error re-raises on every call."""
        self._closed = True
        self._raise_pending()

    def _raise_pending(self) -> None:
        if self._error is not None:
            raise self._error

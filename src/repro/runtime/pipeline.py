"""The batching pipeline of §4.6, hardened for fail-soft operation.

Instrumentation appends events to a packed block
(:mod:`repro.runtime.packed`); each full block enters the pipeline as one
batch, stamped with the next sequence number, and is folded synchronously
in sequence order — the paper's ordered queue feeding the final
processing stage.  The paper's parallel worker stage is modelled by the
cost model (FSA processing is off the program's critical path); the
pipeline never runs host threads or processes, so PSECs are
bit-identical run to run.

Resilience (all off by default):

- **error retention** — a fold failure re-raises from the failing
  ``push_block()`` and again on every later ``push_block()``/``close()``,
  so a half-folded run can never be closed as if it were complete;
- **bounded retry** — a failed batch is retried up to ``max_retries``
  times with exponential backoff charged to a deterministic *virtual*
  clock (``virtual_backoff``), never to the profiled program's critical
  path;
- **degraded mode** — with ``degrade=True`` an unrecoverable batch is
  handed to ``on_degraded(batch, (kind, detail))`` instead of raising, so
  the runtime can fall back to conservative classification;
- **fault injection** — an optional :class:`repro.resilience.FaultInjector`
  fires deterministic, seed-driven crashes/drops/slowdowns keyed by batch
  sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import FaultInjected, RuntimeToolError
from repro.resilience.faultinject import FaultInjector

#: A batch failure classification: (kind, human-readable detail).
Failure = Tuple[str, str]


@dataclass
class Batch:
    seq: int
    #: The batch payload: a :class:`~repro.runtime.packed.PackedBlock`
    #: (anything with ``len()`` counting its events).
    events: object


class BatchingPipeline:
    """Sequence-ordered batch pipeline: ``postprocess`` folds each batch
    (FSA application) as it arrives, under the resilience policy."""

    def __init__(
        self,
        postprocess: Callable[[Batch], None],
        max_retries: int = 0,
        retry_backoff: int = 100,
        degrade: bool = False,
        on_degraded: Optional[Callable[[Batch, Failure], None]] = None,
        on_retry: Optional[
            Callable[[Batch, int, BaseException], None]] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self._postprocess = postprocess
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._degrade = degrade
        self._on_degraded = on_degraded
        self._on_retry = on_retry
        self._injector = injector
        self._seq = 0
        self._closed = False
        self.batches_processed = 0
        self.batches_degraded = 0
        self.events_seen = 0
        self.retries = 0
        #: Deterministic shadow-clock charges: retry backoff and injected
        #: slow-batch latency.  Never charged to the program's cost.
        self.virtual_backoff = 0
        self.virtual_delay = 0
        #: (seq, delay) pairs of injected slow batches, for reporting.
        self.slow_batches: List[Tuple[int, int]] = []
        self._error: Optional[BaseException] = None

    def push_block(self, block) -> None:
        """Fold one block as the next batch (empty blocks are skipped).

        Each event counts once in ``events_seen``, and the block takes
        the next batch sequence number, which fault plans key on.
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
            failure = self._guard(batch)
            if failure is None:
                self._postprocess(batch)
                self.batches_processed += 1
            else:
                self.batches_degraded += 1
                if self._on_degraded is not None:
                    self._on_degraded(batch, failure)
        except BaseException as exc:
            self._error = exc
            raise

    def close(self) -> None:
        """Idempotent: a second ``close()`` does no work, but a retained
        fold error re-raises on every call."""
        self._closed = True
        self._raise_pending()

    def _guard(self, batch: Batch) -> Optional[Failure]:
        """Run one batch past the fault injector and retry policy.

        Returns None when the batch may be folded, or the failure when it
        must enter degraded mode.  Raises when the batch is unrecoverable
        and degraded mode is off.
        """
        injector = self._injector
        if injector is None:
            return None
        kind = injector.drop_kind(batch.seq)
        if kind is not None:
            if not self._degrade:
                raise RuntimeToolError(
                    f"batch {batch.seq} lost to injected {kind.value} "
                    "(enable degrade to fall back)"
                )
            return kind.value, f"injected {kind.value} at batch {batch.seq}"
        delay = injector.delay_for(batch.seq)
        if delay:
            self.virtual_delay += delay
            self.slow_batches.append((batch.seq, delay))
        attempt = 0
        while True:
            try:
                injector.fire(batch.seq, attempt)
                return None
            except FaultInjected as exc:
                if attempt >= self._max_retries:
                    if self._degrade:
                        return "worker_crash", f"{type(exc).__name__}: {exc}"
                    raise
                attempt += 1
                self.retries += 1
                # Exponential backoff in deterministic virtual time: the
                # total depends only on which batches retried how often.
                self.virtual_backoff += self._retry_backoff * (
                    1 << (attempt - 1)
                )
                if self._on_retry is not None:
                    self._on_retry(batch, attempt, exc)

    def _raise_pending(self) -> None:
        if self._error is not None:
            raise self._error

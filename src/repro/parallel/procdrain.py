"""Crash-tolerant multi-process drain for packed batches (ROADMAP item 2).

The paper's §5 runtime is a master/worker design.  This module shards
the fold over N long-lived worker **processes**, each owning
the FSA folds of shard ``obj_id % N``, fed zero-copy through a
``multiprocessing.shared_memory`` SPSC ring buffer (packed rows are flat
``array('q')`` payloads — bytes in, bytes out, no pickling on the hot
path).  Interned-table suffixes and per-batch result deltas travel on
side channels (a pickle frame in the ring, a ``Pipe`` back), both off the
program's critical path.

The robustness contract (DESIGN.md §13):

- **Retention + ack.**  The master retains every shard payload it ships
  until the worker acknowledges it with a result delta.  Acks arrive in
  dispatch order (ring and pipe are both FIFO), so the master's mirror of
  each worker's fold state — updated only from acks — is always a
  *canonical checkpoint*: exactly the state after the last acknowledged
  batch, no more, no less.
- **Replay.**  When a worker dies (SIGKILL, OOM, injected
  :data:`~repro.resilience.faultinject.FaultKind.WORKER_EXIT`, or a hung
  heartbeat past ``worker_deadline_ms``), the supervisor first drains the
  pipe of in-flight acks (a delta the worker sent before dying is applied
  exactly once, never replayed), then forks a replacement seeded with the
  checkpoint state and replays the unacknowledged payloads in order.  The
  fold is deterministic, so the replay reproduces the lost work exactly:
  no batch is dropped, none is double-folded.
- **Graceful degradation.**  Past ``max_retries`` respawns (or if a
  worker cannot be spawned at all) the shard is *absorbed*: the master
  runs the same fold function over the same checkpoint state in-process.
  The result is still exact — the caller records a canonical
  ``DegradationRecord`` with ``sets_complete=True`` so the intervention
  is visible without weakening the profile.

Fold equivalence: :func:`_fold` mirrors
``CarmotRuntime._fold_rows`` field for field (epoch commits, fresh/
non-fresh event codes, run-merged repeat replay, conservative forcing for
degraded batches), so ``--drain procs`` profiles are byte-identical to
the in-process fold under every fault plan.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
from array import array
from multiprocessing import Pipe, Process, shared_memory
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RuntimeToolError
from repro.resilience.degradation import CONSERVATIVE_READ, CONSERVATIVE_WRITE
from repro.runtime import fsa
from repro.runtime.packed import (
    F_ACTIVE,
    F_AUX,
    F_COUNT,
    F_CS,
    F_LAST,
    F_OBJ,
    F_OFFSET,
    F_SITE,
    F_SIZE,
    F_STRIDE,
    F_TIME,
    KIND_WRITE,
    ROW_STRIDE,
)

# -- shared-memory ring framing ----------------------------------------------

#: Frame kinds.  TABLES ships one intern-table suffix (pickled);
#: BATCH ships one shard's rows (raw ``array('q')`` bytes); CLOSE asks the
#: worker to ack and exit; PAD fills the gap before a wrap so frames are
#: always contiguous.
FRAME_TABLES = 1
FRAME_BATCH = 2
FRAME_CLOSE = 3
FRAME_PAD = 4

#: Ring header: producer head, consumer tail (monotone byte offsets), and
#: the worker heartbeat counter.  Padded to one alignment unit.
_HEADER = struct.Struct("<qqq")
HEADER_SIZE = 32
#: Frame header: kind, a, b, payload length.
_FRAME = struct.Struct("<qqqq")
FRAME_HEADER = 32
#: Every frame total is padded to a multiple of this, and the capacity is
#: too, so a PAD header always fits in the space before a wrap.
ALIGN = 32


def _padded(n: int) -> int:
    return (n + ALIGN - 1) & ~(ALIGN - 1)


class ShmRing:
    """Single-producer single-consumer byte ring in shared memory.

    The producer owns ``head``, the consumer owns ``tail`` (both monotone
    byte offsets; the ring index is ``offset % capacity``).  Offsets are
    aligned 8-byte slots published *after* the data they cover, which is
    the usual SPSC discipline.  Frames never wrap: if a frame does not fit
    before the end of the buffer, a PAD frame covers the remainder.
    """

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int):
        self.shm = shm
        self.capacity = capacity

    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        capacity = max(ALIGN, _padded(capacity))
        shm = shared_memory.SharedMemory(
            create=True, size=HEADER_SIZE + capacity
        )
        shm.buf[:HEADER_SIZE] = b"\x00" * HEADER_SIZE
        return cls(shm, capacity)

    def _load(self, offset: int) -> int:
        return struct.unpack_from("<q", self.shm.buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        struct.pack_into("<q", self.shm.buf, offset, value)

    def beat(self, value: int) -> None:
        """Worker-side: stamp the heartbeat counter."""
        self._store(16, value)

    def heartbeat(self) -> int:
        return self._load(16)

    def try_write(self, kind: int, a: int, b: int, payload) -> bool:
        """Append one frame; False if the ring is currently full."""
        size = len(payload)
        need = FRAME_HEADER + _padded(size)
        if need > self.capacity:
            raise RuntimeToolError(
                f"frame of {size} bytes exceeds ring capacity "
                f"{self.capacity}"
            )
        head = self._load(0)
        tail = self._load(8)
        capacity = self.capacity
        pos = head % capacity
        to_end = capacity - pos
        total = need if to_end >= need else to_end + need
        if total > capacity - (head - tail):
            return False
        buf = self.shm.buf
        if to_end < need:
            _FRAME.pack_into(buf, HEADER_SIZE + pos, FRAME_PAD, 0, 0,
                             to_end - FRAME_HEADER)
            head += to_end
            pos = 0
        _FRAME.pack_into(buf, HEADER_SIZE + pos, kind, a, b, size)
        if size:
            start = HEADER_SIZE + pos + FRAME_HEADER
            buf[start:start + size] = payload
        self._store(0, head + need)  # publish last
        return True

    def try_read(self) -> Optional[Tuple[int, int, int, bytes]]:
        """Pop one frame, or None if the ring is empty (PADs skipped)."""
        while True:
            head = self._load(0)
            tail = self._load(8)
            if tail == head:
                return None
            pos = tail % self.capacity
            kind, a, b, size = _FRAME.unpack_from(
                self.shm.buf, HEADER_SIZE + pos
            )
            if kind == FRAME_PAD:
                self._store(8, tail + FRAME_HEADER + size)
                continue
            start = HEADER_SIZE + pos + FRAME_HEADER
            payload = bytes(self.shm.buf[start:start + size])
            self._store(8, tail + FRAME_HEADER + _padded(size))
            return kind, a, b, payload

    def close(self) -> None:
        self.shm.close()

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


# -- the worker-side fold -----------------------------------------------------

#: Worker entry layout — a list mirror of :class:`PsecEntry`, keyed by
#: ``(roi_id, pse_key)``.  ``E_VARSITE`` holds the interned site id the
#: entry's ``var`` came from (-1 = none); the master resolves it back to
#: the live :class:`VarInfo` at merge time.
(E_STATE, E_FORCED, E_LINV, E_LEPOCH, E_FIRST, E_LAST, E_WSEEN, E_COUNT,
 E_VARSITE) = range(9)
E_USES = 9


def _new_entry(varsite: int) -> list:
    return [0, "", -1, 0, None, None, 0, 0, varsite, set()]


def _force(entries: Dict, ek, varsite: int, letters: str, when: int,
           touched) -> None:
    """Mirror of ``Psec.force_classification`` on a worker entry."""
    entry = entries.get(ek)
    if entry is None:
        entry = _new_entry(varsite)
        entries[ek] = entry
    elif varsite >= 0 and entry[E_VARSITE] < 0:
        entry[E_VARSITE] = varsite
    entry[E_FORCED] = "".join(sorted(set(entry[E_FORCED]) | set(letters)))
    if entry[E_FIRST] is None:
        entry[E_FIRST] = when
    if entry[E_LAST] is None or when > entry[E_LAST]:
        entry[E_LAST] = when
    touched.add(ek)


def _fold(entries: Dict, sites: List, cs_values: List, active_values: List,
          letters_values: List, data, track_uses: bool, degraded: bool,
          touched, new_uses: List, counters: Dict) -> None:
    """Fold one shard payload (access/classify rows only) into ``entries``.

    Field-for-field mirror of ``CarmotRuntime._fold_rows`` in shard mode
    (private counters, budget checked master-side).  ``degraded`` mirrors
    ``_degrade_block``: conservative letters per access row, classify rows
    applied exactly.  ``touched``/``new_uses``/``counters`` accumulate the
    batch delta shipped back to the master.
    """
    flat = fsa.FLAT_TRANSITIONS
    for base in range(0, len(data), ROW_STRIDE):
        kind = data[base]
        obj = data[base + F_OBJ]
        site = data[base + F_SITE]
        has_var, loc_str = sites[site]
        count = data[base + F_COUNT]
        if has_var and count == 1:
            keys = (("var", obj),)
        else:
            size = data[base + F_SIZE]
            stride = data[base + F_STRIDE] or size
            offset = data[base + F_OFFSET]
            keys = tuple(
                ("mem", obj, offset + j * stride, size)
                for j in range(count)
            )
        when = data[base + F_TIME]
        active = active_values[data[base + F_ACTIVE]]
        varsite = site if has_var else -1
        if kind > KIND_WRITE:  # KIND_CLASSIFY (alloc/escape/free stay master-side)
            letters = letters_values[data[base + F_AUX]]
            for key in keys:
                for roi_id, _, _ in active:
                    _force(entries, (roi_id, key), varsite, letters, when,
                           touched)
            continue
        reps = data[base + F_AUX]
        t_last = data[base + F_LAST]
        if degraded:
            letters = CONSERVATIVE_WRITE if kind else CONSERVATIVE_READ
            for key in keys:
                for roi_id, _, _ in active:
                    ek = (roi_id, key)
                    _force(entries, ek, varsite, letters, when, touched)
                    if reps:
                        # Replay run-merged repeats: the forced letters
                        # idempote; only the max last-time advances.
                        _force(entries, ek, varsite, letters, t_last, touched)
            continue
        n = reps + 1
        use = None
        if track_uses:
            use = (loc_str, cs_values[data[base + F_CS]])
        for key in keys:
            for roi_id, invocation, epoch in active:
                ek = (roi_id, key)
                entry = entries.get(ek)
                if entry is None:
                    entry = _new_entry(varsite)
                    entries[ek] = entry
                elif varsite >= 0 and entry[E_VARSITE] < 0:
                    entry[E_VARSITE] = varsite
                if epoch != entry[E_LEPOCH]:
                    entry[E_FORCED] = "".join(sorted(fsa.force_states(
                        fsa.STATES[entry[E_STATE]], entry[E_FORCED]
                    ).sets))
                    entry[E_STATE] = 0
                    entry[E_LINV] = -1
                    entry[E_LEPOCH] = epoch
                event_code = (
                    kind if invocation != entry[E_LINV] else kind + 2
                )
                state_code = flat[entry[E_STATE] * 4 + event_code]
                if state_code < 0:
                    fsa.step_code(entry[E_STATE], event_code)
                if reps:
                    # Merged repeats are non-fresh by construction; one
                    # step reaches the table's non-fresh fixpoint.
                    prev = state_code
                    state_code = flat[prev * 4 + kind + 2]
                    if state_code < 0:
                        fsa.step_code(prev, kind + 2)
                entry[E_STATE] = state_code
                if kind:
                    entry[E_WSEEN] = 1
                entry[E_COUNT] += n
                entry[E_LINV] = invocation
                if entry[E_FIRST] is None:
                    entry[E_FIRST] = when
                if entry[E_LAST] is None or t_last > entry[E_LAST]:
                    entry[E_LAST] = t_last
                touched.add(ek)
                counter = counters.get(roi_id)
                if counter is None:
                    counter = [0, 0]
                    counters[roi_id] = counter
                counter[0] += n
                if track_uses and use not in entry[E_USES]:
                    entry[E_USES].add(use)
                    new_uses.append((ek, use))
                    counter[1] += 1


def _worker_main(index: int, n_workers: int, ring: ShmRing, conn,
                 sites: List, cs_values: List, active_values: List,
                 letters_values: List, entries: Dict,
                 exit_specs: Dict[int, bool], track_uses: bool,
                 poll_s: float) -> None:
    """Worker process entry point (fork-inherited tables and checkpoint).

    ``entries`` is the master's canonical checkpoint at fork time (empty
    on first spawn); the fork's copy-on-write snapshot makes it private.
    ``b`` of a BATCH frame packs ``attempt * 2 + degraded``.
    """
    beat = 0
    while True:
        beat += 1
        ring.beat(beat)
        frame = ring.try_read()
        if frame is None:
            time.sleep(poll_s)
            continue
        kind, a, b, payload = frame
        if kind == FRAME_TABLES:
            table = (sites, cs_values, active_values, letters_values)[a]
            items = pickle.loads(payload)
            if b < len(table):
                # Replay overlap after a respawn: the fork snapshot may be
                # ahead of the master's recorded send counts — extension
                # is positional and idempotent, keep only the new suffix.
                items = items[len(table) - b:]
            table.extend(items)
        elif kind == FRAME_BATCH:
            seq = a
            attempt, degraded = b >> 1, b & 1
            persist = exit_specs.get(seq)
            if (persist is not None and seq % n_workers == index
                    and (attempt == 0 or persist)):
                # Injected process death: SIGKILL, not sys.exit — nothing
                # is flushed, the supervisor must genuinely recover.
                os.kill(os.getpid(), signal.SIGKILL)
            rows = array("q")
            rows.frombytes(payload)
            touched = set()
            new_uses: List = []
            counters: Dict = {}
            _fold(entries, sites, cs_values, active_values, letters_values,
                  rows, track_uses, bool(degraded), touched, new_uses,
                  counters)
            delta = {ek: tuple(entries[ek][:E_USES]) for ek in touched}
            conn.send(("delta", seq, delta, new_uses, counters))
        elif kind == FRAME_CLOSE:
            conn.send(("done",))
            conn.close()
            return


# -- the supervisor -----------------------------------------------------------

class _Worker:
    """Supervisor-side record of one shard worker."""

    __slots__ = ("index", "proc", "ring", "conn", "pending", "state",
                 "respawns", "generation", "sent", "hb_value", "hb_time",
                 "absorbed", "done", "close_sent")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Optional[Process] = None
        self.ring: Optional[ShmRing] = None
        self.conn = None
        #: seq → [payload array, degraded flag, per-batch attempt count];
        #: retained until acked, replayed on respawn in insertion order.
        self.pending: Dict[int, list] = {}
        #: Canonical checkpoint: the worker's fold state after the last
        #: acknowledged batch, rebuilt purely from acks.
        self.state: Dict = {}
        self.respawns = 0
        self.generation = 0
        self.sent: List[int] = [0, 0, 0, 0]
        self.hb_value = -1
        self.hb_time = 0.0
        self.absorbed = False
        self.done = False
        self.close_sent = False


class ProcDrain:
    """Supervised multi-process shard drain (see module docstring)."""

    def __init__(self, n_workers: int, site_values: List, cs_values: List,
                 active_values: List, letters_values: List,
                 track_uses: bool, exit_specs: Dict[int, bool],
                 max_respawns: int, heartbeat_ms: int, deadline_ms: int,
                 ring_capacity: int,
                 on_counters: Callable[[Dict], None],
                 on_respawn: Callable[[int, int, int], None],
                 on_fallback: Callable[[int, int, str], None]) -> None:
        if n_workers < 1:
            raise RuntimeToolError("ProcDrain needs at least one worker")
        self.n = n_workers
        self._site_values = site_values
        #: Worker-shippable site table: (has_var, loc_str) per site id —
        #: VarInfo objects stay master-side, resolved back at merge time.
        self._sites: List[Tuple[int, str]] = []
        self._cs_values = cs_values
        self._active_values = active_values
        self._letters_values = letters_values
        self._track_uses = track_uses
        self._exit_specs = dict(exit_specs)
        self.max_respawns = max_respawns
        self.deadline_ms = deadline_ms
        self._poll_s = min(0.05, max(0.0005, heartbeat_ms / 1000.0))
        self._ring_capacity = ring_capacity
        self._on_counters = on_counters
        self._on_respawn = on_respawn
        self._on_fallback = on_fallback
        self._closed = False
        self._workers = [_Worker(i) for i in range(n_workers)]
        self._refresh_sites()
        try:
            for worker in self._workers:
                self._spawn(worker)
        except BaseException:
            self.abort()
            raise

    # -- table sync ----------------------------------------------------------

    def _refresh_sites(self) -> None:
        source = self._site_values
        sites = self._sites
        while len(sites) < len(source):
            var, _, loc_str = source[len(sites)]
            sites.append((var is not None, loc_str))

    def _sync_tables(self) -> None:
        """Ship each live worker the intern-table suffixes it lacks.

        Positional and idempotent (the worker clamps overlap), so the
        snapshot a respawned worker fork-inherits can safely be ahead of
        the recorded send counts.
        """
        self._refresh_sites()
        tables = (self._sites, self._cs_values, self._active_values,
                  self._letters_values)
        for worker in self._workers:
            if worker.absorbed or worker.done:
                continue
            for table_index, table in enumerate(tables):
                start = worker.sent[table_index]
                items = list(table[start:])
                if not items:
                    continue
                worker.sent[table_index] = start + len(items)
                # Chunk so one frame never outgrows the ring.
                for chunk_at in range(0, len(items), 256):
                    chunk = items[chunk_at:chunk_at + 256]
                    self._write_frame(
                        worker, FRAME_TABLES, table_index, start + chunk_at,
                        pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL),
                    )

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, seq: int, shards: List[array],
                 degraded: bool = False) -> None:
        """Ship one batch's pre-partitioned shard payloads (one per
        worker, possibly empty — exit faults key on dequeue, so every
        worker sees every seq)."""
        self._pump()
        self._sync_tables()
        flag = 1 if degraded else 0
        for worker, payload in zip(self._workers, shards):
            if worker.absorbed:
                self._fold_absorbed(worker, payload, flag)
                continue
            worker.pending[seq] = [payload, flag, 0]
            self._write_frame(worker, FRAME_BATCH, seq, flag,
                              payload.tobytes())

    def _write_frame(self, worker: _Worker, kind: int, a: int, b: int,
                     payload: bytes) -> None:
        """Write one frame, pumping acks while the ring is full.

        If the worker dies (or is absorbed) while we wait, the respawn
        path has already replayed — or the absorb path folded — everything
        pending, including the frame we were trying to write; detect that
        via the generation counter and return.
        """
        generation = worker.generation
        while True:
            if (worker.absorbed or worker.done
                    or worker.generation != generation):
                return
            if worker.ring.try_write(kind, a, b, payload):
                return
            self._pump()
            if not worker.absorbed and not worker.done:
                self._check_deadline(worker)
            time.sleep(self._poll_s)

    # -- ack pump and death handling -----------------------------------------

    def _pump(self) -> None:
        for worker in self._workers:
            if worker.absorbed or worker.proc is None:
                continue
            try:
                while worker.conn.poll():
                    self._apply_msg(worker, worker.conn.recv())
            except (EOFError, OSError):
                self._on_death(worker)
                continue
            if not worker.done and not worker.proc.is_alive():
                self._on_death(worker)

    def _apply_msg(self, worker: _Worker, msg) -> None:
        if msg[0] == "delta":
            _, seq, delta, new_uses, counters = msg
            first = next(iter(worker.pending), None)
            if first != seq:
                raise RuntimeToolError(
                    f"shard worker {worker.index} acked batch {seq} but "
                    f"batch {first} is the oldest unacknowledged"
                )
            del worker.pending[seq]
            state = worker.state
            for ek, scalars in delta.items():
                entry = state.get(ek)
                if entry is None:
                    state[ek] = list(scalars) + [set()]
                else:
                    entry[:E_USES] = scalars
            for ek, use in new_uses:
                state[ek][E_USES].add(use)
            if counters:
                self._on_counters(counters)
        elif msg[0] == "done":
            worker.done = True

    def _on_death(self, worker: _Worker) -> None:
        # Drain in-flight acks first: a delta sent before death must be
        # applied exactly once, and its batch must NOT be replayed.
        try:
            while worker.conn.poll():
                self._apply_msg(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        worker.proc.join()
        self._cleanup(worker)
        if worker.done and not worker.pending:
            worker.proc = None
            return
        self._respawn_or_absorb(worker)

    def _cleanup(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        if worker.ring is not None:
            worker.ring.close()
            worker.ring.unlink()
            worker.ring = None

    def _respawn_or_absorb(self, worker: _Worker) -> None:
        attempt = worker.respawns + 1
        if attempt > self.max_respawns:
            self._absorb(
                worker,
                f"shard worker {worker.index} lost {attempt} time(s); "
                f"retry budget ({self.max_respawns}) exhausted",
            )
            return
        worker.respawns = attempt
        worker.generation += 1
        self._on_respawn(worker.index, attempt, len(worker.pending))
        try:
            self._spawn(worker)
        except Exception as exc:
            worker.proc = None
            self._absorb(
                worker,
                f"shard worker {worker.index} could not be respawned: "
                f"{type(exc).__name__}: {exc}",
            )
            return
        generation = worker.generation
        oldest = True
        for seq in list(worker.pending):
            if worker.generation != generation or worker.absorbed:
                # A nested death during replay already re-replayed (or
                # absorbed) everything still pending.
                return
            item = worker.pending[seq]
            if oldest:
                # The worker acks each batch as it folds it, so it died
                # while (or before) processing the *oldest* unacked batch;
                # later pending batches were never dequeued and replay at
                # their original attempt — an injected exit fault keyed on
                # one of them still fires deterministically.
                item[2] += 1
                oldest = False
            self._write_frame(worker, FRAME_BATCH, seq,
                              item[2] * 2 + item[1], item[0].tobytes())
        if (worker.close_sent and worker.generation == generation
                and not worker.absorbed):
            self._write_frame(worker, FRAME_CLOSE, 0, 0, b"")

    def _spawn(self, worker: _Worker) -> None:
        ring = ShmRing.create(self._ring_capacity)
        try:
            recv_conn, send_conn = Pipe(duplex=False)
            # Recorded *before* start(): the fork snapshot can only be
            # ahead of these counts, which the worker-side clamp handles.
            worker.sent = [len(self._sites), len(self._cs_values),
                           len(self._active_values),
                           len(self._letters_values)]
            proc = Process(
                target=_worker_main,
                args=(worker.index, self.n, ring, send_conn, self._sites,
                      self._cs_values, self._active_values,
                      self._letters_values, worker.state, self._exit_specs,
                      self._track_uses, self._poll_s),
                daemon=True,
                name=f"procdrain-{worker.index}",
            )
            proc.start()
            # Master's copy of the write end must close or worker death
            # would never surface as EOF/empty-poll.
            send_conn.close()
        except BaseException:
            ring.close()
            ring.unlink()
            raise
        worker.proc = proc
        worker.ring = ring
        worker.conn = recv_conn
        worker.done = False
        worker.hb_value = -1
        worker.hb_time = time.monotonic()

    def _absorb(self, worker: _Worker, detail: str) -> None:
        """Retire the worker: fold its pending payloads in-process over
        the canonical checkpoint — exact, just no longer parallel."""
        worker.absorbed = True
        first = next(iter(worker.pending), -1)
        self._on_fallback(worker.index, first, detail)
        pending = list(worker.pending.values())
        worker.pending.clear()
        for payload, flag, _ in pending:
            self._fold_absorbed(worker, payload, flag)

    def _fold_absorbed(self, worker: _Worker, payload: array,
                       flag: int) -> None:
        self._refresh_sites()
        touched = set()
        new_uses: List = []
        counters: Dict = {}
        _fold(worker.state, self._sites, self._cs_values,
              self._active_values, self._letters_values, payload,
              self._track_uses, bool(flag), touched, new_uses, counters)
        if counters:
            self._on_counters(counters)

    def _check_deadline(self, worker: _Worker) -> None:
        """Hung-worker detection: no heartbeat progress past the deadline
        while the process is alive ⇒ kill it (death path recovers)."""
        if self.deadline_ms <= 0 or worker.ring is None:
            return
        beat = worker.ring.heartbeat()
        now = time.monotonic()
        if beat != worker.hb_value:
            worker.hb_value = beat
            worker.hb_time = now
        elif ((now - worker.hb_time) * 1000.0 > self.deadline_ms
                and worker.proc.is_alive()):
            worker.proc.kill()
            worker.proc.join()

    # -- shutdown ------------------------------------------------------------

    def close(self) -> Dict[int, Dict]:
        """Flush, wait for every ack, and return the per-worker canonical
        states for the master merge."""
        for worker in self._workers:
            if not worker.absorbed and not worker.close_sent:
                worker.close_sent = True
                self._write_frame(worker, FRAME_CLOSE, 0, 0, b"")
        while True:
            self._pump()
            if all(w.absorbed or (w.done and not w.pending)
                   for w in self._workers):
                break
            for worker in self._workers:
                if not worker.absorbed and not worker.done:
                    self._check_deadline(worker)
            time.sleep(self._poll_s)
        states: Dict[int, Dict] = {}
        for worker in self._workers:
            if worker.proc is not None and not worker.absorbed:
                worker.proc.join()
                worker.proc = None
            self._cleanup(worker)
            states[worker.index] = worker.state
        self._closed = True
        return states

    def abort(self) -> None:
        """Kill everything, release all shared memory.  Idempotent."""
        for worker in self._workers:
            proc = worker.proc
            if proc is not None:
                if proc.is_alive():
                    proc.kill()
                proc.join()
                worker.proc = None
            self._cleanup(worker)

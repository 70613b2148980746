"""``repro serve``: a long-lived profiling daemon over a Unix socket.

One asyncio event loop accepts connections and multiplexes request
documents onto a bounded thread pool running
:class:`~repro.service.core.ServiceCore` — the same core the CLI uses,
so a daemon response is byte-for-byte the document an in-process run
would produce (the serve equivalence suite digest-gates this).  The cache
amortizes across every client: the first request for a program pays the
cold compile+profile, every later request from any client with the same
namespace is a warm artifact load.

Admission control bounds the request queue (``queue_bound``, set by
``--queue``) under a ``queue_policy`` (``--queue-policy``): ``block``
parks excess requests until a worker frees up, ``shed`` answers them
immediately with the canonical ``overloaded`` envelope (HTTP-503
semantics; clients retry or fall back to a local run).

Control frames (``ping``/``stats``/``shutdown``) bypass admission so a
saturated daemon stays observable and drainable: ``shutdown`` stops
accepting work, lets in-flight requests finish (the drain), then exits.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro._version import SERVICE_SCHEMA_VERSION, __version__
from repro.errors import ReproError
from repro.service.core import ServiceCore, error_response
from repro.service.requests import REQUEST_KINDS
from repro.service.wire import WireError, read_frame, write_frame
from repro.session import ArtifactStore
from repro.session.store import NamespaceError, validate_namespace

#: Default worker-thread count: profiling is CPU-bound Python, so a
#: couple of workers saturate a core while warm (artifact-load) requests
#: still overlap; clients needing more start more daemons.
DEFAULT_WORKERS = 4
#: Default queue bound (0 = unbounded).
DEFAULT_QUEUE = 16
#: What the daemon does with a request past the queue bound.
QUEUE_POLICIES = ("block", "shed")


class ServeMetrics:
    """Daemon-wide request counters (updated on the event loop only)."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.total = 0
        self.completed = 0
        self.errors = 0
        self.overloaded = 0
        self.by_kind: Dict[str, int] = {}
        self.stage_hits: Dict[str, Dict[str, int]] = {}
        self.queue_wait_total = 0.0
        self.queue_wait_max = 0.0
        self.busy_total = 0.0

    def admitted(self, kind: str) -> None:
        self.total += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def finished(self, response: Dict[str, object], queue_wait: float,
                 busy: float) -> None:
        self.completed += 1
        if not response.get("ok"):
            self.errors += 1
        self.queue_wait_total += queue_wait
        self.queue_wait_max = max(self.queue_wait_max, queue_wait)
        self.busy_total += busy
        stages = (response.get("meta") or {}).get("stages") or {}
        for stage, outcome in stages.items():
            per_stage = self.stage_hits.setdefault(
                stage, {"hit": 0, "miss": 0}
            )
            if outcome in per_stage:
                per_stage[outcome] += 1

    def doc(self) -> Dict[str, object]:
        elapsed = max(time.monotonic() - self.started, 1e-9)
        return {
            "uptime_s": round(elapsed, 3),
            "requests": {
                "total": self.total,
                "completed": self.completed,
                "errors": self.errors,
                "overloaded": self.overloaded,
                "by_kind": dict(sorted(self.by_kind.items())),
            },
            "requests_per_sec": round(self.completed / elapsed, 2),
            "queue_wait_s": {
                "total": round(self.queue_wait_total, 4),
                "max": round(self.queue_wait_max, 4),
                "mean": round(
                    self.queue_wait_total / self.completed, 4
                ) if self.completed else 0.0,
            },
            "busy_s_total": round(self.busy_total, 4),
            "stage_hits": {
                stage: dict(counts)
                for stage, counts in sorted(self.stage_hits.items())
            },
        }


class ServeDaemon:
    """The asyncio server; construct then ``asyncio.run(daemon.run())``."""

    def __init__(
        self,
        socket_path: str,
        cache_dir: Optional[str] = None,
        workers: int = DEFAULT_WORKERS,
        queue_bound: int = DEFAULT_QUEUE,
        queue_policy: str = "shed",
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if queue_bound < 0:
            raise ReproError(
                f"queue bound (--queue) must be >= 0, got {queue_bound}"
            )
        if queue_policy not in QUEUE_POLICIES:
            raise ReproError(
                f"queue policy must be one of {QUEUE_POLICIES}, "
                f"got {queue_policy!r}"
            )
        self.queue_bound = queue_bound
        self.queue_policy = queue_policy
        self.socket_path = socket_path
        self.cache_dir = cache_dir
        self.workers = workers
        self.metrics = ServeMetrics()
        self._cores: Dict[Optional[str], ServiceCore] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._stop: Optional[asyncio.Event] = None
        self._waiting = 0
        self._active = 0
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def run(self, announce=None) -> None:
        """Serve until a ``shutdown`` frame (or cancellation); drains
        in-flight requests before returning.  ``announce`` is called
        with one human-readable line once the socket is listening."""
        loop = asyncio.get_running_loop()
        self._sem = asyncio.Semaphore(self.workers)
        self._stop = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._remove_stale_socket()
        server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path
        )
        try:
            if announce is not None:
                announce(
                    f"repro serve {__version__}: listening on "
                    f"{self.socket_path} (workers={self.workers} "
                    f"queue={self.queue_bound} "
                    f"policy={self.queue_policy})"
                )
            await self._stop.wait()
        finally:
            self._draining = True
            server.close()
            await server.wait_closed()
            await self._drain()
            self._pool.shutdown(wait=True)
            self._remove_stale_socket()

    def _remove_stale_socket(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    async def _drain(self) -> None:
        while self._active or self._waiting:
            await asyncio.sleep(0.01)

    # -- connections ---------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    doc = await read_frame(reader)
                except WireError as error:
                    await write_frame(
                        writer, error_response(None, "wire", str(error))
                    )
                    break
                if doc is None:
                    break
                response, stop_after = await self._dispatch(doc)
                await write_frame(writer, response)
                if stop_after:
                    self._stop.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; its request (if running) completes
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, doc: Dict[str, object]):
        """(response document, stop-after-reply) for one frame."""
        kind = doc.get("kind")
        if kind == "ping":
            return {
                "kind": "ping", "ok": True,
                "service_schema": SERVICE_SCHEMA_VERSION,
                "body": {"version": __version__}, "meta": {},
            }, False
        if kind == "stats":
            return self._stats_response(), False
        if kind == "shutdown":
            self._draining = True
            return {
                "kind": "shutdown", "ok": True,
                "service_schema": SERVICE_SCHEMA_VERSION,
                "body": {
                    "draining": self._active + self._waiting,
                    "served": self.metrics.completed,
                },
                "meta": {},
            }, True
        if kind not in REQUEST_KINDS:
            return error_response(
                kind if isinstance(kind, str) else None, "error",
                f"unknown request kind {kind!r}",
            ), False
        return await self._run_request(kind, doc), False

    def _overloaded(self, kind: str, message: str) -> Dict[str, object]:
        self.metrics.overloaded += 1
        response = error_response(kind, "overloaded", message)
        response["meta"] = {
            "queued": self._waiting,
            "active": self._active,
            "queue_bound": self.queue_bound,
        }
        return response

    async def _run_request(self, kind: str,
                           doc: Dict[str, object]) -> Dict[str, object]:
        if self._draining:
            return self._overloaded(kind, "daemon is draining for shutdown")
        bound = self.queue_bound
        if self.queue_policy == "shed" and bound and self._waiting >= bound:
            return self._overloaded(
                kind, f"request queue bound {bound} reached; request shed"
            )
        options = doc.get("options")
        if isinstance(options, dict) and options.get("trace") is True:
            # The trace streams to the executing process's stderr: over
            # the socket it would land in the daemon's log, not the
            # client's response.
            return error_response(
                kind, "error",
                "run option 'trace' is not served by the daemon; run the "
                "subcommand locally with --trace",
            )
        try:
            core = self._core_for(doc.pop("namespace", None))
        except (ReproError, NamespaceError) as error:
            return error_response(kind, "error", str(error))
        arrived = time.monotonic()
        self.metrics.admitted(kind)
        self._waiting += 1
        waiting = True
        try:
            async with self._sem:
                self._waiting -= 1
                waiting = False
                self._active += 1
                queue_wait = time.monotonic() - arrived
                started = time.monotonic()
                try:
                    loop = asyncio.get_running_loop()
                    response = await loop.run_in_executor(
                        self._pool, core.execute_doc, doc
                    )
                finally:
                    self._active -= 1
        except BaseException:
            if waiting:
                self._waiting -= 1
            raise
        busy = time.monotonic() - started
        self.metrics.finished(response, queue_wait, busy)
        # Per-request serve metrics ride in meta: volatile by contract,
        # so response digests stay transport-independent.
        response.setdefault("meta", {})["serve"] = {
            "namespace": core.namespace,
            "queue_wait_s": round(queue_wait, 4),
            "wall_s": round(busy, 4),
        }
        return response

    def _core_for(self, namespace) -> ServiceCore:
        if namespace is not None:
            if not isinstance(namespace, str):
                raise ReproError("namespace must be a string")
            validate_namespace(namespace)
        if namespace not in self._cores:
            self._cores[namespace] = ServiceCore(
                cache_dir=self.cache_dir, namespace=namespace
            )
        return self._cores[namespace]

    def _stats_response(self) -> Dict[str, object]:
        store = ArtifactStore.open(self.cache_dir)
        disk = store.stats()
        body = {
            **self.metrics.doc(),
            "workers": self.workers,
            "queue_bound": self.queue_bound,
            "queue_policy": self.queue_policy,
            "queued_now": self._waiting,
            "active_now": self._active,
            "store": {
                "root": str(store.root),
                "entries": disk.entries,
                "payload_bytes": disk.payload_bytes,
                "by_namespace": disk.by_namespace,
            },
        }
        return {
            "kind": "stats", "ok": True,
            "service_schema": SERVICE_SCHEMA_VERSION,
            "body": body, "meta": {},
        }

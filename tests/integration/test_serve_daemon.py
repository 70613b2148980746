"""Integration tests for the ``repro serve`` daemon.

Each test boots a real daemon (asyncio Unix-socket server in a thread)
and talks to it with :class:`ServiceClient` — the exact transport the
``repro request`` subcommand and ``bench/run.py``'s ``serve_mix``
workload use.
"""

import asyncio
import threading

import pytest

from repro.cli import main
from repro.service import (
    PsecRequest,
    RecommendRequest,
    ServiceClient,
    ServiceCore,
    error_response,
    response_digest,
)
from repro.service.client import ServiceUnavailable, wait_for_daemon
from repro.service.daemon import ServeDaemon

ROI_SOURCE = """
int main() {
    int a[8];
    int sum;
    sum = 0;
    for (int r = 0; r < 4; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            for (int i = 0; i < 8; ++i) {
                a[i] = a[i] + r;
                sum = sum + a[i];
            }
        }
    }
    print_int(sum);
    return 0;
}
"""

#: A slower subject for queue-pressure tests: enough iterations that a
#: request occupies its worker for a visible slice.
SLOW_SOURCE = """
int main() {
    int sum;
    sum = 0;
    #pragma carmot roi abstraction(parallel_for)
    {
        for (int i = 0; i < 2000; ++i) {
            sum = sum + i % 17;
        }
    }
    print_int(sum);
    return 0;
}
"""


class _Daemon:
    """Context manager running one ServeDaemon in a background thread."""

    def __init__(self, tmp_path, **kwargs):
        self.socket_path = str(tmp_path / "serve.sock")
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        self.daemon = ServeDaemon(self.socket_path, **kwargs)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()), daemon=True
        )

    def __enter__(self):
        self.thread.start()
        wait_for_daemon(self.socket_path)
        return self

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            try:
                with ServiceClient(self.socket_path) as client:
                    client.shutdown()
            except ServiceUnavailable:
                pass
            self.thread.join(timeout=10)

    def client(self, namespace=None):
        return ServiceClient(self.socket_path, namespace=namespace)


class TestServeBasics:
    def test_ping_and_stats(self, tmp_path):
        with _Daemon(tmp_path) as server:
            with server.client() as client:
                pong = client.ping()
                assert pong["ok"] and pong["kind"] == "ping"
                stats = client.stats()["body"]
                assert stats["requests"]["total"] == 0
                assert stats["workers"] == 4

    def test_response_matches_in_process_core(self, tmp_path):
        request = PsecRequest(source=ROI_SOURCE, name="daemon")
        oracle = ServiceCore(cache_dir=str(tmp_path / "oracle"))
        expected = response_digest(oracle.execute(request))
        with _Daemon(tmp_path) as server:
            with server.client(namespace="c0") as client:
                doc = client.request(request)
        assert doc["ok"]
        assert response_digest(doc) == expected
        assert doc["meta"]["serve"]["namespace"] == "c0"

    def test_unknown_kind_yields_error_envelope(self, tmp_path):
        with _Daemon(tmp_path) as server:
            with server.client() as client:
                doc = client.call({"kind": "transmogrify"})
        assert doc["ok"] is False
        assert "unknown request kind" in doc["error"]["message"]

    @pytest.mark.parametrize("options", [
        {"event_encoding": "object"},
        {"pipeline_shards": 2},
        {"drain": "procs"},
        {"batch_size": 16},
        {"trace": True},
    ])
    def test_removed_options_yield_error_envelope(self, tmp_path, capfd,
                                                  options):
        """Removed runtime knobs, wrongly typed options and a trace (it
        streams to the executing process's stderr, which for the daemon
        is its own log) get the canonical error envelope off the wire,
        the daemon writes nothing to stderr, and it keeps serving."""
        doc = {"kind": "psec", "source": ROI_SOURCE, "name": "daemon",
               "options": options}
        with _Daemon(tmp_path) as server:
            with server.client() as client:
                response = client.call(doc)
                assert client.ping()["ok"]
        # The daemon adds its serve timings to meta; the rest is the
        # canonical envelope.
        expected = error_response("psec", "error",
                                  response["error"]["message"])
        assert dict(response, meta={}) == expected
        assert capfd.readouterr().err == ""

    def test_request_trace_is_a_usage_error(self, tmp_path, capsys):
        source = tmp_path / "roi.mc"
        source.write_text(ROI_SOURCE)
        with pytest.raises(SystemExit) as exit_info:
            main(["request", "psec", str(source), "--socket",
                  str(tmp_path / "serve.sock"), "--trace"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    def test_invalid_namespace_rejected(self, tmp_path):
        request = PsecRequest(source=ROI_SOURCE, name="daemon")
        with _Daemon(tmp_path) as server:
            with server.client(namespace=None) as client:
                doc = client.call(
                    {**request.to_doc(), "namespace": "../../etc"}
                )
        assert doc["ok"] is False
        assert "invalid namespace" in doc["error"]["message"]

    def test_toolchain_error_does_not_kill_daemon(self, tmp_path):
        with _Daemon(tmp_path) as server:
            with server.client() as client:
                bad = client.request(
                    PsecRequest(source="int main( {", name="broken")
                )
                assert bad["ok"] is False
                # The daemon survives and serves the next request.
                good = client.request(
                    PsecRequest(source=ROI_SOURCE, name="daemon")
                )
                assert good["ok"] is True


class TestServeConcurrency:
    N_CLIENTS = 8

    def test_concurrent_clients_digest_identical(self, tmp_path):
        """The acceptance floor: 8 concurrent clients, mixed kinds, every
        response byte-equivalent (digest) to the in-process core."""
        requests = [
            PsecRequest(source=ROI_SOURCE, name="daemon"),
            RecommendRequest(source=ROI_SOURCE, name="daemon"),
        ]
        oracle_core = ServiceCore(cache_dir=str(tmp_path / "oracle"))
        oracle = [response_digest(oracle_core.execute(r)) for r in requests]

        with _Daemon(tmp_path) as server:
            barrier = threading.Barrier(self.N_CLIENTS)
            failures = []

            def run_client(index):
                try:
                    with server.client(namespace=f"c{index}") as client:
                        barrier.wait()
                        for request, expected in zip(requests, oracle):
                            doc = client.request(request)
                            if not doc.get("ok"):
                                failures.append((index, doc.get("error")))
                            elif response_digest(doc) != expected:
                                failures.append((index, "digest mismatch"))
                except Exception as error:  # noqa: BLE001
                    failures.append((index, repr(error)))

            threads = [threading.Thread(target=run_client, args=(i,))
                       for i in range(self.N_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failures == []

            with server.client() as client:
                stats = client.stats()["body"]
            assert stats["requests"]["completed"] \
                == self.N_CLIENTS * len(requests)
            assert stats["requests"]["errors"] == 0
            # Each namespace is an isolated partition: every client's
            # first request misses, its second hits the shared profile.
            assert stats["stage_hits"]["profile"]["miss"] == self.N_CLIENTS
            assert stats["stage_hits"]["profile"]["hit"] == self.N_CLIENTS
            assert sorted(stats["store"]["by_namespace"]) \
                == [f"c{i}" for i in range(self.N_CLIENTS)]

    def test_shed_policy_answers_overloaded(self, tmp_path):
        """Past the queue bound the shed policy returns the canonical
        overloaded envelope instead of parking the request."""
        with _Daemon(tmp_path, workers=1, queue_bound=1,
                     queue_policy="shed") as server:
            n = 6
            barrier = threading.Barrier(n)
            outcomes = []
            lock = threading.Lock()

            def run_client(index):
                request = PsecRequest(source=SLOW_SOURCE,
                                      name=f"slow{index}")
                with server.client(namespace=f"c{index}") as client:
                    barrier.wait()
                    doc = client.request(request)
                    with lock:
                        if doc.get("ok"):
                            outcomes.append("ok")
                        else:
                            outcomes.append(doc["error"]["type"])

            threads = [threading.Thread(target=run_client, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert "ok" in outcomes, outcomes
            assert "overloaded" in outcomes, outcomes
            assert set(outcomes) <= {"ok", "overloaded"}

            with server.client() as client:
                stats = client.stats()["body"]
            assert stats["requests"]["overloaded"] == \
                outcomes.count("overloaded")

    def test_block_policy_never_sheds(self, tmp_path):
        with _Daemon(tmp_path, workers=1, queue_bound=0,
                     queue_policy="block") as server:
            n = 4
            results = []
            lock = threading.Lock()

            def run_client(index):
                request = PsecRequest(source=SLOW_SOURCE, name="slow")
                with server.client(namespace=f"c{index}") as client:
                    doc = client.request(request)
                    with lock:
                        results.append(doc["ok"])

            threads = [threading.Thread(target=run_client, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == [True] * n


class TestServeLifecycle:
    def test_shutdown_drains_and_removes_socket(self, tmp_path):
        server = _Daemon(tmp_path)
        with server:
            with server.client() as client:
                doc = client.shutdown()
            assert doc["ok"] and doc["kind"] == "shutdown"
            server.thread.join(timeout=10)
            assert not server.thread.is_alive()
        import os
        assert not os.path.exists(server.socket_path)

    def test_requests_after_shutdown_are_overloaded(self, tmp_path):
        """A draining daemon sheds new work with the canonical envelope
        (clients see 'server overloaded', exit code 2 semantics)."""
        with _Daemon(tmp_path, workers=1) as server:
            hold = server.client(namespace="c0").connect()
            try:
                # Park one slow request so the daemon is still draining
                # when the shutdown lands.
                slow_doc = {
                    **PsecRequest(source=SLOW_SOURCE, name="slow").to_doc(),
                    "namespace": "c0",
                }
                from repro.service.wire import write_frame_sync
                write_frame_sync(hold._sock, slow_doc)
                with server.client() as control:
                    control.shutdown()
                refused = None
                try:
                    with server.client(namespace="c1") as late:
                        refused = late.request(
                            PsecRequest(source=ROI_SOURCE, name="late")
                        )
                except (ServiceUnavailable, OSError):
                    pass  # connection refused or reset: equally refused
                if refused is not None:
                    assert refused["ok"] is False
                    assert refused["error"]["type"] == "overloaded"
                # The parked request still completes (drain semantics).
                from repro.service.wire import read_frame_sync
                finished = read_frame_sync(hold._sock)
                assert finished is not None and finished["ok"]
            finally:
                hold.close()

    def test_client_reports_missing_daemon(self, tmp_path):
        with pytest.raises(ServiceUnavailable, match="cannot connect"):
            ServiceClient(str(tmp_path / "nope.sock")).connect()

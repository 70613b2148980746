"""Blocking client for the ``repro serve`` daemon.

:class:`ServiceClient` opens one Unix-socket connection and exchanges
request/response documents (:mod:`repro.service.wire` frames).  The
``repro request`` subcommand, the ``serve_mix`` workload of
``bench/run.py``, and the daemon test suites are all built on it.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional

from repro.errors import ReproError
from repro.service.wire import read_frame_sync, write_frame_sync


class ServiceUnavailable(ReproError):
    """The daemon socket is absent, refusing, or hung up mid-exchange."""


class ServiceClient:
    """One connection to a serve daemon.

    ``namespace`` names this client's cache partition on the daemon's
    store; every data request sent through the client carries it.
    """

    def __init__(self, socket_path: str, namespace: Optional[str] = None,
                 timeout: Optional[float] = 60.0) -> None:
        self.socket_path = socket_path
        self.namespace = namespace
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    # -- lifecycle -----------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.socket_path)
            except OSError as error:
                sock.close()
                raise ServiceUnavailable(
                    f"cannot connect to serve daemon at "
                    f"{self.socket_path}: {error}"
                ) from None
            self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- exchanges -----------------------------------------------------------

    def call(self, doc: Dict[str, object]) -> Dict[str, object]:
        """One request/response exchange of raw documents."""
        self.connect()
        try:
            write_frame_sync(self._sock, doc)
            response = read_frame_sync(self._sock)
        except (OSError, ReproError) as error:
            self.close()
            if isinstance(error, ReproError) \
                    and not isinstance(error, ServiceUnavailable):
                raise ServiceUnavailable(
                    f"serve daemon at {self.socket_path}: {error}"
                ) from None
            raise
        if response is None:
            self.close()
            raise ServiceUnavailable(
                f"serve daemon at {self.socket_path} closed the "
                f"connection without replying"
            )
        return response

    def request(self, request) -> Dict[str, object]:
        """Send a typed service request; returns the response document."""
        doc = request.to_doc()
        if self.namespace is not None:
            doc["namespace"] = self.namespace
        return self.call(doc)

    # -- control plane -------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.call({"kind": "ping"})

    def stats(self) -> Dict[str, object]:
        return self.call({"kind": "stats"})

    def shutdown(self) -> Dict[str, object]:
        """Ask the daemon to drain in-flight requests and exit."""
        return self.call({"kind": "shutdown"})


def wait_for_daemon(socket_path: str, timeout: float = 10.0,
                    interval: float = 0.05) -> None:
    """Block until the daemon answers a ping (startup synchronization)."""
    import time

    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(socket_path, timeout=interval * 20) as client:
                client.ping()
            return
        except ReproError as error:
            last_error = error
            time.sleep(interval)
    raise ServiceUnavailable(
        f"serve daemon at {socket_path} did not come up within "
        f"{timeout:.1f}s: {last_error}"
    )

"""One workload in one process: set up, send the plan, check every answer.

Requests go through the public service surface only: an in-process
:class:`repro.service.ServiceCore`, or ``python -m repro serve`` in a
child process reached through :class:`repro.service.ServiceClient`.
Every response is checked against ``expected_digests.json``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from hostspeed import HostSpeed, work_cpus
from plans import Item, WorkloadSpec, pairs
from stats import geomean, medians_by, percentile, tail_level
from tracing import SPANS, Span, Tracer, chrome_trace, summarize

from repro.errors import ReproError
from repro.service import ServiceClient, ServiceCore, response_digest
from repro.service.client import wait_for_daemon
from repro.service.requests import PsecRequest, RecommendRequest, RunOptions
from repro.workloads import ALL_WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
EXPECTED_PATH = BENCH / "expected_digests.json"
WARMUP_PATH = ROOT / "examples" / "roi_loop.mc"

REQUESTS = {"psec": PsecRequest, "recommend": RecommendRequest}

END_TO_END_UNITS = {
    "req_per_s": "req/s",
    "latency_geomean_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{span}.self_ms": "ms/req" for span in SPANS},
    **{f"{span}.calls": "calls/req" for span in SPANS},
    "vm.instructions": "instr/req",
    "vm.ns_per_instr": "ns/instr",
    "runtime.access_events": "events/req",
    "session.store_hit_ratio": "ratio",
    "session.get_kb": "KB/req",
    "session.put_kb": "KB/req",
    "session.stage_hit_ratio": "ratio",
    "service.daemon_queue_ms": "ms/req",
    "service.daemon_busy_ms": "ms/req",
    "service.wire_ms": "ms/req",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def programs() -> List[str]:
    return [w.name for w in ALL_WORKLOADS]


def sources(size: str) -> Dict[str, str]:
    return {
        w.name: w.source(w.test_params if size == "test" else w.ref_params)
        for w in ALL_WORKLOADS
    }


def digest_key(program: str, size: str, kind: str) -> str:
    return f"{program}/{size}/{kind}"


def expected_digests() -> Dict[str, str]:
    """Every (program, size, kind) digest from the tree-walk oracle, with
    the artifact cache off."""
    oracle = RunOptions(vm="ir", no_cache=True)
    core = ServiceCore()
    digests = {}
    for size in ("test", "ref"):
        for program, source in sources(size).items():
            for kind, request_type in REQUESTS.items():
                doc = core.execute(
                    request_type(source=source, name=program, options=oracle)
                )
                digests[digest_key(program, size, kind)] = \
                    response_digest(doc)
    return digests


def load_expected() -> Dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


# -- backends -----------------------------------------------------------------

Send = Callable[[object, Optional[str]], Dict[str, object]]


class InProcess:
    """One caller on one store root; a core per namespace."""

    callers = 1

    def __init__(self, workdir: Path) -> None:
        self.cache_dir = str(workdir / "cache")

    def connect(self) -> Send:
        def send(request, namespace):
            return ServiceCore(self.cache_dir, namespace).execute(request)
        return send

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class Served:
    """``python -m repro serve`` (default workers and queue) in a child
    process, pinned to ``cpu`` when given, and one client connection per
    caller."""

    callers = 2

    def __init__(self, workdir: Path, spans_out: Optional[Path],
                 cpu: Optional[int] = None) -> None:
        # A relative path: a socket path is limited to about 100 bytes.
        self.socket = os.path.relpath(workdir / "d.sock")
        cache = str(workdir / "cache")
        if spans_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(BENCH / "serve_traced.py"),
                       "--spans-out", str(spans_out)]
        command += ["--socket", self.socket, "--cache-dir", cache]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
            preexec_fn=(None if cpu is None
                        else lambda: os.sched_setaffinity(0, {cpu})),
        )
        self._clients: List[ServiceClient] = []
        try:
            wait_for_daemon(self.socket, timeout=60)
        except ReproError:
            self.close()
            raise

    def connect(self) -> Send:
        client = ServiceClient(self.socket, timeout=120).connect()
        self._clients.append(client)

        def send(request, namespace):
            doc = request.to_doc()
            if namespace is not None:
                doc["namespace"] = namespace
            return client.call(doc)
        return send

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients.clear()
        if self.proc.poll() is None:
            try:
                with ServiceClient(self.socket, timeout=30) as control:
                    control.shutdown()
                self.proc.wait(timeout=60)
            except (ReproError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# -- one workload -------------------------------------------------------------


class Sample(NamedTuple):
    start: float
    latency_s: float
    ok: bool
    error: Optional[str]
    hits: int
    misses: int
    queue_s: float
    busy_s: float


class Workload:
    """Set-up and timed phase of one workload in ``workdir``.

    ``trace`` records layer spans during the timed phase only; set-up
    always runs untraced code in this process.  ``cpus`` are the CPUs
    the work runs on, where the host speed is sampled: this process's,
    then the daemon's, which is pinned to the last of them.
    """

    def __init__(self, spec: WorkloadSpec, workdir: Path,
                 trace: bool = False, cpus: Sequence[int] = ()) -> None:
        self.spec = spec
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.cpus = cpus
        self.spans_out = workdir / "daemon-spans.json"
        self.expected = load_expected()
        self.sources = sources(spec.size)
        self.backend = None
        #: Host speed while setting up, for the set-up time.
        self.setup_speed = HostSpeed(cpus)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Start the backend, send one warm-up request, and, when the mix
        has ``repeat`` requests, every pair once so that they hit."""
        self.setup_speed.take()
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.spec.serve:
            self.backend = Served(
                self.workdir, self.spans_out if self.tracer else None,
                self.cpus[-1] if self.cpus else None)
        else:
            self.backend = InProcess(self.workdir)
        send = self.backend.connect()
        warmup = PsecRequest(source=WARMUP_PATH.read_text(), name="roi_loop")
        if not send(warmup, "warmup").get("ok"):
            raise ReproError("warm-up request failed")
        if "repeat" in self.spec.mix:
            for program, kind in pairs(programs()):
                if self.setup_speed.due():
                    self.setup_speed.take()
                sample = self._send(send, Item(program, kind, "repeat"), 0)
                if not sample.ok:
                    raise ReproError(f"set-up request {program}/{kind} "
                                     f"failed: {sample.error}")

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    # -- timed phase ----------------------------------------------------------

    def _send(self, send: Send, item: Item, index: int) -> Sample:
        source = self.sources[item.program]
        namespace = None
        if item.variant == "edit":
            source += f"\n// rev {index}\n"
        elif item.variant == "new":
            namespace = f"n{index}"
        request = REQUESTS[item.kind](source=source, name=item.program)
        error = None
        start = perf_counter()
        try:
            doc = send(request, namespace)
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            doc, error = {}, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if error is None and not doc.get("ok"):
            error = f"not ok: {doc.get('error')}"
        expected = self.expected[
            digest_key(item.program, self.spec.size, item.kind)]
        if error is None and response_digest(doc) != expected:
            error = "digest differs from expected"
        meta = doc.get("meta") or {}
        outcomes = list((meta.get("stages") or {}).values())
        serve = meta.get("serve") or {}
        return Sample(start, latency, error is None, error,
                      outcomes.count("hit"), outcomes.count("miss"),
                      serve.get("queue_wait_s", 0.0),
                      serve.get("wall_s", 0.0))

    def measure(self, plan: List[Item]) -> Dict[str, object]:
        """Send ``plan`` from closed-loop callers; returns the result."""
        senders = [self.backend.connect()
                   for _ in range(self.backend.callers)]
        if self.tracer is not None:
            senders = [self.tracer.wrap("request", send) for send in senders]
            if not self.spec.serve:
                self.tracer.install()
        samples: List[Optional[Sample]] = [None] * len(plan)
        speed = HostSpeed(self.cpus)
        lock = threading.Lock()
        state = {"next": 0, "pausing": False}

        def timed_pause() -> None:
            speed.take()
            state["pausing"] = False

        # Four times a second all callers stop between requests and the
        # host is timed while nothing of the program runs.
        pause = threading.Barrier(len(senders), action=timed_pause)

        def caller(send: Send) -> None:
            while True:
                with lock:
                    index = state["next"]
                    if index < len(plan) and speed.due():
                        state["pausing"] = True
                    pausing = state["pausing"]
                    if not pausing:
                        state["next"] += 1
                if pausing:
                    try:
                        pause.wait()
                    except threading.BrokenBarrierError:
                        return
                elif index >= len(plan):
                    return
                else:
                    samples[index] = self._send(send, plan[index], index)

        start_ns = perf_counter_ns()
        start = perf_counter()
        try:
            threads = [threading.Thread(target=caller, args=(send,))
                       for send in senders[1:]]
            for thread in threads:
                thread.start()
            caller(senders[0])
            for thread in threads:
                thread.join()
            wall = perf_counter() - start
            speed.take()
        finally:
            # Interrupted (SIGTERM), the other callers finish the request
            # they are in and return, instead of keeping the process up.
            with lock:
                state["next"] = len(plan)
            pause.abort()
            if self.tracer is not None:
                self.tracer.uninstall()
        result = self._result(plan, samples, wall, speed)
        if self.tracer is not None:
            result["layers"] = self._layers(samples, start_ns)
        return result

    def _result(self, plan: List[Item], samples: List[Sample],
                wall: float, speed: HostSpeed) -> Dict[str, object]:
        """Times in the metrics are scaled to the reference host at full
        speed (``hostspeed``); ``raw`` keeps them as measured."""
        n = len(plan)
        pairs_ = [(item.program, item.kind) for item in plan]
        scaled = [s.latency_s * speed.scale_at(s.start) for s in samples]
        q = tail_level(n)

        def timings(latencies: List[float], work_s: float):
            return {
                "req_per_s": n / work_s,
                "latency_geomean_ms":
                    geomean(medians_by(zip(pairs_, latencies))) * 1000,
                "latency_tail_ms": percentile(latencies, q) * 1000,
            }

        errors = [s.error for s in samples if not s.ok]
        return {
            "workload": self.spec.name,
            "n": n,
            "wall_s": wall,
            "tail_q": q,
            "latency_mean_ms": sum(s.latency_s for s in samples) * 1000 / n,
            "attempted": n,
            "failed": len(errors),
            "errors": errors[:5],
            "raw": timings([s.latency_s for s in samples], wall),
            "metrics": {
                **timings(scaled, speed.scaled_work_s()),
                "peak_rss_mb": self.backend.peak_rss_mb(),
            },
            "pairs": {
                f"{program}/{kind}": median * 1000
                for (program, kind), median in zip(
                    sorted(set(pairs_)), medians_by(zip(pairs_, scaled)))
            },
        }

    def _layers(self, samples: List[Sample],
                start_ns: int) -> Dict[str, float]:
        """Per-layer metrics of the timed phase (the daemon's spans are
        read after it shut down, so call this after ``close`` for
        ``serve_mix``)."""
        n = len(samples)
        spans = [s for s in self.tracer.spans if s.start_ns >= start_ns]
        if self.spec.serve:
            self.close()
            spans += [
                Span(*row)
                for row in json.loads(self.spans_out.read_text())
                if row[3] >= start_ns
            ]
            # The daemon's spans cover its busy time, not the client's.
            covered_ns = sum(s.busy_s for s in samples) * 1e9
        else:
            covered_ns = sum(s.latency_s for s in samples) * 1e9
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{self.spec.name}.json").write_text(
            json.dumps(chrome_trace(spans)))
        summary = summarize(spans, n)
        totals = summary["totals"]
        metrics: Dict[str, float] = {}
        for name, row in summary["layers"].items():
            metrics[f"{name}.self_ms"] = row["self_ms"]
            metrics[f"{name}.calls"] = row["calls"]
        stages = sum(s.hits + s.misses for s in samples)
        queue_ms = sum(s.queue_s for s in samples) * 1000 / n
        busy_ms = sum(s.busy_s for s in samples) * 1000 / n
        wire_ms = (sum(s.latency_s for s in samples) * 1000 / n
                   - queue_ms - busy_ms) if self.spec.serve else 0.0
        metrics.update({
            "vm.instructions": totals["instructions"] / n,
            "vm.ns_per_instr": (totals["vm_ns"] / totals["instructions"]
                                if totals["instructions"] else 0.0),
            "runtime.access_events": totals["access_events"] / n,
            "session.store_hit_ratio": (totals["hits"] / totals["gets"]
                                        if totals["gets"] else 0.0),
            "session.get_kb": totals["get_chars"] / 1024 / n,
            "session.put_kb": totals["put_chars"] / 1024 / n,
            "session.stage_hit_ratio": (sum(s.hits for s in samples) / stages
                                        if stages else 0.0),
            "service.daemon_queue_ms": queue_ms,
            "service.daemon_busy_ms": busy_ms,
            "service.wire_ms": wire_ms,
            "trace.coverage_pct": 100 * summary["self_ns"] / covered_ns,
        })
        return metrics


def run_child(spec: WorkloadSpec, plan: List[Item], trace: bool,
              ready: Callable[[List[float]], None],
              setup_only: bool = False) -> Optional[Dict[str, object]]:
    """Set up, call ``ready`` with the host speeds seen meanwhile, then
    measure ``plan`` (unless ``setup_only``); cleans up its work
    directory either way.

    The process, and every thread it starts, stays on one CPU, so that
    the host speed is sampled where the work runs.
    """
    cpus = work_cpus(spec.serve)
    os.sched_setaffinity(0, {cpus[0]})
    workdir = OUT / f"work-{os.getpid()}-{spec.name}"
    workload = Workload(spec, workdir, trace, cpus)
    try:
        workload.setup()
        ready([pause.scale for pause in workload.setup_speed.pauses])
        if setup_only:
            return None
        return workload.measure(plan)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

"""Differential testing: the serve daemon against the tree-walk oracle.

Seeded random ROI programs (shared generator in ``repro.workloads.fuzz``)
are submitted to a live ``repro serve`` daemon running the bytecode
VM; an in-process :class:`ServiceCore` running the IR tree-walk
(``tests/helpers/treewalk.py``) is the oracle.  The PSEC ``sets_digest``
and the full response digest must agree — the daemon transport, its
thread pool, its cache namespaces, and the bytecode tier may not perturb
a single characterized byte.  Eight
namespaced clients replaying a mixed psec/recommend matrix, cold and
then warm, are held to the in-process core the same way.
"""

import asyncio
import threading
from pathlib import Path

import pytest

from repro.service import (
    PsecRequest,
    RecommendRequest,
    RunOptions,
    ServiceClient,
    ServiceCore,
    response_digest,
)
from repro.service.client import wait_for_daemon
from repro.service.daemon import ServeDaemon
from repro.workloads import workload
from repro.workloads.fuzz import random_roi_program
from tests.helpers.subjects import ARRAY_ROI_SOURCE, SCALAR_REDUCTION_SOURCE
from tests.helpers.treewalk import treewalk_engine

SEEDS = range(6)
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
GOLDENS = ["roi_loop", "stencil_calls", "anneal_stats"]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One daemon shared by the whole module (cold start is the point of
    a daemon; per-seed isolation comes from per-seed program names)."""
    root = tmp_path_factory.mktemp("serve-prop")
    socket_path = str(root / "serve.sock")
    server = ServeDaemon(socket_path, cache_dir=str(root / "cache"),
                         workers=2, queue_bound=0, queue_policy="block")
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run()), daemon=True
    )
    thread.start()
    wait_for_daemon(socket_path)
    yield socket_path
    with ServiceClient(socket_path) as client:
        client.shutdown()
    thread.join(timeout=10)


class _Oracle:
    """A :class:`ServiceCore` on its own store whose every execution runs
    on the tree-walk.  The daemon shares this process, so the swap lasts
    only while the oracle executes and no daemon request is in flight."""

    def __init__(self, cache_dir: str) -> None:
        self.core = ServiceCore(cache_dir=cache_dir)

    def execute(self, request):
        with treewalk_engine():
            return self.core.execute(request)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Tree-walk oracle core on its own store."""
    root = tmp_path_factory.mktemp("serve-oracle")
    return _Oracle(str(root / "cache"))


@pytest.mark.parametrize("seed", SEEDS)
def test_daemon_psec_matches_tree_walk_oracle(seed, daemon, oracle):
    """PSEC through the daemon (bytecode VM) == in-process tree-walk."""
    source = random_roi_program(seed)
    name = f"serveprop{seed}"
    request = PsecRequest(source=source, name=name)
    expected = oracle.execute(request)
    with ServiceClient(daemon, namespace=f"s{seed}") as client:
        served = client.request(request)
        warm = client.request(request)
    assert served["ok"], served.get("error")
    assert served["body"]["sets_digest"] == expected["body"]["sets_digest"]
    assert response_digest(served) == response_digest(expected)
    # A warm resubmission replays the stored response bit-for-bit.
    assert warm["meta"]["stages"] == {"response": "hit"}
    assert response_digest(warm) == response_digest(expected)


@pytest.mark.parametrize("seed", [0, 3])
def test_daemon_recommend_matches_oracle(seed, daemon, oracle):
    source = random_roi_program(seed)
    name = f"serveprop{seed}"  # same namespace+name: rides the psec cache
    request = RecommendRequest(source=source, name=name)
    expected = oracle.execute(request)
    with ServiceClient(daemon, namespace=f"s{seed}") as client:
        served = client.request(request)
    assert served["ok"], served.get("error")
    assert response_digest(served) == response_digest(expected)


def test_concurrent_seeds_keep_digests_independent(daemon, oracle):
    """All seeds in flight at once, each in its own namespace — responses
    must match their per-seed oracle, never a neighbour's."""
    cases = []
    for seed in SEEDS:
        source = random_roi_program(seed)
        name = f"serveprop{seed}"
        expected = oracle.execute(PsecRequest(source=source, name=name))
        cases.append((seed, source, name, response_digest(expected)))

    failures = []
    barrier = threading.Barrier(len(cases))

    def run_case(seed, source, name, expected_digest):
        try:
            request = PsecRequest(source=source, name=name)
            with ServiceClient(daemon, namespace=f"s{seed}") as client:
                barrier.wait()
                served = client.request(request)
            if not served.get("ok"):
                failures.append((seed, served.get("error")))
            elif response_digest(served) != expected_digest:
                failures.append((seed, "digest mismatch"))
        except Exception as error:  # noqa: BLE001
            failures.append((seed, repr(error)))

    threads = [threading.Thread(target=run_case, args=case)
               for case in cases]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []


@pytest.mark.parametrize("kind", ["psec", "recommend"])
@pytest.mark.parametrize("example", GOLDENS)
def test_golden_responses_share_one_digest(example, kind, daemon, tmp_path):
    """Cold, warm (a stored response), live and daemon-served responses
    of every golden example are one digest; the warm ones run no stage
    but the response lookup."""
    source = (EXAMPLES / f"{example}.mc").read_text()
    request_type = PsecRequest if kind == "psec" else RecommendRequest
    request = request_type(source=source, name=example)
    core = ServiceCore(cache_dir=str(tmp_path / "cache"))
    cold = core.execute(request)
    warm = core.execute(request)
    live = core.execute(request_type(source=source, name=example,
                                     options=RunOptions(no_cache=True)))
    with ServiceClient(daemon, namespace=f"g-{kind}-{example}") as client:
        served_cold = client.request(request)
        served_warm = client.request(request)
    assert cold["meta"]["stages"]["response"] == "miss"
    assert "response" not in live["meta"]["stages"]
    for doc in (warm, served_warm):
        assert doc["meta"]["stages"] == {"response": "hit"}
    digests = {response_digest(doc)
               for doc in (cold, warm, live, served_cold, served_warm)}
    assert len(digests) == 1


def test_namespaced_clients_cold_then_warm_match_core(daemon, tmp_path):
    """Eight namespaced clients replay a mixed psec/recommend matrix over
    three programs: a cold pass (each program's psec request, so every
    stage misses) and then a warm pass (the whole matrix).  Every
    response, cold or warm, from any client, carries the digest the
    in-process core gives the same request."""
    sources = (
        ("serve_roi", ARRAY_ROI_SOURCE),
        ("serve_scalar", SCALAR_REDUCTION_SOURCE),
        ("serve_bt", workload("bt").test_source("openmp")),
    )
    matrix = [request_type(source=source, name=name)
              for name, source in sources
              for request_type in (PsecRequest, RecommendRequest)]
    core = ServiceCore(cache_dir=str(tmp_path / "oracle"))
    cases = [(request, response_digest(core.execute(request)))
             for request in matrix]
    n_clients = 8
    failures = []

    def client_pass(index, barrier, pass_cases):
        try:
            with ServiceClient(daemon, namespace=f"mix{index}") as client:
                barrier.wait()
                for request, expected in pass_cases:
                    served = client.request(request)
                    label = f"{request.kind}:{request.name}@mix{index}"
                    if not served.get("ok"):
                        failures.append((label, served.get("error")))
                    elif response_digest(served) != expected:
                        failures.append((label, "digest mismatch"))
        except Exception as error:  # noqa: BLE001
            failures.append((index, repr(error)))

    for pass_cases in ([case for case in cases if case[0].kind == "psec"],
                       cases):
        barrier = threading.Barrier(n_clients, timeout=120)
        threads = [threading.Thread(target=client_pass,
                                    args=(index, barrier, pass_cases))
                   for index in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert failures == []

"""Differential testing: the serve daemon against the tree-walk oracle.

Seeded random ROI programs (shared generator in ``repro.workloads.fuzz``)
are submitted to a live ``repro serve`` daemon running the bytecode
engine; an in-process :class:`ServiceCore` running the IR tree-walk is
the oracle.  The PSEC ``sets_digest`` and the full response digest must
agree — the daemon transport, its thread pool, its cache namespaces, and
the vm tier may not perturb a single characterized byte.
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
from repro.workloads.fuzz import random_roi_program

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


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Tree-walk oracle core on its own store."""
    root = tmp_path_factory.mktemp("serve-oracle")
    return ServiceCore(cache_dir=str(root / "cache"))


@pytest.mark.parametrize("seed", SEEDS)
def test_daemon_psec_matches_tree_walk_oracle(seed, daemon, oracle):
    """PSEC through the daemon (bytecode vm) == in-process tree-walk."""
    source = random_roi_program(seed)
    name = f"serveprop{seed}"
    expected = oracle.execute(
        PsecRequest(source=source, name=name, options=RunOptions(vm="ir"))
    )
    request = PsecRequest(source=source, name=name,
                          options=RunOptions(vm="bytecode"))
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
    expected = oracle.execute(
        RecommendRequest(source=source, name=name,
                         options=RunOptions(vm="ir"))
    )
    with ServiceClient(daemon, namespace=f"s{seed}") as client:
        served = client.request(
            RecommendRequest(source=source, name=name,
                             options=RunOptions(vm="bytecode"))
        )
    assert served["ok"], served.get("error")
    assert response_digest(served) == response_digest(expected)


def test_concurrent_seeds_keep_digests_independent(daemon, oracle):
    """All seeds in flight at once, each in its own namespace — responses
    must match their per-seed oracle, never a neighbour's."""
    cases = []
    for seed in SEEDS:
        source = random_roi_program(seed)
        name = f"serveprop{seed}"
        expected = oracle.execute(
            PsecRequest(source=source, name=name,
                        options=RunOptions(vm="ir"))
        )
        cases.append((seed, source, name, response_digest(expected)))

    failures = []
    barrier = threading.Barrier(len(cases))

    def run_case(seed, source, name, expected_digest):
        try:
            request = PsecRequest(source=source, name=name,
                                  options=RunOptions(vm="bytecode"))
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

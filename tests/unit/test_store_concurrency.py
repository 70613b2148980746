"""Concurrent multi-client safety of the artifact store.

The serve daemon shares one ``ArtifactStore`` root across worker threads
and client namespaces, so put/get/clear/verify/stats must tolerate any
interleaving: unique O_EXCL tempfiles (no two writers collide on a
scratch path), atomic publication, and eviction races treated as misses
— never an exception, never a torn read.
"""

import hashlib
import threading

import pytest

from repro.session.store import (
    ArtifactStore,
    NamespaceError,
    validate_namespace,
)
from tests.helpers.store_entries import read_entry, rewrite_entry


def _key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "store"


class TestNamespaceValidation:
    @pytest.mark.parametrize("name", ["c0", "client-7", "A.b_c", "x" * 64])
    def test_valid(self, name):
        assert validate_namespace(name) == name

    @pytest.mark.parametrize("name", [
        "", ".", "..", "../escape", "a/b", "a\\b", ".hidden", "-lead",
        "x" * 65, "sp ace", "default",
    ])
    def test_rejected(self, name):
        with pytest.raises(NamespaceError):
            validate_namespace(name)

    def test_namespaced_store_partitions_disk(self, root):
        base = ArtifactStore(root)
        ns = ArtifactStore(root, namespace="c1")
        key = _key("shared")
        base.put(key, "base-payload", "ir")
        ns.put(key, "ns-payload", "ir")
        assert base.get(key) == "base-payload"
        assert ns.get(key) == "ns-payload"
        assert ArtifactStore(root).namespaces() == ["c1"]

    def test_maintenance_walks_all_partitions(self, root):
        ArtifactStore(root).put(_key("a"), "pa", "ir")
        ArtifactStore(root, namespace="c1").put(_key("b"), "pb", "profile")
        ArtifactStore(root, namespace="c2").put(_key("c"), "pc", "profile")
        stats = ArtifactStore(root).stats()
        assert stats.entries == 3
        assert stats.by_namespace["default"]["entries"] == 1
        assert stats.by_namespace["c1"]["entries"] == 1
        assert stats.by_namespace["c2"]["entries"] == 1
        report = ArtifactStore(root).verify()
        assert report["checked"] == 3
        assert set(report["by_namespace"]) == {"default", "c1", "c2"}
        assert ArtifactStore(root).clear() == 3


class TestConcurrentHammer:
    """Threads doing put/get/clear/verify/stats against one root."""

    N_THREADS = 8
    N_OPS = 60

    def test_hammer(self, root):
        errors = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(index: int) -> None:
            # Half the workers share the default partition, half use a
            # private namespace — both paths must survive interleaving.
            namespace = f"c{index % 2}" if index % 2 else None
            store = ArtifactStore(root, namespace=namespace)
            barrier.wait()
            try:
                for op in range(self.N_OPS):
                    key = _key(f"k{op % 7}")
                    store.put(key, f"payload-{index}-{op}", "profile")
                    got = store.get(key)
                    # A concurrent clear may turn the read into a miss;
                    # a hit must be one writer's complete payload.
                    if got is not None:
                        assert got.startswith("payload-")
                    if op % 13 == 0:
                        store.clear()
                    if op % 11 == 0:
                        report = store.verify()
                        assert report["checked"] >= report["evicted"]
                    if op % 9 == 0:
                        store.stats()
            except Exception as error:  # noqa: BLE001 — collect, don't die
                errors.append((index, repr(error)))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        # The store is intact afterwards: verify walks every partition
        # and finds only well-formed entries.
        report = ArtifactStore(root).verify()
        assert report["evicted"] == 0

    def test_put_race_single_key(self, root):
        """Many writers racing one key: last publication wins, every
        read observes one writer's payload in full, never interleaved
        bytes."""
        stores = [ArtifactStore(root) for _ in range(6)]
        barrier = threading.Barrier(len(stores))
        key = _key("hot")
        seen = []
        lock = threading.Lock()

        def writer(store, index):
            barrier.wait()
            for round_no in range(40):
                store.put(key, f"writer-{index}", "ir")
                got = store.get(key)
                with lock:
                    seen.append(got)

        threads = [threading.Thread(target=writer, args=(s, i))
                   for i, s in enumerate(stores)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(got is not None and got.startswith("writer-")
                   for got in seen)
        assert not list((ArtifactStore(root)._objects_dir() / key[:2])
                        .glob(".tmp-*")), "stray tempfiles left behind"

    def test_eviction_race_tolerated(self, root):
        """verify() racing clear() must not raise on entries vanishing
        mid-walk."""
        store = ArtifactStore(root)
        for i in range(50):
            store.put(_key(f"k{i}"), f"p{i}", "profile")
        stop = threading.Event()
        errors = []

        def clearer():
            while not stop.is_set():
                store.clear()
                for i in range(10):
                    store.put(_key(f"r{i}"), f"p{i}", "profile")

        def verifier():
            try:
                for _ in range(30):
                    store.verify()
                    store.stats()
            except Exception as error:  # noqa: BLE001
                errors.append(repr(error))
            finally:
                stop.set()

        t1 = threading.Thread(target=clearer)
        t2 = threading.Thread(target=verifier)
        t1.start()
        t2.start()
        t2.join()
        t1.join()
        assert errors == []

    def test_corrupt_namespaced_entry_evicted(self, root):
        store = ArtifactStore(root, namespace="c9")
        store.put(_key("good"), "good-payload", "ir")
        store.put(_key("bad"), "bad-payload", "ir")
        for entry in store._entry_files():
            if read_entry(entry)[1] == b"bad-payload":
                rewrite_entry(entry, "tampered")
        report = ArtifactStore(root).verify()
        assert report["by_namespace"]["c9"] == {
            "checked": 2, "ok": 1, "evicted": 1,
        }
        assert store.get(_key("good")) == "good-payload"
        assert store.get(_key("bad")) is None

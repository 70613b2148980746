"""On-disk content-addressed artifact store.

Layout (``STORE_VERSION`` 2)::

    <root>/objects/<first two key chars>/<key>.json          # default namespace
    <root>/ns/<namespace>/objects/<first two>/<key>.json     # client namespaces

Each entry is a one-line key-sorted JSON header, a newline, and the
artifact payload's UTF-8 bytes as they are (the header is shown folded
here; on disk it is one line)::

    {"key": "<sha256>", "kind": "ir|profile|...",
     "payload_sha256": "<sha256 of the payload bytes>", "store_version": 2}
    <payload text, to the end of the file>

The payload is not escaped into a JSON string, so an entry costs its
payload plus about 200 bytes, and a hit hashes and decodes the payload
bytes once.  ``stats`` reads only the header line of each entry.

Keys are SHA-256 hex digests computed by :mod:`repro.session.keys`; the
payload is an already-canonical artifact string (serialized IR, profile,
…), so equal content is stored once no matter how it was produced.

**Namespaces** partition the store by client, not by content: the same
key may exist in several namespaces, each a fully independent cache (the
``repro serve`` daemon opens one namespaced view per connected client).
A store opened with ``namespace=None`` reads and writes the default
namespace; maintenance operations (``stats``/``verify``/``clear``)
always walk the *whole* root — default plus every client namespace —
and report per-namespace breakdowns.

Robustness contract (exercised by the cache tests and the CI cache-smoke
job): a corrupt entry — truncated file, no newline after the header, a
header that is not a JSON object, a header or payload that is not
UTF-8 (a lone surrogate's bytes, say), payload hash mismatch, a key
other than the file's, foreign store version — is **evicted and treated
as a miss**, never raised to the caller.  The hash covers the raw
payload bytes, so damage anywhere after the header is caught before
the payload is decoded, and the payload decodes as strict UTF-8.
Writes are atomic (an ``O_EXCL``-unique tempfile per writer +
``os.replace``), so concurrent writers never interleave bytes and a
crashed writer leaves at worst a stray tmp file, not a half-written
entry.  Every walker tolerates
entries vanishing mid-iteration (a concurrent ``clear`` or eviction):
multi-client access — many threads or processes hammering one root —
degrades to misses and recomputation, never to exceptions.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro._version import STORE_VERSION

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Reserved display name of the root (non-namespaced) partition in
#: per-namespace breakdowns.
DEFAULT_NAMESPACE = "default"

#: Namespace names come over the serve socket from untrusted clients and
#: become path components: a strict shape check is the traversal guard.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class NamespaceError(ValueError):
    """An invalid cache namespace name."""


def validate_namespace(namespace: str) -> str:
    """Return ``namespace`` if it is a legal name, else raise.

    Legal names are 1-64 chars of ``[A-Za-z0-9._-]`` starting with an
    alphanumeric — never ``.``/``..``, a path separator, or the reserved
    ``default`` (which names the root partition).
    """
    if namespace == DEFAULT_NAMESPACE:
        raise NamespaceError(
            f"namespace {DEFAULT_NAMESPACE!r} is reserved for the root "
            f"partition; open the store with namespace=None instead"
        )
    if not _NAMESPACE_RE.match(namespace):
        raise NamespaceError(
            f"invalid namespace {namespace!r}: expected 1-64 chars of "
            f"[A-Za-z0-9._-] starting with an alphanumeric"
        )
    return namespace


def resolve_cache_dir(cache_dir: Optional[str] = None) -> Path:
    """Explicit argument > ``$REPRO_CACHE_DIR`` > ``./.repro-cache``."""
    if cache_dir:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


@dataclass
class StoreStats:
    """Per-store counters; hits/misses/puts are this process only,
    entries/bytes reflect the whole store root on disk (every
    namespace), with ``by_namespace`` breaking them down."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evicted_corrupt: int = 0
    entries: int = 0
    payload_bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    by_namespace: Dict[str, Dict[str, int]] = field(default_factory=dict)


class ArtifactStore:
    """Content-addressed artifact store rooted at one directory.

    ``namespace`` selects the partition ``get``/``put`` operate on
    (``None`` = the root partition); maintenance walks every partition.
    """

    def __init__(self, root: Path, namespace: Optional[str] = None) -> None:
        self.root = Path(root)
        self.namespace = (
            validate_namespace(namespace) if namespace is not None else None
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evicted = 0

    @classmethod
    def open(cls, cache_dir: Optional[str] = None,
             namespace: Optional[str] = None) -> "ArtifactStore":
        return cls(resolve_cache_dir(cache_dir), namespace=namespace)

    # -- paths --------------------------------------------------------------

    def _ns_dir(self) -> Path:
        return self.root / "ns"

    def _objects_dir(self, namespace: Optional[str] = None) -> Path:
        namespace = namespace if namespace is not None else self.namespace
        if namespace is None:
            return self.root / "objects"
        return self._ns_dir() / namespace / "objects"

    def _entry_path(self, key: str) -> Path:
        return self._objects_dir() / key[:2] / f"{key}.json"

    def namespaces(self) -> List[str]:
        """Client namespaces present on disk (the root partition is not
        listed; it always exists conceptually)."""
        ns_dir = self._ns_dir()
        try:
            return sorted(
                p.name for p in ns_dir.iterdir()
                if p.is_dir() and _NAMESPACE_RE.match(p.name)
            )
        except OSError:
            return []

    def _entry_files(self, namespace: Optional[str] = None) -> Iterator[Path]:
        """Entries of one partition; tolerates concurrent deletion of
        buckets and files (a racing ``clear``/eviction)."""
        objects = self._objects_dir(namespace)
        try:
            buckets = sorted(p for p in objects.iterdir() if p.is_dir())
        except OSError:
            return
        for bucket in buckets:
            try:
                yield from sorted(bucket.glob("*.json"))
            except OSError:
                continue

    def _partitions(self) -> Iterator[Tuple[str, Optional[str]]]:
        """(display name, namespace arg) for every partition on disk."""
        yield DEFAULT_NAMESPACE, None
        for name in self.namespaces():
            yield name, name

    # -- core API -----------------------------------------------------------

    def get(self, key: str) -> Optional[str]:
        """The payload stored under ``key``, or None (miss).  Corrupt
        entries are evicted and count as misses."""
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("_misses")
            return None
        payload = self._validate(raw, expect_key=key)
        if payload is None:
            self._evict(path)
            self._count("_misses")
            return None
        self._count("_hits")
        return payload

    def put(self, key: str, payload: str, kind: str) -> None:
        """Store ``payload`` under ``key`` atomically.  Best-effort: an
        unwritable cache directory degrades to a no-op, it never breaks
        the computation whose result it was caching.

        Safe under concurrent multi-client access: ``mkstemp`` opens the
        scratch file with ``O_EXCL`` so no two writers ever share one,
        and ``os.replace`` makes the final rename atomic — a racing
        reader sees either the old complete entry or the new complete
        entry, never a torn write.  Concurrent writers of the same key
        are idempotent (content-addressed payloads are equal by
        construction); last rename wins.
        """
        body = payload.encode("utf-8")
        header = json.dumps(
            {
                "store_version": STORE_VERSION,
                "key": key,
                "kind": kind,
                "payload_sha256": hashlib.sha256(body).hexdigest(),
            },
            sort_keys=True,
        )
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header.encode("utf-8") + b"\n" + body)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A concurrent clear may remove the bucket between mkdir and
            # mkstemp/replace; the entry is simply not cached this time.
            return
        self._count("_puts")

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry in every namespace; returns how many were
        removed."""
        removed = 0
        for _, namespace in self._partitions():
            for path in list(self._entry_files(namespace)):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def verify(self) -> Dict[str, object]:
        """Re-hash every entry in every namespace; evict the corrupt ones.

        Returns ``{"checked": n, "ok": n, "evicted": n, "by_namespace":
        {name: {"checked": n, "ok": n, "evicted": n}}}``.
        """
        totals = {"checked": 0, "ok": 0, "evicted": 0}
        by_namespace: Dict[str, Dict[str, int]] = {}
        for display, namespace in self._partitions():
            counts = {"checked": 0, "ok": 0, "evicted": 0}
            for path in list(self._entry_files(namespace)):
                try:
                    raw = path.read_bytes()
                except FileNotFoundError:
                    continue  # concurrently evicted/cleared: not ours
                except OSError:
                    self._evict(path)
                    counts["evicted"] += 1
                    counts["checked"] += 1
                    continue
                counts["checked"] += 1
                if self._validate(raw, expect_key=path.stem) is None:
                    self._evict(path)
                    counts["evicted"] += 1
                else:
                    counts["ok"] += 1
            if namespace is not None or counts["checked"]:
                by_namespace[display] = counts
            for field_name in totals:
                totals[field_name] += counts[field_name]
        return {**totals, "by_namespace": by_namespace}

    def stats(self) -> StoreStats:
        stats = StoreStats(
            hits=self._hits, misses=self._misses, puts=self._puts,
            evicted_corrupt=self._evicted,
        )
        for display, namespace in self._partitions():
            entries = 0
            payload_bytes = 0
            for path in self._entry_files(namespace):
                try:
                    with path.open("rb") as handle:
                        line = handle.readline()
                        size = os.fstat(handle.fileno()).st_size
                    kind = json.loads(line).get("kind", "?")
                except (OSError, ValueError, AttributeError):
                    continue
                if not line.endswith(b"\n") or not isinstance(kind, str):
                    continue
                entries += 1
                payload_bytes += size - len(line)
                stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
            stats.entries += entries
            stats.payload_bytes += payload_bytes
            if namespace is not None or entries:
                stats.by_namespace[display] = {
                    "entries": entries, "payload_bytes": payload_bytes,
                }
        return stats

    # -- internals ----------------------------------------------------------

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _validate(self, raw: bytes, expect_key: str) -> Optional[str]:
        line, newline, body = raw.partition(b"\n")
        if not newline:
            return None
        try:
            # Bytes, not text: a header that is not UTF-8 (a bit flip to
            # 0xff) raises UnicodeDecodeError, a ValueError, so it is
            # corrupt like any other bad header.
            header = json.loads(line)
        except ValueError:
            return None
        if not isinstance(header, dict):
            return None
        if header.get("store_version") != STORE_VERSION:
            return None
        if header.get("key") != expect_key:
            return None
        if header.get("payload_sha256") != hashlib.sha256(body).hexdigest():
            return None
        try:
            # Strict: bytes no ``put`` could write (a lone surrogate's
            # ``ED A0 80``) are corrupt even under a matching hash.
            return body.decode("utf-8")
        except UnicodeDecodeError:
            return None

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass  # a concurrent evictor won the race: same outcome
        self._count("_evicted")

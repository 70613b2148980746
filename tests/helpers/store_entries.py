"""Read and rewrite artifact-store entries, for corruption tests.

An entry (see :mod:`repro.session.store`) is a one-line JSON header, a
newline, and the payload's raw bytes.  :func:`read_entry` splits one;
:func:`rewrite_entry` puts back a changed payload or header, either
under the old ``payload_sha256`` (the entry then fails its checksum) or
with the hash recomputed (only the payload's shape or encoding is
wrong).
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple, Union


def read_entry(path: Path) -> Tuple[Dict, bytes]:
    """(header, payload bytes) of the entry at ``path``."""
    line, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(line), payload


def entry_kind(path: Path) -> str:
    """The artifact kind in the header of the entry at ``path``."""
    return read_entry(path)[0]["kind"]


def rewrite_entry(path: Path, payload: Union[str, bytes, None] = None, *,
                  rehash: bool = False, **header_fields) -> None:
    """Rewrite the entry at ``path`` in place.

    ``payload`` (text is UTF-8 encoded) replaces the stored payload;
    ``header_fields`` replace header fields.  With ``rehash`` the header
    carries the SHA-256 of the new payload bytes.
    """
    header, stored = read_entry(path)
    if payload is None:
        payload = stored
    elif isinstance(payload, str):
        payload = payload.encode("utf-8")
    if rehash:
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    header.update(header_fields)
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    )


def flip_payload_byte(path: Path, offset: int = 0) -> None:
    """Flip the low bit of payload byte ``offset``, leaving the header as
    it is.  An ASCII byte stays ASCII, so only the checksum can tell."""
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"\n") + 1 + offset] ^= 0x01
    path.write_bytes(bytes(raw))

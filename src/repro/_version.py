"""Single source of truth for the toolchain version and artifact schemas.

``__version__`` is what ``repro --version`` prints.  The schema
constants version the on-disk artifact formats independently of the
package version: bump one whenever the corresponding serialized form
changes shape, and every cache key derived from it changes with it
(stale entries are simply never looked up again — see
:mod:`repro.session.keys`).
"""

__version__ = "1.4.0"

#: Format version of serialized IR modules (:mod:`repro.ir.serialize`).
#: v2: probes no longer carry a compile-time ``site`` id and the module
#: no longer carries their table, so v1 documents must miss.
IR_SCHEMA_VERSION = 2

#: Format version of serialized profiles — PSECs, ASMT, degradation
#: report, and run result (:mod:`repro.runtime.psec_json`).
#: v2: PSEC entries and the ASMT are columnar tables, use-callstack sets
#: are interned in a per-profile ``uses`` table, and the fold cursors
#: (``last_invocation``, ``last_epoch``) and the degradation records'
#: ``batch_seq`` are gone, so v1 documents must miss.
PROFILE_SCHEMA_VERSION = 2

#: Format version of serialized register bytecode
#: (:mod:`repro.vm.bytecode`).  v2: fused cmp+branch / load+binop /
#: binop+store / probe+access superinstructions (opcodes 40-49) appear in
#: canonical code streams, so v1 artifacts must never be decoded as v2.
#: v3: the superinstructions are gone — one opcode per IR instruction,
#: 40-49 retired — so v2 streams, which carry them, must miss.
#: v4: ``probe.access`` and ``probe.classify`` drop their trailing
#: site-id word (widths 8 -> 7 and 9 -> 8), so v3 streams must miss.
BYTECODE_SCHEMA_VERSION = 4

#: Layout version of the on-disk artifact store
#: (:mod:`repro.session.store`).  v2: an entry is a one-line JSON header
#: followed by the raw payload text, no longer a JSON string inside the
#: envelope, so v1 entries must miss.
STORE_VERSION = 2

#: Format version of service request/response documents — the wire
#: format of the ``repro serve`` daemon and the envelope returned by
#: :class:`repro.service.core.ServiceCore` (:mod:`repro.service`).
SERVICE_SCHEMA_VERSION = 1

#: Format version of recommendation documents — the schema-versioned
#: JSON emitted by :mod:`repro.recommend` and cached as the session
#: ``recommend`` artifact kind.  Bump whenever the doc shape, the role
#: classifier contract, or a recommender's structured payload changes.
RECOMMEND_SCHEMA_VERSION = 1

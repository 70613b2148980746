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
IR_SCHEMA_VERSION = 1

#: Format version of serialized profiles — PSECs, ASMT, degradation
#: report, and run result (:mod:`repro.runtime.psec_json`).
PROFILE_SCHEMA_VERSION = 1

#: Format version of serialized register bytecode
#: (:mod:`repro.vm.bytecode`).  v2: tier-2 superinstructions — fused
#: cmp+branch / load+binop / binop+store / probe+access opcodes appear in
#: canonical code streams, so v1 artifacts must never be decoded as v2.
BYTECODE_SCHEMA_VERSION = 2

#: Layout version of the on-disk artifact store
#: (:mod:`repro.session.store`).
STORE_VERSION = 1

#: Format version of service request/response documents — the wire
#: format of the ``repro serve`` daemon and the envelope returned by
#: :class:`repro.service.core.ServiceCore` (:mod:`repro.service`).
SERVICE_SCHEMA_VERSION = 1

#: Format version of recommendation documents — the schema-versioned
#: JSON emitted by :mod:`repro.recommend` and cached as the session
#: ``recommend`` artifact kind.  Bump whenever the doc shape, the role
#: classifier contract, or a recommender's structured payload changes.
RECOMMEND_SCHEMA_VERSION = 1

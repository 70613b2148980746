"""Pass registry and ``-passes=``-style pipeline descriptions.

Every transform/planning pass registers under a stable string name;
pipelines are then described as comma-separated text à la LLVM's
``-passes=``:

    ``"callgraph-o3,selective-mem2reg,instrument"``

Aliases expand to predefined sequences (``carmot``, ``naive``,
``baseline``),
and a leading ``-`` removes a pass from the pipeline built so far — the
Figure-8 toggles are spelled ``"carmot,-pin-reduction"``.  The grammar,
the error texts and the fingerprint are :class:`repro.registry.Registry`'s.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.registry import Registry


class UnknownPassError(ReproError):
    pass


#: Version of the pass registry's *semantics*: bump when a registered
#: pass changes behaviour without changing its name, so pipeline cache
#: keys derived from :func:`registry_fingerprint` stop matching old
#: artifacts.  2: fixed-classification and aggregation skip PSEs an
#: earlier pass already claimed.
REGISTRY_VERSION = 2

#: The compiler package registers its passes and aliases on import.
PASSES = Registry("pass", "passes", UnknownPassError, "repro.compiler",
                  REGISTRY_VERSION)

register_pass = PASSES.register
register_alias = PASSES.register_alias
registered_pass_names = PASSES.names
registered_alias_names = PASSES.alias_names
is_registered = PASSES.is_registered
create_pass = PASSES.create
registry_fingerprint = PASSES.fingerprint
parse_pipeline = PASSES.parse

"""Recommender registry and ``--recommenders`` selection parsing.

Every recommendation generator registers under a stable string name in
one :class:`repro.registry.Registry`, the class the pass registry is an
instance of too; the set of *extra* recommenders to run per ROI is then
described in the ``--passes`` grammar:

    ``"reduction_hint,privatization_hint"``

Aliases expand to predefined groups (``paper``, ``roles``, ``all``) and
a leading ``-`` removes a recommender from the selection built so far —
``"all,-privatization_hint"`` runs everything but one kind.  Unknown
entries, plain or negated, raise
:class:`~repro.errors.RecommendationError` listing the registered names.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import RecommendationError
from repro.registry import Registry

#: Version of the recommender registry's *semantics*: bump when a
#: registered recommender changes behaviour without changing its name,
#: so recommendation cache keys derived from
#: :func:`recommender_registry_fingerprint` stop matching old artifacts.
RECOMMENDER_REGISTRY_VERSION = 1

#: Selection used when a request names no ``--recommenders``: the
#: role-driven kinds ride along with the primary abstraction in the
#: recommendation doc (the human rendering is unaffected).
DEFAULT_SELECTION = "roles"


class Recommender:
    """One registered recommendation generator.

    Subclasses declare:

    - ``name`` — the registry key (also the ``kind`` of every
      recommendation the generator emits);
    - ``paper_name`` — the Table 1 row this recommender reproduces, or
      ``None`` for post-paper kinds (Table 1 is *regenerated* from these
      declarations — see :func:`table1_requirements`);
    - ``requirements`` — the :class:`~repro.abstractions.base.
      PsecRequirements` of the generator (which PSEC components it
      consumes);
    - ``role_driven`` — ``True`` for evidence-layer kinds that may
      decline to fire (``generate`` returns ``None`` when the ROI shows
      no matching roles).

    ``generate`` receives one ROI's :class:`~repro.recommend.evidence.
    Evidence` bundle and returns a :class:`~repro.abstractions.base.
    Recommendation` (or ``None``); ``payload`` returns the structured
    JSON view embedded next to the rendered text in the
    recommendation doc.
    """

    name: str = ""
    paper_name: Optional[str] = None
    requirements = None  # type: ignore[assignment]
    role_driven: bool = False

    def generate(self, evidence):
        raise NotImplementedError

    def payload(self, evidence, recommendation) -> Dict[str, object]:
        return {}


#: The recommenders module registers its kinds and aliases on import.
RECOMMENDERS = Registry("recommender", "recommenders", RecommendationError,
                        "repro.recommend.recommenders",
                        RECOMMENDER_REGISTRY_VERSION)

register_recommender = RECOMMENDERS.register
register_alias = RECOMMENDERS.register_alias
registered_recommender_names = RECOMMENDERS.names
registered_alias_names = RECOMMENDERS.alias_names
is_registered = RECOMMENDERS.is_registered
create_recommender = RECOMMENDERS.create
recommender_registry_fingerprint = RECOMMENDERS.fingerprint


def parse_selection(
    text: Union[str, Sequence[str], None],
) -> List[str]:
    """Parse a ``--recommenders`` selection into registered names:
    :meth:`~repro.registry.Registry.parse`, with ``None`` meaning
    :data:`DEFAULT_SELECTION` and duplicates collapsed to their first
    occurrence."""
    names = RECOMMENDERS.parse(DEFAULT_SELECTION if text is None else text)
    return list(dict.fromkeys(names))


def table1_requirements() -> Dict[str, "object"]:
    """Regenerate Table 1 from the per-recommender declarations.

    Maps each registered recommender's ``paper_name`` to its
    ``requirements`` — the dict the hardcoded
    ``ABSTRACTION_REQUIREMENTS`` used to spell out (and the Table 1
    regeneration test now derives from here).
    """
    return {
        cls.paper_name: cls.requirements
        for cls in RECOMMENDERS.classes() if cls.paper_name is not None
    }

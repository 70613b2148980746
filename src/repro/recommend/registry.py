"""Recommender registry and ``--recommenders`` selection parsing.

The recommendation analogue of :mod:`repro.passes.registry`: every
recommendation generator registers under a stable string name; the set
of *extra* recommenders to run per ROI is then described as
comma-separated text à la ``-passes=``:

    ``"reduction_hint,privatization_hint"``

Aliases expand to predefined groups (``paper``, ``roles``, ``all``) and
a leading ``-`` removes a recommender from the selection built so far —
``"all,-privatization_hint"`` runs everything but one kind.  Unknown
entries raise :class:`~repro.errors.RecommendationError` listing the
registered names, in both plain and negated spellings (the ``--passes``
negation-error contract, applied here).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Type, Union

from repro.errors import RecommendationError

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


_RECOMMENDERS: Dict[str, Type[Recommender]] = {}
_ALIASES: Dict[str, List[str]] = {}


def register_recommender(cls: Type[Recommender]) -> Type[Recommender]:
    """Class decorator adding a :class:`Recommender` to the registry."""
    name = cls.name
    if not name:
        raise ValueError(f"recommender {cls!r} needs a name attribute")
    if name in _RECOMMENDERS:
        raise ValueError(f"recommender {name!r} registered twice")
    _RECOMMENDERS[name] = cls
    return cls


def register_alias(alias: str, names: Sequence[str]) -> None:
    """Register ``alias`` to expand to the given recommender names."""
    _ALIASES[alias] = list(names)


def registered_recommender_names() -> List[str]:
    _ensure_registered()
    return sorted(_RECOMMENDERS)


def registered_alias_names() -> List[str]:
    _ensure_registered()
    return sorted(_ALIASES)


def is_registered(name: str) -> bool:
    _ensure_registered()
    return name in _RECOMMENDERS


def create_recommender(name: str) -> Recommender:
    """Instantiate a registered recommender by name."""
    _ensure_registered()
    cls = _RECOMMENDERS.get(name)
    if cls is None:
        raise RecommendationError(_unknown_message(name))
    return cls()


def _unknown_message(name: str) -> str:
    return (
        f"unknown recommender {name!r}; registered recommenders: "
        + ", ".join(registered_recommender_names())
        + "; aliases: " + ", ".join(registered_alias_names())
    )


def _unknown_negation_message(target: str, token: str) -> str:
    """Error message for ``-name`` with an unknown name."""
    return (
        f"unknown recommender {target!r} in negation {token!r} "
        f"(choose from registered recommenders "
        f"{registered_recommender_names()} "
        f"or aliases {registered_alias_names()})"
    )


def _ensure_registered() -> None:
    """The recommenders module registers its kinds at import time; make
    sure that happened before answering registry queries."""
    if not _RECOMMENDERS:
        import repro.recommend.recommenders  # noqa: F401  (registration)


def recommender_registry_fingerprint() -> str:
    """Digest of the registry's contents: registered recommender names,
    alias expansions, and :data:`RECOMMENDER_REGISTRY_VERSION`.

    Part of every ``recommend`` artifact key (:mod:`repro.session.keys`):
    registering, removing, or re-aliasing a recommender — or bumping the
    version for a behavioural change — invalidates cached recommendation
    docs without touching frontend, pipeline, or profile entries.
    """
    _ensure_registered()
    doc = {
        "version": RECOMMENDER_REGISTRY_VERSION,
        "recommenders": registered_recommender_names(),
        "aliases": {alias: _ALIASES[alias] for alias in sorted(_ALIASES)},
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def parse_selection(
    text: Union[str, Sequence[str], None],
) -> List[str]:
    """Parse a ``--recommenders`` selection into registered names.

    ``None`` means :data:`DEFAULT_SELECTION`.  ``text`` may already be a
    sequence of names (validated as-is).  In textual form, entries are
    comma-separated; an alias expands in place; ``-name`` removes every
    earlier occurrence of ``name`` (a registered recommender, or an
    alias — which removes every name in its expansion).  Unknown entries
    raise :class:`RecommendationError` listing the registered names.
    Duplicates collapse to their first occurrence.
    """
    _ensure_registered()
    if text is None:
        text = DEFAULT_SELECTION
    if isinstance(text, str):
        tokens = [t.strip() for t in text.split(",") if t.strip()]
    else:
        tokens = list(text)
    result: List[str] = []
    for token in tokens:
        if token.startswith("-"):
            target = token[1:]
            if target in _RECOMMENDERS:
                result = [n for n in result if n != target]
            elif target in _ALIASES:
                removed = set(_ALIASES[target])
                result = [n for n in result if n not in removed]
            else:
                raise RecommendationError(
                    _unknown_negation_message(target, token)
                )
        elif token in _ALIASES:
            result.extend(_ALIASES[token])
        elif token in _RECOMMENDERS:
            result.append(token)
        else:
            raise RecommendationError(_unknown_message(token))
    deduped: List[str] = []
    for name in result:
        if name not in deduped:
            deduped.append(name)
    return deduped


def table1_requirements() -> Dict[str, "object"]:
    """Regenerate Table 1 from the per-recommender declarations.

    Maps each registered recommender's ``paper_name`` to its
    ``requirements`` — the dict the hardcoded
    ``ABSTRACTION_REQUIREMENTS`` used to spell out (and the Table 1
    regeneration test now derives from here).
    """
    _ensure_registered()
    table = {}
    for name in registered_recommender_names():
        cls = _RECOMMENDERS[name]
        if cls.paper_name is not None:
            table[cls.paper_name] = cls.requirements
    return table

"""Pass registry and ``-passes=``-style pipeline descriptions.

Every transform/planning pass registers under a stable string name;
pipelines are then described as comma-separated text à la LLVM's
``-passes=``:

    ``"callgraph-o3,selective-mem2reg,instrument"``

Aliases expand to predefined sequences (``carmot``, ``naive``,
``baseline``),
and a leading ``-`` removes a pass from the pipeline built so far — the
Figure-8 toggles are spelled ``"carmot,-pin-reduction"``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Type, Union

from repro.errors import ReproError
from repro.passes.manager import Pass


class UnknownPassError(ReproError):
    pass


#: Version of the pass registry's *semantics*: bump when a registered
#: pass changes behaviour without changing its name, so pipeline cache
#: keys derived from :func:`registry_fingerprint` stop matching old
#: artifacts.  2: fixed-classification and aggregation skip PSEs an
#: earlier pass already claimed.
REGISTRY_VERSION = 2


_PASSES: Dict[str, Type[Pass]] = {}
_ALIASES: Dict[str, List[str]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator adding a :class:`Pass` subclass to the registry."""
    name = cls.name
    if not name or name == Pass.name:
        raise ValueError(f"pass {cls!r} needs a name attribute")
    if name in _PASSES:
        raise ValueError(f"pass {name!r} registered twice")
    _PASSES[name] = cls
    return cls


def register_alias(alias: str, names: Sequence[str]) -> None:
    """Register ``alias`` to expand to the given pass names."""
    _ALIASES[alias] = list(names)


def registered_pass_names() -> List[str]:
    _ensure_registered()
    return sorted(_PASSES)


def registered_alias_names() -> List[str]:
    _ensure_registered()
    return sorted(_ALIASES)


def is_registered(name: str) -> bool:
    _ensure_registered()
    return name in _PASSES


def create_pass(name: str) -> Pass:
    """Instantiate a registered pass by name."""
    _ensure_registered()
    cls = _PASSES.get(name)
    if cls is None:
        raise UnknownPassError(_unknown_message(name))
    return cls()


def _unknown_message(name: str) -> str:
    return (
        f"unknown pass {name!r}; registered passes: "
        + ", ".join(registered_pass_names())
        + "; aliases: " + ", ".join(registered_alias_names())
    )


def _unknown_negation_message(target: str, token: str) -> str:
    """Error message for ``-name`` with an unknown name."""
    return (
        f"unknown pass {target!r} in negation {token!r} "
        f"(choose from registered passes {registered_pass_names()} "
        f"or aliases {registered_alias_names()})"
    )


def _ensure_registered() -> None:
    """The compiler module registers its passes at import time; make sure
    that happened before answering registry queries."""
    if not _PASSES:
        import repro.compiler  # noqa: F401  (side effect: registration)


def registry_fingerprint() -> str:
    """Digest of the registry's contents: registered pass names, alias
    expansions, and :data:`REGISTRY_VERSION`.

    Part of every pass-pipeline cache key (:mod:`repro.session.keys`):
    registering, removing, or re-aliasing a pass — or bumping
    ``REGISTRY_VERSION`` for a behavioural change — invalidates cached
    pipeline artifacts without touching frontend or profile entries.
    """
    _ensure_registered()
    doc = {
        "version": REGISTRY_VERSION,
        "passes": registered_pass_names(),
        "aliases": {alias: _ALIASES[alias] for alias in sorted(_ALIASES)},
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def parse_pipeline(text: Union[str, Sequence[str]]) -> List[str]:
    """Parse a pipeline description into a list of registered pass names.

    ``text`` may already be a sequence of names (validated as-is).  In
    textual form, entries are comma-separated; an alias expands in place;
    ``-name`` removes every earlier occurrence of ``name`` (a registered
    pass, or an alias — which removes every pass in its expansion).
    Unknown entries raise :class:`UnknownPassError` listing the
    registered names.
    """
    _ensure_registered()
    if isinstance(text, str):
        tokens = [t.strip() for t in text.split(",") if t.strip()]
    else:
        tokens = list(text)
    result: List[str] = []
    for token in tokens:
        if token.startswith("-"):
            target = token[1:]
            if target in _PASSES:
                result = [n for n in result if n != target]
            elif target in _ALIASES:
                removed = set(_ALIASES[target])
                result = [n for n in result if n not in removed]
            else:
                raise UnknownPassError(
                    _unknown_negation_message(target, token)
                )
        elif token in _ALIASES:
            result.extend(_ALIASES[token])
        elif token in _PASSES:
            result.append(token)
        else:
            raise UnknownPassError(_unknown_message(token))
    return result

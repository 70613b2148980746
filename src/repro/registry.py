"""Name registries and their ``-passes=``-style selection text.

Passes (:mod:`repro.passes.registry`) and recommenders
(:mod:`repro.recommend.registry`) are each one :class:`Registry`:
classes register under a stable string name, aliases expand to
predefined sequences, and a selection is comma-separated text à la
LLVM's ``-passes=``:

    ``"carmot,-pin-reduction"``    ``"all,-privatization_hint"``

An alias expands in place; a leading ``-`` removes a name, or every
name of an alias, from the selection built so far.  Unknown entries,
plain or negated, raise the registry's error class listing the
registered names and aliases.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Dict, List, Sequence, Type, Union


class Registry:
    """Classes by name, plus aliases, plus the selection grammar.

    ``noun`` and ``plural`` name an entry and the list in error texts
    (``plural`` also keys the names in :meth:`fingerprint`); ``error``
    is the exception class of an unknown name; importing ``module``
    registers the entries, and happens before the first query;
    ``version`` is the registry's *semantics* version, folded into
    :meth:`fingerprint`.
    """

    def __init__(self, noun: str, plural: str, error: Type[Exception],
                 module: str, version: int) -> None:
        self.noun = noun
        self.plural = plural
        self.error = error
        self.module = module
        self.version = version
        self._classes: Dict[str, type] = {}
        self._aliases: Dict[str, List[str]] = {}

    def register(self, cls: type) -> type:
        """Class decorator adding ``cls`` under its own ``name``."""
        if "name" not in vars(cls):
            raise ValueError(f"{self.noun} {cls!r} needs a name attribute")
        if cls.name in self._classes:
            raise ValueError(f"{self.noun} {cls.name!r} registered twice")
        self._classes[cls.name] = cls
        return cls

    def register_alias(self, alias: str, names: Sequence[str]) -> None:
        """Register ``alias`` to expand to the given names."""
        self._aliases[alias] = list(names)

    def _ensure_registered(self) -> None:
        if not self._classes:
            importlib.import_module(self.module)

    def names(self) -> List[str]:
        self._ensure_registered()
        return sorted(self._classes)

    def alias_names(self) -> List[str]:
        self._ensure_registered()
        return sorted(self._aliases)

    def is_registered(self, name: str) -> bool:
        self._ensure_registered()
        return name in self._classes

    def classes(self) -> List[type]:
        """The registered classes, by name."""
        return [self._classes[name] for name in self.names()]

    def create(self, name: str):
        """Instantiate a registered class by name."""
        self._ensure_registered()
        cls = self._classes.get(name)
        if cls is None:
            raise self.error(self._unknown_message(name))
        return cls()

    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown {self.noun} {name!r}; registered {self.plural}: "
            + ", ".join(self.names())
            + "; aliases: " + ", ".join(self.alias_names())
        )

    def fingerprint(self) -> str:
        """Digest of the registry's contents: registered names, alias
        expansions, and ``version``.  Part of the cache key of every
        artifact the registered classes shape (:mod:`repro.session.keys`),
        so registering, removing or re-aliasing a name, or bumping the
        version for a behavioural change, invalidates those artifacts.
        """
        doc = {
            "version": self.version,
            self.plural: self.names(),
            "aliases": self._aliases,
        }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def parse(self, text: Union[str, Sequence[str]]) -> List[str]:
        """Parse a selection into a list of registered names.

        ``text`` is comma-separated text or a sequence of entries, each
        read the same way: an alias expands in place; ``-name`` removes
        every earlier occurrence of ``name``, and ``-alias`` of every
        name in the alias's expansion.  An unknown entry raises
        ``error`` listing the registered names.
        """
        self._ensure_registered()
        if isinstance(text, str):
            tokens = [t.strip() for t in text.split(",") if t.strip()]
        else:
            tokens = list(text)
        result: List[str] = []
        for token in tokens:
            if token.startswith("-"):
                target = token[1:]
                if target in self._classes:
                    removed = {target}
                elif target in self._aliases:
                    removed = set(self._aliases[target])
                else:
                    raise self.error(
                        f"unknown {self.noun} {target!r} in negation "
                        f"{token!r} (choose from registered {self.plural} "
                        f"{self.names()} or aliases {self.alias_names()})"
                    )
                result = [n for n in result if n not in removed]
            elif token in self._aliases:
                result.extend(self._aliases[token])
            elif token in self._classes:
                result.append(token)
            else:
                raise self.error(self._unknown_message(token))
        return result

"""Typed service requests: the transport-agnostic request surface.

Every profiling entry point — the CLI subcommands, the ``repro serve``
daemon, in-process embedding — speaks the same four request kinds plus
``dis``.  A request is a plain dataclass built around :class:`RunOptions`,
which absorbs the option-resolution logic the CLI used to duplicate
across ``_run_kwargs``/``_carmot_options``/``_profiling_pipeline``/
``_session_for``: translating the flat flag surface (budget spec,
pass pipeline) into the
``Session``/``CompiledProgram.run`` keyword arguments.

Requests round-trip through canonical JSON documents (``to_doc`` /
``parse_request_doc``) — that document is the daemon's wire format, so
a request built from argparse flags and one parsed off the socket are
indistinguishable by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

from repro.errors import ReproError
from repro.passes.registry import parse_pipeline
from repro.resilience import parse_budget_spec
from repro.runtime.config import POLICIES

#: Request kinds the service core executes (``stats``/``ping``/
#: ``shutdown`` are daemon control frames, not service requests).
REQUEST_KINDS = ("recommend", "psec", "overhead", "ir", "dis")

#: What a ``RunOptions`` field's declared base type accepts off the wire.
_OPTION_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                 "bool": (bool, "a boolean")}


@dataclass(frozen=True)
class RunOptions:
    """Everything that steers one profiled run, in CLI-flag shape.

    Values stay in their flat, JSON-able spelling (the ``--budget`` and
    ``--recommenders`` strings, not the parsed
    dataclasses/name lists); parsing happens on use so a request
    document validates identically whether it came from argparse or off
    the wire.
    """

    abstraction: Optional[str] = None
    recommenders: Optional[str] = None
    entry: str = "main"
    budget: Optional[str] = None
    passes: Optional[str] = None
    trace: bool = False
    no_cache: bool = False
    print_pass_stats: bool = False

    def __post_init__(self) -> None:
        for spec in fields(self):
            _check_option_type(spec.name, getattr(self, spec.name),
                               spec.type)
        if self.abstraction is not None and self.abstraction not in POLICIES:
            raise ReproError(
                f"abstraction must be one of {tuple(POLICIES)}, "
                f"got {self.abstraction!r}"
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_args(cls, args) -> "RunOptions":
        """RunOptions from an argparse namespace (missing attrs default)."""
        kwargs = {}
        for spec in fields(cls):
            value = getattr(args, spec.name, None)
            if value is not None:
                kwargs[spec.name] = value
        return cls(**kwargs)

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "RunOptions":
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ReproError(f"unknown run option(s): {', '.join(unknown)}")
        return cls(**doc)

    def to_doc(self) -> Dict[str, object]:
        """Canonical JSON view: defaults omitted, so two requests differ
        exactly when their effective options differ."""
        defaults = {spec.name: spec.default for spec in fields(self)}
        return {
            key: value for key, value in sorted(asdict(self).items())
            if value != defaults[key]
        }

    # -- resolution (the logic formerly inlined in cli.py) -------------------

    def run_kwargs(self) -> Dict[str, object]:
        """Translate the budget option into ``CompiledProgram.run()``
        keyword arguments."""
        kwargs: Dict[str, object] = {}
        if self.budget:
            spec = parse_budget_spec(self.budget)
            kwargs["budgets"] = spec.vm
            kwargs["resilience"] = spec.runtime
        return kwargs

    def profiling_pipeline(self) -> str:
        """The pipeline text for recommend/psec: full CARMOT by default,
        the explicit ``passes`` pipeline when given (must instrument)."""
        if self.passes:
            names = parse_pipeline(self.passes)
            if "instrument" not in names and "naive-instrument" not in names:
                raise ReproError(
                    f"pipeline {self.passes!r} has no instrumenter; append "
                    "'instrument' (or 'naive-instrument') to profile"
                )
            return self.passes
        return "carmot"

    @property
    def session_enabled(self) -> bool:
        """Whether the artifact cache may serve this request.

        ``no_cache`` runs everything live; so does ``print_pass_stats``,
        whose per-pass timing report only exists on a live compile, and
        ``trace``, whose execution trace only exists when the VM actually
        runs (a profile cache hit would skip it).
        """
        return not (self.no_cache or self.print_pass_stats or self.trace)


def _check_option_type(name: str, value: object, declared: str) -> None:
    """Reject a value that does not match its field's declared type
    (``str``, ``int`` or ``bool``, possibly ``Optional``).  ``bool`` is
    an ``int`` subclass, so an ``int`` field rejects it explicitly."""
    optional = declared.startswith("Optional[")
    if optional:
        if value is None:
            return
        declared = declared[len("Optional["):-1]
    expected, description = _OPTION_TYPES[declared]
    if isinstance(value, expected) and not (
        expected is int and isinstance(value, bool)
    ):
        return
    raise ReproError(
        f"run option {name!r} must be {description}"
        f"{' or null' if optional else ''}, got {value!r}"
    )


@dataclass(frozen=True)
class _BaseRequest:
    """Shared shape: MiniC source text plus run options.

    The source travels *inline* (never as a path): the daemon serves
    whatever bytes the client holds, so it needs no filesystem access to
    client machines and the cache keys on content as always.
    """

    source: str
    name: str = "program"
    options: RunOptions = field(default_factory=RunOptions)

    def to_doc(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "source": self.source,
            "name": self.name,
            "options": self.options.to_doc(),
        }


@dataclass(frozen=True)
class RecommendRequest(_BaseRequest):
    """Profile and recommend an abstraction per ROI."""

    kind = "recommend"


@dataclass(frozen=True)
class PsecRequest(_BaseRequest):
    """Profile and return the raw Sets of every ROI."""

    kind = "psec"


@dataclass(frozen=True)
class OverheadRequest(_BaseRequest):
    """Compare baseline/naive/CARMOT cost on the program."""

    kind = "overhead"


@dataclass(frozen=True)
class IrRequest(_BaseRequest):
    """Dump the (optionally instrumented) IR."""

    kind = "ir"
    #: ``plain`` (frontend only) | ``baseline`` | ``naive`` | ``carmot``;
    #: an explicit ``options.passes`` pipeline overrides the mode.
    mode: str = "plain"

    def to_doc(self) -> Dict[str, object]:
        return {**super().to_doc(), "mode": self.mode}


@dataclass(frozen=True)
class DisRequest(_BaseRequest):
    """Disassemble the lowered register bytecode."""

    kind = "dis"
    mode: str = "carmot"
    #: Run the program on the bytecode engine first and annotate the
    #: sites the interpreter quickened.
    quicken_report: bool = False

    def to_doc(self) -> Dict[str, object]:
        return {**super().to_doc(), "mode": self.mode,
                "quicken_report": self.quicken_report}


_REQUEST_TYPES = {
    "recommend": RecommendRequest,
    "psec": PsecRequest,
    "overhead": OverheadRequest,
    "ir": IrRequest,
    "dis": DisRequest,
}

_IR_MODES = ("plain", "baseline", "naive", "carmot")
_DIS_MODES = ("baseline", "naive", "carmot")


def parse_request_doc(doc: Dict[str, object]):
    """A request object from its wire document (strictly validated)."""
    if not isinstance(doc, dict):
        raise ReproError("request must be a JSON object")
    kind = doc.get("kind")
    if kind not in REQUEST_KINDS:  # a tuple: unhashable kinds compare too
        raise ReproError(
            f"unknown request kind {kind!r} "
            f"(choose from {', '.join(REQUEST_KINDS)})"
        )
    source = doc.get("source")
    if not isinstance(source, str):
        raise ReproError("request 'source' must be the MiniC source text")
    name = doc.get("name", "program")
    if not isinstance(name, str):
        raise ReproError("request 'name' must be a string")
    options_doc = doc.get("options", {})
    if not isinstance(options_doc, dict):
        raise ReproError("request 'options' must be an object")
    try:
        options = RunOptions.from_doc(options_doc)
    except TypeError as error:
        raise ReproError(f"bad run options: {error}") from None
    kwargs: Dict[str, object] = {
        "source": source, "name": name, "options": options,
    }
    if kind == "ir":
        mode = doc.get("mode", "plain")
        if mode not in _IR_MODES:
            raise ReproError(
                f"ir mode must be one of {_IR_MODES}, got {mode!r}"
            )
        kwargs["mode"] = mode
    if kind == "dis":
        mode = doc.get("mode", "carmot")
        if mode not in _DIS_MODES:
            raise ReproError(
                f"dis mode must be one of {_DIS_MODES}, got {mode!r}"
            )
        kwargs["mode"] = mode
        quicken_report = doc.get("quicken_report", False)
        if not isinstance(quicken_report, bool):
            raise ReproError(
                f"request 'quicken_report' must be a boolean, "
                f"got {quicken_report!r}"
            )
        kwargs["quicken_report"] = quicken_report
    return _REQUEST_TYPES[kind](**kwargs)

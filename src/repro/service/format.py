"""Render service response documents to the CLI's historical output.

The contract: every byte a ``repro`` subcommand prints is derived from a
:class:`~repro.service.core.ServiceCore` response document — the CLI and
a ``repro request`` client formatting a daemon response produce
identical output because they run identical code over identical
documents (the golden differential suite byte-diffs this).

Renderers are pure: document in, ``Rendered(out, err, exit_code)`` out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class RenderOptions:
    """Presentation-only flags (they never travel to the daemon)."""

    json: bool = False
    show_output: bool = False
    cache_stats: bool = False

    @classmethod
    def from_args(cls, args) -> "RenderOptions":
        return cls(
            json=bool(getattr(args, "json", False)),
            show_output=bool(getattr(args, "show_output", False)),
            cache_stats=bool(getattr(args, "cache_stats", False)),
        )


@dataclass(frozen=True)
class Rendered:
    """What a subcommand writes: stdout text, stderr text, exit code."""

    out: str = ""
    err: str = ""
    exit_code: int = 0


class _Lines:
    """print()-compatible accumulation so renderers read like the old
    CLI bodies they replaced."""

    def __init__(self) -> None:
        self.parts: List[str] = []

    def print(self, text: str = "") -> None:
        self.parts.append(f"{text}\n")

    def write(self, text: str) -> None:
        self.parts.append(text)

    def text(self) -> str:
        return "".join(self.parts)


def _meta_preamble(doc: Dict, render: RenderOptions) -> "_Lines":
    """Pass-stats blocks (stdout) every profiled command prints first."""
    out = _Lines()
    for block in doc.get("meta", {}).get("pass_stats", []) or []:
        out.write(block)
    return out


def _stderr_preamble(doc: Dict, render: RenderOptions,
                     degradation: bool = True) -> "_Lines":
    """Cache-stage summary then degradation warning, on stderr."""
    err = _Lines()
    stages = doc.get("meta", {}).get("stages")
    if render.cache_stats and stages:
        summary = " ".join(f"{k}={v}" for k, v in stages.items())
        err.print(f"cache: {summary}")
    body = doc.get("body") or {}
    if degradation and body.get("degraded"):
        err.print(f"degraded run — {body['degradation']}")
    return err


def render_error(doc: Dict) -> Rendered:
    """A failure envelope, in the CLI's historical error spelling."""
    error = doc.get("error") or {}
    message = error.get("message", "request failed")
    if error.get("type") == "overloaded":
        return Rendered(err=f"error: server overloaded — {message}\n",
                        exit_code=2)
    return Rendered(err=f"error: {message}\n", exit_code=1)


def render_response(doc: Dict, render: RenderOptions) -> Rendered:
    """Dispatch on the response kind (error envelopes included)."""
    if not doc.get("ok"):
        return render_error(doc)
    return {
        "recommend": render_recommend,
        "psec": render_psec,
        "overhead": render_overhead,
        "ir": render_ir,
        "dis": render_dis,
    }[doc["kind"]](doc, render)


# -- recommend ---------------------------------------------------------------


def render_recommend(doc: Dict, render: RenderOptions) -> Rendered:
    if render.json:
        return _render_json_doc(doc)
    body = doc["body"]
    out = _meta_preamble(doc, render)
    err = _stderr_preamble(doc, render)
    if render.show_output:
        out.print("program output: " + " ".join(body["output"]))
    if not body["rois"]:
        err.print("no #pragma carmot roi annotations found")
        return Rendered(out=out.text(), err=err.text(), exit_code=1)
    for roi in body["rois"]:
        if roi["abstraction"] is None:
            out.print(
                f"ROI {roi['name']}: no abstraction requested; skipping"
            )
            continue
        out.print(roi["rendered"])
        out.print()
    return Rendered(out=out.text(), err=err.text())


# -- psec --------------------------------------------------------------------


def render_psec(doc: Dict, render: RenderOptions) -> Rendered:
    body = doc["body"]
    out = _meta_preamble(doc, render)
    err = _stderr_preamble(doc, render)
    if render.json:
        # Canonical sets-level document: exactly the psec_sets_digest
        # material plus ROI names/invocations, so two invocations with
        # identical Sets print byte-identical JSON (a Figure-8 pass
        # toggle, for one, must not change it).
        json_doc = {
            "sets_digest": body["sets_digest"],
            "rois": {
                str(roi["id"]): {
                    "name": roi["name"],
                    "invocations": roi["invocations"],
                    "sets": roi["sets_keys"],
                }
                for roi in body["rois"]
            },
        }
        out.print(json.dumps(json_doc, indent=2, sort_keys=True))
        return Rendered(out=out.text(), err=err.text())
    for roi in body["rois"]:
        status = " [degraded: " + ", ".join(roi["degradation_reasons"]) \
            + "]" if roi["degraded"] else ""
        out.print(f"ROI {roi['name']} ({roi['loc']}) — "
                  f"{roi['invocations']} invocations{status}")
        for set_name, names in roi["sets"].items():
            out.print(f"  {set_name:9s}: {', '.join(names) or '-'}")
        reach = roi["reachability"]
        if reach:
            out.print(f"  reachability: {reach['nodes']} nodes, "
                      f"{reach['edges']} edges, "
                      f"{reach['cycles']} cycle(s)")
        out.print()
    return Rendered(out=out.text(), err=err.text())


# -- overhead ----------------------------------------------------------------


def render_overhead(doc: Dict, render: RenderOptions) -> Rendered:
    if render.json:
        return _render_json_doc(doc)
    body = doc["body"]
    out = _meta_preamble(doc, render)
    base = body["baseline_cost"]
    naive = body["naive_cost"]
    carmot = body["carmot_cost"]
    out.print(f"baseline cost : {base}")
    out.print(f"naive         : {naive}  ({naive / base:.1f}x)")
    out.print(f"carmot        : {carmot}  ({carmot / base:.1f}x)")
    out.print(f"gap           : {naive / carmot:.1f}x")
    return Rendered(out=out.text())


# -- ir ----------------------------------------------------------------------


def render_ir(doc: Dict, render: RenderOptions) -> Rendered:
    body = doc["body"]
    out = _meta_preamble(doc, render)
    err = _Lines()
    stages = doc.get("meta", {}).get("stages")
    if body["pipeline"] is not None and render.cache_stats and stages:
        summary = " ".join(f"{k}={v}" for k, v in stages.items())
        err.print(f"cache: {summary}")
    out.print(body["ir"])
    return Rendered(out=out.text(), err=err.text())


# -- dis ---------------------------------------------------------------------


def render_dis(doc: Dict, render: RenderOptions) -> Rendered:
    body = doc["body"]
    out = _meta_preamble(doc, render)
    err = _stderr_preamble(doc, render, degradation=False)
    out.print(body["listing"])
    return Rendered(out=out.text(), err=err.text())


# -- shared ------------------------------------------------------------------


def _render_json_doc(doc: Dict) -> Rendered:
    """``--json``: the structured service response document itself."""
    out = _Lines()
    out.print(json.dumps(doc, indent=2, sort_keys=True))
    return Rendered(out=out.text())

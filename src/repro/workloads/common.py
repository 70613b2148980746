"""Workload infrastructure.

Each workload is a MiniC port of one benchmark from the paper's suites
(PARSEC 3.0, NAS, SPEC CPU 2017) shaped to reproduce that benchmark's role
in the evaluation: the access patterns that drive its PSEC, its original
parallel annotations (OpenMP pragmas, or ``parallel sections`` standing in
for pthreads), and its input scaling ("test"/"class A"/"simsmall" vs
"reference"/"class C"/"native" per §5).

A workload builds different source variants per use case:

- ``openmp`` — hot loops carry both the original OpenMP pragma and a
  ``carmot roi abstraction(parallel_for)`` (the §5.1 methodology: ROIs are
  the code regions of the already-present pragmas);
- ``cycles`` — the whole ``main`` body is one
  ``carmot roi abstraction(smart_pointers)`` (the §5.2 methodology);
- ``stats`` — the state-dependence region carries
  ``carmot roi abstraction(stats)`` (the §5.3 methodology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import WorkloadError

USE_CASES = ("openmp", "cycles", "stats")


@dataclass(frozen=True)
class Workload:
    """One benchmark port."""

    name: str
    suite: str  # "PARSEC" | "NAS" | "SPEC"
    description: str
    builder: Callable[[Dict[str, int], str], str]
    test_params: Dict[str, int]
    ref_params: Dict[str, int]
    #: "omp" = original parallelism is OpenMP pragmas; "sections" = the
    #: original is pthreads/sections-style (canneal, swaptions) or uses
    #: barrier/master synchronization CARMOT cannot express (ep, nab).
    original_kind: str = "omp"
    #: True for ep/nab: part of the original parallelism uses abstractions
    #: CARMOT does not support, so generated pragmas cover less (§5.1).
    unsupported_original: bool = False
    #: Included in the Figure 6 speedup comparison.
    in_figure6: bool = True

    def source(self, params: Optional[Dict[str, int]] = None,
               use_case: str = "openmp") -> str:
        if use_case not in USE_CASES:
            raise WorkloadError(f"unknown use case {use_case!r}")
        return self.builder(dict(params or self.test_params), use_case)

    def test_source(self, use_case: str = "openmp") -> str:
        return self.source(self.test_params, use_case)

    def ref_source(self, use_case: str = "openmp") -> str:
        return self.source(self.ref_params, use_case)


def sub(template: str, **values) -> str:
    """Token substitution: ``@NAME@`` -> value.  (MiniC braces make
    ``str.format`` unusable.)"""
    out = template
    for key, value in values.items():
        out = out.replace(f"@{key.upper()}@", str(value))
    if "@" in out:
        leftover = out[out.index("@"):][:40]
        raise WorkloadError(f"unsubstituted template token near {leftover!r}")
    return out


def loop_pragmas(use_case: str, omp: str,
                 abstraction: str = "parallel_for",
                 roi_name: str = "") -> str:
    """Pragma lines to place on a hot loop for the given use case."""
    name_clause = f" name({roi_name})" if roi_name else ""
    if use_case == "openmp":
        lines = []
        if omp:
            lines.append(f"#pragma omp {omp}")
        lines.append(f"#pragma carmot roi abstraction({abstraction})"
                     f"{name_clause}")
        return "\n  ".join(lines)
    if use_case == "stats":
        return f"#pragma carmot roi abstraction(stats){name_clause}"
    return ""  # cycles: only the whole-main ROI profiles


def main_wrapper(body: str, use_case: str) -> str:
    """Wrap a main body; the cycles use case makes it one big ROI (§5.2)."""
    if use_case == "cycles":
        return (
            "int main() {\n"
            "  #pragma carmot roi abstraction(smart_pointers)"
            " name(whole_program)\n"
            "  {\n" + body + "\n  }\n"
            "  return 0;\n"
            "}\n"
        )
    return "int main() {\n" + body + "\n  return 0;\n}\n"


def sections_block(worker_calls: List[str]) -> str:
    """An ``omp parallel sections`` block invoking one worker per section —
    the stand-in for pthreads-style original parallelism."""
    parts = ["  #pragma omp parallel sections", "  {"]
    for call in worker_calls:
        parts.append("    #pragma omp section")
        parts.append("    { " + call + " }")
    parts.append("  }")
    return "\n".join(parts)

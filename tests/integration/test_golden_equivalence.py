"""Golden equivalence: the pass-manager pipeline reproduces the legacy
compiler byte-for-byte.

The files under ``tests/golden/`` were captured from the pre-pass-manager
compiler (one monolithic CARMOT function).  Three checks per example
program:

1. the instrumented CARMOT IR dump matches the golden dump exactly;
2. the legacy entry point (``compile_carmot``) and the named-pipeline
   path (``compile_pipeline(source, "carmot")``) emit identical IR;
3. the profiled PSEC output (text and JSON serializations) matches the
   golden captures exactly.
"""

import json
from pathlib import Path

import pytest

from repro.abstractions import describe_pse
from repro.cli import main
from repro.compiler import compile_carmot, compile_pipeline

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "tests" / "golden"
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]


def _example_path(name: str) -> str:
    # Golden files embed source locations relative to the repo root.
    return f"examples/{name}.mc"


def _source(name: str) -> str:
    return (REPO / _example_path(name)).read_text()


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


@pytest.mark.parametrize("name", EXAMPLES)
def test_instrumented_ir_matches_golden(name):
    program = compile_carmot(_source(name), name=_example_path(name))
    golden = (GOLDEN / f"{name}.carmot.ir").read_text()
    assert str(program.module) + "\n" == golden


@pytest.mark.parametrize("name", EXAMPLES)
def test_named_pipeline_matches_legacy_entry_point(name):
    source = _source(name)
    legacy = compile_carmot(source, name=_example_path(name))
    pipeline = compile_pipeline(source, "carmot", name=_example_path(name))
    assert str(pipeline.module) == str(legacy.module)
    assert pipeline.mode is legacy.mode
    assert pipeline.report.access_probes == legacy.report.access_probes
    assert pipeline.report.pin_gates == legacy.report.pin_gates


@pytest.mark.parametrize("name", EXAMPLES)
def test_psec_text_matches_golden(name, capsys):
    assert main(["psec", _example_path(name)]) == 0
    golden = (GOLDEN / f"{name}.psec.txt").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", EXAMPLES)
def test_recommend_text_matches_golden(name, capsys):
    """The registry-driven recommendation stack renders the same bytes
    the pre-registry generators did (captured before the refactor)."""
    assert main(["recommend", _example_path(name)]) == 0
    golden = (GOLDEN / f"{name}.recommend.txt").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", EXAMPLES)
def test_recommend_json_carries_role_evidence(name, capsys):
    """The versioned document adds role/container evidence and the
    role-driven hint recommendations on top of the unchanged rendering."""
    assert main(["recommend", _example_path(name), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    body = doc["body"]
    assert body["recommend_schema"] >= 1
    kinds = {rec["kind"]
             for roi in body["rois"] for rec in roi["recommendations"]}
    assert "privatization_hint" in kinds
    assert any(roi["roles"] for roi in body["rois"])


@pytest.mark.parametrize("name", EXAMPLES)
def test_psec_json_matches_golden(name):
    program = compile_carmot(_source(name), name=_example_path(name))
    _, runtime = program.run()
    out = {}
    for roi_id, psec in sorted(runtime.psecs.items()):
        roi = program.module.rois[roi_id]
        out[roi.name] = {
            "invocations": psec.invocations,
            "sets": {
                set_name: sorted(str(describe_pse(k, psec, runtime.asmt))
                                 for k in keys)
                for set_name, keys in psec.sets().items()
            },
        }
    rendered = json.dumps(out, indent=2, sort_keys=True) + "\n"
    golden = (GOLDEN / f"{name}.psec.json").read_text()
    assert rendered == golden

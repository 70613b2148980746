"""Differential testing: hybrid static+dynamic PSEC against fully-dynamic.

The prescreen contract (DESIGN.md §13) promises that a build with
``--prescreen safe|aggressive`` produces **identical Sets** to the
fully-dynamic build — the static verdicts are only admissible because
they are indistinguishable from profiling.  This suite holds the hybrid
build to that promise across the golden examples, seeded random ROI
programs, both execution engines (the tests-side tree-walk oracle and
the bytecode VM), the tests-side decoder oracle, and
fault plans whose retries force exact replay.
"""

import tempfile
from pathlib import Path

import pytest

from repro.compiler import CarmotOptions, compile_carmot
from repro.runtime.psec_json import psec_sets_digest
from repro.session import Session
from repro.workloads.fuzz import random_roi_program
from tests.helpers.decoder import decoder_fold
from tests.helpers.treewalk import ENGINES, engine

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]
MODES = ["safe", "aggressive"]


def _example_source(name: str) -> str:
    return (REPO / "examples" / f"{name}.mc").read_text()


def _profile(source: str, name: str, mode: str = "off",
             vm: str = "bytecode", **run_kwargs):
    options = CarmotOptions() if mode == "off" \
        else CarmotOptions(prescreen=mode)
    program = compile_carmot(source, name=name, options=options)
    with engine(vm):
        result, runtime = program.run(**run_kwargs)
    return program, result, runtime


def _state(result, runtime):
    # Instruction/cost totals legitimately differ (stripped probes are
    # instructions the hybrid build never executes); the contract is the
    # program result and the Sets.
    return (result.output, result.access_counts,
            psec_sets_digest(runtime.psecs))


# -- golden examples, both engines --------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("vm", ENGINES)
def test_golden_examples_sets_identical(name, mode, vm):
    source = _example_source(name)
    _, off_res, off_rt = _profile(source, name, vm=vm)
    _, hyb_res, hyb_rt = _profile(source, name, mode, vm=vm)
    assert _state(off_res, off_rt) == _state(hyb_res, hyb_rt)


@pytest.mark.parametrize("mode", MODES)
def test_golden_prescreen_actually_strips(mode):
    """Non-vacuity: on the loop kernels the prescreen must prove facts
    and eliminate access events, not trivially agree by doing nothing."""
    for name in ("roi_loop", "stencil_calls"):
        source = _example_source(name)
        program, _, off_rt = _profile(source, name)
        hybrid, _, hyb_rt = _profile(source, name, mode)
        facts = hybrid.module.static_facts
        assert facts is not None and len(facts) > 0
        assert hybrid.report.static_suppressed_probes > 0
        assert hyb_rt.stats.access_events < off_rt.stats.access_events
        assert hyb_rt.stats.static_probe_events > 0


# -- seeded random ROI programs -----------------------------------------------


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mode", MODES)
def test_random_roi_programs_sets_identical(seed, mode):
    source = random_roi_program(seed)
    name = f"rand_roi{seed}"
    _, off_res, off_rt = _profile(source, name)
    _, hyb_res, hyb_rt = _profile(source, name, mode)
    assert _state(off_res, off_rt) == _state(hyb_res, hyb_rt)


@pytest.mark.parametrize("seed", range(4))
def test_random_roi_programs_across_engines(seed):
    """The hybrid build itself must stay engine-independent: probe.static
    dispatch and note resolution agree between tree-walk and bytecode."""
    source = random_roi_program(50 + seed)
    states = {}
    for vm in ENGINES:
        _, res, rt = _profile(source, f"rand_roi{seed}", "aggressive",
                              vm=vm)
        states[vm] = _state(res, rt)
    assert states["treewalk"] == states["bytecode"]


# -- small batches ------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_small_batch_runs_sets_identical(mode):
    """Stripping probes changes where sixteen-event batches are cut, but
    not the Sets: hybrid and fully-dynamic stay byte-identical."""
    source = _example_source("roi_loop")
    _, off_res, off_rt = _profile(source, "roi_loop", batch_size=16)
    _, hyb_res, hyb_rt = _profile(source, "roi_loop", mode, batch_size=16)
    assert _state(off_res, off_rt) == _state(hyb_res, hyb_rt)


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("mode", MODES)
def test_hybrid_matches_decoder_oracle(name, mode):
    """The fully-dynamic build folded by the decoder oracle and the
    hybrid build folded by the kernel agree, batch by batch."""
    source = _example_source(name)
    with decoder_fold():
        _, off_res, off_rt = _profile(source, name, batch_size=16)
    _, hyb_res, hyb_rt = _profile(source, name, mode, batch_size=16)
    assert _state(off_res, off_rt) == _state(hyb_res, hyb_rt)


# -- session cache ------------------------------------------------------------


def test_static_facts_artifact_round_trip():
    """Warm sessions load the static-facts sidecar from the store; the
    warm profile is byte-identical to the cold one and the prescreen
    stage reports a hit."""
    source = _example_source("roi_loop")
    options = CarmotOptions(prescreen="aggressive")
    with tempfile.TemporaryDirectory(prefix="repro-prescreen-") as cache:
        session = Session(cache_dir=cache)
        cold = session.profile(source, options=options, name="roi_loop")
        warm = session.profile(source, options=options, name="roi_loop")
    assert cold.stages["prescreen"] == "miss"
    assert warm.stages["prescreen"] == "hit"
    assert warm.stages["profile"] == "hit"
    assert cold.payload == warm.payload


def test_missing_sidecar_demotes_pipeline_to_miss():
    """Evicting the prescreen artifact must force a pipeline recompute,
    never serve a probe.static module without its facts."""
    import json

    source = _example_source("roi_loop")
    options = CarmotOptions(prescreen="safe")
    with tempfile.TemporaryDirectory(prefix="repro-prescreen-") as cache:
        session = Session(cache_dir=cache)
        session.compile(source, options=options, name="roi_loop")
        removed = 0
        for path in Path(cache, "objects").rglob("*.json"):
            if json.loads(path.read_text()).get("kind") == "prescreen":
                path.unlink()
                removed += 1
        assert removed == 1
        again = session.compile(source, options=options, name="roi_loop")
        assert again.stages["pipeline"] == "miss"
        assert again.stages["prescreen"] == "miss"
        facts = again.program.module.static_facts
        assert facts is not None and len(facts) > 0

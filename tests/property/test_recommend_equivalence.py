"""Differential testing of the recommendation document.

A warm (cache-served) RecommendationDoc must be byte-identical to the
cold one that populated the store — across both runtime folds (the
decoder oracle and the kernel), both execution engines, and through the service core — and a live
(cache-disabled) doc must match both.  Selection and registry state fold
into the cache key, so distinct selections never alias.
"""

import json
from pathlib import Path

import pytest

from repro.service import RecommendRequest, RunOptions, ServiceCore
from repro.service.core import response_digest
from repro.session import Session
from tests.helpers.decoder import FOLDS, fold
from repro.workloads.fuzz import (
    random_pointer_chase_program,
    random_roi_program,
)

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]


def _example_source(name: str) -> str:
    return (REPO / "examples" / f"{name}.mc").read_text()


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _doc(session, source, name, recommenders=None, **kwargs):
    profiled = session.profile(source, "carmot", name=name, **kwargs)
    doc, stage = session.recommend_doc(profiled, recommenders=recommenders)
    return doc, stage


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("fold_name", FOLDS)
@pytest.mark.parametrize("vm", ["ir", "bytecode"])
def test_warm_doc_byte_identical_to_cold(tmp_path, name, fold_name, vm):
    source = _example_source(name)
    session = Session(cache_dir=str(tmp_path / "store"))
    with fold(fold_name):
        cold, cold_stage = _doc(session, source, name, vm=vm)
        warm, warm_stage = _doc(session, source, name, vm=vm)
        live, live_stage = _doc(Session(enabled=False), source, name,
                                vm=vm)
    assert (cold_stage, warm_stage, live_stage) == ("miss", "hit", "miss")
    assert _canon(cold) == _canon(warm) == _canon(live)


@pytest.mark.parametrize("name", ["roi_loop"])
def test_docs_agree_across_engines_and_encodings(tmp_path, name):
    """Four cold paths — {ir, bytecode} x {decoder oracle, kernel} —
    produce the same document bytes: the doc depends on the Sets, not on
    how the runtime observed or folded them."""
    source = _example_source(name)
    docs = set()
    for vm in ("ir", "bytecode"):
        for fold_name in FOLDS:
            session = Session(
                cache_dir=str(tmp_path / f"{vm}-{fold_name}"))
            with fold(fold_name):
                doc, _ = _doc(session, source, name, vm=vm)
            docs.add(_canon(doc))
    assert len(docs) == 1


@pytest.mark.parametrize("seed", range(4))
def test_random_roi_programs_warm_equals_cold(tmp_path, seed):
    source = random_roi_program(seed)
    session = Session(cache_dir=str(tmp_path / "store"))
    cold, _ = _doc(session, source, f"rand{seed}")
    warm, stage = _doc(session, source, f"rand{seed}")
    assert stage == "hit"
    assert _canon(cold) == _canon(warm)


@pytest.mark.parametrize("seed", range(3))
def test_pointer_chase_docs_report_carried_dependence(tmp_path, seed):
    """The pointer-chase family's chased container must surface as a
    carried dependence in the role evidence, identically warm and cold."""
    source = random_pointer_chase_program(seed)
    session = Session(cache_dir=str(tmp_path / "store"))
    cold, _ = _doc(session, source, f"chase{seed}")
    warm, stage = _doc(session, source, f"chase{seed}")
    assert stage == "hit"
    assert _canon(cold) == _canon(warm)
    verdicts = {c["verdict"]
                for roi in cold["rois"] for c in roi["containers"]}
    assert "carried-dependence" in verdicts


def test_selection_changes_the_cache_key_not_the_primary(tmp_path):
    source = _example_source("roi_loop")
    session = Session(cache_dir=str(tmp_path / "store"))
    default, _ = _doc(session, source, "roi_loop")
    paper, stage = _doc(session, source, "roi_loop", recommenders="paper")
    assert stage == "miss"  # different selection, different key
    assert default["recommenders"] != paper["recommenders"]
    assert default["rois"][0]["rendered"] == paper["rois"][0]["rendered"]


@pytest.mark.parametrize("name", ["roi_loop", "anneal_stats"])
def test_service_responses_digest_identical_warm_and_cold(tmp_path, name):
    """Through the service core: a cache-served recommend response hashes
    identically to the live one (the body digest ignores meta/stages)."""
    source = _example_source(name)
    core = ServiceCore(cache_dir=str(tmp_path / "store"))
    request = RecommendRequest(source=source, name=name)
    cold = core.execute(request)
    warm = core.execute(request)
    live = core.execute(RecommendRequest(
        source=source, name=name, options=RunOptions(no_cache=True)))
    assert cold["meta"]["stages"]["recommend"] == "miss"
    assert warm["meta"]["stages"] == {"response": "hit"}
    # Without the response artifact the recommend artifact still hits.
    for path in (tmp_path / "store").rglob("*.json"):
        if json.loads(path.read_text())["kind"] == "response":
            path.unlink()
    staged = core.execute(request)
    assert staged["meta"]["stages"]["recommend"] == "hit"
    assert staged["meta"]["stages"]["response"] == "miss"
    digests = {response_digest(doc) for doc in (cold, warm, live)}
    assert len(digests) == 1

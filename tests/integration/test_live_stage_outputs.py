"""A stage miss hands its live result downstream, not a decoded copy.

On a miss the ``frontend``, ``pipeline`` and ``codegen`` stages store the
serialized form of what they built and pass the live object on; only a
hit decodes.  Cold and warm runs therefore no longer share objects by
construction, so this suite pins the contract they used to get for free:
a request resumed from any stage's *decoded* artifact stores the same
downstream artifacts, byte for byte, and answers with the same response
digest as the all-live cold request — and the cold request decodes
nothing.
"""

import pytest

from repro.service.core import ServiceCore, response_digest
from repro.service.requests import (
    DisRequest,
    IrRequest,
    PsecRequest,
    RecommendRequest,
    RunOptions,
)
from repro.session import ArtifactStore, keys
from repro.session import session as session_module
from repro.workloads import ALL_WORKLOADS
from repro.workloads.fuzz import (
    random_pointer_chase_program,
    random_program,
    random_roi_program,
)
from tests.helpers.store_entries import read_entry

PROGRAMS = {w.name: w.test_source() for w in ALL_WORKLOADS}
for _generator in (random_program, random_roi_program,
                   random_pointer_chase_program):
    PROGRAMS[_generator.__name__] = _generator(3)

#: Run configurations production serves: the default CARMOT build, a
#: profile degraded by the per-ROI event budget (64 events trip it in
#: nearly every ROI here), a Figure-8 toggle pipeline, and the naive
#: build.
CONFIGS = {
    "default": RunOptions(),
    "event-budget": RunOptions(budget="events-per-roi=64"),
    "no-pin-reduction": RunOptions(passes="carmot,-pin-reduction"),
    "naive": RunOptions(passes="naive"),
}

#: Resume point → the kinds of cold-run entries it keeps (the frontend
#: entry is always kept).  Each resume decodes the named stage's
#: artifact and recomputes every stage after it.
RESUME_KINDS = {
    "frontend": (),
    "pipeline": ("ir",),
    "codegen": ("ir", "bytecode"),
}


def _entries(cache_dir):
    """key → (kind, payload) of every entry in the root partition."""
    entries = {}
    for path in (cache_dir / "objects").rglob("*.json"):
        header, payload = read_entry(path)
        entries[header["key"]] = (header["kind"], payload.decode("utf-8"))
    return entries


def _resumed_store(cold, cache_dir, frontend_key, resume):
    store = ArtifactStore(cache_dir)
    for key, (kind, payload) in cold.items():
        if key == frontend_key or kind in RESUME_KINDS[resume]:
            store.put(key, payload, kind)


def _count_decodes(monkeypatch):
    """Wrap every decoder the session calls; returns the call log."""
    calls = []

    def counting(name, decode):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return decode(*args, **kwargs)
        return wrapper

    for name in ("deserialize_module", "deserialize_bytecode",
                 "deserialize_profile"):
        monkeypatch.setattr(session_module, name,
                            counting(name, getattr(session_module, name)))
    return calls


def _check_resumes(tmp_path, monkeypatch, request, resumes):
    cold_dir = tmp_path / "cold"
    calls = _count_decodes(monkeypatch)
    cold = ServiceCore(cache_dir=str(cold_dir)).execute(request)
    monkeypatch.undo()
    assert cold["ok"]
    assert calls == [], f"a cold request decoded {calls}"
    cold_entries = _entries(cold_dir)
    frontend_key = keys.frontend_key(request.source, request.name)
    for resume in resumes:
        cache_dir = tmp_path / resume
        _resumed_store(cold_entries, cache_dir, frontend_key, resume)
        calls = _count_decodes(monkeypatch)
        resumed = ServiceCore(cache_dir=str(cache_dir)).execute(request)
        monkeypatch.undo()
        assert calls, f"resuming from {resume} decoded nothing"
        # A frontend-only `ir` request reports no stages.
        stages = resumed["meta"].get("stages", {resume: "hit"})
        assert stages[resume] == "hit", (resume, stages)
        assert response_digest(resumed) == response_digest(cold), resume
        assert _entries(cache_dir) == cold_entries, resume


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_psec_from_decoded_artifacts_matches_live(tmp_path, monkeypatch,
                                                  program, config):
    """Pipeline IR, bytecode, profile and response agree whichever
    stage's artifact the request resumes from."""
    request = PsecRequest(source=PROGRAMS[program], name=program,
                          options=CONFIGS[config])
    _check_resumes(tmp_path, monkeypatch, request, ("codegen",))
    # The compile-only resumes are covered by `dis`, which runs every
    # stage up to codegen and nothing after it.
    dis = DisRequest(source=PROGRAMS[program], name=program,
                     options=CONFIGS[config])
    _check_resumes(tmp_path / "dis", monkeypatch, dis,
                   ("frontend", "pipeline", "codegen"))


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_recommend_from_decoded_artifacts_matches_live(tmp_path, monkeypatch,
                                                       program):
    request = RecommendRequest(source=PROGRAMS[program], name=program)
    _check_resumes(tmp_path, monkeypatch, request, ("codegen",))


@pytest.mark.parametrize("mode", ["plain", "carmot"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_ir_listing_from_decoded_artifacts_matches_live(tmp_path,
                                                        monkeypatch,
                                                        program, mode):
    request = IrRequest(source=PROGRAMS[program], name=program, mode=mode)
    resumes = ("frontend",) if mode == "plain" else ("frontend", "pipeline")
    _check_resumes(tmp_path, monkeypatch, request, resumes)

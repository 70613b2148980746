"""Unit tests for the session layer: store, cache keys, staged reuse."""

import json

import pytest

from repro.errors import ReproError
from repro.resilience.budgets import ExecutionBudgets, ResiliencePolicy
from repro.session import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ArtifactStore,
    Session,
    frontend_key,
    pipeline_key,
    profile_key,
    resolve_cache_dir,
)
from repro.session import keys

SOURCE = """
int main() {
  int i, acc;
  acc = 0;
  #pragma carmot roi abstraction(parallel_for)
  for (i = 0; i < 8; ++i) { acc = acc + i; }
  print_int(acc);
  return 0;
}
"""

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


# -- cache-dir resolution ----------------------------------------------------

class TestResolveCacheDir:
    def test_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "arg")) == tmp_path / "arg"

    def test_environment_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(resolve_cache_dir(None)) == DEFAULT_CACHE_DIR


# -- artifact store ----------------------------------------------------------

def _flip_to_0xff(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] = 0xFF
    path.write_bytes(bytes(raw))


def _write_lone_surrogate(path):
    """An escaped ``\\ud800`` payload: valid JSON, but no UTF-8 form to
    hash."""
    doc = json.loads(path.read_text())
    doc["payload"] = "bad \ud800 payload"
    path.write_text(json.dumps(doc))
    assert "\\ud800" in path.read_text()


@pytest.fixture(params=[_flip_to_0xff, _write_lone_surrogate],
                ids=["byte_0xff", "lone_surrogate"])
def corrupt(request):
    """Two ways an entry stops being UTF-8: a raw byte that does not
    decode, and an escaped surrogate that does not encode."""
    return request.param


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "payload text", "ir")
        assert store.get(KEY_A) == "payload text"

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(KEY_A) is None
        assert store.stats().misses == 1

    def test_truncated_entry_is_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "payload", "ir")
        path = store._entry_path(KEY_A)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(KEY_A) is None
        assert not path.exists()
        assert store.stats().evicted_corrupt == 1

    def test_tampered_payload_is_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "payload", "ir")
        path = store._entry_path(KEY_A)
        doc = json.loads(path.read_text())
        doc["payload"] = "tampered"
        path.write_text(json.dumps(doc))
        assert store.get(KEY_A) is None
        assert not path.exists()

    def test_foreign_store_version_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "payload", "ir")
        path = store._entry_path(KEY_A)
        doc = json.loads(path.read_text())
        doc["store_version"] = 999
        path.write_text(json.dumps(doc))
        assert store.get(KEY_A) is None

    def test_non_utf8_entry_is_evicted_on_get(self, tmp_path, corrupt):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "payload", "ir")
        path = store._entry_path(KEY_A)
        corrupt(path)
        assert store.get(KEY_A) is None
        assert not path.exists()
        stats = store.stats()
        assert (stats.misses, stats.evicted_corrupt) == (1, 1)

    def test_non_utf8_entry_is_evicted_by_verify(self, tmp_path, corrupt):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "good", "ir")
        store.put(KEY_B, "bad", "profile")
        corrupt(store._entry_path(KEY_B))
        report = store.verify()
        assert (report["checked"], report["ok"], report["evicted"]) \
            == (2, 1, 1)
        assert not store._entry_path(KEY_B).exists()
        assert store.verify()["evicted"] == 0
        assert store.get(KEY_A) == "good"

    def test_verify_reports_and_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "good", "ir")
        store.put(KEY_B, "bad", "profile")
        store._entry_path(KEY_B).write_text("{not json")
        assert store.verify() == {
            "checked": 2, "ok": 1, "evicted": 1,
            "by_namespace": {"default": {"checked": 2, "ok": 1,
                                         "evicted": 1}},
        }
        assert store.get(KEY_A) == "good"

    def test_clear_removes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "one", "ir")
        store.put(KEY_B, "two", "profile")
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_stats_counts_kinds_and_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY_A, "abcd", "ir")
        store.put(KEY_B, "efghij", "profile")
        stats = store.stats()
        assert stats.entries == 2
        assert stats.payload_bytes == 10
        assert stats.by_kind == {"ir": 1, "profile": 1}

    def test_put_into_unwritable_root_is_a_noop(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store root should be")
        store = ArtifactStore(blocker)
        store.put(KEY_A, "payload", "ir")  # must not raise
        assert store.get(KEY_A) is None


# -- cache keys: the invalidation matrix -------------------------------------

class TestKeys:
    def test_frontend_key_tracks_source_and_name(self):
        base = frontend_key("int main() {}", "a")
        assert frontend_key("int main() {}", "a") == base
        assert frontend_key("int main() { return 0; }", "a") != base
        assert frontend_key("int main() {}", "b") != base

    def test_pipeline_key_tracks_passes_not_run_config(self):
        base = pipeline_key("d" * 64, ["mem2reg", "instrument"],
                            "parallel_for", None)
        assert pipeline_key("d" * 64, ["mem2reg", "instrument"],
                            "parallel_for", None) == base
        assert pipeline_key("d" * 64, ["instrument"],
                            "parallel_for", None) != base
        assert pipeline_key("d" * 64, ["mem2reg", "instrument"],
                            "task", None) != base
        assert pipeline_key("e" * 64, ["mem2reg", "instrument"],
                            "parallel_for", None) != base

    def test_profile_key_tracks_every_run_knob(self):
        def doc(**overrides):
            kwargs = dict(entry="main", args=(), cost_model=None,
                          max_instructions=1000, budgets=None,
                          abstraction=None, options=None, config_kwargs={})
            kwargs.update(overrides)
            return keys.run_config_doc(**kwargs)

        base = profile_key("d" * 64, "carmot", doc())
        assert profile_key("d" * 64, "carmot", doc()) == base
        for changed in (
            doc(entry="other"),
            doc(args=(3,)),
            doc(max_instructions=999),
            doc(budgets=ExecutionBudgets(5000, 1024, 16)),
            doc(config_kwargs={"max_use_records": 7}),
            doc(config_kwargs={
                "resilience": ResiliencePolicy(max_events_per_roi=20)}),
        ):
            assert profile_key("d" * 64, "carmot", changed) != base
        assert profile_key("d" * 64, "naive", doc()) != base
        assert profile_key("e" * 64, "carmot", doc()) != base

    def test_profile_doc_keeps_retired_resilience_fields(self):
        """Profiles cached while ``ResiliencePolicy`` still had the
        process drain's supervision fields, the fault-recovery knobs and
        the daemon queue keep hitting: the key document carries them at
        their old defaults."""
        doc = keys.run_config_doc(
            entry="main", args=(), cost_model=None, max_instructions=1000,
            budgets=None, abstraction=None, options=None,
            config_kwargs={
                "resilience": ResiliencePolicy(max_events_per_roi=2)},
        )
        assert doc["config"]["resilience"] == {
            "degrade": False, "heartbeat_ms": 25, "max_events_per_roi": 2,
            "max_queue_batches": 0, "max_retries": 0,
            "queue_policy": "block", "retry_backoff": 100,
            "worker_deadline_ms": 10_000,
        }

    def test_profile_doc_keeps_the_retired_engine_field(self):
        """Profiles cached while runs still chose an engine keep hitting:
        the key document names the bytecode engine they were keyed on."""
        doc = keys.run_config_doc(
            entry="main", args=(), cost_model=None, max_instructions=1000,
            budgets=None, abstraction=None, options=None, config_kwargs={},
        )
        assert doc["vm"] == "bytecode"

    @pytest.mark.parametrize("example, key", [
        ("roi_loop",
         "d9aed703379490759bfbd0738a5fe4e8754310c352979f1de95dddf09754b6f1"),
        ("stencil_calls",
         "0d28fc32e854ae79740462f4af6607665e2adf4782995bc7cce86495bd749abc"),
        ("anneal_stats",
         "418a3ae7c91763d72b0940f891598aa2aff5c41364235c391a085f249c423f3a"),
    ])
    def test_default_psec_profile_key_is_pinned(self, tmp_path, monkeypatch,
                                                example, key):
        """The profile key a default ``psec`` of an example looks up,
        pinned to its value from before the engine option and the batch
        size were removed: neither entered the key document of a default
        run (Python pinned to 3.11 in the fingerprint so the literal
        holds on every interpreter version)."""
        from pathlib import Path

        from repro.service import PsecRequest, ServiceCore

        fingerprint = keys.environment_fingerprint
        monkeypatch.setattr(keys, "environment_fingerprint",
                            lambda: {**fingerprint(), "python": "3.11"})
        looked_up = []
        real_profile_key = keys.profile_key
        monkeypatch.setattr(
            keys, "profile_key",
            lambda *args: looked_up.append(real_profile_key(*args))
            or looked_up[-1])
        name = f"examples/{example}.mc"
        source = (Path(__file__).resolve().parents[2] / name).read_text()
        doc = ServiceCore(cache_dir=str(tmp_path / "cache")).execute(
            PsecRequest(source=source, name=name))
        assert doc["ok"], doc["error"]
        assert looked_up == [key]

    @pytest.mark.parametrize("budget, key", [
        ("events-per-roi=20000",
         "443162f546b6cdedca9bd10689c48dc937bbe9c979ef7ef0c2076945313606d1"),
        ("steps=5000000,heap=1048576,depth=256,events-per-roi=20000",
         "6d342a58d12b8cdd12534ae996c105422740e07ba88cbcbfb5770bc6684d57c2"),
    ])
    def test_budget_psec_profile_key_is_pinned(self, tmp_path, monkeypatch,
                                               budget, key):
        """The profile key a ``psec --budget`` of ``examples/roi_loop.mc``
        looks up, pinned to its value from before ``ResiliencePolicy``
        lost its retry, degrade and queue fields: the key document goes
        through ``asdict(ResiliencePolicy)``, so a dropped field that is
        not retired would re-key every cached ``--budget`` profile."""
        from pathlib import Path

        from repro.service import PsecRequest, RunOptions, ServiceCore

        fingerprint = keys.environment_fingerprint
        monkeypatch.setattr(keys, "environment_fingerprint",
                            lambda: {**fingerprint(), "python": "3.11"})
        looked_up = []
        real_profile_key = keys.profile_key
        monkeypatch.setattr(
            keys, "profile_key",
            lambda *args: looked_up.append(real_profile_key(*args))
            or looked_up[-1])
        name = "examples/roi_loop.mc"
        source = (Path(__file__).resolve().parents[2] / name).read_text()
        doc = ServiceCore(cache_dir=str(tmp_path / "cache")).execute(
            PsecRequest(source=source, name=name,
                        options=RunOptions(budget=budget)))
        assert doc["ok"], doc["error"]
        assert looked_up == [key]

    def test_environment_fingerprint_is_embedded(self, monkeypatch):
        base = frontend_key("int main() {}", "a")
        monkeypatch.setattr(keys, "IR_SCHEMA_VERSION", 999)
        assert frontend_key("int main() {}", "a") != base


# -- staged sessions ---------------------------------------------------------

class TestSession:
    def test_cold_then_warm(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        cold = session.profile(SOURCE, "carmot")
        assert cold.stages == {"frontend": "miss", "pipeline": "miss",
                               "codegen": "miss", "profile": "miss"}
        assert not cold.cached
        warm = session.profile(SOURCE, "carmot")
        assert warm.stages == {"frontend": "hit", "pipeline": "hit",
                               "codegen": "hit", "profile": "hit"}
        assert warm.cached
        assert warm.payload == cold.payload

    def test_profile_hit_never_executes_the_vm(self, tmp_path, monkeypatch):
        session = Session(cache_dir=str(tmp_path))
        session.profile(SOURCE, "carmot")

        from repro.compiler.driver import CompiledProgram

        def boom(self, *args, **kwargs):
            raise AssertionError("VM executed on a profile hit")

        monkeypatch.setattr(CompiledProgram, "run", boom)
        warm = session.profile(SOURCE, "carmot")
        assert warm.cached

    def test_run_config_change_invalidates_only_profile(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        session.profile(SOURCE, "carmot")
        changed = session.profile(SOURCE, "carmot", max_use_records=10**6)
        assert changed.stages == {"frontend": "hit", "pipeline": "hit",
                                  "codegen": "hit", "profile": "miss"}

    def test_pipeline_change_invalidates_pipeline_and_profile(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        session.profile(SOURCE, "carmot")
        changed = session.profile(SOURCE, "naive")
        assert changed.stages == {"frontend": "hit", "pipeline": "miss",
                                  "codegen": "miss", "profile": "miss"}

    def test_source_change_invalidates_everything(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        session.profile(SOURCE, "carmot")
        changed = session.profile(SOURCE.replace("acc + i", "acc - i"),
                                  "carmot")
        assert changed.stages == {"frontend": "miss", "pipeline": "miss",
                                  "codegen": "miss", "profile": "miss"}

    def test_whitespace_change_reuses_downstream_stages(self, tmp_path):
        # Content addressing, not input addressing: the edited source
        # re-parses, but it lowers to the same IR artifact, so the
        # pipeline and profile stages still hit.
        session = Session(cache_dir=str(tmp_path))
        session.profile(SOURCE, "carmot")
        changed = session.profile(SOURCE + "\n", "carmot")
        assert changed.stages == {"frontend": "miss", "pipeline": "hit",
                                  "codegen": "hit", "profile": "hit"}

    def test_disabled_session_matches_enabled(self, tmp_path):
        live = Session(enabled=False)
        assert live.store is None
        cached = Session(cache_dir=str(tmp_path))
        assert live.profile(SOURCE, "carmot").payload == \
            cached.profile(SOURCE, "carmot").payload

    def test_baseline_profile_is_an_error(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        with pytest.raises(ReproError, match="baseline"):
            session.profile(SOURCE, "baseline")

    def test_corrupt_profile_artifact_recomputes(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        cold = session.profile(SOURCE, "carmot")
        for path in (tmp_path / "objects").rglob("*.json"):
            doc = json.loads(path.read_text())
            if doc["kind"] == "profile":
                doc["payload"] = doc["payload"][:10]
                path.write_text(json.dumps(doc))
        again = session.profile(SOURCE, "carmot")
        assert again.stages["profile"] == "miss"
        assert again.payload == cold.payload


# -- shape-malformed stage artifacts -----------------------------------------

GLOBAL_SOURCE = """
int g;
int main() {
  int i;
  #pragma carmot roi abstraction(parallel_for)
  for (i = 0; i < 8; ++i) { g = g + i; }
  print_int(g);
  return 0;
}
"""


def _drop_global_type(doc):
    del doc["globals"][0]["ty"]


#: (stage, entry kind, mutation of the decoded payload).  Each payload
#: keeps a valid envelope, format and version, so only its shape is
#: wrong.
SHAPE_MALFORMED = {
    "functions_not_a_list": ("frontend", "ir",
                             lambda doc: doc.update(functions=5)),
    "global_without_type": ("frontend", "ir", _drop_global_type),
    "psecs_not_a_list": ("profile", "profile",
                         lambda doc: doc.update(psecs=12345)),
}


@pytest.mark.parametrize("case", sorted(SHAPE_MALFORMED))
def test_shape_malformed_artifact_is_a_miss(tmp_path, case):
    from repro.service.core import ServiceCore
    from repro.service.requests import PsecRequest, RecommendRequest

    stage, kind, mutate = SHAPE_MALFORMED[case]
    source = GLOBAL_SOURCE
    session = Session(cache_dir=str(tmp_path))
    session.profile(source, "carmot", name="g")
    if stage == "frontend":
        key = frontend_key(source, "g")
    else:
        entries = [json.loads(path.read_text())
                   for path in (tmp_path / "objects").rglob("*.json")]
        [key] = [entry["key"] for entry in entries if entry["kind"] == kind]
    doc = json.loads(session.store.get(key))
    mutate(doc)
    session.store.put(key, json.dumps(doc), kind)

    core = ServiceCore(cache_dir=str(tmp_path))
    answer = core.execute_doc(PsecRequest(source=source, name="g").to_doc())
    assert answer["ok"], answer["error"]
    assert answer["meta"]["stages"][stage] == "miss"
    # The recomputed artifact replaced the malformed one.
    again = core.execute(RecommendRequest(source=source, name="g"))
    assert again["meta"]["stages"][stage] == "hit"

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
from repro.vm.bytecode import (
    OP_ADD,
    OP_CALL_BUILTIN,
    OP_JUMP,
    OP_LOAD,
    OP_OMP_BEGIN,
    OP_PROBE_ACCESS,
    OP_ROI_BEGIN,
    OP_ROI_RESET,
    OP_STORE,
    deserialize_bytecode,
)

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
                            "parallel_for")
        assert pipeline_key("d" * 64, ["mem2reg", "instrument"],
                            "parallel_for") == base
        assert pipeline_key("d" * 64, ["instrument"],
                            "parallel_for") != base
        assert pipeline_key("d" * 64, ["mem2reg", "instrument"],
                            "task") != base
        assert pipeline_key("e" * 64, ["mem2reg", "instrument"],
                            "parallel_for") != base

    def test_profile_key_tracks_every_run_knob(self):
        def doc(**overrides):
            kwargs = dict(entry="main", args=(), cost_model=None,
                          max_instructions=1000, budgets=None,
                          abstraction=None, config_kwargs={})
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
            doc(config_kwargs={"callstack_clustering": False}),
            doc(config_kwargs={
                "resilience": ResiliencePolicy(max_events_per_roi=20)}),
        ):
            assert profile_key("d" * 64, "carmot", changed) != base
        assert profile_key("d" * 64, "naive", doc()) != base
        assert profile_key("e" * 64, "carmot", doc()) != base

    def test_run_config_doc_has_only_live_fields(self, tmp_path,
                                                 monkeypatch):
        """The run document a ``psec`` keys its profile on holds the
        run's live knobs and nothing else, with and without a budget:
        no field is kept only so that old keys stay put.  Retiring a
        knob is therefore an edit to this test."""
        from dataclasses import asdict
        from pathlib import Path

        from repro.service import PsecRequest, RunOptions, ServiceCore
        from repro.vm.costmodel import DEFAULT_COST_MODEL

        docs = []
        real_run_config_doc = keys.run_config_doc
        monkeypatch.setattr(
            keys, "run_config_doc",
            lambda *args: docs.append(real_run_config_doc(*args))
            or docs[-1])
        name = "examples/roi_loop.mc"
        source = (Path(__file__).resolve().parents[2] / name).read_text()
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        for options in (RunOptions(), RunOptions(budget="events-per-roi=8")):
            doc = core.execute(PsecRequest(source=source, name=name,
                                           options=options))
            assert doc["ok"], doc["error"]
        default = {
            "entry": "main", "args": [],
            "cost_model": dict(sorted(asdict(DEFAULT_COST_MODEL).items())),
            "max_instructions": 2_000_000_000, "budgets": None,
            "abstraction": None, "config": {},
        }
        assert docs == [default, {
            **default,
            "budgets": {"max_heap_bytes": 0, "max_recursion_depth": 0,
                        "max_steps": 0},
            "config": {"resilience": {"max_events_per_roi": 8}},
        }]

    @pytest.mark.parametrize("example, key", [
        ("roi_loop",
         "2926d174916977616f1953ad946613c579c65ba9df962e0b4e145b357382c590"),
        ("stencil_calls",
         "597dceb63eef64b0ed76a57b32432a61cf0215b8ab8f46fc41fd56008e381c4b"),
        ("anneal_stats",
         "bc12c1b6040dac67ecae46cdb9101c24d12a22c11ec934b15fe8eb9b946520e0"),
    ])
    def test_default_psec_profile_key_is_pinned(self, tmp_path, monkeypatch,
                                                example, key):
        """The profile key a default ``psec`` of an example looks up.
        It last moved when the build options left the run document (a
        build is its pass pipeline; the service always sent them as
        null).  (Python is pinned to 3.11 in the fingerprint so the
        literal holds on every interpreter version.)"""
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
         "58dcdc6a4737adf4e00f4df8b811763b0aac3b5f5cd98f53111771e01cc60947"),
        ("steps=5000000,heap=1048576,depth=256,events-per-roi=20000",
         "dfbadf32c91e15a3240958c1c33abe24309af7c058b76a7022a12937fe2e4056"),
    ])
    def test_budget_psec_profile_key_is_pinned(self, tmp_path, monkeypatch,
                                               budget, key):
        """The profile key a ``psec --budget`` of ``examples/roi_loop.mc``
        looks up.  The key document goes through
        ``asdict(ResiliencePolicy)``, so a dropped policy field re-keys
        every cached ``--budget`` profile.  It last moved when the build
        options left the run document."""
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


# -- one builder -------------------------------------------------------------

@pytest.mark.parametrize("group", [
    "reduce_pin", "callstack_clustering", "callgraph_o3",
    "redundant_instrumentation",
])
def test_figure8_configs_build_alike_live_and_in_a_session(group):
    """Each Figure 8 configuration is one (pipeline, runtime overrides)
    pair, and the two ways to build it agree: the same passes run, the
    IR serializes to the same bytes, and the run gets the same
    ``RuntimeConfig``."""
    from dataclasses import asdict

    from repro.compiler import compile_pipeline
    from repro.harness import BREAKDOWN_GROUPS
    from repro.ir.serialize import serialize_module

    pipeline, overrides = BREAKDOWN_GROUPS[group]
    live = compile_pipeline(SOURCE, pipeline, name="p")
    staged = Session(enabled=False).compile(SOURCE, pipeline,
                                            name="p").program

    def passes_run(program):
        return [run.name for run in program.pass_report.runs]

    assert passes_run(staged) == passes_run(live)
    assert serialize_module(staged.module) == serialize_module(live.module)
    configs = [asdict(program.make_runtime(**overrides)[0].config)
               for program in (live, staged)]
    assert configs[0] == configs[1]
    assert configs[0]["callstack_clustering"] == overrides.get(
        "callstack_clustering", True)


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
  #pragma omp critical
  { g = g + 1; }
  print_int(g);
  return 0;
}
"""


def _drop_global_type(doc):
    del doc["globals"][0]["ty"]


def _set_code(index, value):
    """A mutation that sets word ``index`` of ``main``'s code stream."""
    def mutate(doc):
        [main] = doc["functions"]
        main["code"][index] = value
    return mutate


def _first_pc(doc, opcode):
    """The pc of the first ``opcode`` instruction of the stored ``main``."""
    [main] = deserialize_bytecode(json.dumps(doc)).functions.values()
    return next(pc for pc, words in main.ops if words[0] == opcode)


def _negative_argc(doc):
    [main] = doc["functions"]
    code = main["code"]
    code[_first_pc(doc, OP_CALL_BUILTIN) + 5] = -6  # the width comes out as 0


def _jump_into_an_instruction(doc):
    [main] = doc["functions"]
    code = main["code"]
    code[_first_pc(doc, OP_JUMP) + 1] += 1  # one word past the target


def _register_out_of_range(doc):
    [main] = doc["functions"]
    # The first ``add``'s left operand, 50 registers past the frame.
    main["code"][_first_pc(doc, OP_ADD) + 2] = main["n_regs"] + 50


def _set_operand(opcode, word, value=9999):
    """A mutation that sets word ``word`` of ``main``'s first ``opcode``
    instruction to ``value``: by default, a table index or ROI id past
    the end of its table."""
    def mutate(doc):
        [main] = doc["functions"]
        main["code"][_first_pc(doc, opcode) + word] = value
    return mutate


def _enter_into_an_instruction(doc):
    [main] = doc["functions"]
    main["entry"] += 1


#: (stage, entry kind, mutation of the decoded payload).  Each payload
#: keeps a valid envelope, format and version, so only its shape is
#: wrong.
SHAPE_MALFORMED = {
    "functions_not_a_list": ("frontend", "ir",
                             lambda doc: doc.update(functions=5)),
    "global_without_type": ("frontend", "ir", _drop_global_type),
    "bytecode_retired_opcode_39": ("codegen", "bytecode", _set_code(0, 39)),
    "bytecode_retired_lt_br": ("codegen", "bytecode", _set_code(0, 40)),
    "bytecode_truncated_last_instruction": (
        "codegen", "bytecode", lambda doc: doc["functions"][0]["code"].pop()),
    "bytecode_negative_call_argc": ("codegen", "bytecode", _negative_argc),
    "bytecode_entry_not_an_instruction_start": (
        "codegen", "bytecode", _enter_into_an_instruction),
    "bytecode_branch_not_to_an_instruction_start": (
        "codegen", "bytecode", _jump_into_an_instruction),
    "bytecode_register_slot_out_of_range": (
        "codegen", "bytecode", _register_out_of_range),
    "bytecode_var_index_out_of_range": (
        "codegen", "bytecode", _set_operand(OP_PROBE_ACCESS, 4)),
    "bytecode_loc_index_out_of_range": (
        "codegen", "bytecode", _set_operand(OP_PROBE_ACCESS, 7)),
    "bytecode_string_index_out_of_range": (
        "codegen", "bytecode", _set_operand(OP_OMP_BEGIN, 1)),
    "bytecode_load_type_unknown": (
        "codegen", "bytecode", _set_operand(OP_LOAD, 3, 77)),
    "bytecode_store_type_unknown": (
        "codegen", "bytecode", _set_operand(OP_STORE, 3, 77)),
    "bytecode_roi_begin_id_not_in_module": (
        "codegen", "bytecode", _set_operand(OP_ROI_BEGIN, 1)),
    "bytecode_roi_reset_id_not_in_module": (
        "codegen", "bytecode", _set_operand(OP_ROI_RESET, 1)),
    "bytecode_global_var_index_out_of_range": (
        "codegen", "bytecode",
        lambda doc: doc["globals"][0].update(var=9999)),
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

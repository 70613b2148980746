"""Unit tests for the transport-agnostic service layer.

Covers the typed request surface (:mod:`repro.service.requests`), the
response envelope and digest contract (:mod:`repro.service.core`), the
wire framing (:mod:`repro.service.wire`), and the render layer
(:mod:`repro.service.format`).
"""

import io
import json
import re
import socket
from pathlib import Path

import pytest

from repro._version import SERVICE_SCHEMA_VERSION
from repro.errors import ReproError
from repro.recommend import recommender_registry_fingerprint
from repro.service import (
    DisRequest,
    IrRequest,
    PsecRequest,
    RecommendRequest,
    RenderOptions,
    RunOptions,
    ServeDaemon,
    ServiceCore,
    error_response,
    parse_request_doc,
    render_response,
    response_digest,
)
from repro.service.wire import (
    MAX_FRAME_BYTES,
    WireError,
    encode_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.session.keys import response_key
from tests.helpers.store_entries import entry_kind, rewrite_entry

ROI_SOURCE = """
int main() {
    int a[4];
    int sum;
    sum = 0;
    #pragma carmot roi abstraction(parallel_for)
    {
        for (int i = 0; i < 4; ++i) {
            a[i] = i * 2;
            sum = sum + a[i];
        }
    }
    print_int(sum);
    return 0;
}
"""

#: A ROI per loop iteration, so recommend has something to recommend.
LOOP_SOURCE = (
    Path(__file__).resolve().parents[2] / "examples" / "roi_loop.mc"
).read_text()


#: Run options off the wire that name removed runtime knobs: the object
#: event encoding, thread shards, the drain selector, the engine
#: selector (whatever engine it names), the fault plan, the batch size,
#: and the hybrid static pre-screen (whatever mode it names).
REMOVED_OPTIONS = [
    ({"event_encoding": "object"}, "unknown run option(s): event_encoding"),
    ({"pipeline_shards": 2}, "unknown run option(s): pipeline_shards"),
    ({"drain": "procs"}, "unknown run option(s): drain"),
    ({"vm": "ir"}, "unknown run option(s): vm"),
    ({"vm": "bytecode"}, "unknown run option(s): vm"),
    ({"vm": "jit"}, "unknown run option(s): vm"),
    ({"fault_plan": "seed=7;crash@1"}, "unknown run option(s): fault_plan"),
    ({"fault_plan": "exit@1"}, "unknown run option(s): fault_plan"),
    ({"fault_plan": 5}, "unknown run option(s): fault_plan"),
    ({"fault_plan": None}, "unknown run option(s): fault_plan"),
    ({"batch_size": 16}, "unknown run option(s): batch_size"),
    ({"batch_size": 1}, "unknown run option(s): batch_size"),
    ({"batch_size": None}, "unknown run option(s): batch_size"),
    ({"prescreen": "off"}, "unknown run option(s): prescreen"),
    ({"prescreen": "safe"}, "unknown run option(s): prescreen"),
    ({"prescreen": "aggressive"}, "unknown run option(s): prescreen"),
    ({"prescreen": "yes"}, "unknown run option(s): prescreen"),
]

#: Request fields off the wire that name removed knobs: the quickening
#: report of ``dis`` (whatever value it carries).
REMOVED_FIELDS = [
    ({"kind": "dis", "quicken_report": True},
     "unknown request field(s): quicken_report"),
    ({"kind": "dis", "quicken_report": False},
     "unknown request field(s): quicken_report"),
    ({"kind": "dis", "quicken_report": "false"},
     "unknown request field(s): quicken_report"),
    ({"kind": "dis", "quicken_report": None},
     "unknown request field(s): quicken_report"),
    ({"kind": "psec", "quicken_report": True},
     "unknown request field(s): quicken_report"),
]

#: Run options off the wire whose values do not match the option's type
#: (or, for ``budget``, its syntax): each is a request error, never an
#: ``internal`` one, and never silently accepted.
MALFORMED_OPTIONS = [
    ({"budget": 5}, "'budget' must be a string or null"),
    ({"passes": 3}, "'passes' must be a string or null"),
    ({"abstraction": 5}, "'abstraction' must be a string or null"),
    ({"recommenders": 5}, "'recommenders' must be a string or null"),
    ({"no_cache": "yes"}, "'no_cache' must be a boolean"),
    ({"entry": None}, "'entry' must be a string"),
    ({"budget": "heartbeat=25"}, "unknown budget key 'heartbeat'"),
    ({"budget": "retries=1"}, "unknown budget key 'retries'"),
    ({"budget": "degrade=1"}, "unknown budget key 'degrade'"),
    ({"budget": "backoff=5"}, "unknown budget key 'backoff'"),
    ({"budget": "events-per-roi=-1"},
     "budget 'events-per-roi' must be >= 0, got -1"),
    ({"budget": "steps=lots"}, "bad budget value for 'steps'"),
    ({"budget": "depth=1025"},
     "budget 'depth' must be <= 1024 (the VM's call-depth ceiling), "
     "got 1025"),
]


class TestRunOptions:
    def test_defaults_round_trip_empty(self):
        options = RunOptions()
        assert options.to_doc() == {}
        assert RunOptions.from_doc({}) == options

    def test_non_defaults_round_trip(self):
        options = RunOptions(abstraction="task", no_cache=True,
                             budget="events-per-roi=20")
        doc = options.to_doc()
        assert doc == {"abstraction": "task", "no_cache": True,
                       "budget": "events-per-roi=20"}
        assert RunOptions.from_doc(doc) == options

    def test_unknown_option_rejected(self):
        with pytest.raises(ReproError, match="unknown run option"):
            RunOptions.from_doc({"warp_speed": 9})

    @pytest.mark.parametrize("kwargs", [
        {"abstraction": "bogus"},
        {"abstraction": "parallel-for"},
    ])
    def test_bad_enum_values_rejected(self, kwargs):
        with pytest.raises(ReproError):
            RunOptions(**kwargs)

    def test_uninstrumented_pipeline_rejected(self):
        with pytest.raises(ReproError, match="no instrumenter"):
            RunOptions(passes="selective-mem2reg").profiling_pipeline()

    def test_session_enabled(self):
        assert RunOptions().session_enabled
        assert not RunOptions(no_cache=True).session_enabled
        assert not RunOptions(print_pass_stats=True).session_enabled
        assert not RunOptions(trace=True).session_enabled


class TestRequestDocs:
    def test_round_trip_all_kinds(self):
        requests = [
            RecommendRequest(source="int main(){return 0;}", name="p"),
            PsecRequest(source="s", name="p",
                        options=RunOptions(no_cache=True)),
            IrRequest(source="s", mode="carmot"),
            DisRequest(source="s", mode="naive"),
        ]
        for request in requests:
            doc = json.loads(json.dumps(request.to_doc()))
            assert parse_request_doc(doc) == request

    @pytest.mark.parametrize("kind", ["transmogrify", [1], {"psec": 1}, 3,
                                      None])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ReproError, match="unknown request kind"):
            parse_request_doc({"kind": kind, "source": "s"})

    def test_source_must_be_text(self):
        with pytest.raises(ReproError, match="source"):
            parse_request_doc({"kind": "psec", "source": 42})

    def test_bad_ir_mode_rejected(self):
        with pytest.raises(ReproError, match="ir mode"):
            parse_request_doc({"kind": "ir", "source": "s",
                               "mode": "quantum"})

    def test_bad_dis_mode_rejected(self):
        with pytest.raises(ReproError, match="dis mode"):
            parse_request_doc({"kind": "dis", "source": "s",
                               "mode": "plain"})

    @pytest.mark.parametrize("doc, message", REMOVED_FIELDS)
    def test_removed_request_fields_are_unknown(self, doc, message):
        with pytest.raises(ReproError, match=f"^{re.escape(message)}$"):
            parse_request_doc({"source": "s", **doc})

    def test_unknown_request_field_rejected(self):
        with pytest.raises(ReproError,
                           match=r"^unknown request field\(s\): warp$"):
            parse_request_doc({"kind": "psec", "source": "s", "warp": 9})


class TestServiceCore:
    def test_psec_envelope_shape(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute(PsecRequest(source=ROI_SOURCE, name="unit"))
        assert doc["ok"] is True
        assert doc["kind"] == "psec"
        assert doc["service_schema"] == SERVICE_SCHEMA_VERSION
        assert doc["body"]["sets_digest"]
        (roi,) = doc["body"]["rois"]
        assert list(roi["sets"]) == ["input", "output", "cloneable",
                                     "transfer"]
        assert doc["meta"]["stages"] == {
            "frontend": "miss", "pipeline": "miss",
            "codegen": "miss", "profile": "miss", "response": "miss",
        }

    def test_digest_ignores_meta_and_stays_stable(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        request = PsecRequest(source=ROI_SOURCE, name="unit")
        cold = core.execute(request)
        warm = core.execute(request)
        assert cold["meta"]["stages"] != warm["meta"]["stages"]
        assert response_digest(cold) == response_digest(warm)
        # The digest is over kind+body only: responses that differ in
        # kind must differ in digest even with equal bodies.
        assert response_digest({"kind": "a", "body": {}}) \
            != response_digest({"kind": "b", "body": {}})

    def test_execute_doc_wraps_toolchain_errors(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute_doc({"kind": "psec", "source": "int main( {",
                                "name": "broken"})
        assert doc["ok"] is False
        assert doc["kind"] == "psec"
        assert doc["error"]["type"] == "error"
        assert doc["body"] is None

    @pytest.mark.parametrize("kind", ["nope", [1]])
    def test_execute_doc_wraps_request_errors(self, tmp_path, kind):
        """An unknown kind, unhashable ones included, is an ordinary
        request error; the envelope echoes only a string kind."""
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute_doc({"kind": kind, "source": "s"})
        assert doc == error_response(kind if isinstance(kind, str) else None,
                                     "error", doc["error"]["message"])
        assert "unknown request kind" in doc["error"]["message"]

    @pytest.mark.parametrize("options, message",
                             REMOVED_OPTIONS + MALFORMED_OPTIONS)
    def test_removed_options_get_error_envelope(self, tmp_path, options,
                                                message):
        """Removed or malformed run options off the wire get the
        canonical error envelope."""
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute_doc({"kind": "psec", "source": ROI_SOURCE,
                                "name": "unit", "options": options})
        assert doc == error_response("psec", "error", doc["error"]["message"])
        assert message in doc["error"]["message"]

    @pytest.mark.parametrize("doc, message", REMOVED_FIELDS)
    def test_removed_fields_get_error_envelope(self, tmp_path, doc,
                                               message):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        response = core.execute_doc({"source": ROI_SOURCE, "name": "unit",
                                     **doc})
        assert response == error_response(doc["kind"], "error", message)

    def test_namespaced_cores_do_not_share_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        request = PsecRequest(source=ROI_SOURCE, name="unit")
        first = ServiceCore(cache_dir=cache, namespace="a").execute(request)
        other = ServiceCore(cache_dir=cache, namespace="b").execute(request)
        same = ServiceCore(cache_dir=cache, namespace="a").execute(request)
        assert first["meta"]["stages"]["profile"] == "miss"
        assert other["meta"]["stages"]["profile"] == "miss"
        assert other["meta"]["stages"]["response"] == "miss"
        assert same["meta"]["stages"] == {"response": "hit"}
        assert response_digest(first) == response_digest(other) \
            == response_digest(same)


def _response_entries(cache):
    """Paths of the stored ``response`` artifacts under ``cache``."""
    return [path for path in cache.rglob("*.json")
            if entry_kind(path) == "response"]


class TestResponseArtifact:
    """The finished psec/recommend body, stored and served on repeats."""

    @pytest.mark.parametrize("request_type", [PsecRequest, RecommendRequest])
    def test_repeat_is_served_from_one_entry(self, tmp_path, request_type):
        cache = tmp_path / "cache"
        core = ServiceCore(cache_dir=str(cache))
        request = request_type(source=LOOP_SOURCE, name="unit")
        cold = core.execute(request)
        warm = core.execute(request)
        assert list(cold["meta"]["stages"])[-1] == "response"
        assert cold["meta"]["stages"]["response"] == "miss"
        assert warm["meta"] == {"stages": {"response": "hit"}}
        assert warm["body"] == cold["body"]
        assert len(_response_entries(cache)) == 1

    def test_hit_runs_no_other_stage(self, tmp_path, monkeypatch):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        request = PsecRequest(source=ROI_SOURCE, name="unit")
        cold = core.execute(request)

        def boom(*args, **kwargs):
            raise AssertionError("a stage ran on a response hit")

        monkeypatch.setattr(ServiceCore, "_profile", boom)
        assert response_digest(core.execute(request)) \
            == response_digest(cold)

    @pytest.mark.parametrize("damage", ["truncate", "wrong_shape"])
    def test_damaged_entry_is_recomputed(self, tmp_path, damage):
        cache = tmp_path / "cache"
        core = ServiceCore(cache_dir=str(cache))
        request = PsecRequest(source=ROI_SOURCE, name="unit")
        cold = core.execute(request)
        (path,) = _response_entries(cache)
        if damage == "truncate":
            path.write_text(path.read_text()[:60])
        else:
            # A well-formed entry with a valid SHA over a payload that
            # is not a psec response.
            rewrite_entry(path, json.dumps({
                "format": "repro-response",
                "version": SERVICE_SCHEMA_VERSION,
                "kind": "psec", "body": {"rois": []}}), rehash=True)
        again = core.execute(request)
        assert again["meta"]["stages"]["response"] == "miss"
        assert again["meta"]["stages"]["profile"] == "hit"
        assert response_digest(again) == response_digest(cold)
        # The recomputed body overwrote the damaged entry.
        assert core.execute(request)["meta"]["stages"] == {"response": "hit"}

    @pytest.mark.parametrize("flag", ["no_cache", "trace",
                                      "print_pass_stats"])
    def test_live_options_bypass_the_artifact(self, tmp_path, flag, capsys):
        cache = tmp_path / "cache"
        core = ServiceCore(cache_dir=str(cache))
        request = PsecRequest(source=ROI_SOURCE, name="unit",
                              options=RunOptions(**{flag: True}))
        for _ in range(2):
            doc = core.execute(request)
            assert "response" not in doc["meta"].get("stages", {})
        assert not cache.exists() or not _response_entries(cache)

    def test_request_inputs_change_the_key(self):
        def key(request):
            return response_key(request.to_doc(),
                                recommender_registry_fingerprint())

        base = RecommendRequest(source=LOOP_SOURCE, name="unit")
        assert key(RecommendRequest(source=LOOP_SOURCE, name="unit")) \
            == key(base)
        changed = [
            PsecRequest(source=LOOP_SOURCE, name="unit"),
            RecommendRequest(source=LOOP_SOURCE + "\n", name="unit"),
            RecommendRequest(source=LOOP_SOURCE, name="other"),
        ] + [
            RecommendRequest(source=LOOP_SOURCE, name="unit",
                             options=RunOptions(**option))
            for option in (
                {"recommenders": "paper"},
                {"abstraction": "task"},
                {"budget": "events-per-roi=20"},
            )
        ]
        assert len({key(request) for request in changed} | {key(base)}) \
            == len(changed) + 1
        assert key(base) != response_key(base.to_doc(), "other-registry")

    def test_changed_option_misses_the_response_only(self, tmp_path):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        core.execute(RecommendRequest(source=LOOP_SOURCE, name="unit"))
        doc = core.execute(RecommendRequest(
            source=LOOP_SOURCE, name="unit",
            options=RunOptions(recommenders="paper")))
        assert doc["meta"]["stages"]["profile"] == "hit"
        assert doc["meta"]["stages"]["recommend"] == "miss"
        assert doc["meta"]["stages"]["response"] == "miss"


class TestServeDaemonValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"queue_bound": -1}, "queue bound (--queue) must be >= 0"),
        ({"queue_policy": "drop"}, "queue policy must be one of"),
        ({"workers": 0}, "workers must be >= 1"),
    ])
    def test_bad_admission_settings_rejected(self, tmp_path, kwargs,
                                             message):
        """The daemon validates its own admission control: a bad bound,
        policy or worker count is a ``ReproError`` naming the setting."""
        with pytest.raises(ReproError) as excinfo:
            ServeDaemon(socket_path=str(tmp_path / "s.sock"), **kwargs)
        assert message in str(excinfo.value)


class TestRenderers:
    def test_error_envelope_renders_cli_error_line(self):
        doc = error_response("psec", "error", "boom")
        rendered = render_response(doc, RenderOptions())
        assert rendered.err == "error: boom\n"
        assert rendered.exit_code == 1

    def test_overloaded_renders_exit_2(self):
        doc = error_response("psec", "overloaded", "queue full")
        rendered = render_response(doc, RenderOptions())
        assert "server overloaded" in rendered.err
        assert rendered.exit_code == 2

    def test_renderers_never_print_directly(self, tmp_path, capsys):
        core = ServiceCore(cache_dir=str(tmp_path / "cache"))
        doc = core.execute(PsecRequest(source=ROI_SOURCE, name="unit"))
        rendered = render_response(doc, RenderOptions())
        assert capsys.readouterr() == ("", "")
        assert "ROI" in rendered.out


class TestWire:
    def test_frame_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            doc = {"kind": "ping", "payload": ["x"] * 10}
            write_frame_sync(left, doc)
            assert read_frame_sync(right) == doc
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_frame_sync(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"kind": "ping"})
            left.sendall(frame[:-3])
            left.close()
            with pytest.raises(WireError, match="mid-frame"):
                read_frame_sync(right)
        finally:
            right.close()

    def test_oversized_header_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(WireError, match="bound"):
                read_frame_sync(right)
        finally:
            left.close()
            right.close()

    def test_key_order_preserved(self):
        """Wire framing must not reorder keys: the psec ``sets`` mapping
        carries the canonical set order the renderers print."""
        doc = {"sets": {"input": [], "output": [], "cloneable": [],
                        "transfer": []}}
        decoded = json.loads(encode_frame(doc)[4:].decode())
        assert list(decoded["sets"]) == ["input", "output", "cloneable",
                                        "transfer"]

"""Golden differential: the CLI is a byte-exact client of the service core.

Two contracts, per golden example and per subcommand variant:

1. **CLI == render(core.execute(request))** — every byte a subcommand
   prints (stdout, stderr, exit code) equals rendering the response
   document an in-process :class:`ServiceCore` returns for the same
   request.  The CLI command bodies are therefore pure formatters; any
   stray ``print`` in the orchestration path breaks this suite.
2. **digest identity** — the CLI-side response digest equals the service
   response digest (trivially, since both sides run the same core; the
   check documents the contract the serve suites gate end-to-end).

Plus a structural enforcement: ``cli.py`` may not reference the session
orchestration layer at all — no ``Session`` usage, no direct
profile/compile calls.
"""

import inspect
from pathlib import Path

import pytest

import repro.cli as cli_module
from repro.cli import main
from repro.service import (
    DisRequest,
    IrRequest,
    OverheadRequest,
    PsecRequest,
    RecommendRequest,
    RenderOptions,
    RunOptions,
    ServiceCore,
    render_response,
    response_digest,
)
from tests.helpers.treewalk import treewalk_engine

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def _example(name: str) -> str:
    return f"examples/{name}.mc"


def _case_matrix(name: str):
    """(argv, request, render options) per subcommand variant."""
    path = _example(name)
    source = (REPO / path).read_text()

    def req(cls, options=RunOptions(), **kwargs):
        return cls(source=source, name=path, options=options, **kwargs)

    return [
        (["recommend", path], req(RecommendRequest), RenderOptions()),
        (["recommend", path, "--json"], req(RecommendRequest),
         RenderOptions(json=True)),
        (["recommend", path, "--show-output"], req(RecommendRequest),
         RenderOptions(show_output=True)),
        (["psec", path], req(PsecRequest), RenderOptions()),
        (["psec", path, "--json"], req(PsecRequest),
         RenderOptions(json=True)),
        (["psec", path, "--cache-stats"], req(PsecRequest),
         RenderOptions(cache_stats=True)),
        (["psec", path, "--no-cache"],
         req(PsecRequest, RunOptions(no_cache=True)), RenderOptions()),
        (["overhead", path], req(OverheadRequest), RenderOptions()),
        (["overhead", path, "--json"], req(OverheadRequest),
         RenderOptions(json=True)),
        (["ir", path], req(IrRequest, mode="plain"), RenderOptions()),
        (["ir", path, "--mode", "carmot"], req(IrRequest, mode="carmot"),
         RenderOptions()),
        (["dis", path], req(DisRequest), RenderOptions()),
    ]


@pytest.mark.parametrize("name", EXAMPLES)
def test_cli_output_is_rendered_service_response(name, capsys, tmp_path,
                                                 monkeypatch):
    """Byte equality: subcommand output == render(core.execute(request)).

    The CLI runs against one cache directory and the reference core
    against another, so the comparison also covers cold-vs-cold and
    (within each side) warm runs; stage hits are meta and the pass-stats
    variants carry wall times, so those flags are exercised in the unit
    suites instead.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    core = ServiceCore(cache_dir=str(tmp_path / "core-cache"))
    for argv, request, render in _case_matrix(name):
        exit_code = main(argv)
        captured = capsys.readouterr()
        doc = core.execute(request)
        rendered = render_response(doc, render)
        assert captured.out == rendered.out, argv
        assert captured.err == rendered.err, argv
        assert exit_code == rendered.exit_code, argv


@pytest.mark.parametrize("name", EXAMPLES)
def test_tree_walk_cli_output_matches_the_service(name, capsys):
    """The CLI on the tree-walk oracle prints exactly what the service
    core renders from a bytecode-VM run of the same request."""
    path = _example(name)
    with treewalk_engine():
        exit_code = main(["psec", path, "--no-cache"])
    captured = capsys.readouterr()
    request = PsecRequest(source=(REPO / path).read_text(), name=path,
                          options=RunOptions(no_cache=True))
    rendered = render_response(ServiceCore().execute(request),
                               RenderOptions())
    assert (captured.out, captured.err, exit_code) == \
        (rendered.out, rendered.err, rendered.exit_code)


@pytest.mark.parametrize("name", EXAMPLES)
def test_response_digest_is_deterministic_per_example(name, tmp_path):
    """The digest the serve suites gate on: equal requests produce equal
    digests across independent cores, cold or warm."""
    path = _example(name)
    source = (REPO / path).read_text()
    request = PsecRequest(source=source, name=path)
    core_a = ServiceCore(cache_dir=str(tmp_path / "a"))
    core_b = ServiceCore(cache_dir=str(tmp_path / "b"))
    digests = {
        response_digest(core_a.execute(request)),  # cold
        response_digest(core_a.execute(request)),  # warm
        response_digest(core_b.execute(request)),  # cold, separate store
    }
    assert len(digests) == 1


def test_cli_has_no_session_orchestration():
    """Layer enforcement: command bodies route through ServiceCore only.

    The source may not name the session orchestration entry points —
    profiling/compiling from cli.py would bypass the service layer and
    silently fork the CLI and daemon code paths.
    """
    source = inspect.getsource(cli_module)
    assert "Session" not in source
    assert ".profile(" not in source
    assert ".compile(" not in source
    assert "CarmotRuntime" not in source
    # The store import is maintenance-only (the cache subcommand).
    assert "ArtifactStore" in source


def test_cli_error_path_matches_service_error_rendering(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "broken.mc"
    bad.write_text("int main( {")
    assert main(["psec", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")

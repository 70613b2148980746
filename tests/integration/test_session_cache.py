"""Differential cache tests: a cached profile must be indistinguishable
from a recomputed one — across every runtime fold, under budgets (a
degraded profile included), and through the CLI.

Each case runs the same program three ways: cold (populating the store),
warm (every stage hits), and live (``enabled=False`` / ``--no-cache``).
All three must agree byte-for-byte on the serialized profile and, at the
CLI level, on stdout.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.resilience import parse_budget_spec
from repro.session import Session
from repro.workloads import workload
from tests.helpers.decoder import fold

SOURCE = """
int work(int n) {
  int i, x, acc;
  acc = 0;
  #pragma carmot roi abstraction(parallel_for)
  for (i = 0; i < n; ++i) {
    x = i * 3;
    acc = acc + x;
  }
  return acc;
}
int main() { print_int(work(40)); return 0; }
"""

#: The runtime folds the differential suite must cover: the decoder
#: oracle (``object``) and the in-process kernel (``packed``).
FOLD_CASES = ("object", "packed")

#: Paper ports with small, medium and large event volumes, profiled at
#: their test sizes beside ``SOURCE``.
PORTS = ("bt", "lu", "canneal")

#: VM budgets plus an event budget the ``work`` ROI exceeds, so the
#: profile is degraded.
BUDGET = "steps=5000000,heap=1048576,depth=256,events-per-roi=20"


def _resilient_kwargs():
    spec = parse_budget_spec(BUDGET)
    return {
        "budgets": spec.vm,
        "resilience": spec.runtime,
        "batch_size": 8,
    }


def _cold_warm_live(tmp_path, case, source=SOURCE, **extra):
    """Profile cold, warm and live under one fold case; also return the
    in-process kernel's live payload as the reference."""
    reference = Session(enabled=False).profile(source, "carmot", **extra)
    with fold(case):
        cached = Session(cache_dir=str(tmp_path / "store"))
        cold = cached.profile(source, "carmot", **extra)
        warm = cached.profile(source, "carmot", **extra)
        live = Session(enabled=False).profile(source, "carmot", **extra)
    return cold, warm, live, reference


@pytest.mark.parametrize("program", ("work",) + PORTS)
@pytest.mark.parametrize("case", FOLD_CASES)
def test_cached_profile_matches_recomputed(tmp_path, case, program):
    source = SOURCE if program == "work" \
        else workload(program).test_source("openmp")
    cold, warm, live, reference = _cold_warm_live(tmp_path, case, source,
                                                  name=program)
    assert warm.cached and not cold.cached
    assert cold.payload == warm.payload == live.payload == reference.payload


@pytest.mark.parametrize("case", FOLD_CASES)
def test_cached_profile_matches_under_budgets(tmp_path, case):
    cold, warm, live, reference = _cold_warm_live(
        tmp_path, case, **_resilient_kwargs()
    )
    assert warm.cached
    assert cold.payload == warm.payload == live.payload == reference.payload
    # The degradation report survives the round trip: a degraded cold run
    # must read back as degraded, not silently healthy.
    assert warm.runtime.degraded == live.runtime.degraded
    assert live.runtime.degraded


def test_run_config_shares_compile_but_not_profile(tmp_path):
    session = Session(cache_dir=str(tmp_path / "store"))
    session.profile(SOURCE, "carmot")
    rebatched = session.profile(SOURCE, "carmot", batch_size=8)
    assert rebatched.stages == {"frontend": "hit", "pipeline": "hit",
                             "codegen": "hit", "profile": "miss"}


# -- the CLI as a cache client ----------------------------------------------

@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "work.mc"
    path.write_text(SOURCE)
    return str(path)


def _cli(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestCliCaching:
    def test_psec_output_identical_cold_warm_nocache(
            self, source_file, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "store")]
        cold = _cli(capsys, ["psec", source_file] + cache)
        warm = _cli(capsys, ["psec", source_file] + cache)
        live = _cli(capsys, ["psec", source_file, "--no-cache"])
        assert cold == warm == live

    def test_recommend_identical_under_budgets(
            self, source_file, tmp_path, capsys):
        argv = ["recommend", source_file, "--budget", BUDGET,
                "--batch-size", "8",
                "--cache-dir", str(tmp_path / "store")]
        assert _cli(capsys, argv) == _cli(capsys, argv)

    def test_cache_stats_reports_stages(self, source_file, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "store")]
        main(["psec", source_file] + cache)
        capsys.readouterr()
        assert main(["psec", source_file, "--cache-stats"] + cache) == 0
        assert "cache: response=hit\n" in capsys.readouterr().err
        # A different kind misses the response but reuses every stage.
        assert main(["recommend", source_file, "--cache-stats"] + cache) == 0
        assert ("cache: frontend=hit pipeline=hit codegen=hit profile=hit "
                "recommend=miss response=miss") in capsys.readouterr().err

    def test_corrupt_entry_recomputes_identically(
            self, source_file, tmp_path, capsys):
        store = tmp_path / "store"
        cache = ["--cache-dir", str(store)]
        fresh = _cli(capsys, ["psec", source_file] + cache)
        for path in (store / "objects").rglob("*.json"):
            path.write_text(path.read_text()[:40])
        assert _cli(capsys, ["psec", source_file] + cache) == fresh

    def test_cache_subcommands(self, source_file, tmp_path, capsys):
        store = tmp_path / "store"
        cache = ["--cache-dir", str(store)]
        _cli(capsys, ["psec", source_file] + cache)

        out = _cli(capsys, ["cache", "stats"] + cache)
        assert "entries" in out and "ir" in out and "profile" in out

        assert main(["cache", "verify"] + cache) == 0

        entries = list((store / "objects").rglob("*.json"))
        entries[0].write_text("{broken")
        assert main(["cache", "verify"] + cache) == 1
        capsys.readouterr()

        _cli(capsys, ["cache", "clear"] + cache)
        assert list((store / "objects").rglob("*.json")) == []

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

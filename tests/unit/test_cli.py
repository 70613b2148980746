"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

FIGURE1 = """
int work(int a, int b) {
  int i, x, y;
  y = 42;
  for (i = 0; i < 10; ++i) {
    #pragma carmot roi abstraction(parallel_for)
    { x = i / (a + b); y /= a * x + b; }
  }
  return y;
}
int main() { print_int(work(3, 4)); return 0; }
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "fig1.mc"
    path.write_text(FIGURE1)
    return str(path)


class TestRecommend:
    def test_default_subcommand(self, source_file, capsys):
        assert main([source_file]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp parallel for" in out
        assert "private(i, x)" in out

    def test_show_output(self, source_file, capsys):
        assert main(["recommend", source_file, "--show-output"]) == 0
        assert "program output: 0" in capsys.readouterr().out

    def test_no_rois_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "plain.mc"
        path.write_text("int main() { return 0; }")
        assert main(["recommend", str(path)]) == 1

    def test_abstraction_override(self, source_file, capsys):
        assert main(["recommend", source_file, "--abstraction", "task"]) == 0
        assert "#pragma omp task" in capsys.readouterr().out


class TestPsec:
    def test_sets_printed(self, source_file, capsys):
        assert main(["psec", source_file]) == 0
        out = capsys.readouterr().out
        assert "input" in out and "transfer" in out
        assert "10 invocations" in out


class TestOverhead:
    def test_three_rows(self, source_file, capsys):
        assert main(["overhead", source_file]) == 0
        out = capsys.readouterr().out
        assert "baseline cost" in out
        assert "gap" in out


class TestIr:
    @pytest.mark.parametrize("mode", ["plain", "baseline", "naive", "carmot"])
    def test_modes(self, source_file, mode, capsys):
        assert main(["ir", source_file, "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "func work" in out
        if mode in ("naive", "carmot"):
            assert "probe." in out
        if mode == "plain":
            assert "probe." not in out


class TestPasses:
    def test_explicit_pipeline(self, source_file, capsys):
        assert main(["psec", source_file, "--passes",
                     "carmot,-pin-reduction"]) == 0
        assert "invocations" in capsys.readouterr().out

    def test_print_pass_stats(self, source_file, capsys):
        assert main(["psec", source_file, "--print-pass-stats"]) == 0
        out = capsys.readouterr().out
        assert "pass statistics:" in out
        assert "instrument" in out
        assert "analysis cache" in out

    def test_ir_with_pipeline_overrides_mode(self, source_file, capsys):
        assert main(["ir", source_file, "--passes", "baseline"]) == 0
        assert "probe." not in capsys.readouterr().out

    def test_unknown_pass_lists_registered_names(self, source_file, capsys):
        assert main(["psec", source_file, "--passes", "carmot,typo"]) == 1
        err = capsys.readouterr().err
        assert "unknown pass 'typo'" in err
        assert "registered passes" in err
        assert "pin-reduction" in err

    def test_uninstrumented_pipeline_rejected_for_psec(self, source_file,
                                                       capsys):
        assert main(["psec", source_file, "--passes", "o3"]) == 1
        assert "no instrumenter" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["recommend", "/nonexistent/x.mc"]) == 1

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.mc"
        path.write_text("int main( {")
        assert main(["recommend", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["psec", "dis", "recommend"])
    def test_directory_source_is_an_error(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 1
        assert "Is a directory" in self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["psec", "dis"])
    def test_non_utf8_source_is_an_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad-utf8.mc"
        path.write_bytes(b"int main() { return 0; }\n\xff\n")
        assert main([command, str(path)]) == 1
        assert "not UTF-8" in self._assert_one_error_line(capsys)

    def test_bench_is_not_a_subcommand(self, tmp_path, monkeypatch, capsys):
        """A bare ``bench`` argument reads as ``recommend bench``; beside
        a ``bench/`` directory that is a clean source-read error."""
        (tmp_path / "bench").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["bench"]) == 1
        assert "'bench'" in self._assert_one_error_line(capsys)

    def test_help_without_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--event-encoding", "object"], "unrecognized arguments"),
        (["--pipeline-shards", "2"], "unrecognized arguments"),
        (["--drain", "procs"], "unrecognized arguments"),
        (["--vm", "ir"], "unrecognized arguments"),
        (["--vm", "bytecode"], "unrecognized arguments"),
        (["--fault-plan", "seed=7;crash@1"], "unrecognized arguments"),
        (["--batch-size", "16"], "unrecognized arguments"),
        (["--batch-size", "1024"], "unrecognized arguments"),
        (["--prescreen", "off"], "unrecognized arguments"),
        (["--prescreen", "safe"], "unrecognized arguments"),
        (["--prescreen", "aggressive"], "unrecognized arguments"),
    ])
    def test_removed_runtime_flags_are_usage_errors(self, source_file,
                                                    capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["psec", source_file] + flags)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--budget", "heartbeat=25"],
        ["--budget", "worker-deadline=10000"],
        ["--budget", "retries=1"],
        ["--budget", "degrade=1"],
        ["--budget", "backoff=5"],
    ])
    def test_bad_budget_is_an_error(self, source_file, capsys, flags):
        """Removed budget keys print one ``error:`` line and exit 1 — no
        traceback."""
        assert main(["psec", source_file, "--no-cache"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown budget key" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("budget, message", [
        ("steps=-1", "budget 'steps' must be >= 0, got -1"),
        ("events-per-roi=lots", "bad budget value for 'events-per-roi'"),
        ("heap=", "bad budget value for 'heap'"),
        ("depth=1.5", "bad budget value for 'depth'"),
        ("depth", "bad budget entry 'depth': expected key=value"),
    ])
    def test_malformed_budget_value_is_an_error(self, source_file, capsys,
                                               budget, message):
        """A malformed value for a budget key that stays prints one
        ``error:`` line and exits 1 — no traceback."""
        assert main(["psec", source_file, "--no-cache",
                     "--budget", budget]) == 1
        assert message in self._assert_one_error_line(capsys)

    def test_negative_serve_queue_names_the_flag(self, tmp_path, capsys):
        """A bad ``--queue`` is the daemon's own error, naming its flag —
        there is no ``queue`` budget key."""
        assert main(["serve", "--socket", str(tmp_path / "s.sock"),
                     "--queue", "-1"]) == 1
        err = self._assert_one_error_line(capsys)
        assert "--queue" in err
        assert "budget" not in err

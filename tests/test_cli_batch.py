"""Tests for `repro batch` and the multi-file analyze/lint paths."""

import json

import pytest

from repro.cli import main
from repro.serve import read_jsonl

DEMO = "let id = fn[id] x => x in id (fn[g] y => y)"
OTHER = "(fn[f] x => x) (fn[g] y => y)"
OMEGA = "(fn[w] x => x x) (fn[w2] y => y y)"
NOISY = "let f = fn[noisy] x => print x in f 1"


@pytest.fixture()
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "a_demo.lam").write_text(DEMO)
    (directory / "b_other.lam").write_text(OTHER)
    (directory / "c_noisy.lam").write_text(NOISY)
    return str(directory)


class TestBatchCommand:
    def test_text_output_and_exit_zero(self, corpus, capsys):
        assert main(["batch", corpus, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "a_demo.lam" in out
        assert "3 job(s)" in out
        assert "3 ok" in out

    def test_jsonl_stream_validates(self, corpus, capsys):
        assert main(["batch", corpus, "--format", "jsonl"]) == 0
        records = read_jsonl(capsys.readouterr().out)
        kinds = [record["record"] for record in records]
        assert kinds == ["header", "job", "job", "job", "summary"]
        assert records[-1]["exit_code"] == 0

    def test_warm_cache_hits_with_equal_results(
        self, corpus, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "batch",
            corpus,
            "--jobs",
            "2",
            "--cache-dir",
            cache_dir,
            "--format",
            "jsonl",
            "--envelopes",
        ]
        assert main(argv) == 0
        cold = read_jsonl(capsys.readouterr().out)
        assert main(argv) == 0
        warm = read_jsonl(capsys.readouterr().out)
        cold_jobs = [r for r in cold if r["record"] == "job"]
        warm_jobs = [r for r in warm if r["record"] == "job"]
        # Acceptance: a second run over an unchanged corpus serves
        # >= 90% from cache with deep-equal envelopes.
        hits = [job for job in warm_jobs if job["cache"] != "miss"]
        assert len(hits) / len(warm_jobs) >= 0.9
        assert warm[-1]["cache"]["hit_rate"] >= 0.9
        for before, after in zip(cold_jobs, warm_jobs):
            assert after["envelope"] == before["envelope"]
            assert after["fingerprint"] == before["fingerprint"]

    def test_error_job_fails_batch(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.lam"
        bad.write_text("let let")
        assert (
            main(["batch", corpus, str(bad), "--format", "jsonl"]) == 1
        )
        records = read_jsonl(capsys.readouterr().out)
        by_status = [
            r["status"] for r in records if r["record"] == "job"
        ]
        assert by_status.count("error") == 1
        assert by_status.count("ok") == 3

    def test_degraded_does_not_fail_batch(self, tmp_path, capsys):
        omega = tmp_path / "omega.lam"
        omega.write_text(OMEGA)
        assert main(["batch", str(omega), "--format", "jsonl"]) == 0
        records = read_jsonl(capsys.readouterr().out)
        (job,) = [r for r in records if r["record"] == "job"]
        assert job["status"] == "degraded"
        assert job["fallback_reason"] == "budget"

    def test_lint_and_sanitize_flags(self, corpus, capsys):
        assert main(["batch", corpus, "--lint", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "lint finding" in out

    def test_missing_path_is_an_error(self, capsys):
        assert main(["batch", "/nonexistent-dir"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--jobs", "--cache-size"])
    def test_count_below_one_is_a_usage_error(self, corpus, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", corpus, flag, "0"])
        assert exit_info.value.code == 2
        assert f"{flag}: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "x"])
    def test_timeout_not_positive_finite_is_a_usage_error(
        self, corpus, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", corpus, "--timeout", value])
        assert exit_info.value.code == 2
        assert "--timeout:" in capsys.readouterr().err

    def test_examples_acceptance(self, capsys):
        # The ISSUE.md acceptance criterion, as a regression test.
        assert main(["batch", "examples", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "error" not in out.split("cache:")[0]


class TestMultiFileAnalyze:
    def test_directory_input(self, corpus, capsys):
        assert main(["analyze", corpus]) == 0
        out = capsys.readouterr().out
        assert "a_demo.lam" in out
        assert "b_other.lam" in out
        assert "may call" in out

    def test_multiple_files_json(self, corpus, tmp_path, capsys):
        extra = tmp_path / "extra.lam"
        extra.write_text(OTHER)
        assert main(["analyze", corpus, str(extra), "--json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert len(documents) == 4
        assert all(d["status"] == "ok" for d in documents)
        assert documents[0]["result"]["program"]["size"] == 7

    def test_single_file_path_unchanged(self, tmp_path, capsys):
        # One file must keep the original single-file behaviour
        # (plain document output, not a one-element array).
        path = tmp_path / "demo.lam"
        path.write_text(DEMO)
        assert main(["analyze", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert isinstance(document, dict)
        assert document["program"]["size"] == 7

    def test_one_bad_file_fails_but_reports_all(
        self, corpus, tmp_path, capsys
    ):
        bad = tmp_path / "bad.lam"
        bad.write_text("let let")
        assert main(["analyze", corpus, str(bad)]) == 1
        out = capsys.readouterr().out
        assert "a_demo.lam" in out
        assert "bad.lam" in out

    def test_metrics_flag_rejected_for_batches(
        self, corpus, tmp_path, capsys
    ):
        metrics = str(tmp_path / "metrics.json")
        assert main(["analyze", corpus, "--metrics", metrics]) == 1
        assert "one input file" in capsys.readouterr().err


class TestMultiFileLint:
    def test_directory_input(self, corpus, capsys):
        # c_noisy.lam carries lint findings; exit 1 means findings,
        # and all three files must have been visited.
        code = main(["lint", corpus])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "c_noisy.lam" in out

    def test_empty_directory_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["lint", str(empty)]) == 2

"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

DEMO = "let id = fn[id] x => x in id (fn[g] y => y)"
EFFECTS = "let f = fn[noisy] x => print x in f 1"
DT = (
    "datatype intlist = Nil | Cons of int * intlist;\n"
    "letrec len = fn[len] xs => case xs of Nil => 0 "
    "| Cons(h, t) => 1 + len t end in len (Cons(1, Nil))"
)


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.ml"
    path.write_text(DEMO)
    return str(path)


class TestAnalyze:
    def test_table_output(self, demo_file, capsys):
        assert main(["analyze", demo_file]) == 0
        out = capsys.readouterr().out
        assert "may call" in out
        assert "id" in out

    def test_json_output(self, demo_file, capsys):
        assert main(["analyze", demo_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["program"]["size"] == 7
        assert set(document["program"]["labels"]) == {"id", "g"}
        (site,) = document["call_graph"].values()
        assert site["callees"] == ["id"]

    @pytest.mark.parametrize(
        "algorithm",
        ["standard", "dtc", "equality", "hybrid", "polyvariant"],
    )
    def test_all_algorithms(self, demo_file, capsys, algorithm):
        assert main(
            ["analyze", demo_file, "--algorithm", algorithm]
        ) == 0

    def test_datatype_program(self, tmp_path, capsys):
        path = tmp_path / "list.ml"
        path.write_text(DT)
        assert main(["analyze", str(path)]) == 0

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.ml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.ml"
        path.write_text("let = ")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_label_query_lists_occurrences(self, demo_file, capsys):
        assert main(["query", demo_file, "--label", "g"]) == 0
        out = capsys.readouterr().out
        assert "fn y => y" in out

    def test_membership_query(self, demo_file, capsys):
        assert main(
            ["query", demo_file, "--label", "id", "--expr", "0"]
        ) == 0
        assert capsys.readouterr().out.strip() in ("yes", "no")

    def test_labels_of_query(self, demo_file, capsys):
        assert main(["query", demo_file, "--expr", "0"]) == 0

    def test_query_without_args_fails(self, demo_file, capsys):
        assert main(["query", demo_file]) == 1


class TestApps:
    def test_effects(self, tmp_path, capsys):
        path = tmp_path / "eff.ml"
        path.write_text(EFFECTS)
        assert main(["effects", str(path)]) == 0
        assert "effectful" in capsys.readouterr().out

    def test_klimited(self, demo_file, capsys):
        assert main(["klimited", demo_file, "-k", "1"]) == 0
        assert "callees" in capsys.readouterr().out

    def test_called_once(self, demo_file, capsys):
        assert main(["called-once", demo_file]) == 0
        out = capsys.readouterr().out
        assert "once" in out and "never" in out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, demo_file, k, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["klimited", demo_file, "-k", k])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"-k: must be >= 1, got {k}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["lint", "effects", "klimited"])
    def test_impl_flag_is_gone(self, demo_file, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, demo_file, "--impl", "rules"])
        assert exit_info.value.code == 2
        assert "--impl" in capsys.readouterr().err

    def test_typecheck(self, demo_file, capsys):
        assert main(["typecheck", demo_file]) == 0
        assert "P_7" in capsys.readouterr().out

    def test_typecheck_rejects_untypeable(self, tmp_path, capsys):
        path = tmp_path / "omega.ml"
        path.write_text("(fn x => x x) (fn y => y y)")
        assert main(["typecheck", str(path)]) == 1


class TestEvalAndDot:
    def test_eval(self, tmp_path, capsys):
        path = tmp_path / "run.ml"
        path.write_text("let u = print 1 in 2 + 3")
        assert main(["eval", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1" in out and "=> 5" in out

    def test_eval_fuel(self, tmp_path, capsys):
        path = tmp_path / "loop.ml"
        path.write_text("letrec f = fn x => f x in f 0")
        assert main(["eval", str(path), "--fuel", "100"]) == 1

    def test_dot_stdout(self, demo_file, capsys):
        assert main(["dot", demo_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "doublecircle" in out

    def test_dot_to_file(self, demo_file, tmp_path, capsys):
        target = tmp_path / "g.dot"
        assert main(["dot", demo_file, "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")


class TestObservabilityFlags:
    def test_metrics_written_and_valid(self, demo_file, tmp_path, capsys):
        from repro.obs import validate_metrics

        target = tmp_path / "metrics.json"
        assert main(["analyze", demo_file, "--metrics", str(target)]) == 0
        document = json.loads(target.read_text())
        validate_metrics(document)
        assert document["engine"]["name"] == "subtransitive"
        # The document reflects this invocation's table queries.
        assert document["queries"]["count"] >= 1
        assert f"wrote metrics to {target}" in capsys.readouterr().err

    def test_trace_written_as_jsonl(self, demo_file, tmp_path, capsys):
        from repro.obs import validate_event

        target = tmp_path / "trace.jsonl"
        assert main(["analyze", demo_file, "--events", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines
        events = [validate_event(json.loads(line)) for line in lines]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert {
            key: events[0][key] for key in ("kind", "phase", "action")
        } == {"kind": "phase", "phase": "build", "action": "start"}
        assert any(event["kind"] == "rule" for event in events)
        err = capsys.readouterr().err
        assert f"wrote trace to {target} ({len(events)} events)" in err

    def test_metrics_with_hybrid(self, demo_file, tmp_path):
        from repro.obs import validate_metrics

        target = tmp_path / "metrics.json"
        assert main(
            ["analyze", demo_file, "--algorithm", "hybrid",
             "--metrics", str(target)]
        ) == 0
        document = validate_metrics(json.loads(target.read_text()))
        assert document["engine"]["driver"] == "hybrid"

    def test_metrics_rejected_for_uninstrumented_algorithm(
        self, demo_file, tmp_path, capsys
    ):
        target = tmp_path / "metrics.json"
        assert main(
            ["analyze", demo_file, "--algorithm", "standard",
             "--metrics", str(target)]
        ) == 1
        assert "--metrics/--events require" in capsys.readouterr().err
        assert not target.exists()


CLEAN = "let f = fn[f] x => x in (f 1, f 2)"
OMEGA = "(fn[w] x => x x) (fn[w2] y => y y)"


class TestLint:
    @pytest.fixture()
    def clean_file(self, tmp_path):
        path = tmp_path / "clean.ml"
        path.write_text(CLEAN)
        return str(path)

    def test_clean_program_exits_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, demo_file, capsys):
        assert main(["lint", demo_file]) == 1
        out = capsys.readouterr().out
        # id is called once; g is never called.
        assert "L003" in out and "'id'" in out
        assert "L001" in out and "'g'" in out

    def test_severity_filter_can_clean_the_run(self, demo_file, capsys):
        assert main(["lint", demo_file, "--severity", "error"]) == 0
        assert "L001" not in capsys.readouterr().out

    def test_rules_filter(self, demo_file, capsys):
        assert main(["lint", demo_file, "--rules", "L003"]) == 1
        out = capsys.readouterr().out
        assert "L003" in out and "L001" not in out

    def test_unknown_rule_exits_two(self, demo_file, capsys):
        assert main(["lint", demo_file, "--rules", "L999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_envelope(self, demo_file, clean_file, capsys):
        assert main(
            ["lint", demo_file, clean_file, "--format", "json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.lint/1"
        assert document["errors"] == []
        assert document["summary"]["files"] == 2
        assert document["summary"]["exit_code"] == 1
        by_path = {f["path"]: f for f in document["files"]}
        assert by_path[clean_file]["findings"] == []
        assert by_path[demo_file]["engine"] == "subtransitive"
        assert document["summary"]["by_rule"].keys() >= {"L001", "L003"}

    def test_missing_file_exits_two(self, demo_file, capsys):
        assert main(["lint", demo_file, "/nonexistent.ml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_input_set_text_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "no inputs" in capsys.readouterr().err

    def test_empty_input_set_json_emits_valid_envelope(self, capsys):
        # Regression: machine consumers always get the schema they
        # asked for, even when the corpus expands to nothing.
        assert main(["lint", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.lint/1"
        assert document["files"] == []
        assert document["errors"] == []
        assert document["summary"] == {
            "files": 0,
            "findings": 0,
            "by_rule": {},
            "exit_code": 0,
        }
        assert document["engine"]["name"] == "subtransitive"

    def test_empty_directory_json_emits_valid_envelope(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "corpus"
        empty.mkdir()
        assert main(["lint", str(empty), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["files"] == 0

    def test_explain_prints_derivations(self, tmp_path, capsys):
        path = tmp_path / "escape.ml"
        path.write_text("let f = fn[esc] x => x in print f")
        assert main(["lint", str(path), "--explain"]) == 1
        out = capsys.readouterr().out
        assert "L004" in out
        assert "derivation of L004" in out
        assert "escaping-fun" in out

    def test_explain_json_carries_derivations(self, tmp_path, capsys):
        path = tmp_path / "escape.ml"
        path.write_text("let f = fn[esc] x => x in print f")
        assert main(
            ["lint", str(path), "--explain", "--format", "json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        (entry,) = document["files"]
        escapes = [
            f for f in entry["findings"] if f["rule"] == "L004"
        ]
        assert escapes and escapes[0]["derivation"]

    def test_parse_error_recorded_in_json(self, tmp_path, capsys):
        path = tmp_path / "bad.ml"
        path.write_text("let = ")
        assert main(["lint", str(path), "--format", "json"]) == 2
        document = json.loads(capsys.readouterr().out)
        (error,) = document["errors"]
        assert error["path"] == str(path)
        assert document["summary"]["exit_code"] == 2

    def test_sanitize_flag_reports(self, demo_file, capsys):
        assert main(["lint", demo_file, "--sanitize"]) == 1
        # The report rides along in the text output (and in the JSON
        # document under "sanitize").
        assert "sanitize: ok" in capsys.readouterr().out

    def test_untypeable_program_falls_back(self, tmp_path, capsys):
        path = tmp_path / "omega.ml"
        path.write_text(OMEGA)
        assert main(["lint", str(path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        (entry,) = document["files"]
        assert entry["engine"] == "standard"
        assert entry["fallback_reason"] == "budget"
        assert all(
            f["via"] == "standard" for f in entry["findings"]
        )

    def test_subtransitive_algorithm_terminates_on_untypeable(
        self, tmp_path, capsys
    ):
        # Forcing LC' on an untypeable program still terminates (the
        # depth cap truncates the operator towers) but may miss flows
        # -- which is exactly why the default is the hybrid driver.
        path = tmp_path / "omega.ml"
        path.write_text(OMEGA)
        assert main(
            ["lint", str(path), "--algorithm", "subtransitive"]
        ) == 1

    def test_metrics_requires_single_file(
        self, demo_file, clean_file, tmp_path, capsys
    ):
        target = tmp_path / "m.json"
        assert main(
            ["lint", demo_file, clean_file, "--metrics", str(target)]
        ) == 2
        assert "exactly one input file" in capsys.readouterr().err

    def test_metrics_include_lint_sections(
        self, demo_file, tmp_path, capsys
    ):
        from repro.obs import validate_metrics

        target = tmp_path / "m.json"
        assert main(
            ["lint", demo_file, "--metrics", str(target)]
        ) == 1
        document = validate_metrics(json.loads(target.read_text()))
        timers = document["registry"]["timers"]
        assert "lint.pass.L001" in timers
        counters = document["registry"]["counters"]
        assert counters["queries.labels_of"] == 0


PRINT_HELPER = (
    "let p = fn[p] x => print x in let a = p 1 in let b = p true in ()\n"
)


class TestPrintHelper:
    """A let-bound function that prints its argument is typeable at
    every use (it used to be flagged untypeable by lint, and to stop
    ``analyze`` once a datatype asked for types)."""

    def test_lint_reports_no_type_findings(self, tmp_path, capsys):
        path = tmp_path / "print.ml"
        path.write_text(PRINT_HELPER)
        main(["lint", str(path), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in document["files"][0]["findings"]}
        assert not rules & {"T001", "T002", "T003"}

    def test_datatype_program_keeps_lc(self, tmp_path, capsys):
        path = tmp_path / "print-nat.ml"
        path.write_text("datatype nat = Z | S of nat;\n" + PRINT_HELPER)
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert main(
            ["analyze", str(path), "--json", "--algorithm", "hybrid"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["engine"]["fallback_reason"] is None


class TestSanitizeFlag:
    def test_analyze_sanitize(self, demo_file, capsys):
        assert main(["analyze", demo_file, "--sanitize"]) == 0
        assert "sanitize: ok" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--label", "g"],
            ["effects"],
            ["klimited", "-k", "1"],
            ["called-once"],
            ["dot"],
        ],
    )
    def test_other_entry_points_sanitize(self, demo_file, capsys, argv):
        command, rest = argv[0], argv[1:]
        assert main(
            [command, demo_file] + rest + ["--sanitize"]
        ) == 0
        assert "sanitize: ok" in capsys.readouterr().err


class TestRulesCommand:
    def test_list_shows_programs_and_fingerprint(self, capsys):
        assert main(["rules", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("lint-l002", "lint-l004", "app-called-once"):
            assert name in out
        assert "fingerprint:" in out

    def test_show_renders_program_and_report(self, capsys):
        assert main(["rules", "show", "lint-l002"]) == 0
        out = capsys.readouterr().out
        assert "program lint-l002" in out
        assert "rule stuck-site:" in out
        assert "level 0:" in out

    def test_show_unknown_program_exits_two(self, capsys):
        assert main(["rules", "show", "nonexistent"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_check_shipped_programs_pass(self, capsys):
        assert main(["rules", "check"]) == 0
        assert "stratified" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "fixture, expected",
        [
            ("ill-stratified", "not stratified"),
            ("nonlinear-pairs", "not bounded by O(n+e)"),
            ("unbounded-join", "no join ordering"),
            ("mutual-recursion", "mutually recursive"),
            ("unsafe-head", "range restriction"),
        ],
    )
    def test_check_fixture_rejected_actionably(
        self, capsys, fixture, expected
    ):
        assert main(["rules", "check", "--fixture", fixture]) == 2
        assert expected in capsys.readouterr().err


class TestDaemonCli:
    """`repro daemon` / `repro client` against a thread-hosted daemon."""

    @pytest.fixture()
    def endpoint(self, tmp_path):
        import asyncio
        import os
        import threading

        from repro.daemon import DaemonClient, DaemonServer

        path = str(tmp_path / "repro.sock")
        loop = asyncio.new_event_loop()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(
                DaemonServer(socket_path=path).serve_forever()
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(200):
            if os.path.exists(path):
                break
            threading.Event().wait(0.01)
        yield path
        try:
            with DaemonClient(socket_path=path) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=10)

    def test_define_query_status_stop(self, endpoint, capsys):
        assert main([
            "client", "define", "--socket", endpoint,
            "--project", "p", "--name", "id",
            "--source", "fn[l] x => x",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] is True
        assert main([
            "client", "query", "--socket", endpoint,
            "--project", "p", "--name", "id",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["labels"] == ["l"]
        assert main(["daemon", "status", "--socket", endpoint]) == 0
        out = capsys.readouterr().out
        assert "warm projects" in out and "p:" in out
        assert main(["daemon", "stop", "--socket", endpoint]) == 0

    def test_client_analyze_matches_cold_analyze_json(
        self, endpoint, tmp_path, capsys
    ):
        main([
            "client", "define", "--socket", endpoint,
            "--project", "p", "--name", "id", "--source", "fn x => x",
        ])
        main([
            "client", "define", "--socket", endpoint,
            "--project", "p", "--name", "use", "--source", "id id",
        ])
        capsys.readouterr()
        assert main([
            "client", "analyze", "--socket", endpoint, "--project", "p",
        ]) == 0
        warm = capsys.readouterr().out
        assert main([
            "client", "source", "--socket", endpoint, "--project", "p",
        ]) == 0
        cold_file = tmp_path / "cold.ml"
        cold_file.write_text(capsys.readouterr().out)
        assert main(["analyze", str(cold_file), "--json"]) == 0
        assert capsys.readouterr().out == warm

    def test_define_from_file(self, endpoint, tmp_path, capsys):
        src = tmp_path / "def.ml"
        src.write_text("fn[ff] x => x")
        assert main([
            "client", "define", "--socket", endpoint,
            "--project", "p", "--name", "f", "--file", str(src),
        ]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] is True

    def test_endpoint_is_required(self, capsys):
        assert main(["client", "status"]) == 1
        assert "--socket" in capsys.readouterr().err

    def test_daemon_status_json(self, endpoint, capsys):
        assert main(["daemon", "status", "--socket", endpoint, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert "projects" in status and "metrics" in status

    def test_capacity_below_one_is_a_usage_error(self, tmp_path, capsys):
        argv = [
            "daemon", "start", "--socket", str(tmp_path / "repro.sock"),
            "--capacity", "0",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--capacity: must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "repro.sock").exists()


_EVENT = {
    "seq": 0, "ts": 0.0, "mono": 0.0, "kind": "phase",
    "request_id": None, "component": None,
}

#: One malformed file per failure class, as (an events file, a JSON
#: metrics document); a document's "missing seq" is a missing section.
MALFORMED = {
    "not-json": ("{nope\n", "{nope"),
    "non-object": ("[1, 2]\n", "[1, 2]"),
    "missing-seq": (
        json.dumps({k: v for k, v in _EVENT.items() if k != "seq"}) + "\n",
        json.dumps({"schema": "repro.bench-metrics/1"}),
    ),
    "wrong-schema": (
        json.dumps({"schema": "repro.metrics/1"}) + "\n",
        json.dumps({"schema": "repro.events/1"}),
    ),
}

#: Each ``repro obs`` reader: its argv (BAD is the malformed file) and
#: which form of :data:`MALFORMED` that file takes.
OBS_READERS = {
    "top": (["obs", "top", "BAD"], 0),
    "top-metrics": (["obs", "top", "EVENTS", "--metrics", "BAD"], 1),
    "waterfall": (["obs", "waterfall", "BAD"], 0),
    "tail": (["obs", "tail", "BAD"], 0),
    "req": (["obs", "req", "r1", "--events", "BAD"], 0),
    "diff": (["obs", "diff", "BAD", "METRICS"], 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", sorted(OBS_READERS))
def test_obs_reader_reports_malformed_file(command, case, tmp_path, capsys):
    argv, form = OBS_READERS[command]
    paths = {
        "BAD": tmp_path / "bad",
        "EVENTS": tmp_path / "events.jsonl",
        "METRICS": tmp_path / "metrics.json",
    }
    paths["BAD"].write_text(MALFORMED[case][form])
    paths["EVENTS"].write_text(json.dumps(_EVENT) + "\n")
    paths["METRICS"].write_text(json.dumps({"schema": "repro.metrics/1"}))
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    prefix = f"error: {paths['BAD']}: " + ("line 1: " if form == 0 else "")
    assert err.startswith(prefix) and err.count("\n") == 1, err

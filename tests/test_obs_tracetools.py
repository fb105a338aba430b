"""Offline trace analytics: reading an engine's event file,
completeness, hotspots, the demand waterfall, and the CLOSE-*
provenance cross-check.

The provenance invariant under test is the accounting contract from
the close-rule fix: closure counters count only edges actually added,
so a *complete* trace must satisfy ``#edge events(phase=close) ==
rules[CLOSE-COV] + rules[CLOSE-CONTRA] == graph.close_edges``.
"""

import json

import pytest

from repro.cli import main
from repro.core.queries import analyze_subtransitive
from repro.lang import parse
from repro.obs import (
    EventLog,
    collect_metrics,
    demand_waterfall,
    node_hotspots,
    provenance_check,
    read_event_log,
    rule_hotspots,
    validate_metrics,
)
from repro.obs.tracetools import (
    completeness,
    render_top,
    render_waterfall,
)
from repro.workloads.cubic import make_cubic_program

SOURCE = (
    "let twice = fn[twice] f => fn[inner] x => f (f x) in "
    "twice (fn[inc] y => y + 1) 3"
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    program = make_cubic_program(8)
    # A tiny ring on purpose: the file must still get every event.
    log = EventLog(capacity=16, sink_path=str(path), sink_bytes=None)
    cfa = analyze_subtransitive(program, events=log)
    log.close()
    metrics = validate_metrics(collect_metrics(cfa))
    return str(path), metrics, log


def _event(seq, kind, **fields):
    return {
        "seq": seq, "ts": 0.0, "mono": 0.0, "kind": kind,
        "request_id": None, "component": None, **fields,
    }


class TestReadEvents:
    def test_reads_sink_file(self, traced_run):
        path, _, log = traced_run
        events = read_event_log(path)
        # The sink got every event, ring rotation notwithstanding.
        assert len(events) == log.emitted
        assert len(events) > log.capacity

    def test_accepts_parsed_dicts_and_lines(self):
        events = [_event(0, "demand", node="x")]
        assert read_event_log(events) == events
        assert read_event_log([json.dumps(events[0])]) == events

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="line 1"):
            read_event_log(["{nope"])

    def test_rejects_missing_seq(self):
        event = _event(0, "demand")
        del event["seq"]
        with pytest.raises(ValueError, match="seq"):
            read_event_log([event])


class TestCompleteness:
    def test_sink_stream_is_complete(self, traced_run):
        path, _, _ = traced_run
        report = completeness(read_event_log(path))
        assert report["complete"] is True
        assert report["first_seq"] == 0
        assert report["gaps"] == 0

    def test_buffer_dump_after_rotation_is_incomplete(self, traced_run):
        _, _, log = traced_run
        assert log.dropped > 0
        report = completeness(log.events())
        assert report["complete"] is False
        assert report["first_seq"] > 0

    def test_gap_detected(self):
        events = [
            {"seq": 0, "kind": "demand"},
            {"seq": 2, "kind": "demand"},
        ]
        report = completeness(events)
        assert report["gaps"] == 1
        assert report["complete"] is False


class TestHotspots:
    def test_rule_hotspots_include_closures(self, traced_run):
        path, metrics, _ = traced_run
        counts = rule_hotspots(read_event_log(path))
        rules = metrics["rules"]
        assert counts["ABS"] == rules["ABS-1"]
        assert counts["APP"] == rules["APP-1"]
        assert (
            counts["CLOSE-*"]
            == rules["CLOSE-COV"] + rules["CLOSE-CONTRA"]
        )

    def test_node_hotspots_sorted_and_limited(self, traced_run):
        path, _, _ = traced_run
        rows = node_hotspots(read_event_log(path), limit=5)
        assert len(rows) == 5
        totals = [row["total"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        for row in rows:
            assert row["total"] == (
                row["edges"] + row["demands"] + row["sweeps"]
            )


class TestWaterfall:
    def test_rows_follow_demand_order(self, traced_run):
        path, metrics, _ = traced_run
        events = read_event_log(path)
        rows = demand_waterfall(events)
        assert len(rows) == metrics["nodes"]["demanded"]
        seqs = [row["seq"] for row in rows]
        assert seqs == sorted(seqs)

    def test_attributed_close_edges_sum(self, traced_run):
        # Every closure conclusion lands after the first demand, so
        # the waterfall's close-edge attributions sum to the total.
        path, metrics, _ = traced_run
        rows = demand_waterfall(read_event_log(path))
        assert (
            sum(row["close_edges"] for row in rows)
            == metrics["graph"]["close_edges"]
        )


class TestProvenance:
    def test_complete_trace_checks_out(self, traced_run):
        path, metrics, _ = traced_run
        report = provenance_check(read_event_log(path), metrics)
        assert report["complete"] is True
        assert report["ok"] is True
        assert report["problems"] == []

    def test_tampered_trace_is_caught(self, traced_run):
        path, metrics, _ = traced_run
        events = [
            e
            for e in read_event_log(path)
            if not (e["kind"] == "edge" and e.get("phase") == "close")
        ]
        # Renumber so the stream still *looks* complete: only the
        # accounting cross-check can catch the missing conclusions.
        for seq, event in enumerate(events):
            event["seq"] = seq
        report = provenance_check(events, metrics)
        assert report["complete"] is True
        assert report["ok"] is False
        assert report["problems"]

    def test_incomplete_trace_degrades_to_informational(self, traced_run):
        _, metrics, log = traced_run
        report = provenance_check(log.events(), metrics)
        assert report["complete"] is False
        assert report["problems"] == []

    def test_renderers_return_text(self, traced_run):
        path, metrics, _ = traced_run
        events = read_event_log(path)
        top = render_top(events, metrics=metrics, limit=3)
        assert "rule hotspots" in top
        assert "provenance" in top
        assert "demand waterfall" in render_waterfall(events, limit=3)


class TestEventLogDialect:
    """A daemon's event log goes through the same reader and the same
    CLI (``obs top`` / ``obs waterfall``); request-bound streams get
    the request reports."""

    @pytest.fixture()
    def event_log(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(sink_path=path)
        rid = "req-0001"
        log.emit(
            "request", request_id=rid, component="server",
            verb="define", project="demo",
        )
        log.emit(
            "delta", request_id=rid, component="delta",
            op="define", name="f", retracted_edges=0,
        )
        log.emit(
            "flow", request_id=rid, component="flow",
            steps=12, fused=True,
        )
        log.emit(
            "response", request_id=rid, component="server",
            verb="define", status="ok", seconds=0.004,
        )
        log.flush()
        log.close()
        return path, log.events()

    def test_read_events_rejects_malformed_event_frame(self, event_log):
        path, _ = event_log
        bad = dict(read_event_log(path)[0])
        bad["seq"] = "zero"
        with pytest.raises(ValueError, match="line 1"):
            read_event_log([bad])

    def test_render_top_dispatches_to_request_report(self, event_log):
        path, _ = event_log
        top = render_top(read_event_log(path), limit=5)
        assert "event mix" in top
        assert "request latency" in top
        # And never the engine-trace report.
        assert "rule hotspots" not in top

    def test_render_waterfall_dispatches_to_request_rows(self, event_log):
        path, _ = event_log
        out = render_waterfall(read_event_log(path), limit=5)
        assert "request waterfall" in out
        assert "req-0001" in out
        assert "demand waterfall" not in out

    def test_event_cli_paths(self, event_log, capsys):
        path, _ = event_log
        assert main(["obs", "top", path]) == 0
        assert "request latency" in capsys.readouterr().out
        assert main(["obs", "waterfall", path]) == 0
        assert "request waterfall" in capsys.readouterr().out
        assert main(["obs", "tail", path, "--grep", "delta"]) == 0
        tail = capsys.readouterr().out
        assert '"kind": "delta"' in tail or '"kind":"delta"' in tail
        assert main(["obs", "req", "req-0001", "--events", path]) == 0
        assert "req-0001" in capsys.readouterr().out


class TestObsTraceCli:
    def _traced_files(self, tmp_path):
        source = tmp_path / "prog.ml"
        source.write_text(SOURCE)
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "analyze", str(source),
                    "--events", str(trace),
                    "--metrics", str(metrics),
                ]
            )
            == 0
        )
        return str(trace), str(metrics)

    def test_top_cross_checks_metrics(self, tmp_path, capsys):
        trace, metrics = self._traced_files(tmp_path)
        capsys.readouterr()
        assert main(["obs", "top", trace, "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "close-edge provenance vs metrics: ok" in out

    def test_top_exits_one_on_mismatch(self, tmp_path, capsys):
        trace, metrics = self._traced_files(tmp_path)
        with open(metrics) as handle:
            document = json.load(handle)
        document["rules"]["CLOSE-COV"] += 7
        with open(metrics, "w") as handle:
            json.dump(document, handle)
        assert main(["obs", "top", trace, "--metrics", metrics]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_waterfall(self, tmp_path, capsys):
        trace, _ = self._traced_files(tmp_path)
        capsys.readouterr()
        assert main(["obs", "waterfall", trace, "--limit", "3"]) == 0
        assert "demand waterfall" in capsys.readouterr().out

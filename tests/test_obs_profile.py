"""The span profiler: tree mechanics, folded-stack export, the one
span path, exception balance, and the serve-layer plumbing.

Spans reach a profiler one way only: it is bound to the current
request (``bind_request(profiler=...)``) and every span site reads it
from there, one ``is not None`` test per site. The acceptance
criterion is structural — profiled runs must produce a well-formed
folded-stack export whose top-level spans are layers
(:data:`repro.obs.LAYERS`), while unprofiled runs never touch a
profiler at all.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

import repro
from repro.core.hybrid import analyze_hybrid
from repro.core.queries import analyze_subtransitive
from repro.errors import AnalysisBudgetExceeded
from repro.lang import parse
from repro.lint import run_lints
from repro.obs import (
    LAYERS,
    EventLog,
    Span,
    SpanProfiler,
    bind_request,
    current_request,
    validate_folded,
)
from repro.workloads.cubic import make_cubic_program

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_frames(lines):
    """The set of top-level frames of validated folded lines."""
    validate_folded(lines)
    return {line.rpartition(" ")[0].split(";")[0] for line in lines}


def profiled(run):
    """``run()`` under a freshly bound profiler; returns the profiler."""
    profiler = SpanProfiler()
    with bind_request(profiler=profiler):
        run()
    return profiler

SOURCE = (
    "let twice = fn[twice] f => fn[inner] x => f (f x) in "
    "twice (fn[inc] y => y + 1) 3"
)


class TestSpanTree:
    def test_push_pop_builds_interned_tree(self):
        profiler = SpanProfiler()
        for _ in range(3):
            profiler.push("a")
            profiler.push("b")
            profiler.pop()
            profiler.pop()
        assert profiler.depth == 0
        spans = dict(profiler.walk())
        assert set(spans) == {("a",), ("a", "b")}
        assert spans[("a",)].count == 3
        assert spans[("a", "b")].count == 3

    def test_pop_at_root_raises(self):
        with pytest.raises(RuntimeError):
            SpanProfiler().pop()

    def test_span_context_manager_balances_on_error(self):
        profiler = SpanProfiler()
        with pytest.raises(ValueError):
            with profiler.span("outer"):
                with profiler.span("inner"):
                    raise ValueError("boom")
        assert profiler.depth == 0
        assert dict(profiler.walk())[("outer", "inner")].count == 1

    def test_self_seconds_never_negative(self):
        parent = Span("p", None)
        child = Span("c", parent)
        parent.children["c"] = child
        parent.seconds = 0.5
        child.seconds = 0.7  # clock jitter: child measured longer
        assert parent.self_seconds == 0.0

    def test_recursive_name_nests_as_child(self):
        profiler = SpanProfiler()
        profiler.push("sweep")
        profiler.push("sweep")
        profiler.pop()
        profiler.pop()
        assert {path for path, _ in profiler.walk()} == {
            ("sweep",),
            ("sweep", "sweep"),
        }


class TestFoldedExport:
    def test_folded_lines_validate(self):
        profiler = SpanProfiler()
        with profiler.span("core.build"):
            pass
        with profiler.span("core.close"):
            with profiler.span("sweep"):
                pass
        lines = profiler.folded()
        assert validate_folded(lines) is lines
        stacks = {line.rpartition(" ")[0] for line in lines}
        assert stacks == {
            "core.build",
            "core.close",
            "core.close;sweep",
        }

    def test_weights_are_scaled_self_time(self):
        profiler = SpanProfiler()
        profiler.push("a")
        profiler.pop()
        span = dict(profiler.walk())[("a",)]
        span.seconds = 0.001234
        (line,) = profiler.folded()
        assert line == "a 1234"

    def test_structural_characters_sanitised(self):
        profiler = SpanProfiler()
        with profiler.span("has space;and semi"):
            pass
        validate_folded(profiler.folded())

    @pytest.mark.parametrize(
        "bad",
        [
            ["a"],  # no weight
            ["a -1"],  # negative weight
            ["a 1.5"],  # fractional weight
            [" 3"],  # empty stack
            ["a;;b 3"],  # empty frame
        ],
    )
    def test_validate_folded_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_folded(bad)


class TestEngineProfile:
    def test_profiled_run_has_phase_spans(self):
        program = make_cubic_program(8)

        def run():
            cfa = analyze_subtransitive(program)
            for site in program.nontrivial_applications():
                cfa.may_call(site)

        profiler = profiled(run)
        paths = {path for path, _ in profiler.walk()}
        assert ("core.build",) in paths
        assert ("core.close",) in paths
        assert ("core.close", "sweep") in paths
        # Rule-family attribution under the sweep.
        assert any(
            path[-1] in ("rule.CLOSE-COV", "rule.CLOSE-CONTRA")
            for path in paths
            if len(path) == 3
        )
        validate_folded(profiler.folded())
        assert profiler.depth == 0

    def test_unprofiled_by_default(self):
        from repro.core.lc import LCEngine

        engine = LCEngine(parse(SOURCE))
        assert engine.profiler is None
        engine.run()  # the None default must not be touched by a run
        assert engine.profiler is None

    def test_engine_drops_the_profiler_after_close(self):
        # A warm (daemon) engine outlives its request: a profiler kept
        # past close() would receive a later request's spans.
        from repro.core.lc import LCEngine

        engine = LCEngine(parse(SOURCE))
        profiler = profiled(engine.run)
        assert engine.profiler is None
        assert ("core.close",) in dict(profiler.walk())

    def test_lint_spans(self):
        program = parse(SOURCE)
        profiler = profiled(
            lambda: run_lints(program, analyze_subtransitive(program))
        )
        paths = {path for path, _ in profiler.walk()}
        # One child per pass code under the lint layer, the rule
        # evaluation and its fused flow sweep nested below a pass.
        assert ("lint", "L001") in paths
        assert any(
            path[:1] == ("lint",) and path[-2:] == ("flow", "fused")
            for path in paths
        ), paths
        validate_folded(profiler.folded())

    def test_budget_trip_leaves_profiler_balanced(self):
        def run():
            with pytest.raises(AnalysisBudgetExceeded):
                analyze_subtransitive(make_cubic_program(8), node_budget=5)

        profiler = profiled(run)
        assert profiler.depth == 0
        validate_folded(profiler.folded())

    def test_hybrid_fallback_profiles_both_attempts(self):
        box = {}

        def run():
            box["hybrid"] = analyze_hybrid(
                make_cubic_program(8), node_budget=5
            )

        profiler = profiled(run)
        assert box["hybrid"].engine == "standard"
        paths = {path for path, _ in profiler.walk()}
        # The abandoned LC' attempt and the fallback both show up.
        assert ("core.build",) in paths
        assert ("cfa.standard",) in paths
        assert profiler.depth == 0

    def test_bound_profiler_reaches_analyze(self):
        profiler = profiled(lambda: repro.analyze(parse(SOURCE)))
        assert profiler.total_seconds() > 0.0


class TestLayerVocabulary:
    """Every producer's stacks open with a layer name."""

    def test_layers_are_layerbenchs_less_graph_freeze(self):
        path = os.path.join(ROOT, "layerbench", "spans.py")
        spec = importlib.util.spec_from_file_location("_layer_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert LAYERS == tuple(
            name for name in spans.LAYER_TIMES if name != "graph.freeze"
        )

    def test_obs_flame_first_frames_are_layers(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        output = subprocess.run(
            [
                sys.executable, "-m", "repro", "obs", "flame",
                os.path.join(ROOT, "examples", "lint_showcase.lam"),
                "--lint",
            ],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        frames = first_frames(output.splitlines())
        assert frames <= set(LAYERS), frames
        assert {"lang.parse", "core.build", "core.close", "lint"} <= frames
        # The front end splits the way layerbench splits it.
        stacks = {line.rpartition(" ")[0] for line in output.splitlines()}
        assert {"lang.parse;lang.tokenize", "lang.parse;lang.rename"} <= stacks

    @pytest.mark.parametrize("algorithm", sorted(repro._ALGORITHMS))
    def test_obs_flame_takes_every_algorithm(self, algorithm, tmp_path):
        from repro.cli import main

        out = tmp_path / "flame.folded"
        main([
            "obs", "flame",
            os.path.join(ROOT, "examples", "lint_showcase.lam"),
            "--algorithm", algorithm, "-o", str(out),
        ])
        frames = first_frames(out.read_text().splitlines())
        assert "lang.parse" in frames
        assert frames <= set(LAYERS), frames
        if algorithm == "standard":
            assert frames == {"lang.parse", "cfa.standard"}

    def test_obs_flame_lint_needs_an_lc_algorithm(self, capsys):
        from repro.cli import main

        path = os.path.join(ROOT, "examples", "lint_showcase.lam")
        argv = ["obs", "flame", path, "--algorithm", "dtc", "--lint"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: --lint requires")

    def test_batch_job_stacks_are_rooted_at_serve_job(self):
        from repro.serve import BatchRunner, jobs_from_sources

        runner = BatchRunner(
            jobs=1, profile=True,
            options={"lint": True, "sanitize": True, "audit": True},
        )
        (result,) = runner.run(jobs_from_sources([SOURCE])).results
        assert first_frames(result.profile) == {"serve.job"}
        stacks = {line.rpartition(" ")[0] for line in result.profile}
        for child in ("lang.parse", "core.close", "lint", "sanitize"):
            assert f"serve.job;{child}" in stacks, stacks

    def test_old_span_names_are_gone(self):
        program = parse(SOURCE)
        profiler = profiled(
            lambda: run_lints(program, analyze_hybrid(program))
        )
        for path, _ in profiler.walk():
            for frame in path:
                assert not frame.startswith(("phase.", "job.", "verb.")), path
                assert frame not in ("hybrid.fallback", "delta.delta"), path


class TestRequestNesting:
    def test_nested_profiler_keeps_request_id_and_log(self):
        log = EventLog()
        profiler = SpanProfiler()
        with bind_request("outer-id", log=log) as outer:
            with bind_request(profiler=profiler) as inner:
                assert current_request() is inner
                assert inner.request_id == "outer-id"
                assert inner.log is log
                assert inner.tallies is outer.tallies
                assert inner.profiler is profiler
            assert current_request() is outer
            assert outer.profiler is None

    def test_jobs1_batch_flow_events_reach_the_enclosing_log(self):
        from repro.serve import BatchRunner, jobs_from_sources

        log = EventLog()
        runner = BatchRunner(jobs=1, profile=True, options={"lint": True})
        with bind_request("batch-id", log=log):
            (result,) = runner.run(jobs_from_sources([SOURCE])).results
        assert result.profile is not None
        flow = [e for e in log.events() if e["kind"] == "flow"]
        assert flow and all(e["request_id"] == "batch-id" for e in flow)


class TestServeProfile:
    def _runner(self, profile):
        from repro.serve import BatchRunner

        return BatchRunner(jobs=1, profile=profile)

    def test_profile_rides_the_result_not_the_envelope(self):
        from repro.serve import jobs_from_sources

        batch = self._runner(True).run(jobs_from_sources([SOURCE]))
        (result,) = batch.results
        assert result.profile is not None
        validate_folded(result.profile)
        assert "profile" not in (result.envelope or {})

    def test_profile_off_by_default(self):
        from repro.serve import jobs_from_sources

        batch = self._runner(False).run(jobs_from_sources([SOURCE]))
        assert batch.results[0].profile is None

    def test_profile_does_not_shard_the_cache(self):
        # Profiling is a payload flag, not an analysis option: a
        # profiled and an unprofiled run of the same source must share
        # one cache entry (the profiled run warming it for the other).
        from repro.serve import jobs_from_sources
        from repro.serve.cache import ResultCache

        cache = ResultCache()
        runner_on = self._runner(True)
        runner_on.cache = cache
        runner_on.run(jobs_from_sources([SOURCE]))
        runner_off = self._runner(False)
        runner_off.cache = cache
        batch = runner_off.run(jobs_from_sources([SOURCE]))
        (result,) = batch.results
        assert result.cache == "memory"
        assert result.profile is None  # cache hits carry no profile

    def test_job_record_carries_validated_profile(self):
        from repro.serve import jobs_from_sources
        from repro.serve.protocol import job_record, validate_batch_record

        batch = self._runner(True).run(jobs_from_sources([SOURCE]))
        record = validate_batch_record(job_record(batch.results[0]))
        validate_folded(record["profile"])

    def test_job_record_rejects_malformed_profile(self):
        from repro.serve import jobs_from_sources
        from repro.serve.protocol import job_record, validate_batch_record

        batch = self._runner(True).run(jobs_from_sources([SOURCE]))
        record = job_record(batch.results[0])
        record["profile"] = ["not a folded line"]
        with pytest.raises(ValueError, match=r"\$\.profile"):
            validate_batch_record(record)

"""Envelope equivalence: the CLI's output stays byte-identical, and the
one-pass all-label-sets sweep agrees with the per-query algorithms.

* ``tests/golden/`` holds ``repro analyze --json`` of every example
  under every algorithm the CLI accepts, and ``repro lint --format
  json`` of every example (wall-clock ``pass_seconds`` dropped), as
  committed before the object graph backend was removed. Each is
  regenerated and byte-compared.
* :meth:`~repro.core.queries.SubtransitiveCFA.all_label_sets` must
  equal Algorithm 2 (``labels_of``) for every expression and the
  reverse traversal (``expressions_with_label``) for every label, on
  every kind of graph the engines build, and must not grow the graph.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import cli
from repro.core.polyvariant import analyze_polyvariant
from repro.core.queries import analyze_subtransitive
from repro.daemon import ProjectAnalysis
from repro.errors import AnalysisBudgetExceeded
from repro.export import result_to_dict
from repro.workloads.generators import random_typed_program

from tests.test_daemon_equivalence import drive, ops

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXAMPLE_SOURCES = sorted((ROOT / "examples").glob("*.lam"))

#: Every ``repro analyze --algorithm`` choice, plus ``repro lint``.
MODES = (
    "subtransitive",
    "standard",
    "dtc",
    "equality",
    "hybrid",
    "polyvariant",
    "lint",
)

#: Engines that build an LC' graph (and so answer with the sweep).
GRAPH_ALGORITHMS = ("subtransitive", "hybrid", "polyvariant")

seeds = st.integers(min_value=0, max_value=1_000_000)


class TestExampleEnvelopes:
    @pytest.mark.parametrize(
        "path", EXAMPLE_SOURCES, ids=lambda p: p.name
    )
    @pytest.mark.parametrize("algorithm", MODES)
    def test_examples_byte_identical(
        self, path, algorithm, capsys, monkeypatch
    ):
        # Run from the root so the recorded paths are relative.
        monkeypatch.chdir(ROOT)
        relative = f"examples/{path.name}"
        if algorithm == "lint":
            cli.main(["lint", relative, "--format", "json"])
        else:
            cli.main(["analyze", relative, "--json", "--algorithm", algorithm])
        out, err = capsys.readouterr()
        if algorithm == "lint":
            document = json.loads(out)
            for entry in document["files"]:
                entry.pop("pass_seconds", None)
            out = json.dumps(document, indent=2, sort_keys=True) + "\n"
        golden = GOLDEN_DIR / f"{path.stem}.{algorithm}.json"
        assert out + err == golden.read_text()

    def test_examples_present(self):
        # The glob above going empty would silently skip the suite.
        assert EXAMPLE_SOURCES
        assert len(list(GOLDEN_DIR.glob("*.json"))) == len(
            EXAMPLE_SOURCES
        ) * len(MODES)


def assert_sweep_matches_queries(cfa):
    """``all_label_sets`` against Algorithms 1-2, and its contract:
    no factory node, no edge, one entry per expression."""
    size = (cfa.factory.node_count, cfa.graph.edge_count)
    table = cfa.all_label_sets()
    assert (cfa.factory.node_count, cfa.graph.edge_count) == size
    program = cfa.program
    assert list(table) == [expr.nid for expr in program.nodes]
    for lam in program.abstractions:
        flows = cfa.expressions_with_label(lam.label)
        assert [expr.nid for expr in flows] == [
            nid for nid, labels in table.items() if lam.label in labels
        ], lam.label
    for expr in program.nodes:
        assert table[expr.nid] == cfa.labels_of(expr), expr.nid


class TestGeneratedEnvelopes:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_random_programs_byte_identical(self, seed):
        """The envelope built from the sweep equals the one built from
        one traversal per call site and per label."""
        program = random_typed_program(seed, fuel=20, use_datatypes=True)
        for algorithm in GRAPH_ALGORITHMS:
            try:
                result = repro.analyze(program, algorithm=algorithm)
            except AnalysisBudgetExceeded:
                continue  # polyvariant on unbounded-type programs
            document = result_to_dict(result)
            for site in program.applications:
                callees = document["call_graph"][str(site.nid)]["callees"]
                assert callees == sorted(result.may_call(site)), seed
            for lam in program.abstractions:
                flows = result.expressions_with_label(lam.label)
                assert document["label_flows"][lam.label] == [
                    expr.nid for expr in flows
                ], (seed, algorithm)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        kind=st.sampled_from(
            ["typed", "datatypes", "polyvariant", "daemon"]
        ),
        sequence=ops,
    )
    def test_query_surface_agrees(self, seed, kind, sequence):
        """The sweep equals the per-query reference on random typed
        programs, datatype programs (congruence class nodes),
        polyvariant results (several contexts per occurrence) and warm
        daemon graphs after random edits (retired nodes and edges)."""
        if kind == "daemon":
            pa = ProjectAnalysis()
            for _ in drive(pa, sequence):
                pass
            cfa = pa.cfa()
        else:
            program = random_typed_program(
                seed, fuel=20, use_datatypes=kind == "datatypes"
            )
            try:
                if kind == "polyvariant":
                    cfa = analyze_polyvariant(program)
                else:
                    cfa = analyze_subtransitive(program)
            except AnalysisBudgetExceeded:
                return
        assert_sweep_matches_queries(cfa)

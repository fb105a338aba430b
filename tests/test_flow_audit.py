"""Tests for the bounded-type linearity auditor (repro.flow.audit).

The auditor is the static pre-flight check of the Proposition 3/4
preconditions: the cubic family must audit as bounded (it lives in
P_7), the let-polymorphic doubling family must be flagged (typeable
but with Θ(2^n) type trees), and untypeable programs that declare
datatypes must forecast the hybrid driver's "inference" fallback —
without datatypes LC' runs on them uncapped, so no fallback is
forecast.
"""

import pytest

from repro.core.hybrid import HYBRID_BUDGET_FACTOR, analyze_hybrid
from repro.core.lc import build_subtransitive_graph
from repro.flow.audit import (
    DEFAULT_SIZE_THRESHOLD,
    audit_linearity,
    audit_section,
)
from repro.lang import parse
from repro.workloads.cubic import (
    make_cubic_program,
    make_unbounded_program,
    make_unbounded_source,
)


class TestBoundedVerdicts:
    def test_cubic_family_is_bounded(self):
        audit = audit_linearity(make_cubic_program(24))
        assert audit.typeable
        assert audit.bounded
        # The family's types stay constant-size in n (the paper says
        # P_7 for its measure; ours counts the curried `(bs b_i) f_i`
        # monotypes too and lands at 15 — still independent of n).
        assert audit.max_type_size == audit_linearity(
            make_cubic_program(48)
        ).max_type_size
        assert audit.forecast is None

    def test_cubic_prediction_within_budget(self):
        program = make_cubic_program(24)
        audit = audit_linearity(program)
        assert audit.node_budget == HYBRID_BUDGET_FACTOR * max(
            program.size, 16
        )
        assert audit.predicted_nodes <= audit.node_budget

    def test_unbounded_family_is_flagged(self):
        audit = audit_linearity(make_unbounded_program(8))
        assert audit.typeable  # typeable, yet outside every P_k
        assert not audit.bounded
        assert audit.max_type_size > DEFAULT_SIZE_THRESHOLD
        assert audit.forecast == "budget"

    def test_unbounded_source_agrees_with_builder(self):
        built = audit_linearity(make_unbounded_program(8))
        parsed = audit_linearity(parse(make_unbounded_source(8)))
        assert parsed.typeable == built.typeable
        assert parsed.bounded == built.bounded
        assert parsed.forecast == built.forecast

    def test_untypeable_program_without_datatypes_has_no_forecast(self):
        # Self-application defeats Hindley-Milner inference; with no
        # datatypes the hybrid still runs LC' (uncapped) and answers.
        program = parse("let w = fn[w] x => x x in w (fn[i] y => y)")
        audit = audit_linearity(program)
        assert not audit.typeable
        assert not audit.bounded
        assert audit.max_type_size is None
        assert audit.predicted_nodes is None
        assert audit.forecast is None
        assert "uncapped" in audit.render()
        hybrid = analyze_hybrid(program)
        assert hybrid.engine == "subtransitive"
        assert hybrid.fallback_reason is None

    def test_untypeable_program_with_datatypes_forecasts_inference(self):
        # No congruence can be picked without types: the hybrid falls
        # back to standard CFA, exactly as forecast.
        program = parse(
            "datatype box = Box of int;\n"
            "let w = fn[w] x => x x in w (fn[i] y => y)"
        )
        audit = audit_linearity(program)
        assert not audit.typeable
        assert audit.forecast == "inference"
        assert "fall back to standard CFA" in audit.render()
        hybrid = analyze_hybrid(program)
        assert hybrid.engine == "standard"
        assert hybrid.fallback_reason == "inference"

    def test_type_size_doubles_per_generation(self):
        sizes = [
            audit_linearity(make_unbounded_program(n)).max_type_size
            for n in (4, 6, 8)
        ]
        # t_n has size 2^(n+2) + ... — each extra generation doubles.
        assert sizes[1] > 2 * sizes[0]
        assert sizes[2] > 2 * sizes[1]

    def test_render_mentions_forecast(self):
        audit = audit_linearity(make_unbounded_program(8))
        assert "budget" in audit.render()
        clean = audit_linearity(make_cubic_program(4))
        assert "forecast" not in clean.render()


class TestAuditSection:
    def test_section_without_analysis(self):
        section = audit_section(make_cubic_program(4))
        assert section["actual"] is None
        assert section["within_budget"] is None
        assert section["bounded"] is True

    def test_section_with_analysis(self):
        program = make_cubic_program(8)
        sub = build_subtransitive_graph(program)
        section = audit_section(program, sub)
        actual = section["actual"]
        assert actual["nodes"] == sub.stats.total_nodes
        assert actual["edges"] == sub.stats.total_edges
        assert actual["demanded"] == sub.stats.demanded_nodes
        assert section["within_budget"] is True

    def test_section_with_hybrid_result(self):
        program = make_cubic_program(4)
        section = audit_section(program, analyze_hybrid(program))
        assert section["actual"] is not None
        assert section["within_budget"] is True

    def test_section_is_deterministic(self):
        program = make_cubic_program(4)
        first = audit_section(program, build_subtransitive_graph(program))
        second = audit_section(
            program, build_subtransitive_graph(program)
        )
        assert first == second

    def test_section_is_json_safe(self):
        import json

        section = audit_section(make_cubic_program(4))
        json.dumps(section, sort_keys=True)


class TestThresholdKnob:
    def test_tight_threshold_flags_cubic(self):
        audit = audit_linearity(make_cubic_program(8), size_threshold=2)
        assert audit.typeable
        assert not audit.bounded
        # Threshold only affects boundedness, not the budget forecast.
        assert audit.forecast is None

    def test_inference_reuse(self):
        from repro.types import infer_types

        program = make_cubic_program(4)
        inference = infer_types(program)
        audit = audit_linearity(program, inference=inference)
        assert audit.bounded

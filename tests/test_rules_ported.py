"""Unit tests for the full-coverage rule port.

Covers the checker's bounded-transport discipline checks and the
projection pattern, and the parameterised f004/klimited program
builders.
"""

import pytest

from repro.lang import parse
from repro.rules import GRAPH_SCHEMA, RuleCheckError, check_programs
from repro.rules.check import check_rules
from repro.rules.dsl import (
    LABEL,
    NODE,
    Rel,
    Rule,
    make_vars,
)
from repro.rules.fixtures import FIXTURES
from repro.rules.programs import (
    SHIPPED_PROGRAMS,
    constructor_k,
    f004_program,
    klimited_program,
)
from repro.rules.schema import LAM_AT

N, M, S = make_vars("N M S")

PROGRAM = "let f = fn[f] x => x in let g = fn[g] y => y in f (g 1)"


class TestTransportDiscipline:
    def test_k_mismatch_fixture_rejected(self):
        with pytest.raises(RuleCheckError) as err:
            check_programs(
                FIXTURES["k-transport-mismatch"](), schema=GRAPH_SCHEMA
            )
        assert "requires equal k" in str(err.value)

    def test_value_type_mismatch_fixture_rejected(self):
        with pytest.raises(RuleCheckError) as err:
            check_programs(
                FIXTURES["transport-type-mismatch"](),
                schema=GRAPH_SCHEMA,
            )
        assert "identical value-column types" in str(err.value)

    def test_projection_pattern_accepted(self):
        # A bounded value consumed nowhere is a key-existence view —
        # the pattern the dead-lambda port's called-view rule uses.
        calls = Rel("pcalls", NODE, LABEL, k=1)
        seen = Rel("seen", NODE)
        rules = [
            Rule(calls(N, S), [LAM_AT(N, S)], name="seed"),
            Rule(seen(N), [calls(N, S)], name="project"),
        ]
        checked = check_rules(rules, schema=GRAPH_SCHEMA)
        assert checked.linear

    def test_bounded_value_as_join_key_still_rejected(self):
        calls = Rel("jcalls", NODE, LABEL, k=1)
        bad = Rel("bad", NODE)
        rules = [
            Rule(calls(N, S), [LAM_AT(N, S)], name="seed"),
            Rule(bad(N), [calls(N, S), LAM_AT(M, S)], name="join"),
        ]
        with pytest.raises(RuleCheckError) as err:
            check_rules(rules, schema=GRAPH_SCHEMA, require_linear=False)
        assert "projected away" in str(err.value)


class TestProgramBuilders:
    def test_constructor_k_matches_hand_formula(self):
        program = parse(PROGRAM)
        assert constructor_k(program) == 1

    def test_f004_program_parameterised_by_k(self):
        p1, p3 = f004_program(1), f004_program(3)
        (con_val_1,) = p1.outputs
        (con_val_3,) = p3.outputs
        assert con_val_1.k == 1 and con_val_3.k == 3

    def test_klimited_program_parameterised_by_k(self):
        (klabels,) = klimited_program(5).outputs
        assert klabels.k == 5

    def test_shipped_set_covers_every_ported_analysis(self):
        names = {p.name for p in SHIPPED_PROGRAMS}
        assert names == {
            "lint-l001",
            "lint-l002",
            "lint-l004",
            "lint-l005",
            "lint-f001",
            "lint-f002",
            "lint-f003",
            "lint-f004",
            "app-called-once",
            "app-effects",
            "app-klimited",
        }

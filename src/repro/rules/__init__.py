"""``repro.rules`` — the declarative rule layer.

A stratified Horn-rule DSL (:mod:`~repro.rules.dsl`) over the
subtransitive graph's base relations (:mod:`~repro.rules.schema`),
statically validated (:mod:`~repro.rules.check`: stratification,
range restriction, bounded-value discipline, and a linearity
classifier enforcing the paper's O(n + e) budget) and compiled onto
the fused flow scheduler (:mod:`~repro.rules.engine`), with a naive
reference evaluator (:mod:`~repro.rules.naive`) the property tests
hold the compiler to. See ``docs/RULES.md``.
"""

from repro.rules.check import (
    CheckedRules,
    LinearityVerdict,
    RelationPlan,
    RuleCheckError,
    check_programs,
    check_rules,
    merge_programs,
)
from repro.rules.dsl import (
    Atom,
    Rel,
    Rule,
    RuleProgram,
    RuleSyntaxError,
    Var,
    fingerprint,
    make_vars,
)
from repro.rules.engine import (
    CompiledRuleSet,
    RuleCompileError,
    RuleEvaluation,
    compile_programs,
)
from repro.rules.naive import evaluate_naive, naive_fixpoint
from repro.rules.programs import (
    CALLED_ONCE_PROGRAM,
    L002_PROGRAM,
    L004_PROGRAM,
    SHIPPED_PROGRAMS,
    called_once_rule_set,
    lint_rule_set,
    shipped_fingerprint,
)
from repro.rules.schema import (
    DictFactSource,
    FactSource,
    GRAPH_SCHEMA,
    GraphFactSource,
)

__all__ = [
    "Atom",
    "CALLED_ONCE_PROGRAM",
    "CheckedRules",
    "CompiledRuleSet",
    "DictFactSource",
    "FactSource",
    "GRAPH_SCHEMA",
    "GraphFactSource",
    "L002_PROGRAM",
    "L004_PROGRAM",
    "LinearityVerdict",
    "Rel",
    "RelationPlan",
    "Rule",
    "RuleCheckError",
    "RuleCompileError",
    "RuleEvaluation",
    "RuleProgram",
    "RuleSyntaxError",
    "SHIPPED_PROGRAMS",
    "Var",
    "called_once_rule_set",
    "check_programs",
    "check_rules",
    "compile_programs",
    "evaluate_naive",
    "fingerprint",
    "lint_rule_set",
    "make_vars",
    "merge_programs",
    "naive_fixpoint",
    "shipped_fingerprint",
]

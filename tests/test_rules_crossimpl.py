"""Property-based oracle for the compiled rule engine on real graphs.

Hypothesis drives seeded random well-typed programs (the same
generator family the envelope-equivalence suite uses) through every
shipped rule program twice — the compiled engine (lowered joins plus
fused flow sweeps) against :func:`~repro.rules.naive.naive_fixpoint`,
the textbook bottom-up evaluator over the same subtransitive graph —
and requires identical extents for every derived relation: the merged
lint set (every L/F program plus called-once), the effects program,
the k-limited program for k = 1..3, and called-once on its own.
"""

from hypothesis import given, settings, strategies as st

from repro.core.lc import build_subtransitive_graph
from repro.flow.framework import FlowContext
from repro.rules import GraphFactSource, naive_fixpoint
from repro.rules.programs import (
    called_once_rule_set,
    constructor_k,
    effects_rule_set,
    klimited_rule_set,
    lint_rule_set,
)
from repro.workloads.generators import random_typed_program

seeds = st.integers(min_value=0, max_value=10_000)


def assert_compiled_matches_naive(program, sub, rule_set):
    compiled = rule_set.run(ctx=FlowContext(program, sub))
    reference = naive_fixpoint(
        rule_set.checked, GraphFactSource(FlowContext(program, sub))
    )
    assert compiled.extents.data == reference.data


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_lint_programs_match_naive_on_random_programs(seed):
    program = random_typed_program(seed, fuel=20)
    sub = build_subtransitive_graph(program)
    assert_compiled_matches_naive(
        program, sub, lint_rule_set(constructor_k(program))
    )


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_effects_program_matches_naive_on_random_programs(seed):
    program = random_typed_program(seed, fuel=20)
    sub = build_subtransitive_graph(program)
    assert_compiled_matches_naive(program, sub, effects_rule_set())


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    k=st.integers(min_value=1, max_value=3),
)
def test_klimited_program_matches_naive_on_random_programs(seed, k):
    program = random_typed_program(seed, fuel=18)
    sub = build_subtransitive_graph(program)
    assert_compiled_matches_naive(program, sub, klimited_rule_set(k))


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_called_once_program_matches_naive_on_random_programs(seed):
    program = random_typed_program(seed, fuel=20)
    sub = build_subtransitive_graph(program)
    assert_compiled_matches_naive(program, sub, called_once_rule_set())

"""Property tests: compiled rule sweeps == naive bottom-up reference.

Random stratified, linear rule programs over random small digraphs —
every program the generator emits is admissible by construction (the
checker is still run; a rejection would itself be a bug), and the
compiled engine must produce exactly the extents the textbook fixpoint
does, including the k-bounded lattice's MANY saturation.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.rules import (
    CompiledRuleSet,
    DictFactSource,
    Rel,
    Rule,
    RuleProgram,
    make_vars,
    naive_fixpoint,
)
from repro.rules.dsl import NID, NODE  # noqa: E402

N, M, S = make_vars("N M S")

EDGE = Rel("edge", NODE, NODE, kind="edb")
MARK = Rel("mark", NODE, kind="edb")
SRC = Rel("src", NID, NODE, kind="edb")
SCHEMA = {"edge": EDGE, "mark": MARK, "src": SRC}

#: Derived relations R0..R3, built fresh per example (Rel identity is
#: per-program).
NUM_RELS = 4

# -- generators ----------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=7)

graphs = st.fixed_dictionaries(
    {
        "edges": st.sets(
            st.tuples(node_ids, node_ids), max_size=24
        ),
        "marks": st.sets(node_ids, max_size=4),
        "srcs": st.sets(
            st.tuples(
                st.integers(min_value=100, max_value=104), node_ids
            ),
            max_size=5,
        ),
    }
)

#: One derived relation's definition, always stratified and linear:
#: a seed premise (mark, or copy of a strictly earlier relation),
#: optional edge-propagation recursion, optional negation of a
#: strictly earlier relation.
rel_specs = st.fixed_dictionaries(
    {
        "seed": st.sampled_from(["mark", "copy"]),
        "recursive": st.sampled_from(
            [None, "successors", "predecessors"]
        ),
        "negate": st.booleans(),
    }
)

programs_strategy = st.lists(
    rel_specs, min_size=1, max_size=NUM_RELS
)


def build_program(specs):
    """Materialise a spec list into one stratified RuleProgram."""
    rels = [Rel(f"r{i}", NODE) for i in range(len(specs))]
    rules = []
    for i, spec in enumerate(specs):
        rel = rels[i]
        if spec["seed"] == "copy" and i > 0:
            seed_body = [rels[i - 1](N)]
        else:
            seed_body = [MARK(N)]
        if spec["negate"] and i > 0:
            # Negate a strictly earlier relation: stratified by
            # construction, bound by the positive seed premise.
            seed_body.append(~rels[i - 1](N))
        rules.append(Rule(rel(N), seed_body, name=f"r{i}-seed"))
        if spec["recursive"] == "successors":
            rules.append(
                Rule(rel(N), [rel(M), EDGE(M, N)], name=f"r{i}-step")
            )
        elif spec["recursive"] == "predecessors":
            rules.append(
                Rule(rel(N), [rel(M), EDGE(N, M)], name=f"r{i}-step")
            )
    return RuleProgram("random", rules, outputs=rels)


def fact_source(graph):
    return DictFactSource(
        SCHEMA,
        {
            "edge": graph["edges"],
            "mark": [(n,) for n in graph["marks"]],
            "src": graph["srcs"],
        },
    )


# -- properties ----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graph=graphs, specs=programs_strategy)
def test_compiled_matches_naive_on_random_programs(graph, specs):
    program = build_program(specs)
    compiled = CompiledRuleSet([program], schema=SCHEMA)
    evaluation = compiled.run(source=fact_source(graph))
    reference = naive_fixpoint(compiled.checked, fact_source(graph))
    assert evaluation.extents.data == reference.data


@settings(max_examples=80, deadline=None)
@given(graph=graphs, k=st.integers(min_value=1, max_value=3))
def test_bounded_transport_matches_naive(graph, k):
    calls = Rel("calls", NODE, NID, k=k)
    program = RuleProgram(
        "calls",
        [
            Rule(calls(N, S), [SRC(S, N)], name="seed"),
            Rule(calls(N, S), [calls(M, S), EDGE(M, N)], name="step"),
        ],
    )
    compiled = CompiledRuleSet([program], schema=SCHEMA)
    evaluation = compiled.run(source=fact_source(graph))
    reference = naive_fixpoint(compiled.checked, fact_source(graph))
    assert evaluation.extents.data == reference.data


@settings(max_examples=40, deadline=None)
@given(graph=graphs, specs=programs_strategy)
def test_explain_never_changes_extents(graph, specs):
    program = build_program(specs)
    compiled = CompiledRuleSet([program], schema=SCHEMA)
    plain = compiled.run(source=fact_source(graph))
    explained = compiled.run(source=fact_source(graph), explain=True)
    assert plain.extents.data == explained.extents.data


def join_shapes_program(k):
    """Seed/join rules covering every access path the join lowering
    emits: a constant, a variable repeated within an atom, a member
    test and an index probe into base and derived relations, a scan
    of a two-column derived relation, negated one- and two-column
    derived atoms, a k-bounded annotation transported through a join
    and then projected away, and a copy and a flip of a two-column
    derived relation."""
    P = make_vars("P")[0]
    self_loop = Rel("self_loop", NODE)
    from100 = Rel("from100", NODE)
    pair = Rel("pair", NODE, NODE)
    back = Rel("back", NODE, NODE)
    two_hop = Rel("two_hop", NODE, NODE)
    probe = Rel("probe", NODE, NODE)
    calls = Rel("calls", NODE, NID, k=k)
    moved = Rel("moved", NODE, NID, k=k)
    seen = Rel("seen", NODE)
    copy = Rel("copy", NODE, NODE)
    flip = Rel("flip", NODE, NODE)
    rules = [
        Rule(self_loop(N), [EDGE(N, N)], name="repeated"),
        Rule(from100(N), [SRC(100, N)], name="constant"),
        Rule(pair(N, M), [EDGE(N, M), MARK(M)], name="member"),
        Rule(back(M, N), [pair(N, M), ~self_loop(M)], name="scan"),
        Rule(
            two_hop(N, P),
            [pair(N, M), EDGE(M, P), ~pair(M, P)],
            name="negated-pair",
        ),
        Rule(probe(N, M), [MARK(M), pair(N, M)], name="derived-probe"),
        Rule(calls(N, S), [SRC(S, N)], name="calls-seed"),
        Rule(moved(M, S), [calls(N, S), EDGE(N, M)], name="transport"),
        Rule(seen(N), [moved(N, S)], name="projection"),
        Rule(copy(N, M), [pair(N, M)], name="copy"),
        Rule(flip(M, N), [pair(N, M)], name="flip"),
    ]
    return RuleProgram("join-shapes", rules)


@settings(max_examples=80, deadline=None)
@given(graph=graphs, k=st.integers(min_value=1, max_value=3))
def test_join_shapes_match_naive(graph, k):
    compiled = CompiledRuleSet(
        [join_shapes_program(k)], schema=SCHEMA, require_linear=False
    )
    evaluation = compiled.run(source=fact_source(graph))
    reference = naive_fixpoint(compiled.checked, fact_source(graph))
    assert evaluation.extents.data == reference.data
    explained = compiled.run(source=fact_source(graph), explain=True)
    assert explained.extents.data == reference.data

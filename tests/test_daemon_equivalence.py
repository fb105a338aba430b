"""Property-based equivalence: warm daemon state vs. cold analysis.

Hypothesis drives random define/redefine/undefine sequences against a
:class:`~repro.daemon.delta.ProjectAnalysis` and checks, after every
mutation, that the warm ``repro.result/1`` envelope is byte-identical
to a cold analysis of the rendered source. Fallbacks count as passes
only because the fallback path *is* the cold path (replay); the test
asserts any fallback carries a known reason. A definition may be
rejected for exceeding the node budget only if the project kept its
previous envelope and a cold analysis of the would-be program exceeds
the budget too. Lint output — finding positions included, now that
the warm chain restamps cold-parse line numbers after every mutation
— and the linearity audit are compared against the true cold run
after every mutation too, so the daemon's per-definition inference
memo is checked on every refill, not only on its first.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.daemon import FALLBACK_REASONS, ProjectAnalysis
from repro.daemon.delta import free_base_names
from repro.errors import AnalysisBudgetExceeded, ScopeError
from repro.export import result_to_dict
from repro.flow.audit import audit_linearity
from repro.lang.parser import parse_expr
from repro.serve.worker import _lint_section

# Binder-free and single-binder bodies; {ref} is replaced with an
# existing name (or dropped when there is none yet).
TEMPLATES = (
    "fn x => x",
    "fn x => x x",
    "fn[t{i}] y => y",
    "fn f => fn g => fn x => f (g x)",
    "{ref}",
    "{ref} {ref}",
    "fn z => {ref} z",
    "{ref} (fn[a{i}] w => w)",
    "fn[r{i}] x => {ref} ({ref} x)",
    # Typing edge cases for the per-definition inference memo: a print
    # helper and its uses, a flex record projection and a pair to
    # apply it to, and a redefinition that changes a scheme.
    "fn[p{i}] x => print x",
    "{ref} 1",
    "{ref} true",
    "fn r => #1 r",
    "{ref} (1, 2)",
    "fn x => x + 1",
)

ops = st.lists(
    st.tuples(
        st.sampled_from(["define", "redefine", "undefine"]),
        st.integers(min_value=0, max_value=len(TEMPLATES) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=8,
)


def build_source(template, names, pick, counter):
    if "{ref}" in template and not names:
        template = "fn x => x"
    source = template.replace("{i}", str(counter))
    while "{ref}" in source:
        source = source.replace(
            "{ref}", names[pick % len(names)], 1
        )
        pick += 1
    return source


def drive(pa, sequence):
    """Apply ``sequence`` to ``pa`` step by step, yielding ``(verb,
    name, source, error)``: ``error`` is the ScopeError or
    AnalysisBudgetExceeded that rejected the step, if any. A redefine
    may turn recursive through ``{ref}`` (a letrec flip for a lambda
    body, a rejected letrec violation otherwise); an undefine of a
    referenced name is rejected."""
    names = []
    for counter, (verb, index, pick) in enumerate(sequence):
        if verb == "define" or not names:
            verb, name = "define", f"d{counter}"
        else:
            name = names[pick % len(names)]
        source = None
        if verb != "undefine":
            source = build_source(TEMPLATES[index], names, pick, counter)
        try:
            if source is None:
                pa.undefine(name)
            else:
                pa.define(name, source)
        except (ScopeError, AnalysisBudgetExceeded) as error:
            yield verb, name, source, error
            continue
        if verb == "define":
            names.append(name)
        elif verb == "undefine":
            names.remove(name)
        yield verb, name, source, None


def envelope_json(cfa):
    return json.dumps(result_to_dict(cfa), sort_keys=True)


def would_be_source(pa, name, source):
    """The rendered program ``pa.define(name, source)`` would have
    produced (``pa`` holds the pre-operation definitions)."""
    bindings = {d.name: d.source for d in pa.defs}
    bindings[name] = source
    lines = []
    for def_name, def_source in bindings.items():
        recursive = def_name in free_base_names(parse_expr(def_source))
        keyword = "letrec" if recursive else "let"
        lines += [f"{keyword} {def_name} =", "(", def_source, ")", "in"]
    return "\n".join(lines + ["()"]) + "\n"


def run_sequence(sequence):
    pa = ProjectAnalysis()
    previous = envelope_json(pa.cfa())
    for verb, name, source, error in drive(pa, sequence):
        if isinstance(error, AnalysisBudgetExceeded):
            assert envelope_json(pa.cfa()) == previous, (verb, name)
            with pytest.raises(AnalysisBudgetExceeded):
                ProjectAnalysis.cold_cfa(would_be_source(pa, name, source))
        elif error is not None:
            # A fresh name never clashes; rejections leave the state
            # exact (checked below).
            assert verb != "define", error
        rendered = pa.render_source()
        cold_cfa = ProjectAnalysis.cold_cfa(rendered)
        warm = envelope_json(pa.cfa())
        assert warm == envelope_json(cold_cfa), (verb, name, rendered)
        report = pa.sanitize()
        assert report["ok"], report["violations"]
        cold_program = cold_cfa.sub.program
        assert pa.linearity_audit().to_dict() == audit_linearity(
            cold_program
        ).to_dict(), (verb, name, rendered)
        assert json.dumps(pa.lint(), sort_keys=True) == json.dumps(
            _lint_section(cold_program, cold_cfa), sort_keys=True
        ), (verb, name, rendered)
        previous = warm
    for reason, count in pa.fallbacks.items():
        assert reason in FALLBACK_REASONS
        assert count >= 0


# d6 = fn[r6] x => d3 (d4 x) on top of d0 = fn x => x,
# d1/d2 = d0 (fn[a] w => w), d3 = fn[r3] x => d0 (d1 x), d4 = d0 and
# d5 = compose is untypeable; it used to grind towards a flat
# million-node budget for a minute before being rejected.
BUDGET_GRIND = [
    ("define", 0, 0),
    ("define", 7, 0),
    ("define", 7, 0),
    ("define", 8, 0),
    ("define", 4, 0),
    ("define", 3, 0),
    ("define", 8, 3),
]


# d1 = d0 (1, 2) over d0 = fn r => #1 r: d1 must instantiate d0's
# scheme as it stood before d0's own projection was resolved.
FLEX_RECORD = [("define", 12, 0), ("define", 13, 0)]

# d0 = fn[p0] x => print x, used at int (d1) and at bool (d2).
PRINT_AT_TWO_TYPES = [("define", 9, 0), ("define", 10, 0), ("define", 11, 0)]

# d1 = d0 (fn[a1] w => w) names d0 = fn x => x, which then turns
# recursive (d0 = fn z => d0 z): a letrec flip that changes d0's
# scheme, and with it the sizes of d1's types.
LETREC_FLIP = [("define", 0, 0), ("define", 7, 0), ("redefine", 6, 0)]

# d1 = fn x => x x makes the program untypeable; undefining it makes
# it typeable again.
UNTYPEABLE_AND_BACK = [("define", 0, 0), ("define", 1, 0), ("undefine", 0, 1)]


# The one (CSR) graph; the name keeps the test's id. This test alone
# carries the random-sequence coverage, hence 80 examples.
@settings(max_examples=80, deadline=None)
@given(sequence=ops)
@example(sequence=BUDGET_GRIND)
@example(sequence=FLEX_RECORD)
@example(sequence=PRINT_AT_TWO_TYPES)
@example(sequence=LETREC_FLIP)
@example(sequence=UNTYPEABLE_AND_BACK)
def test_random_sequences_csr_backend(sequence):
    run_sequence(sequence)


# The one (CSR) graph; the param keeps the test's id.
@pytest.mark.parametrize("backend", ["csr"])
def test_worst_case_sequence(backend):
    """A hand-picked sequence that exercises every delta path:
    append, letrec, redefine-with-cascade, fallback, undefine."""
    run_sequence(
        [
            ("define", 0, 0),
            ("define", 4, 0),
            ("redefine", 1, 0),
            ("define", 8, 1),
            ("redefine", 3, 1),
            ("undefine", 0, 2),
            ("define", 7, 0),
        ]
    )
